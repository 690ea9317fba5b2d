"""Print how far each golden output has moved from its committed file.

For every file under ``tests/golden``, regenerates the output with the
generators of ``tests/test_golden.py`` and prints the largest
``|actual - golden|`` over its numbers (``test_golden.worst_deviation``, the
rule ``test_run_matches_golden`` asserts), with the JSON path where it
occurs, one line per file, worst first:

    python tools/golden_margin.py

A field that differs in anything but its number (a key, a flag, a list
length) or whose difference is NaN prints as ``mismatch``.  Exits 1 if any file is past
``test_golden.NUMBER_TOL`` or mismatched.  It measures the checkout it sits
in: its own ``../src`` goes first on ``sys.path``, and it exits 1 if
``pointersim`` is imported from anywhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests")]

import pointersim  # noqa: E402
import test_golden  # noqa: E402


def main() -> int:
    if Path(pointersim.__file__).resolve().parent != (SRC / "pointersim").resolve():
        print(f"error: imported pointersim from {pointersim.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in test_golden.GOLDEN_NAMES:
            out = Path(tmp) / name
            out.mkdir()
            with contextlib.redirect_stdout(io.StringIO()):
                text = test_golden.golden_text(name, out)
            found = test_golden.worst_deviation(json.loads(text), test_golden.load_golden(name))
            rows.append(found + (name,))
    rows.sort(key=lambda row: row[0], reverse=True)
    for margin, path, name in rows:
        shown = "mismatch" if margin == math.inf else f"{margin:.3e}"
        print(f"{shown:>9}  {name}  {path}")
    return 1 if rows[0][0] > test_golden.NUMBER_TOL else 0


if __name__ == "__main__":
    sys.exit(main())
