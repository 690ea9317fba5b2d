"""Print the SHA-256 of every file the CLI writes for a fixed command set.

Runs, through ``pointersim.cli.main`` only, each bundled scenario with
``run`` and with ``sweep --multipliers 2 1.5 1 0.75 0.5``, the golden
commands of ``tests/test_golden.COMMANDS`` (``lg-check`` for l = 0, 1, 2,
``entangle`` and ``appendix-a``), ``lg-check`` for l = 16 (a 512^2 derived
grid) and for l = 8 at sigma = 1e20, and ``validate``, into a temporary
directory.  Prints ``sha256  filename`` per
output file, sorted by name.  Two checkouts write the same bytes when the
output of

    python tools/output_digest.py

is the same on both (``diff`` of the two listings is empty).  It digests
the checkout it sits in: its own ``../src`` goes first on ``sys.path``, and it
exits 1 if ``pointersim`` is imported from anywhere else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests")]

import pointersim  # noqa: E402
import test_golden  # noqa: E402
from pointersim import cli  # noqa: E402

COMMANDS = list(test_golden.COMMANDS.values()) + [
    ["lg-check", "--l", "16"],
    ["lg-check", "--l", "8", "--sigma", "1e20"],
    ["validate"],
]


def scenario_commands() -> list[list[str]]:
    root = resources.files("pointersim").joinpath("scenarios")
    paths = sorted(str(p) for p in root.iterdir() if p.name.endswith(".json"))
    return ([["run", path] for path in paths]
            + [["sweep", path, "--multipliers", "2", "1.5", "1", "0.75", "0.5"]
               for path in paths])


def main() -> int:
    if Path(pointersim.__file__).resolve().parent != (SRC / "pointersim").resolve():
        print(f"error: imported pointersim from {pointersim.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for argv in scenario_commands() + COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(out)])
            if code != 0:
                print(f"{' '.join(argv)} exited {code}", file=sys.stderr)
                return 1
        for path in sorted(out.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
