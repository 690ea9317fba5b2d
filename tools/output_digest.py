"""Print the SHA-256 of every file the CLI writes for a fixed command set.

Runs, through ``pointersim.cli.main`` only, every command of
``tests/test_output_digest.digest_commands`` (``run`` and ``sweep`` of each
bundled scenario, the golden commands, two more ``lg-check`` runs and
``validate``) into a temporary directory, and prints ``sha256  filename``
per output file, sorted by name.  Two checkouts write the same bytes when the
output of

    python tools/output_digest.py

is the same on both (``diff`` of the two listings is empty).  With
``--write`` it writes the listing, under the fingerprint of this machine
class, to ``tests/golden/DIGESTS``, which the Tier-1 test
``tests/test_output_digest.py`` checks; a changed ``DIGESTS`` is a declared
output change.  It digests the checkout it sits in: its own ``../src`` goes
first on ``sys.path``, and it exits 1 if ``pointersim`` is imported from
anywhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests")]

import pointersim  # noqa: E402
import test_output_digest  # noqa: E402
from pointersim import cli  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"write the listing to {test_output_digest.DIGESTS}")
    args = parser.parse_args(argv)
    if Path(pointersim.__file__).resolve().parent != (SRC / "pointersim").resolve():
        print(f"error: imported pointersim from {pointersim.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for argv_k in test_output_digest.digest_commands():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv_k + ["--out", str(out)])
            if code != 0:
                print(f"{' '.join(argv_k)} exited {code}", file=sys.stderr)
                return 1
        files = {path.name: path.read_bytes() for path in out.iterdir()}
    if args.write:
        test_output_digest.DIGESTS.write_text(test_output_digest.digest_file_text(files),
                                              encoding="utf-8")
    print("\n".join(test_output_digest.digest_lines(files)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
