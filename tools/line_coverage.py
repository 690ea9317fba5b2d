"""Print every statement of ``pointersim`` that Tier-1 never executes.

Runs the test suite in process (``pytest.main`` on ``tests/``) under a
``sys.settrace`` line tracer that follows only frames of this checkout's
``src/pointersim`` files, then prints each statement that never ran as

    file:line: source

one per line on stdout, in file and line order (``file`` relative to
``src/pointersim``):

    python tools/line_coverage.py

A statement is an AST statement whose first line carries bytecode;
docstrings are left out.  Stdlib only, so it needs no coverage package.
The suite's own report and its exit status go to stderr, and the script
exits 0 whatever the tests did.
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pointersim"
sys.path.insert(0, str(ROOT / "src"))


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> dict[int, str]:
    """``{line: source}`` of the statements of ``path`` that carry bytecode,
    docstrings and other bare string expressions left out."""
    text = path.read_text(encoding="utf-8")
    source = text.splitlines()
    executable = _code_lines(compile(text, str(path), "exec"))
    return {node.lineno: source[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.stmt) and node.lineno in executable
            and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))}


def traced_lines(run) -> set[tuple[str, int]]:
    """``(file, line)`` of every line of a ``PACKAGE`` file that ran during
    ``run()``, from its frames only.  The tracers in place before are put
    back after."""
    prefix, hits = str(PACKAGE) + "/", set()

    def local(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return hits


def main() -> int:
    import pytest

    status = []
    with contextlib.redirect_stdout(sys.stderr):
        hits = traced_lines(lambda: status.append(
            pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])))
    print(f"pytest exit status {int(status[0])}", file=sys.stderr)
    for path in sorted(PACKAGE.glob("*.py")):
        for line, source in sorted(statements(path).items()):
            if (str(path), line) not in hits:
                print(f"{path.relative_to(PACKAGE)}:{line}: {source}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
