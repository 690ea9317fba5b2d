"""The statement table and the line tracer of tools/line_coverage.py on small
inputs; the tool's own Tier-1 run is not repeated here."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import line_coverage  # noqa: E402
from pointersim.pointer import Grid  # noqa: E402


def test_statements_leave_docstrings_out(tmp_path):
    path = tmp_path / "module.py"
    path.write_text('"""Module."""\n\n\ndef f(x):\n    """Function."""\n    if x:\n'
                    '        raise ValueError("x")\n    return 1\n')
    assert line_coverage.statements(path) == {
        4: "def f(x):", 6: "if x:", 7: 'raise ValueError("x")', 8: "return 1"}


def test_traced_lines_are_the_package_lines_that_ran():
    path = line_coverage.PACKAGE / "pointer.py"
    before = sys.gettrace()
    hits = line_coverage.traced_lines(lambda: Grid((32,), (8.0,)))
    assert sys.gettrace() is before
    assert {file for file, _line in hits} == {str(path)}
    ran = {line for _file, line in hits}
    checks = {text: line for line, text in line_coverage.statements(path).items()
              if text.startswith(("if not 1 <= len(pts) <= 3", "raise DimensionError(f\"grid must"))}
    assert len(checks) == 2
    assert {text.split()[0] for text, line in checks.items() if line in ran} == {"if"}
