"""tools/code_lines.py counts the lines that hold code: no blank line,
comment-only line or docstring line, and every line of a statement or a
non-docstring string that spans several."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment-only line
class Box:
    """Class docstring."""

    def area(self, w,
             h):
        """Function
        docstring."""
        text = """not a
        docstring"""
        return (w *
                h)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_a_fixture(tmp_path, capsys):
    tool = _tool()
    # import, class, the two def lines, the two lines of `text`, the two
    # lines of the return
    assert tool.code_lines(FIXTURE) == 8
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert tool.main(["code_lines.py", str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"8 {path}", f"8 {path}", "16 total"]
