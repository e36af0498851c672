import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
on two lines."""

# a comment line
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        """Function docstring.

        More of it.
        """
        # another comment line

        return (os.sep +
                "b")
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_lines_outside_blanks_comments_and_docstrings():
    # import, class, the two lines of x, def, and the two lines of the return
    assert load_tool().code_lines(SOURCE) == 7


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert load_tool().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["7", str(tmp_path / "a.py")],
                                                ["2", str(tmp_path / "pkg" / "b.py")],
                                                ["9", "total"]]
