"""scripts/loc.py counts lines and code lines as its docstring says."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("loc", os.path.join(ROOT, "scripts", "loc.py"))
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# 22 lines, 8 of them code lines: the 6 marked `# code` and the 2 of the
# string assigned to `value`
FIXTURE = '''\
"""Module docstring,
over two lines."""

import os  # code

# a comment line
    # an indented comment line


class Thing:  # code
    """Class docstring."""

    def method(self, x):  # code
        """Method docstring,
        over two lines.
        """
        "a second string statement"  # code
        return [x,  # code
                os.sep]  # code

    value = """a string that is
no docstring"""
'''


def test_fixture_counts():
    assert loc.counts(FIXTURE) == (22, 8)


def test_an_empty_module_has_no_lines():
    assert loc.counts("") == (0, 0)


def test_a_docstring_sharing_its_line_with_code_leaves_the_code():
    assert loc.counts('def f(): "doc"\n\n\ndef g():\n    """doc"""\n    return 1\n') == (6, 3)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "22", "8"], ["b.py", "3", "1"],
                    ["total", "25", "9"]]
