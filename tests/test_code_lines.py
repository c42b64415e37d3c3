"""The code-line count of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment-only line
class Thing:
    """Class docstring."""

    value = """a string that is
    not a docstring"""

    def method(self):
        """Method docstring,

        over three lines."""
        return (1,
                2)


async def run():
    "One-line docstring."
    await other()
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_code_lines(code_lines):
    # import, class, the two lines of `value`, def, the two lines of the
    # return, async def, await
    assert code_lines.code_lines(SOURCE) == 9


def test_prints_each_module_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert code_lines.count_tree(tmp_path) == {"b.py": 1, "pkg/a.py": 9}
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["b.py", "1"], ["pkg/a.py", "9"], ["total", "10"]]
