"""tools/code_lines.py, the line count that the code-size criteria read."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# three code lines: the import, the def and the return
MODULE = '''"""A module docstring
over two lines."""

# a comment line
import math


def root(x):
    """A function docstring."""
    return math.sqrt(x)  # code and a comment on one line
'''


def rows(capsys, *argv):
    """The (count, name) rows that code_lines prints for ``argv``."""
    assert code_lines.main(["code_lines.py", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    return [(int(count), name) for count, name in (line.split() for line in lines)]


def test_counts_only_code_lines(tmp_path, capsys):
    (tmp_path / "module.py").write_text(MODULE)
    assert code_lines.code_lines(MODULE) == 3
    assert rows(capsys, str(tmp_path)) == [(3, "module.py"), (3, "total")]


def test_package_total_is_the_sum_of_its_files(capsys):
    *files, total = rows(capsys)
    assert len(files) > 1
    assert total == (sum(count for count, _ in files), "total")
