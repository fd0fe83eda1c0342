"""tools/src_lines.py prints the tracked size of `src/`: per module, its
lines and its code lines, then a total row."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SYNTHETIC = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class Box:
    """Class docstring."""

    size = 1


def grow(x):
    """Function docstring
    over two lines."""
    text = """a string that is not a docstring"""
    return (
        x
        + len(text)
    )
'''
# import, class, size, def, text, and the four lines of the return
SYNTHETIC_CODE_LINES = 9


def rows(capsys, argv):
    src_lines.main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "lines", "code"]
    table = {name: (int(total), int(code)) for name, total, code in map(str.split, lines[1:])}
    assert list(table)[-1] == "total"
    return table


def test_code_lines_skip_docstrings_comments_and_blanks():
    assert src_lines.code_lines(SYNTHETIC) == SYNTHETIC_CODE_LINES


def test_rows_of_a_synthetic_package(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SYNTHETIC)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert rows(capsys, [str(tmp_path)]) == {
        "a.py": (SYNTHETIC.count("\n"), SYNTHETIC_CODE_LINES),
        "b.py": (3, 1),
        "total": (SYNTHETIC.count("\n") + 3, SYNTHETIC_CODE_LINES + 1),
    }


def test_total_row_sums_the_module_rows_of_the_package(capsys):
    table = rows(capsys, [])
    total = table.pop("total")
    assert sorted(table) == sorted(path.name for path in src_lines.PACKAGE.glob("*.py"))
    for name, (lines, _) in table.items():
        with open(src_lines.PACKAGE / name, encoding="utf-8") as module:
            assert lines == sum(1 for _ in module)
    assert total == tuple(map(sum, zip(*table.values())))
