import pathlib
import subprocess
import sys

CODE_LINES = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring."""
# A comment.

import os  # A trailing comment.


class Shape:
    """Class docstring,
    on two lines."""

    name = """a string
    on two lines"""

    def area(self):
        "Function docstring."
        return (1,
                2)
'''


def test_code_lines_skip_comments_blanks_and_docstrings(tmp_path):
    # import, class, both lines of the string, def, and both lines of the return.
    path = tmp_path / "shape.py"
    path.write_text(SOURCE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(CODE_LINES), str(path), str(path)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == f"7 {path}\n7 {path}\n14 total\n"
    assert done.stderr == ""
