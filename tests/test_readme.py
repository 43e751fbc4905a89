"""The README's Python examples run and print what their comments show.

Every ```python block of README.md runs, in order, in one namespace, as a
reader pasting them into one session would.  The output a block shows is
read from the comments of its print calls: the comment on the line where
a print ends, then the comment lines right below it, each without its
leading "# ", joined into the one line that print writes (a long line is
wrapped over several comment lines).
"""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def shown_output(block: str) -> str:
    """What the comments of the block's print calls show them printing."""
    comments = {tok.start[0]: tok.string
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    lines = block.splitlines()
    shown = []
    for node in ast.parse(block).body:
        call = getattr(node, "value", None)
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print"):
            continue
        row = node.end_lineno
        parts = [comments[row]] if row in comments else []
        while row < len(lines) and lines[row].lstrip().startswith("#"):
            row += 1
            parts.append(comments[row])
        shown.append("".join(p.removeprefix("#").removeprefix(" ") for p in parts) + "\n")
    return "".join(shown)


def test_readme_examples_print_what_they_show():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 4
    namespace = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        assert out.getvalue() == shown_output(block)
