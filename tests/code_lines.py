"""Count the code lines of each module of the package.

    python tests/code_lines.py [SRC]

prints, for each module under SRC/pluralitysim (default: the src
directory next to this tests directory), its code lines, and then their
total. A code line is a physical line that holds part of a statement:
docstrings, comments and blank lines are left out. Like cli_calls.py,
this file is not a test module, so pytest does not collect it.
"""

import ast
import io
import pathlib
import sys
import tokenize

HERE = pathlib.Path(__file__).resolve().parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(line for line in range(token.start[0], token.end[0] + 1)
                         if line not in skip)
    return len(lines)


def main(argv):
    src = pathlib.Path(argv[0]) if argv else HERE.parent / "src"
    total = 0
    for path in sorted((src / "pluralitysim").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
