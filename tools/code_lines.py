"""Count the code lines of every module under src/, then the total.

A code line is a non-blank line that is neither a comment nor part of a
docstring (module, class or function, found by ast). One count per module
is printed, so a move between modules shows, then the total. Run from the
repository root:

    python3 tools/code_lines.py
"""

import ast
import pathlib

total = 0
for path in sorted(pathlib.Path("src").rglob("*.py")):
    lines = path.read_text().splitlines()
    docstrings = {
        n
        for node in ast.walk(ast.parse("\n".join(lines)))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
        for n in range(node.body[0].lineno, node.body[0].end_lineno + 1)
    }
    count = sum(
        1
        for n, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and n not in docstrings
    )
    print(f"{path}: {count}")
    total += count
print(f"src/ code lines: {total}")
