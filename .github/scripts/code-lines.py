#!/usr/bin/env python3
"""Count the code lines of the Python files under src/ at git revisions.

A code line holds part of a token other than a comment, a docstring or a line
break, so blank, comment-only and docstring-only lines do not count; a line
of a multi-line statement or string counts.  A docstring is the string
literal that opens a module, class or function body.  Prints each revision's
count, then the net change from the first revision to the last, then each
file whose count changed between them, with both counts (0 where a revision
has no such file).

    python3 .github/scripts/code-lines.py <base-revision> <revision>
"""

import ast
import io
import subprocess
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def src_code_lines(revision: str) -> dict[str, int]:
    """The code lines of each Python file under src/ at ``revision``."""
    paths = git("ls-tree", "-r", "--name-only", revision, "--", "src/").split()
    return {path: code_lines(git("show", f"{revision}:{path}")) for path in paths if path.endswith(".py")}


def main(revisions: list[str]) -> None:
    counts = [src_code_lines(revision) for revision in revisions]
    for revision, files in zip(revisions, counts):
        print(f"src/ code lines at {revision}: {sum(files.values())}")
    first, last = counts[0], counts[-1]
    print(f"src/ code lines: net {sum(last.values()) - sum(first.values()):+d}")
    for path in sorted(first.keys() | last.keys()):
        before, after = first.get(path, 0), last.get(path, 0)
        if before != after:
            print(f"  {path}: {before} -> {after} ({after - before:+d})")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("usage: code-lines.py <base-revision> <revision>")
    main(sys.argv[1:])
