"""List the statements under src/ that no test runs.

    python tools/linecov.py [pytest arguments]

Runs pytest in this process, with the Tier-1 arguments (-q
--continue-on-collection-errors) unless others are given, under
sys.settrace, and records the lines executed in files under src/.  Then it
prints, module by module, every statement of the module's syntax tree on
which no line event fired.  A compound statement (if, for, def, try, ...)
counts as run when its first line does, a simple one when any of its lines
does.  Docstrings and global/nonlocal declarations compile to no traced
code and are not listed.  Code that runs only in a child process, such as
the `python -m ordersix` subprocess tests, is not seen.  The report ends
with the line count of src/ and its code-line count (code_lines: no
docstring, comment or blank line).

Only the standard library is used.  Tracing slows the suite several times.
The exit code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def docstring_nodes(tree: ast.AST) -> list[ast.stmt]:
    """The docstrings of the module, classes and functions in ``tree``."""
    return [
        node.body[0] for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    ]


def statements(path: Path) -> dict[int, tuple[int, str]]:
    """{first line: (last line that counts, source text)} of each statement
    in ``path`` that compiles to traced code."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    docstrings = {id(node) for node in docstring_nodes(tree)}
    out = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and id(node) not in docstrings
                and not isinstance(node, (ast.Global, ast.Nonlocal))):
            last = node.lineno if hasattr(node, "body") else node.end_lineno
            out[node.lineno] = (last, lines[node.lineno - 1].strip())
    return out


def code_lines(path: Path) -> int:
    """The lines of ``path`` that hold a token of code: not blank, not only
    a comment, and not part of a docstring."""
    docstrings = {line for node in docstring_nodes(ast.parse(path.read_text(), str(path)))
                  for line in range(node.lineno, node.end_lineno + 1)}
    skip = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    with path.open("rb") as f:
        lines = {line for tok in tokenize.tokenize(f.readline) if tok.type not in skip
                 for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstrings)


def trace_lines(run):
    """Call ``run()`` with line tracing in files under SRC; returns its
    result and {path: executed lines}."""
    prefix = str(SRC) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            real = os.path.realpath(name)
            ours[name] = real if real.startswith(prefix) else None
        return local if ours[name] else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    code, hits = trace_lines(lambda: pytest.main(argv or TIER1_ARGS))
    total = src_lines = src_code = 0
    for path in sorted(SRC.rglob("*.py")):
        src_lines += len(path.read_text().splitlines())
        src_code += code_lines(path)
        seen = hits.get(str(path.resolve()), set())
        missed = [(first, text) for first, (last, text) in sorted(statements(path).items())
                  if not any(k in seen for k in range(first, last + 1))]
        if missed:
            print(f"\n{path.relative_to(ROOT)}: {len(missed)} not run")
            for first, text in missed:
                print(f"  {first:5d}  {text}")
        total += len(missed)
    print(f"\n{total} statements under src/ not run")
    print(f"src/: {src_lines:,} lines, {src_code:,} of them code")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
