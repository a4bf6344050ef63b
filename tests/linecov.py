"""Statement coverage of ``src/rigidity`` under the Tier-1 suite, with the
standard library only.

    python tests/linecov.py [pytest arguments]

runs the suite in this process (``pytest.main``, from the repository root,
with the Tier-1 arguments when none are given) under a ``sys.settrace``
hook that records the lines run in ``src/rigidity/*.py``.  It then prints,
per module, every statement (as ``ast`` finds them, docstrings left out)
of which no line ran, and the counts.  A statement counts as run when a
line of its header ran: the whole of a simple statement, and for a
compound one the lines from its first decorator to its body.  Code run in
subprocesses, such as the tests that start ``python -m rigidity``, is not
counted.  The hook slows the suite several times over, so its wall-clock
bounds may fail; the exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "rigidity"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def statements(source: str) -> List[Tuple[int, int]]:
    """(first, last) line of the header of every statement but docstrings
    and ``global`` and ``nonlocal``, which run no code."""
    tree = ast.parse(source)
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None}
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal))
                or id(node) in docstrings):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        parts = (getattr(node, f, None) for f in ("body", "handlers", "orelse", "finalbody"))
        inner = [part[0].lineno for part in parts if isinstance(part, list) and part]
        out.append((first, max(first, min(inner) - 1) if inner else node.end_lineno))
    return sorted(out)


def run(args: List[str]) -> Tuple[int, Dict[Path, Set[int]]]:
    """pytest's exit status and the lines run in each module under ``SRC``."""
    hits: Dict[str, Set[int]] = {str(p): set() for p in SRC.glob("*.py")}
    recorders: Dict[str, object] = {}

    def recorder(lines: Set[int]):
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in recorders:
            lines = hits.get(os.path.realpath(name))
            recorders[name] = None if lines is None else recorder(lines)
        return recorders[name]

    os.chdir(REPO)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), {Path(p): lines for p, lines in hits.items()}


def main(args: List[str]) -> int:
    status, hits = run(args)
    missed_total = total = 0
    for path in sorted(hits):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        stmts = statements(source)
        missed = [(a, b) for a, b in stmts if not any(line in hits[path] for line in range(a, b + 1))]
        total += len(stmts)
        missed_total += len(missed)
        print(f"{path.relative_to(REPO)}: {len(missed)} of {len(stmts)} statements never ran")
        for a, _ in missed:
            print(f"  {a}: {text[a - 1].strip()}")
    print(f"src/: {missed_total} of {total} statements never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
