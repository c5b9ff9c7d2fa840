"""Line trace of the tier-1 suite over ``src/longeq``.

Run from anywhere (about five minutes on two CPUs, which is why tier-1 does
not collect this file; extra arguments go to pytest):

    PYTHONPATH=src python tests/linetrace.py

It runs the tier-1 suite in this process under ``sys.settrace``, recording
only the lines of ``src/longeq``, and prints every executable line that
never ran. A line counts as executable when the compiled module starts a
line there (``dis.findlinestarts``). Hypothesis runs with seed 0, so every
run traces the same examples. It exits 1 when the suite fails, when
a line that never ran lies outside every ALLOWED statement, or when an
ALLOWED entry is stale: it names no statement, more than one, or one that
now runs in part.
"""

from __future__ import annotations

import ast
import dis
import os
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "longeq"

# The statements tier-1 never runs, each a guard proven unreachable from
# it: (module, stripped first line of the statement or except clause).
ALLOWED = [
    # ``python -m longeq`` runs only in subprocesses, which are not traced
    ("__main__.py", "import sys"),
    ("__main__.py", "from .cli import main"),
    ("__main__.py", "sys.exit(main())"),
    ("cli.py", "sys.exit(main())"),
    # argparse restricts ``construct`` to the kinds handled before the else
    ("cli.py", 'raise ValueError(f"unknown constructor {args.kind}")'),
    # check_laws and long_witness decide Long by two encodings that agree
    ("cli.py", "raise InternalCheckFailed("),
    # every relation row is eps-free: V is spanned by the o(i,j,k,l)
    ("frt.py", 'raise InternalCheckFailed("counit does not vanish on the relation span")'),
    # R^-1 of a Long R descends to L(R) whenever R does
    ("frt.py", "except SigmaIllDefined as exc:"),
]


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def executable_lines(path):
    """The lines of ``path`` at which its compiled code starts a line."""
    code = compile(path.read_text(), str(path), "exec")
    return {line for c in _code_objects(code) for _, line in dis.findlinestarts(c) if line}


def statements(lines):
    """{first line: (last line, stripped text)} of every statement and except
    clause of the source ``lines``; of the nodes that start on one line, the
    outermost."""
    out = {}
    for node in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            last = max(node.end_lineno, out.get(node.lineno, (0,))[0])
            out[node.lineno] = (last, lines[node.lineno - 1].strip())
    return out


def run_traced(args):
    """Run pytest on ``args`` under the tracer: (exit code, {path: lines run})."""
    ran = {}
    keep = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in keep:
            keep[name] = pathlib.Path(os.path.realpath(name)).parent == SRC
            if keep[name]:
                ran[name] = set()
        return local if keep[name] else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    out = {}
    for name, lines in ran.items():
        out.setdefault(pathlib.Path(os.path.realpath(name)), set()).update(lines)
    return code, out


def main(argv):
    sys.path.insert(0, str(SRC.parent))
    # a fixed seed, so that the fuzz tests reach the same lines on every run
    code, ran = run_traced(["-q", "--continue-on-collection-errors", "--rootdir", str(ROOT),
                            "--hypothesis-seed=0", str(ROOT / "tests"), *argv])
    problems = []
    if code != 0:
        problems.append(f"the suite failed (pytest exit code {int(code)})")
    total = unrun = allowed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = lines - ran.get(path, set())
        source = path.read_text().splitlines()
        stmts = statements(source)
        spans = []
        for module, text in ALLOWED:
            if module != path.name:
                continue
            starts = [first for first, (_, t) in stmts.items() if t == text]
            if len(starts) != 1:
                problems.append(f"stale entry {module}: {text!r} names {len(starts)} statements")
                continue
            first, last = starts[0], stmts[starts[0]][0]
            span = {line for line in lines if first <= line <= last}
            if span - missed:
                problems.append(f"stale entry {module}: {text!r} runs in part")
            spans.append(span)
        total += len(lines)
        unrun += len(missed)
        for line in sorted(missed):
            if any(line in span for span in spans):
                allowed += 1
            else:
                problems.append(f"never ran: {path.relative_to(ROOT)}:{line}: "
                                f"{source[line - 1].strip()}")
    print(f"linetrace: {total} executable lines in src/longeq, {total - unrun} ran, "
          f"{unrun} never ran ({allowed} of them allowed)")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
