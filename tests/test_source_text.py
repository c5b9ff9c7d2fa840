"""Host measurements stay out of the package's docstrings and comments.

A timing, a "medians of"/"best of N" figure or a numpy, scipy or Python
version describes one machine on one day; it belongs in the BENCH file
that recorded it, which the docstring cites instead.
"""

import ast
import io
import pathlib
import re
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "longeq"

HOST_FIGURE = re.compile(
    r"\d\s*(?:ms|µs)\b"                        # a time with a unit
    r"|\bmedians?\s+of\b|\bbest\s+of\s+\d"     # a summary of repeated runs
    r"|\b(?:numpy|scipy|python)\s+\d+\.\d+",   # a library or interpreter version
    re.IGNORECASE,
)


def _docstrings_and_comments(path):
    """``(line, text)`` of every docstring and comment of a source file."""
    source = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


@pytest.mark.parametrize("text, hit", [
    ("stalls for about 4 ms while", True),
    ("1.2-1.7 ms plus 0.015-0.09 ms per word", True),
    ("took 62 / 281 / 722 µs", True),
    ("Medians of 9 runs in one process", True),
    ("(best of 7, Python 3.11.7, 2 shared CPUs)", True),
    ("numpy 2.4.6, scipy 1.17.1", True),
    ("the d = 8 circle of 4000 steps", False),
    ("terms of degree 2 in the constants", False),
    ("numpy's OpenBLAS runs it on its threads", False),
])
def test_host_figure_pattern(text, hit):
    assert bool(HOST_FIGURE.search(text)) == hit


def test_no_host_figures_in_src():
    found = [f"{path.name}:{line}: {match.group(0)!r}"
             for path in sorted(SRC.glob("*.py"))
             for line, text in _docstrings_and_comments(path)
             for match in HOST_FIGURE.finditer(text)]
    assert not found, "host figures belong in a BENCH file:\n" + "\n".join(found)
