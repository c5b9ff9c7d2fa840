"""What the package's docstrings and comments may say.

Host measurements stay out: a timing, a "medians of"/"best of N" figure or
a numpy, scipy or Python version describes one machine on one day; it
belongs in the BENCH file that recorded it, which the docstring cites
instead.

Citations resolve: a ``module.name`` of a longeq module names an attribute
path that exists, and a bare ``_private`` name is an attribute of some
longeq module, so a deletion cannot leave its citations behind. The same
rules hold for the inline code spans of README.md.
"""

import ast
import importlib
import io
import pathlib
import re
import tokenize

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "longeq"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__"))
CITATION = re.compile(r"``([^`]+)``")
MARKDOWN_SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
FENCED_BLOCK = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
PRIVATE = re.compile(r"_\w+")  # a lone ``_`` is the throwaway name, not a citation

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


def _citations(text, span=CITATION):
    """``(kind, name)`` of each ``module.name`` citation of a longeq module
    ("dotted") and each bare ``_private`` one ("private") in ``text``, a
    citation being a code span that ``span`` matches."""
    for match in span.finditer(text):
        name = match.group(1)
        if DOTTED.fullmatch(name) and name.partition(".")[0] in MODULES:
            yield "dotted", name
        elif PRIVATE.fullmatch(name):
            yield "private", name


def _resolves(kind, name):
    """A dotted citation as an attribute path from its module; a private
    name as an attribute of any longeq module."""
    if kind == "dotted":
        first, _, path = name.partition(".")
        obj = importlib.import_module(f"longeq.{first}")
        for attr in path.split("."):
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return any(hasattr(importlib.import_module(f"longeq.{m}"), name) for m in MODULES)


@pytest.mark.parametrize("text, cited", [
    ("``kz._evaluation`` picks", [("dotted", "kz._evaluation")]),
    ("see ``kz.KZSystem.from_op``", [("dotted", "kz.KZSystem.from_op")]),
    ("``_stacked`` and ``_words_held``", [("private", "_stacked"), ("private", "_words_held")]),
    ("``_, b = pair``, ``_``", []),
    ("``np.matmul`` on ``pres.coalgebra``", []),
    ("``segment_words`` reads", []),
])
def test_citation_pattern(text, cited):
    assert list(_citations(text)) == cited


@pytest.mark.parametrize("text, cited", [
    ("`kz._evaluation` picks `_stacked`", [("dotted", "kz._evaluation"), ("private", "_stacked")]),
    ("``_ignored`` and `np.matmul`", []),
    ("```sh\nlongeq check --op `_x`\n```", []),
])
def test_markdown_citation_pattern(text, cited):
    assert list(_citations(FENCED_BLOCK.sub("", text), MARKDOWN_SPAN)) == cited


@pytest.mark.parametrize("kind, name, holds", [
    ("dotted", "kz.KZSystem.from_op", True),
    ("dotted", "bialgebra._l1_rows", True),
    ("private", "_stacked", True),
    ("private", "_first_descent_failure", True),
    ("dotted", "kz._propagator_steps", False),
    ("dotted", "kz.KZSystem.from_rows", False),
    ("private", "_stage_increments", False),
    ("dotted", "tensor_ops._obstruction_rows", False),
    ("dotted", "linalg.mat_eq", False),
])
def test_citation_resolution(kind, name, holds):
    assert _resolves(kind, name) == holds


def test_every_citation_in_src_resolves():
    found = [f"{path.name}:{line}: ``{name}``"
             for path in sorted(SRC.glob("*.py"))
             for line, text in _docstrings_and_comments(path)
             for kind, name in _citations(text)
             if not _resolves(kind, name)]
    assert not found, "citations of names that do not exist:\n" + "\n".join(found)


def test_every_citation_in_readme_resolves():
    text = FENCED_BLOCK.sub("", (ROOT / "README.md").read_text(encoding="utf-8"))
    found = [f"README.md: `{name}`" for kind, name in _citations(text, MARKDOWN_SPAN)
             if not _resolves(kind, name)]
    assert not found, "citations of names that do not exist:\n" + "\n".join(found)
