"""JSON wire formats for operators, presentations, bialgebras, and loops.

Algebraic payloads carry exact fraction strings only; the holonomy output
is the sole float-bearing format. All tensor indices on the wire are
1-based, matching the coefficient conventions of the library. Each
distinct entry string is parsed once per document; a bialgebra's
structure cubes are read in one walk to their nonzero entries
(``bialgebra_from_json``).
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .bialgebra import FinDimBialgebra, NonzeroCube, SigmaTable
from .frt import LongPresentation
from .errors import DimensionCap
from .kz import LoopSpec
from .scalars import frac_str, parse_frac
from .tensor_ops import TensorOp2, check_operator_dim

FORMAT_VERSION = "1"

# largest bialgebra dimension accepted on the wire, for a bialgebra and for
# the rows and columns of a sigma table; the degree-three axioms (L3, L5)
# visit d^3 basis tuples, and validation holds up to d^3 sums at a time
MAX_BIALGEBRA_DIM = 64


def operator_to_json(r: TensorOp2) -> dict:
    """The nonzero entries in wire order (v, u, i, j): the columns
    (v-1)n + (u-1) of the matrix view, then the rows (i-1)n + (j-1)."""
    n = r.dim
    entries = []
    for col, row, x in sorted((b, a, x) for a, cols in r.rows.items() for b, x in cols.items()):
        (v, u), (i, j) = divmod(col, n), divmod(row, n)
        entries.append({"v": v + 1, "u": u + 1, "i": i + 1, "j": j + 1, "coeff": frac_str(x)})
    return {"dim": n, "entries": entries}


def operator_from_json(obj) -> TensorOp2:
    """The operator of an operator document, built from its nonzero
    entries (``TensorOp2.from_rows``); an entry whose coefficient is zero
    is checked as any other, duplicates included, and then left out."""
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("operator JSON must be an object with a 'dim' key")
    n = obj["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("'dim' must be a positive integer")
    check_operator_dim(n)
    entries = obj.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError("'entries' must be a list")
    rows = {}
    seen = set()
    parse = _memo_parser()
    for e in entries:
        try:
            v, u, i, j = e["v"], e["u"], e["i"], e["j"]
            x = parse(e["coeff"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed operator entry {e!r}") from exc
        for idx in (v, u, i, j):
            if isinstance(idx, bool) or not isinstance(idx, int) or not 1 <= idx <= n:
                raise ValueError(f"index out of range in entry {e!r}")
        key = (v, u, i, j)
        if key in seen:
            raise ValueError(f"duplicate entry for (v,u,i,j)={key}")
        seen.add(key)
        if x:
            rows.setdefault((i - 1) * n + (j - 1), {})[(v - 1) * n + (u - 1)] = x
    return TensorOp2.from_rows(n, rows)


def presentation_to_json(pres: LongPresentation) -> dict:
    n = pres.quotient.n
    m = pres.num_generators
    relations = [[frac_str(x) for x in row] for row in pres.quotient.rows]
    delta = {}
    for a in range(m):
        triples = []
        for p in range(m):
            for q in range(m):
                c = pres.delta[a][p][q]
                if c:
                    triples.append([frac_str(c), pres.names[p], pres.names[q]])
        delta[pres.names[a]] = triples
    return {
        "dim": n,
        "relations": relations,
        "generators": list(pres.names),
        "naming": dict(pres.naming),
        "delta": delta,
        "epsilon": {pres.names[a]: frac_str(pres.eps[a]) for a in range(m)},
        "sigma": [[frac_str(x) for x in row] for row in pres.sigma_gen],
    }


def _memo_parser():
    """``parse_frac`` that parses each distinct string once per call of this."""
    memo = {}

    def parse(x):
        if x.__class__ is not str:
            return parse_frac(x)
        f = memo.get(x)
        if f is None:
            f = memo[x] = parse_frac(x)
        return f

    return parse


def _frac_vector(value, field, parse):
    """A JSON list of fraction strings, parsed by ``parse``; a ``"0"`` is the
    int 0 without a call. A value that is not a list is refused."""
    if not isinstance(value, list):
        raise ValueError(f"'{field}' must be a 1-fold nested list of fractions")
    return [0 if x == "0" else parse(x) for x in value]


def _nonzero_cube(value, field, d, parse):
    """The nonzero (c, Fraction) pairs of each cell of ``value``, a 3-fold
    nested JSON list of fraction strings, in one walk. A cell of ``"0"``
    strings alone is found by one ``count`` and is the empty tuple, so it
    allocates nothing; in any other cell each entry
    but ``"0"`` is parsed by ``parse``, and a zero it parses to is left
    out. A level that is not a list is refused with the field's full depth,
    and a parse fault as ``parse`` raises it, whichever the walk meets
    first. Returns a ``NonzeroCube`` when ``value`` is d x d x d, and
    ``value`` itself otherwise, whose shape the constructor refuses."""
    bad = f"'{field}' must be a 3-fold nested list of fractions"
    if not isinstance(value, list):
        raise ValueError(bad)
    shaped = len(value) == d
    cube = NonzeroCube()
    for row in value:
        if not isinstance(row, list):
            raise ValueError(bad)
        shaped = shaped and len(row) == d
        cells = []
        for cell in row:
            if not isinstance(cell, list):
                raise ValueError(bad)
            size = len(cell)
            shaped = shaped and size == d
            cells.append(() if cell.count("0") == size else
                         [(c, f) for c, x in enumerate(cell) if x != "0" and (f := parse(x))])
        cube.append(cells)
    return cube if shaped else value


def bialgebra_from_json(obj) -> FinDimBialgebra:
    """A validated bialgebra; ``dim`` is checked against ``MAX_BIALGEBRA_DIM``
    before any entry is read. ``mult`` and ``comult`` are each walked once,
    to the nonzero entries of their cells (``_nonzero_cube``), and reach the
    constructor as ``NonzeroCube``s, which it takes as they are; ``unit``
    and ``counit`` reach it as lists. The type and parse faults of the four
    fields, in that order, are refused before the length of ``basis`` and
    before any shape, which the constructor checks: a cube of another shape
    reaches it as the JSON list it was."""
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("bialgebra JSON must be an object with a 'dim' key")
    d = obj["dim"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError("'dim' must be a positive integer")
    if d > MAX_BIALGEBRA_DIM:
        raise DimensionCap(f"bialgebra dim {d} exceeds cap {MAX_BIALGEBRA_DIM}")
    parse = _memo_parser()
    try:
        basis = obj["basis"]
        mult = _nonzero_cube(obj["mult"], "mult", d, parse)
        unit = _frac_vector(obj["unit"], "unit", parse)
        comult = _nonzero_cube(obj["comult"], "comult", d, parse)
        counit = _frac_vector(obj["counit"], "counit", parse)
    except KeyError as exc:
        raise ValueError("malformed bialgebra JSON") from exc
    if not isinstance(basis, list) or len(basis) != d:
        raise ValueError("basis length disagrees with 'dim'")
    return FinDimBialgebra(basis, mult, unit, comult, counit)


def bialgebra_to_json(b: FinDimBialgebra) -> dict:
    """The wire form, written from the scaled nonzeros ``mult_nz`` and
    ``comult_nz``: every other entry of ``mult`` and ``comult`` is "0",
    and neither dense cube is formed."""
    d, scale = b.d, b.scale
    mult = [[["0"] * d for _ in range(d)] for _ in range(d)]
    for cells, row in zip(mult, b.mult_nz):
        for cell, terms in zip(cells, row):
            for c, x in terms:
                cell[c] = frac_str(Fraction(x, scale))
    comult = [[["0"] * d for _ in range(d)] for _ in range(d)]
    for m, terms in zip(comult, b.comult_nz):
        for p, q, x in terms:
            m[p][q] = frac_str(Fraction(x, scale))
    return {
        "dim": d,
        "basis": list(b.basis),
        "mult": mult,
        "unit": [frac_str(x) for x in b.unit],
        "comult": comult,
        "counit": [frac_str(x) for x in b.counit],
    }


def sigma_from_json(obj) -> SigmaTable:
    """The table of ``{"table": rows}``; each row must be a JSON list, and
    every entry is parsed through one memo per document. More than
    ``MAX_BIALGEBRA_DIM`` rows, or a longer row, is refused before any
    entry is parsed; ``check_axioms`` refuses a size other than the
    bialgebra's."""
    try:
        rows = obj["table"]
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed sigma JSON") from exc
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("'table' must be a 2-fold nested list of fractions")
    longest = max(map(len, rows), default=0)
    if max(len(rows), longest) > MAX_BIALGEBRA_DIM:
        raise DimensionCap(
            f"sigma table size {len(rows)} x {longest} exceeds cap {MAX_BIALGEBRA_DIM}")
    parse = _memo_parser()
    return SigmaTable([[parse(x) for x in row] for row in rows])


def sigma_to_json(s: SigmaTable) -> dict:
    return {"table": [[frac_str(x) for x in row] for row in s.table]}


def _complex_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _point(pair, what):
    """A JSON ``[re, im]`` pair of numbers as a complex number."""
    if (not isinstance(pair, list) or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float))
                   for x in pair)):
        raise ValueError(f"{what} must be an [re, im] pair of numbers")
    try:
        return complex(*pair)
    except OverflowError as exc:
        raise ValueError(f"{what} is out of the float range") from exc


def _index(x, what):
    """A 1-based JSON index as a 0-based int."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"'{what}' must be a 1-based index")
    return x - 1


def loop_from_json(obj) -> LoopSpec:
    try:
        base = [_point(z, "base point") for z in obj["base"]]
        kind = obj["kind"]
        steps = obj["steps"]
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed loop JSON") from exc
    if kind == "circle":
        try:
            moving = obj["moving"]
            center = obj["center"]
            radius = obj["radius"]
        except KeyError as exc:
            raise ValueError("circle loop JSON needs moving/center/radius") from exc
        if isinstance(center, list):
            center = _point(center, "center")
        elif isinstance(center, int) and not isinstance(center, bool):
            center = center - 1
        else:
            raise ValueError("'center' must be a 1-based index or [re, im]")
        return LoopSpec(base, "circle", steps, moving=_index(moving, "moving"),
                        center=center, radius=radius)
    if kind == "polygon":
        try:
            waypoints = [
                [_point(z, "waypoint") for z in path] for path in obj["waypoints"]
            ]
        except (KeyError, TypeError) as exc:
            raise ValueError("polygon loop JSON needs waypoint paths") from exc
        return LoopSpec(base, "polygon", steps, waypoints=waypoints)
    raise ValueError(f"unknown loop kind {kind!r}")


def loop_to_json(loop: LoopSpec) -> dict:
    out = {
        "base": [_complex_pair(z) for z in loop.base],
        "kind": loop.kind,
        "steps": loop.steps,
    }
    if loop.kind == "circle":
        out["moving"] = loop.moving + 1
        # a fixed-point centre stays an index, which ``--compare`` requires
        out["center"] = (_complex_pair(loop.center) if loop.center_index is None
                         else loop.center_index + 1)
        out["radius"] = loop.radius
    else:
        out["waypoints"] = [
            [_complex_pair(z) for z in path] for path in loop.waypoints
        ]
    return out


def _holonomy_header(h, big_n, n) -> dict:
    """The fields of a holonomy report before its matrix."""
    return {"h": _complex_pair(h), "N": big_n, "n": n}


def holonomy_to_json(w, h, big_n, n) -> dict:
    w = np.ascontiguousarray(w, dtype=complex)
    return {
        **_holonomy_header(h, big_n, n),
        # the real view interleaves re and im, so its rows are [re, im] pairs
        "matrix": w.view(float).reshape(w.shape + (2,)).tolist(),
    }


# json.dump(indent=2) layout of a top-level "matrix" of rows of [re, im]
# pairs: between the two doubles of a pair, after a pair that is not the
# last of its row, before the first row, before each later row and after
# the last pair of a row
_PAIR_ITEM = ",\n        "
_PAIR_NEXT = "\n      ],\n      [\n        "
_ROW_OPEN = "[\n      [\n        "
_ROW_NEXT = ",\n    " + _ROW_OPEN
_ROW_CLOSE = "\n      ]\n    ]"
_ZERO_PAIR = "0.0" + _PAIR_ITEM + "0.0"
# json writes the non-finite doubles as these tokens and the others as repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_holonomy(out, w, h, big_n, n, fields) -> None:
    """Write ``json.dump({**holonomy_to_json(w, h, big_n, n), **fields},
    out, indent=2)`` for a nonempty matrix ``w`` and ``fields`` whose keys
    are not those of the report.

    No nested list and no row string is formed. Each ``out.write`` is of
    a piece formed once per call or of one live cell:

    - A cell whose two doubles have all bits zero (+0.0, +0.0) is a zero
      cell; the live cells are found on the ``uint64`` view of ``w``.
    - Each distinct 64-bit pattern among the live cells' doubles is
      formatted once, with ``repr`` as json formats a float, so -0.0,
      subnormals and the non-finite values are written as ``json.dump``
      writes them. A live cell is written as its two tokens and the text
      that follows it in its row.
    - A run of z zero cells is written as the pieces of 2^j zero cells for
      the set bits j of z, each piece formed once.

    So no write is longer than a row and no zero cell is copied per row.
    """
    w = np.ascontiguousarray(w, dtype=complex)
    rows, cols = w.shape
    bits = w.view(np.uint64).reshape(-1, 2)
    # the pairs with a bit set, in row-major order
    live = np.flatnonzero(np.logical_or(bits[:, 0], bits[:, 1]))
    distinct, which = np.unique(bits[live].reshape(-1), return_inverse=True)
    tokens = [_NON_FINITE.get(t, t) for t in map(repr, distinct.view(float).tolist())]
    which = which.tolist()
    # each live pair with the text that follows it when it does not end its row
    after = [f"{tokens[re]}{_PAIR_ITEM}{tokens[im]}{_PAIR_NEXT}"
             for re, im in zip(which[0::2], which[1::2])]
    # runs[j] is 2^j zero cells; zeros[z] the pieces of a run of z of them
    runs = [_ZERO_PAIR + _PAIR_NEXT]
    while 1 << len(runs) < cols:
        runs.append(runs[-1] + runs[-1])
    zeros = [()]
    for z in range(1, cols):
        low = z & -z
        zeros.append(zeros[z ^ low] + (runs[low.bit_length() - 1],))
    # live is ascending, so row k's live pairs are bounds[k] .. bounds[k + 1] - 1
    at = (live % cols).tolist()
    bounds = np.searchsorted(live, np.arange(rows + 1) * cols).tolist()
    last = cols - 1
    write = out.write
    head = json.dumps(_holonomy_header(h, big_n, n), indent=2)
    write(head[:-2] + ',\n  "matrix": [\n    ')
    for k in range(rows):
        write(_ROW_NEXT if k else _ROW_OPEN)
        lo, hi = bounds[k], bounds[k + 1]
        # a live pair in the last column closes the row
        end = hi - 1 if hi > lo and at[hi - 1] == last else hi
        c0 = 0
        for c, piece in zip(at[lo:end], after[lo:end]):
            if c > c0:
                for run in zeros[c - c0]:
                    write(run)
            write(piece)
            c0 = c + 1
        for run in zeros[last - c0]:
            write(run)
        write(after[end][:-len(_PAIR_NEXT)] if end < hi else _ZERO_PAIR)
        write(_ROW_CLOSE)
    tail = json.dumps(fields, indent=2)
    write("\n  ]" + ("," + tail[1:] if fields else "\n}"))
