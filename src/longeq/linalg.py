"""Dense exact linear algebra over the rationals.

Matrices are plain lists of lists of ``Fraction``. Everything here is
deterministic: pivots are always chosen in column order, so reduced row
echelon forms (and therefore all downstream presentations) are reproducible.
Multiplication skips zero entries, which matters for the very sparse lifted
operators this package produces.

``rref_int`` is the Gauss-Jordan routine for a matrix given whole. It
eliminates over Python ints and returns the RREF as primitive integer
rows: each input row is scaled by the lcm of its denominators and divided
by the gcd of its entries, as is every row elimination changes (a nonzero
multiple spans the same line). The RREF of a row space is unique and
"primitive, positive pivot" fixes the scale, so the integer rows are
unique too; the Fraction RREF row is the integer row over its pivot entry.
``rref`` is that division; ``mat_inv`` and ``solve_affine`` call it.
``Echelon`` keeps the same integer RREF of a span that grows one row at a
time and tells whether each new row lies in it, for a caller that stops
at the first independent row with some property. Neither replaces the
other: ``sigma_feasibility`` and ``QuotientCoalgebra`` were slower built
by ``Echelon``, and ``tensor_ops._descent_basis`` slower with ``rref_int``
for its column test or its row ``Echelon`` (``BENCH_35.json``,
``docstring_figures``).
``sparse_rref`` and ``reduce_mod`` reduce a vector modulo an RREF row
space over the rows' nonzeros; ``clear_denominators`` scales a rational
matrix to integers for the callers that decide on them, and
``clear_sparse`` does so for a matrix given by its nonzero entries.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


def zeros(rows, cols):
    return [[F0] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = F1
    return m


def as_frac(x):
    """``x`` as a Fraction; a Fraction is returned as it is (it is immutable)."""
    return x if x.__class__ is Fraction else Fraction(x)


def to_frac_matrix(a):
    """Copy a nested sequence into a Fraction matrix, validating shape."""
    rows = [[as_frac(x) for x in row] for row in a]
    if rows:
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged matrix")
    return rows


def mat_mul(a, b):
    n, k = len(a), len(b)
    if k == 0 or len(a[0]) != k:
        raise ValueError("dimension mismatch")
    m = len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai, oi = a[i], out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    y = bt[j]
                    if y:
                        oi[j] += x * y
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def kron(a, b):
    """Kronecker product; row/col blocks follow the left factor."""
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = zeros(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            x = a[i][j]
            if not x:
                continue
            for p in range(rb):
                bp = b[p]
                op = out[i * rb + p]
                for q in range(cb):
                    if bp[q]:
                        op[j * cb + q] = x * bp[q]
    return out


def mat_inv(a):
    """Inverse via ``rref`` on [A | I]; raises ValueError on a singular input.

    A is singular exactly when some pivot lands in the identity half.
    """
    n = len(a)
    red, pivots = rref([list(row) + ident_row for row, ident_row in zip(a, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced, pivots)`` where ``reduced`` holds only the nonzero
    rows and ``pivots`` their pivot column indices, in increasing order.
    The rows are those of ``rref_int`` divided by their pivot entries.
    """
    int_rows, pivots = rref_int(rows)
    return rref_from_int(int_rows, pivots), pivots


def rref_from_int(int_rows, pivots):
    """The Fraction RREF rows of the primitive integer rows of ``rref_int``."""
    return [[Fraction(x, r[p]) if x else F0 for x in r] for r, p in zip(int_rows, pivots)]


def rref_int(rows):
    """Reduced row echelon form over the integers.

    ``rows`` are rational (ints or Fractions). Returns ``(int_rows,
    pivots)``: the nonzero rows of the RREF, each scaled to a primitive
    integer row with a positive pivot entry, and their pivot columns in
    increasing order. Every entry of a row at another row's pivot column is
    zero, as in the Fraction RREF.
    """
    work = [_primitive_int_row(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        prow = work[row]
        p = prow[col]
        for r in range(len(work)):
            f = work[r][col]
            if r != row and f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                work[r] = _primitive([a * x - b * y for x, y in zip(work[r], prow)])
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return [r if r[col] > 0 else [-x for x in r] for r, col in zip(work[:row], pivots)], pivots


class Echelon:
    """The reduced row echelon form of a growing span of integer rows, for
    callers that decide, row by row, whether a row is new to the span.

    With e_k the Fraction RREF rows of the span (pivots p_k, in the order
    they joined) and ``scale`` s the least positive integer for which every
    s e_k is integral, ``columns`` maps each free (non-pivot) column c, in
    increasing order, to [s e_k[c] for each k]. The pivot columns need no
    storage: s e_k is s at p_k and 0 at the other pivots.
    """

    def __init__(self, size):
        self.size = size
        self.scale = 1
        self.pivots = []
        self.columns = dict.fromkeys(range(size), ())

    def spans(self, row):
        """Whether ``row`` lies in the span. With y = s (row minus its
        component in the span), y vanishes at every pivot and
        y_c = s row[c] - sum_k row[p_k] s e_k[c] at a free column c, so a
        row in the span costs one dot product over the pivots per free
        column, and one outside it stops at its first nonzero y_c."""
        if not any(row):
            return True
        if not self.pivots:
            return False
        scale = self.scale
        at_pivots = [row[p] for p in self.pivots]
        for c, col in self.columns.items():
            if scale * row[c] != sum(map(operator.mul, at_pivots, col)):
                return False
        return True

    def add(self, row):
        """Join a row outside the span; p, the first free column where y is
        nonzero, becomes a pivot.

        y and -y span the same line, so y is taken with y_p > 0. The new
        RREF rows are e_k - e_k[p] e and e = y / y_p; over the scale s y_p
        they read y_p s e_k[c] - s e_k[p] y_c and s y_c at a free column c.
        All of them and the scale are then divided by their gcd, which
        keeps the scale least; when s y_p = 1 there is nothing to divide."""
        scale = self.scale
        at_pivots = [row[p] for p in self.pivots]
        y = {c: scale * row[c] - sum(map(operator.mul, at_pivots, col))
             for c, col in self.columns.items()}
        p = next(c for c, x in y.items() if x)
        if y[p] < 0:
            y = {c: -x for c, x in y.items()}
        d = y[p]
        at_p = self.columns.pop(p)
        columns = {}
        for c, col in self.columns.items():
            if y[c]:
                col = [d * x - f * y[c] for x, f in zip(col, at_p)]
            elif d != 1:
                col = [d * x for x in col]
            columns[c] = [*col, scale * y[c]]
        scale *= d
        if scale != 1:
            g = math.gcd(scale, *itertools.chain.from_iterable(columns.values()))
            if g != 1:
                scale //= g
                columns = {c: [x // g for x in col] for c, col in columns.items()}
        self.scale, self.columns = scale, columns
        self.pivots.append(p)

    def int_rows(self):
        """The rows of ``rref_int``: primitive, by increasing pivot."""
        rows = []
        for k, p in sorted(enumerate(self.pivots), key=lambda kp: kp[1]):
            row = [0] * self.size
            row[p] = self.scale
            for c, col in self.columns.items():
                row[c] = col[k]
            rows.append(_primitive(row))
        return rows


def _primitive(row):
    """An integer row divided by the gcd of its entries (unchanged if zero)."""
    g = math.gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _primitive_int_row(row):
    """A rational row scaled to a primitive integer row spanning the same line, a new list."""
    if all(x.__class__ is int for x in row):
        return _primitive(list(row))
    return _primitive(clear_denominators([row])[0][0])


def clear_denominators(rows):
    """``(int_rows, scale)``: the rational matrix ``rows`` times ``scale``,
    the lcm of its denominators, as Python ints (an int has denominator 1)."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    if scale == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def clear_sparse(rows):
    """``clear_denominators`` of a matrix given by its nonzero entries,
    ``{row: {col: Fraction}}``: the same rows of ints, and the lcm of the
    denominators of the entries."""
    scale = math.lcm(*(x.denominator for row in rows.values() for x in row.values()))
    if scale == 1:
        return {a: {b: x.numerator for b, x in row.items()} for a, row in rows.items()}, 1
    return {a: {b: x.numerator * (scale // x.denominator) for b, x in row.items()}
            for a, row in rows.items()}, scale


def sparse_rref(rows, pivots):
    """RREF rows as (pivot, [(column, value), ...]) over their nonzeros."""
    return [(p, [(c, x) for c, x in enumerate(row) if x]) for row, p in zip(rows, pivots)]


def reduce_mod(vec, space):
    """``vec`` minus its component in a row space given by ``sparse_rref``.

    Pivot coordinates of the result are zero; each step touches only the
    nonzeros of one pivot row.
    """
    out = list(vec)
    for p, terms in space:
        f = out[p]
        if f:
            for c, x in terms:
                out[c] -= f * x
    return out


def solve_affine(a, b):
    """Solve ``A w = b`` exactly.

    Returns ``(particular, nullspace_basis)`` or ``None`` when inconsistent.
    ``nullspace_basis`` spans the homogeneous solutions; free variables are
    the non-pivot columns in increasing order.
    """
    if not a:
        return [], []
    ncols = len(a[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None  # row 0 = nonzero
    particular = [F0] * ncols
    for r, p in zip(red, pivots):
        particular[p] = r[ncols]
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = []
    for f in free:
        v = [F0] * ncols
        v[f] = F1
        for r, p in zip(red, pivots):
            v[p] = -r[f]
        basis.append(v)
    return particular, basis

