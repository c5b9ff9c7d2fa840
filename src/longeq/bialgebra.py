"""Bialgebras by structure constants, sigma tables, and the axiom machinery.

Structure constants follow the usual conventions:

* ``mult[a][b][c]`` is the coefficient of e_c in e_a * e_b,
* ``comult[a][p][q]`` the coefficient of e_p (x) e_q in Delta(e_a),
* ``unit`` the coordinate vector of 1, ``counit`` the values eps(e_a).

Validation at construction is mandatory: every axiom check below presumes
a genuine bialgebra, so failures implicate the sigma table, not the
structure constants.

The constructor reads each cell of ``mult`` and ``comult`` once and keeps
only its nonzero entries. The dense d x d x d Fraction cubes ``mult`` and
``comult`` are views of those, formed on first read; no module of the
package reads them, ``strong_dmap_rsigma`` included. Validation visits
only the basis tuples that have a term: an associativity triple
(a, b, c) whose two sums are empty, with e_b e_c = 0 and e_m e_c = 0 for
every e_m in e_a e_b, holds and is skipped.

Every law and every axiom is decided on Python ints. D (``scale``) is the
lcm of the denominators of the nonzero structure constants (of ``comult``
and ``counit`` only, for a ``Coalgebra``); ``comult_nz``, ``mult_nz``,
``int_counit`` and ``int_unit`` hold D times them. A term of degree k in
the constants is D^k times itself on these ints, so each side of a law is
compared at its degree. The counit and unit laws (degree 2 against the
coordinates of e_a) and eps(1) = 1 (degree 2 against 1) compare against
D^2. Coassociativity, associativity, eps-multiplicativity and
Delta(1) = 1 (x) 1 are degree 2 on both sides. Delta-multiplicativity is
degree 2 against 4, so its left side is multiplied by D^2.

An axiom equation const + sum lin t + sum quad t t = 0 in a sigma table t
is decided at T = S t, S the lcm of the denominators of t. Its one integer
encoding, given S, is a fixed positive multiple of it: D S for L1 (lin
from D comult) and for L2 and L4 (lin D unit, const -S D eps), D^3 S for
B1 (lin of degree 3), D S^2 for L3 and L5 (lin S D mult, quad -D comult).
A positive multiple is zero exactly when the value is, and the equations
keep their order, so every verdict and every first failure is the one over
Q. At S = 1 they are equations in t, each row and right-hand side a
positive multiple of the rational one; ``_linear_system``,
``sigma_feasibility`` and ``strong_dmap_rsigma`` read them so. A scaled
row spans the same line and the RREF of a row space is unique, so every
solution space and feasibility verdict is unchanged.

``check_axioms`` reads the streams of L1, L2 and L4, and decides L3, L5 and
B1 block by block on T. A block holds the values at T of the stream
equations that share an outer index: a for L3, x for L5 and the pair
(a, c) for B1. It is accumulated at once from the nonzeros of ``mult_nz``,
``comult_nz`` and of T's rows or columns, and no per-tuple equation is
built. Each value is the one its stream equation takes, and the blocks and
their entries are scanned in the stream's order, so every witness is the
stream's first violation. That order is why L5 is blocked by x, its
first index, and not by a: blocks by a name a failure at a = 0 ahead of
an earlier one at a > 0. The streams stay the one encoding of each axiom;
``sigma_feasibility`` reads them, and the tests check the blocks against
them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import linalg as la
from .errors import (
    InternalCheckFailed,
    InvalidBialgebra,
    InvalidCoaction,
    InvalidGroupTable,
    NotAStrongDMap,
)
from .linalg import F0, F1
from .tensor_ops import TensorOp2, _form, _pullback, long_witness

AXIOMS = ("L1", "L2", "L3", "L4", "L5", "B1", "strongD")

# longest word the sigma word extension accepts
WORD_CAP = 6

# the memo value of a word pair whose sigma is being computed
_PENDING = object()


class ZeroCell(tuple):
    """A read-only cell of d int zeros. The JSON reader shares one among the
    all-zero cells of a document; ``_cube`` knows it by its class and does
    not read its entries."""

    __slots__ = ()

    def __new__(cls, d):
        return super().__new__(cls, (0,) * d)


def _cube(name, t, d):
    """The nonzero entries of the d x d x d array ``t``: for each a and b the
    (c, Fraction) pairs with t[a][b][c] != 0, or InvalidBialgebra naming the
    field. Every entry but an int zero is read by ``as_frac``, except in a
    ``ZeroCell``."""
    if len(t) != d or any(len(row) != d or any(len(cell) != d for cell in row)
                          for row in t):
        raise InvalidBialgebra(f"'{name}' must be a {d} x {d} x {d} array")
    as_frac = la.as_frac
    return [[[] if cell.__class__ is ZeroCell else
             [(c, f) for c, x in enumerate(cell)
              if (x.__class__ is not int or x) and (f := as_frac(x))]
             for cell in row] for row in t]


def _vector(name, v, d):
    """``v`` as a length-d list of Fractions, or InvalidBialgebra naming the field."""
    if len(v) != d:
        raise InvalidBialgebra(f"'{name}' must have length {d}")
    return [la.as_frac(x) for x in v]


def _scaled(x, scale):
    """The Fraction ``x`` times ``scale``, a multiple of its denominator, as an int."""
    return x.numerator * (scale // x.denominator)


def _is_basis_vector(acc, a, scale):
    """Whether the sparse vector {index: coeff} is ``scale`` e_a."""
    return acc.get(a) == scale and not any(x for k, x in acc.items() if k != a)


class Coalgebra:
    """A finite-dimensional coalgebra given by structure constants.

    Construction checks the shapes, clears the denominators (module
    docstring), then checks the counit laws and coassociativity on
    ``comult_nz``, the nonzero structure constants times ``scale``.
    """

    def __init__(self, basis, comult, counit):
        self.basis = list(basis)
        self.d = d = len(self.basis)
        # the nonzero (p, q, Fraction) of each Delta(e_a), until they are scaled
        self.comult_nz = [[(p, q, x) for p, cell in enumerate(m) for q, x in cell]
                          for m in _cube("comult", comult, d)]
        self.counit = _vector("counit", counit, d)
        self._clear_denominators()
        self._validate()

    def _clear_denominators(self, denominators=frozenset()):
        """Set ``scale``, the lcm of ``denominators`` and of those of the
        nonzero comultiplication and counit constants, and the scaled ints."""
        nz = self.comult_nz
        self.scale = scale = math.lcm(
            *denominators | {x.denominator for terms in nz for *_, x in terms}
            | {x.denominator for x in self.counit})
        # nonzero (p, q, scaled coeff) of each Delta(e_a), also read by the axiom equations
        self.comult_nz = [[(p, q, _scaled(x, scale)) for p, q, x in terms] for terms in nz]
        self.int_counit = [_scaled(x, scale) for x in self.counit]

    @cached_property
    def comult(self):
        """The d x d x d Fraction cube of Delta, formed from ``comult_nz`` on
        first read; no law reads it."""
        d, scale = self.d, self.scale
        cube = [la.zeros(d, d) for _ in range(d)]
        for m, terms in zip(cube, self.comult_nz):
            for p, q, x in terms:
                m[p][q] = Fraction(x, scale)
        return cube

    def _validate(self):
        eps, nz, scale2 = self.int_counit, self.comult_nz, self.scale ** 2
        for a, terms in enumerate(nz):
            # counit laws: (eps (x) id)Delta(e_a) = e_a = (id (x) eps)Delta(e_a)
            left, right = {}, {}
            for p, q, x in terms:
                if eps[p]:
                    left[q] = left.get(q, 0) + eps[p] * x
                if eps[q]:
                    right[p] = right.get(p, 0) + x * eps[q]
            if not (_is_basis_vector(left, a, scale2) and _is_basis_vector(right, a, scale2)):
                raise InvalidBialgebra(f"counit law fails on basis {a}")
        for a, terms in enumerate(nz):
            # coassociativity, accumulated on e_p (x) e_q (x) e_c
            acc = {}
            for m, c, x in terms:
                for p, q, y in nz[m]:
                    key = (p, q, c)
                    acc[key] = acc.get(key, 0) + x * y
            for p, m, x in terms:
                for q, c, y in nz[m]:
                    key = (p, q, c)
                    acc[key] = acc.get(key, 0) - x * y
            if any(acc.values()):
                raise InvalidBialgebra(f"coassociativity fails on basis {a}")


class FinDimBialgebra(Coalgebra):
    """A bialgebra by structure constants; validated exactly at construction.

    Every law is accumulated on the nonzero scaled structure constants
    ``mult_nz`` and ``comult_nz``, visiting basis tuples in lexicographic
    order, so the first failing law and tuple name the violation.
    """

    def __init__(self, basis, mult, unit, comult, counit):
        basis = list(basis)
        d = len(basis)
        # the nonzero (c, Fraction) of each e_a e_b, until they are scaled
        self.mult_nz = _cube("mult", mult, d)
        self.unit = _vector("unit", unit, d)
        super().__init__(basis, comult, counit)

    def _clear_denominators(self):
        nz = self.mult_nz
        super()._clear_denominators({x.denominator for row in nz for cell in row for _, x in cell}
                                    | {x.denominator for x in self.unit})
        scale = self.scale
        # nonzero (c, scaled coeff) of each e_a e_b, also read by the axiom equations
        self.mult_nz = [[[(c, _scaled(x, scale)) for c, x in cell] for cell in row]
                        for row in nz]
        self.int_unit = [_scaled(x, scale) for x in self.unit]

    @cached_property
    def mult(self):
        """The d x d x d Fraction cube of the product, formed from ``mult_nz``
        on first read; no law reads it."""
        d, scale = self.d, self.scale
        cube = [la.zeros(d, d) for _ in range(d)]
        for m, row in zip(cube, self.mult_nz):
            for cell, terms in zip(m, row):
                for c, x in terms:
                    cell[c] = Fraction(x, scale)
        return cube

    def product(self, va, vb):
        """Product of two coordinate vectors."""
        out = [F0] * self.d
        for a, xa in enumerate(va):
            if xa:
                row = self.mult_nz[a]
                for b, xb in enumerate(vb):
                    if xb:
                        f = xa * xb
                        for c, x in row[b]:
                            out[c] += f * x
        return [x / self.scale for x in out]

    def _validate(self):
        super()._validate()
        self._validate_algebra()
        self._validate_compat()

    def _validate_algebra(self):
        nz, scale2 = self.mult_nz, self.scale ** 2
        unit = [(a, u) for a, u in enumerate(self.int_unit) if u]
        for b in range(self.d):
            # unit laws: sum u_a e_a e_b = e_b = sum u_a e_b e_a
            left, right = {}, {}
            for a, u in unit:
                for c, x in nz[a][b]:
                    left[c] = left.get(c, 0) + u * x
                for c, x in nz[b][a]:
                    right[c] = right.get(c, 0) + u * x
            if not (_is_basis_vector(left, b, scale2) and _is_basis_vector(right, b, scale2)):
                raise InvalidBialgebra(f"unit law fails on basis {b}")
        # the c with e_b e_c != 0, for each b
        live = [[c for c, bc in enumerate(row) if bc] for row in nz]
        for a, row_a in enumerate(nz):
            for b, ab in enumerate(row_a):
                row_b = nz[b]
                # both sums are empty unless e_b e_c or some e_m e_c with
                # mu_ab^m != 0 is nonzero
                cs = live[b]
                if ab:
                    cs = sorted(set(cs).union(*[live[m] for m, _ in ab]))
                for c in cs:
                    bc = row_b[c]
                    # associativity: sum_m mu_ab^m e_m e_c - sum_m mu_bc^m e_a e_m
                    acc = {}
                    for m, x in ab:
                        for t, y in nz[m][c]:
                            acc[t] = acc.get(t, 0) + x * y
                    for m, x in bc:
                        for t, y in row_a[m]:
                            acc[t] = acc.get(t, 0) - x * y
                    if any(acc.values()):
                        raise InvalidBialgebra(f"associativity fails at ({a},{b},{c})")

    def _validate_compat(self):
        eps, mult_nz, comult_nz = self.int_counit, self.mult_nz, self.comult_nz
        scale2 = self.scale ** 2
        # eps is an algebra map
        for a, row in enumerate(mult_nz):
            for b, ab in enumerate(row):
                if sum([x * eps[c] for c, x in ab]) != eps[a] * eps[b]:
                    raise InvalidBialgebra(f"counit not multiplicative at ({a},{b})")
        unit = [(a, u) for a, u in enumerate(self.int_unit) if u]
        if sum([u * eps[a] for a, u in unit]) != scale2:
            raise InvalidBialgebra("eps(1) != 1")
        # Delta(1) = 1 (x) 1
        acc = {}
        for a, u in unit:
            for p, q, x in comult_nz[a]:
                acc[p, q] = acc.get((p, q), 0) + u * x
        for p, up in unit:
            for q, uq in unit:
                acc[p, q] = acc.get((p, q), 0) - up * uq
        if any(acc.values()):
            raise InvalidBialgebra("Delta(1) != 1 (x) 1")
        # Delta is an algebra map, accumulated on e_p (x) e_q at p*d + q; the
        # left side is degree 2, the right degree 4
        d = self.d
        for a in range(d):
            for b in range(d):
                acc = {}
                for c, xc in mult_nz[a][b]:
                    f = scale2 * xc
                    for p, q, x in comult_nz[c]:
                        k = p * d + q
                        acc[k] = acc.get(k, 0) + f * x
                for p1, q1, x1 in comult_nz[a]:
                    row_p, row_q = mult_nz[p1], mult_nz[q1]
                    for p2, q2, x2 in comult_nz[b]:
                        # a term pair with e_p1 e_p2 = 0 or e_q1 e_q2 = 0 adds nothing
                        pp, qq = row_p[p2], row_q[q2]
                        if not (pp and qq):
                            continue
                        f = x1 * x2
                        for p, xp in pp:
                            fp, base = f * xp, p * d
                            for q, xq in qq:
                                k = base + q
                                acc[k] = acc.get(k, 0) - fp * xq
                if any(acc.values()):
                    raise InvalidBialgebra(f"Delta not multiplicative at ({a},{b})")


class SigmaTable:
    """A bilinear form on a bialgebra basis: ``table[a][b] = sigma(e_a (x) e_b)``."""

    def __init__(self, table):
        self.d = len(table)
        for row in table:
            if len(row) != self.d:
                raise ValueError(
                    f"'table' must be {self.d} x {self.d}; a row has {len(row)} entries"
                )
        self.table = la.to_frac_matrix(table)

    @classmethod
    def counit_square(cls, b: FinDimBialgebra):
        """The table eps (x) eps.

        It satisfies the Long axioms L1-L5 on any bialgebra. It satisfies
        B1 only on a commutative one: the two sides of B1 reduce to c a and
        a c (see ``check_axioms``).
        """
        return cls([[b.counit[p] * b.counit[q] for q in range(b.d)] for p in range(b.d)])


# Each axiom is a lazy stream of sparse integer equations (where, const, lin,
# quad): const + sum lin[k] T_k + sum quad[k1, k2] T_k1 T_k2 = 0, with
# T_{p*d+q} = S sigma(e_p (x) e_q) for the sigma scale S given to the stream
# (module docstring) and ``where`` the basis tuple that names a violation.
# The checker, the solution space and the feasibility pass all read them.


def _l1_equations(c, scale):
    """L1 at (a, y, r): the e_r coefficient of
    sum sigma(a_1 (x) y) a_2 - sum sigma(a_2 (x) y) a_1.

    Reads only ``d`` and the comultiplication, so any ``Coalgebra`` serves;
    linear, so the sigma scale does not enter.
    """
    d = c.d
    for a, terms in enumerate(c.comult_nz):
        coeffs = {}  # (r, p): coefficient of sigma(e_p (x) y) e_r
        for p, q, x in terms:
            coeffs[q, p] = coeffs.get((q, p), 0) + x
            coeffs[p, q] = coeffs.get((p, q), 0) - x
        by_r = {}  # r: its nonzero (p, coefficient) pairs, in the order of coeffs
        for (r, p), x in coeffs.items():
            if x:
                by_r.setdefault(r, []).append((p, x))
        rows = sorted(by_r.items())
        for y in range(d):
            for r, pairs in rows:
                yield (a, y), 0, {p * d + y: x for p, x in pairs}, {}


def _l2_equations(b, scale):
    """L2 at (a,): sigma(a (x) 1) - eps(a)."""
    d = b.d
    for a in range(d):
        yield ((a,), -scale * b.int_counit[a],
               {a * d + c: u for c, u in enumerate(b.int_unit) if u}, {})


def _l4_equations(b, scale):
    """L4 at (a,): sigma(1 (x) a) - eps(a)."""
    d = b.d
    for a in range(d):
        yield ((a,), -scale * b.int_counit[a],
               {c * d + a: u for c, u in enumerate(b.int_unit) if u}, {})


def _l3_equations(b, scale):
    """L3 at (a, x, y): sigma(a (x) xy) - sum sigma(a_1 (x) x) sigma(a_2 (x) y)."""
    d = b.d
    for a, x, y in itertools.product(range(d), repeat=3):
        yield ((a, x, y), 0, {a * d + m: scale * v for m, v in b.mult_nz[x][y]},
               {(p * d + x, q * d + y): -v for p, q, v in b.comult_nz[a]})


def _l5_equations(b, scale):
    """L5 at (x, y, a): sigma(xy (x) a) - sum sigma(y (x) a_1) sigma(x (x) a_2)."""
    d = b.d
    for x, y, a in itertools.product(range(d), repeat=3):
        yield ((x, y, a), 0, {m * d + a: scale * v for m, v in b.mult_nz[x][y]},
               {(y * d + p, x * d + q): -v for p, q, v in b.comult_nz[a]})


def _b1_equations(b, scale):
    """B1 at (a, c, m), named (a, c): the e_m coefficient of
    sum sigma(a_1 (x) c_1) c_2 a_2 - sum a_1 c_1 sigma(a_2 (x) c_2)."""
    d = b.d
    for a, c in itertools.product(range(d), repeat=2):
        lins = [{} for _ in range(d)]
        for p, q, x1 in b.comult_nz[a]:
            for r, u, x2 in b.comult_nz[c]:
                f = x1 * x2
                for m, v in b.mult_nz[u][q]:
                    lins[m][p * d + r] = lins[m].get(p * d + r, 0) + f * v
                for m, v in b.mult_nz[p][r]:
                    lins[m][q * d + u] = lins[m].get(q * d + u, 0) - f * v
        for lin in lins:
            yield (a, c), 0, lin, {}


EQUATIONS = {
    "L1": _l1_equations,
    "strongD": _l1_equations,
    "L2": _l2_equations,
    "L4": _l4_equations,
    "L3": _l3_equations,
    "L5": _l5_equations,
    "B1": _b1_equations,
}


def _first_violation(equations, table):
    """``where`` of the first equation the table violates, or None.

    ``table`` is T for the sigma scale the stream was given."""
    t = [x for row in table for x in row]
    for where, const, lin, quad in equations:
        val = const
        for k, c in lin.items():
            if t[k]:
                val += c * t[k]
        for (k1, k2), c in quad.items():
            if t[k1] and t[k2]:
                val += c * t[k1] * t[k2]
        if val:
            return where
    return None


# The blocks of L3, L5 and B1 on the integer table T at sigma scale S
# (module docstring). A block's least nonzero entry is the first violation
# of the stream within it.


def _nonzeros(rows):
    """The nonzero (index, value) pairs of each row of ``rows``."""
    return [[(k, x) for k, x in enumerate(row) if x] for row in rows]


def _l3_block(b, table, rows, scale, a):
    """L3's block at a: {x*d + y: value} over (x, y) of
    S sum_m mu_xy^m T[a,m] - sum_{(p,q,v) in Delta(e_a)} v T[p,x] T[q,y];
    an (x, y) with no term is absent. ``rows`` is ``_nonzeros(table)``."""
    d, ta, block = b.d, table[a], {}
    for x, row in enumerate(b.mult_nz):
        base = x * d
        for y, cell in enumerate(row):
            val = 0
            for m, v in cell:
                if ta[m]:
                    val += v * ta[m]
            if val:
                block[base + y] = scale * val
    for p, q, v in b.comult_nz[a]:
        rq = rows[q]
        if rq:
            for x, tx in rows[p]:
                f, base = v * tx, x * d
                for y, ty in rq:
                    k = base + y
                    block[k] = block.get(k, 0) - f * ty
    return block


def _l5_block(b, table, rows, cols, scale, x):
    """L5's block at x: {y*d + a: value} over (y, a) of
    S sum_m mu_xy^m T[m,a] - sum_{(p,q,v) in Delta(e_a)} v T[y,p] T[x,q];
    a (y, a) with no term is absent. ``rows`` and ``cols`` are the
    ``_nonzeros`` of T's rows and columns."""
    d, tx, block = b.d, table[x], {}
    for y, cell in enumerate(b.mult_nz[x]):
        base = y * d
        for m, v in cell:
            f = scale * v
            for a, t in rows[m]:
                k = base + a
                block[k] = block.get(k, 0) + f * t
    for a, terms in enumerate(b.comult_nz):
        for p, q, v in terms:
            if tx[q]:
                f = v * tx[q]
                for y, ty in cols[p]:
                    k = y * d + a
                    block[k] = block.get(k, 0) - f * ty
    return block


def _b1_block(b, table, a, c):
    """B1's block at (a, c): the e_m coefficients, m = 0..d-1, of
    sum T[a_1, c_1] c_2 a_2 - sum a_1 c_1 T[a_2, c_2]."""
    mult_nz, acc = b.mult_nz, [0] * b.d
    for p, q, x1 in b.comult_nz[a]:
        tp, tq = table[p], table[q]
        for r, u, x2 in b.comult_nz[c]:
            if tp[r]:
                f = x1 * x2 * tp[r]
                for m, v in mult_nz[u][q]:
                    acc[m] += f * v
            if tq[u]:
                f = x1 * x2 * tq[u]
                for m, v in mult_nz[p][r]:
                    acc[m] -= f * v
    return acc


def _first_failure(blocks, d):
    """(i, *divmod(k, d)) for the least key k with a nonzero value in the
    first block of ``blocks`` that has one, i its place; or None."""
    for i, block in enumerate(blocks):
        bad = [k for k, val in block.items() if val]
        if bad:
            return (i, *divmod(min(bad), d))
    return None


def _l3_violation(b, table, scale):
    """``where`` (a, x, y) of L3's first violation, scanning blocks by a."""
    rows = _nonzeros(table)
    return _first_failure((_l3_block(b, table, rows, scale, a) for a in range(b.d)), b.d)


def _l5_violation(b, table, scale):
    """``where`` (x, y, a) of L5's first violation, scanning blocks by x. The
    stream's order is (x, y, a): blocks by a would name a failure at a = 0
    ahead of an earlier one at a > 0."""
    rows, cols = _nonzeros(table), _nonzeros(zip(*table))
    return _first_failure((_l5_block(b, table, rows, cols, scale, x) for x in range(b.d)), b.d)


def _b1_violation(b, table, scale):
    """``where`` (a, c) of B1's first violation; B1 is linear, so S does not enter."""
    for a, c in itertools.product(range(b.d), repeat=2):
        if any(_b1_block(b, table, a, c)):
            return (a, c)
    return None


# the axioms ``check_axioms`` decides by blocks; the others it reads from
# their streams
_BLOCK_DECIDERS = {"L3": _l3_violation, "L5": _l5_violation, "B1": _b1_violation}


def check_axioms(b: FinDimBialgebra, s: SigmaTable, which=None) -> dict:
    """Check the requested axioms exactly on basis tuples.

    In Sweedler notation Delta(a) = sum a_1 (x) a_2, the axioms are, for all
    basis elements a, c, x, y:

    * L1: sum sigma(a_1 (x) c) a_2 = sum sigma(a_2 (x) c) a_1
    * L2: sigma(a (x) 1) = eps(a)
    * L3: sigma(a (x) xy) = sum sigma(a_1 (x) x) sigma(a_2 (x) y)
    * L4: sigma(1 (x) a) = eps(a)
    * L5: sigma(xy (x) a) = sum sigma(y (x) a_1) sigma(x (x) a_2)
    * B1: sum sigma(a_1 (x) c_1) c_2 a_2 = sum a_1 c_1 sigma(a_2 (x) c_2)

    L1-L5 are the Long axioms; B1 is the coquasitriangular commutation
    law, not one of them.

    Returns {axiom: (ok, witness)} in the order of ``EQUATIONS``, where the
    witness is the first violating basis tuple: (a, c) for L1 and B1, (a,)
    for L2 and L4, (a, x, y) for L3 and (x, y, a) for L5. ``strongD`` is the
    same identity as L1 phrased on the coalgebra alone. The equations are
    decided on the integer table S sigma (module docstring): L1, L2 and L4
    from their streams, L3 block by block over a, L5 over x and B1 over
    (a, c), each witness the first violation in the stream's order. ``which``
    defaults to all but ``strongD``; an empty ``which``, an unknown name or
    a sigma table whose size is not ``b.d`` is a ValueError.
    """
    if s.d != b.d:
        raise ValueError("sigma table size disagrees with the bialgebra dimension")
    which = set(AXIOMS) - {"strongD"} if which is None else set(which)
    if not which:
        raise ValueError("the axiom list names nothing; give at least one axiom")
    unknown = which - set(AXIOMS)
    if unknown:
        raise ValueError(f"unknown axioms: {sorted(unknown)}; choose from {AXIOMS}")
    table, scale = la.clear_denominators(s.table)
    found = {}
    report = {}
    for name, equations in EQUATIONS.items():
        if name in which:
            decide = _BLOCK_DECIDERS.get(name)
            key = decide or equations
            if key not in found:
                found[key] = (decide(b, table, scale) if decide
                              else _first_violation(equations(b, scale), table))
            report[name] = (found[key] is None, found[key])
    return report


@dataclass
class AffineTableSpace:
    """Affine space of d x d tables: particular solution plus homogeneous basis.

    Variables are row-major: index p*d + q stands for sigma(e_p (x) e_q).
    """

    d: int
    particular: list
    basis: list

    def contains(self, table) -> bool:
        t = la.to_frac_matrix(table)
        vec = [t[p][q] for p in range(self.d) for q in range(self.d)]
        diff = [x - y for x, y in zip(vec, self.particular)]
        return la.is_zero_vec(la.reduce_mod(diff, self._basis_rref))

    @cached_property
    def _basis_rref(self):
        """The basis in sparse RREF, computed on the first ``contains``."""
        return la.sparse_rref(*la.rref(self.basis))

    def pinned(self) -> dict:
        """Variables constant across the space, as {(p, q): value}."""
        out = {}
        for k in range(self.d * self.d):
            if all(not v[k] for v in self.basis):
                out[(k // self.d, k % self.d)] = self.particular[k]
        return out


def _linear_system(b: FinDimBialgebra):
    """L1, L2, L4 as (rows, rhs) in the d^2 unknowns sigma(e_p (x) e_q),
    read at sigma scale 1: each row a positive multiple of the rational one."""
    rows, rhs = [], []
    for name in ("L1", "L2", "L4"):
        for _, const, lin, _ in EQUATIONS[name](b, 1):
            row = [0] * (b.d * b.d)
            for k, x in lin.items():
                row[k] = x
            rows.append(row)
            rhs.append(-const)
    return rows, rhs


def l1_solution_space(b: FinDimBialgebra) -> AffineTableSpace:
    """All tables satisfying the linear axioms L1, L2, L4, exactly."""
    rows, rhs = _linear_system(b)
    sol = la.solve_affine(rows, rhs)
    if sol is None:
        raise InvalidBialgebra("L1/L2/L4 system inconsistent on a validated bialgebra")
    particular, basis = sol
    return AffineTableSpace(b.d, particular, basis)


@dataclass
class FeasibilityResult:
    """Outcome of ``sigma_feasibility``: ``status`` "unknown" and the residual
    affine ``space``, NOT a feasibility claim; ``witness`` is always None."""

    status: str
    witness: str | None = None
    space: AffineTableSpace | None = None


def sigma_feasibility(b: FinDimBialgebra) -> FeasibilityResult:
    """Narrow the Long-structure tables by the linearizable quadratic axioms.

    Solves the linear axioms, then repeatedly linearizes any quadratic
    axiom instance whose products each contain at most one unpinned factor,
    and returns the residual space.

    No system formed here is inconsistent on a validated bialgebra:
    eps (x) eps satisfies L1-L5 (``SigmaTable.counit_square``), so it lies
    in the L1/L2/L4 space, and each pinned variable, constant on the space,
    has its value there. A linearized L3 or L5 instance puts those values
    in for the pinned factors, so eps (x) eps satisfies it too and stays
    in every narrowed space. An inconsistent solve is InternalCheckFailed.
    """
    rows, rhs = _linear_system(b)
    quads = [(name, eq) for name in ("L3", "L5") for eq in EQUATIONS[name](b, 1)]
    d2 = b.d * b.d
    used = set()
    added = True
    while added:
        sol = la.solve_affine(rows, rhs)
        if sol is None:
            raise InternalCheckFailed(
                "linear and linearized axioms are inconsistent on a validated bialgebra, "
                "though eps (x) eps satisfies them")
        particular, basis = sol
        pinned = {k: particular[k] for k in range(d2) if all(not v[k] for v in basis)}
        added = False
        for eq_id, (name, (where, const, lin, quad)) in enumerate(quads):
            if eq_id in used:
                continue
            row = [0] * d2
            c0 = const
            for k, coeff in lin.items():
                row[k] += coeff
            usable = True
            for (k1, k2), coeff in quad.items():
                if k1 in pinned and k2 in pinned:
                    c0 += coeff * pinned[k1] * pinned[k2]
                elif k1 in pinned:
                    row[k2] += coeff * pinned[k1]
                elif k2 in pinned:
                    row[k1] += coeff * pinned[k2]
                else:
                    usable = False
                    break
            if not usable:
                continue
            used.add(eq_id)
            # a zero row with a nonzero constant makes the next solve fail
            if c0 or not la.is_zero_vec(row):
                rows.append(row)
                rhs.append(-c0)
                added = True
    return FeasibilityResult("unknown", space=AffineTableSpace(b.d, *sol))


@dataclass
class GeneratorBialgebra:
    """A free bialgebra given on generators.

    ``delta`` maps each generator to a list of (coeff, left_word, right_word)
    with words as tuples of generator names (empty tuple = 1); ``eps`` maps
    generators to scalars. Relations, if any, are ignored: words are compared
    with free-algebra semantics.
    """

    generators: list
    delta: dict
    eps: dict

    def eps_word(self, w):
        acc = F1
        for g in w:
            acc *= Fraction(self.eps[g])
        return acc

    def delta_word(self, w):
        terms = [(F1, (), ())]
        for g in w:
            nxt = []
            for coeff, lw, rw in terms:
                for c2, l2, r2 in self.delta[g]:
                    nxt.append((coeff * Fraction(c2), lw + l2, rw + r2))
            terms = nxt
        return terms


def generator_sigma_words(g: GeneratorBialgebra, table, w1, w2, left_first=False, memo=None):
    """Extend a generator-pair sigma table to words via the splitting laws.

    ``table`` maps generator pairs to scalars (missing pairs are zero). The
    right word is split first (L3, the multiplicative law in the second
    argument) unless ``left_first`` (L5); for a Long bialgebra the result is
    splitting-order independent. A word longer than ``WORD_CAP`` is a
    ValueError. ``memo`` caches values across calls with the same ``g`` and
    ``table``; a pair is marked in it while its value is computed, so a
    comultiplication that makes sigma on a pair refer back to itself (such
    as Delta x = xx (x) x) is a ValueError naming the pair, not an endless
    recursion.
    """
    w1, w2 = tuple(w1), tuple(w2)
    if len(w1) > WORD_CAP or len(w2) > WORD_CAP:
        raise ValueError(f"word longer than cap {WORD_CAP}")
    memo = {} if memo is None else memo
    key = (w1, w2, left_first)
    hit = memo.get(key)
    if hit is _PENDING:
        raise ValueError(f"sigma on the words {w1} and {w2} refers back to itself")
    if hit is not None:
        return hit
    memo[key] = _PENDING
    try:
        if not w1:
            val = g.eps_word(w2)
        elif not w2:
            val = g.eps_word(w1)
        elif len(w1) == 1 and len(w2) == 1:
            val = Fraction(table.get((w1[0], w2[0]), F0))
        elif len(w2) > 1 and not (left_first and len(w1) > 1):
            y, z = w2[:1], w2[1:]
            val = F0
            for coeff, lw, rw in g.delta_word(w1):
                s1 = generator_sigma_words(g, table, lw, y, left_first, memo)
                if s1:
                    val += coeff * s1 * generator_sigma_words(g, table, rw, z, left_first, memo)
        else:
            x, y = w1[:1], w1[1:]
            val = F0
            for coeff, lw, rw in g.delta_word(w2):
                s1 = generator_sigma_words(g, table, y, lw, left_first, memo)
                if s1:
                    val += coeff * s1 * generator_sigma_words(g, table, x, rw, left_first, memo)
    finally:
        del memo[key]
    memo[key] = val
    return val


def check_generator_long(g: GeneratorBialgebra, table):
    """Degree-one strong D-identity over the free algebra on the generators.

    For each generator pair (x, y), sum c sigma(lw (x) y) rw - sum c
    sigma(rw (x) y) lw over the terms c lw (x) rw of Delta x is expanded
    once, the coefficient of each word as const + sum lin[k] t_k in
    t_{a*m+b} = sigma(g_a (x) g_b): a one-letter factor adds to ``lin``, any
    other (eps for the empty word, the splitting laws past one letter) to
    ``const``. Evaluated at ``table`` the forms give the violations; when
    every factor has length <= 1 they are linear, and also the rows of the
    forced constraints. Returns ``(ok, report)``: each violating pair with
    its nonzero word coefficients, and the constraints when linearizable.
    """
    gens = list(g.generators)
    m = len(gens)
    gi = {name: k for k, name in enumerate(gens)}
    t = [Fraction(table.get((a, b), F0)) for a in gens for b in gens]
    linearizable = all(len(lw) <= 1 and len(rw) <= 1
                       for x in gens for _, lw, rw in g.delta[x])
    violations, rows, rhs = [], [], []
    memo = {}
    for x in gens:
        for y in gens:
            forms = {}  # word: [const, {k: coefficient of t_k}]
            for c, lw, rw in g.delta[x]:
                c = Fraction(c)
                for f, u, w in ((c, lw, rw), (-c, rw, lw)):
                    form = forms.setdefault(w, [F0, {}])
                    if len(u) == 1:
                        k = gi[u[0]] * m + gi[y]
                        form[1][k] = form[1].get(k, F0) + f
                    else:
                        form[0] += f * generator_sigma_words(g, table, u, (y,), memo=memo)
            bad = {}
            for w, (const, lin) in forms.items():
                val = const + sum([a * t[k] for k, a in lin.items()])
                if val:
                    bad[w] = val
                if linearizable and (const or any(lin.values())):
                    rows.append([lin.get(k, F0) for k in range(m * m)])
                    rhs.append(-const)
            if bad:
                violations.append(((x, y), bad))
    report = {"violations": violations}
    if linearizable:
        # with no row, the one zero row leaves every table allowed
        sol = la.solve_affine(rows or [[F0] * (m * m)], rhs or [F0])
        if sol is None:
            report["constraints"] = None
        else:
            report["constraints"] = AffineTableSpace(m, *sol)
            report["generator_order"] = gens
    return (not violations, report)


def strong_dmap_rsigma(c, s: SigmaTable, rho) -> TensorOp2:
    """Build the induced operator on a comodule from a strong D-map.

    ``c`` is a ``Coalgebra``; ``rho`` gives the coaction: rho[v][l] is the
    coalgebra coordinate vector of the coefficient of m_v in rho(m_l).
    Checks the strong D-map identity (L1), then that c_vl -> rho_vl is a
    coalgebra map (on the nonzeros of rho and ``comult_nz``, at D =
    ``c.scale``), then that the output, sigma(rho_iv (x) rho_ju) at
    ((i,j), (v,u)) by ``_pullback``, is a Long solution; a sigma table not
    c.d x c.d is a ValueError, and an empty rho an ``InvalidCoaction``.
    """
    d = c.d
    if s.d != d:
        raise ValueError("sigma table size disagrees with the coalgebra dimension")
    n = len(rho)
    if not n:
        raise InvalidCoaction("rho is empty: the coaction needs at least one basis vector m_l")
    rho = [[ [Fraction(x) for x in cell] for cell in row] for row in rho]
    if any(len(row) != n for row in rho) or any(
        len(cell) != d for row in rho for cell in row
    ):
        raise InvalidCoaction("rho must be n x n with coalgebra-valued entries")
    w = _first_violation(_l1_equations(c, 1), s.table)
    if w is not None:
        raise NotAStrongDMap(f"strong D-map identity fails at basis pair {w}", w)
    rng, scale, eps, nz = range(n), c.scale, c.int_counit, c.comult_nz
    # the nonzero (k, coefficient) pairs of each rho_vl
    rho = [[[(k, x) for k, x in enumerate(cell) if x] for cell in row] for row in rho]
    for v, l in itertools.product(rng, repeat=2):
        if sum([x * eps[k] for k, x in rho[v][l]]) != (scale if v == l else 0):
            raise InvalidCoaction(f"counit law fails at ({v},{l})")
    for v, l in itertools.product(rng, repeat=2):
        acc = {}  # (p, q): D times the e_p (x) e_q coefficient of the difference
        for k, x in rho[v][l]:
            for p, q, y in nz[k]:
                acc[p, q] = acc.get((p, q), 0) + x * y
        for w_ in rng:
            for (p, x), (q, y) in itertools.product(rho[v][w_], rho[w_][l]):
                acc[p, q] = acc.get((p, q), 0) - scale * x * y
        if any(acc.values()):
            raise InvalidCoaction(f"coassociativity fails at ({v},{l})")
    out = TensorOp2(n, _form(_pullback([cell for row in rho for cell in row], s.table), n))
    witness = long_witness(out)
    if witness is not None:
        raise InternalCheckFailed(
            f"induced operator fails Long equation {witness[0]} at {witness[1]}"
        )
    return out


def comatrix_coalgebra(n) -> Coalgebra:
    """The comatrix coalgebra of order n: Delta(c_jk) = sum_u c_ju (x) c_uk."""
    d = n * n
    comult = [la.zeros(d, d) for _ in range(d)]
    counit = [F0] * d
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            a = (j - 1) * n + (k - 1)
            for u in range(1, n + 1):
                comult[a][(j - 1) * n + (u - 1)][(u - 1) * n + (k - 1)] = F1
            if j == k:
                counit[a] = F1
    basis = [f"c_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    return Coalgebra(basis, comult, counit)


def fundamental_comodule(n):
    """Coaction coefficients rho(m_l) = sum_v m_v (x) c_vl over the comatrix
    coalgebra of order n."""
    d = n * n
    rho = [[[F0] * d for _ in range(n)] for _ in range(n)]
    for v in range(n):
        for l in range(n):
            rho[v][l][v * n + l] = F1
    return rho


def sweedler_h4() -> FinDimBialgebra:
    """The 4-dimensional Hopf algebra on {1, x, y, z}: x^2 = 1, y^2 = 0,
    xy = z, xz = -zx = y (char k != 2)."""
    names = ["1", "x", "y", "z"]
    d = 4
    I, X, Y, Z = 0, 1, 2, 3
    mult = [[[F0] * d for _ in range(d)] for _ in range(d)]
    for a in range(d):
        mult[I][a][a] = mult[a][I][a] = F1
    # x^2 = 1, xy = z, xz = y, yx = -z, zx = -y; y^2, yz, zy and z^2 are zero
    for a, b, c, v in ((X, X, I, 1), (X, Y, Z, 1), (X, Z, Y, 1), (Y, X, Z, -1), (Z, X, Y, -1)):
        mult[a][b][c] = Fraction(v)
    comult = [la.zeros(d, d) for _ in range(d)]
    for a, p, q in ((I, I, I), (X, X, X), (Y, Y, X), (Y, I, Y), (Z, X, Z), (Z, Z, I)):
        comult[a][p][q] = F1
    counit = [F1, F1, F0, F0]
    unit = [F1, F0, F0, F0]
    return FinDimBialgebra(names, mult, unit, comult, counit)


def group_algebra(labels, table) -> FinDimBialgebra:
    """Group algebra k[G] with group-like basis.

    ``table[i][j]`` is the index of the product of elements i and j; the
    table must be a genuine group table.
    """
    d = len(labels)
    if len(table) != d or any(len(r) != d for r in table):
        raise InvalidGroupTable("table must be d x d")
    if any(not 0 <= v < d for r in table for v in r):
        raise InvalidGroupTable("table entries out of range")
    for a in range(d):
        for b in range(d):
            for c in range(d):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise InvalidGroupTable(f"not associative at ({a},{b},{c})")
    ident = next(
        (e for e in range(d) if all(table[e][g] == g == table[g][e] for g in range(d))),
        None,
    )
    if ident is None:
        raise InvalidGroupTable("no identity element")
    for a in range(d):
        if sorted(table[a]) != list(range(d)) or sorted(
            table[r][a] for r in range(d)
        ) != list(range(d)):
            raise InvalidGroupTable(f"element {a} has no inverse")
    mult = [[[F1 if c == table[a][b] else F0 for c in range(d)] for b in range(d)]
            for a in range(d)]
    comult = [la.zeros(d, d) for _ in range(d)]
    for a in range(d):
        comult[a][a][a] = F1
    return FinDimBialgebra(
        list(labels), mult, [F1 if a == ident else F0 for a in range(d)], comult,
        [F1] * d
    )


def cyclic_group_algebra(m) -> FinDimBialgebra:
    """k[Z/m] with basis g^0 .. g^{m-1}."""
    return group_algebra(
        [f"g^{i}" for i in range(m)],
        [[(i + j) % m for j in range(m)] for i in range(m)],
    )


def comatrix_tensor_truncation(n, degree) -> FinDimBialgebra:
    """Tensor bialgebra on the comatrix coalgebra, truncated in word length.

    Quotient of the tensor algebra over the order-n comatrix coalgebra by
    the biideal (long words) intersected with the counit kernel. The
    comultiplication splits each letter through the matrix indices and
    preserves word length, so the basis consists of the words of length
    <= degree together with one extra group-like class s: any longer word
    w collapses to eps(w) * s, and s absorbs all products (s * a =
    eps(a) * s). Dimension: 1 + sum_{k<=degree} n^(2k).
    """
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    words = [()]
    frontier = [()]
    for _ in range(degree):
        frontier = [w + (l,) for w in frontier for l in letters]
        words.extend(frontier)
    index = {w: k for k, w in enumerate(words)}
    d = len(words) + 1
    s = d - 1

    def word_eps(w):
        return F1 if all(i == j for (i, j) in w) else F0

    mult = [[[F0] * d for _ in range(d)] for _ in range(d)]
    for a, wa in enumerate(words):
        for b, wb in enumerate(words):
            cat = wa + wb
            if len(cat) <= degree:
                mult[a][b][index[cat]] = F1
            else:
                mult[a][b][s] = word_eps(wa) * word_eps(wb)
    for a, wa in enumerate(words):
        mult[a][s][s] = word_eps(wa)
        mult[s][a][s] = word_eps(wa)
    mult[s][s][s] = F1
    comult = [la.zeros(d, d) for _ in range(d)]
    counit = [F0] * d
    for a, w in enumerate(words):
        terms = [(F1, (), ())]
        for (i, j) in w:
            terms = [
                (c, lw + ((i, u),), rw + ((u, j),))
                for c, lw, rw in terms
                for u in range(1, n + 1)
            ]
        for c, lw, rw in terms:
            comult[a][index[lw]][index[rw]] += c
        counit[a] = word_eps(w)
    comult[s][s][s] = F1
    counit[s] = F1
    basis = ["*".join(f"c_{i}_{j}" for (i, j) in w) or "1" for w in words] + ["s"]
    unit = [F1] + [F0] * (d - 1)
    return FinDimBialgebra(basis, mult, unit, comult, counit)
