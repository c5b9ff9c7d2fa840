"""Exact operators on M(x)M and M(x)M(x)M, solution constructors, law checks.

Conventions, used everywhere downstream:

* An operator acts as ``R(m_v (x) m_u) = sum_{i,j} x[u,v,j,i] m_i (x) m_j``
  with all indices 1..n; the first tensor slot carries v on input and i on
  output.
* The matrix view indexes the ordered basis ``m_a (x) m_b`` at row/column
  ``(a-1)n + (b-1)``, so the entry at row ``(i-1)n+(j-1)``, column
  ``(v-1)n+(u-1)`` is ``x[u,v,j,i]`` (``TensorOp2.coeff``).
* A ``TensorOp2`` holds only the nonzero entries of the matrix view, as
  sparse rows. The law checks, the Long check and ``frt.build_LR`` read
  them and the integer forms made from them; the dense Fraction matrix is
  formed only for dense algebra such as conjugation and inversion.

The Long check is sigma_0-descent. Let sigma_0(c_iv (x) c_ju) = x[u,v,j,i]
on the comatrix coalgebra C and o(i,j,k,l) = sum_v x[k,v,j,i] c_vl -
sum_a x[k,l,j,a] c_ia. For every operator eps(o) = 0 and
Delta o(i,j,k,l) = sum_u o(i,j,k,u) (x) c_ul + sum_u c_iu (x) o(u,j,k,l),
so the span V of the o is a coideal, and the Long equations at
(i,j,k,l,p,q) are sigma_0(o(i,j,k,l) (x) c_pq) = 0 (equation 1) and
sigma_0(c_pq (x) o(i,j,k,l)) = 0 (equation 2). The descent test of a row
is one kernel, ``_row_descent_failure``. ``_descent_basis`` runs it on the
obstruction rows that are independent of the rows before them, which
decides Long (``long_witness``) and yields the RREF basis of V
(``frt.build_LR``) in one pass; ``frt.SigmaForm`` runs it on that basis
(``_first_descent_failure``).

R_sigma is formed in one place, ``_pullback``, for ``frt`` and ``bialgebra``.
Each constructor refuses n^3 above ``max_dim()`` before it builds anything.

All arithmetic in this module is exact rational.
"""

from __future__ import annotations

import math
import os
from functools import cache, cached_property

import numpy as np

from . import linalg as la
from .errors import (
    CentralityViolated,
    DimensionCap,
    InternalCheckFailed,
    NonCommutingPair,
    NotALongSolution,
    NotASubmodule,
    NotIdempotent,
    SingularMatrix,
    SingularOperator,
)
from .linalg import F0, F1
from .scalars import parse_frac

LAWS = ("long", "d_equation", "qybe", "hopf", "kz_bracket", "symmetric")
DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "LONGEQ_MAX_DIM"


def max_dim():
    """The size cap: ``LONGEQ_MAX_DIM``, or 4096 when it is unset."""
    return int(os.environ.get(DIM_CAP_ENV) or DEFAULT_DIM_CAP)


def check_operator_dim(n):
    """Refuse, with ``DimensionCap``, an operator whose n^3 exceeds ``max_dim()``."""
    cap = max_dim()
    if n ** 3 > cap:
        raise DimensionCap(f"operator dim {n}: n^3 = {n ** 3} exceeds cap {cap}")


def _spec_index(x, size, what):
    """``x`` if it is an int (not a bool) in [0, size), else a ValueError."""
    if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < size:
        raise ValueError(f"{what} must be an integer index in [0, {size}), got {x!r}")
    return x


class TensorOp2:
    """Exact endomorphism of M(x)M, held as the nonzero entries of its
    n^2 x n^2 matrix view: ``rows`` maps a row index to ``{column: entry}``,
    the entries Fractions, with no zero entry and no empty row.

    The entries are not mutated after construction: the integer forms
    ``cleared`` and ``int_form``, the ``lifts`` of Z and the dense
    ``matrix`` view are formed from them once, on first read. The law
    checks, ``frt.build_LR``, ``kz.KZSystem.from_op`` and the JSON writer
    read the sparse rows; only the dense algebra (``make_conjugate``,
    ``invert`` and ``frt.convolution_inverse``) forms ``matrix``.
    """

    def __init__(self, dim, matrix):
        """The operator with the dense matrix view ``matrix``; every entry
        is read by ``linalg.as_frac``."""
        if dim < 1:
            raise ValueError("dim must be positive")
        matrix = la.to_frac_matrix(matrix)
        if len(matrix) != dim * dim or any(len(r) != dim * dim for r in matrix):
            raise ValueError("matrix view must be n^2 x n^2")
        self.dim = dim
        self.rows = {}
        for a, row in enumerate(matrix):
            nonzero = {b: x for b, x in enumerate(row) if x}
            if nonzero:
                self.rows[a] = nonzero

    @classmethod
    def from_rows(cls, dim, rows):
        """The operator whose nonzero entries are ``rows``, in the form of
        ``TensorOp2.rows``, taken as given: the caller has checked dim, the
        indices and the entries (``jsonio.operator_from_json``)."""
        r = cls.__new__(cls)
        r.dim, r.rows = dim, rows
        return r

    @cached_property
    def matrix(self):
        """The dense n^2 x n^2 Fraction matrix view."""
        m = la.zeros(self.dim ** 2, self.dim ** 2)
        for a, row in self.rows.items():
            for b, x in row.items():
                m[a][b] = x
        return m

    @cached_property
    def cleared(self):
        """``(Z, D)``: Z = D R as sparse int rows in the form of ``rows``,
        D the lcm of the denominators (``linalg.clear_sparse``)."""
        return la.clear_sparse(self.rows)

    @cached_property
    def int_form(self):
        """``(table, D)``: the form ``_form`` of Z = D R as a dense int
        table, and D."""
        z, d = self.cleared
        n = self.dim
        table = [[0] * (n * n) for _ in range(n * n)]
        for a, row in z.items():
            i, j = divmod(a, n)
            for b, x in row.items():
                v, u = divmod(b, n)
                table[i * n + v][j * n + u] = x
        return table, d

    @cached_property
    def lifts(self):
        """The sparse lifts of Z onto slots 12, 13, 23 of M(x3) (``_lift_sparse``)."""
        return [_lift_sparse(self.cleared[0], self.dim, *_LIFT_SLOTS[s], 3) for s in (12, 13, 23)]

    def coeff(self, u, v, j, i):
        """x[u,v,j,i] with 1-based indices."""
        n = self.dim
        return self.rows.get((i - 1) * n + (j - 1), {}).get((v - 1) * n + (u - 1), F0)

    def __eq__(self, other):
        return isinstance(other, TensorOp2) and self.dim == other.dim and self.rows == other.rows

    def __repr__(self):
        return f"TensorOp2(dim={self.dim})"


@cache
def _slot_blocks(n, i, j, N):
    """The basis indices that embed an n^2-block on slots (i, j), as a
    read-only (n^(N-2), n^2) int array, one per ``(n, i, j, N)``.

    Slot i carries the first tensor leg of the block and slot j the second;
    for i > j this realizes the flip-conjugated convention on sorted slots.
    Basis index sum_k a_k n^(N-1-k) is the C-order flat index of the digit
    array (a_0, ..., a_{N-1}); moving axes i and j last gives row
    (other digits) and column a_i n + a_j. One block per row, the other
    slots' digits in lexicographic order, the first of them slowest.
    """
    index = np.arange(n ** N).reshape((n,) * N)
    blocks = np.moveaxis(index, (i, j), (-2, -1)).reshape(-1, n * n)
    blocks.flags.writeable = False
    return blocks


def lift_exact(r: TensorOp2, i, j, N):
    """Exact n^N x n^N matrix of R acting on tensor slots (i, j), 0-based:
    the dense form of ``_lift_sparse`` on the nonzero rows of R."""
    n = r.dim
    out = la.zeros(n ** N, n ** N)
    for a, row in _lift_sparse(r.rows, n, i, j, N).items():
        orow = out[a]
        for b, x in row.items():
            orow[b] = x
    return out


_LIFT_SLOTS = {12: (0, 1), 13: (0, 2), 23: (1, 2)}


def lift(r: TensorOp2, positions: int):
    """Place R on two of the three tensor slots, identity on the third: the
    dense n^3 x n^3 Fraction matrix ``lift_exact`` forms.

    ``positions`` is one of 12, 13, 23.
    """
    if positions not in _LIFT_SLOTS:
        raise ValueError("positions must be 12, 13 or 23")
    return lift_exact(r, *_LIFT_SLOTS[positions], 3)


def _lift_sparse(z, n, i, j, N):
    """Sparse rows ``{row: {col: entry}}`` on slots (i, j) of the n^2 x n^2
    matrix given by its sparse rows ``z`` (the form of ``TensorOp2.rows``)."""
    out = {}
    for idxs in _slot_blocks(n, i, j, N).tolist():
        for a, row in z.items():
            out[idxs[a]] = {idxs[b]: x for b, x in row.items()}
    return out


def _sparse_add(a, b):
    out = {r: dict(row) for r, row in a.items()}
    for r, row in b.items():
        acc = out.setdefault(r, {})
        for c, y in row.items():
            acc[c] = acc.get(c, 0) + y
    return out


def _row_times(row, m):
    """The sparse row ``{col: entry}`` times the sparse matrix ``m``, zeros dropped."""
    acc = {}
    for k, x in row.items():
        for c, y in m.get(k, {}).items():
            acc[c] = acc.get(c, 0) + x * y
    return {c: v for c, v in acc.items() if v}


def _products_equal(left, right, scale=1):
    """Whether the product of the sparse matrices ``left`` equals ``scale``
    times the product of ``right`` (both lists of two or more factors).

    Compared row by row, stopping at the first row that differs; no product
    matrix is stored.
    """
    for r in left[0].keys() | right[0].keys():
        a, b = left[0].get(r, {}), right[0].get(r, {})
        for m in left[1:]:
            a = _row_times(a, m)
        for m in right[1:]:
            b = _row_times(b, m)
        if scale != 1:
            b = {c: scale * x for c, x in b.items()}
        if a != b:
            return False
    return True


def _commute(a, b):
    return _products_equal([a, b], [b, a])


def flip_invariant(r: TensorOp2) -> bool:
    """Whether tau R tau = R, read off by index permutation:
    R[(i,j),(v,u)] = R[(j,i),(u,v)] for all i, j, u, v. The flip is an
    involution, so comparing every nonzero entry with its image decides it."""
    n, rows = r.dim, r.rows
    flip = [(a % n) * n + a // n for a in range(n * n)]
    return all(rows.get(flip[a], {}).get(flip[b]) == x
               for a, row in rows.items() for b, x in row.items())


def kz_bracket(r: TensorOp2) -> bool:
    """The ``kz_bracket`` law of ``check_laws``, [R12, R13 + R23] = 0,
    decided on the lifts of Z = D R alone: Long is not evaluated with it."""
    z12, z13, z23 = r.lifts
    return _commute(z12, _sparse_add(z13, z23))


def check_laws(r: TensorOp2, laws=None) -> dict:
    """Evaluate the requested laws exactly; returns {law: bool}.

    Laws: long, d_equation, qybe, hopf, kz_bracket, symmetric (``None``:
    all); an empty list or an unknown name is a ValueError. When the Long
    law holds the KZ bracket must hold as well (it is an algebraic
    consequence); a failure raises ``InternalCheckFailed``.

    The laws are decided on Z = D R (``TensorOp2.cleared``), D the lcm of
    the denominators, lifted onto slots 12, 13, 23 as sparse integer rows
    (``TensorOp2.lifts``).
    Long, d_equation, kz_bracket (quadratic) and qybe (cubic) are
    homogeneous, so they vanish on Z exactly when they vanish on R. Hopf,
    R23 R13 R12 = R12 R23, is not: with R = Z / D its sides are
    Z23 Z13 Z12 / D^3 and Z12 Z23 / D^2, so it holds iff
    Z23 Z13 Z12 = D Z12 Z23. Each side is compared row by row
    (``_products_equal``), so no n^3 x n^3 product is built or stored.
    Symmetry is an index permutation (``flip_invariant``).
    """
    wanted = set(LAWS) if laws is None else set(laws)
    if not wanted:
        raise ValueError("the law list names nothing; give at least one law")
    unknown = wanted - set(LAWS)
    if unknown:
        raise ValueError(f"unknown laws: {sorted(unknown)}; choose from {LAWS}")
    z12, z13, z23 = r.lifts
    report = {}
    need_long = bool({"long", "kz_bracket"} & wanted)
    long_ok = None
    if need_long or "d_equation" in wanted:
        eq2 = _commute(z12, z23)
        if "d_equation" in wanted:
            report["d_equation"] = eq2
    if need_long:
        long_ok = eq2 and _commute(z12, z13)
        if "long" in wanted:
            report["long"] = long_ok
    if "qybe" in wanted:
        report["qybe"] = _products_equal([z12, z13, z23], [z23, z13, z12])
    if "hopf" in wanted:
        report["hopf"] = _products_equal([z23, z13, z12], [z12, z23], r.cleared[1])
    if "kz_bracket" in wanted:
        kz = kz_bracket(r)
        if long_ok and not kz:
            raise InternalCheckFailed("Long holds but the KZ bracket does not")
        report["kz_bracket"] = kz
    if "symmetric" in wanted:
        report["symmetric"] = flip_invariant(r)
    return report


def _obstruction_vectors(table, n, key=None):
    """Yield ``((i, j, k, l), o)``, 0-based, for the obstruction vectors
    o(i,j,k,l) = sum_v T[c_iv][c_jk] c_vl - sum_a T[c_al][c_jk] c_ia of the
    form T = ``table`` (``_form``), c_ij at slot (i-1)n + (j-1),
    lexicographic in (i, j, k, l), in T's arithmetic. o is linear in column
    jk = (j-1)n + (k-1) of T; when ``key`` is given, the (i, j, k) with
    ``key(jk, column)`` false are skipped, and ``key`` is called in the
    order of the tuples, before their vectors are formed."""
    rng = range(n)
    cols = list(zip(*table))
    for i in rng:
        for j in rng:
            for k in rng:
                col = cols[j * n + k]
                if key is not None and not key(j * n + k, col):
                    continue
                for l in rng:
                    vec = [0] * (n * n)
                    for v in rng:
                        vec[v * n + l] += col[i * n + v]
                    for a in rng:
                        vec[i * n + a] -= col[a * n + l]
                    yield (i, j, k, l), vec


def _obstruction_rows(table, n, key=None):
    """Yield ``((i, j, k, l), row)``, 0-based, for the integer form ``table``:
    each obstruction vector divided by the gcd of its entries, first nonzero
    entry positive. Zero and repeated rows are dropped, so each row is
    tagged with its first (i, j, k, l). Lazy: an early stop forms no more.
    ``key`` is passed to ``_obstruction_vectors``."""
    seen = set()
    for tag, vec in _obstruction_vectors(table, n, key):
        g = math.gcd(*vec)
        if not g:
            continue
        if next(x for x in vec if x) < 0:
            g = -g
        row = tuple([x // g for x in vec])
        if row not in seen:
            seen.add(row)
            yield tag, row


def _form(matrix, n):
    """The n^2 x n^2 table T[c_iv][c_ju] = x[u,v,j,i] of an operator's
    matrix view, entries as given: an index permutation."""
    rng = range(n)
    return [[matrix[i * n + j][v * n + u] for j in rng for u in rng] for i in rng for v in rng]


def _pullback(vecs, table):
    """P[a][b] = sum_{s,t} vecs[a][s] table[s][t] vecs[b][t]: the form ``table``
    pulled back along ``vecs``, lists of nonzero ``(index, value)`` pairs."""
    # cols[b][s] = sum_t table[s][t] vecs[b][t]
    cols = [[sum([row[t] * x for t, x in terms]) for row in table] for terms in vecs]
    return [[sum([x * col[s] for s, x in terms]) for col in cols] for terms in vecs]


def _first_descent_failure(table, rows):
    """First place where the form ``table`` fails to vanish on a row, or None.

    ``rows`` is an iterable of ``(key, terms)`` with ``terms`` the nonzero
    ``(slot, coefficient)`` pairs of a comatrix vector o. Rows are taken in
    order, columns b in ascending order, and at each column equation 1,
    sigma(o (x) c_b), before equation 2, sigma(c_b (x) o). Returns
    ``(key, b, equation)``.
    """
    cols = list(zip(*table))
    for key, terms in rows:
        failure = _row_descent_failure(table, cols, terms)
        if failure is not None:
            return (key, *failure)
    return None


def _row_descent_failure(table, cols, terms):
    """``(b, equation)`` of ``_first_descent_failure`` for one row, or None;
    ``cols`` are the columns of ``table``."""
    for b, tb in enumerate(table):
        cb = cols[b]
        if sum([x * cb[a] for a, x in terms]):
            return b, 1
        if sum([x * tb[a] for a, x in terms]):
            return b, 2
    return None


def _descent_basis(table, n):
    """``(witness, basis)`` for the integer form ``table`` of an operator.

    One pass over the primitive obstruction rows (``_obstruction_rows``)
    decides the Long system and spans V. Each row is tested against the
    span of the rows kept so far (``linalg.Echelon``); a row in the span
    is skipped, and an independent row is checked for sigma_0-descent
    (``_row_descent_failure``) and, once it passes, joins the basis.

    Skipping a row that lies in the span of earlier rows finds the same
    first failure as checking every row: sigma_0(. (x) c_b) and
    sigma_0(c_b (x) .) are linear, so such a row passes when the earlier
    rows did. The first failing row is therefore independent of the rows
    before it, and its own check gives the same column and equation.

    The same linearity skips most rows unformed. o(i,j,k,l) is linear in
    column jk of ``table``, so when that column is a combination of the
    columns j'k' < jk, o(i,j,k,l) is the same combination of the earlier
    rows o(i,j',k',l). Each column is tested once, against the independent
    columns before it, when i = 0 first reaches it; at most n^2 rank(table)
    rows are formed.

    ``witness`` is ``long_witness``'s value. ``basis`` is None on a
    failure; otherwise it is the ``linalg.Echelon`` of V, whose
    ``int_rows()`` are the RREF of V as ``linalg.rref_int`` returns it (at
    most n^2 - 1 rows, since eps vanishes on V). No full elimination runs
    before the verdict.
    """
    column_span = la.Echelon(n * n)
    independent_cols = {}
    unadded = []  # an independent column joins the span when the next is tested

    def key(jk, col):
        if jk not in independent_cols:
            if unadded:
                column_span.add(unadded.pop())
            independent_cols[jk] = not column_span.spans(col)
            if independent_cols[jk]:
                unadded.append(col)
        return independent_cols[jk]

    cols = list(zip(*table))
    echelon = la.Echelon(n * n)
    for (i, j, k, l), row in _obstruction_rows(table, n, key):
        if echelon.spans(row):
            continue
        failure = _row_descent_failure(table, cols, [(a, x) for a, x in enumerate(row) if x])
        if failure is not None:
            b, eq = failure
            return (eq, (i + 1, j + 1, k + 1, l + 1, b // n + 1, b % n + 1)), None
        echelon.add(row)
    return None, echelon


def long_witness(r: TensorOp2):
    """First componentwise violation of the Long system, or None.

    Returns ``(equation_number, (i, j, k, l, p, q))`` with 1-based indices;
    equation 1 is the R12/R13 half, equation 2 the R12/R23 half. Tuples are
    visited in lexicographic order, equation 1 before equation 2.

    This is the first failure of sigma_0-descent (module docstring) over
    the primitive obstruction rows, column (p, q) by column; a row dropped
    as zero or repeated is a multiple of an earlier row, and one in the
    span of earlier rows is skipped (``_descent_basis``), since both passed
    with the rows they depend on. Both equations are homogeneous
    quadratics, so they are checked on Z = D x (``TensorOp2.int_form``),
    D the lcm of the denominators, which violates them at the same tuples.
    """
    return _descent_basis(r.int_form[0], r.dim)[0]


def make_diag(n, a) -> TensorOp2:
    """R(m_i (x) m_j) = a[i][j] m_i (x) m_j (a is n x n, 1-based in math)."""
    check_operator_dim(n)
    a = la.to_frac_matrix(a)
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError("a must be n x n")
    mat = la.zeros(n * n, n * n)
    for i in range(n):
        for j in range(n):
            mat[i * n + j][i * n + j] = a[i][j]
    return TensorOp2(n, mat)


def make_pair(f, g) -> TensorOp2:
    """R = f (x) g for commuting f, g; raises NonCommutingPair otherwise."""
    f = la.to_frac_matrix(f)
    g = la.to_frac_matrix(g)
    n = len(f)
    check_operator_dim(n)
    if len(g) != n:
        raise ValueError("f and g must have equal size")
    if not la.mat_eq(la.mat_mul(f, g), la.mat_mul(g, f)):
        raise NonCommutingPair("fg != gf")
    return TensorOp2(n, la.kron(f, g))


def make_conjugate(u, r: TensorOp2) -> TensorOp2:
    """(u (x) u) R (u (x) u)^{-1} for invertible u and Long R, with
    (u (x) u)^{-1} = u^{-1} (x) u^{-1}: only the n x n u is inverted."""
    u = la.to_frac_matrix(u)
    if len(u) != r.dim or any(len(row) != r.dim for row in u):
        raise ValueError("u must be n x n")
    try:
        u_inv = la.mat_inv(u)
    except ValueError as exc:
        raise SingularMatrix("u is not invertible") from exc
    witness = long_witness(r)
    if witness is not None:
        raise NotALongSolution("input is not a Long solution", witness)
    return TensorOp2(r.dim, la.mat_mul(la.kron(u, u), la.mat_mul(r.matrix, la.kron(u_inv, u_inv))))


def make_phi(n, phi) -> TensorOp2:
    """Symmetric solution attached to an idempotent map phi on {1..n}.

    ``phi`` is a length-n sequence of 1-based values. Coefficients:
    x[u,v,j,i] = [u==v][phi(i)==v][phi(j)==v].
    """
    check_operator_dim(n)
    phi = list(phi)
    if len(phi) != n or any(not 1 <= p <= n for p in phi):
        raise ValueError("phi must map {1..n} into itself")
    if any(phi[p - 1] != p for p in phi):
        raise NotIdempotent("phi o phi != phi")
    mat = la.zeros(n * n, n * n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            v = phi[i - 1]
            if phi[j - 1] == v:
                mat[(i - 1) * n + (j - 1)][(v - 1) * n + (v - 1)] = F1
    return TensorOp2(n, mat)


class GradedActionData:
    """A finite abelian group acting on M, with a compatible grading.

    ``elements`` are hashable labels, ``table`` maps (g, h) -> gh,
    ``actions`` maps each element to an invertible n x n matrix (columns
    convention: (g . m_v) = sum_i actions[g][i][v] m_i), and ``degrees``
    assigns a group element to each basis vector, so n = len(degrees);
    n^3 above ``max_dim()`` is refused first, so ``make_graded`` never
    builds such an operator.
    """

    def __init__(self, elements, table, actions, degrees):
        self.degrees = list(degrees)
        self.n = len(self.degrees)
        check_operator_dim(self.n)
        self.elements = list(elements)
        self.table = dict(table)
        self.actions = {g: la.to_frac_matrix(m) for g, m in actions.items()}
        self._validate()

    def _validate(self):
        elems = self.elements
        if set(self.actions) != set(elems):
            raise ValueError("one action matrix per group element required")
        for g, m in self.actions.items():
            if len(m) != self.n or any(len(row) != self.n for row in m):
                raise ValueError(f"action {g!r} must be {self.n} x {self.n}, n = len(degrees)")
        if not self.degrees or any(d not in elems for d in self.degrees):
            raise ValueError("degrees must be a nonempty list of group elements")
        # identity element
        ident = next(
            (e for e in elems if all(self.table[(e, g)] == g == self.table[(g, e)] for g in elems)),
            None,
        )
        if ident is None:
            raise ValueError("group table has no identity")
        self.identity = ident
        if not la.mat_eq(self.actions[ident], la.identity(self.n)):
            raise ValueError("identity element must act as the identity matrix")
        for g in elems:
            for h in elems:
                gh = self.table[(g, h)]
                if not la.mat_eq(
                    la.mat_mul(self.actions[g], self.actions[h]), self.actions[gh]
                ):
                    raise ValueError(f"actions violate the group law at ({g}, {h})")
        # every homogeneous component must be stable under every action
        for g in elems:
            m = self.actions[g]
            for i in range(self.n):
                for v in range(self.n):
                    if m[i][v] and self.degrees[i] != self.degrees[v]:
                        raise NotASubmodule(
                            f"action of {g!r} mixes degrees {self.degrees[v]!r} "
                            f"and {self.degrees[i]!r}"
                        )


def make_graded(data: GradedActionData) -> TensorOp2:
    """R(n (x) m) = sum_s (s . n) (x) m_s over homogeneous components of m.

    On basis vectors: R(m_v (x) m_u) = (degree(m_u) . m_v) (x) m_u.
    """
    n = data.n
    mat = la.zeros(n * n, n * n)
    for u in range(n):
        act = data.actions[data.degrees[u]]
        for v in range(n):
            for i in range(n):
                if act[i][v]:
                    mat[i * n + u][v * n + u] = act[i][v]
    return TensorOp2(n, mat)


def make_homothety(rep, element) -> TensorOp2:
    """Homothety by a two-tensor over a matrix algebra.

    ``rep`` is a list of n x n matrices generating the acting algebra;
    ``element`` is a list of ``(coeff, left_index, right_index)`` triples
    describing sum coeff * rep[left] (x) rep[right]. The left legs must
    commute with every generator a (checked exactly). Over the terms
    coeff * L (x) R of the sum S, sum coeff (L a - a L) (x) R is
    S (a (x) I) - (a (x) I) S, so the check is one commutator per generator.
    A term that is not a 3-item list or tuple, a coefficient that
    ``scalars.parse_frac`` refuses, an index that is not an int in
    0..len(rep) - 1 and a matrix that is not n x n, n >= 1 the rows of
    rep[0], are ValueErrors.
    """
    element = list(element)
    if any(not isinstance(t, (list, tuple)) or len(t) != 3 for t in element):
        raise ValueError("element terms must be [coeff, left index, right index] lists")
    element = [(parse_frac(coeff), li, ri) for coeff, li, ri in element]
    rep = [la.to_frac_matrix(m) for m in rep]
    n = len(rep[0]) if rep else 0
    if not n or any(len(m) != n or any(len(row) != n for row in m) for m in rep):
        raise ValueError("rep must be a nonempty list of n x n matrices, n >= 1 the rows of rep[0]")
    check_operator_dim(n)
    acc = la.zeros(n * n, n * n)
    for coeff, li, ri in element:
        left, right = (rep[_spec_index(x, len(rep), "element index")] for x in (li, ri))
        acc = la.mat_add(acc, la.mat_scale(la.kron(left, right), coeff))
    eye = la.identity(n)
    for idx, a in enumerate(rep):
        a1 = la.kron(a, eye)
        if not la.mat_eq(la.mat_mul(acc, a1), la.mat_mul(a1, acc)):
            raise CentralityViolated(f"left legs do not commute with rep[{idx}]")
    return TensorOp2(n, acc)


def invert(r: TensorOp2) -> TensorOp2:
    """Inverse in the same convention; raises SingularOperator when rank-deficient."""
    try:
        return TensorOp2(r.dim, la.mat_inv(r.matrix))
    except ValueError as exc:
        raise SingularOperator("operator matrix is singular") from exc


def idempotent_maps(n):
    """All idempotent maps on {1..n} as 1-based tuples, lexicographic."""
    out = []

    def rec(prefix):
        if len(prefix) == n:
            if all(prefix[p - 1] == p for p in prefix):
                out.append(tuple(prefix))
            return
        for v in range(1, n + 1):
            rec(prefix + [v])

    rec([])
    return out
