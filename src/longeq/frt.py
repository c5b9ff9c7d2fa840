"""The L(R) construction: relation span, quotient coalgebra, sigma-form.

A degree-1 element of the tensor algebra on the comatrix coalgebra is a
length-n^2 coordinate vector over the basis {c_ij}, with c_ij at slot
(i-1)n + (j-1). The relation span V is the row space of the n^4
obstruction vectors o(i,j,k,l). For every operator V is a coideal, and
sigma_0 descends to it exactly when R is Long (``tensor_ops`` module
docstring). So the free algebra on the quotient coalgebra C/V carries the
induced bialgebra structure, the sigma-form on generator cosets is forced
to the coefficient family of R, the counit and Delta guards of
``QuotientCoalgebra`` never fire on an obstruction span, and
``SigmaIllDefined`` on an obstruction span means "not Long".

``tensor_ops._descent_basis`` decides Long and yields the RREF basis of V
in one pass, so ``build_LR`` rejects a non-Long input before any full
elimination. ``SigmaForm`` runs the same descent test
(``tensor_ops._first_descent_failure``) again on the RREF basis, as a
guard.

Every step of ``build_LR`` after the Long check runs on Python ints; a
Fraction is formed only for a value that leaves the build (the RREF rows,
coset coordinates, Delta and sigma on cosets). Two scalings clear the
denominators:

* D, the lcm of the denominators of the coefficients x of R, and Z = D x.
  The obstruction vectors are linear in x, so those of Z are D times those
  of x and span the same V. The form sigma_0 built from Z is D sigma_0.
* L, the lcm of the pivot entries d_p of the primitive integer RREF rows
  of V (``linalg.rref_int``). A row reads d_p c_p + sum_t row_t c_t with t
  over representative slots only, because an RREF row is zero at every
  other pivot. Modulo V, then, pi(c_p) = -sum_t (row_t / d_p) c_t, so
  L pi(c_p) = -sum_t (L / d_p) row_t c_t has integer coordinates, and
  L pi(c_t) = L c_t for a representative. These are ``int_cosets``.

Each check is a zero test of an expression that is linear in each scaled
argument, and a nonzero multiple of a vector is zero exactly when the
vector is. So every verdict, and every first failure, is the one over Q:
the counit is tested on integer RREF rows, Delta descent at scale L^2
(pi (x) pi) and sigma descent at D (on integer rows). The coset table,
formed when read, is L^2 D times sigma on projected labels, by
``tensor_ops._pullback``, as ``strong_dmap_rsigma`` forms R_sigma. L1 on
C/V is read from ``bialgebra._l1_rows``, its one encoding.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from . import bialgebra
from . import linalg as la
from .bialgebra import Coalgebra, GeneratorBialgebra, generator_sigma_words
from .errors import InternalCheckFailed, NotALongSolution, SigmaIllDefined
from .linalg import F0, F1
from .scalars import frac_str
from .tensor_ops import (
    TensorOp2,
    _descent_basis,
    _first_descent_failure,
    _form,
    _obstruction_vectors,
    _pullback,
    invert,
)


def cm_index(i, j, n):
    """Slot of c_ij (1-based i, j) in a comatrix coordinate vector."""
    return (i - 1) * n + (j - 1)


def cm_label(slot, n):
    return (slot // n + 1, slot % n + 1)


def comatrix_eps(vec, n):
    """Counit on a comatrix element: sum of the diagonal coordinates."""
    return sum(vec[cm_index(i, i, n)] for i in range(1, n + 1))


def obstructions(r: TensorOp2):
    """The n^4 relation vectors o(i,j,k,l) (``tensor_ops`` module docstring),
    lexicographic in (i,j,k,l), formed on Z = D x (``TensorOp2.int_form``)
    and divided by D."""
    table, d = r.int_form
    return [[Fraction(x, d) if x else F0 for x in vec]
            for _, vec in _obstruction_vectors(table, r.dim)]


class QuotientCoalgebra:
    """The comatrix coalgebra of order n modulo a relation span V.

    V is stored in reduced row echelon form; coset representatives are the
    basis labels c_ij at the non-pivot columns, in lexicographic order.
    ``relation_rows`` may hold ints or Fractions. The checks run on the
    primitive integer RREF rows ``int_rows`` and on ``int_cosets``, the
    coset of every label scaled by ``coset_scale`` = L (module docstring),
    the one stored form of pi; ``rows``, ``basis_coset`` and
    ``delta_on_coset`` are the exact values.
    """

    def __init__(self, n, relation_rows):
        self.n = n
        int_rows, self.pivots = la.rref_int(relation_rows)
        for row in int_rows:
            if comatrix_eps(row, n):
                raise InternalCheckFailed("counit does not vanish on the relation span")
        self.rows = la.rref_from_int(int_rows, self.pivots)
        self.int_rows = la.sparse_rref(int_rows, self.pivots)
        rep_index = {}
        for s in range(n * n):
            if s not in self.pivots:
                rep_index[s] = len(rep_index)
        self.rep_slots = list(rep_index)
        self.rep_labels = [cm_label(s, n) for s in self.rep_slots]
        scale = self.coset_scale = math.lcm(*(row[p] for row, p in zip(int_rows, self.pivots)))
        # L pi(c_s) as (representative index, int) pairs, by slot
        cosets = [[(rep_index[s], scale)] if s in rep_index else None for s in range(n * n)]
        for row, p in zip(int_rows, self.pivots):
            f = scale // row[p]
            cosets[p] = [(rep_index[c], -f * x) for c, x in enumerate(row) if x and c != p]
        self.int_cosets = cosets
        self._check_delta_descends()

    @property
    def num_generators(self):
        return len(self.rep_slots)

    def basis_coset(self, i, j):
        """Coset coordinates of the basis label c_ij."""
        out = [F0] * self.num_generators
        for t, x in self.int_cosets[cm_index(i, j, self.n)]:
            out[t] = Fraction(x, self.coset_scale)
        return out

    def _add_delta(self, acc, coeff, slot):
        """acc[(s, t)] += coeff * L^2 ((pi (x) pi) Delta(c_slot))[s][t], on ints."""
        n, cosets = self.n, self.int_cosets
        i, j = divmod(slot, n)
        for u in range(n):
            right = cosets[u * n + j]
            for s, xl in cosets[i * n + u]:
                f = coeff * xl
                for t, xr in right:
                    acc[(s, t)] = acc.get((s, t), 0) + f * xr

    def delta_on_coset(self, i, j):
        """(pi (x) pi) Delta(c_ij) as an m x m matrix over representatives."""
        acc = {}
        self._add_delta(acc, 1, cm_index(i, j, self.n))
        scale = self.coset_scale ** 2
        out = la.zeros(self.num_generators, self.num_generators)
        for (s, t), x in acc.items():
            if x:
                out[s][t] = Fraction(x, scale)
        return out

    def _check_delta_descends(self):
        # (pi (x) pi) Delta must kill V; verified on the integer RREF basis of V
        for _, terms in self.int_rows:
            acc = {}
            for slot, x in terms:
                self._add_delta(acc, x, slot)
            if any(acc.values()):
                raise InternalCheckFailed("comultiplication does not descend to C/V")


class SigmaForm:
    """The bilinear form sigma_0(c_iv (x) c_ju) = x[u,v,j,i] and its coset form.

    ``int_table`` is D sigma_0, the form of Z (``TensorOp2.int_form``); the
    constructor checks descent on it and the integer RREF rows, and
    ``table``, sigma_0 as Fractions, is formed from it on first read, and
    ``coset_table`` on first read too (by ``round_trip``).
    """

    def __init__(self, r: TensorOp2, quotient: QuotientCoalgebra):
        self.n = r.dim
        self.int_table, self.scale = r.int_form
        self.quotient = quotient
        self._check_descends()

    @cached_property
    def table(self):
        """sigma_0 as Fractions: ``int_table`` over D."""
        return [[Fraction(x, self.scale) if x else F0 for x in row] for row in self.int_table]

    @cached_property
    def coset_table(self):
        """sigma(pi c_a (x) pi c_b) by comatrix slots a, b, as Fractions: the
        ``_pullback`` of ``int_table`` on the representatives along
        ``int_cosets``, over L^2 D."""
        q, t = self.quotient, self.int_table
        reps, scale = q.rep_slots, q.coset_scale ** 2 * self.scale
        table = _pullback(q.int_cosets, [[t[a][b] for b in reps] for a in reps])
        return [[Fraction(x, scale) if x else F0 for x in row] for row in table]

    def _check_descends(self):
        failure = _first_descent_failure(self.int_table, self.quotient.int_rows)
        if failure is not None:
            side = "V (x) C" if failure[2] == 1 else "C (x) V"
            raise SigmaIllDefined(f"sigma does not vanish on {side}")


class LongPresentation:
    """Presentation of L(R): generators, Delta, counit and sigma on cosets."""

    def __init__(self, r, quotient, sigma, naming=MappingProxyType({})):
        self.r = r
        self.quotient = quotient
        self.sigma = sigma
        self.delta = [quotient.delta_on_coset(i, j) for (i, j) in quotient.rep_labels]
        self.eps = [F1 if i == j else F0 for (i, j) in quotient.rep_labels]
        reps, t = quotient.rep_slots, sigma.int_table
        self.sigma_gen = [[Fraction(t[a][b], sigma.scale) for b in reps] for a in reps]
        self.names = [f"c_{i}_{j}" for (i, j) in quotient.rep_labels]
        if naming != {}:  # the empty mapping renames nothing
            self._apply_naming(naming)
        self.naming = dict(naming)
        self._word_memo = {}

    @cached_property
    def generator_bialgebra(self):
        """The generators as a free bialgebra on generator indices, for the
        word extension of sigma; formed on first use."""
        return GeneratorBialgebra(
            list(range(self.num_generators)),
            {t: [(x, (s,), (u,)) for s, row in enumerate(dt) for u, x in enumerate(row) if x]
             for t, dt in enumerate(self.delta)},
            dict(enumerate(self.eps)),
        )

    @cached_property
    def coalgebra(self):
        """C/V as a ``Coalgebra`` on the generators, from ``delta`` and
        ``eps``; formed on first use."""
        return Coalgebra(self.names, self.delta, self.eps)

    @cached_property
    def _sigma_pairs(self):
        """``sigma_gen`` as a map from generator index pairs; formed on first use."""
        return {(s, u): x for s, row in enumerate(self.sigma_gen) for u, x in enumerate(row)}

    def _apply_naming(self, naming):
        """Rename generators. ``naming`` maps canonical labels ``c_i_j``,
        1 <= i, j <= n, to strings; a key whose coset is exactly one
        representative (coefficient 1) renames that representative. Each
        generator is renamed at most once, and the names, new and canonical,
        stay distinct. Anything else is a ValueError, ``None`` (a naming file
        that holds null) included; the default mapping renames nothing."""
        if not isinstance(naming, Mapping):
            raise ValueError("naming must be a JSON object mapping c_i_j to names")
        n = self.quotient.n
        labels = {f"c_{i}_{j}": (i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
        renamed = {}
        for key, new in naming.items():
            if key not in labels:
                raise ValueError(f"bad naming key {key!r}; expected c_i_j with 1 <= i, j <= {n}")
            if not isinstance(new, str):
                raise ValueError(f"naming value for {key!r} must be a string")
            coords = self.quotient.basis_coset(*labels[key])
            hits = [t for t, x in enumerate(coords) if x]
            if len(hits) != 1 or coords[hits[0]] != 1:
                raise ValueError(
                    f"naming key {key!r} does not reduce to a single representative"
                )
            if hits[0] in renamed:
                raise ValueError(
                    f"naming keys {renamed[hits[0]]!r} and {key!r} rename the same generator")
            renamed[hits[0]] = key
            self.names[hits[0]] = new
        for t, name in enumerate(self.names):
            if name in self.names[:t]:
                raise ValueError(f"naming gives two generators the name {name!r}")

    @property
    def num_generators(self):
        return self.quotient.num_generators


def build_LR(r: TensorOp2, naming=MappingProxyType({})) -> LongPresentation:
    """Construct the presentation of L(R) for a Long solution R.

    ``tensor_ops._descent_basis`` decides Long, raising
    ``NotALongSolution`` with ``long_witness``'s witness, and yields the
    RREF basis of V. ``QuotientCoalgebra`` and
    ``SigmaForm`` then check, on one integer form of Z = D x, that the
    counit vanishes on V and that Delta and sigma_0 descend. The build
    checks no more, because the round trip and degree-one L1 follow:

    * a - pi a and b - pi b lie in V for labels a, b, and sigma_0 vanishes
      on V (x) C and C (x) V, so sigma_0(pi a (x) pi b) = sigma_0(a (x) b):
      the coset table is sigma_0, and ``round_trip`` gives back R;
    * so the L1 difference at (i,j,p,q) is
      sum_v x[q,v,p,i] c_vj - sum_a x[q,j,p,a] c_ia = o(i,p,q,j), which
      lies in V and projects to zero (``check_L1_on_generators``).
    """
    witness, basis = _descent_basis(r.int_form[0], r.dim)
    if witness is not None:
        raise NotALongSolution(
            f"componentwise equation {witness[0]} fails at {witness[1]}", witness
        )
    quotient = QuotientCoalgebra(r.dim, basis.int_rows())
    return LongPresentation(r, quotient, SigmaForm(r, quotient), naming)


def round_trip(pres: LongPresentation) -> TensorOp2:
    """Recover the operator from the coset sigma-form.

    R(m_v (x) m_u) = sum_{i,j} sigma(coset c_iv (x) coset c_ju) m_i (x) m_j:
    the matrix view is ``_form`` of the coset table, since ``_form`` (which
    swaps the second and third index) is its own inverse.
    """
    return TensorOp2(pres.quotient.n, _form(pres.sigma.coset_table, pres.quotient.n))


def sigma_extend(pres: LongPresentation, w1, w2, left_first=False) -> Fraction:
    """sigma on a pair of generator words (indices into the generator list).

    The right word is split first unless ``left_first``; words are capped at
    ``bialgebra.WORD_CAP``. See ``bialgebra.generator_sigma_words``. A letter
    that is not an int in 0..num_generators - 1 is a ValueError naming its word.
    """
    w1, w2, m = tuple(w1), tuple(w2), pres.num_generators
    for w in (w1, w2):
        if any(isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < m for x in w):
            raise ValueError(f"word {w!r} has a letter that is not a generator "
                             f"index in 0..{m - 1}")
    return generator_sigma_words(pres.generator_bialgebra, pres._sigma_pairs, w1, w2,
                                 left_first, pres._word_memo)


def check_L1_on_generators(pres: LongPresentation):
    """Strong D-identity on every pair of generators x, y of C/V:
    sum sigma(x_1 (x) y) x_2 = sum sigma(x_2 (x) y) x_1, the
    ``bialgebra._l1_equations`` of ``pres.coalgebra`` at ``sigma_gen``.
    Returns ``(ok, witness)``, on failure the first violating generator
    pair named by its representative labels (i, j, p, q). L1 is linear and
    the representative cosets are a basis of C/V, so this is L1 on every
    pair of label cosets, and the witness is a violating label pair.
    """
    q = pres.quotient
    where = bialgebra._first_violation(bialgebra._l1_equations(pres.coalgebra, 1),
                                       pres.sigma_gen)
    if where is None:
        return True, None
    return False, (*q.rep_labels[where[0]], *q.rep_labels[where[1]])


def _module_index(l, n):
    """Refuse, with a ValueError naming ``l``, a 1-based index of m_l that is
    not an int in 1..n (a bool included)."""
    if isinstance(l, bool) or not isinstance(l, int) or not 1 <= l <= n:
        raise ValueError(f"'l' must be an int in 1..{n}, got {l!r}")


def _sigma_column(pres: LongPresentation, word):
    """sigma(e_p (x) h) for each generator e_p; ``sigma_extend`` checks the word h."""
    word = tuple(word)
    return [sigma_extend(pres, (p,), word) for p in range(pres.num_generators)]


def dimodule_action(pres: LongPresentation, word, l):
    """Left action of a generator word on the basis vector m_l.

    h . m_l = sum_v sigma(coset c_vl (x) h) m_v; returns the length-n vector.
    """
    q = pres.quotient
    n = q.n
    _module_index(l, n)
    s = _sigma_column(pres, word)
    return [sum([x * s[t] for t, x in q.int_cosets[v * n + l - 1]], F0) / q.coset_scale
            for v in range(n)]


def dimodule_compatible(pres: LongPresentation, word, l) -> bool:
    """Compatibility of action and coaction on (word h, m_l), checked exactly.

    With rho(m_l) = sum_v m_v (x) pi(c_vl) and s[a] = sigma(pi c_a (x) h),
    the two sides in M (x) C/V are rho(h . m_l) = sum_w m_w (x)
    sum_v s[vl] pi(c_wv) and sum_w m_w (x) sum_v s[wv] pi(c_vl). Their
    difference at m_w is L1's at (pi c_wl, h), as Delta c_wl =
    sum_v c_wv (x) c_vl: compatibility is L1 on C/V. It is linear in
    pi c_wl, a sum of generators e_t, each read by ``bialgebra._l1_rows``.
    """
    q = pres.quotient
    n = q.n
    _module_index(l, n)
    s = _sigma_column(pres, word)
    # L1's difference at (e_t, h) by t, as its nonzero (r, e_r coefficient) pairs
    diffs = [[(r, val) for r, pairs in rows if (val := sum([x * s[p] for p, x in pairs]))]
             for rows in bialgebra._l1_rows(pres.coalgebra)]
    for w in range(n):
        acc = [F0] * q.num_generators
        for t, x in q.int_cosets[w * n + l - 1]:
            for r, val in diffs[t]:
                acc[r] += x * val
        if any(acc):
            return False
    return True


def convolution_inverse(pres: LongPresentation):
    """Convolution inverse of sigma on generator cosets, from R^{-1}, R = ``pres.r``.

    Returns the n^2 x n^2 table sigma'(c_iv (x) c_ju) = y[u,v,j,i] where
    y are the coefficients of R^{-1}; the convolution identity against
    sigma is verified on all generator pairs.

    With sigma(c_ip (x) c_jq) = R[(i,j),(p,q)] and
    sigma'(c_pv (x) c_qu) = R^{-1}[(p,q),(v,u)], the convolution
    sum_{p,q} sigma(c_ip (x) c_jq) sigma'(c_pv (x) c_qu) at (i,v,j,u) is
    (R R^{-1})[(i,j),(v,u)], and the opposite one is (R^{-1} R)[(i,j),(v,u)];
    both must be the identity.
    """
    r = pres.r
    n = r.dim
    inv = invert(r)  # raises SingularOperator
    try:
        # sigma' must also vanish on V, else it does not descend to L(R)
        table = SigmaForm(inv, pres.quotient).table
    except SigmaIllDefined as exc:
        raise InternalCheckFailed("convolution inverse does not descend") from exc
    conv = la.mat_mul(r.matrix, inv.matrix)
    vonc = la.mat_mul(inv.matrix, r.matrix)
    for i, v, j, u in itertools.product(range(n), repeat=4):
        row, col = i * n + j, v * n + u
        expected = F1 if row == col else F0
        if conv[row][col] != expected or vonc[row][col] != expected:
            raise InternalCheckFailed(
                f"convolution identity fails at ({i + 1},{v + 1},{j + 1},{u + 1})")
    return table


def _signed_sum(terms):
    """``a - 2*b + c``-style rendering of nonzero ``(coefficient, label)``
    pairs; a unit coefficient is left out. ``terms`` is never empty: a
    relation row is nonzero, and so, by the counit law, is Delta of a
    nonzero coset."""
    parts = [("+ " if x > 0 else "- ")
             + (label if abs(x) == 1 else f"{frac_str(abs(x))}*{label}")
             for x, label in terms]
    body = " ".join(parts)
    return body[2:] if parts[0][0] == "+" else "-" + body[2:]


def presentation_text(pres: LongPresentation) -> str:
    """Human-readable, deterministic rendering of the presentation."""
    q = pres.quotient
    n = q.n
    lines = [f"dim {n}"]
    lines.append("relations:")
    if not q.rows:
        lines.append("  (none)")
    for row in q.rows:
        terms = [(x, "c_{}_{}".format(*cm_label(slot, n))) for slot, x in enumerate(row) if x]
        lines.append(f"  {_signed_sum(terms)} = 0")
    lines.append("generators: " + ", ".join(
        f"{name} (c_{i}_{j})" for name, (i, j) in zip(pres.names, q.rep_labels)
    ))
    m = pres.num_generators
    for t, name in enumerate(pres.names):
        terms = [(pres.delta[t][s][u], f"{pres.names[s]} (x) {pres.names[u]}")
                 for s in range(m) for u in range(m) if pres.delta[t][s][u]]
        lines.append(f"Delta({name}) = {_signed_sum(terms)}")
    for t, name in enumerate(pres.names):
        lines.append(f"eps({name}) = {frac_str(pres.eps[t])}")
    lines.append("sigma:")
    for s, ns in enumerate(pres.names):
        for u, nu in enumerate(pres.names):
            lines.append(f"  sigma({ns} (x) {nu}) = {frac_str(pres.sigma_gen[s][u])}")
    return "\n".join(lines) + "\n"
