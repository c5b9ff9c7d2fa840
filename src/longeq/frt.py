"""The L(R) construction: relation span, quotient coalgebra, sigma-form.

A degree-1 element of the tensor algebra on the comatrix coalgebra is a
length-n^2 coordinate vector over the basis {c_ij}, with c_ij at slot
(i-1)n + (j-1). The relation span V is the row space of the n^4
obstruction vectors; since V is a coideal, the free algebra on the
quotient coalgebra C/V carries the induced bialgebra structure, and the
sigma-form on generator cosets is forced to the coefficient family of R.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg as la
from .bialgebra import GeneratorBialgebra, generator_sigma_words
from .errors import InternalCheckFailed, NotALongSolution, SigmaIllDefined
from .linalg import F0, F1
from .scalars import frac_str
from .tensor_ops import TensorOp2, invert, long_witness

DEFAULT_WORD_CAP = 6


def cm_index(i, j, n):
    """Slot of c_ij (1-based i, j) in a comatrix coordinate vector."""
    return (i - 1) * n + (j - 1)


def cm_label(slot, n):
    return (slot // n + 1, slot % n + 1)


def comatrix_eps(vec, n):
    """Counit on a comatrix element: sum of the diagonal coordinates."""
    return sum((vec[cm_index(i, i, n)] for i in range(1, n + 1)), F0)


def comatrix_delta(vec, n):
    """Comultiplication of a comatrix element as an n^2 x n^2 coefficient
    matrix over the basis {c_pq (x) c_rs} (left index rows)."""
    out = la.zeros(n * n, n * n)
    for slot, x in enumerate(vec):
        if not x:
            continue
        j, k = cm_label(slot, n)
        for u in range(1, n + 1):
            out[cm_index(j, u, n)][cm_index(u, k, n)] += x
    return out


def obstructions(r: TensorOp2):
    """The n^4 relation vectors o(i,j,k,l), lexicographic in (i,j,k,l).

    o(i,j,k,l) = sum_v x[k,v,j,i] c_vl - sum_a x[k,l,j,a] c_ia. Defined for
    any operator; each has counit value zero by cancellation.
    """
    n = r.dim
    x = r.coeff
    out = []
    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    vec = [F0] * (n * n)
                    for v in rng:
                        vec[cm_index(v, l, n)] += x(k, v, j, i)
                    for a in rng:
                        vec[cm_index(i, a, n)] -= x(k, l, j, a)
                    out.append(vec)
    return out


class QuotientCoalgebra:
    """The comatrix coalgebra of order n modulo a relation span V.

    V is stored in reduced row echelon form; coset representatives are the
    basis labels c_ij at the non-pivot columns, in lexicographic order.
    """

    def __init__(self, n, relation_rows):
        self.n = n
        self.rows, self.pivots = la.rref(relation_rows)
        for row in self.rows:
            if comatrix_eps(row, n):
                raise InternalCheckFailed("counit does not vanish on the relation span")
        pivot_set = set(self.pivots)
        self.rep_slots = [s for s in range(n * n) if s not in pivot_set]
        self.rep_labels = [cm_label(s, n) for s in self.rep_slots]
        self.sparse_rows = la.sparse_rref(self.rows, self.pivots)
        self._label_terms = {}
        self._check_delta_descends()

    @property
    def num_generators(self):
        return len(self.rep_slots)

    def project(self, vec):
        """Reduce a comatrix vector modulo V; pivot coordinates become zero."""
        return la.reduce_mod(vec, self.sparse_rows)

    def project_label(self, i, j):
        """``project`` of the unit vector of c_ij."""
        vec = [F0] * (self.n * self.n)
        vec[cm_index(i, j, self.n)] = F1
        return self.project(vec)

    def basis_coset(self, i, j):
        """Coset coordinates of the basis label c_ij."""
        out = [F0] * self.num_generators
        for t, x in self.coset_terms(i, j):
            out[t] = x
        return out

    def coset_terms(self, i, j):
        """The coset of c_ij as nonzero ``(representative index, coefficient)``
        pairs, projected once per label (do not mutate)."""
        terms = self._label_terms.get((i, j))
        if terms is None:
            red = self.project_label(i, j)
            terms = self._label_terms[(i, j)] = [
                (t, red[s]) for t, s in enumerate(self.rep_slots) if red[s]
            ]
        return terms

    def _add_delta(self, acc, coeff, i, j):
        """acc[(s, t)] += coeff * ((pi (x) pi) Delta(c_ij))[s][t]."""
        for u in range(1, self.n + 1):
            right = self.coset_terms(u, j)
            for s, xl in self.coset_terms(i, u):
                f = coeff * xl
                for t, xr in right:
                    acc[(s, t)] = acc.get((s, t), F0) + f * xr

    def delta_on_coset(self, i, j):
        """(pi (x) pi) Delta(c_ij) as an m x m matrix over representatives."""
        acc = {}
        self._add_delta(acc, F1, i, j)
        out = la.zeros(self.num_generators, self.num_generators)
        for (s, t), x in acc.items():
            out[s][t] = x
        return out

    def _check_delta_descends(self):
        # (pi (x) pi) Delta must kill V; verified on the RREF basis of V.
        for _, terms in self.sparse_rows:
            acc = {}
            for slot, x in terms:
                self._add_delta(acc, x, *cm_label(slot, self.n))
            if any(acc.values()):
                raise InternalCheckFailed("comultiplication does not descend to C/V")


class SigmaForm:
    """The bilinear form sigma_0(c_iv (x) c_ju) = x[u,v,j,i] and its coset form.

    ``coset_table`` holds sigma on the projections of every label pair, once
    per form; ``on_cosets``, ``round_trip`` and ``check_L1_on_generators``
    read it.
    """

    def __init__(self, r: TensorOp2, quotient: QuotientCoalgebra):
        n = r.dim
        self.n = n
        table = la.zeros(n * n, n * n)
        for i in range(1, n + 1):
            for v in range(1, n + 1):
                for j in range(1, n + 1):
                    for u in range(1, n + 1):
                        table[cm_index(i, v, n)][cm_index(j, u, n)] = r.coeff(u, v, j, i)
        self.table = table
        self.quotient = quotient
        self._check_descends()
        reps = quotient.rep_slots
        self.rep_table = [[table[a][b] for b in reps] for a in reps]
        self.coset_table = coset_table(table, quotient)

    def _check_descends(self):
        table = self.table
        for _, terms in self.quotient.sparse_rows:
            for b, tb in enumerate(table):
                if sum([x * table[a][b] for a, x in terms]):
                    raise SigmaIllDefined("sigma does not vanish on V (x) C")
                if sum([tb[a] * x for a, x in terms]):
                    raise SigmaIllDefined("sigma does not vanish on C (x) V")

    def on_vectors(self, va, vb):
        """sigma of two comatrix coordinate vectors."""
        return _bilinear(self.table, va, vb)

    def on_cosets(self, i, v, j, u):
        """sigma(coset of c_iv (x) coset of c_ju), read from ``coset_table``."""
        n = self.n
        return self.coset_table[cm_index(i, v, n)][cm_index(j, u, n)]


def _bilinear(table, va, vb):
    """va^T table vb over the nonzero coordinates."""
    acc = F0
    for a, xa in enumerate(va):
        if xa:
            ta = table[a]
            for b, xb in enumerate(vb):
                if xb:
                    acc += xa * ta[b] * xb
    return acc


def coset_table(table, quotient):
    """The form ``table`` on projected labels: P[a][b] = sigma(pi c_a (x) pi c_b).

    Indexed by comatrix slots a = (i-1)n + (v-1), b = (j-1)n + (u-1); this is
    Pi^T T Pi with Pi the projections, summed over their nonzeros.
    """
    n = quotient.n
    reps = quotient.rep_slots
    terms = [quotient.coset_terms(*cm_label(a, n)) for a in range(n * n)]
    # right[s][b] = sum_t T[rep s][rep t] * (pi c_b)[t]
    right = [[sum([table[ra][reps[t]] * x for t, x in terms[b]], F0) for b in range(n * n)]
             for ra in reps]
    return [[sum([x * right[s][b] for s, x in terms[a]], F0) for b in range(n * n)]
            for a in range(n * n)]


class LongPresentation:
    """Presentation of L(R): generators, Delta, counit and sigma on cosets."""

    def __init__(self, r, quotient, sigma, naming=None):
        self.r = r
        self.quotient = quotient
        self.sigma = sigma
        m = quotient.num_generators
        self.delta = [quotient.delta_on_coset(i, j) for (i, j) in quotient.rep_labels]
        self.eps = [F1 if i == j else F0 for (i, j) in quotient.rep_labels]
        self.sigma_gen = [row[:] for row in sigma.rep_table]
        self.names = [f"c_{i}_{j}" for (i, j) in quotient.rep_labels]
        self.naming = dict(naming or {})
        if naming:
            self._apply_naming(naming)
        # the generators as a free bialgebra on generator indices, for the
        # word extension of sigma
        self.generator_bialgebra = GeneratorBialgebra(
            list(range(m)),
            {t: [(x, (s,), (u,)) for s, row in enumerate(dt) for u, x in enumerate(row) if x]
             for t, dt in enumerate(self.delta)},
            dict(enumerate(self.eps)),
        )
        self._sigma_pairs = {
            (s, u): x for s, row in enumerate(self.sigma_gen) for u, x in enumerate(row)
        }
        self._word_memo = {}

    def _apply_naming(self, naming):
        """Rename generators. Keys are canonical labels ``c_i_j``; a key whose
        coset is exactly one representative (coefficient 1) renames that
        representative."""
        for key, new in naming.items():
            parts = key.split("_")
            if len(parts) != 3 or parts[0] != "c":
                raise ValueError(f"bad naming key {key!r}; expected c_i_j")
            i, j = int(parts[1]), int(parts[2])
            coords = self.quotient.basis_coset(i, j)
            hits = [t for t, x in enumerate(coords) if x]
            if len(hits) != 1 or coords[hits[0]] != 1:
                raise ValueError(
                    f"naming key {key!r} does not reduce to a single representative"
                )
            self.names[hits[0]] = str(new)

    @property
    def num_generators(self):
        return self.quotient.num_generators

    def coset_sigma_word(self, vec_coords, word):
        """sigma(coset (x) word) for a coset given in representative coords."""
        acc = F0
        for s, x in enumerate(vec_coords):
            if x:
                acc += x * sigma_extend(self, (s,), word)
        return acc


def build_LR(r: TensorOp2, naming=None) -> LongPresentation:
    """Construct the presentation of L(R) for a Long solution R.

    Verifies: counit vanishes on V, the comultiplication descends, sigma is
    well defined on cosets, the degree-one strong D-identity holds on all
    generator pairs, and the coset form reproduces R exactly.
    """
    witness = long_witness(r)
    if witness is not None:
        raise NotALongSolution(
            f"componentwise equation {witness[0]} fails at {witness[1]}", witness
        )
    quotient = QuotientCoalgebra(r.dim, obstructions(r))
    sigma = SigmaForm(r, quotient)
    pres = LongPresentation(r, quotient, sigma, naming)
    ok, bad = check_L1_on_generators(pres)
    if not ok:
        raise InternalCheckFailed(f"degree-one D-identity fails at {bad}")
    if round_trip(pres) != r:
        raise InternalCheckFailed("coset form does not reproduce the input operator")
    return pres


def round_trip(pres: LongPresentation) -> TensorOp2:
    """Recover the operator from the coset sigma-form.

    R(m_v (x) m_u) = sum_{i,j} sigma(coset c_iv (x) coset c_ju) m_i (x) m_j.
    """
    n = pres.quotient.n
    table = pres.sigma.coset_table
    mat = la.zeros(n * n, n * n)
    for v in range(1, n + 1):
        for u in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    val = table[cm_index(i, v, n)][cm_index(j, u, n)]
                    if val:
                        mat[(i - 1) * n + (j - 1)][(v - 1) * n + (u - 1)] = val
    return TensorOp2(n, mat)


def sigma_extend(pres: LongPresentation, w1, w2, left_first=False,
                 max_len=DEFAULT_WORD_CAP) -> Fraction:
    """sigma on a pair of generator words (indices into the generator list).

    The right word is split first unless ``left_first``; words are capped at
    ``max_len``. See ``bialgebra.generator_sigma_words``.
    """
    return generator_sigma_words(pres.generator_bialgebra, pres._sigma_pairs, w1, w2,
                                 left_first, max_len, pres._word_memo)


def check_L1_on_generators(pres: LongPresentation, sigma_table=None):
    """Strong D-identity on every pair of basis cosets.

    For cosets x = c_ij, y = c_pq the difference
    sum_v sigma(c_iv (x) y) c_vj - sum_a sigma(c_aj (x) y) c_ia must project
    to zero. ``sigma_table`` overrides the n^2 x n^2 form (mutation testing).
    Returns ``(ok, witness)`` with the violating (i, j, p, q) on failure.

    The projection is linear, so the difference is projected as
    sum_v s_v pi(c_vj) - sum_a s_a pi(c_ia) in representative coordinates.
    """
    q = pres.quotient
    n = q.n
    table = (pres.sigma.coset_table if sigma_table is None
             else coset_table(sigma_table, q))
    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            for p in rng:
                for q_ in rng:
                    col = cm_index(p, q_, n)
                    acc = [F0] * q.num_generators
                    for v in rng:
                        s = table[cm_index(i, v, n)][col]
                        if s:
                            for t, x in q.coset_terms(v, j):
                                acc[t] += s * x
                    for a in rng:
                        s = table[cm_index(a, j, n)][col]
                        if s:
                            for t, x in q.coset_terms(i, a):
                                acc[t] -= s * x
                    if any(acc):
                        return False, (i, j, p, q_)
    return True, None


def dimodule_action(pres: LongPresentation, word, l):
    """Left action of a generator word on the basis vector m_l.

    h . m_l = sum_v sigma(coset c_vl (x) h) m_v; returns the length-n vector.
    """
    n = pres.quotient.n
    return [
        pres.coset_sigma_word(pres.quotient.basis_coset(v, l), tuple(word))
        for v in range(1, n + 1)
    ]


def dimodule_compatible(pres: LongPresentation, word, l) -> bool:
    """Compatibility of action and coaction on (word, m_l), checked exactly.

    Both sides are elements of M (x) C/V, compared in representative
    coordinates.
    """
    q = pres.quotient
    n = q.n
    word = tuple(word)
    m = q.num_generators
    lhs = la.zeros(n, m)
    rhs = la.zeros(n, m)
    act = dimodule_action(pres, word, l)
    for w in range(1, n + 1):
        for v in range(1, n + 1):
            if act[v - 1]:
                wv = q.basis_coset(w, v)
                for t in range(m):
                    lhs[w - 1][t] += act[v - 1] * wv[t]
        vl_all = q.basis_coset
        for v in range(1, n + 1):
            s = pres.coset_sigma_word(q.basis_coset(w, v), word)
            if s:
                vl = vl_all(v, l)
                for t in range(m):
                    rhs[w - 1][t] += s * vl[t]
    return la.mat_eq(lhs, rhs)


def convolution_inverse(pres: LongPresentation, r: TensorOp2):
    """Convolution inverse of sigma on generator cosets, from R^{-1}.

    Returns the n^2 x n^2 table sigma'(c_iv (x) c_ju) = y[u,v,j,i] where
    y are the coefficients of R^{-1}; the convolution identity against
    sigma is verified on all generator pairs.
    """
    n = r.dim
    try:
        # sigma' must also vanish on V, else it does not descend to L(R)
        table = SigmaForm(invert(r), pres.quotient).table  # invert raises SingularOperator
    except SigmaIllDefined as exc:
        raise InternalCheckFailed("convolution inverse does not descend") from exc
    sig = pres.sigma.table
    rng = range(1, n + 1)
    for i in rng:
        for v in rng:
            for j in rng:
                for u in rng:
                    conv = F0
                    vonc = F0
                    for p in rng:
                        for q_ in rng:
                            conv += (
                                sig[cm_index(i, p, n)][cm_index(j, q_, n)]
                                * table[cm_index(p, v, n)][cm_index(q_, u, n)]
                            )
                            vonc += (
                                table[cm_index(i, p, n)][cm_index(j, q_, n)]
                                * sig[cm_index(p, v, n)][cm_index(q_, u, n)]
                            )
                    expected = F1 if (i == v and j == u) else F0
                    if conv != expected or vonc != expected:
                        raise InternalCheckFailed(
                            f"convolution identity fails at ({i},{v},{j},{u})"
                        )
    return table


def presentation_text(pres: LongPresentation) -> str:
    """Human-readable, deterministic rendering of the presentation."""
    q = pres.quotient
    n = q.n
    lines = [f"dim {n}"]
    lines.append("relations:")
    if not q.rows:
        lines.append("  (none)")
    for row in q.rows:
        parts = []
        for slot, x in enumerate(row):
            if not x:
                continue
            i, j = cm_label(slot, n)
            term = f"c_{i}_{j}" if abs(x) == 1 else f"{frac_str(abs(x))}*c_{i}_{j}"
            parts.append(("+ " if x > 0 else "- ") + term)
        body = " ".join(parts)
        body = body[2:] if body.startswith("+ ") else "-" + body[2:]
        lines.append(f"  {body} = 0")
    lines.append("generators: " + ", ".join(
        f"{name} (c_{i}_{j})" for name, (i, j) in zip(pres.names, q.rep_labels)
    ))
    for t, name in enumerate(pres.names):
        terms = []
        for s in range(pres.num_generators):
            for u in range(pres.num_generators):
                x = pres.delta[t][s][u]
                if x:
                    pair = f"{pres.names[s]} (x) {pres.names[u]}"
                    term = pair if abs(x) == 1 else f"{frac_str(abs(x))}*{pair}"
                    terms.append(("+ " if x > 0 else "- ") + term)
        body = " ".join(terms)
        if body.startswith("+ "):
            body = body[2:]
        elif body.startswith("- "):
            body = "-" + body[2:]
        lines.append(f"Delta({name}) = " + (body if terms else "0"))
    for t, name in enumerate(pres.names):
        lines.append(f"eps({name}) = {frac_str(pres.eps[t])}")
    lines.append("sigma:")
    for s, ns in enumerate(pres.names):
        for u, nu in enumerate(pres.names):
            lines.append(f"  sigma({ns} (x) {nu}) = {frac_str(pres.sigma_gen[s][u])}")
    return "\n".join(lines) + "\n"
