import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longeq import (
    InternalCheckFailed,
    NotALongSolution,
    SigmaIllDefined,
    SingularMatrix,
    TensorOp2,
    build_LR,
    check_L1_on_generators,
    convolution_inverse,
    dimodule_action,
    dimodule_compatible,
    idempotent_maps,
    make_conjugate,
    make_diag,
    make_pair,
    make_phi,
    long_witness,
    presentation_text,
    round_trip,
    sigma_extend,
)
from longeq import linalg as la
from longeq.bialgebra import comatrix_coalgebra
from longeq.frt import (
    QuotientCoalgebra,
    SigmaForm,
    cm_index,
    cm_label,
    comatrix_eps,
    obstructions,
)
from longeq.tensor_ops import _descent_basis, _obstruction_rows
from conftest import upper_pair_operator
from test_linalg import _rref_oracle
from test_tensor_ops import (
    _late_violation_cases,
    _long_witness_oracle,
    _mixed_denominator_cases,
    _seeded_candidate,
    _unit_candidates,
)

F = Fraction


def obstruction_rows(r):
    """The primitive integer obstruction rows of ``r``, which span its
    relation span V (``tensor_ops._obstruction_rows`` on Z = D x)."""
    return [row for _, row in _obstruction_rows(r.int_form[0], r.dim)]


def _bilinear(table, va, vb):
    """va^T table vb over Fractions: sigma of two comatrix coordinate vectors."""
    return sum((xa * table[a][b] * xb for a, xa in enumerate(va) for b, xb in enumerate(vb)),
               F(0))


def test_obstruction_coideal_identity_for_arbitrary_operator():
    """Delta(o(i,j,k,l)) = sum_u o(i,j,k,u) (x) c_ul + c_iu (x) o(u,j,k,l),
    for a generic operator that is not even a Long solution."""
    n = 2
    mat = [[F((r * 5 + c) % 7 - 3) for c in range(4)] for r in range(4)]
    r = TensorOp2(n, mat)
    obs = obstructions(r)
    comult = comatrix_coalgebra(n).comult

    def o_vec(i, j, k, l):
        return obs[(((i - 1) * n + (j - 1)) * n + (k - 1)) * n + (l - 1)]

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    vec = o_vec(i, j, k, l)
                    lhs = [[sum(x * comult[a][s][t] for a, x in enumerate(vec))
                            for t in range(n * n)] for s in range(n * n)]
                    rhs = la.zeros(n * n, n * n)
                    for u in range(1, n + 1):
                        left = o_vec(i, j, k, u)
                        for s, xs in enumerate(left):
                            rhs[s][cm_index(u, l, n)] += xs
                        right = o_vec(u, j, k, l)
                        for t, xt in enumerate(right):
                            rhs[cm_index(i, u, n)][t] += xt
                    assert lhs == rhs, (i, j, k, l)


def test_counit_vanishes_on_obstructions():
    mat = [[F((r * 3 + c) % 5 - 2) for c in range(9)] for r in range(9)]
    r = TensorOp2(3, mat)
    assert all(comatrix_eps(vec, 3) == 0 for vec in obstructions(r))


def test_golden_example_pair_upper_triangular():
    """The two-generator presentation of the nilpotent-pair solution."""
    for (a, b, c) in [(1, 1, 1), (2, 3, 5)]:
        r = upper_pair_operator(a, b, c)
        pres = build_LR(r, naming={"c_1_1": "x", "c_1_2": "y"})
        q = pres.quotient
        assert q.num_generators == 2
        # relations: c_21 = 0 and c_11 = c_22
        assert q.basis_coset(2, 1) == [F(0), F(0)]
        assert q.basis_coset(1, 1) == q.basis_coset(2, 2)
        assert sorted(pres.names) == ["x", "y"]
        xi, yi = pres.names.index("x"), pres.names.index("y")
        # x group-like, Delta(y) = x (x) y + y (x) x
        assert pres.delta[xi][xi][xi] == 1
        assert sum(1 for row in pres.delta[xi] for v in row if v) == 1
        assert pres.delta[yi][xi][yi] == 1 and pres.delta[yi][yi][xi] == 1
        assert sum(1 for row in pres.delta[yi] for v in row if v) == 2
        assert pres.eps[xi] == 1 and pres.eps[yi] == 0
        # sigma forced by the round trip
        sig = pres.sigma_gen
        assert sig[xi][xi] == a * b
        assert sig[yi][xi] == b
        assert sig[xi][yi] == a * c
        assert sig[yi][yi] == c
        assert round_trip(pres) == r


def test_golden_example_diag_group_likes():
    a, b = 2, 3
    r = make_diag(2, [[a, b], [0, 0]])
    assert r == make_pair([[1, 0], [0, 0]], [[a, 0], [0, b]])
    pres = build_LR(r, naming={"c_1_1": "x", "c_2_2": "y"})
    q = pres.quotient
    assert q.num_generators == 2
    assert q.basis_coset(1, 2) == [F(0), F(0)]
    assert q.basis_coset(2, 1) == [F(0), F(0)]
    xi, yi = pres.names.index("x"), pres.names.index("y")
    for t in (xi, yi):
        assert pres.delta[t][t][t] == 1
        assert sum(1 for row in pres.delta[t] for v in row if v) == 1
        assert pres.eps[t] == 1
    sig = pres.sigma_gen
    assert sig[xi][xi] == a
    assert sig[xi][yi] == b
    assert sig[yi][xi] == 0 and sig[yi][yi] == 0


def test_golden_example_identity_phi_group_likes():
    n = 3
    r = make_phi(n, list(range(1, n + 1)))
    pres = build_LR(r)
    q = pres.quotient
    assert q.num_generators == n
    assert q.rep_labels == [(i, i) for i in range(1, n + 1)]
    for t in range(n):
        assert pres.delta[t][t][t] == 1
        assert sum(1 for row in pres.delta[t] for v in row if v) == 1
        assert pres.eps[t] == 1
    assert pres.sigma_gen == [
        [F(1) if s == t else F(0) for t in range(n)] for s in range(n)
    ]


def _tensor_matrix(m, terms):
    out = la.zeros(m, m)
    for coeff, va, vb in terms:
        for s, xa in enumerate(va):
            if xa:
                for t, xb in enumerate(vb):
                    if xb:
                        out[s][t] += coeff * xa * xb
    return out


def _vec_sub(*vecs):
    out = list(vecs[0])
    for v in vecs[1:]:
        out = [x - y for x, y in zip(out, v)]
    return out


def test_golden_example_phi_1222():
    """Six-generator presentation for phi = (1,2,2,2) on n = 4."""
    r = make_phi(4, [1, 2, 2, 2])
    pres = build_LR(r)
    q = pres.quotient
    assert q.num_generators == 6
    # relations: c_1l = c_2j = c_i1 = 0 (l !=1, j != 2, i != 1),
    # c_32+c_33+c_34 = c_22 and c_42+c_43+c_44 = c_22
    zero = [F(0)] * 6
    for l in (2, 3, 4):
        assert q.basis_coset(1, l) == zero
    for j in (1, 3, 4):
        assert q.basis_coset(2, j) == zero
    for i in (2, 3, 4):
        assert q.basis_coset(i, 1) == zero
    c = {(i, j): q.basis_coset(i, j) for i in range(1, 5) for j in range(1, 5)}
    for i in (3, 4):
        assert _vec_sub(
            [a + b + d for a, b, d in zip(c[(i, 2)], c[(i, 3)], c[(i, 4)])],
            c[(2, 2)],
        ) == zero
    x1, x2, x3, x4, x5, x6 = (
        c[(1, 1)], c[(2, 2)], c[(3, 2)], c[(3, 3)], c[(4, 2)], c[(4, 4)]
    )
    u = _vec_sub(x2, x3, x4)  # = coset of c_34
    w = _vec_sub(x2, x5, x6)  # = coset of c_43
    one = F(1)
    goldens = {
        (1, 1): [(one, x1, x1)],
        (2, 2): [(one, x2, x2)],
        (3, 2): [(one, x3, x2), (one, x4, x3), (one, u, x5)],
        (3, 3): [(one, x4, x4), (one, u, w)],
        (4, 2): [(one, x5, x2), (one, w, x3), (one, x6, x5)],
        (4, 4): [(one, w, u), (one, x6, x6)],
    }
    for (i, j), terms in goldens.items():
        assert q.delta_on_coset(i, j) == _tensor_matrix(6, terms), (i, j)
    eps = {(1, 1): 1, (2, 2): 1, (3, 2): 0, (3, 3): 1, (4, 2): 0, (4, 4): 1}
    for (i, j), val in eps.items():
        vec = [F(0)] * 16
        vec[cm_index(i, j, 4)] = F(1)
        assert comatrix_eps(vec, 4) == val


def test_golden_example_phi_2244():
    """Six-generator presentation for phi = (2,2,4,4) on n = 4."""
    r = make_phi(4, [2, 2, 4, 4])
    pres = build_LR(r)
    q = pres.quotient
    assert q.num_generators == 6
    zero = [F(0)] * 6
    for l in (1, 3, 4):
        assert q.basis_coset(2, l) == zero
    for j in (1, 2, 3):
        assert q.basis_coset(4, j) == zero
    c = {(i, j): q.basis_coset(i, j) for i in range(1, 5) for j in range(1, 5)}
    assert _vec_sub(
        [a + b for a, b in zip(c[(1, 1)], c[(1, 2)])], c[(2, 2)]
    ) == zero
    assert _vec_sub(
        [a + b for a, b in zip(c[(3, 3)], c[(3, 4)])], c[(4, 4)]
    ) == zero
    assert [a + b for a, b in zip(c[(1, 3)], c[(1, 4)])] == zero
    assert [a + b for a, b in zip(c[(3, 1)], c[(3, 2)])] == zero
    x1, x2, x3 = c[(1, 1)], c[(1, 2)], c[(1, 3)]
    x4, x5, x6 = c[(3, 1)], c[(3, 3)], c[(3, 4)]
    one, neg = F(1), F(-1)
    goldens = {
        (1, 1): [(one, x1, x1), (one, x3, x4)],
        (1, 2): [(one, x1, x2), (one, x2, x1), (one, x2, x2), (neg, x3, x4)],
        (1, 3): [(one, x1, x3), (one, x3, x5)],
        (3, 1): [(one, x4, x1), (one, x5, x4)],
        (3, 3): [(one, x4, x3), (one, x5, x5)],
        (3, 4): [(neg, x4, x3), (one, x5, x6), (one, x6, x5), (one, x6, x6)],
    }
    for (i, j), terms in goldens.items():
        assert q.delta_on_coset(i, j) == _tensor_matrix(6, terms), (i, j)


def test_round_trip_entire_corpus(corpus):
    for name, r in corpus.items():
        pres = build_LR(r)
        assert round_trip(pres) == r, name


def test_sigma_mutation_flips_l1():
    # needs a quotient that is not cocommutative, else L1 holds for every
    # table; phi = (1,2,2,2) qualifies
    r = make_phi(4, [1, 2, 2, 2])
    pres = build_LR(r)
    ok, witness = check_L1_on_generators(pres)
    assert ok and witness is None
    mutated = [row[:] for row in pres.sigma.table]
    mutated[cm_index(3, 3, 4)][cm_index(1, 1, 4)] += F(1)
    ok2, witness2 = check_L1_on_generators(pres, sigma_table=mutated)
    assert not ok2 and witness2 is not None


def test_sigma_extension_word_values():
    r = upper_pair_operator(1, 1, 1)
    pres = build_LR(r, naming={"c_1_1": "x", "c_1_2": "y"})
    xi, yi = pres.names.index("x"), pres.names.index("y")
    # sigma(y (x) x) = 1 and sigma(y (x) y) = 1 here, so
    # sigma(y (x) xy) = sigma(y_(1) (x) x) sigma(y_(2) (x) y) summed
    #                 = s(x,x)s(y,y) + s(y,x)s(x,y) = 2
    assert sigma_extend(pres, [yi], [xi, yi]) == 2
    assert sigma_extend(pres, [yi], []) == pres.eps[yi]
    assert sigma_extend(pres, [], [xi]) == pres.eps[xi]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=3),
    st.lists(st.integers(0, 1), min_size=1, max_size=3),
)
def test_sigma_extension_order_independent(w1, w2):
    r = upper_pair_operator(2, 3, 5)
    pres = build_LR(r)
    left = sigma_extend(pres, w1, w2, left_first=True)
    right = sigma_extend(pres, w1, w2, left_first=False)
    assert left == right


def test_sigma_extension_word_cap():
    r = upper_pair_operator(1, 1, 1)
    pres = build_LR(r)
    with pytest.raises(ValueError):
        sigma_extend(pres, [0] * 7, [0])


@pytest.mark.parametrize("w1, w2, bad", [((7,), (0,), (7,)), ((-1,), (0,), (-1,)),
                                         ((7,), (), (7,)), ((0,), (0, 2), (0, 2)),
                                         ((True,), (0,), (True,)), ((0.0,), (0,), (0.0,))],
                         ids=["7", "-1", "7-on-empty", "right-word", "bool", "float"])
def test_sigma_extension_refuses_a_letter_that_is_not_a_generator(w1, w2, bad):
    """make_phi(2, [1, 1]) has two generators. Letters 7 and -1 read as
    zero (sigma_extend gave 0, dimodule_action the zero vector) or raised a
    bare KeyError; each is a ValueError naming its word, through every
    caller of the word engine."""
    pres = build_LR(make_phi(2, [1, 1]))
    assert pres.num_generators == 2
    match = rf"^word {re.escape(repr(bad))} has a letter that is not a generator index in 0\.\.1$"
    with pytest.raises(ValueError, match=match):
        sigma_extend(pres, w1, w2)
    for call in (dimodule_action, dimodule_compatible):
        with pytest.raises(ValueError, match=match):
            call(pres, bad, 1)


def test_convolution_inverse_on_invertible_corpus(corpus):
    from longeq import SingularOperator, invert

    for name, r in corpus.items():
        try:
            invert(r)
        except SingularOperator:
            continue
        pres = build_LR(r)
        table = convolution_inverse(pres, r)
        assert table is not None, name


def test_convolution_inverse_reports_first_failure(monkeypatch):
    """R = Id has V = 0, so any stand-in for R^{-1} descends and the
    convolution identity reduces to R R^{-1} = R^{-1} R = Id. A stand-in
    off the identity at (i,j),(v,u) = (1,2),(1,1) and (1,1),(2,2) fails
    first at (i,v,j,u) = (1,1,2,1), which precedes (1,2,1,2) in the
    (i, v, j, u) order though not in the row-major (i, j, v, u) one."""
    from longeq import frt

    r = TensorOp2(2, la.identity(4))
    pres = build_LR(r)
    assert pres.quotient.rows == []
    fake = la.identity(4)
    fake[1][0] = F(1, 3)
    fake[0][3] = F(2)
    monkeypatch.setattr(frt, "invert", lambda op: TensorOp2(2, fake))
    with pytest.raises(InternalCheckFailed,
                       match=re.escape("convolution identity fails at (1,1,2,1)")):
        convolution_inverse(pres, r)


def test_dimodule_compatibility_corpus(corpus):
    for name, r in corpus.items():
        pres = build_LR(r)
        n = r.dim
        for g in range(pres.num_generators):
            for l in range(1, n + 1):
                assert dimodule_compatible(pres, [g], l), (name, g, l)
        # a couple of length-2 words as well
        if pres.num_generators >= 2:
            for word in ([0, 1], [1, 0]):
                for l in range(1, n + 1):
                    assert dimodule_compatible(pres, word, l), (name, word)


@pytest.mark.parametrize("l", [0, 3, -1, True, 1.0, "1"])
def test_dimodule_refuses_an_index_of_m_out_of_range(l):
    """The 1-based index l of m_l must be an int in 1..n, and not a bool:
    l = 0 read wrapped slots (``dimodule_compatible`` gave False for [0] and
    True for [1]) and l = n + 1 raised IndexError."""
    pres = build_LR(make_phi(2, [1, 1]))
    for call in (dimodule_action, dimodule_compatible):
        with pytest.raises(ValueError, match=r"^'l' must be an int in 1\.\.2, got "):
            call(pres, [0], l)
    assert dimodule_compatible(pres, [0], 1) and dimodule_compatible(pres, [0], 2)


def _dimodule_oracle(pres, word, l):
    """The two sides of the compatibility, formed apart in M (x) C/V and
    compared (the body ``dimodule_compatible`` had before it read L1)."""
    q = pres.quotient
    n, m, word = q.n, q.num_generators, tuple(word)
    lhs, rhs = la.zeros(n, m), la.zeros(n, m)
    act = dimodule_action(pres, word, l)
    for w in range(1, n + 1):
        for v in range(1, n + 1):
            if act[v - 1]:
                wv = q.basis_coset(w, v)
                for t in range(m):
                    lhs[w - 1][t] += act[v - 1] * wv[t]
        for v in range(1, n + 1):
            s = pres.coset_sigma_word(q.basis_coset(w, v), word)
            if s:
                vl = q.basis_coset(v, l)
                for t in range(m):
                    rhs[w - 1][t] += s * vl[t]
    return la.mat_eq(lhs, rhs)


def test_dimodule_compatible_matches_the_two_sided_oracle(corpus):
    """``dimodule_compatible`` (L1 on C/V) against the two sides formed
    apart, on presentations whose sigma pairs are perturbed before the word
    engine first reads them: both verdicts occur."""
    rng = random.Random(19)
    ops = {**corpus, **_dense_conjugates()}
    ops.update({f"phi4_{k}": make_phi(4, phi) for k, phi in
                enumerate([(1, 2, 2, 2), (2, 2, 4, 4), (1, 1, 3, 3)])})
    verdicts = []
    for name, r in ops.items():
        for trial in range(4):
            pres = build_LR(r)
            m = pres.num_generators
            # the word engine is formed on first use, after the perturbation
            assert not {"generator_bialgebra", "_sigma_pairs"} & set(vars(pres)), name
            for _ in range(trial):
                pres.sigma_gen[rng.randrange(m)][rng.randrange(m)] += F(rng.choice([-2, 1, 3]), 2)
            words = [[g] for g in range(m)] + [[rng.randrange(m), rng.randrange(m)]]
            for word in words:
                for l in range(1, r.dim + 1):
                    want = _dimodule_oracle(pres, word, l)
                    assert dimodule_compatible(pres, word, l) == want, (name, trial, word, l)
                    verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_build_lr_rejects_non_long():
    mat = la.identity(4)
    mat[0][2] = F(1)
    with pytest.raises(NotALongSolution) as err:
        build_LR(TensorOp2(2, mat))
    assert err.value.witness is not None


def test_naming_requires_single_representative():
    r = make_phi(4, [1, 2, 2, 2])
    # c_2_2 reduces to c_42 + c_43 + c_44, not a single representative
    with pytest.raises(ValueError):
        build_LR(r, naming={"c_2_2": "t"})


def test_sigma_form_guard_on_foreign_quotient():
    r1 = upper_pair_operator(2, 3, 5)
    r2 = make_diag(2, [[2, 3], [0, 0]])
    q2 = build_LR(r2).quotient
    with pytest.raises(SigmaIllDefined):
        SigmaForm(r1, q2)


def test_presentation_text_deterministic():
    r = make_phi(4, [1, 2, 2, 2])
    t1 = presentation_text(build_LR(r))
    t2 = presentation_text(build_LR(make_phi(4, [1, 2, 2, 2])))
    assert t1 == t2
    assert t1.startswith("dim 4\n")
    assert "relations:" in t1 and "sigma:" in t1


def test_quotient_dimension_table():
    cases = [
        (upper_pair_operator(2, 3, 5), 2),
        (make_diag(2, [[2, 3], [0, 0]]), 2),
        (make_phi(3, [1, 2, 3]), 3),
        (make_phi(4, [1, 2, 2, 2]), 6),
        (make_phi(4, [2, 2, 4, 4]), 6),
    ]
    for r, want in cases:
        assert build_LR(r).num_generators == want


def _dense_conjugates():
    """Dense n = 3 solutions, whose relation spans have large coefficients."""
    return {
        f"conj3_{k}": make_conjugate(u, make_phi(3, phi))
        for k, (u, phi) in enumerate([
            ([[1, 2, -1], [2, -1, 1], [1, 1, 2]], (1, 1, 3)),
            ([[2, -1, 1], [1, 2, -2], [-1, 1, 1]], (1, 2, 3)),
            ([[1, -2, 2], [2, 1, -1], [1, 2, 1]], (2, 2, 2)),
        ])
    }


def test_coset_table_matches_direct_pairing(corpus):
    """The shared table P is sigma on the projections of each label pair."""
    for name, r in {**corpus, **_dense_conjugates()}.items():
        pres = build_LR(r)
        q, n = pres.quotient, r.dim
        p_table = pres.sigma.coset_table
        for a in range(n * n):
            for b in range(n * n):
                want = _bilinear(pres.sigma.table, _project_oracle(q, *cm_label(a, n)),
                                 _project_oracle(q, *cm_label(b, n)))
                assert p_table[a][b] == want, (name, a, b)


def test_sigma_mutation_witnesses_are_unchanged():
    """Witnesses of the mutation override, pinned from the projection of each
    pairing one at a time (before the shared coset table)."""
    cases = [
        ((1, 2, 2, 2), [((3, 3), (1, 1), F(1))], (False, (3, 2, 1, 1))),
        ((2, 2, 4, 4), [((1, 2), (3, 4), F(2)), ((3, 4), (1, 1), F(-1, 2))],
         (False, (1, 3, 3, 3))),
        ((1, 2, 2, 2), [((4, 2), (2, 2), F(3))], (True, None)),
    ]
    for phi, mutations, want in cases:
        pres = build_LR(make_phi(4, phi))
        mutated = [row[:] for row in pres.sigma.table]
        for a, b, d in mutations:
            mutated[cm_index(*a, 4)][cm_index(*b, 4)] += d
        assert check_L1_on_generators(pres, sigma_table=mutated) == want, phi
        # the override does not leak into the presentation's own table
        assert check_L1_on_generators(pres) == (True, None)


def _rref_int_oracle(rows):
    """``la.rref_int`` from the Fraction Gauss-Jordan oracle: each RREF row
    times the lcm of its denominators (its pivot entry is 1, so the
    result is primitive with a positive pivot)."""
    red, pivots = _rref_oracle([[F(x) for x in row] for row in rows])
    out = []
    for row in red:
        scale = math.lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out, pivots


def test_presentation_text_matches_oracle_rref(corpus, monkeypatch):
    """The rendering is unchanged when every RREF comes from the Fraction
    Gauss-Jordan oracle."""
    ops = {**corpus, **_dense_conjugates()}
    fast = {name: presentation_text(build_LR(r)) for name, r in ops.items()}
    monkeypatch.setattr(la, "rref_int", _rref_int_oracle)
    for name, r in ops.items():
        assert presentation_text(build_LR(r)) == fast[name], name


def _sigma_descent_oracle(table, rows):
    """Dense form of SigmaForm's descent check: the first failure message."""
    size = len(table)
    for row in rows:
        for b in range(size):
            if sum((row[a] * table[a][b] for a in range(size)), F(0)):
                return "sigma does not vanish on V (x) C"
            if sum((table[b][a] * row[a] for a in range(size)), F(0)):
                return "sigma does not vanish on C (x) V"
    return None


def _form_table(r):
    n = r.dim
    table = la.zeros(n * n, n * n)
    for a in range(n * n):
        i, v = cm_label(a, n)
        for b in range(n * n):
            j, u = cm_label(b, n)
            table[a][b] = r.coeff(u, v, j, i)
    return table


class _UncheckedQuotient(QuotientCoalgebra):
    def _check_delta_descends(self):
        pass


def _delta_descent_oracle(q):
    """Dense form of QuotientCoalgebra's descent check."""
    n, m = q.n, q.num_generators
    for row in q.rows:
        acc = la.zeros(m, m)
        for slot, x in enumerate(row):
            if x:
                acc = la.mat_add(acc, la.mat_scale(q.delta_on_coset(*cm_label(slot, n)), x))
        if any(any(row) for row in acc):
            return False
    return True


def test_sigma_descent_check_matches_dense_oracle(corpus):
    by_dim = {}
    for r in corpus.values():
        by_dim.setdefault(r.dim, []).append(r)
    seen = set()
    for ops in by_dim.values():
        quotients = [build_LR(r).quotient for r in ops]
        n = ops[0].dim
        # sparse random operators, not Long: either check can fail first
        rng = random.Random(n)
        noise = [TensorOp2(n, [[rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(n * n)]
                               for _ in range(n * n)]) for _ in range(6)]
        for r in ops + noise:
            for q in quotients:
                want = _sigma_descent_oracle(_form_table(r), q.rows)
                if want is None:
                    SigmaForm(r, q)
                else:
                    with pytest.raises(SigmaIllDefined, match=re.escape(want)):
                        SigmaForm(r, q)
                seen.add(want)
    assert seen == {None, "sigma does not vanish on V (x) C",
                    "sigma does not vanish on C (x) V"}


def test_delta_descent_check_matches_dense_oracle():
    """Counit-free random relation spans: most are not coideals."""
    rng = random.Random(5)
    outcomes = set()
    for n in (2, 3):
        for _ in range(30):
            rows = []
            for _ in range(rng.randint(1, 3)):
                vec = [F(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(n * n)]
                vec[cm_index(1, 1, n)] -= comatrix_eps(vec, n)  # counit zero
                rows.append(vec)
            try:
                QuotientCoalgebra(n, rows)
                got = True
            except InternalCheckFailed as exc:
                assert str(exc) == "comultiplication does not descend to C/V"
                got = False
            assert got == _delta_descent_oracle(_UncheckedQuotient(n, rows)), rows
            outcomes.add(got)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the integer L(R) pipeline against the Fraction bodies it replaced
# ---------------------------------------------------------------------------


def _obstructions_oracle(r):
    """The Fraction body of ``obstructions``."""
    n = r.dim
    x = r.coeff
    out = []
    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    vec = [F(0)] * (n * n)
                    for v in rng:
                        vec[cm_index(v, l, n)] += x(k, v, j, i)
                    for a in rng:
                        vec[cm_index(i, a, n)] -= x(k, l, j, a)
                    out.append(vec)
    return out


def _project_oracle(q, i, j):
    """The unit vector of c_ij reduced modulo the Fraction RREF rows of V."""
    vec = [F(0)] * (q.n * q.n)
    vec[cm_index(i, j, q.n)] = F(1)
    return la.reduce_mod(vec, la.sparse_rref(q.rows, q.pivots))


def _coset_terms_oracle(q, i, j):
    """The coset of c_ij by projecting its unit vector through ``reduce_mod``."""
    red = _project_oracle(q, i, j)
    return [(t, red[s]) for t, s in enumerate(q.rep_slots) if red[s]]


def _delta_on_coset_oracle(q, i, j):
    """(pi (x) pi) Delta(c_ij) summed over Fraction coset terms."""
    m = q.num_generators
    out = la.zeros(m, m)
    for u in range(1, q.n + 1):
        for s, xl in _coset_terms_oracle(q, i, u):
            for t, xr in _coset_terms_oracle(q, u, j):
                out[s][t] += xl * xr
    return out


def _coset_table_oracle(table, q):
    """The Fraction body of ``coset_table``: Pi^T T Pi."""
    n = q.n
    reps = q.rep_slots
    terms = [_coset_terms_oracle(q, *cm_label(a, n)) for a in range(n * n)]
    right = [[sum([table[ra][reps[t]] * x for t, x in terms[b]], F(0)) for b in range(n * n)]
             for ra in reps]
    return [[sum([x * right[s][b] for s, x in terms[a]], F(0)) for b in range(n * n)]
            for a in range(n * n)]


def _check_L1_oracle(pres, sigma_table=None):
    """The Fraction body of ``check_L1_on_generators``."""
    q = pres.quotient
    n = q.n
    table = _coset_table_oracle(pres.sigma.table if sigma_table is None else sigma_table, q)
    rng = range(1, n + 1)
    terms = {(i, j): _coset_terms_oracle(q, i, j) for i in rng for j in rng}
    for i in rng:
        for j in rng:
            for p in rng:
                for q_ in rng:
                    col = cm_index(p, q_, n)
                    acc = [F(0)] * q.num_generators
                    for v in rng:
                        s = table[cm_index(i, v, n)][col]
                        if s:
                            for t, x in terms[(v, j)]:
                                acc[t] += s * x
                    for a in rng:
                        s = table[cm_index(a, j, n)][col]
                        if s:
                            for t, x in terms[(i, a)]:
                                acc[t] -= s * x
                    if any(acc):
                        return False, (i, j, p, q_)
    return True, None


def _dense_conjugates_4():
    """Dense n = 4 conjugates, one per rank of phi."""
    return {
        f"conj4_{k}": make_conjugate(u, make_phi(4, phi))
        for k, (u, phi) in enumerate([
            ([[1, 2, -1, 1], [2, -1, 1, 0], [1, 1, 2, -2], [0, 1, -1, 1]], (1, 1, 1, 1)),
            ([[2, -1, 1, 1], [1, 2, -2, 1], [-1, 1, 1, 2], [1, 0, 1, -1]], (1, 2, 2, 2)),
            ([[1, -2, 2, 1], [2, 1, -1, -1], [1, 2, 1, 0], [-1, 1, 0, 2]], (1, 2, 3, 3)),
            ([[2, 1, 1, -1], [1, -1, 2, 1], [0, 1, 1, 2], [1, 2, -1, 1]], (1, 2, 3, 4)),
        ])
    }


def _fractional_conjugates():
    """Conjugates by u with fractional entries, so that D > 1 (and L > 1)."""
    return {
        "fconj3": make_conjugate([[1, F(1, 2), 0], [F(-1, 3), 1, 1], [0, 2, F(1, 2)]],
                                 make_phi(3, (1, 1, 3))),
        "fconj4": make_conjugate([[1, F(1, 2), 0, -1], [F(-1, 3), 1, 1, 0],
                                  [0, 2, F(1, 2), 1], [1, 0, -1, F(2, 5)]],
                                 make_phi(4, (1, 2, 2, 4))),
    }


def _integer_pipeline_cases(corpus, phi4_solutions):
    cases = dict(corpus)
    cases.update({f"phi4_{''.join(map(str, phi))}": r for phi, r in phi4_solutions.items()})
    cases.update(_dense_conjugates())
    cases.update(_dense_conjugates_4())
    cases.update(_fractional_conjugates())
    return cases


def test_integer_cases_clear_denominators():
    ops = _fractional_conjugates()
    assert all(la.clear_denominators(r.matrix)[1] > 1 for r in ops.values())
    assert all(build_LR(r).quotient.coset_scale > 1 for r in ops.values())


def test_obstructions_match_fraction_oracle(corpus, phi4_solutions):
    rng = random.Random(11)
    noise = [TensorOp2(n, [[F(rng.choice((0, 0, 1, -1, 2)), rng.choice((1, 1, 3)))
                            for _ in range(n * n)] for _ in range(n * n)])
             for n in (2, 3) for _ in range(4)]
    ops = list(_integer_pipeline_cases(corpus, phi4_solutions).values()) + noise
    for r in ops:
        want = _obstructions_oracle(r)
        assert obstructions(r) == want
        rows = obstruction_rows(r)
        assert len(set(rows)) == len(rows) and all(any(row) for row in rows)
        assert all(math.gcd(*row) == 1 and next(x for x in row if x) > 0 for row in rows)
        assert la.rref(rows) == _rref_oracle(want)


def test_integer_quotient_and_form_match_fraction_oracles(corpus, phi4_solutions):
    for name, r in _integer_pipeline_cases(corpus, phi4_solutions).items():
        pres = build_LR(r)
        q, n = pres.quotient, r.dim
        assert (q.rows, q.pivots) == _rref_oracle(_obstructions_oracle(r)), name
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                want = _coset_terms_oracle(q, i, j)
                assert q.coset_terms(i, j) == want, (name, i, j)
                proj = _project_oracle(q, i, j)
                assert [proj[s] for s in q.rep_slots] == q.basis_coset(i, j)
                assert q.delta_on_coset(i, j) == _delta_on_coset_oracle(q, i, j), (name, i, j)
        # build_LR's two derivations: the coset table is sigma_0, so the round
        # trip gives back r and degree-one L1 holds
        table = _coset_table_oracle(pres.sigma.table, q)
        assert pres.sigma.coset_table == table == pres.sigma.table, name
        assert check_L1_on_generators(pres) == _check_L1_oracle(pres) == (True, None)
        assert round_trip(pres) == r, name


def test_l1_override_matches_fraction_oracle(phi4_solutions):
    """Mutated tables, integral and fractional, against the Fraction L1."""
    rng = random.Random(17)
    ops = {phi: phi4_solutions[phi] for phi in [(1, 2, 2, 2), (2, 2, 4, 4), (1, 1, 3, 3)]}
    ops.update(_dense_conjugates_4())
    ops.update(_fractional_conjugates())
    seen = set()
    for name, r in ops.items():
        pres = build_LR(r)
        size = r.dim ** 2
        for _ in range(6):
            mutated = [row[:] for row in pres.sigma.table]
            for _ in range(rng.randint(1, 2)):
                a, b = rng.randrange(size), rng.randrange(size)
                mutated[a][b] += rng.choice((F(1), F(-1), F(-1, 2), F(2, 3)))
            got = check_L1_on_generators(pres, sigma_table=mutated)
            assert got == _check_L1_oracle(pres, mutated), (name, mutated)
            seen.add(got[0])
    assert seen == {True, False}


def test_descent_checks_on_random_non_long_operators():
    """Obstruction spans of random non-Long operators: the integer quotient
    and both descent checks against their Fraction oracles."""
    rng = random.Random(23)
    outcomes = set()
    for n in (2, 3):
        for _ in range(12):
            ops = [TensorOp2(n, [[F(rng.choice((0, 0, 0, 0, 1, -1, 2)), rng.choice((1, 2)))
                                  for _ in range(n * n)] for _ in range(n * n)])
                   for _ in range(2)]
            r, other = ops
            q = QuotientCoalgebra(n, obstruction_rows(r))
            assert (q.rows, q.pivots) == _rref_oracle(_obstructions_oracle(r))
            assert _delta_descent_oracle(q)  # an obstruction span is a coideal
            for form in ops:
                want = _sigma_descent_oracle(_form_table(form), q.rows)
                if want is None:
                    SigmaForm(form, q)
                else:
                    with pytest.raises(SigmaIllDefined, match=re.escape(want)):
                        SigmaForm(form, q)
                outcomes.add(want)
    assert len(outcomes) >= 2


def test_long_witness_is_sigma_descent_on_the_obstruction_span():
    """R is Long exactly when sigma_0 descends to the span V of its
    obstruction vectors: ``long_witness(r) is None`` if and only if
    ``SigmaForm`` builds on ``QuotientCoalgebra(n, obstruction_rows(r))``
    without ``SigmaIllDefined``. The quotient never fails on such a span,
    since V is a coideal for every operator."""
    rng = random.Random(29)
    ops = _late_violation_cases()
    ops += [_seeded_candidate(rng, n, density, (-1, 1))
            for n in (2, 3) for density in (0.05, 0.2, 0.5) for _ in range(6)]
    ops += [make_phi(3, phi) for phi in [(1, 1, 3), (2, 2, 2), (1, 2, 3)]]
    outcomes = set()
    for r in ops:
        q = QuotientCoalgebra(r.dim, obstruction_rows(r))
        try:
            SigmaForm(r, q)
            descends = True
        except SigmaIllDefined:
            descends = False
        assert descends == (long_witness(r) is None), r.matrix
        outcomes.add(descends)
    assert outcomes == {True, False}


def _conjugates_of_every_rank():
    """Dense u R_phi u^-1 at n = 3 and 4, three for each rank of phi, with
    u seeded in {-2, -1, 1, 2}."""
    rng = random.Random(59)
    out = {}
    for n in (3, 4):
        for rank in range(1, n + 1):
            maps = [phi for phi in idempotent_maps(n) if len(set(phi)) == rank]
            for k in range(3):
                phi = rng.choice(maps)
                while True:
                    u = [[rng.choice((-2, -1, 1, 2)) for _ in range(n)] for _ in range(n)]
                    try:
                        out[f"conj{n}_r{rank}_{k}"] = make_conjugate(u, make_phi(n, phi))
                        break
                    except SingularMatrix:
                        pass
    return out


def test_descent_basis_gives_the_quotient_of_all_obstruction_rows(corpus, phi4_solutions):
    """The one pass that decides Long also spans V: the quotient built on
    its basis is ``QuotientCoalgebra(n, obstruction_rows(r))``, row for
    row, and the basis is already that quotient's integer RREF, at most
    n^2 - 1 rows (eps vanishes on V)."""
    cases = dict(corpus)
    cases.update({f"phi4_{''.join(map(str, phi))}": r for phi, r in phi4_solutions.items()})
    cases.update(_conjugates_of_every_rank())
    cases.update(_fractional_conjugates())
    ranks = set()
    for name, r in cases.items():
        n = r.dim
        witness, echelon = _descent_basis(r.int_form[0], n)
        assert witness is None, name
        basis = echelon.int_rows()
        want = QuotientCoalgebra(n, obstruction_rows(r))
        got = QuotientCoalgebra(n, basis)
        assert (got.rows, got.pivots, got.int_cosets) == (
            want.rows, want.pivots, want.int_cosets), name
        assert basis == la.rref_int(basis)[0] == la.rref_int(obstruction_rows(r))[0], name
        assert len(basis) == len(want.rows) <= n * n - 1, name
        assert build_LR(r).quotient.int_cosets == want.int_cosets, name
        ranks.add((n, len(basis)))
    assert {(4, 12), (4, 10), (3, 6)} <= ranks


def test_build_LR_witness_is_long_witness_and_oracle():
    """On non-Long operators the witness that ``build_LR`` raises is the one
    of ``long_witness`` and of the componentwise Fraction oracle."""
    seen = 0
    for r in _unit_candidates() + _mixed_denominator_cases() + _late_violation_cases():
        want = _long_witness_oracle(r)
        if want is None:
            continue
        with pytest.raises(NotALongSolution) as err:
            build_LR(r)
        assert err.value.witness == long_witness(r) == want, r.matrix
        seen += 1
    assert seen >= 60


def test_build_LR_rejects_before_any_rref(monkeypatch):
    """A non-Long operator is rejected by the one pass alone: with
    ``la.rref_int`` made to raise, ``build_LR`` still raises
    ``NotALongSolution``, late witnesses at n = 4 included."""
    def no_rref(rows):
        raise RuntimeError("rref_int reached")

    bad = [r for r in _late_violation_cases() + _mixed_denominator_cases()
           if _long_witness_oracle(r) is not None]
    assert len(bad) >= 30
    monkeypatch.setattr(la, "rref_int", no_rref)
    with pytest.raises(RuntimeError, match="rref_int reached"):
        build_LR(make_phi(3, (1, 1, 3)))
    for r in bad:
        with pytest.raises(NotALongSolution):
            build_LR(r)
