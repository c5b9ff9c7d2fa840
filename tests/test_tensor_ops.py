import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longeq import (
    CentralityViolated,
    InternalCheckFailed,
    NonCommutingPair,
    NotALongSolution,
    NotASubmodule,
    NotIdempotent,
    SingularMatrix,
    SingularOperator,
    TensorOp2,
    check_laws,
    check_long_componentwise,
    idempotent_maps,
    invert,
    lift,
    long_witness,
    make_conjugate,
    make_diag,
    make_graded,
    make_homothety,
    make_pair,
    make_phi,
)
from longeq import linalg as la
from longeq.tensor_ops import GradedActionData, TensorOp3, flip_matrix

from conftest import upper_pair_operator, z2_graded_data

F = Fraction


def identity_op(n):
    return TensorOp2(n, la.identity(n * n))


def op_from_entries(n, entries):
    """entries: {(u, v, j, i): coeff} in 1-based coefficient indices."""
    mat = la.zeros(n * n, n * n)
    for (u, v, j, i), x in entries.items():
        mat[(i - 1) * n + (j - 1)][(v - 1) * n + (u - 1)] = F(x)
    return TensorOp2(n, mat)


def test_coeff_matrix_roundtrip():
    r = upper_pair_operator(2, 3, 5)
    n = r.dim
    again = TensorOp2.from_coeffs(n, r.coeffs())
    assert again == r
    # spot-check Eq-(9)-style entries: x_21^11 = ac, x_22^11 = c
    assert r.coeff(2, 1, 1, 1) == 10
    assert r.coeff(2, 2, 1, 1) == 5
    assert r.coeff(1, 1, 1, 1) == 6


def test_pair_is_kron():
    f = [[1, 1], [0, 1]]
    g = [[1, 3], [0, 1]]
    r = make_pair(f, g)
    assert r.matrix == la.kron(la.to_frac_matrix(f), la.to_frac_matrix(g))


def test_lift_identity_is_identity():
    r = identity_op(2)
    for pos in (12, 13, 23):
        assert lift(r, pos) == TensorOp3.identity(2)


def test_lift_diag_hand_expansion():
    # diagonal solution with a_11 = 2, all other a_ij = 1
    r = make_diag(2, [[2, 1], [1, 1]])
    r12 = lift(r, 12)
    r13 = lift(r, 13)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                idx = a * 4 + b * 2 + c
                d12 = r12.matrix[idx][idx]
                d13 = r13.matrix[idx][idx]
                assert d12 == (2 if (a, b) == (0, 0) else 1)
                assert d13 == (2 if (a, c) == (0, 0) else 1)
                assert all(
                    r12.matrix[idx][o] == 0 for o in range(8) if o != idx
                )


def test_lift_23_matches_kron_structure():
    r = make_pair([[1, 2], [0, 1]], [[1, 5], [0, 1]])
    r23 = lift(r, 23)
    expect = la.kron(la.identity(2), r.matrix)
    assert r23.matrix == expect


def test_check_laws_identity_all_true():
    rep = check_laws(identity_op(2))
    assert rep == {law: True for law in rep}
    assert set(rep) == {
        "long", "d_equation", "qybe", "hopf", "kz_bracket", "symmetric"
    }


def test_long_implies_kz_bracket(corpus):
    for name, r in corpus.items():
        rep = check_laws(r, ["long", "kz_bracket"])
        assert rep["long"], name
        assert rep["kz_bracket"], name


def test_componentwise_matches_matrix_level_on_mutations():
    base = identity_op(2)
    # single off-diagonal coefficient x_11^22 = 1 on top of the identity
    r = op_from_entries(
        2,
        {
            (1, 1, 1, 1): 1, (2, 1, 2, 1): 1, (1, 2, 1, 2): 1, (2, 2, 2, 2): 1,
            (1, 1, 2, 2): 1,
        },
    )
    assert check_laws(r, ["long"])["long"] == check_long_componentwise(r)
    # x_12^11 = 1 perturbation
    mat = [row[:] for row in base.matrix]
    mat[0][2] = F(1)
    r2 = TensorOp2(2, mat)
    assert check_laws(r2, ["long"])["long"] == check_long_componentwise(r2)


def test_long_witness_identifies_violation():
    mat = la.identity(4)
    mat[0][2] = F(1)  # x_12^11 = 1 on top of the identity
    r = TensorOp2(2, mat)
    assert not check_long_componentwise(r)
    eq_no, (i, j, k, l, p, q) = long_witness(r)
    assert eq_no in (1, 2)
    n = 2

    def x(u, v, jj, ii):
        return r.coeff(u, v, jj, ii)

    if eq_no == 1:
        lhs = sum(x(k, v, j, i) * x(q, l, p, v) for v in range(1, n + 1))
        rhs = sum(x(k, l, j, al) * x(q, al, p, i) for al in range(1, n + 1))
    else:
        lhs = sum(x(k, v, j, i) * x(l, q, v, p) for v in range(1, n + 1))
        rhs = sum(x(k, l, j, al) * x(al, q, i, p) for al in range(1, n + 1))
    assert lhs != rhs


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-1, 1), min_size=16, max_size=16))
def test_oracle_equivalence_random(entries):
    mat = [[F(entries[r * 4 + c]) for c in range(4)] for r in range(4)]
    r = TensorOp2(2, mat)
    assert check_laws(r, ["long"])["long"] == check_long_componentwise(r)


def test_make_diag_always_long():
    r = make_diag(3, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert check_laws(r, ["long"])["long"]


def test_make_pair_requires_commuting():
    with pytest.raises(NonCommutingPair):
        make_pair([[0, 1], [0, 0]], [[1, 0], [0, 2]])


def test_make_conjugate_preserves_long():
    base = make_diag(2, [[2, 3], [5, 7]])
    r = make_conjugate([[1, 1], [0, 1]], base)
    assert check_laws(r, ["long"])["long"]


def test_make_conjugate_errors():
    base = make_diag(2, [[2, 3], [5, 7]])
    with pytest.raises(SingularMatrix):
        make_conjugate([[1, 2], [2, 4]], base)
    mat = la.identity(4)
    mat[0][2] = F(1)
    not_long = TensorOp2(2, mat)
    with pytest.raises(NotALongSolution) as err:
        make_conjugate([[1, 1], [0, 1]], not_long)
    assert err.value.witness is not None


def test_make_phi_matches_formula():
    phi = [1, 2, 2, 2]
    r = make_phi(4, phi)
    for u in range(1, 5):
        for v in range(1, 5):
            for j in range(1, 5):
                for i in range(1, 5):
                    want = F(
                        1
                        if u == v and phi[i - 1] == v and phi[j - 1] == v
                        else 0
                    )
                    assert r.coeff(u, v, j, i) == want


def test_make_phi_rejects_non_idempotent():
    with pytest.raises(NotIdempotent):
        make_phi(3, [2, 3, 1])


def test_idempotent_counts():
    assert len(list(idempotent_maps(2))) == 3
    assert len(list(idempotent_maps(3))) == 10
    assert len(list(idempotent_maps(4))) == 41


def test_make_graded_long_and_structure():
    r = make_graded(z2_graded_data())
    assert check_laws(r, ["long"])["long"]
    # R(m_v (x) m_u) = (deg(u) . m_v) (x) m_u; with the sign action of g
    assert r.coeff(1, 1, 1, 1) == 1
    assert r.coeff(2, 1, 2, 1) == 1
    assert r.coeff(2, 2, 2, 2) == -1


def test_graded_data_rejects_degree_mixing():
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    actions = {"e": [[1, 0], [0, 1]], "g": [[0, 1], [1, 0]]}
    with pytest.raises(NotASubmodule):
        GradedActionData(["e", "g"], table, actions, ["e", "g"])


def test_make_homothety_long_and_centrality():
    rep = [[[1, 0], [0, 1]], [[2, 0], [0, 3]]]
    r = make_homothety(rep, [(F(1), 1, 1), (F(2), 0, 1)])
    assert check_laws(r, ["long"])["long"]
    bad_rep = [[[0, 1], [0, 0]], [[1, 0], [0, 2]]]
    with pytest.raises(CentralityViolated):
        make_homothety(bad_rep, [(F(1), 1, 0)])


def test_invert_roundtrip_and_singular():
    r = make_pair([[1, 1], [0, 1]], [[1, 2], [0, 1]])
    rinv = invert(r)
    assert la.mat_mul(r.matrix, rinv.matrix) == la.identity(4)
    with pytest.raises(SingularOperator):
        invert(make_phi(2, [1, 1]))


def test_symmetric_law_is_flip_conjugation():
    r = upper_pair_operator(2, 3, 5)
    flip = flip_matrix(2)
    conj = la.mat_mul(flip, la.mat_mul(r.matrix, flip))
    assert check_laws(r, ["symmetric"])["symmetric"] == (conj == r.matrix)


def test_phi_solutions_symmetric():
    for phi in idempotent_maps(3):
        rep = check_laws(make_phi(3, phi), ["long", "symmetric"])
        assert rep["long"] and rep["symmetric"]


def test_kz_bracket_internal_check_raises(monkeypatch):
    """Long implies the KZ bracket; a failure raises InternalCheckFailed, which
    survives ``python -O``. Forced by a mat_add whose result commutes with no
    non-scalar R12."""
    r = make_phi(2, [1, 2])
    assert check_laws(r, ["long", "kz_bracket"]) == {"long": True, "kz_bracket": True}
    monkeypatch.setattr(la, "mat_add", lambda a, b: [
        [Fraction(i * len(a) + j) for j in range(len(a))] for i in range(len(a))
    ])
    with pytest.raises(InternalCheckFailed, match="KZ bracket"):
        check_laws(r, ["long", "kz_bracket"])


def _long_witness_oracle(r: TensorOp2):
    """The componentwise Long check over Fractions, straight from the two
    equations; the slow reference for the integer ``long_witness``."""
    n = r.dim
    x = r.coeff
    rng = range(1, n + 1)
    zero = F(0)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    for p in rng:
                        for q in rng:
                            lhs = sum((x(k, v, j, i) * x(q, l, p, v) for v in rng), zero)
                            rhs = sum((x(k, l, j, a) * x(q, a, p, i) for a in rng), zero)
                            if lhs != rhs:
                                return (1, (i, j, k, l, p, q))
                            lhs = sum((x(k, v, j, i) * x(l, q, v, p) for v in rng), zero)
                            rhs = sum((x(k, l, j, a) * x(a, q, i, p) for a in rng), zero)
                            if lhs != rhs:
                                return (2, (i, j, k, l, p, q))
    return None


def _seeded_candidate(rng, n, density, values):
    return TensorOp2(n, [
        [rng.choice(values) if rng.random() < density else 0 for _ in range(n * n)]
        for _ in range(n * n)
    ])


def test_long_witness_matches_oracle_on_corpus(corpus):
    for name, r in corpus.items():
        assert long_witness(r) is None and _long_witness_oracle(r) is None, name


def test_long_witness_matches_oracle_on_phi4(phi4_solutions):
    assert len(phi4_solutions) == 41
    for phi, r in phi4_solutions.items():
        assert long_witness(r) is None, phi
        assert _long_witness_oracle(r) is None, phi


def test_long_witness_matches_oracle_on_unit_candidates():
    rng = random.Random(20240601)
    hits = 0
    for n in (2, 3, 4):
        for density in (0.02, 0.05, 0.2, 0.5):
            for _ in range(12 if n < 4 else 6):
                r = _seeded_candidate(rng, n, density, (-1, 1))
                want = _long_witness_oracle(r)
                assert long_witness(r) == want, (n, density, r.matrix)
                hits += want is not None
    assert hits > 0


def test_long_witness_matches_oracle_with_mixed_denominators():
    """Entries over 2, 3 and 6: the witness of the cleared-denominator
    integer family must be the witness of the rational one."""
    rng = random.Random(7)
    values = (F(1, 2), F(-1, 3), F(5, 6), F(-2), F(1, 3))
    cases = [_seeded_candidate(rng, n, density, values)
             for n in (2, 3) for density in (0.05, 0.2, 0.6) for _ in range(8)]
    # solutions with fractional entries, and late violations of them
    sol = make_conjugate([[1, 2], [0, 3]], make_diag(2, [[F(1, 2), F(2, 3)], [3, F(-1, 5)]]))
    cases.append(sol)
    for pos in ((0, 0), (3, 3), (2, 1)):
        mat = [row[:] for row in sol.matrix]
        mat[pos[0]][pos[1]] += F(1, 7)
        cases.append(TensorOp2(2, mat))
    cases.append(make_conjugate([[1, 1, 0], [0, 2, 1], [1, 0, 3]], make_phi(3, [1, 1, 3])))
    assert any(c.matrix[a][b].denominator > 1 for c in cases[-5:]
               for a in range(len(c.matrix)) for b in range(len(c.matrix)))
    for r in cases:
        assert long_witness(r) == _long_witness_oracle(r), r.matrix
    assert long_witness(sol) is None and long_witness(cases[-1]) is None
