import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longeq import (
    LAWS,
    CentralityViolated,
    DimensionCap,
    InternalCheckFailed,
    KZSystem,
    NonCommutingPair,
    NotALongSolution,
    NotASubmodule,
    NotIdempotent,
    SingularMatrix,
    SingularOperator,
    TensorOp2,
    check_laws,
    idempotent_maps,
    invert,
    long_witness,
    make_conjugate,
    make_diag,
    make_graded,
    make_homothety,
    make_pair,
    make_phi,
)
from longeq import linalg as la
from longeq import jsonio, kz, tensor_ops
from longeq.scalars import frac_str
from longeq.tensor_ops import GradedActionData, lift, lift_exact

from conftest import flip_matrix, upper_pair_operator, z2_graded_data

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
        assert lift(r, pos) == la.identity(8)


def test_lift_is_lift_exact_on_its_slots(corpus):
    """``lift(r, p)`` is ``lift_exact`` on the slots that p names, as a
    plain list of Fraction rows; any other p is refused."""
    for r in corpus.values():
        for p, (i, j) in ((12, (0, 1)), (13, (0, 2)), (23, (1, 2))):
            got = lift(r, p)
            assert type(got) is list and all(type(row) is list for row in got)
            assert all(isinstance(x, F) for row in got for x in row)
            assert got == lift_exact(r, i, j, 3), p
    for p in (21, 0, "12"):
        with pytest.raises(ValueError, match="positions must be 12, 13 or 23"):
            lift(identity_op(2), p)


def test_lift_diag_hand_expansion():
    # diagonal solution with a_11 = 2, all other a_ij = 1
    r = make_diag(2, [[2, 1], [1, 1]])
    r12 = lift(r, 12)
    r13 = lift(r, 13)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                idx = a * 4 + b * 2 + c
                d12 = r12[idx][idx]
                d13 = r13[idx][idx]
                assert d12 == (2 if (a, b) == (0, 0) else 1)
                assert d13 == (2 if (a, c) == (0, 0) else 1)
                assert all(
                    r12[idx][o] == 0 for o in range(8) if o != idx
                )


def test_lift_23_matches_kron_structure():
    r = make_pair([[1, 2], [0, 1]], [[1, 5], [0, 1]])
    r23 = lift(r, 23)
    expect = la.kron(la.identity(2), r.matrix)
    assert r23 == expect


def _slot_blocks_oracle(n, i, j, N):
    """The slot blocks by ``itertools.product`` over the other slots' digits:
    the oracle of ``tensor_ops._slot_blocks``."""
    others = [k for k in range(N) if k != i and k != j]
    weights = [n ** (N - 1 - k) for k in range(N)]
    for rest in itertools.product(range(n), repeat=N - 2):
        base = sum(rest[t] * weights[others[t]] for t in range(N - 2))
        yield [
            base + ai * weights[i] + aj * weights[j]
            for ai in range(n)
            for aj in range(n)
        ]


def test_slot_blocks_match_the_product_oracle():
    """The arithmetic slot blocks are the oracle's, block for block and in
    its order, for every ordered pair of slots at n <= 4 and N <= 5; each
    set of blocks partitions the basis."""
    for n in range(1, 5):
        for N in range(2, 6):
            for i, j in itertools.permutations(range(N), 2):
                blocks = tensor_ops._slot_blocks(n, i, j, N).tolist()
                assert blocks == list(_slot_blocks_oracle(n, i, j, N)), (n, i, j, N)
                assert sorted(x for b in blocks for x in b) == list(range(n ** N))


def test_slot_blocks_are_one_shared_read_only_array():
    """A repeat call returns the same array, and writing to it, or to a
    view of it, raises, so no reader can corrupt the blocks that every
    later lift reads."""
    blocks = tensor_ops._slot_blocks(3, 2, 0, 4)
    assert tensor_ops._slot_blocks(3, 2, 0, 4) is blocks
    assert blocks.shape == (9, 9) and blocks.dtype.kind == "i"
    with pytest.raises(ValueError):
        blocks[0, 0] = 1
    with pytest.raises(ValueError):
        blocks[:, 1:].fill(0)


def test_check_laws_identity_all_true():
    rep = check_laws(identity_op(2))
    assert rep == {law: True for law in rep}
    assert set(rep) == {
        "long", "d_equation", "qybe", "hopf", "kz_bracket", "symmetric"
    }


def test_check_laws_refuses_an_empty_or_unknown_law_list():
    """An empty list would verify nothing and ``check_laws`` returned {}
    for it; it is a ValueError, and so is an unknown name, whose message
    lists the laws to choose from. ``None`` still asks for all of them."""
    r = make_phi(2, [1, 1])
    with pytest.raises(ValueError, match="^the law list names nothing; give at least one law$"):
        check_laws(r, [])
    with pytest.raises(ValueError) as exc:
        check_laws(r, ["long", "bogus"])
    assert str(exc.value) == f"unknown laws: ['bogus']; choose from {LAWS}"


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
    assert check_laws(r, ["long"])["long"] == (long_witness(r) is None)
    # x_12^11 = 1 perturbation
    mat = [row[:] for row in base.matrix]
    mat[0][2] = F(1)
    r2 = TensorOp2(2, mat)
    assert check_laws(r2, ["long"])["long"] == (long_witness(r2) is None)


def test_long_witness_identifies_violation():
    mat = la.identity(4)
    mat[0][2] = F(1)  # x_12^11 = 1 on top of the identity
    r = TensorOp2(2, mat)
    assert long_witness(r) is not None
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
    assert check_laws(r, ["long"])["long"] == (long_witness(r) is None)


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_make_conjugate_matches_the_inverse_of_the_kron(n):
    """(u (x) u)^{-1} = u^{-1} (x) u^{-1}: on seeded u with fraction
    entries, ``make_conjugate`` gives the conjugate formed with the inverse
    of the n^2 x n^2 kron(u, u), and a singular u is refused with the same
    message."""
    rng = random.Random(n)
    maps = idempotent_maps(n)
    done = 0
    while done < 4:
        u = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        pass_mat = la.kron(u, u)
        r = make_phi(n, rng.choice(maps))
        try:
            pass_inv = la.mat_inv(pass_mat)
        except ValueError:
            with pytest.raises(SingularMatrix, match="^u is not invertible$"):
                make_conjugate(u, r)
            continue
        want = la.mat_mul(pass_mat, la.mat_mul(r.matrix, pass_inv))
        assert make_conjugate(u, r) == TensorOp2(n, want)
        done += 1
    singular = [[F(k + 1)] * n for k in range(n)]
    with pytest.raises(SingularMatrix, match="^u is not invertible$"):
        make_conjugate(singular, make_phi(n, maps[0]))


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


def test_tensor_op_repr_names_the_dimension():
    assert repr(make_phi(3, [1, 1, 3])) == "TensorOp2(dim=3)"


def test_idempotent_counts():
    """1, 1, 3, 10, 41, 196, 1057 idempotent maps on {1..n} for n = 0..6
    (OEIS A000248), each idempotent, listed in strictly increasing order."""
    for n, count in enumerate((1, 1, 3, 10, 41, 196, 1057)):
        maps = idempotent_maps(n)
        assert len(maps) == count, n
        assert all(len(phi) == n and all(phi[p - 1] == p for p in phi) for phi in maps), n
        assert all(a < b for a, b in zip(maps, maps[1:])), n


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


def _first_noncentral(rep, element):
    """The first generator a with sum c (L a) (x) R != sum c (a L) (x) R,
    each side summed term by term with dense kron products; None when there
    is none."""
    rep = [la.to_frac_matrix(m) for m in rep]
    n = len(rep[0])
    for idx, a in enumerate(rep):
        l_a, a_l = la.zeros(n * n, n * n), la.zeros(n * n, n * n)
        for c, li, ri in element:
            l_a = la.mat_add(l_a, la.mat_scale(la.kron(la.mat_mul(rep[li], a), rep[ri]), c))
            a_l = la.mat_add(a_l, la.mat_scale(la.kron(la.mat_mul(a, rep[li]), rep[ri]), c))
        if l_a != a_l:
            return idx
    return None


def test_make_homothety_long_and_centrality():
    rep = [[[1, 0], [0, 1]], [[2, 0], [0, 3]]]
    r = make_homothety(rep, [(F(1), 1, 1), (F(2), 0, 1)])
    assert check_laws(r, ["long"])["long"]
    bad_rep = [[[0, 1], [0, 0]], [[1, 0], [0, 2]]]
    with pytest.raises(CentralityViolated):
        make_homothety(bad_rep, [(F(1), 1, 0)])
    # seeded specs, a third of them with diagonal (commuting) generators,
    # against the term-by-term sum
    rng = random.Random(2026)
    verdicts = []
    for k in range(40):
        n = rng.choice((2, 3))
        diagonal = k % 3 == 0
        rep = [[[rng.randint(-2, 2) if i == j or not diagonal else 0 for j in range(n)]
                for i in range(n)] for _ in range(3)]
        element = [(F(rng.randint(-3, 3)), rng.randrange(3), rng.randrange(3))
                   for _ in range(rng.randint(1, 3))]
        bad = _first_noncentral(rep, element)
        verdicts.append(bad)
        if bad is None:
            r = make_homothety(rep, element)
            assert check_laws(r, ["long"])["long"]
        else:
            with pytest.raises(CentralityViolated, match=rf"rep\[{bad}\]$"):
                make_homothety(rep, element)
    assert verdicts.count(None) >= 5 and len(set(verdicts)) == 4


@pytest.mark.parametrize("index", [-1, 2, 5, True, 1.0, "0"])
def test_make_homothety_refuses_an_element_index_out_of_range(index):
    """An element index that is not an int in 0..len(rep) - 1 is a
    ValueError, on either leg; -1 built rep[-1] (x) rep[0] and 5 raised a
    bare IndexError."""
    rep = [[[1, 0], [0, 1]], [[2, 0], [0, 3]]]
    want = f"element index must be an integer index in [0, 2), got {index!r}"
    for term in ((F(1), index, 0), (F(1), 0, index)):
        with pytest.raises(ValueError) as exc:
            make_homothety(rep, [(F(1), 1, 1), term])
        assert str(exc.value) == want


@pytest.mark.parametrize("term", [(F(1), 0), [F(1), 0, 0, 0], (), 7, "abc", None])
def test_make_homothety_refuses_a_malformed_term_by_name(term):
    """A term that is not a 3-item list or tuple is refused with the message
    ``construct homothety`` prints, before any coefficient or index is read;
    ``(1, 0)`` raised a bare "not enough values to unpack"."""
    rep = [[[1, 0], [0, 1]]]
    with pytest.raises(ValueError) as exc:
        make_homothety(rep, [("x", 5, 5), term])
    assert str(exc.value) == "element terms must be [coeff, left index, right index] lists"


def test_make_homothety_reads_coefficients_as_fraction_strings():
    """A coefficient is read by ``parse_frac``: ints, Fractions and the wire
    strings give one operator, and a string it refuses is a ValueError."""
    rep = [[[1, 0], [0, 1]], [[2, 0], [0, 3]]]
    want = make_homothety(rep, [(F(1, 2), 1, 1), (F(-2), 0, 1)])
    assert make_homothety(rep, [("1/2", 1, 1), [-2, 0, 1]]) == want
    for bad in ("1/0", "1.5", True):
        with pytest.raises(ValueError):
            make_homothety(rep, [(bad, 0, 0)])


def _cap_builds():
    """Each constructor at n = 3, as a thunk."""
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    table = {(g, h): "e" if g == h else "g" for g in "eg" for h in "eg"}
    actions = {"e": eye, "g": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}
    return {
        "phi": lambda: make_phi(3, [1, 2, 3]),
        "diag": lambda: make_diag(3, eye),
        "pair": lambda: make_pair(eye, eye),
        "graded": lambda: make_graded(GradedActionData(["e", "g"], table, actions,
                                                       ["e", "g", "e"])),
        "homothety": lambda: make_homothety([eye], [(F(2), 0, 0)]),
    }


@pytest.mark.parametrize("kind", ["phi", "diag", "pair", "graded", "homothety"])
def test_constructors_refuse_n_cubed_above_the_cap(monkeypatch, kind):
    """Every ``make_*`` refuses n^3 above ``LONGEQ_MAX_DIM`` with the
    message of ``construct``, before it builds an operator; under the
    default cap the same call builds it."""
    build = _cap_builds()[kind]
    assert build().dim == 3
    monkeypatch.setenv("LONGEQ_MAX_DIM", "8")
    monkeypatch.setattr(tensor_ops, "TensorOp2", lambda *a: pytest.fail("built"))
    with pytest.raises(DimensionCap) as exc:
        build()
    assert str(exc.value) == "operator dim 3: n^3 = 27 exceeds cap 8"


def test_make_phi_refuses_n_17_under_the_default_cap(monkeypatch):
    """n = 17 (n^3 = 4913) is above the default cap of 4096, which the CLI
    and the API share: ``kz.max_dim`` and ``jsonio.check_operator_dim`` are
    the ``tensor_ops`` ones."""
    monkeypatch.delenv("LONGEQ_MAX_DIM", raising=False)
    with pytest.raises(DimensionCap, match=r"^operator dim 17: n\^3 = 4913 exceeds cap 4096$"):
        make_phi(17, [1] * 17)
    assert make_phi(16, [1] * 16).dim == 16
    assert kz.max_dim is tensor_ops.max_dim and tensor_ops.max_dim() == 4096
    assert jsonio.check_operator_dim is tensor_ops.check_operator_dim


def test_invert_roundtrip_and_singular():
    r = make_pair([[1, 1], [0, 1]], [[1, 2], [0, 1]])
    rinv = invert(r)
    assert la.mat_mul(r.matrix, rinv.matrix) == la.identity(4)
    with pytest.raises(SingularOperator):
        invert(make_phi(2, [1, 1]))


def test_symmetric_law_is_flip_conjugation(corpus):
    """``check_laws`` and ``KZSystem.from_op`` share the index-permutation
    predicate; both equal tau R tau == R built from ``flip_matrix``."""
    rng = random.Random(11)
    cases = list(corpus.values())
    for n in (2, 3):
        for k in range(12):
            r = _seeded_candidate(rng, n, (0.1, 0.4, 0.8)[k % 3], (-1, 0, 1))
            cases.append(_symmetrized(r) if k % 2 else r)
    seen = set()
    for r in cases:
        flip = flip_matrix(r.dim)
        want = la.mat_mul(flip, la.mat_mul(r.matrix, flip)) == r.matrix
        assert check_laws(r, ["symmetric"]) == {"symmetric": want}
        assert KZSystem.from_op(r, 2, 0.1).symmetric == want
        seen.add(want)
    assert seen == {True, False}
    assert not check_laws(corpus["pair_235"], ["symmetric"])["symmetric"]
    assert not check_laws(corpus["diag_2"], ["symmetric"])["symmetric"]


def test_phi_solutions_symmetric():
    for phi in idempotent_maps(3):
        rep = check_laws(make_phi(3, phi), ["long", "symmetric"])
        assert rep["long"] and rep["symmetric"]


def test_kz_bracket_internal_check_raises(monkeypatch):
    """Long implies the KZ bracket; a failure raises InternalCheckFailed, which
    survives ``python -O``. Forced by a sparse sum R13 + R23 that commutes
    with no non-scalar R12."""
    r = make_phi(2, [1, 2])
    assert check_laws(r, ["long", "kz_bracket"]) == {"long": True, "kz_bracket": True}
    monkeypatch.setattr(tensor_ops, "_sparse_add", lambda a, b: {
        i: {j: i * 8 + j for j in range(8)} for i in range(8)
    })
    with pytest.raises(InternalCheckFailed, match="KZ bracket"):
        check_laws(r, ["long", "kz_bracket"])


def _long_witness_oracle(r: TensorOp2):
    """The componentwise Long check over Fractions, straight from the two
    equations; the slow reference for the integer ``long_witness``.

    ``x[u][v][j][i]`` is the 0-based table of x[u,v,j,i] = ``r.coeff``
    read off ``r.matrix`` here, so the oracle shares no code with the
    package; witnesses are the 1-based tuples."""
    n = r.dim
    m = r.matrix
    rng = range(n)
    x = [[[[m[i * n + j][v * n + u] for i in rng] for j in rng] for v in rng] for u in rng]
    zero = F(0)
    for i in rng:
        for j in rng:
            for k in rng:
                # x[k,v,j,i] over v, and x[k,l,j,a] over a for each l; a zero
                # first factor contributes no product
                first = [(v, x[k][v][j][i]) for v in rng if x[k][v][j][i]]
                for l in rng:
                    second = [(a, x[k][l][j][a]) for a in rng if x[k][l][j][a]]
                    for p in rng:
                        for q in rng:
                            lhs = sum((c * x[q][l][p][v] for v, c in first), zero)
                            rhs = sum((c * x[q][a][p][i] for a, c in second), zero)
                            if lhs != rhs:
                                return (1, (i + 1, j + 1, k + 1, l + 1, p + 1, q + 1))
                            lhs = sum((c * x[l][q][v][p] for v, c in first), zero)
                            rhs = sum((c * x[a][q][i][p] for a, c in second), zero)
                            if lhs != rhs:
                                return (2, (i + 1, j + 1, k + 1, l + 1, p + 1, q + 1))
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


def _unit_candidates():
    """Seeded {-1, 0, 1} candidates at n = 2, 3, 4 and densities 0.02 to 0.5."""
    rng = random.Random(20240601)
    return [_seeded_candidate(rng, n, density, (-1, 1))
            for n in (2, 3, 4) for density in (0.02, 0.05, 0.2, 0.5)
            for _ in range(12 if n < 4 else 6)]


def test_long_witness_matches_oracle_on_unit_candidates():
    hits = 0
    for r in _unit_candidates():
        want = _long_witness_oracle(r)
        assert long_witness(r) == want, r.matrix
        hits += want is not None
    assert hits > 0


def _mixed_denominator_cases():
    """Seeded candidates with entries over 2, 3 and 6; a solution with
    fractional entries (``cases[-5]``), three late violations of it, and a
    conjugate by an integer U (``cases[-1]``, also a solution)."""
    rng = random.Random(7)
    values = (F(1, 2), F(-1, 3), F(5, 6), F(-2), F(1, 3))
    cases = [_seeded_candidate(rng, n, density, values)
             for n in (2, 3) for density in (0.05, 0.2, 0.6) for _ in range(8)]
    sol = make_conjugate([[1, 2], [0, 3]], make_diag(2, [[F(1, 2), F(2, 3)], [3, F(-1, 5)]]))
    cases.append(sol)
    for pos in ((0, 0), (3, 3), (2, 1)):
        mat = [row[:] for row in sol.matrix]
        mat[pos[0]][pos[1]] += F(1, 7)
        cases.append(TensorOp2(2, mat))
    cases.append(make_conjugate([[1, 1, 0], [0, 2, 1], [1, 0, 3]], make_phi(3, [1, 1, 3])))
    return cases


def test_long_witness_matches_oracle_with_mixed_denominators():
    """Entries over 2, 3 and 6: the witness of the cleared-denominator
    integer family must be the witness of the rational one."""
    cases = _mixed_denominator_cases()
    assert any(c.matrix[a][b].denominator > 1 for c in cases[-5:]
               for a in range(len(c.matrix)) for b in range(len(c.matrix)))
    for r in cases:
        assert long_witness(r) == _long_witness_oracle(r), r.matrix
    assert long_witness(cases[-5]) is None and long_witness(cases[-1]) is None


def _late_violation_cases():
    """n = 4 Long solutions and one-entry perturbations of them.

    The bases are dense conjugates by random integer U, a dense conjugate
    by a fractional U (D > 1), and conjugates by near-identity U with a
    fractional entry, whose sparse coefficient families push the first
    violation deep into the (i, j, k, l) order. Each base is perturbed by
    1/7 at seeded positions of its matrix view.
    """
    rng = random.Random(41)
    bases = [_random_conjugate(rng, 4, make_phi(4, phi)) for phi in ([1] * 4, [1, 2, 2, 4])]
    bases.append(make_conjugate([[1, F(1, 2), 0, -1], [F(-1, 3), 1, 1, 0],
                                 [0, 2, F(1, 2), 1], [1, 0, -1, F(2, 5)]],
                                make_phi(4, (1, 2, 3, 3))))
    bases.append(make_conjugate([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, F(1, 2)], [0, 0, 0, 1]],
                                make_phi(4, (1, 2, 2, 4))))
    bases.append(make_conjugate([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, F(2, 3), 0], [0, 1, 0, 1]],
                                make_phi(4, (1, 1, 3, 3))))
    cases = list(bases)
    for base in bases:
        for _ in range(8):
            mat = [row[:] for row in base.matrix]
            mat[rng.randrange(16)][rng.randrange(16)] += F(1, 7)
            cases.append(TensorOp2(4, mat))
        # the last entry: its violations start late in the column order
        mat = [row[:] for row in base.matrix]
        mat[15][15] += F(1, 7)
        cases.append(TensorOp2(4, mat))
    return cases


def test_long_witness_matches_oracle_on_late_violations_n4():
    """Deep witnesses (i >= 3) and witnesses where equation 2 fails first
    must be the oracle's: the descent kernel skips zero and repeated rows
    and reads both equations per column."""
    witnesses = []
    for r in _late_violation_cases():
        want = _long_witness_oracle(r)
        assert long_witness(r) == want, r.matrix
        witnesses.append(want)
    assert witnesses[:5] == [None] * 5
    found = [w for w in witnesses if w is not None]
    assert len(found) >= 30
    assert any(eq == 2 for eq, _ in found)
    assert any(idx[0] >= 3 for _, idx in found)
    assert any(eq == 2 and idx[0] >= 3 for eq, idx in found)
    assert any(idx[4:] == (4, 4) for _, idx in found)


def _check_laws_oracle(r: TensorOp2, laws=None) -> dict:
    """The law report on dense n^3 x n^3 Fraction lifts (``lift``,
    ``linalg.mat_mul`` and ``flip_matrix``); the slow reference for the
    sparse integer ``check_laws``, with the same key order and the same
    KZ-bracket raise."""
    wanted = set(LAWS) if laws is None else set(laws)
    m12, m13, m23 = (lift(r, positions) for positions in (12, 13, 23))
    report = {}
    need_long = bool({"long", "kz_bracket"} & wanted)
    long_ok = None
    if need_long or "d_equation" in wanted:
        eq2 = la.mat_mul(m12, m23) == la.mat_mul(m23, m12)
        if "d_equation" in wanted:
            report["d_equation"] = eq2
    if need_long:
        eq1 = la.mat_mul(m12, m13) == la.mat_mul(m13, m12)
        long_ok = eq1 and eq2
        if "long" in wanted:
            report["long"] = long_ok
    if "qybe" in wanted:
        lhs = la.mat_mul(la.mat_mul(m12, m13), m23)
        rhs = la.mat_mul(la.mat_mul(m23, m13), m12)
        report["qybe"] = lhs == rhs
    if "hopf" in wanted:
        lhs = la.mat_mul(la.mat_mul(m23, m13), m12)
        report["hopf"] = lhs == la.mat_mul(m12, m23)
    if "kz_bracket" in wanted:
        s = la.mat_add(m13, m23)
        kz = la.mat_mul(m12, s) == la.mat_mul(s, m12)
        if long_ok and not kz:
            raise InternalCheckFailed("Long holds but the KZ bracket does not")
        report["kz_bracket"] = kz
    if "symmetric" in wanted:
        t = flip_matrix(r.dim)
        report["symmetric"] = la.mat_mul(t, la.mat_mul(r.matrix, t)) == r.matrix
    return report


def _assert_laws_match_oracle(cases, laws=None):
    """check_laws equals the dense oracle, key order included, on every case;
    returns the reports."""
    reports = []
    for r in cases:
        got = check_laws(r, laws)
        assert list(got.items()) == list(_check_laws_oracle(r, laws).items()), r.matrix
        reports.append(got)
    return reports


def _random_conjugate(rng, n, base):
    """``make_conjugate`` of ``base`` by a random integer U in [-3, 3]."""
    while True:
        u = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            return make_conjugate(u, base)
        except SingularMatrix:
            pass


def _symmetrized(r):
    flip = flip_matrix(r.dim)
    return TensorOp2(r.dim, la.mat_add(r.matrix, la.mat_mul(flip, la.mat_mul(r.matrix, flip))))


def _law_candidates():
    """Seeded {-1, 0, 1} candidates at n = 2..4 (some flip-symmetrized) and
    operators with denominators 2, 3, 5, 6 and 7, solutions among them."""
    rng = random.Random(20261018)
    cases = []
    for n, count in ((2, 60), (3, 40), (4, 20)):
        for k in range(count):
            r = _seeded_candidate(rng, n, (0.03, 0.1, 0.3, 0.6)[k % 4], (-1, 0, 1))
            cases.append(_symmetrized(r) if k % 5 == 0 else r)
    values = (F(1, 2), F(-1, 3), F(2, 5), F(5, 6), F(-3, 7), F(1))
    cases += [_seeded_candidate(rng, n, density, values)
              for n in (2, 3) for density in (0.05, 0.2, 0.6) for _ in range(3)]
    sol = make_conjugate([[1, 2], [0, 3]], make_diag(2, [[F(1, 2), F(2, 3)], [3, F(-1, 5)]]))
    cases += [sol, make_conjugate([[1, 1, 0], [0, 2, 1], [1, 0, 3]], make_phi(3, [1, 1, 3]))]
    for pos in ((0, 0), (3, 3), (2, 1)):
        mat = [row[:] for row in sol.matrix]
        mat[pos[0]][pos[1]] += F(1, 7)
        cases.append(TensorOp2(2, mat))
    # one half of the Long system without the other: f (x) g with fg != gf
    # keeps R12 R13 = R13 R12 only, and E12 (x) 1 + E21 (x) E33 (its right
    # legs commute with every left leg) keeps R12 R23 = R23 R12 only
    f, g = [[1, 1], [0, 1]], [[1, 0], [1, 1]]
    cases.append(TensorOp2(2, la.kron(la.to_frac_matrix(f), la.to_frac_matrix(g))))
    e = [[[F(int((a, b) == ij)) for b in range(3)] for a in range(3)]
         for ij in ((0, 1), (1, 0), (2, 2))]
    cases.append(TensorOp2(3, la.mat_add(la.kron(e[0], la.identity(3)), la.kron(e[1], e[2]))))
    return cases


def test_check_laws_matches_dense_oracle_on_candidates(corpus):
    cases = list(corpus.values()) + _law_candidates()
    assert len(cases) >= 120 + 20
    denominators = {c.denominator for r in cases for row in r.matrix for c in row}
    assert {2, 3, 5, 6, 7} <= denominators
    reports = _assert_laws_match_oracle(cases)
    for law in LAWS:
        assert {rep[law] for rep in reports} == {True, False}, law
    assert reports[-1]["d_equation"] and not reports[-1]["long"]
    assert not reports[-2]["d_equation"] and not reports[-2]["long"]
    for laws in (["symmetric", "hopf", "d_equation"], ["kz_bracket"], ["qybe", "long"]):
        _assert_laws_match_oracle(cases[::7], laws)


def test_check_laws_matches_dense_oracle_on_phi4(phi4_solutions):
    assert len(phi4_solutions) == 41
    for rep in _assert_laws_match_oracle(phi4_solutions.values()):
        assert all(rep.values())


def test_check_laws_matches_dense_oracle_on_dense_n4_conjugates():
    """Dense n=4 rational solutions; the oracle takes about 2 s on each."""
    rng = random.Random(3)
    cases = [_random_conjugate(rng, 4, make_phi(4, phi)) for phi in ([1] * 4, [1, 1, 3, 3])]
    assert all(la.clear_denominators(r.matrix)[1] > 1 for r in cases)
    for rep in _assert_laws_match_oracle(cases):
        assert rep["long"] and rep["kz_bracket"]


def test_hopf_clears_denominators_inhomogeneously():
    """Hopf has sides of degree 3 and 2, so on Z = D R it reads
    Z23 Z13 Z12 = D Z12 Z23. A conjugated solution with D = 81 satisfies it,
    with both sides nonzero, so a check that drops the factor D fails here."""
    r = _random_conjugate(random.Random(1), 2, make_phi(2, [1, 1]))
    assert la.clear_denominators(r.matrix)[1] == 81
    assert check_laws(r, ["hopf"]) == _check_laws_oracle(r, ["hopf"]) == {"hopf": True}
    r12, r23 = lift(r, 12), lift(r, 23)
    assert any(any(row) for row in la.mat_mul(r12, r23))


def test_long_witness_forms_rows_only_for_independent_table_columns(monkeypatch):
    """o(i,j,k,l) is linear in column jk of the integer form, so the pass
    forms vectors only for the columns independent of the ones before
    them: at most n^2 rank(form) of the n^4, and the same witnesses."""
    formed = []
    vectors = tensor_ops._obstruction_vectors

    def counted(table, n, key=None):
        for tag, vec in vectors(table, n, key):
            formed.append(tag)
            yield tag, vec

    rng = random.Random(5)
    ops = [_random_conjugate(rng, 4, make_phi(4, phi)) for phi in ([1] * 4, [1, 2, 2, 4])]
    ops += [make_phi(4, (1, 2, 3, 3)), _late_violation_cases()[-1]]
    monkeypatch.setattr(tensor_ops, "_obstruction_vectors", counted)
    for r in ops:
        formed.clear()
        assert long_witness(r) == _long_witness_oracle(r)
        table = r.int_form[0]
        rank = len(la.rref_int([list(col) for col in zip(*table)])[0])
        assert len(formed) <= 16 * rank < 256, r.matrix


# The dense formulas of TensorOp2 and its readers from when the operator was
# held as its n^2 x n^2 Fraction matrix: the oracles of the sparse rows.


def _dense_int_form(m, n):
    z, d = la.clear_denominators(m)
    return tensor_ops._form(z, n), d


def _dense_lift(z, n, i, j, N):
    nonzero = [[(b, x) for b, x in enumerate(row) if x] for row in z]
    out = {}
    for idxs in tensor_ops._slot_blocks(n, i, j, N).tolist():
        for a, ra in enumerate(idxs):
            if nonzero[a]:
                out[ra] = {idxs[b]: x for b, x in nonzero[a]}
    return out


def _dense_lift_exact(m, n, i, j, N):
    out = la.zeros(n ** N, n ** N)
    for idxs in tensor_ops._slot_blocks(n, i, j, N).tolist():
        for a, ra in enumerate(idxs):
            for b, cb in enumerate(idxs):
                if m[a][b]:
                    out[ra][cb] = m[a][b]
    return out


def _dense_flip_invariant(m, n):
    flip = [(a % n) * n + a // n for a in range(n * n)]
    return all(m[flip[a]][flip[b]] == x for a, row in enumerate(m) for b, x in enumerate(row))


def _dense_coeff(m, n, u, v, j, i):
    return m[(i - 1) * n + (j - 1)][(v - 1) * n + (u - 1)]


def _dense_operator_to_json(m, n):
    entries = []
    for col in range(n * n):
        v, u = divmod(col, n)
        for row in range(n * n):
            x = m[row][col]
            if x:
                i, j = divmod(row, n)
                entries.append(
                    {"v": v + 1, "u": u + 1, "i": i + 1, "j": j + 1, "coeff": frac_str(x)}
                )
    return {"dim": n, "entries": entries}


def _sparse_state_cases(corpus, phi4_solutions):
    """(n, dense matrix) pairs: the corpus (every phi at n <= 3), every phi at
    n = 4, R_x = I (x) E12 + E33 (x) E21, and seeded candidates at n = 2..4
    with entries in {-1, 0, 1} or over mixed denominators."""
    cases = [(r.dim, r.matrix) for r in (*corpus.values(), *phi4_solutions.values())]
    e = [[[int((i, j) == (a, b)) for j in range(3)] for i in range(3)]
         for a in range(3) for b in range(3)]
    cases.append((3, la.mat_add(la.kron(la.identity(3), e[1]), la.kron(e[8], e[3]))))
    rng = random.Random(2025)
    for values in ((-1, 1), (F(1, 2), F(-1, 3), F(5, 6), -2, F(3, 4))):
        for n, density in itertools.product((2, 3, 4), (0.05, 0.2, 0.5)):
            for _ in range(4):
                cases.append((n, [[rng.choice(values) if rng.random() < density else 0
                                   for _ in range(n * n)] for _ in range(n * n)]))
    return cases


def test_sparse_state_matches_dense_oracle(corpus, phi4_solutions):
    """``cleared``, ``int_form``, ``lifts``, ``lift_exact``,
    ``flip_invariant``, ``coeff``, ``__eq__``, the ``matrix`` view and the
    ``operator_to_json`` bytes of an operator built from a dense matrix, and
    of the one read back from its JSON, are the dense formulas' values."""
    cases = _sparse_state_cases(corpus, phi4_solutions)
    assert len(cases) == 22 + 41 + 1 + 72
    assert any(x.denominator > 1 for _, m in cases for row in m for x in map(F, row))
    flips = 0
    for k, (n, dense) in enumerate(cases):
        m = la.to_frac_matrix(dense)
        r = TensorOp2(n, dense)
        wire = json.dumps(_dense_operator_to_json(m, n), indent=2)
        assert json.dumps(jsonio.operator_to_json(r), indent=2) == wire, k
        z, d = la.clear_denominators(m)
        for op in (r, jsonio.operator_from_json(json.loads(wire))):
            assert op.cleared == ({a: {b: x for b, x in enumerate(row) if x}
                                   for a, row in enumerate(z) if any(row)}, d), k
            assert op.int_form == _dense_int_form(m, n), k
            assert op.lifts == [_dense_lift(z, n, i, j, 3) for i, j in ((0, 1), (0, 2), (1, 2))]
            assert lift_exact(op, 2, 0, 3) == _dense_lift_exact(m, n, 2, 0, 3), k
            assert tensor_ops.flip_invariant(op) == _dense_flip_invariant(m, n), k
            assert all(op.coeff(*idx) == _dense_coeff(m, n, *idx)
                       for idx in itertools.product(range(1, n + 1), repeat=4)), k
            assert op == r and op.matrix == m, k
        flips += _dense_flip_invariant(m, n)
        # one entry changed: to zero when it is nonzero, else to 1/7
        a, b = divmod(k * 7 % (n ** 4), n * n)
        changed = [row[:] for row in m]
        changed[a][b] = F(0) if m[a][b] else F(1, 7)
        assert m != changed and not r == TensorOp2(n, changed), k
        assert r != TensorOp2(n + 1, la.zeros((n + 1) ** 2, (n + 1) ** 2))
    assert 0 < flips < len(cases)


@pytest.mark.parametrize("bad", [None, [1], 0j])
def test_dense_constructor_refuses_what_as_frac_refuses(bad):
    """``TensorOp2(n, dense)`` reads every entry by ``linalg.as_frac``, as
    it did when it kept the dense matrix: None, a list and a complex entry
    are refused, wherever they sit, and a fraction string is read."""
    for pos in (0, 3):
        dense = [[0] * 4 for _ in range(4)]
        dense[pos][pos] = bad
        with pytest.raises(TypeError):
            TensorOp2(2, dense)
    dense = [["0"] * 4 for _ in range(4)]
    dense[1][2] = "-3/4"
    assert TensorOp2(2, dense).rows == {1: {2: F(-3, 4)}}


_Z2_TABLE = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}


@pytest.mark.parametrize("build, message", [
    (lambda: GradedActionData([0, 1], _Z2_TABLE, {0: [[1]]}, [0]),
     "one action matrix per group element required"),
    (lambda: GradedActionData([0, 1], dict.fromkeys(_Z2_TABLE, 0), {0: [[1]], 1: [[1]]}, [0]),
     "group table has no identity"),
    (lambda: GradedActionData([0, 1], _Z2_TABLE, {0: [[-1]], 1: [[1]]}, [0]),
     "identity element must act as the identity matrix"),
    (lambda: GradedActionData([0, 1], _Z2_TABLE, {0: [[1]], 1: [[2]]}, [0]),
     "actions violate the group law at (1, 1)"),
    (lambda: TensorOp2(0, []), "dim must be positive"),
    (lambda: TensorOp2(2, [[1]]), "matrix view must be n^2 x n^2"),
    (lambda: make_diag(2, [[1, 2, 3]]), "a must be n x n"),
    (lambda: make_pair([[1]], [[1, 0], [0, 1]]), "f and g must have equal size"),
    (lambda: make_conjugate([[1]], make_phi(2, [1, 1])), "u must be n x n"),
    # a float value raised TypeError, and a bool was read as 1
    (lambda: make_phi(2, [1, 2.0]), "phi must map {1..n} into itself"),
    (lambda: make_phi(2, [True, 2]), "phi must map {1..n} into itself"),
    (lambda: make_phi(2, ["1", 2]), "phi must map {1..n} into itself"),
])
def test_constructor_shape_and_group_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
