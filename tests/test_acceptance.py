"""Acceptance suite: one pass/fail line per criterion.

Every criterion prints exactly one line of the form

    ACCEPTANCE <k>: PASS|FAIL -- <summary>

before its assertions run, so the verdict survives in the log even when a
criterion fails. Golden values are derived from the mathematics (the
reconstruction identity R_sigma = R, the axiom formulas in
``longeq.bialgebra.check_axioms``), never copied from program output; the
docstrings of the checks that pin them carry the derivations.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from longeq import (
    KZSystem,
    LoopSpec,
    SigmaTable,
    SingularOperator,
    TensorOp2,
    build_LR,
    check_axioms,
    check_laws,
    convergence_order,
    convolution_inverse,
    cyclic_group_algebra,
    dimodule_compatible,
    integrate_holonomy,
    invert,
    l1_solution_space,
    long_witness,
    make_diag,
    make_phi,
    round_trip,
    sweedler_h4,
)
from longeq import linalg as la
from longeq.frt import cm_index
from longeq.kz import lift_float
from longeq.tensor_ops import lift

from conftest import upper_pair_operator

F = Fraction


def _line(num, ok, summary):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {summary}")


# ---------------------------------------------------------------------------
# 1. oracle equivalence of the two Long checkers
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(corpus, phi4_solutions):
    started = time.monotonic()
    rng = random.Random(20260826)
    disagreements = 0
    total = 0

    def compare(r):
        nonlocal disagreements, total
        total += 1
        if check_laws(r, ["long"])["long"] != (long_witness(r) is None):
            disagreements += 1

    for _ in range(1000):
        mat = [[rng.choice((-1, 0, 1)) for _ in range(4)] for _ in range(4)]
        compare(TensorOp2(2, mat))
    for r in corpus.values():
        compare(r)
    for r in phi4_solutions.values():
        compare(r)
    elapsed = time.monotonic() - started
    ok = disagreements == 0 and elapsed < 60.0
    _line(1, ok, f"{total} operators, {disagreements} disagreements, "
                 f"{elapsed:.1f}s (< 60s)")
    assert disagreements == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. idempotent-map solutions: four-way equality and symmetry
# ---------------------------------------------------------------------------


def test_criterion_2_idempotent_four_way(phi4_solutions):
    bad = []
    for phi, r in phi4_solutions.items():
        r12, r13, r23 = lift(r, 12), lift(r, 13), lift(r, 23)
        a = la.mat_mul(r12, r13)
        if not all(la.mat_eq(a, la.mat_mul(x, y))
                   for x, y in ((r13, r12), (r12, r23), (r23, r12))):
            bad.append(phi)
        if not check_laws(r, ["symmetric"])["symmetric"]:
            bad.append(phi)
    ok = not bad
    _line(2, ok, f"{len(phi4_solutions)} idempotent maps on 4 points, "
                 f"exact four-way equality and symmetry; failures: {bad}")
    assert not bad


# ---------------------------------------------------------------------------
# 3. flatness bracket on the corpus
# ---------------------------------------------------------------------------


def test_criterion_3_flatness_bracket(corpus):
    bad = [name for name, r in corpus.items()
           if not check_laws(r, ["kz_bracket"])["kz_bracket"]]
    ok = not bad
    _line(3, ok, f"[R12, R13+R23] = 0 exactly on {len(corpus)} corpus "
                 f"members; failures: {bad}")
    assert not bad


# ---------------------------------------------------------------------------
# 4. golden presentations
# ---------------------------------------------------------------------------


def _vec_sub(*vecs):
    out = list(vecs[0])
    for v in vecs[1:]:
        out = [x - y for x, y in zip(out, v)]
    return out


def _tensor_matrix(m, terms):
    out = la.zeros(m, m)
    for coeff, va, vb in terms:
        for s, xa in enumerate(va):
            if xa:
                for t, xb in enumerate(vb):
                    if xb:
                        out[s][t] += coeff * xa * xb
    return out


def _check_example_pair(a, b, c, failures):
    """Two-generator golden presentation of the upper pair solution.

    R = f (x) g with f = [[a,1],[0,a]] and g = [[b,c],[0,b]], so
    R(m_v (x) m_u) = sum_{i,j} f_iv g_ju m_i (x) m_j. The sigma-form that
    ``round_trip`` inverts (see ``frt.SigmaForm``) is

        sigma(c_iv (x) c_ju) = x[u,v,j,i] = f_iv g_ju.

    With x = c_11 = c_22, y = c_12 and c_21 = 0 this pins

        sigma(x (x) x) = f_11 g_11 = ab,    sigma(x (x) y) = f_11 g_12 = ac,
        sigma(y (x) x) = f_12 g_11 = b,     sigma(y (x) y) = f_12 g_12 = c.

    For instance sigma(y (x) y) = c is the coefficient of m_1 (x) m_1 in
    R(m_2 (x) m_2) = (m_1 + a m_2) (x) (c m_1 + b m_2); a table with
    sigma(y (x) y) = 0 would give R_sigma != R whenever c != 0.
    """
    r = upper_pair_operator(a, b, c)
    pres = build_LR(r, naming={"c_1_1": "x", "c_1_2": "y"})
    q = pres.quotient
    tag = f"pair({a},{b},{c})"
    if q.num_generators != 2 or q.basis_coset(2, 1) != [F(0), F(0)] \
            or q.basis_coset(1, 1) != q.basis_coset(2, 2):
        failures.append(f"{tag}: relations")
        return
    xi, yi = pres.names.index("x"), pres.names.index("y")
    delta_y_ok = (
        pres.delta[yi][xi][yi] == 1
        and pres.delta[yi][yi][xi] == 1
        and sum(1 for row in pres.delta[yi] for v in row if v) == 2
    )
    if not delta_y_ok:
        failures.append(f"{tag}: Delta(y)")
    sig = pres.sigma_gen
    golden = {("x", "x"): a * b, ("x", "y"): a * c, ("y", "x"): b,
              ("y", "y"): c}
    got = {("x", "x"): sig[xi][xi], ("x", "y"): sig[xi][yi],
           ("y", "x"): sig[yi][xi], ("y", "y"): sig[yi][yi]}
    for key, want in golden.items():
        if got[key] != want:
            failures.append(
                f"{tag}: sigma{key} = {got[key]}, expected {want}"
            )


def test_criterion_4_golden_presentations():
    failures = []

    # two-generator nilpotent-pair presentations, both pinned instances
    _check_example_pair(1, 1, 1, failures)
    _check_example_pair(2, 3, 5, failures)

    # diagonal two-group-like presentation, sigma = {a, b, 0, 0}
    a, b = 2, 3
    r = make_diag(2, [[a, b], [0, 0]])
    pres = build_LR(r, naming={"c_1_1": "x", "c_2_2": "y"})
    q = pres.quotient
    xi, yi = pres.names.index("x"), pres.names.index("y")
    diag_ok = (
        q.num_generators == 2
        and q.basis_coset(1, 2) == [F(0), F(0)]
        and q.basis_coset(2, 1) == [F(0), F(0)]
        and all(pres.delta[t][t][t] == 1
                and sum(1 for row in pres.delta[t] for v in row if v) == 1
                for t in (xi, yi))
        and [pres.sigma_gen[xi][xi], pres.sigma_gen[xi][yi],
             pres.sigma_gen[yi][xi], pres.sigma_gen[yi][yi]] == [a, b, 0, 0]
    )
    if not diag_ok:
        failures.append("diagonal group-like example")

    # identity idempotent on 3 points: 3 group-likes, sigma = delta
    n = 3
    pres = build_LR(make_phi(n, [1, 2, 3]))
    ident_ok = (
        pres.quotient.num_generators == n
        and pres.quotient.rep_labels == [(i, i) for i in range(1, n + 1)]
        and all(pres.delta[t][t][t] == 1
                and sum(1 for row in pres.delta[t] for v in row if v) == 1
                for t in range(n))
        and pres.sigma_gen == [[F(int(s == t)) for t in range(n)]
                               for s in range(n)]
    )
    if not ident_ok:
        failures.append("identity idempotent example")

    # six-generator presentation for phi = (1,2,2,2): all Delta lines
    q = build_LR(make_phi(4, [1, 2, 2, 2])).quotient
    c = {(i, j): q.basis_coset(i, j) for i in range(1, 5) for j in range(1, 5)}
    x1, x2, x3, x4, x5, x6 = (
        c[(1, 1)], c[(2, 2)], c[(3, 2)], c[(3, 3)], c[(4, 2)], c[(4, 4)]
    )
    u = _vec_sub(x2, x3, x4)
    w = _vec_sub(x2, x5, x6)
    one = F(1)
    goldens = {
        (1, 1): [(one, x1, x1)],
        (2, 2): [(one, x2, x2)],
        (3, 2): [(one, x3, x2), (one, x4, x3), (one, u, x5)],
        (3, 3): [(one, x4, x4), (one, u, w)],
        (4, 2): [(one, x5, x2), (one, w, x3), (one, x6, x5)],
        (4, 4): [(one, w, u), (one, x6, x6)],
    }
    if q.num_generators != 6 or any(
        q.delta_on_coset(i, j) != _tensor_matrix(6, terms)
        for (i, j), terms in goldens.items()
    ):
        failures.append("six-generator example phi=(1,2,2,2)")

    # six-generator presentation for phi = (2,2,4,4): all Delta lines
    q = build_LR(make_phi(4, [2, 2, 4, 4])).quotient
    c = {(i, j): q.basis_coset(i, j) for i in range(1, 5) for j in range(1, 5)}
    x1, x2, x3 = c[(1, 1)], c[(1, 2)], c[(1, 3)]
    x4, x5, x6 = c[(3, 1)], c[(3, 3)], c[(3, 4)]
    neg = F(-1)
    goldens = {
        (1, 1): [(one, x1, x1), (one, x3, x4)],
        (1, 2): [(one, x1, x2), (one, x2, x1), (one, x2, x2), (neg, x3, x4)],
        (1, 3): [(one, x1, x3), (one, x3, x5)],
        (3, 1): [(one, x4, x1), (one, x5, x4)],
        (3, 3): [(one, x4, x3), (one, x5, x5)],
        (3, 4): [(neg, x4, x3), (one, x5, x6), (one, x6, x5), (one, x6, x6)],
    }
    if q.num_generators != 6 or any(
        q.delta_on_coset(i, j) != _tensor_matrix(6, terms)
        for (i, j), terms in goldens.items()
    ):
        failures.append("six-generator example phi=(2,2,4,4)")

    ok = not failures
    _line(4, ok, "golden presentations reproduced exactly" if ok
          else f"golden entries not reproduced: {failures}")
    assert not failures, (
        "L(R) presentations differ from their goldens. For the upper pair "
        "solution sigma(c_iv (x) c_ju) = f_iv g_ju gives the table "
        "{(x,x): ab, (x,y): ac, (y,x): b, (y,y): c}, which R_sigma = R "
        f"requires. Failing entries: {failures}"
    )


# ---------------------------------------------------------------------------
# 5. exact round trip and convolution inverses
# ---------------------------------------------------------------------------


def test_criterion_5_round_trip(corpus, phi4_solutions):
    bad = []
    inverses = 0
    for name, r in list(corpus.items()) + [
        ("phi4_" + "".join(map(str, k)), v) for k, v in phi4_solutions.items()
    ]:
        pres = build_LR(r)
        if round_trip(pres) != r:
            bad.append(name)
            continue
        try:
            invert(r)
        except SingularOperator:
            continue
        convolution_inverse(pres, r)
        inverses += 1
    ok = not bad
    _line(5, ok, f"R_sigma = R exactly on {len(corpus) + len(phi4_solutions)} "
                 f"solutions; convolution inverse verified on {inverses} "
                 f"invertible members; failures: {bad}")
    assert not bad


# ---------------------------------------------------------------------------
# 6. dimodule compatibility
# ---------------------------------------------------------------------------


def test_criterion_6_dimodule_compatibility(corpus):
    bad = []
    for name, r in corpus.items():
        pres = build_LR(r)
        for g in range(pres.num_generators):
            for l in range(1, r.dim + 1):
                if not dimodule_compatible(pres, [g], l):
                    bad.append((name, g, l))
    ok = not bad
    _line(6, ok, f"module/comodule compatibility exact on all "
                 f"(generator, basis) pairs over {len(corpus)} corpus "
                 f"members; failures: {bad}")
    assert not bad


# ---------------------------------------------------------------------------
# 7. the four-dimensional noncommutative example
# ---------------------------------------------------------------------------


def test_criterion_7_h4_solution_space():
    h4 = sweedler_h4()  # basis order: 1, x, y, z
    space = l1_solution_space(h4)
    pinned = space.pinned()
    forced_ok = all(
        pinned.get((2, h)) == 0 and pinned.get((1, h)) == pinned.get((0, h))
        for h in range(4)
    )
    eps_sq = SigmaTable.counit_square(h4)
    rep = check_axioms(h4, eps_sq, ["L1", "L2", "L3", "L4", "L5"])
    axioms_ok = all(ok for ok, _ in rep.values())
    contains_ok = space.contains(eps_sq.table)
    ok = forced_ok and axioms_ok and contains_ok
    _line(7, ok, "linear constraints force sigma(y(x)h) = 0 and "
                 "sigma(x(x)h) = sigma(1(x)h); the counit-square table "
                 "satisfies L1-L5 (note: the checker's verdict is asserted, "
                 "not any stronger non-existence claim; see "
                 "sigma_feasibility for the open quadratic system)")
    assert forced_ok
    assert axioms_ok
    assert contains_ok


# ---------------------------------------------------------------------------
# 8. holonomy of the lifted connection
# ---------------------------------------------------------------------------


def test_criterion_8_kz_holonomy():
    started = time.monotonic()
    r = make_phi(2, [1, 1])
    h = 0.1
    system = KZSystem.from_op(r, 3, h)
    base = [0.0, 1.0, 10.0]

    loop = LoopSpec(base, "circle", steps=4000, moving=0, center=1, radius=0.5)
    w = integrate_holonomy(system, loop)
    oracle = expm(2j * math.pi * h * lift_float(system.r_float, 2, 0, 1, 3))
    oracle_dist = float(np.max(np.abs(w - oracle)))

    trivial = LoopSpec(base, "circle", steps=4000, moving=0,
                       center=-2.0 + 0.0j, radius=0.5)
    trivial_dist = float(np.max(np.abs(integrate_holonomy(system, trivial)
                                       - np.eye(8))))

    order = convergence_order(system, loop.with_steps(100))
    elapsed = time.monotonic() - started
    ok = (oracle_dist < 1e-6 and trivial_dist < 1e-8
          and isinstance(order, float) and 3.5 <= order <= 4.5
          and elapsed < 30.0)
    _line(8, ok, f"oracle distance {oracle_dist:.2e} (< 1e-6), contractible "
                 f"loop {trivial_dist:.2e} (< 1e-8), convergence order "
                 f"{order if isinstance(order, str) else f'{order:.2f}'} "
                 f"(in [3.5, 4.5]), {elapsed:.1f}s (< 30s)")
    assert oracle_dist < 1e-6
    assert trivial_dist < 1e-8
    assert isinstance(order, float) and 3.5 <= order <= 4.5
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 9. the counit-square table and the bicharacter example
# ---------------------------------------------------------------------------


def _first_noncommuting_pair(b):
    """First basis pair (a, c), row-major, with e_a e_c != e_c e_a."""
    for a in range(b.d):
        for c in range(b.d):
            if b.mult[a][c] != b.mult[c][a]:
                return (a, c)
    return None


def test_criterion_9_counit_square_universal():
    """The counit square eps (x) eps satisfies L1-L5 on every bialgebra.

    B1 is the commutation law sum sigma(a_1 (x) c_1) c_2 a_2 =
    sum a_1 c_1 sigma(a_2 (x) c_2). With sigma = eps (x) eps the counit law
    collapses its sides to c a and a c, so B1 holds exactly on commutative
    algebras and its first witness is the first non-commuting basis pair:
    on H4 that is (x, y), as xy = z and yx = -z.
    """
    failures = []
    long_axioms = ["L1", "L2", "L3", "L4", "L5"]
    all_axioms = long_axioms + ["B1"]
    for name, b, pair in (("H4", sweedler_h4(), (1, 2)),
                          ("k[Z/2]", cyclic_group_algebra(2), None),
                          ("k[Z/3]", cyclic_group_algebra(3), None)):
        if _first_noncommuting_pair(b) != pair:
            failures.append(f"{name}: first non-commuting pair is not {pair}")
        rep = check_axioms(b, SigmaTable.counit_square(b), all_axioms)
        for axiom in long_axioms:
            ok, witness = rep[axiom]
            if not ok:
                failures.append(f"{name}/{axiom} witness {witness}")
        if rep["B1"] != (pair is None, pair):
            failures.append(f"{name}/B1 reports {rep['B1']}, commutativity "
                            f"gives {(pair is None, pair)}")
    bichar = SigmaTable([[1, 1], [1, -1]])
    rep = check_axioms(cyclic_group_algebra(2), bichar, all_axioms)
    for axiom, (ok, witness) in rep.items():
        if not ok:
            failures.append(f"bicharacter/{axiom} witness {witness}")
    ok = not failures
    _line(9, ok, "counit-square table passes L1-L5 on all three algebras "
                 "and B1 exactly on the commutative ones (H4 witness "
                 "(1, 2)); bicharacter passes all axioms" if ok
          else f"failing sub-checks: {failures}")
    assert not failures, (
        "With sigma = eps (x) eps the two sides of B1 are the products c a "
        "and a c, so B1 must hold exactly when the algebra is commutative, "
        "and L1-L5 must hold everywhere. Failing sub-checks: "
        f"{failures}"
    )
