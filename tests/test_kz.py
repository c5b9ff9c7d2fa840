"""Tests for the lifted connection: lifts, flatness brackets, holonomy."""

import cmath
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from longeq import (
    DimensionCap,
    KZSystem,
    LoopSpec,
    PathTooClose,
    TensorOp2,
    convergence_order,
    flatness_residuals,
    idempotent_maps,
    integrate_holonomy,
    make_conjugate,
    make_diag,
    make_pair,
    make_phi,
)
from longeq import kz
from longeq import linalg as la
from longeq.cli import main
from longeq.jsonio import (
    holonomy_to_json,
    loop_from_json,
    loop_to_json,
    operator_to_json,
)
from longeq.kz import connection_matrix, lift_float
from longeq.tensor_ops import _commute, _lift_sparse, check_laws, lift, lift_exact

from conftest import flip_matrix


def _float(mat):
    return np.array([[complex(x) for x in row] for row in mat], dtype=complex)


# ---------------------------------------------------------------------------
# Lifts
# ---------------------------------------------------------------------------


def test_lift_matches_kron_oracle(corpus):
    """R12 = R (x) I, R23 = I (x) R and R13 = (I (x) tau)(R (x) I)(I (x) tau),
    built with kron and the flip, independently of the slot-block lift."""
    for name in ("pair_235", "conjugate", "graded_z2"):
        r = corpus[name]
        ident = la.identity(r.dim)
        flip23 = la.kron(ident, flip_matrix(r.dim))
        r12 = la.kron(r.matrix, ident)
        r13 = la.mat_mul(flip23, la.mat_mul(r12, flip23))
        r23 = la.kron(ident, r.matrix)
        for positions, (i, j), want in ((12, (0, 1), r12), (13, (0, 2), r13),
                                        (23, (1, 2), r23)):
            assert lift(r, positions) == want, (name, positions)
            assert lift_exact(r, i, j, 3) == want, (name, positions)


def test_lift_float_matches_lift_exact(corpus):
    r = corpus["conjugate"]
    rf = _float(r.matrix)
    for (i, j) in ((0, 1), (1, 0), (0, 2), (2, 1)):
        exact = _float(lift_exact(r, i, j, 3))
        assert np.max(np.abs(lift_float(rf, r.dim, i, j, 3) - exact)) == 0.0


def test_lift_exact_n2_identity_slots():
    r = make_phi(2, [1, 1])
    m = lift_exact(r, 0, 1, 2)
    assert m == r.matrix


# ---------------------------------------------------------------------------
# Flatness brackets
# ---------------------------------------------------------------------------


def test_flatness_identity_all_vanish():
    r = TensorOp2(2, np.eye(4, dtype=int).tolist())
    report = flatness_residuals(r, 4)
    assert len(report) == 10
    assert all(report.values())
    assert "[R12,R13+R23]" in report and "[R12,R34]" in report


def test_flatness_phi_n3():
    r = make_phi(3, [1, 1, 3])
    report = flatness_residuals(r, 3)
    assert len(report) == 6
    assert all(report.values())


def test_flatness_long_solution_includes_defining_bracket(corpus):
    # every solution of the two defining laws satisfies [R12, R13 + R23] = 0
    for key in ("pair_235", "conjugate", "graded_z2", "homothety"):
        assert flatness_residuals(corpus[key], 3)["[R12,R13+R23]"]


def test_flatness_reports_failures_for_generic_operator():
    entries = [[0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]]
    r = TensorOp2(2, entries)
    report = flatness_residuals(r, 3)
    assert not all(report.values())


def _mat_commute(a, b):
    return la.mat_mul(a, b) == la.mat_mul(b, a)


def _flatness_oracle(r, N):
    """The brackets of flatness_residuals on dense Fraction lifts."""
    report = {}
    if N >= 3:
        lifts3 = {(i, j): lift_exact(r, i, j, 3)
                  for i in range(3) for j in range(3) if i != j}
        for a, b, c in itertools.permutations(range(3)):
            label = f"[R{a + 1}{b + 1},R{a + 1}{c + 1}+R{b + 1}{c + 1}]"
            report[label] = _mat_commute(lifts3[(a, b)],
                                         la.mat_add(lifts3[(a, c)], lifts3[(b, c)]))
    if N >= 4:
        lifts4 = {(i, j): lift_exact(r, i, j, 4)
                  for (i, j) in ((0, 1), (1, 0), (2, 3), (3, 2))}
        for (a, b) in ((0, 1), (1, 0)):
            for (c, d) in ((2, 3), (3, 2)):
                report[f"[R{a + 1}{b + 1},R{c + 1}{d + 1}]"] = _mat_commute(lifts4[(a, b)],
                                                                            lifts4[(c, d)])
    return report


def test_flatness_matches_dense_oracle(corpus):
    """Sparse integer brackets equal the dense Fraction brackets, label order
    included, on solutions and on random candidates that fail brackets.

    A dense n=3 or n=4 lift at N=4 costs the oracle 0.2-1 s, so those shapes
    are few."""
    cases = [(r, 3) for r in corpus.values()]
    cases += [(r, 4) for r in corpus.values() if r.dim <= 2]
    cases += [(make_phi(4, phi), 4) for phi in idempotent_maps(4)
              if phi in ((1, 1, 3, 4), (1, 2, 2, 2))]
    shapes = [(2, N) for N in (2, 3, 4)] * 5 + [(3, 2), (3, 2), (3, 3), (3, 3), (3, 4)]
    rng = random.Random(20260)
    for k in range(60):
        n, N = shapes[k % len(shapes)]
        entries = [[rng.choice((-1, 0, 0, 1)) for _ in range(n * n)]
                   for _ in range(n * n)]
        cases.append((TensorOp2(n, entries), N))
    mixed = [[Fraction(rng.randint(-4, 4), rng.choice((2, 3, 5, 6, 7)))
              for _ in range(4)] for _ in range(4)]
    cases.append((TensorOp2(2, mixed), 4))
    # a solution whose entries only pass the brackets as fractions
    half = Fraction(1, 2)
    diag = make_diag(2, [[half, Fraction(2, 3)], [Fraction(3, 5), Fraction(5, 6)]])
    cases.append((make_conjugate([[1, Fraction(1, 7)], [0, 1]], diag), 4))
    # a solution whose bracket products cancel to explicit zeros
    cases.append((make_conjugate([[1, -2], [0, 1]], make_diag(2, [[2, 0], [0, 2]])), 4))
    # the flip is not Long, yet its bracket holds; R_x = I (x) E12 + E33 (x) E21
    # is Long, yet [R13, R23] != 0
    flip = TensorOp2(2, flip_matrix(2))
    e = [[[int((i, j) == (a, b)) for j in range(3)] for i in range(3)]
         for a in range(3) for b in range(3)]
    r_x = TensorOp2(3, la.mat_add(la.kron(la.identity(3), e[1]), la.kron(e[8], e[3])))
    assert check_laws(flip, ["long", "kz_bracket"]) == {"long": False, "kz_bracket": True}
    assert check_laws(r_x, ["long"])["long"]
    assert not _commute(*(_lift_sparse(r_x.cleared[0], 3, i, 2, 3) for i in (0, 1)))
    cases += [(flip, 3), (flip, 4), (r_x, 4)]
    failing = 0
    for r, N in cases:
        report = flatness_residuals(r, N)
        assert list(report.items()) == list(_flatness_oracle(r, N).items()), (r, N)
        failing += not all(report.values())
    assert failing > 0


def _disjoint_brackets_oracle(r):
    """The N = 4 disjoint brackets [R^{ab}, R^{cd}], evaluated on the sparse
    integer lifts of Z = D R."""
    lifts = {(i, j): _lift_sparse(r.cleared[0], r.dim, i, j, 4)
             for (i, j) in ((0, 1), (1, 0), (2, 3), (3, 2))}
    return {f"[R{a + 1}{b + 1},R{c + 1}{d + 1}]": _commute(lifts[(a, b)], lifts[(c, d)])
            for (a, b) in ((0, 1), (1, 0)) for (c, d) in ((2, 3), (3, 2))}


def test_disjoint_brackets_match_commute_oracle(corpus):
    """flatness_residuals reports the disjoint brackets without evaluating
    them (they vanish for every operator); evaluating them agrees, on the
    corpus and on seeded operators that are not Long."""
    cases = list(corpus.values())
    rng = random.Random(20261)
    for n in (2, 2, 3, 3, 4):
        entries = [[rng.choice((-2, -1, 0, 0, 1, Fraction(1, 3)))
                    for _ in range(n * n)] for _ in range(n * n)]
        r = TensorOp2(n, entries)
        assert not check_laws(r, ["long"])["long"]
        cases.append(r)
    for r in cases:
        report = flatness_residuals(r, 4)
        oracle = _disjoint_brackets_oracle(r)
        assert list(report)[6:] == list(oracle)
        assert all(report[label] for label in oracle)
        assert all(oracle.values()), r


# ---------------------------------------------------------------------------
# System construction and caps
# ---------------------------------------------------------------------------


def test_dimension_cap_parameter(monkeypatch):
    r = make_phi(2, [1, 1])
    monkeypatch.setenv("LONGEQ_MAX_DIM", "16")
    with pytest.raises(DimensionCap):
        KZSystem.from_op(r, 5, 0.1)
    KZSystem.from_op(r, 4, 0.1)


def test_dimension_cap_env(monkeypatch):
    r = make_phi(2, [1, 1])
    monkeypatch.setenv("LONGEQ_MAX_DIM", "8")
    with pytest.raises(DimensionCap):
        KZSystem.from_op(r, 4, 0.1)


def test_symmetric_flag(corpus):
    assert KZSystem.from_op(make_phi(2, [1, 1]), 2, 0.1).symmetric
    assert not KZSystem.from_op(corpus["pair_235"], 2, 0.1).symmetric


def _scatter(pos, data, d):
    a = np.zeros(d * d, dtype=complex)
    a[pos] = data
    return a.reshape(d, d)


def _record_segment_operators(monkeypatch):
    """Record the pairs of each ``segment_operator`` the integrator builds."""
    built = []
    real = kz.segment_operator

    def recording(sys, pairs):
        built.append(list(pairs))
        return real(sys, pairs)

    monkeypatch.setattr(kz, "segment_operator", recording)
    return built


def test_from_op_builds_lifts_on_first_use(monkeypatch):
    """At n=4, N=4 no lift of the 256 x 256 connection exists until a loop is
    integrated, and a circle builds only the lifts of its moving point, as
    one segment operator."""
    built = _record_segment_operators(monkeypatch)
    sys = KZSystem.from_op(make_phi(4, [1, 2, 2, 4]), 4, 0.1)
    assert not hasattr(sys, "lifts") and built == []
    loop = LoopSpec([0.0, 1.0, 10.0, 20j], "circle", 2, moving=1, center=0,
                    radius=0.5)
    integrate_holonomy(sys, loop)
    assert built == [[(1, 0), (1, 2), (1, 3)]]
    _, pos, _ = kz.segment_operator(sys, built[0])
    moving = sum(lift_float(sys.r_float != 0, 4, i, j, 4) for i, j in built[0])
    assert np.array_equal(np.flatnonzero(moving), pos)
    fixed = lift_float(sys.r_float != 0, 4, 2, 3, 4)
    assert not np.isin(np.flatnonzero(fixed), pos).all()


def test_live_pairs_are_the_lifts_integration_builds(monkeypatch):
    """``segment_pairs`` names exactly the lifts a run builds, one operator per
    run of segments with the same live pairs, and the memory bound admits
    the largest tested size: 12 live pairs at n = 4, N = 4."""
    built = _record_segment_operators(monkeypatch)
    sys = KZSystem.from_op(make_phi(3, [1, 2, 2]), 3, 0.1)
    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    loop = LoopSpec([1.0, 6.0, 12.0], "polygon", 8,
                    waypoints=[square, [6.0] * 5, [12.0, 13.0, 12.0, 12.0, 12.0]])
    both = [(0, 1), (0, 2), (2, 0), (2, 1)]
    assert kz.segment_pairs(loop) == [both, both, both[:2], both[:2]]
    kz.check_integrator_memory(sys, loop)
    integrate_holonomy(sys, loop)
    assert built == [both, both[:2]]
    big = KZSystem.from_op(make_phi(4, [1, 2, 2, 4]), 4, 0.1)
    moving = LoopSpec([0.0, 4.0, 4 + 4j, 4j], "polygon", 4,
                      waypoints=[[c, c + 1, c + 1j, c] for c in (0.0, 4.0, 4 + 4j, 4j)])
    assert [len(p) for p in kz.segment_pairs(moving)] == [12] * 3
    kz.check_integrator_memory(big, moving)
    assert kz.integration_bytes(big, moving) < kz.MAX_INTEGRATOR_BYTES
    with pytest.raises(DimensionCap, match="holonomy integration needs"):
        kz.check_integrator_memory(KZSystem.from_op(make_phi(4, [1, 2, 2, 4]), 6, 0.1),
                                   LoopSpec([0.0, 1.0, 10.0, 20.0, 30.0, 40.0], "circle", 2,
                                            moving=1, center=0, radius=0.5))
    assert built == [both, both[:2]]


def test_segment_operator_terms_are_the_live_lifts():
    """Each segment's operator is built from the lifts of the pairs whose
    point moves on it: its data at a stage time, scattered to d x d, is the
    dense ``connection_matrix`` there, and its CSR pattern is the union of
    those lifts' patterns."""
    sys = KZSystem.from_op(make_phi(3, [1, 2, 2]), 3, 0.1 - 0.02j)
    square = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    loop = LoopSpec([1.0, 6.0, 12.0], "polygon", 8,
                    waypoints=[square, [6.0] * 5, [12.0, 13.0, 12.0, 12.0, 12.0]])
    big = KZSystem.from_op(make_phi(4, [1, 2, 2, 4]), 4, 0.1)
    moving = LoopSpec([0.0, 4.0, 4 + 4j, 4j], "polygon", 4,
                      waypoints=[[c, c + 1, c + 1j, c] for c in (0.0, 4.0, 4 + 4j, 4j)])
    for system, lp in ((sys, loop), (big, moving)):
        d = system.dim
        for seg, pairs in enumerate(kz.segment_pairs(lp)):
            op, pos, m = kz.segment_operator(system, pairs)
            union = sum(lift_float(system.r_float != 0, system.n, i, j, system.N)
                        for i, j in pairs) != 0
            assert np.array_equal(np.flatnonzero(union), pos)
            assert op.shape == (d, d) and op.nnz == len(pos)
            assert np.array_equal(op.indices, pos % d)
            assert m.shape == (len(pos), len(pairs))
            t = (seg + 0.3) / lp.segments
            z, v = lp.positions(t, seg), lp.velocities(t, seg)
            coeffs = [system.h * v[i] / (z[i] - z[j]) for i, j in pairs]
            got = _scatter(pos, m @ np.array(coeffs), d)
            want = connection_matrix(system, lp, t, seg)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("N", [3, 4])
def test_circle_oracle_is_dense_exponential(corpus, N):
    """The lift of the n^2 x n^2 block exponential equals the exponential of
    the dense lift, on every symmetric corpus operator."""
    h = 0.07 + 0.03j
    for name, r in corpus.items():
        sys = KZSystem.from_op(r, N, h)
        if not sys.symmetric:
            continue
        for moving, center in ((1, 0), (0, 2), (N - 1, 1)):
            dense = expm(2j * math.pi * h * lift_float(sys.r_float, r.dim,
                                                       moving, center, N))
            got = _circle_oracle(sys, moving, center)
            assert np.max(np.abs(got - dense)) <= 1e-12, (name, moving, center)


def _circle_oracle(sys, moving, center):
    """exp(2 pi i h R^{moving,center}) as the lift of ``circle_block``."""
    return lift_float(kz.circle_block(sys), sys.n, moving, center, sys.N)


def _dense_distance(sys, w, moving, center):
    """The ``--compare`` distance as the dense difference from the lift."""
    return float(np.max(np.abs(w - _circle_oracle(sys, moving, center))))


def _distance_cases():
    """(system, W, moving, center): integrated phi circles at (n, N) =
    (2, 3) and (4, 4), one phi of each rank, and a phi conjugate."""
    cases = []
    for n, N in ((2, 3), (4, 4)):
        ranks = {}
        for phi in idempotent_maps(n):
            ranks.setdefault(len(set(phi)), make_phi(n, phi))
        cases += [(r, N) for _, r in sorted(ranks.items())]
    cases.append((make_conjugate([[1, 2, 0], [0, 1, -1], [0, 0, 1]],
                                 make_phi(3, [1, 1, 3])), 3))
    out = []
    for r, N in cases:
        sys = KZSystem.from_op(r, N, 0.11 - 0.04j)
        base = [0.0, 1.0, 10.0, 20j][:N]
        for moving, center in ((0, 1), (N - 1, 0)):
            loop = LoopSpec(base, "circle", 16, moving=moving, center=center, radius=0.5)
            out.append((sys, integrate_holonomy(sys, loop), moving, center))
    return out


def test_oracle_distance_is_the_dense_distance():
    """``oracle_distance`` is bit for bit the max of |W - lift(E)|: on
    integrated phi circles of every rank at (n, N) = (2, 3) and (4, 4) and a
    phi conjugate; on random W with entries off the blocks, -0.0 and
    subnormals; and on the lift itself (distance 0)."""
    rng = np.random.default_rng(29)
    specials = [-0.0, 5e-324, -2.5e-310, 1e-300, 0.0]
    checked = 0
    for sys, w, moving, center in _distance_cases():
        assert kz.oracle_distance(sys, w, moving, center) == _dense_distance(
            sys, w, moving, center)
        d = sys.dim
        noise = rng.standard_normal((d, 2 * d)).view(complex) * rng.random((d, d)) ** 8
        flat = noise.view(float).ravel()
        flat[rng.choice(flat.size, size=min(flat.size, 60), replace=False)] = (
            specials * 12)[:min(flat.size, 60)]
        oracle = _circle_oracle(sys, moving, center)
        for v in (noise, oracle + noise * 1e-9, oracle * -0.0):
            assert kz.oracle_distance(sys, v, moving, center) == _dense_distance(
                sys, v, moving, center)
        assert kz.oracle_distance(sys, oracle, moving, center) == 0.0
        checked += 1
    assert checked == 14


@pytest.mark.parametrize("dense", [False, True])
def test_oracle_distance_holds_one_abs_array(dense):
    """At d = 256 ``oracle_distance`` holds, at its tracemalloc peak, at most
    |W| (half of W's bytes) and four complex gathers of the slot blocks (d
    n^2 entries each), for a phi holonomy and for a dense W; the dense form
    holds the lift, the difference and its abs (2.5 MB)."""
    import tracemalloc

    sys = KZSystem.from_op(make_phi(4, [1, 2, 2, 2]), 4, 0.1)
    loop = LoopSpec([0.0, 1.0, 10.0, 20j], "circle", 16, moving=0, center=1, radius=0.5)
    w = integrate_holonomy(sys, loop)
    if dense:
        w = w + np.random.default_rng(3).standard_normal((256, 512)).view(complex)
    kz.oracle_distance(sys, w, 0, 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kz.oracle_distance(sys, w, 0, 1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert 0 < peak <= w.nbytes // 2 + 4 * sys.dim * sys.n ** 2 * 16


# ---------------------------------------------------------------------------
# Loop geometry
# ---------------------------------------------------------------------------


def test_circle_positions_close_and_start_on_base_ray():
    loop = LoopSpec([2.0, 0.0], "circle", steps=16, moving=0, center=1,
                    radius=0.5)
    z0 = loop.positions(0.0)
    # the start lies on the ray from the center through the base position
    assert abs(z0[0] - 0.5) < 1e-12
    assert abs(z0[0] - loop.positions(1.0)[0]) < 1e-12
    assert z0[1] == 0.0


def test_polygon_requires_closure_and_equal_lengths():
    sq = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    with pytest.raises(ValueError):
        LoopSpec([1 + 1j, 0.0], "polygon", steps=8,
                 waypoints=[sq, [0.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        LoopSpec([1 + 1j, 0.0], "polygon", steps=8,
                 waypoints=[sq[:-1], [0.0] * 4])


def test_path_too_close_guard():
    # the circle around an off-center point passes through the second
    # coordinate exactly
    with pytest.raises(PathTooClose):
        LoopSpec([1.0, 0.0, -1.0], "circle", steps=16, moving=0,
                 center=0.5 + 0.0j, radius=0.5)


def _separation_oracle(loop):
    """The scalar guard: positions from cmath at 2 * steps + 1 samples, one
    pair at a time."""
    samples = 2 * loop.steps + 1
    min_sep, diam = math.inf, 0.0
    for k in range(samples):
        t = k / (samples - 1)
        if loop.kind == "circle":
            z = list(loop.base)
            z[loop.moving] = loop.center + loop.radius * cmath.exp(
                1j * (loop.theta0 + 2.0 * math.pi * t))
        else:
            s = min(int(t * loop.segments), loop.segments - 1)
            u = t * loop.segments - s
            z = [p[s] + u * (p[s + 1] - p[s]) for p in loop.waypoints]
        for i in range(loop.N):
            for j in range(i + 1, loop.N):
                d = abs(z[i] - z[j])
                min_sep = min(min_sep, d)
                diam = max(diam, d)
    return min_sep, diam


def _guard_loops():
    rng = random.Random(8080)
    loops = []
    for k in range(6):
        N = 2 + k % 3
        base = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(N)]
        moving, center = rng.sample(range(N), 2)
        # a point index, or an explicit point near one
        around = center if k % 2 else base[center] + 0.1j
        loops.append(dict(base=base, kind="circle", steps=rng.randint(1, 300),
                          moving=moving, center=around, radius=rng.uniform(0.05, 2)))
    for k in range(6):
        N = 2 + k % 3
        count = rng.randint(2, 6)
        paths = []
        for i in range(N):
            path = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    for _ in range(count - 1)]
            paths.append(path + path[:1] if i or k % 2 else [path[0]] * count)
        loops.append(dict(base=[p[0] for p in paths], kind="polygon",
                          steps=rng.randint(1, 300), waypoints=paths))
    # point 1 comes within a hair of 1e-6 x diameter of the static point 0
    for hair in (1 - 1e-9, 1 + 1e-9):
        near = kz.MIN_SEPARATION_FACTOR * hair
        loops.append(dict(base=[0j, 1 + 0j], kind="polygon", steps=2,
                          waypoints=[[0j] * 3, [1 + 0j, near + 0j, 1 + 0j]]))
    return loops


def test_separation_matches_scalar_guard(monkeypatch):
    """The vectorised guard gives the scalar guard's min and diameter to
    1e-15 relative, and its verdict, also a hair either side of the factor."""
    monkeypatch.setattr(kz, "CHUNK_ENTRIES", 64)  # several sample blocks
    verdicts = []
    for spec in _guard_loops():
        with monkeypatch.context() as m:
            m.setattr(LoopSpec, "_check_separation", lambda loop: None)
            loop = LoopSpec(**spec)
        got, want = loop.separation(), _separation_oracle(loop)
        assert got == pytest.approx(want, rel=1e-15, abs=0), spec
        try:
            LoopSpec(**spec)
            verdicts.append(False)
        except PathTooClose:
            verdicts.append(True)
        assert verdicts[-1] == (want[0] <= kz.MIN_SEPARATION_FACTOR * want[1]), spec
    assert verdicts[-2:] == [True, False]


# ---------------------------------------------------------------------------
# Holonomy
# ---------------------------------------------------------------------------


def _circle_system(h, radius=0.5, steps=64):
    r = make_phi(2, [1, 1])
    sys = KZSystem.from_op(r, 2, h)
    loop = LoopSpec([1.0, 0.0], "circle", steps=steps, moving=0, center=1,
                    radius=radius)
    return r, sys, loop


def test_holonomy_zero_coupling_is_exact_identity():
    _, sys, loop = _circle_system(0.0)
    w = integrate_holonomy(sys, loop)
    assert np.array_equal(w, np.eye(4, dtype=complex))
    assert convergence_order(sys, loop) == "exact"


@pytest.mark.parametrize("radius", [0.3, 0.8])
def test_holonomy_matches_exponential_oracle(radius):
    # For two points with only z^1 moving, A(t) is h * dot z / (z - z^2)
    # times a constant matrix, so the holonomy is exp(2 pi i h R^{12}).
    h = 0.05 + 0.02j
    r, sys, loop = _circle_system(h, radius=radius, steps=96)
    w = integrate_holonomy(sys, loop)
    oracle = expm(2j * math.pi * h * _float(lift_exact(r, 0, 1, 2)))
    assert np.max(np.abs(w - oracle)) < 1e-9


def test_holonomy_contractible_loop_is_identity():
    r = make_phi(2, [1, 1])
    sys = KZSystem.from_op(r, 2, 0.1)
    # circle around an explicit point that encloses no other coordinate
    loop = LoopSpec([3.0, 0.0], "circle", steps=96, moving=0,
                    center=3.5 + 0.0j, radius=0.25)
    w = integrate_holonomy(sys, loop)
    assert np.max(np.abs(w - np.eye(4))) < 1e-10


def test_holonomy_polygon_square_matches_circle_oracle():
    # a square around the fixed point is homotopic to the circle
    h = 0.05
    r = make_phi(2, [1, 1])
    sys = KZSystem.from_op(r, 2, h)
    sq = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    loop = LoopSpec([1 + 1j, 0.0], "polygon", steps=256,
                    waypoints=[sq, [0.0] * 5])
    w = integrate_holonomy(sys, loop)
    oracle = expm(2j * math.pi * h * _float(lift_exact(r, 0, 1, 2)))
    assert np.max(np.abs(w - oracle)) < 1e-10


def test_contractible_rectangle_is_not_flat_for_a_nonsymmetric_pair():
    """The connection is flat for a Long R only when R is flip-invariant
    (``kz`` module docstring). On the rectangle in (z_0, z_1) where point 0
    goes 1 -> 1.3 and back and point 1 goes 0 -> 0.3i and back, one point
    moves at a time, so each side's transport is exp(h I R^{ij}) for the
    integral I of its coefficient, and R^{01} and R^{10} commute by Long
    equation 2. The sides of point 0 give I_01 = c and those of point 1
    give I_10 = -c, with c = Log 1.3 - Log((1.3 - 0.3i) / (1 - 0.3i)), so
    W = exp(h c (R^{01} - R^{10})): the identity for a symmetric R, and
    6.7e-3 from it for the Long pair, which is not symmetric."""
    h = 0.1
    loop = LoopSpec([1, 0], "polygon", 1000,
                    waypoints=[[1, 1.3, 1.3, 1, 1], [0, 0, 0.3j, 0.3j, 0]])
    c = cmath.log(1.3) - cmath.log((1.3 - 0.3j) / (1 - 0.3j))
    pair = make_pair([[1, 1], [0, 1]], [[1, 2], [0, 1]])
    assert check_laws(pair, ["long", "symmetric"]) == {"long": True, "symmetric": False}
    for r in (pair, make_phi(2, [1, 1])):
        sys = KZSystem.from_op(r, 2, h)
        w = integrate_holonomy(sys, loop)
        swap = lift_float(sys.r_float, 2, 0, 1, 2) - lift_float(sys.r_float, 2, 1, 0, 2)
        assert np.max(np.abs(w - expm(h * c * swap))) <= 1e-12
        if r is pair:
            assert np.max(np.abs(w - np.eye(4))) >= 1e-3
        else:
            assert np.max(np.abs(w - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("N", [2, 3, 4])
def test_circle_oracle_is_exact_for_a_nonsymmetric_long_pair(N):
    """The ``--compare`` oracle exp(2 pi i h R^{10}) needs only Long
    equation 1 (``check_circle_oracle``): on the Long pair, which is not
    symmetric, point 1 circling point 0 lies within RK4 error of it at
    N = 2, 3 and 4, and ``check_circle_oracle`` accepts the pair."""
    r = make_pair([[1, 1], [0, 1]], [[1, 2], [0, 1]])
    sys = KZSystem.from_op(r, N, 0.05)
    loop = LoopSpec([0, 0.5, 20j, -15][:N], "circle", 2000, moving=1, center=0, radius=0.5)
    w = integrate_holonomy(sys, loop)
    assert kz.oracle_distance(sys, w, 1, 0) <= 1e-12
    assert kz.check_circle_oracle(r, sys, loop) is None


def _integrate_oracle(sys, loop):
    """Classical RK4 through ``connection_matrix``, one step at a time."""
    w = np.eye(sys.dim, dtype=complex)
    per_seg = max(1, -(-loop.steps // loop.segments))
    for seg in range(loop.segments):
        t0 = seg / loop.segments
        dt = 1.0 / (loop.segments * per_seg)
        for k in range(per_seg):
            t = t0 + k * dt
            a1 = connection_matrix(sys, loop, t, seg)
            k1 = a1 @ w
            a2 = connection_matrix(sys, loop, t + dt / 2, seg)
            k2 = a2 @ (w + (dt / 2) * k1)
            k3 = a2 @ (w + (dt / 2) * k2)
            a4 = connection_matrix(sys, loop, t + dt, seg)
            k4 = a4 @ (w + dt * k3)
            w = w + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return w


def _square(cx, cy, count=5, size=0.6):
    rng = random.Random(f"{cx},{cy},{count}")
    inner = [complex(cx + rng.uniform(-size, size), cy + rng.uniform(-size, size))
             for _ in range(count - 2)]
    return [complex(cx, cy)] + inner + [complex(cx, cy)]


_CORNERS = [(0, 0), (4, 0), (4, 4), (0, 4)]
# dense conjugates: every entry of R is nonzero (nnz(R) = n^4)
_CONJ3 = make_conjugate([[1, 1, 1], [1, 2, 1], [1, 1, 3]], make_phi(3, [1, 2, 2]))
_CONJ4 = make_conjugate([[1, 1, 1, 1], [1, 2, 1, 1], [1, 1, 3, 1], [1, 1, 1, 4]],
                        make_phi(4, [1, 2, 2, 4]))
# a Long solution that is not flip-invariant
_DIAG3 = make_diag(3, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])


def _random_op(n, seed):
    """An operator with small random integer entries: no Long solution, and
    its lifts on a shared slot do not commute."""
    rng = random.Random(seed)
    return TensorOp2(n, [[rng.randint(-3, 3) for _ in range(n * n)] for _ in range(n * n)])


_INTEGRATOR_CASES = {
    # (n, N), phi or operator, h, loop keyword arguments, the evaluation taken
    "circle-2-2": ((2, 2), [1, 1], 0.1, dict(base=[1.0, 0.0], kind="circle", steps=40,
                                             moving=0, center=1, radius=0.5), "words"),
    "circle-2-3": ((2, 3), [1, 2], 0.08 + 0.03j,
                   dict(base=[0.0, 1.0, 7 + 2j], kind="circle", steps=150, moving=1,
                        center=0, radius=0.4), "words"),
    # d = 16 with 3 live lifts: 120 words, so *apply*
    "circle-2-4": ((2, 4), [1, 2], 0.08 - 0.02j,
                   dict(base=[0.0, 1.0, 10.0, 20j], kind="circle", steps=40, moving=1,
                        center=0, radius=0.5), "apply"),
    "circle-3-3-point": ((3, 3), [1, 1, 3], 0.1 - 0.05j,
                         dict(base=[0.0, 1.0, -6j], kind="circle", steps=30, moving=0,
                              center=0.9 + 0.1j, radius=0.7), "words"),
    "circle-4-4": ((4, 4), [1, 2, 2, 4], 0.05 + 0.02j,
                   dict(base=[0.0, 1.0, 10.0, 20j], kind="circle", steps=3, moving=1,
                        center=0, radius=0.5), "apply"),
    "polygon-all-moving": ((3, 3), [1, 2, 2], 0.1 + 0.02j,
                           dict(base=[complex(*c) for c in _CORNERS[:3]], kind="polygon",
                                steps=17, waypoints=[_square(*c) for c in _CORNERS[:3]]),
                           "apply"),
    "polygon-static": ((2, 4), [2, 2], 0.12 - 0.03j,
                       dict(base=[complex(*c) for c in _CORNERS], kind="polygon", steps=13,
                            waypoints=[_square(*c, count=4) for c in _CORNERS[:2]]
                            + [[4 + 4j] * 4] + [_square(0, 4, count=4)]), "apply"),
    "one-step": ((2, 3), [1, 1], 0.1j, dict(base=[0.0, 1.0, 5.0], kind="circle", steps=1,
                                            moving=0, center=1, radius=0.3), "words"),
    # 1100 steps at dim 8: one batch of 1024 and one of 76
    "long-circle": ((2, 3), [2, 2], 0.1, dict(base=[0.0, 1.0, 5j], kind="circle",
                                              steps=1100, moving=2, center=1, radius=1.0),
                    "words"),
    "conjugate-3-4": ((3, 4), _CONJ3, 0.07 + 0.02j,
                      dict(base=[complex(*c) for c in _CORNERS], kind="polygon", steps=6,
                           waypoints=[_square(*c, count=4) for c in _CORNERS]), "apply"),
    "conjugate-4-3": ((4, 3), _CONJ4, 0.05 - 0.01j,
                      dict(base=[0.0, 1.0, 6 + 1j], kind="circle", steps=5, moving=0,
                           center=1, radius=0.6), "words"),
    "diag-3-4-nonsymmetric": ((3, 4), _DIAG3, 0.03 + 0.01j,
                              dict(base=[complex(*c) for c in _CORNERS], kind="polygon",
                                   steps=6, waypoints=[_square(*c, count=4) for c in _CORNERS]),
                              "apply"),
    # every point moves: the perfbench polygon, stacked by 20 components
    "polygon-4-all-moving": ((3, 4), [1, 2, 2], 0.08 - 0.02j,
                             dict(base=[complex(*c) for c in _CORNERS], kind="polygon",
                                  steps=8, waypoints=[_square(*c) for c in _CORNERS]),
                             "apply"),
    "circle-3-5": ((3, 5), [1, 2, 2], 0.06 + 0.02j,
                   dict(base=[0.0, 1.0, 10.0, 20j, -15.0], kind="circle", steps=3, moving=1,
                        center=0, radius=0.5), "apply"),
    # random operators, whose lifts do not commute, so a word taken in the
    # wrong order shows: a circle, and a polygon on which one point moves,
    # at d = 8; the ratio of their two lift coefficients varies along each
    # segment, which it does not when both points of N = 2 move
    "random-circle-2-3": ((2, 3), _random_op(2, 2), 0.05 + 0.02j,
                          dict(base=[0.0, 1.0, 6 - 2j], kind="circle", steps=60, moving=1,
                               center=0, radius=0.5), "words"),
    "random-polygon-2-3": ((2, 3), _random_op(2, 3), 0.04 - 0.01j,
                           dict(base=[0.0, 4.0, 4j], kind="polygon", steps=30,
                                waypoints=[_square(0, 0), [4.0] * 5, [4j] * 5]), "words"),
}
_EVALUATIONS = {"apply": "_apply_steps", "words": "_words_steps"}


@pytest.mark.parametrize("case", sorted(_INTEGRATOR_CASES))
def test_integrate_matches_rk4_oracle(case, monkeypatch):
    """Both evaluations match classical RK4 on the dense connection; each
    case takes the evaluation it names, and the other is never called."""
    (n, N), op, h, spec, mode = _INTEGRATOR_CASES[case]
    r = op if isinstance(op, TensorOp2) else make_phi(n, op)
    sys = KZSystem.from_op(r, N, h)
    loop = LoopSpec(**spec)
    want = _integrate_oracle(sys, loop)

    def refuse(*args):
        raise AssertionError(f"{case} left the {mode} evaluation")

    for name in _EVALUATIONS.values():
        if name != _EVALUATIONS[mode]:
            monkeypatch.setattr(kz, name, refuse)
    got = integrate_holonomy(sys, loop)
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def test_integrate_batches_across_segments(monkeypatch):
    """23 steps over 3 segments are 8 per segment, in batches of 5 and 3;
    the loop's step count is rounded up to the 24 it takes."""
    monkeypatch.setattr(kz, "CHUNK_ENTRIES", 5 * 8 * 8)
    (_, N), _, h, spec, _ = _INTEGRATOR_CASES["polygon-all-moving"]
    spec = dict(spec, steps=23,
                waypoints=[_square(*c, count=4) for c in _CORNERS[:3]])
    sys = KZSystem.from_op(make_phi(2, [1, 1]), N, h)
    loop = LoopSpec(**spec)
    assert (loop.segments, loop.steps) == (3, 24)
    want = _integrate_oracle(sys, loop)
    got = integrate_holonomy(sys, loop)
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def test_apply_batches_across_segments(monkeypatch):
    """23 steps over 3 segments are 8 per segment, applied in batches of 5
    and 3 when CHUNK_ENTRIES holds the stage data of 5 steps."""
    (_, N), r, h, spec, _ = _INTEGRATOR_CASES["diag-3-4-nonsymmetric"]
    sys = KZSystem.from_op(r, N, h)
    loop = LoopSpec(**dict(spec, steps=23))
    assert loop.segments == 3
    nnz = len(kz.segment_operator(sys, kz.segment_pairs(loop)[0])[1])
    monkeypatch.setattr(kz, "CHUNK_ENTRIES", 5 * nnz)
    batches = []
    apply_steps = kz._apply_steps

    def counted(w, op, data, dt):
        batches.append((len(data) - 1) // 2)
        return apply_steps(w, op, data, dt)

    monkeypatch.setattr(kz, "_apply_steps", counted)
    want = _integrate_oracle(sys, loop)
    got = integrate_holonomy(sys, loop)
    assert batches == [5, 3] * 3
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def test_words_batches_across_segments(monkeypatch):
    """23 steps over 3 segments are 8 per segment, formed from the words in
    batches of 5 and 3 when CHUNK_ENTRIES holds 5 stage matrices; one point
    moves, so its one lift makes 4 words."""
    monkeypatch.setattr(kz, "CHUNK_ENTRIES", 5 * 4 * 4)
    sys = KZSystem.from_op(_random_op(2, 5), 2, 0.1 - 0.02j)
    loop = LoopSpec([1 + 1j, 0.0], "polygon", 23,
                    waypoints=[_square(1, 1, count=4), [0.0] * 4])
    assert loop.segments == 3
    batches = []
    words_steps = kz._words_steps

    def counted(w, held, c, dt):
        batches.append((len(held[0]), (c.shape[1] - 1) // 2))
        return words_steps(w, held, c, dt)

    monkeypatch.setattr(kz, "_words_steps", counted)
    want = _integrate_oracle(sys, loop)
    got = integrate_holonomy(sys, loop)
    assert batches == [(4, 5), (4, 3)] * 3
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def _full_width(sys, loop):
    """``integrate_holonomy``'s steps, batches and evaluation taken on all d
    columns of W on every live segment: the oracle of the moved-columns rule."""
    d = sys.dim
    w = np.eye(d, dtype=complex)
    per_seg = max(1, -(-loop.steps // loop.segments))
    dt = 1.0 / (loop.segments * per_seg)
    for seg, pairs in enumerate(kz.segment_pairs(loop)):
        if not pairs:
            continue
        op, pos, m = kz.segment_operator(sys, pairs)
        mode, batch = kz._evaluation(d, len(pairs), len(pos))
        held = kz._words_held(op, pos, m, batch) if mode == "words" else None
        rows, cols = np.array(pairs).T
        for k0 in range(0, per_seg, batch):
            ts = seg / loop.segments + np.arange(2 * k0, 2 * min(per_seg, k0 + batch) + 1) * (dt / 2)
            z, v = loop.stage_data(ts, seg)
            coeffs = sys.h * v[rows] / (z[rows] - z[cols])
            if mode == "words":
                w = kz._words_steps(w, held, coeffs, dt)
            else:
                w = kz._apply_steps(w, op, np.ascontiguousarray((m @ coeffs).T), dt)
    return w


def _stage_increments(a, dt):
    """Each RK4 step's M - I from the dense stage matrices ``a`` (start,
    middle, end, middle, ...): M - I = dt/6 (A1 + 2 X2 + 2 X3 + X4) with
    X2 = A2 (I + dt/2 A1), X3 = A2 (I + dt/2 X2) and X4 = A4 (I + dt X3),
    the increments of ``_apply_steps``' k1 .. k4 on W = I."""
    inc = []
    for a1, a2, a4 in zip(a[:-1:2], a[1::2], a[2::2]):
        x2 = a2 + dt / 2 * a2 @ a1
        x3 = a2 + dt / 2 * a2 @ x2
        x4 = a4 + dt * a4 @ x3
        inc.append(dt / 6 * (a1 + 2 * x2 + 2 * x3 + x4))
    return np.array(inc)


def _steps_in_order(w, inc):
    """The steps applied one at a time, w + (M_k - I) w, first step first."""
    for step in inc:
        w = w + step @ w
    return w


def _three_way_evaluation(d, terms, nnz):
    """The cost rule while stacked stages were a third evaluation: its
    "stacked" is now *apply*, and every other answer stands."""
    if 8 * nnz * d + 32 ** 3 <= d ** 3:
        return "apply", max(1, kz.CHUNK_ENTRIES // max(nnz, terms))
    batch = max(1, kz.CHUNK_ENTRIES // max(d * d, terms))
    if kz._word_count(terms) <= min(64, 2 * batch + 1, d * d):
        return "words", batch
    return "stacked", batch


def test_evaluation_matches_the_three_way_rule():
    """``_evaluation`` answers *apply* or words, as the three-way rule did
    wherever that rule did, and *apply* with *apply*'s batch wherever it
    took stacked stages; over d in {4, .., 256}, T = 1 .. 12 and nnz(A)
    from 1 to d^2, the *apply* threshold on both sides included. The
    pool's three shapes keep their evaluation: the circle2 loops (d = 8,
    T = 2) take words, the rank-1 polygons (d = 81, T = 12, nnz = 401) and
    the circle4 loops (d = 256, T = 3) *apply*."""
    seen = set()
    for d in (4, 8, 16, 27, 32, 64, 81, 256):
        edge = max(1, (d ** 3 - 32 ** 3) // (8 * d))  # the largest nnz *apply* takes
        counts = {1, 2, 3, d // 2, d, 4 * d, d * d // 4, d * d, edge - 1, edge, edge + 1}
        for terms in range(1, 13):
            for nnz in sorted(x for x in counts if 1 <= x <= d * d):
                old = _three_way_evaluation(d, terms, nnz)
                seen.add(old[0])
                if old[0] == "stacked":
                    old = "apply", max(1, kz.CHUNK_ENTRIES // max(nnz, terms))
                assert kz._evaluation(d, terms, nnz) == old, (d, terms, nnz)
    assert seen == {"apply", "words", "stacked"}
    assert all(kz._evaluation(8, 2, nnz)[0] == "words" for nnz in range(1, 65))
    assert kz._evaluation(81, 12, 401) == ("apply", kz.CHUNK_ENTRIES // 401)
    assert all(kz._evaluation(256, 3, nnz)[0] == "apply" for nnz in range(1, 256 * 256 + 1))


@pytest.mark.parametrize("b", [1, 2, 3, 5, 8, 13])
def test_propagator_batch_is_its_steps_in_order(b):
    """``_multiply_increments`` on a batch of b propagator steps, multiplied
    pairwise, is the steps applied one at a time, w + (M_k - I) w, on the
    increments of random stage matrices that do not commute, so a product
    taken in the wrong order shows."""
    rng = np.random.default_rng(b)
    d, dt = 6, 0.05
    a = rng.standard_normal((2 * b + 1, d, d)) + 1j * rng.standard_normal((2 * b + 1, d, d))
    w = rng.standard_normal((d, 4)) + 1j * rng.standard_normal((d, 4))
    inc = _stage_increments(a, dt)
    want = _steps_in_order(w, inc)
    got = kz._multiply_increments(w.copy(), inc.copy(), np.empty_like(inc[:(b + 1) // 2]))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _random_segment(terms, d, seed):
    """T random real lifts that do not commute, on a shared sparse pattern,
    as a ``segment_operator`` (op, pos, m); the lifts of a rational R are
    real."""
    from scipy import sparse

    rng = np.random.default_rng(seed)
    lifts = rng.standard_normal((terms, d, d)) * (rng.random((terms, d, d)) < 0.6)
    pos = np.flatnonzero(np.any(lifts != 0, axis=0))
    m = sparse.csr_matrix(lifts.reshape(terms, -1)[:, pos].T)
    op = sparse.csr_matrix((np.zeros(len(pos), dtype=complex), pos % d,
                            np.searchsorted(pos, np.arange(d + 1) * d)), shape=(d, d))
    return lifts, (op, pos, m)


@pytest.mark.parametrize("terms", [1, 2, 3])
def test_word_increments_match_stage_increments(terms):
    """The words are the products of the lifts, first letter leftmost, in
    lexicographic order by length; a batch's increments formed from them
    are those of the dense stage matrices, and so are its steps, on T
    random lifts that do not commute."""
    d, b, dt = 5, 6, 0.05
    lifts, segment = _random_segment(terms, d, terms)
    words = kz.segment_words(*segment)
    want = [np.linalg.multi_dot([np.eye(d)] + [lifts[t] for t in letters])
            for k in range(1, 5) for letters in itertools.product(range(terms), repeat=k)]
    assert words.shape == (kz._word_count(terms), d * d) == (len(want), d * d)
    want = np.array(want).reshape(len(want), -1)
    assert np.max(np.abs(words - want)) <= 1e-13 * np.max(np.abs(want))
    rng = np.random.default_rng(10 + terms)
    c = rng.standard_normal((terms, 2 * b + 1)) + 1j * rng.standard_normal((terms, 2 * b + 1))
    a = np.einsum("ts,tij->sij", c, lifts)
    stages = _stage_increments(a, dt)
    got = (kz._word_coefficients(c, dt).T @ words).reshape(b, d, d)
    assert np.max(np.abs(got - stages)) <= 1e-13 * np.max(np.abs(stages))
    w = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    want = _steps_in_order(w, stages)
    got = kz._words_steps(w.copy(), kz._words_held(*segment, b), c, dt)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["circle-2-3", "conjugate-4-3"])
def test_words_products_stay_serial(case, monkeypatch):
    """Each numpy product of the words path multiplies at most
    SERIAL_PRODUCT m k n (the two-dimensional products; the pairwise
    product's are stacked), and the chunks tile the product: with the
    bound lowered to 64, which splits both rows and columns, the words
    give the same holonomy."""
    (n, N), op, h, spec, _ = _INTEGRATOR_CASES[case]
    r = op if isinstance(op, TensorOp2) else make_phi(n, op)
    sys, loop = KZSystem.from_op(r, N, h), LoopSpec(**spec)
    want = integrate_holonomy(sys, loop)
    sizes = []
    matmul = np.matmul

    def recorded(a, b, out):
        if a.ndim == 2:
            sizes.append(a.shape + b.shape[1:])
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", recorded)
    integrate_holonomy(sys, loop)
    assert len(sizes) > 1 and max(m * k * p for m, k, p in sizes) <= kz.SERIAL_PRODUCT
    monkeypatch.setattr(kz, "SERIAL_PRODUCT", 64)
    got = integrate_holonomy(sys, loop)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _record_widths(monkeypatch):
    """Record (evaluation, shape of the component-stacked array integrated,
    array returned) for every batch."""
    widths = []
    for mode, name in _EVALUATIONS.items():
        def counted(w, *args, steps=getattr(kz, name), mode=mode):
            out = steps(w, *args)
            widths.append((mode, w.shape, out))
            return out

        monkeypatch.setattr(kz, name, counted)
    return widths


def _bfs_components(adj):
    """Component labels of the symmetric closure of the boolean d x d
    pattern ``adj``, by breadth-first search: each the smallest index of its
    component."""
    sym = adj | adj.T
    labels = np.full(len(adj), -1)
    for start in range(len(adj)):
        if labels[start] < 0:
            labels[start] = start
            queue = [start]
            while queue:
                for u in np.flatnonzero(sym[queue.pop()]):
                    if labels[u] < 0:
                        labels[u] = start
                        queue.append(u)
    return labels


def _pattern(sys, pairs):
    """The boolean d x d union of the patterns of the lifts R^{ij}, (i, j) in
    ``pairs``, from dense lifts."""
    return sum(lift_float(sys.r_float != 0, sys.n, i, j, sys.N) for i, j in pairs) != 0


def _stacked_shapes(sys, loop):
    """The shape of the array each live segment steps, in every evaluation:
    the rows of the components of the loop's pattern that hold a moved
    column, and the most moved columns one component holds; from dense
    lifts and BFS."""
    live = [p for p in kz.segment_pairs(loop) if p]
    labels = _bfs_components(_pattern(sys, {p for pairs in live for p in pairs}))
    moved = np.zeros(sys.dim, dtype=bool)
    shapes = []
    for pairs in live:
        moved |= np.any(_pattern(sys, pairs), axis=0)
        comps = np.unique(labels[moved])
        shapes.append((int(np.isin(labels, comps).sum()),
                       int(np.bincount(labels[moved]).max())))
    return shapes


@pytest.mark.parametrize("d", [1, 2, 7, 30, 81, 256])
def test_components_match_bfs(d):
    """``_components`` labels each index with the smallest index of its
    weakly connected component, as breadth-first search on the symmetric
    closure does, on seeded random patterns: empty, diagonal, a reversed
    path (the slowest case for label propagation), and sparse and denser
    random ones with self-loops."""
    from scipy import sparse

    rng = np.random.default_rng(d)
    path = np.zeros((d, d), dtype=bool)
    path[np.arange(1, d), np.arange(d - 1)] = True
    order = rng.permutation(d)
    patterns = [np.zeros((d, d), dtype=bool), np.eye(d, dtype=bool), path,
                path[np.ix_(order, order)]]
    patterns += [rng.random((d, d)) < p / d for p in (0.3, 0.7, 1.0, 1.5, 3.0)]
    for adj in patterns:
        op = sparse.csr_matrix(adj.astype(complex))
        assert np.array_equal(kz._components(op), _bfs_components(adj))


def _moved_cases():
    """(name, system, loop, evaluations): the cases of the moved-columns rule
    beyond the single circle, which ``test_circle_moves_37_rank_columns_at_n4``
    takes. The "mixed" case takes words on the segments with two live lifts
    and *apply* on the one with four, and the "propagator" cases take the
    words propagators. The "components" cases take words and *apply* on a
    pattern of several components: phi = (1, 2) makes W diagonal."""
    # point 0 moves on the first two segments, point 2 on the last three: the
    # second adds the columns with a_2 = a_j in im phi and a_0 != a_j for all
    # j, and the last two still step the columns only point 0 moved
    late = [[1 + 1j, -1 + 1j, 1 + 1j, 1 + 1j, 1 + 1j],
            [6.0] * 5, [12.0, 12.0, 12.0 + 1j, 13.0, 12.0]]
    # no point moves on the second segment: A = 0 there
    paused = [[1.0, 1.5, 1.5, 1.2 + 0.4j, 1.0], [0.0] * 5, [9.0] * 5]
    phi4 = make_phi(4, [1, 2, 2, 4])
    return [
        ("late-apply", KZSystem.from_op(make_phi(3, [1, 2, 2]), 4, 0.1 - 0.03j),
         LoopSpec([1 + 1j, 6.0, 12.0, 30.0], "polygon", 8,
                  waypoints=late + [[30.0] * 5]), {"apply"}),
        ("late-mixed", KZSystem.from_op(make_phi(3, [1, 2, 2]), 3, 0.1 - 0.03j),
         LoopSpec([1 + 1j, 6.0, 12.0], "polygon", 8, waypoints=late),
         {"words", "apply"}),
        ("paused-apply", KZSystem.from_op(phi4, 4, 0.08),
         LoopSpec([1.0, 0.0, 9.0, 20.0], "polygon", 9,
                  waypoints=paused + [[20.0] * 5]), {"apply"}),
        ("paused-propagator", KZSystem.from_op(make_phi(2, [1, 2]), 3, 0.08),
         LoopSpec([1.0, 0.0, 9.0], "polygon", 9, waypoints=paused), {"words"}),
        ("dense-apply", KZSystem.from_op(_DIAG3, 4, 0.03 + 0.01j),
         LoopSpec(**_INTEGRATOR_CASES["diag-3-4-nonsymmetric"][3]), {"apply"}),
        ("dense-propagator", KZSystem.from_op(_CONJ4, 3, 0.05 - 0.01j),
         LoopSpec(**_INTEGRATOR_CASES["conjugate-4-3"][3]), {"words"}),
        ("components-words", KZSystem.from_op(make_phi(2, [1, 2]), 3, 0.08 + 0.03j),
         LoopSpec(**_INTEGRATOR_CASES["circle-2-3"][3]), {"words"}),
        ("components-apply", KZSystem.from_op(make_phi(2, [1, 2]), 4, 0.08 - 0.02j),
         LoopSpec(**_INTEGRATOR_CASES["circle-2-4"][3]), {"apply"}),
    ]


@pytest.mark.parametrize("case", range(len(_moved_cases())),
                         ids=[c[0] for c in _moved_cases()])
def test_moved_columns_match_full_width(case, monkeypatch):
    """Integrating only the moved columns of W, stacked by the components of
    the loop's pattern, gives the full-width run: bit for bit under *apply*,
    within 1e-11 where words are taken. A column joins when a live
    segment's pattern first reaches it, and a segment with A = 0 moves
    none."""
    name, sys, loop, modes = _moved_cases()[case]
    want = _full_width(sys, loop)
    widths = _record_widths(monkeypatch)
    got = integrate_holonomy(sys, loop)
    assert {m for m, _, _ in widths} == modes
    # in C order, which scipy's sparse products read without a copy
    assert all(out.flags.c_contiguous for _, _, out in widths)
    if modes == {"apply"}:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))
    d = sys.dim
    seen = [shape for _, shape, _ in widths]
    assert all(a <= b for prev, shape in zip(seen, seen[1:]) for a, b in zip(prev, shape))
    assert seen == _stacked_shapes(sys, loop)
    if modes == {"apply"}:
        # the moved columns are those of the live lifts' patterns
        union = {p for pairs in kz.segment_pairs(loop) for p in pairs}
        unmoved = np.all(got == np.eye(d), axis=0)
        assert np.array_equal(~unmoved, np.any(_pattern(sys, union), axis=0))
    if name == "dense-apply":  # diagonal R: W is diagonal, each column its own block
        assert set(seen) == {(d, 1)}
    elif name.startswith("dense"):
        assert set(seen) == {(d, d)}
    elif name.startswith("components"):
        # W diagonal: one row per moved column, all but the two rows a
        # whose moving coordinate differs from every other
        assert set(seen) == {(d - 2, 1)}
    elif name.startswith("late"):
        k = sys.N - 1
        assert [len(p) for p in kz.segment_pairs(loop)] == [k, 2 * k, k, k]
        assert seen[0] != seen[-1] and seen[-1] != (d, d)
    elif name.startswith("paused"):
        assert [bool(p) for p in kz.segment_pairs(loop)] == [True, False, True, True]
        assert len(widths) == 3 and seen[-1] != (d, d)


def test_circle_moves_37_rank_columns_at_n4(monkeypatch):
    """A phi circle at n = 4, N = 4 integrates the columns a with
    a_m = a_j in im phi for some j != m, m the moving point: for each of the
    rank values v, 4^3 - 3^3 = 37 of them. They are stepped stacked by the
    components of the pattern, in C order: at rank 1 one component of all
    256 rows, whose 37 columns are W's moved columns in W's order, and at
    rank 4, where W is diagonal, 148 blocks of one. The holonomy is the
    full-width run's, bit for bit."""
    loop = LoopSpec([0.0, 1.0, 10.0, 20j], "circle", 2, moving=1, center=0, radius=0.5)
    stacked = {(1, 1, 1, 1): (256, 37), (1, 2, 1, 2): (224, 7), (1, 2, 2, 4): (186, 7),
               (1, 2, 3, 4): (148, 1)}
    for phi, shape in stacked.items():
        sys = KZSystem.from_op(make_phi(4, list(phi)), 4, 0.05 + 0.02j)
        want = _full_width(sys, loop)
        widths = _record_widths(monkeypatch)
        got = integrate_holonomy(sys, loop)
        pattern = _pattern(sys, kz.segment_pairs(loop)[0])
        assert np.count_nonzero(np.any(pattern, axis=0)) == 37 * len(set(phi))
        assert [w[:2] for w in widths] == [("apply", shape)]
        if len(set(phi)) == 1:  # one component holding every row, not permuted
            op = kz.segment_operator(sys, kz.segment_pairs(loop)[0])[0]
            moved = np.zeros(sys.dim, dtype=bool)
            moved[op.indices] = True
            d, rows, cols, start, count = kz._stacked(op, kz._components(op), moved)[2]
            assert np.array_equal(rows, np.arange(d))
            assert np.array_equal(cols, np.flatnonzero(moved))
            assert set(start) == {0} and set(count) == {37}
        assert _stacked_shapes(sys, loop) == [shape]
        assert widths[0][2].flags.c_contiguous
        assert np.array_equal(got, want)
        monkeypatch.undo()


@pytest.mark.parametrize("phi", idempotent_maps(3), ids=lambda phi: "".join(map(str, phi)))
def test_stacked_polygon_matches_full_width_at_n3(phi, monkeypatch):
    """Every phi at n = 3 on the N = 4 polygon on which every point moves:
    the stacked *apply* run is the full-width run bit for bit, and the
    loop's one ``segment_operator`` call also gives its components."""
    (_, N), _, h, spec, _ = _INTEGRATOR_CASES["polygon-all-moving"]
    spec = dict(spec, base=[complex(*c) for c in _CORNERS], steps=8,
                waypoints=[_square(*c) for c in _CORNERS])
    sys, loop = KZSystem.from_op(make_phi(3, list(phi)), 4, h), LoopSpec(**spec)
    want = _full_width(sys, loop)
    built = _record_segment_operators(monkeypatch)
    widths = _record_widths(monkeypatch)
    got = integrate_holonomy(sys, loop)
    assert built == [kz.segment_pairs(loop)[0]]
    assert {m for m, _, _ in widths} == {"apply"}
    assert [shape for _, shape, _ in widths] == _stacked_shapes(sys, loop)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ["circle-4-4", "long-circle", "polygon-all-moving",
                                  "polygon-4-all-moving"])
def test_integration_bytes_bounds_the_traced_peak(case):
    """The peak that tracemalloc sees while ``integrate_holonomy`` runs,
    the array of the moved columns it steps included, stays within
    ``integration_bytes``: *apply* on a circle and on a polygon of three
    moving points, words, and a component-stacked *apply* polygon."""
    (n, N), phi, h, spec, mode = _INTEGRATOR_CASES[case]
    sys = KZSystem.from_op(make_phi(n, phi), N, h)
    loop = LoopSpec(**spec)
    assert 0 < _traced_peak(sys, loop) <= kz.integration_bytes(sys, loop)


def _traced_peak(sys, loop):
    """The peak that tracemalloc sees while ``integrate_holonomy`` runs, past
    what was held before it, on a second run (imports and first-call
    caches come before)."""
    import tracemalloc

    integrate_holonomy(sys, loop)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        integrate_holonomy(sys, loop)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_integration_bytes_bounds_the_traced_peak_with_the_union():
    """On a loop whose first *apply* segment has fewer live pairs than the
    loop, the operator of the union of the live pairs, which gives the
    components, is built beside the segment's, and ``integration_bytes``
    counts it."""
    _, sys, loop, _ = next(c for c in _moved_cases() if c[0] == "late-apply")
    seg_pairs = kz.segment_pairs(loop)
    union = kz._union_pairs(seg_pairs)
    assert any(p and p != union for p in seg_pairs)
    assert 0 < _traced_peak(sys, loop) <= kz.integration_bytes(sys, loop)


def test_integration_bytes_prices_words_on_a_segment_of_fewer_lifts():
    """The rule at the most live lifts, four at d = 27, takes *apply*, but
    the segments of two lifts take words: ``integration_bytes`` prices the
    words batch, 5 b + 3 d x d arrays, and bounds the traced peak."""
    _, sys, loop, _ = next(c for c in _moved_cases() if c[0] == "late-mixed")
    d, per_pair = sys.dim, (sys.dim // sys.n ** 2) * int(np.count_nonzero(sys.r_float))
    live = sorted({len(p) for p in kz.segment_pairs(loop) if p})
    assert live == [2, 4]
    assert [kz._evaluation(d, t, t * per_pair)[0] for t in live] == ["words", "apply"]
    b = kz.CHUNK_ENTRIES // (d * d)
    assert kz.integration_bytes(sys, loop) >= 16 * (5 * b + 3) * d * d
    assert 0 < _traced_peak(sys, loop) <= kz.integration_bytes(sys, loop)


def _apply_increment_oracle(w, op, data, dt):
    """One RK4 step's dt/6 (k1 + 2 k2 + 2 k3 + k4) by ``op @ x`` products,
    A(t) swapped into a copy of ``op`` as its data: the step ``_apply_steps``
    took before it called ``csr_matvecs`` into its own buffers."""
    op = op.copy()
    op.data = data[0]
    k1 = op @ w
    op.data = data[1]
    k2 = op @ (w + (dt / 2) * k1)
    k3 = op @ (w + (dt / 2) * k2)
    k2 *= 2
    k2 += k1
    op.data = data[2]
    k4 = op @ (w + dt * k3)
    k3 *= 2
    k2 += k3
    k2 += k4
    k2 *= dt / 6
    return k2


def _apply_steps_oracle(w, op, data, dt):
    for s in range(0, len(data) - 1, 2):
        w += _apply_increment_oracle(w, op, data[s:s + 3], dt)
    return w


def _random_apply_inputs(r, width, steps, density, seed):
    """A random complex r x r CSR pattern with some rows left empty, the
    stage data of ``steps`` RK4 steps on it and a random complex (r, width) W."""
    from scipy import sparse

    rng = np.random.default_rng(seed)
    pattern = rng.random((r, r)) < density
    pattern[rng.random(r) < 0.3] = False  # empty rows
    op = sparse.csr_matrix(pattern.astype(complex))
    data = (rng.standard_normal((2 * steps + 1, op.nnz))
            + 1j * rng.standard_normal((2 * steps + 1, op.nnz)))
    w = rng.standard_normal((r, width)) + 1j * rng.standard_normal((r, width))
    return w, op, data


@pytest.mark.parametrize("r,width,steps,density", [
    (1, 1, 1, 1.0), (1, 4, 3, 1.0), (5, 1, 2, 0.5), (7, 3, 4, 0.0), (30, 1, 3, 0.2),
    (30, 11, 2, 0.3), (81, 33, 2, 0.1), (256, 7, 2, 0.03), (256, 37, 1, 0.05)])
def test_apply_steps_match_the_operator_products(r, width, steps, density):
    """``_apply_steps`` is the ``op @ x`` RK4 bit for bit: on random complex
    operators with empty rows (one with no entry at all), a single row,
    width 1 and r up to 256, and on W both C- and Fortran-ordered."""
    w, op, data = _random_apply_inputs(r, width, steps, density, r * width + steps)
    dt = 0.05
    want = _apply_steps_oracle(w.copy(), op, data, dt)
    got = kz._apply_steps(w.copy(), op, data, dt)
    assert np.array_equal(got, want)
    assert kz._apply_steps(w.copy(order="F"), op, data, dt).tobytes("C") == want.tobytes()
    assert not np.array_equal(want, w) or op.nnz == 0


@pytest.mark.parametrize("case", ["circle-4-4", "polygon-4-all-moving", "circle-3-5",
                                  "diag-3-4-nonsymmetric"])
def test_apply_steps_match_the_operator_products_on_loops(case, monkeypatch):
    """The *apply* loops, among them those of the perfbench pool's shapes
    (the n = 3, N = 4 polygon on which every point moves, and the n = 4,
    N = 4 circle at every rank of phi), integrate to the same holonomy bit
    for bit with the ``op @ x`` step as with ``_apply_steps``."""
    (n, N), op, h, spec, _ = _INTEGRATOR_CASES[case]
    loop = LoopSpec(**spec)
    ops = [op]
    if case == "circle-4-4":
        ops = [[1, 1, 1, 1], [1, 2, 1, 2], [1, 2, 2, 4], [1, 2, 3, 4]]
    for phi in ops:
        r = phi if isinstance(phi, TensorOp2) else make_phi(n, phi)
        sys = KZSystem.from_op(r, N, h)
        got = integrate_holonomy(sys, loop)
        monkeypatch.setattr(kz, "_apply_steps", _apply_steps_oracle)
        want = integrate_holonomy(sys, loop)
        monkeypatch.undo()
        assert np.array_equal(got, want)


def test_csr_matvecs_adds_the_product():
    """The private scipy routine ``_apply_steps`` calls,
    ``csr_matvecs(n_row, n_col, n_vecs, indptr, indices, data, X, Y)``, adds
    A X into Y: on a nonzero Y, with int32 and with int64 indices, on a
    rectangular A with an empty row and on one vector. The entries are
    small Gaussian integers, so every sum is exact."""
    from scipy import sparse
    from scipy.sparse._sparsetools import csr_matvecs

    rng = np.random.default_rng(7)

    def gaussian(*shape):
        return rng.integers(-4, 5, shape) + 1j * rng.integers(-4, 5, shape)

    a = gaussian(6, 5) * (rng.random((6, 5)) < 0.5)
    a[2] = 0
    csr = sparse.csr_matrix(a)
    for index in (np.int32, np.int64):
        for vecs in (1, 3):
            x, y = gaussian(5, vecs), gaussian(6, vecs)
            want = y + a @ x
            csr_matvecs(6, 5, vecs, csr.indptr.astype(index), csr.indices.astype(index),
                        csr.data, x, y)
            assert np.array_equal(y, want)


def _segment_operator_oracle(sys, pairs):
    """``segment_operator`` built block by block, one array of slot blocks
    per pair and the map through a COO matrix: the oracle of the one-pass
    build."""
    from scipy import sparse

    d = sys.dim
    ra, ca = np.nonzero(sys.r_float)
    blocks = [kz._slot_blocks(sys.n, i, j, sys.N) for i, j in pairs]
    lin = np.concatenate([(b[:, ra] * d + b[:, ca]).ravel() for b in blocks])
    pos, entry = np.unique(lin, return_inverse=True)
    per_lift = len(lin) // len(pairs)
    term = np.repeat(np.arange(len(pairs)), per_lift)
    vals = np.tile(sys.r_float[ra, ca], len(pairs) * (d // sys.n ** 2))
    m = sparse.csr_matrix((vals, (entry, term)), shape=(len(pos), len(pairs)))
    indptr = np.searchsorted(pos, np.arange(d + 1) * d)
    op = sparse.csr_matrix((np.zeros(len(pos), dtype=complex), pos % d, indptr),
                           shape=(d, d))
    return op, pos, m


def _pair_sets():
    """(system, pairs): every pair set of the integrator cases (each
    segment's and their union), and of the perfbench loop shapes at every
    rank of phi: every point moving, and one point moving, at (n, N) =
    (2, 3), (3, 4) and (4, 4)."""
    for (n, N), op, h, spec, _ in _INTEGRATOR_CASES.values():
        sys = KZSystem.from_op(op if isinstance(op, TensorOp2) else make_phi(n, op), N, h)
        seg_pairs = kz.segment_pairs(LoopSpec(**spec))
        for pairs in [p for p in seg_pairs if p] + [kz._union_pairs(seg_pairs)]:
            yield sys, pairs
    for n, N in ((2, 3), (3, 4), (4, 4)):
        for rank in range(1, n + 1):
            phi = next(p for p in idempotent_maps(n) if len(set(p)) == rank)
            sys = KZSystem.from_op(make_phi(n, list(phi)), N, 0.1)
            yield sys, [(i, j) for i in range(N) for j in range(N) if i != j]
            for i in range(N):
                yield sys, [(i, j) for j in range(N) if j != i]


def test_segment_operator_matches_the_per_block_build():
    """The one-pass ``segment_operator`` gives the per-block build's CSR
    pattern, positions and map, array for array."""
    count = 0
    for sys, pairs in _pair_sets():
        op, pos, m = kz.segment_operator(sys, pairs)
        want_op, want_pos, want_m = _segment_operator_oracle(sys, pairs)
        assert op.shape == want_op.shape and m.shape == want_m.shape
        assert np.array_equal(op.indptr, want_op.indptr)
        assert np.array_equal(op.indices, want_op.indices)
        assert np.array_equal(pos, want_pos)
        for got, want in ((m.indptr, want_m.indptr), (m.indices, want_m.indices),
                          (m.data, want_m.data)):
            assert np.array_equal(got, want)
        count += 1
    assert count > 50


def _runs(seg_pairs):
    """The runs of consecutive live segments with the same pairs, segments
    without a live pair left out."""
    runs = []
    for pairs in seg_pairs:
        if pairs and (not runs or runs[-1] != pairs):
            runs.append(pairs)
    return runs


@pytest.mark.parametrize("case", ["polygon-4-all-moving", "late-apply", "late-mixed",
                                  "paused-apply", "paused-propagator"])
def test_stacked_array_is_gathered_once_per_run(case, monkeypatch):
    """The component-stacked array is gathered from W when a run of
    segments with the same live pairs begins and scattered back when it
    ends: two ``_stack_positions`` calls per run, one before the run's first
    step and one after its last. An all-moving polygon is one run; the late
    loops change their pairs twice; the paused loops' segment without a live
    pair leaves W as it is and ends no run."""
    if case in _INTEGRATOR_CASES:
        (n, N), phi, h, spec, _ = _INTEGRATOR_CASES[case]
        sys, loop = KZSystem.from_op(make_phi(n, phi), N, h), LoopSpec(**spec)
    else:
        _, sys, loop, _ = next(c for c in _moved_cases() if c[0] == case)
    runs = _runs(kz.segment_pairs(loop))
    assert len(runs) == {"polygon": 1, "late": 3, "paused": 1}[case.split("-")[0]]
    want = _full_width(sys, loop)
    events = []
    positions = kz._stack_positions

    def recorded(layout):
        events.append("positions")
        return positions(layout)

    monkeypatch.setattr(kz, "_stack_positions", recorded)
    for name in _EVALUATIONS.values():
        def counted(*args, steps=getattr(kz, name)):
            events.append("steps")
            return steps(*args)

        monkeypatch.setattr(kz, name, counted)
    got = integrate_holonomy(sys, loop)
    # each run: a gather, its batches of steps, a scatter
    batches = [e for k, e in enumerate(events) if e != "steps" or events[k - 1] != "steps"]
    assert batches == ["positions", "steps", "positions"] * len(runs)
    assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


def test_convergence_order_checks_step_cap_before_integrating(monkeypatch):
    """The 4s run of a loop with s > MAX_STEPS / 4 steps is refused before
    the s and 2s runs are integrated."""
    monkeypatch.setattr(LoopSpec, "_check_separation", lambda loop: None)
    loop = LoopSpec([1.0, 0.0], "circle", kz.MAX_STEPS // 4 + 1, moving=0,
                    center=1, radius=0.5)
    sys = KZSystem.from_op(make_phi(2, [1, 1]), 2, 0.05)

    def refuse(*args):
        raise AssertionError("integrated before the step cap was checked")

    monkeypatch.setattr(kz, "integrate_holonomy", refuse)
    with pytest.raises(ValueError, match="steps must be at most"):
        convergence_order(sys, loop)


def test_convergence_order_is_infinite_when_only_the_coarsest_run_differs(monkeypatch):
    """Runs at 2s and 4s steps that agree exactly, beside an s run that does
    not, give order ``math.inf``."""
    _, sys, loop = _circle_system(0.1, steps=8)
    runs = iter([np.full((4, 4), 0.5), np.zeros((4, 4)), np.zeros((4, 4))])
    monkeypatch.setattr(kz, "integrate_holonomy", lambda s, lp: next(runs))
    assert convergence_order(sys, loop) == math.inf


def test_convergence_order_is_fourth():
    _, sys, loop = _circle_system(0.1, steps=24)
    p = convergence_order(sys, loop)
    assert isinstance(p, float)
    assert 3.5 <= p <= 4.5


def test_coarse_integration_runs():
    _, sys, loop = _circle_system(0.1, steps=8)
    w = integrate_holonomy(sys, loop)
    assert w.shape == (4, 4)
    assert np.all(np.isfinite(w))


def test_connection_matrix_antisymmetry_of_pair_terms():
    # with both points moving oppositely the (i, j) and (j, i) terms add
    r = make_phi(2, [1, 1])
    sys = KZSystem.from_op(r, 2, 1.0)
    sq = [1 + 0j, 1j, -1 + 0j, -1j, 1 + 0j]
    opp = [-z for z in sq]
    loop = LoopSpec([1 + 0j, -1 + 0j], "polygon", steps=32,
                    waypoints=[sq, opp])
    a = connection_matrix(sys, loop, 0.1)
    assert a.shape == (4, 4)
    assert np.all(np.isfinite(a))


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_loop_json_roundtrip_circle(tmp_path, capsys):
    """A fixed-point centre is written as its 1-based index and an explicit
    one as [re, im]; a centre at the origin is one of each. ``kz --compare``
    accepts the written fixed-point loop and refuses the explicit one."""
    loop = LoopSpec([1.0, 0.0], "circle", steps=32, moving=0, center=1,
                    radius=0.5)
    blob = json.dumps(loop_to_json(loop))
    back = loop_from_json(json.loads(blob))
    assert back.kind == "circle"
    assert back.moving == 0
    assert back.center == loop.center
    assert back.center_index == 1
    assert back.radius == loop.radius
    assert back.steps == 32
    for t in (0.0, 0.3, 0.7):
        assert back.positions(t) == loop.positions(t)
    op = tmp_path / "op.json"
    op.write_text(json.dumps(operator_to_json(make_phi(2, [1, 1]))))
    for center, index, code in ((0, 0, 0), (0j, None, 2)):
        loop = LoopSpec([0, 1, 10j], "circle", 8, moving=1, center=center, radius=0.5)
        obj = loop_to_json(loop)
        assert obj["center"] == (1 if index == 0 else [0.0, 0.0])
        back = loop_from_json(json.loads(json.dumps(obj)))
        assert back.center_index == index and back.center == loop.center == 0
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(obj))
        assert main(["kz", "--op", str(op), "--points", "3", "--h", "0.05", "--compare",
                     "--loop", str(path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert err == ("error: comparison mode requires a circle loop centered on a "
                           "fixed point\n")
        else:
            assert json.loads(out)["oracle_distance"] < 1e-6 and err == ""


def test_loop_json_roundtrip_polygon():
    sq = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    loop = LoopSpec([1 + 1j, 0.0], "polygon", steps=16,
                    waypoints=[sq, [0.0] * 5])
    back = loop_from_json(loop_to_json(loop))
    assert back.kind == "polygon"
    assert back.waypoints == loop.waypoints
    for t in (0.0, 0.45, 0.9):
        assert back.positions(t) == loop.positions(t)


def test_holonomy_json_shape():
    _, sys, loop = _circle_system(0.1, steps=16)
    w = integrate_holonomy(sys, loop)
    obj = holonomy_to_json(w, sys.h, sys.N, sys.n)
    assert obj["N"] == 2 and obj["n"] == 2
    assert obj["h"] == [0.1, 0.0]
    assert len(obj["matrix"]) == 4
    assert all(len(row) == 4 for row in obj["matrix"])


@pytest.mark.parametrize("build, message", [
    (lambda: LoopSpec([0, 1], "circle", 8, moving=1, center=0),
     "circle loops need moving, center, radius"),
    (lambda: LoopSpec([0, 1], "polygon", 8), "polygon loops need waypoints"),
    (lambda: LoopSpec([0, 1], "polygon", 8, waypoints=[[0, 1j, 0]]),
     "one waypoint path per coordinate required"),
    (lambda: LoopSpec([0, 1], "ellipse", 8), "unknown loop kind 'ellipse'"),
    (lambda: integrate_holonomy(KZSystem.from_op(make_phi(2, [1, 1]), 3, 0.1),
                                LoopSpec([0, 1], "circle", 8, moving=1, center=0,
                                         radius=0.5)),
     "loop and system disagree on the number of points"),
    # cmath.isfinite raises OverflowError on an int beyond the float range
    (lambda: LoopSpec([10 ** 400, 1], "circle", 8, moving=1, center=0, radius=0.5),
     "base point must be a finite complex number"),
    (lambda: LoopSpec([0, 1], "circle", 8, moving=1, center=0, radius=-0.5),
     "radius must be positive"),
])
def test_loop_and_integration_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
