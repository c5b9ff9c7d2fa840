"""Knizhnik-Zamolodchikov connection: lifts, flatness, and loop holonomy.

The connection on the configuration space of N distinct points is

    dW/dt = h * sum_{i != j} (dz^i/dt) / (z^i - z^j) * R^{ij} W,

with R^{ij} acting as R on tensor slots (i, j) and as the identity
elsewhere. All algebraic identities (flatness brackets) are evaluated
exactly, over integers with the denominators cleared; only the ODE itself
runs in complex doubles.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import os

import numpy as np

from . import linalg as la
from .errors import DimensionCap, PathTooClose
from .tensor_ops import (  # lift_exact is re-exported next to lift_float
    TensorOp2,
    _commute,
    _lift_sparse,
    _slot_blocks,
    _sparse_add,
    flip_invariant,
    lift_exact,
)

DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "LONGEQ_MAX_DIM"
MIN_SEPARATION_FACTOR = 1e-6
MAX_STEPS = 1_000_000  # the separation guard alone samples 2 * steps + 1 positions
# complex entries formed at once: the integrator batches about
# CHUNK_ENTRIES // dim^2 RK4 steps (one at dim 256), the separation guard
# CHUNK_ENTRIES // (N(N-1)/2) samples
CHUNK_ENTRIES = 1 << 16
# bytes of complex lifts the integrator may hold: each live lift, cached in
# KZSystem.lifts, and their stacked copy, 2 * live * dim^2 * 16; 25 MB when
# all four points move at n = 4, N = 4, 2.7 GB for a circle at n = 4, N = 6
MAX_LIFT_BYTES = 1 << 29


def lift_float(r_mat: np.ndarray, n, i, j, N):
    """Complex-double n^N x n^N matrix of R on slots (i, j), 0-based."""
    out = np.zeros((n ** N, n ** N), dtype=complex)
    for idxs in _slot_blocks(n, i, j, N):
        out[np.ix_(idxs, idxs)] = r_mat
    return out


def flatness_residuals(r: TensorOp2, N) -> dict:
    """Exact vanishing table of the flatness brackets.

    For every ordered triple of distinct slots (a, b, c) on M^(x3) the
    bracket [R^{ab}, R^{ac} + R^{bc}] is evaluated exactly; when N >= 4 the
    disjoint-pair brackets [R^{ab}, R^{cd}] are evaluated on M^(x4). Keys
    are labels like "[R12,R13+R23]" (slots 1-based); values are booleans.

    Each bracket is a homogeneous quadratic in R, so it is decided on the
    integer matrix Z = D R, D the lcm of the denominators, lifted as sparse
    rows; no dense n^N x n^N matrix is built.
    """
    n = r.dim
    z = la.clear_denominators(r.matrix)[0]
    report = {}
    if N >= 3:
        lifts3 = {
            (i, j): _lift_sparse(z, n, i, j, 3)
            for i in range(3)
            for j in range(3)
            if i != j
        }
        for a, b, c in itertools.permutations(range(3)):
            label = f"[R{a + 1}{b + 1},R{a + 1}{c + 1}+R{b + 1}{c + 1}]"
            report[label] = _commute(
                lifts3[(a, b)], _sparse_add(lifts3[(a, c)], lifts3[(b, c)])
            )
    if N >= 4:
        lifts4 = {
            (i, j): _lift_sparse(z, n, i, j, 4)
            for (i, j) in ((0, 1), (1, 0), (2, 3), (3, 2))
        }
        for (a, b) in ((0, 1), (1, 0)):
            for (c, d) in ((2, 3), (3, 2)):
                label = f"[R{a + 1}{b + 1},R{c + 1}{d + 1}]"
                report[label] = _commute(lifts4[(a, b)], lifts4[(c, d)])
    return report


def max_dim():
    """The size cap: ``LONGEQ_MAX_DIM``, or 4096 when it is unset."""
    raw = os.environ.get(DIM_CAP_ENV)
    return int(raw) if raw else DEFAULT_DIM_CAP


class _Lifts(dict):
    """R^{ij} as complex n^N x n^N matrices keyed by (i, j), each built on first use."""

    def __init__(self, r_mat, n, N):
        super().__init__()
        self._r_mat, self._n, self._N = r_mat, n, N

    def __missing__(self, key):
        i, j = key
        if not (0 <= i < self._N and 0 <= j < self._N) or i == j:
            raise KeyError(key)
        out = self[key] = lift_float(self._r_mat, self._n, i, j, self._N)
        return out


class KZSystem:
    """The lifted connection data on M^(xN) for a fixed operator and h."""

    def __init__(self, n, N, h, r_float, lifts, symmetric):
        self.n = n
        self.N = N
        self.h = complex(h)
        self.r_float = r_float
        self.lifts = lifts
        self.symmetric = symmetric
        self.dim = n ** N

    @classmethod
    def from_op(cls, r: TensorOp2, N, h, dim_cap=None):
        if N < 2:
            raise ValueError("N must be >= 2")
        cap = max_dim() if dim_cap is None else dim_cap
        n = r.dim
        if n ** N > cap:
            raise DimensionCap(f"n^N = {n ** N} exceeds cap {cap}")
        symmetric = flip_invariant(r)
        r_mat = np.array(
            [[complex(x) for x in row] for row in r.matrix], dtype=complex
        )
        return cls(n, N, complex(h), r_mat, _Lifts(r_mat, n, N), symmetric)


def _integer(x, what):
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer")
    return int(x)


def _finite(x, what, kind=numbers.Complex):
    """x as a finite complex, or float when kind is numbers.Real; else ValueError."""
    if not isinstance(x, bool) and isinstance(x, kind):
        try:
            if cmath.isfinite(x):
                return float(x) if kind is numbers.Real else complex(x)
        except OverflowError:
            pass
    name = "real" if kind is numbers.Real else "complex"
    raise ValueError(f"{what} must be a finite {name} number")


class LoopSpec:
    """A closed loop in the configuration space of N points.

    ``kind="circle"``: coordinate ``moving`` travels once counterclockwise
    around ``center`` (a fixed-coordinate index, or an explicit complex
    point) at the given radius, starting on the ray through its base
    position; the other coordinates stay at the base configuration.

    ``kind="polygon"``: ``waypoints[k]`` is the closed piecewise-linear
    path of coordinate k (first point = last point exactly); every
    coordinate must list the same number of waypoints. Indices are 0-based.
    """

    def __init__(self, base, kind, steps, moving=None, center=None, radius=None,
                 waypoints=None):
        self.base = [_finite(z, "base point") for z in base]
        self.N = len(self.base)
        self.kind = kind
        self.steps = _integer(steps, "steps")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be at most {MAX_STEPS}")
        if kind == "circle":
            if moving is None or center is None or radius is None:
                raise ValueError("circle loops need moving, center, radius")
            self.moving = _integer(moving, "moving")
            if not 0 <= self.moving < self.N:
                raise ValueError("moving index out of range")
            if isinstance(center, int) and not isinstance(center, bool):
                if not 0 <= center < self.N or center == self.moving:
                    raise ValueError("center index out of range")
                self.center = self.base[center]
            else:
                self.center = _finite(center, "center")
            self.radius = _finite(radius, "radius", numbers.Real)
            if self.radius <= 0:
                raise ValueError("radius must be positive")
            z0 = self.base[self.moving]
            self.theta0 = cmath.phase(z0 - self.center) if z0 != self.center else 0.0
            self.segments = 1
        elif kind == "polygon":
            if waypoints is None:
                raise ValueError("polygon loops need waypoints")
            self.waypoints = [[_finite(z, "waypoint") for z in path]
                              for path in waypoints]
            if len(self.waypoints) != self.N:
                raise ValueError("one waypoint path per coordinate required")
            lengths = {len(p) for p in self.waypoints}
            if len(lengths) != 1 or min(lengths) < 2:
                raise ValueError("waypoint paths must share a common length >= 2")
            for path in self.waypoints:
                if path[0] != path[-1]:
                    raise ValueError("polygon paths must close exactly")
            self.segments = len(self.waypoints[0]) - 1
        else:
            raise ValueError(f"unknown loop kind {kind!r}")
        self._check_separation()

    def with_steps(self, steps):
        if self.kind == "circle":
            return LoopSpec(self.base, "circle", steps, moving=self.moving,
                            center=self.center, radius=self.radius)
        return LoopSpec(self.base, "polygon", steps, waypoints=self.waypoints)

    def stage_data(self, ts, seg=None):
        """Positions and velocities at the times ``ts``, two (N, len(ts)) complex arrays.

        ``seg`` pins a polygon's segment at corner points, where the velocity
        is one-sided; integration passes it so no stage reads across a corner.
        It is one segment for all ``ts`` or an array of one segment per time.
        """
        ts = np.asarray(ts, dtype=float)
        if self.kind == "circle":
            z = np.repeat(np.array(self.base, dtype=complex)[:, None], len(ts), axis=1)
            v = np.zeros_like(z)
            e = np.exp(1j * (self.theta0 + 2.0 * math.pi * ts))
            z[self.moving] = self.center + self.radius * e
            v[self.moving] = 2.0j * math.pi * self.radius * e
            return z, v
        if seg is None:
            s = np.minimum((ts * self.segments).astype(int), self.segments - 1)
        else:
            s = np.full(len(ts), seg)
        u = ts * self.segments - s
        paths = np.array(self.waypoints, dtype=complex)
        edge = paths[:, s + 1] - paths[:, s]
        return paths[:, s] + u * edge, edge * self.segments

    def positions(self, t, seg=None):
        return self.stage_data([t], seg)[0][:, 0].tolist()

    def velocities(self, t, seg=None):
        return self.stage_data([t], seg)[1][:, 0].tolist()

    def separation(self):
        """(minimum, maximum) pairwise distance over the guard's 2 * steps + 1
        evenly spaced samples; (inf, 0.0) for a single point."""
        samples = 2 * self.steps + 1
        rows, cols = np.triu_indices(self.N, 1)
        lo, hi = math.inf, 0.0
        if not len(rows):
            return lo, hi
        block = max(1, CHUNK_ENTRIES // len(rows))
        for k0 in range(0, samples, block):
            ts = np.arange(k0, min(samples, k0 + block)) / (samples - 1)
            z, _ = self.stage_data(ts)
            d = np.abs(z[rows] - z[cols])
            # fmin/fmax skip NaN distances, as the min/max of floats did
            lo = min(lo, float(np.fmin.reduce(d, axis=None)))
            hi = max(hi, float(np.fmax.reduce(d, axis=None)))
        return lo, hi

    def _check_separation(self):
        min_sep, diam = self.separation()
        if min_sep <= MIN_SEPARATION_FACTOR * diam:
            raise PathTooClose(
                f"minimum pairwise distance {min_sep:.3e} below guard "
                f"{MIN_SEPARATION_FACTOR:.0e} x diameter {diam:.3e}"
            )


def live_pairs(loop: LoopSpec):
    """The ordered pairs (i, j), i != j, whose point i moves on some segment
    of the loop: the lifts ``integrate_holonomy`` builds."""
    segs = np.arange(loop.segments)
    _, v = loop.stage_data(segs / loop.segments, segs)
    return [(i, j) for i in np.flatnonzero(v.any(axis=1)).tolist()
            for j in range(loop.N) if j != i]


def check_lift_memory(sys: KZSystem, loop: LoopSpec):
    """Raise ``DimensionCap`` when integrating ``loop`` would hold more than
    ``MAX_LIFT_BYTES`` of lifts; builds none."""
    need = 2 * len(live_pairs(loop)) * sys.dim ** 2 * np.dtype(complex).itemsize
    if need > MAX_LIFT_BYTES:
        raise DimensionCap(
            f"holonomy lifts need {need} bytes at n^N = {sys.dim}, "
            f"above the cap of {MAX_LIFT_BYTES}"
        )


def connection_matrix(sys: KZSystem, loop: LoopSpec, t, seg=None) -> np.ndarray:
    """The coefficient matrix A(t) with dW/dt = A(t) W."""
    z = loop.positions(t, seg)
    v = loop.velocities(t, seg)
    a = np.zeros((sys.dim, sys.dim), dtype=complex)
    for i in range(sys.N):
        if v[i] == 0:
            continue
        for j in range(sys.N):
            if i != j:
                a += (v[i] / (z[i] - z[j])) * sys.lifts[(i, j)]
    return sys.h * a


def integrate_holonomy(sys: KZSystem, loop: LoopSpec) -> np.ndarray:
    """Classical fixed-step RK4 transport of W(0)=Id to W(1).

    Steps are distributed evenly over the loop's segments so that no step
    straddles a polygon corner. On the linear ODE dW/dt = A(t) W the step
    of length dt maps W to M W with

        M = I + dt/6 (A1 + 2 X2 + 2 X3 + X4),
        X2 = A2 (I + dt/2 A1), X3 = A2 (I + dt/2 X2), X4 = A4 (I + dt X3),

    where A1, A2, A4 are A at the start, middle and end of the step and
    X_s W is the classical stage k_s. It is applied as W + (M - I) W, which
    rounds like the classical update; forming I + (M - I) would round each
    step's increment against the identity, which over the 4000 steps of a
    circle moved W by about 2e-13.

    A(t) is the sum over the live pairs (i, j), those whose point i moves
    on the segment, of h v_i / (z_i - z_j) times R^{ij}: one product of the
    coefficients at the stage times with the stacked live lifts. The
    increments are formed for batches of steps whose stage matrices (or
    coefficients) hold at most about CHUNK_ENTRIES entries.
    """
    if loop.N != sys.N:
        raise ValueError("loop and system disagree on the number of points")
    d = sys.dim
    w = np.eye(d, dtype=complex)
    per_seg = max(1, -(-loop.steps // loop.segments))
    dt = 1.0 / (loop.segments * per_seg)
    for seg in range(loop.segments):
        t0 = seg / loop.segments
        # a point moves on the whole segment or stays fixed on all of it
        _, v0 = loop.stage_data([t0], seg)
        pairs = [(i, j) for i in range(sys.N) if v0[i, 0]
                 for j in range(sys.N) if j != i]
        if not pairs:  # A vanishes on the segment
            continue
        rows, cols = np.array(pairs).T
        lifts = np.stack([sys.lifts[p] for p in pairs]).reshape(len(pairs), d * d)
        batch = max(1, CHUNK_ENTRIES // max(d * d, len(pairs)))
        for k0 in range(0, per_seg, batch):
            k1 = min(per_seg, k0 + batch)
            ts = t0 + np.arange(2 * k0, 2 * k1 + 1) * (dt / 2)
            z, v = loop.stage_data(ts, seg)
            coeffs = sys.h * v[rows] / (z[rows] - z[cols])
            a = (coeffs.T @ lifts).reshape(-1, d, d)
            a1, a2, a4 = a[:-1:2], a[1::2], a[2::2]
            x2 = a2 + (dt / 2) * (a2 @ a1)
            x3 = a2 + (dt / 2) * (a2 @ x2)
            x4 = a4 + dt * (a4 @ x3)
            for inc in (dt / 6) * (a1 + 2 * x2 + 2 * x3 + x4):
                w = w + inc @ w
    return w


def circle_oracle(sys: KZSystem, moving, center) -> np.ndarray:
    """exp(2 pi i h R^{moving,center}): the holonomy of point ``moving``
    circling the fixed point ``center`` once, in the limit where every
    other point is far away (the ``--compare`` oracle).

    R^{ij} is block diagonal with blocks R (its slot blocks partition the
    basis), so its exponential is the lift of the n^2 x n^2 block
    exponential; no n^N x n^N exponential is formed.
    """
    from scipy.linalg import expm

    return lift_float(expm(2.0j * math.pi * sys.h * sys.r_float), sys.n,
                      moving, center, sys.N)


def convergence_order(sys: KZSystem, loop: LoopSpec):
    """Richardson order estimate from runs at s, 2s, and 4s steps.

    Errors of the two coarser runs are measured in max-norm against the
    finest run. Returns the estimated order as a float, or the string
    "exact" when both errors vanish.
    """
    s = loop.steps
    # all three loops are built, and their step counts checked, before any run
    loops = [loop.with_steps(k) for k in (s, 2 * s, 4 * s)]
    runs = [integrate_holonomy(sys, lp) for lp in loops]
    e1 = np.max(np.abs(runs[0] - runs[2]))
    e2 = np.max(np.abs(runs[1] - runs[2]))
    if e1 == 0.0 and e2 == 0.0:
        return "exact"
    if e2 == 0.0:
        return math.inf
    return math.log2(e1 / e2)
