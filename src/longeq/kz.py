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

from .errors import DimensionCap, PathTooClose
from .tensor_ops import (  # lift_exact is re-exported next to lift_float
    TensorOp2,
    _commute,
    _integer_matrix,
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
    z = _integer_matrix(r)
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
        lifts = {
            (i, j): lift_float(r_mat, n, i, j, N)
            for i in range(N)
            for j in range(N)
            if i != j
        }
        return cls(n, N, complex(h), r_mat, lifts, symmetric)


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

    def positions(self, t, seg=None):
        if self.kind == "circle":
            z = list(self.base)
            z[self.moving] = self.center + self.radius * cmath.exp(
                1j * (self.theta0 + 2.0 * math.pi * t)
            )
            return z
        s, u = self._segment(t, seg)
        return [
            path[s] + u * (path[s + 1] - path[s]) for path in self.waypoints
        ]

    def velocities(self, t, seg=None):
        if self.kind == "circle":
            v = [0j] * self.N
            v[self.moving] = (
                2.0j * math.pi * self.radius
                * cmath.exp(1j * (self.theta0 + 2.0 * math.pi * t))
            )
            return v
        s, _ = self._segment(t, seg)
        return [(path[s + 1] - path[s]) * self.segments for path in self.waypoints]

    def _segment(self, t, seg=None):
        # seg pins the segment at corner points, where the velocity is
        # one-sided; integration passes it so no stage reads across a corner
        s = min(int(t * self.segments), self.segments - 1) if seg is None else seg
        return s, t * self.segments - s

    def _check_separation(self):
        samples = 2 * self.steps + 1
        min_sep = math.inf
        diam = 0.0
        for k in range(samples):
            z = self.positions(k / (samples - 1))
            for i in range(self.N):
                for j in range(i + 1, self.N):
                    d = abs(z[i] - z[j])
                    min_sep = min(min_sep, d)
                    diam = max(diam, d)
        if min_sep <= MIN_SEPARATION_FACTOR * diam:
            raise PathTooClose(
                f"minimum pairwise distance {min_sep:.3e} below guard "
                f"{MIN_SEPARATION_FACTOR:.0e} x diameter {diam:.3e}"
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
    straddles a polygon corner.
    """
    if loop.N != sys.N:
        raise ValueError("loop and system disagree on the number of points")
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
