"""Knizhnik-Zamolodchikov connection: lifts, flatness, and loop holonomy.

The connection on the configuration space of N distinct points is

    dW/dt = h * sum_{i != j} (dz^i/dt) / (z^i - z^j) * R^{ij} W,

with R^{ij} acting as R on tensor slots (i, j) and as the identity
elsewhere. All algebraic identities (flatness brackets) are evaluated
exactly, over integers with the denominators cleared; only the ODE itself
runs in complex doubles.

Flatness. The connection form is
omega = h sum_{i != j} R^{ij} dz_i / (z_i - z_j), and no term is closed:
d(dz_i / (z_i - z_j)) = dz_i ^ dz_j / (z_i - z_j)^2. The terms (i, j) and
(j, i) sum to

    d omega = h sum_{i < j} (R^{ij} - R^{ji}) dz_i ^ dz_j / (z_i - z_j)^2,

which vanishes iff R^{ji} = R^{ij}, that is iff R is flip-invariant. The
same form in omega ^ omega is -h^2 [R^{ij}, R^{ji}], and for a Long R it
vanishes: write R = sum_k A_k (x) B_k; Long equation 2 makes every A_k
commute with every B_l, so R^{ij} and R^{ji} commute. So for a Long R the
connection is flat iff R is flip-invariant (the ``symmetric`` law), and
the holonomy of a contractible loop need not be the identity otherwise.
The tests integrate a rectangle in (z_0, z_1) on which one point moves at
a time: for the Long pair ``make_pair([[1, 1], [0, 1]], [[1, 2], [0, 1]])``
at h = 0.1, W = exp(h c (R^{01} - R^{10})) with
c = Log 1.3 - Log((1.3 - 0.3i) / (1 - 0.3i)), |W - I| = 6.7e-3. The
ordered form h sum_{i < j} R^{ij} dlog(z_i - z_j) is closed, and by
Kohno's infinitesimal pure braid relations (T. Kohno, Ann. Inst. Fourier
37, 1987) a Long R makes it flat iff [R^{13}, R^{23}] = 0.
``flatness_residuals`` reports the bracket [R^{12}, R^{13} + R^{23}], the
integrability condition, not the flatness of omega.

Two OpenBLAS pools. numpy and scipy each bundle their own OpenBLAS, with
its own thread pool; the integrator multiplies with numpy and
``circle_block`` exponentiates with scipy. Right after a scipy ``expm``,
on 2 CPUs, a numpy product large enough to run on numpy's threads stalls
for about 4 ms while the two pools contend. Medians of 9 runs in one
process (numpy 2.4.6, scipy 1.17.1) gave the complex products
(1024 x 3) @ (3 x 64) 4.3 ms and (64 x 30) @ (30 x 64) 4.1 ms, against
0.17 and 0.07 ms at best, while (256 x 3) @ (3 x 64) stayed at
0.05-0.1 ms. Complex products stalled from 2^16 m k n on (65,280 did not,
65,536 did); real ones stalled at 1,048,320 m k n and not at 768,000 or
below. The words path's product is real (the words of a rational R are)
and is taken in calls of at most SERIAL_PRODUCT m k n, the work of 2^15
complex multiply-adds. The stacked products of the pairwise product,
which both propagator forms take, reach the complex threshold from d = 41
on and still run on the threads.

The ``--compare`` distance. The oracle of a circle of point m about the
fixed point c is exp(2 pi i h R^{mc}) (``check_circle_oracle``), the lift
``lift_float(circle_block(sys), n, m, c, N)`` of the n^2 x n^2 block
E = exp(2 pi i h R) to the n^(N-2) slot blocks of (m, c), and 0 off them;
those blocks partition the basis. So max |W - lift(E)| is the larger of
two maxima: max |W_b - E| over the diagonal blocks W_b of W, and
max |W_ij| over the entries off the blocks. Off the blocks W_ij - 0 is
W_ij as a double (-0.0 - 0.0 is -0.0), so each term of either maximum is
the double that the dense difference holds, and a max of doubles is
exact. ``oracle_distance`` therefore returns the float of
``np.max(np.abs(w - lift(E)))`` from W and E alone, without the lift, the
difference or its ``abs``, three d x d arrays.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers

import numpy as np

from .errors import DimensionCap, PathTooClose
from .tensor_ops import (  # perfbench/tracing.py wraps lift_exact as kz.lift_exact
    TensorOp2,
    _slot_blocks,
    flip_invariant,
    kz_bracket,
    lift_exact,
    max_dim,
)

MIN_SEPARATION_FACTOR = 1e-6
# largest magnitude of a loop's base points, waypoints and centre and of
# its radius: positions then stay within 2e100, pairwise distances within
# 4e100 and velocities within 2e100 times the segment count (7e100 on a
# circle), far inside the float range, so neither ``stage_data`` nor the
# separation guard can overflow
MAX_COORDINATE = 1e100
MAX_STEPS = 1_000_000  # the separation guard alone samples 2 * steps + 1 positions
# complex entries formed at once: the integrator batches about
# CHUNK_ENTRIES // dim^2 propagator steps (one at dim 256), in either
# form, or
# CHUNK_ENTRIES // nnz(A) steps of stage data when it applies A to W; the
# separation guard CHUNK_ENTRIES // (N(N-1)/2) samples
CHUNK_ENTRIES = 1 << 16
# bytes the integrator may hold (``integration_bytes``): 11 MB for a phi
# polygon where all four points move at n = 4, N = 4 (22 MB for a dense
# conjugate), 1.6 GB for a circle at n = 4, N = 6
MAX_INTEGRATOR_BYTES = 1 << 29
# d x d arrays an *apply* step holds at once: W, the component-stacked array
# of its moved columns that it steps (at most d x d) and the four buffers of
# ``_apply_steps`` (k1 and k4, k2, k3 and the stage argument)
APPLY_ARRAYS = 6
# m k n of each real numpy product the words path takes (``_serial_product``):
# well below the size at which numpy's OpenBLAS starts its threads (module
# docstring)
SERIAL_PRODUCT = 1 << 17
# entries of W that ``oracle_distance`` reads at once (64 rows at d = 256):
# its arrays then hold about a quarter of W's bytes, dense or not
DISTANCE_ENTRIES = 1 << 14
# bytes per lift entry while a segment operator is built: its position,
# sorted and unsorted, the sort order and the pair index (8 each), the value
# (16), and the map's value and indices (32), with the copies scipy makes
ENTRY_BYTES = 128


def lift_float(r_mat: np.ndarray, n, i, j, N):
    """Complex-double n^N x n^N matrix of R on slots (i, j), 0-based."""
    blocks = _slot_blocks(n, i, j, N)
    out = np.zeros((n ** N, n ** N), dtype=complex)
    out[blocks[:, :, None], blocks[:, None, :]] = r_mat
    return out


def flatness_residuals(r: TensorOp2, N) -> dict:
    """Exact vanishing table of the flatness brackets.

    For every ordered triple of distinct slots (a, b, c) on M^(x3) the
    bracket [R^{ab}, R^{ac} + R^{bc}] is reported; when N >= 4 the
    disjoint-pair brackets [R^{ab}, R^{cd}] on M^(x4) are reported too.
    Keys are labels like "[R12,R13+R23]" (slots 1-based); values are
    booleans. They decide [R^{12}, R^{13} + R^{23}] = 0, not the flatness
    of the connection, which for a Long R also needs R flip-invariant
    (module docstring).

    The six triple brackets are one bracket, decided exactly once by
    ``tensor_ops.kz_bracket`` (the ``kz_bracket`` law of ``check_laws``).
    Let P be the permutation of the three tensor slots that carries slots
    1, 2, 3 to a, b, c. Then R^{ab} = P R^{12} P^-1, R^{ac} = P R^{13} P^-1
    and R^{bc} = P R^{23} P^-1, so
    [R^{ab}, R^{ac} + R^{bc}] = P [R^{12}, R^{13} + R^{23}] P^-1, which
    vanishes exactly when [R^{12}, R^{13} + R^{23}] does. The tests
    evaluate all six on dense lifts as the oracle.

    The disjoint brackets vanish for every operator and are not evaluated.
    With {a, b} and {c, d} disjoint, let P be the permutation of the four
    tensor slots that carries slots 1, 2, 3, 4 to a, b, c, d. Then
    R^{ab} = P (R (x) I) P^-1 and R^{cd} = P (I (x) R) P^-1, and
    (R (x) I)(I (x) R) = R (x) R = (I (x) R)(R (x) I), so
    [R^{ab}, R^{cd}] = P [R (x) I, I (x) R] P^-1 = 0. The tests evaluate
    them with the sparse lifts as the oracle.
    """
    report = {}
    if N >= 3:
        holds = kz_bracket(r)
        for a, b, c in itertools.permutations((1, 2, 3)):
            report[f"[R{a}{b},R{a}{c}+R{b}{c}]"] = holds
    if N >= 4:
        for ab in ("12", "21"):
            for cd in ("34", "43"):
                report[f"[R{ab},R{cd}]"] = True
    return report


class KZSystem:
    """The connection data on M^(xN) for a fixed operator and h."""

    def __init__(self, n, N, h, r_float, symmetric):
        self.n = n
        self.N = N
        self.h = complex(h)
        self.r_float = r_float
        self.symmetric = symmetric
        self.dim = n ** N

    @classmethod
    def from_op(cls, r: TensorOp2, N, h):
        if N < 2:
            raise ValueError("N must be >= 2")
        cap = max_dim()
        n = r.dim
        if n ** N > cap:
            raise DimensionCap(f"n^N = {n ** N} exceeds cap {cap}")
        symmetric = flip_invariant(r)
        r_mat = np.zeros((n * n, n * n), dtype=complex)
        for a, row in r.rows.items():
            for b, x in row.items():
                r_mat[a, b] = complex(x)
        return cls(n, N, complex(h), r_mat, symmetric)


def _integer(x, what):
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer")
    return int(x)


def _coordinate(x, what, kind=numbers.Complex):
    """x as a complex, or float when kind is numbers.Real, of magnitude at
    most MAX_COORDINATE; else ValueError."""
    if not isinstance(x, bool) and isinstance(x, kind):
        try:
            if cmath.isfinite(x):
                z = float(x) if kind is numbers.Real else complex(x)
                if abs(z) <= MAX_COORDINATE:
                    return z
                raise ValueError(f"{what} must have magnitude at most {MAX_COORDINATE:.0e}")
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
    ``center_index`` keeps the index of a fixed-point centre, None for an
    explicit point.

    ``kind="polygon"``: ``waypoints[k]`` is the closed piecewise-linear
    path of coordinate k (first point = last point exactly); every
    coordinate must list the same number of waypoints. Indices are 0-based.
    ``steps`` is rounded up to whole steps per segment: the steps integrated.
    """

    def __init__(self, base, kind, steps, moving=None, center=None, radius=None,
                 waypoints=None):
        self.base = [_coordinate(z, "base point") for z in base]
        self.N = len(self.base)
        self.kind = kind
        steps = _integer(steps, "steps")
        if steps < 1:
            raise ValueError("steps must be positive")
        if kind == "circle":
            if moving is None or center is None or radius is None:
                raise ValueError("circle loops need moving, center, radius")
            self.moving = _integer(moving, "moving")
            if not 0 <= self.moving < self.N:
                raise ValueError("moving index out of range")
            if isinstance(center, int) and not isinstance(center, bool):
                if not 0 <= center < self.N or center == self.moving:
                    raise ValueError("center index out of range")
                self.center_index = center
                self.center = self.base[center]
            else:
                self.center_index = None
                self.center = _coordinate(center, "center")
            self.radius = _coordinate(radius, "radius", numbers.Real)
            if self.radius <= 0:
                raise ValueError("radius must be positive")
            # cmath.phase(z) without its OverflowError on an underflowing angle
            dz = self.base[self.moving] - self.center
            self.theta0 = math.atan2(dz.imag, dz.real) if dz else 0.0
            self.segments = 1
        elif kind == "polygon":
            if waypoints is None:
                raise ValueError("polygon loops need waypoints")
            self.waypoints = [[_coordinate(z, "waypoint") for z in path]
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
        self.steps = self.segments * -(-steps // self.segments)  # no step straddles a corner
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be at most {MAX_STEPS}")
        self._check_separation()

    def with_steps(self, steps):
        if self.kind == "circle":
            center = self.center if self.center_index is None else self.center_index
            return LoopSpec(self.base, "circle", steps, moving=self.moving,
                            center=center, radius=self.radius)
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
        """(minimum, maximum) pairwise distance over the 2 * steps + 1 stage
        times that ``integrate_holonomy`` evaluates, k / (2 steps) for
        k = 0 .. 2 steps; (inf, 0.0) for a single point."""
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


def segment_pairs(loop: LoopSpec):
    """The live pairs of each segment of ``loop``: the ordered pairs (i, j),
    i != j, whose point i moves on it. A point moves on a whole segment or
    stays fixed on all of it, so its velocity at the segment's start decides."""
    segs = np.arange(loop.segments)
    _, v = loop.stage_data(segs / loop.segments, segs)
    return [[(i, j) for i in np.flatnonzero(v[:, s]).tolist()
             for j in range(loop.N) if j != i] for s in segs.tolist()]


def segment_operator(sys: KZSystem, pairs):
    """The live lifts of one segment as one sparse operator.

    Returns ``(op, pos, m)``. ``op`` is a d x d CSR matrix on the union of
    the patterns of the lifts R^{ij}, (i, j) in ``pairs``; ``pos`` holds its
    entries' positions row * d + col, in CSR order; ``m`` is the sparse
    (nnz, T) map from the T pair coefficients to its data. Lift t puts
    R[a, b] at (idxs[a], idxs[b]) for each nonzero R[a, b] and each slot
    block ``idxs`` of its pair (the blocks ``lift_float`` fills), so with
    c_t = h v_i / (z_i - z_j) the connection A = sum_t c_t R^{ij} has the
    data ``m @ c``; entries that several lifts share are summed by ``m``.
    No n^N x n^N lift is formed.

    The blocks of all T pairs are one (T, n^(N-2), n^2) array, so the lift
    entries, T n^(N-2) nnz(R) of them in pair-major order, come from one
    index pass. A stable sort of their positions groups each stored entry's
    lifts in pair order, which is ``m``'s CSR layout: row k of ``m`` holds
    the lifts of the k-th distinct position, and lift entry e carries R's
    (e mod nnz(R))-th nonzero.
    """
    from scipy import sparse

    d = sys.dim
    ra, ca = np.nonzero(sys.r_float)
    blocks = np.array([_slot_blocks(sys.n, i, j, sys.N) for i, j in pairs])
    lin = (blocks[:, :, ra] * d + blocks[:, :, ca]).ravel()
    order = np.argsort(lin, kind="stable")
    lin = lin[order]
    first = np.flatnonzero(np.diff(lin, prepend=-1))  # the first of each position
    pos = lin[first]
    per_lift = len(lin) // len(pairs)
    m = sparse.csr_matrix((sys.r_float[ra, ca][order % len(ra)], order // per_lift,
                           np.append(first, len(lin))), shape=(len(pos), len(pairs)))
    indptr = np.searchsorted(pos, np.arange(d + 1) * d)
    op = sparse.csr_matrix((np.zeros(len(pos), dtype=complex), pos % d, indptr),
                           shape=(d, d))
    return op, pos, m


def _union_pairs(seg_pairs):
    """The live pairs of any segment, in ``segment_pairs`` order."""
    return sorted({p for pairs in seg_pairs for p in pairs})


def _components(op):
    """The weakly connected components of the pattern of the square CSR
    matrix ``op``: each index's label is the smallest index of its component."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    pattern = sparse.csr_matrix((np.ones(len(op.indices)), op.indices, op.indptr),
                                shape=op.shape)
    _, labels = connected_components(pattern, connection="weak")
    _, least, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return least[inverse]


def _stacked(op, labels, moved):
    """The component-stacked layout of W's moved columns, which every live
    segment steps (``integrate_holonomy``).

    Returns ``(op, pos, layout)``: the segment's operator on the live rows,
    those of the components that hold a moved column; the positions
    row * r + col of its entries on those r rows, in CSR order, which
    ``segment_words`` and the stage matrices read; and the layout that
    ``_stack_positions`` reads. Row p of the tall array is row ``rows[p]``
    of W, and holds W's moved columns ``cols[start[p]:start[p] + count[p]]``,
    those of its component, in its first ``count[p]`` entries. The rows keep
    their order, and every row outside them is empty in ``op``, so the
    operator keeps its stored entries in their order: the map's data fits.
    """
    from scipy import sparse

    d = len(labels)
    cols = np.flatnonzero(moved)
    cols = cols[np.argsort(labels[cols], kind="stable")]
    comps, first, width = np.unique(labels[cols], return_index=True, return_counts=True)
    live = np.zeros(d, dtype=bool)
    live[comps] = True
    rows = np.flatnonzero(live[labels])
    block = np.searchsorted(comps, labels[rows])
    order = np.empty(d, dtype=op.indices.dtype)
    order[rows] = np.arange(len(rows))
    indptr = np.append(op.indptr[rows], op.indptr[-1])
    indices = order[op.indices]
    r = len(rows)
    return (sparse.csr_matrix((op.data, indices, indptr), shape=(r, r)),
            np.repeat(np.arange(r), np.diff(indptr)) * r + indices,
            (d, rows, cols, first[block], width[block]))


def _stack_positions(layout):
    """``(shape, src, dst)``: the shape of the tall array of a ``_stacked``
    layout, and the flat positions in it and in W of the entries it holds.
    ``integrate_holonomy`` forms them for the gather, where a run of
    segments with the same live pairs begins, and again for the scatter,
    where it ends, so none is held while the run steps."""
    d, rows, cols, start, count = layout
    width = int(count.max())
    p = np.repeat(np.arange(len(rows)), count)
    j = np.arange(len(p)) - np.repeat(np.cumsum(count) - count, count)
    return (len(rows), width), p * width + j, rows[p] * d + cols[start[p] + j]


def _word_count(terms):
    """W = T + T^2 + T^3 + T^4: the ordered words of length 1 to 4 in T lifts."""
    return terms * (1 + terms * (1 + terms * (1 + terms)))


def _evaluation(d, terms, nnz):
    """The cost rule: (evaluation, batch) for a segment of T = ``terms``
    live lifts whose A has ``nnz`` entries.

    *apply* iff 8 nnz d + 32^3 <= d^3, in batches of the stage data of
    CHUNK_ENTRIES // nnz steps. Otherwise the propagator, in batches of
    b = CHUNK_ENTRIES // d^2 steps: from the W = ``_word_count(T)`` lift
    words iff W <= 64 and W <= min(2 b + 1, d^2), else from stacked
    stages. ``integrate_holonomy`` tabulates the rule; the second bound
    keeps the words within the stage buffer of stacked stages, and their
    coefficients within b stage matrices.
    """
    if 8 * nnz * d + 32 ** 3 <= d ** 3:
        return "apply", max(1, CHUNK_ENTRIES // max(nnz, terms))
    batch = max(1, CHUNK_ENTRIES // max(d * d, terms))
    words = _word_count(terms)
    if words <= min(64, 2 * batch + 1, d * d):
        return "words", batch
    return "propagator", batch


def integration_bytes(sys: KZSystem, loop: LoopSpec):
    """An upper bound on the bytes ``integrate_holonomy`` holds on ``loop``;
    builds nothing.

    With T the most live pairs on a segment, E = T n^(N-2) nnz(R) lift
    entries bound nnz(A). The rule at E picks the d x d arrays. W and the
    component-stacked array that a segment steps are two: the array's rows,
    those of the live components, and its width, the most moved columns of
    one component, are at most d. The positions that gather and scatter it,
    16 bytes per entry, are one more, formed only where a run of segments
    with the same live pairs begins and ends. *apply* adds the four buffers
    of ``_apply_steps``, not held with the positions: APPLY_ARRAYS. The
    propagator forms work on the live rows, in matrices of at most d x d. A
    batch of b steps of stacked stages adds 2 b + 1 stage matrices, held
    with the positions, and X2, X3 and X4: 5 b + 3 in all. It frees X3 and
    X4 before the pairwise product, whose levels hold X2 and at most
    ceil(b / 2) more matrices, and before the product that updates W. The
    words path holds fewer: its real words (W / 2 matrices, with
    W <= 2 b + 1), a buffer of 2 b matrices that holds
    the increments twice and then the pairwise levels, and, while a batch's
    (W, b) coefficients are formed, at most 1.2 b more (the pieces, the
    result and the stage coefficients, at most 2 W + 2 T^2 + 3 T entries per
    step, with W <= d^2, d >= 8 for two lifts and d >= 4 for one). Forming
    the words holds at most W / 2 matrices more, and the map and the T <= 2
    sparse lifts it reads stay within ENTRY_BYTES per lift entry (words are
    taken for at most two lifts, ``integrate_holonomy``). A segment whose
    nnz(A) is below E can only switch to *apply* or to words, which hold
    fewer. Stage data, formed and copied once per batch, is at most
    2 (2 CHUNK_ENTRIES + 3 E) complex entries, and building the operator
    takes ENTRY_BYTES per lift entry. That also covers a held operator with
    its copy on the live rows: the position, the data and the map of each
    entry, about 52 bytes, and the copy's column indices and positions,
    12 bytes. The components are read off the operator of the U pairs live
    on any segment. When some live segment has other pairs, that operator is
    built beside a segment's, and adds E_U = U n^(N-2) nnz(R) entries; else
    E_U = 0, since a segment's operator is the union's:

        16 (arrays d^2 + 2 (2 CHUNK_ENTRIES + 3 E)) + ENTRY_BYTES (E + E_U).
    """
    d = sys.dim
    seg_pairs = segment_pairs(loop)
    terms = max(map(len, seg_pairs), default=0)
    per_pair = (d // sys.n ** 2) * int(np.count_nonzero(sys.r_float))
    entries = terms * per_pair
    union = _union_pairs(seg_pairs)
    extra = len(union) * per_pair if any(p and p != union for p in seg_pairs) else 0
    mode, batch = _evaluation(d, terms, entries)
    arrays = APPLY_ARRAYS if mode == "apply" else 5 * batch + 3
    item = np.dtype(complex).itemsize
    return (item * (arrays * d * d + 2 * (2 * CHUNK_ENTRIES + 3 * entries))
            + ENTRY_BYTES * (entries + extra))


def check_integrator_memory(sys: KZSystem, loop: LoopSpec):
    """Raise ``DimensionCap`` when integrating ``loop`` would hold more than
    ``MAX_INTEGRATOR_BYTES`` (``integration_bytes``); builds nothing."""
    need = integration_bytes(sys, loop)
    if need > MAX_INTEGRATOR_BYTES:
        raise DimensionCap(
            f"holonomy integration needs {need} bytes at n^N = {sys.dim}, "
            f"above the cap of {MAX_INTEGRATOR_BYTES}"
        )


def connection_matrix(sys: KZSystem, loop: LoopSpec, t, seg=None) -> np.ndarray:
    """The coefficient matrix A(t) with dW/dt = A(t) W, summed from dense
    ``lift_float`` lifts: the reference for the segment operator."""
    z = loop.positions(t, seg)
    v = loop.velocities(t, seg)
    a = np.zeros((sys.dim, sys.dim), dtype=complex)
    for i in range(sys.N):
        if v[i] == 0:
            continue
        for j in range(sys.N):
            if i != j:
                a += (v[i] / (z[i] - z[j])) * lift_float(sys.r_float, sys.n, i, j, sys.N)
    return sys.h * a


def _apply_steps(w, op, data, dt):
    """Classical RK4 on W, with A(t) at the stage times held by the rows of
    ``data`` (start, middle, end, middle, end, ...) on the pattern of ``op``.

    Each product A x is scipy's ``csr_matvecs``, which adds A x into its
    output, called on one of four arrays of the shape of ``w`` allocated
    once per call: k1 (reused for k4), k2, k3 and the stage argument x.
    ``op @ x`` zeroes a fresh result and calls the same routine, so each
    buffer is zeroed before its product and holds ``op @ x`` bit for bit.
    The sums are ``op @ x`` RK4's, in its order: w + (dt/2) k1 is formed as
    (dt/2) k1 + w, the same double since IEEE addition is commutative, and
    the step adds dt/6 (k1 + 2 k2 + 2 k3 + k4), summed in that order.
    """
    from scipy.sparse._sparsetools import csr_matvecs

    k1, k2, k3, x = np.empty((4, *w.shape), dtype=complex)
    csr = *op.shape, w.shape[1], op.indptr, op.indices

    def product(a, src, out):  # out = A src
        out.fill(0)
        csr_matvecs(*csr, a, src, out)

    for s in range(0, len(data) - 1, 2):
        product(data[s], w, k1)
        np.multiply(k1, dt / 2, out=x)
        x += w
        product(data[s + 1], x, k2)
        np.multiply(k2, dt / 2, out=x)
        x += w
        product(data[s + 1], x, k3)
        k2 *= 2
        k2 += k1
        np.multiply(k3, dt, out=x)
        x += w
        product(data[s + 2], x, k1)  # k4
        k3 *= 2
        k2 += k3
        k2 += k1
        k2 *= dt / 6
        w += k2
    return w


def _propagator_steps(w, a, dt):
    """The same steps as propagators M = I + (M - I), from the dense stage
    matrices ``a`` (start, middle, end, middle, ...); the batch is applied
    as w + (M_b ... M_1 - I) w."""
    inc = _stage_increments(a, dt)
    return _multiply_increments(w, inc, np.empty_like(inc[:(len(inc) + 1) // 2]))


def _stage_increments(a, dt):
    """Each step's M - I from the dense stage matrices ``a``."""
    a1, a2, a4 = a[:-1:2], a[1::2], a[2::2]
    x2 = a2 @ a1
    x2 *= dt / 2
    x2 += a2
    x3 = a2 @ x2
    x3 *= dt / 2
    x3 += a2
    x4 = a4 @ x3
    x4 *= dt
    x4 += a4
    # M - I = dt/6 (A1 + 2 X2 + 2 X3 + X4), summed in that order
    x2 *= 2
    x2 += a1
    x3 *= 2
    x2 += x3
    x2 += x4
    x2 *= dt / 6
    return x2  # within integration_bytes: X3 and X4 are freed on return


def _words_steps(w, held, c, dt):
    """The same steps as propagators, each M - I formed from the segment's
    lift words and the lift coefficients ``c``, one row per lift and one
    column per stage time (start, middle, end, middle, ...).

    ``held`` is ``_words_held``'s (words, buffer). Every batch of the
    segment writes its b increments into the buffer twice, as d^2 x b and
    as b x d x d, and the pairwise product writes its levels into the
    first half, so no batch allocates an increment array: on the d = 8
    circle of 4000 steps, increments formed in fresh arrays took 10.7 ms
    against 8.6 ms in the buffer (medians of 30 interleaved runs).
    """
    words, buf = held
    coef = _word_coefficients(c, dt)
    b, dd, d = coef.shape[1], words.shape[1], w.shape[0]
    # (M - I)^T: a real product with the coefficients' real and imaginary
    # parts, which alternate along a row of their float view
    inc_t = buf[:dd * b].reshape(dd, b)
    _serial_product(words.T, coef.view(float), inc_t.view(float))
    del coef  # within integration_bytes: freed before the pairwise product
    inc = buf[dd * b:2 * dd * b].reshape(b, d, d)
    np.copyto(inc.reshape(b, dd), inc_t.T)
    return _multiply_increments(w, inc, buf[:dd * b].reshape(b, d, d))


def _words_held(op, pos, m, batch):
    """What a words segment holds: its real words (``segment_words``) and a
    buffer of 2 ``batch`` d^2 complex entries for its batches' increments."""
    d = op.shape[0]
    return segment_words(op, pos, m), np.empty(2 * batch * d * d, dtype=complex)


def _word_coefficients(c, dt):
    """The (W, b) coefficients of the words in each step's M - I, in C order.

    With A_s = sum_a c_s[a] L_a at the stages s = 1, 2, 4,
    M - I = dt/6 (A1 + 4 A2 + A4) + dt^2/6 (A2 A1 + A2 A2 + A4 A2)
    + dt^3/12 (A2 A2 A1 + A4 A2 A2) + dt^4/24 A4 A2 A2 A1, so the word
    L_a L_b takes dt^2/6 (c2[a] c1[b] + c2[a] c2[b] + c4[a] c2[b]), and so
    on: the outer products of the stage coefficients, first letter first.
    """
    # contiguous rows: the outer products are many small broadcasts
    c1, c2, c4 = c[:, :-1:2].copy(), c[:, 1::2].copy(), c[:, 2::2].copy()

    def outer(x, y):
        return (x[:, None] * y[None, :]).reshape(-1, x.shape[1])

    c21, c42 = outer(c2, c1), outer(c4, c2)
    return np.concatenate((
        (dt / 6) * (c1 + 4 * c2 + c4),
        (dt ** 2 / 6) * (c21 + outer(c2, c2) + c42),
        (dt ** 3 / 12) * (outer(outer(c2, c2), c1) + outer(c42, c2)),
        (dt ** 4 / 24) * outer(c42, c21),
    ))


def _serial_product(a, b, out):
    """out = a @ b, in numpy products of at most SERIAL_PRODUCT m k n each,
    which numpy's OpenBLAS runs on the calling thread."""
    m, k = a.shape
    rows = min(m, max(1, SERIAL_PRODUCT // k))
    cols = max(1, SERIAL_PRODUCT // (k * rows))
    for i in range(0, m, rows):
        for j in range(0, b.shape[1], cols):
            np.matmul(a[i:i + rows], b[:, j:j + cols], out=out[i:i + rows, j:j + cols])


def _multiply_increments(w, inc, spare):
    """w + (M_b ... M_1 - I) w from the steps' increments M_k - I, multiplied
    pairwise in increment form, (I + B)(I + A) - I = A + B + B A; an odd
    last increment moves up a level. The levels are written into ``spare``,
    at least ceil(b / 2) d x d matrices, and back into ``inc`` in turn."""
    while len(inc) > 1:
        half, odd = divmod(len(inc), 2)
        out = spare[:half + odd]
        pair = out[:half]
        first = inc[:2 * half:2]
        np.matmul(inc[1::2], first, out=pair)
        pair += first
        pair += inc[1::2]
        if odd:
            out[half] = inc[-1]
        inc, spare = out, inc
    w += inc[0] @ w
    return w


def segment_words(op, pos, m):
    """The ordered words of length 1 to 4 in a segment's T lifts, as the
    (W, d^2) rows of ``_word_count(T)`` d x d matrices.

    ``op``, ``pos`` and ``m`` are a ``segment_operator``; lift t is the d x d
    matrix with the data ``m[:, t]`` on the pattern of ``op``. The words of
    each length follow the shorter ones, in lexicographic order of their
    letters: the word L_a L_b ... L_e is row a T^(k-1) + ... + e of its
    length k. Each longer word is a shorter one times a sparse lift, so no
    dense d x d product is taken.
    """
    from scipy import sparse

    d = op.shape[0]
    coef = m.toarray().real  # R is rational: its lifts and their words are real
    terms = coef.shape[1]
    words = np.zeros((_word_count(terms), d * d))
    words[:terms, pos] = coef.T
    lifts = [sparse.csr_matrix((coef[:, t], op.indices, op.indptr), shape=(d, d))
             for t in range(terms)]
    lo, hi = 0, terms  # the rows of the last length formed
    for _ in range(3):
        shorter = words[lo:hi].reshape(-1, d)
        longer = words[hi:hi + (hi - lo) * terms].reshape(hi - lo, terms, d, d)
        for t, lift in enumerate(lifts):
            longer[:, t] = (shorter @ lift).reshape(-1, d, d)
        lo, hi = hi, hi + (hi - lo) * terms
    return words


@np.errstate(all="ignore")
def integrate_holonomy(sys: KZSystem, loop: LoopSpec) -> np.ndarray:
    """Classical fixed-step RK4 transport of W(0)=Id to W(1).

    Steps are distributed evenly over the loop's segments so that no step
    straddles a polygon corner. On a segment A(t) is the sum over its live
    pairs (i, j), those whose point i moves, of h v_i / (z_i - z_j) R^{ij},
    held as one ``segment_operator``: the CSR data at every stage time is
    one product of its (nnz, T) map with the coefficients.

    Only the moved entries of W are integrated, in one layout. The mask
    ``moved`` collects the columns of each live segment's CSR pattern. A
    column k outside it is still e_k, and k is no column of the pattern, so
    A(t) e_k = 0 at every stage time and the column stays e_k. For phi at
    n = 4 the lifts R^{mj} of a moving point m have nonzero columns only
    where a_m = a_j lies in im phi for some j != m: 37 rank(phi) of the 256.
    A(t) also mixes basis vectors only within a weakly connected component
    of the loop's pattern, the union of every segment's live lifts
    (``_components``, read at the first live segment off one
    ``segment_operator`` of all the live pairs). W(0) = I, so W stays block
    diagonal along the components. Each run of consecutive live segments
    with the same live pairs, which share one operator, steps a tall array,
    gathered from W where the run begins and scattered back where it ends
    (a segment without live pairs leaves W as it is and ends no run, and a
    polygon on which every point moves is one run), with a row for each row
    of W in a component that holds a moved column, in W's order: row r
    holds the moved columns of r's component, left-aligned, padded with
    zeros to the most moved columns of one component (``_stacked``); the
    operator is taken on the same rows, its entries in their order. This is
    exact in every evaluation: *apply* applies A, and each propagator
    step's M - I is a polynomial in the A(t), so each is block diagonal
    along the components, and a row of the tall array meets only rows of
    its own component; padded columns stay zero. Under *apply* the result is W's
    full-width run bit for bit: ``csr_matvecs`` sums each output entry over
    its row's stored entries in stored order, the operator on the live rows
    keeps them all in order, and the RK4 sums are elementwise. The
    propagator forms agree with it to rounding. For phi at n = 4, N = 4 on
    a circle the tall array is 256 x 37, 224 x 7, 186 x 7 and 148 x 1 for
    rank 1 to 4; at n = 3 an all-moving polygon steps 81 x 11 for rank 2
    and 81 x 1 for rank 3. ``BENCH_27.json`` (``layers_in_process``)
    records these shapes and the integration times against stepping
    W[:, moved].

    Each segment is integrated by one of three evaluations of the same RK4
    step; A1, A2, A4 are A at the start, middle and end of the step:

    - *apply*: k1 = A1 W, k2 = A2 (W + dt/2 k1), k3 = A2 (W + dt/2 k2),
      k4 = A4 (W + dt k3), W + dt/6 (k1 + 2 k2 + 2 k3 + k4), each A_s W a
      sparse product that costs about nnz(A) d, scipy's ``csr_matvecs``
      called into buffers that every step of a batch reuses
      (``_apply_steps``);
    - *propagator* from stacked stages: M - I = dt/6 (A1 + 2 X2 + 2 X3 + X4)
      with X2 = A2 (I + dt/2 A1), X3 = A2 (I + dt/2 X2),
      X4 = A4 (I + dt X3), from dense stage matrices: three stacked d^3
      products per step, and twelve elementwise passes over them;
    - *words*: the same M - I from the segment's lift words. With
      A_s = sum_a c_s[a] L_a over its T live lifts,
      M - I = dt/6 (A1 + 4 A2 + A4) + dt^2/6 (A2 A1 + A2 A2 + A4 A2)
      + dt^3/12 (A2 A2 A1 + A4 A2 A2) + dt^4/24 A4 A2 A2 A1
      is a fixed combination of the W = T + T^2 + T^3 + T^4 ordered words
      L_a L_b ... (``segment_words``, formed once per segment operator;
      real, since R is rational). A batch's increments are one real
      product of the (W, d^2) words with its (W, b) coefficients, outer
      products of the stage coefficients (``_word_coefficients``): 2 W d^2
      real multiply-adds per step, written into a buffer that every batch
      of the segment reuses.

    Both propagator forms then multiply the b steps of a batch pairwise in
    increment form, (I + B)(I + A) - I = A + B + B A, with one stacked
    product per level over about log2(b) levels, and apply them as
    W + (M_b ... M_1 - I) W (``_multiply_increments``). Forming
    I + (M - I) would round each step's increment against the identity,
    which over the 4000 steps of a circle moved W by about 2e-13; the
    increment form never does.

    The cost rule (``_evaluation``) reads d, T, nnz(A) and the batch. A
    segment uses *apply* iff 8 nnz(A) d + 32^3 <= d^3: a sparse complex
    multiply-add is priced at 8 BLAS ones, and 32^3 covers the fixed cost
    of the four sparse products per step, which rules at small d. Else it
    uses words iff W <= 64 (and the words fit the stage buffer,
    W <= min(2 b + 1, d^2)). Per batch of about CHUNK_ENTRIES stage
    entries, on random stage matrices and words (medians of 15), stacked
    stages (``_propagator_steps``) took 3.1-4.6 ms at d = 8 to 64, and
    words (``_words_steps``) 1.2-1.7 ms plus 0.015-0.09 ms per word, the
    pairwise product included in both. Words took 0.27-0.87 of the time
    of stacked stages for W = 4 and 30 at every d measured (d = 4 to 64),
    and 1.05,
    1.33 and 1.57 of it for W = 120 at d = 16, 27 and 32. T = 1, 2, 3, 4
    make W = 4, 30, 120, 340, so every bound from 30 to 119 takes the same
    decisions. With W <= 2 b + 1, words are taken, where *apply* is not,
    for one live lift at 2 <= d <= 181 and for two at 6 <= d <= 66, and
    never for more.

    Median ms per loop, *apply* / stacked stages / words, each forced, the
    three interleaved, 9 runs (Python 3.11.7, numpy 2.4.6, scipy 1.17.1,
    2 BLAS threads, 2 shared CPUs; h = 0.1; circles move point 1 around
    point 0 at radius 0.5 with the other points at 10, 20i, -15, 30;
    polygons move every point along 4 sides; "-" where W exceeds the stage
    buffer):

    - phi operators: the d = 8 circle (n = 2, N = 3, T = 2) of 4000 steps
      108 / 17.1 / 8.8; the d = 16 circle (n = 2, N = 4, T = 3) of 1000
      steps 31.2 / 13.5 / 12.3; the d = 27 circle (n = 3, N = 3, T = 2) of
      400 steps 12.8 / 17.6 / 8.3; polygons of 60 steps at d = 16
      (n = 2): 2.9 / 1.6 / -, d = 27: 2.6 / 2.8 / -, d = 64 (n = 4):
      4.7 / 20.7 / -;
    - the conjugate u R_phi u^-1 with nnz(R) = 224 of 256 at n = 4: the
      d = 64 circle (T = 2) of 40 steps 22.6 / 16.9 / 12.4.

    The host's speed drifts by up to 50% between runs; the three numbers
    of a row were taken interleaved, so their ratios are firmer than any
    one number. The rule picks the fastest evaluation in each case, or
    one within 10% of it: *apply* was 0-10% faster on the d = 27 polygon
    over three such runs, and words were 5-9% faster on the d = 16 circle
    here but 5% slower per batch in isolation, so three lifts stay on
    stacked stages.

    Stage coefficients are formed for batches of steps holding at most
    about CHUNK_ENTRIES entries of stage data (or of stage matrices).

    The integration runs with numpy's floating-point warnings off; a
    holonomy that is not finite, from an overflow, is a ValueError.
    """
    if loop.N != sys.N:
        raise ValueError("loop and system disagree on the number of points")
    d = sys.dim
    w = np.eye(d, dtype=complex)
    moved = np.zeros(d, dtype=bool)  # the columns of W that may differ from I's
    per_seg = loop.steps // loop.segments
    dt = 1.0 / loop.steps
    seg_pairs = segment_pairs(loop) if sys.r_float.any() else []  # R = 0: A = 0
    union = _union_pairs(seg_pairs)
    labels = None  # the components of the loop's pattern, found at the first live segment
    # A vanishes on a segment without live pairs, so W stays as it is there
    live = [(seg, pairs) for seg, pairs in enumerate(seg_pairs) if pairs]
    for pairs, run in itertools.groupby(live, key=lambda item: item[1]):
        op, pos, m = segment_operator(sys, pairs)
        mode, batch = _evaluation(d, len(pairs), len(pos))
        # later segments of the run move no new column
        moved[op.indices] = True
        if labels is None:
            labels = _components(op if pairs == union
                                 else segment_operator(sys, union)[0])
        op, pos, layout = _stacked(op, labels, moved)
        held = None
        if mode == "words":
            held = _words_held(op, pos, m, batch)
        elif mode == "propagator":  # stage matrices; entries off the pattern stay zero
            held = np.zeros((2 * batch + 1, op.shape[0] ** 2), dtype=complex)
        shape, src, dst = _stack_positions(layout)  # C order, as scipy reads it
        part = np.zeros(shape, dtype=complex)
        part.put(src, w.take(dst))
        del src, dst
        rows, cols = np.array(pairs).T
        for seg, _ in run:
            t0 = seg / loop.segments
            for k0 in range(0, per_seg, batch):
                k1 = min(per_seg, k0 + batch)
                ts = t0 + np.arange(2 * k0, 2 * k1 + 1) * (dt / 2)
                z, v = loop.stage_data(ts, seg)
                coeffs = sys.h * v[rows] / (z[rows] - z[cols])
                if mode == "words":
                    part = _words_steps(part, held, coeffs, dt)
                elif mode == "apply":
                    part = _apply_steps(part, op, np.ascontiguousarray((m @ coeffs).T), dt)
                else:
                    held[:len(ts), pos] = (m @ coeffs).T
                    part = _propagator_steps(part, held[:len(ts)].reshape(-1, *op.shape), dt)
        _, src, dst = _stack_positions(layout)
        w.put(dst, part.take(src))
        del op, pos, m, held, part, src, dst  # freed before the next run's operator is built
    if not np.isfinite(w).all():
        raise ValueError("the holonomy is not finite: the integration overflowed; "
                         "reduce |h| or the scale of the loop")
    return w


def check_circle_oracle(sys: KZSystem, loop: LoopSpec):
    """The ``--compare`` preconditions, each a ValueError: the command
    requires a flip-invariant operator and a circle centred on a fixed
    point that encloses no other point.

    The oracle exp(2 pi i h R^{mc}), for point m circling the fixed point
    c, is exact whenever the circle encloses c and no other point and R
    satisfies Long equation 1. Only z_m moves, so
    A(t) = h sum_{j != m} dz_m/dt / (z_m - z_j) R^{mj}. The live lifts R^{mj}
    share their first slot m, and Long equation 1 gives
    [R^{ab}, R^{ac}] = 0 for distinct slots a, b, c (relabel the slots), so
    they commute. Then A(t) commutes with A(s) for all t, s, and the
    transport is the exponential of the integral of A:
    prod_j exp(h R^{mj} oint dz/(z - z_j)) = prod_j exp(2 pi i h w_j R^{mj}),
    w_j the winding number of the circle about z_j: 1 for the centre and 0
    for every point outside the circle. The distance from the integrated
    holonomy is then the RK4 error alone. Flip invariance is more than
    that needs.
    """
    if not sys.symmetric:
        raise ValueError("comparison mode requires a symmetric operator (flip-invariant)")
    if loop.kind != "circle" or loop.center_index is None:
        raise ValueError("comparison mode requires a circle loop centered on a fixed point")
    if any(abs(z - loop.center) < loop.radius for j, z in enumerate(loop.base)
           if j not in (loop.center_index, loop.moving)):
        raise ValueError("comparison mode requires a circle that encloses no fixed point "
                         "besides its centre")


def circle_block(sys: KZSystem) -> np.ndarray:
    """exp(2 pi i h R), the n^2 x n^2 block whose lift to the slot blocks
    of a circle's pair is the ``--compare`` oracle (``oracle_distance``)."""
    from scipy.linalg import expm

    return expm(2.0j * math.pi * sys.h * sys.r_float)


def oracle_distance(sys: KZSystem, w, moving, center) -> float:
    """The ``--compare`` distance max |W - exp(2 pi i h R^{mc})|, m = ``moving``
    and c = ``center``: the float of ``np.max(np.abs(w - o))`` for the
    oracle o = ``lift_float(circle_block(sys), n, moving, center, N)``.

    R^{mc} is block diagonal with blocks R (its slot blocks partition the
    basis), so its exponential is o, the lift of the n^2 x n^2 block
    exponential E. The same float is formed without the d x d lift,
    difference or ``abs`` array (module docstring): the rows of
    |W - o| are formed DISTANCE_ENTRIES entries at a time."""
    blocks = _slot_blocks(sys.n, moving, center, sys.N)
    block = circle_block(sys)
    count, size = blocks.shape
    # label[i] is the block of basis index i, place[i] its index in the block
    label = np.empty(sys.dim, dtype=np.intp)
    label[blocks] = np.arange(count)[:, None]
    place = np.empty(sys.dim, dtype=np.intp)
    place[blocks] = np.arange(size)
    step = max(1, DISTANCE_ENTRIES // sys.dim)
    maxima = []
    for start in range(0, sys.dim, step):
        part = w[start:start + step]
        rows = np.arange(start, start + len(part))
        # the cells of each row's block, as (row in part, column)
        own = rows[:, None] - start, blocks[label[rows]]
        # |W_ij - 0| = |W_ij| off the blocks, then |W_b - E| on them
        dist = np.abs(part)
        dist[own] = np.abs(part[own] - block[place[rows]])
        maxima.append(dist.max())
    return float(np.max(maxima))


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
