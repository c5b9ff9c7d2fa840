"""The four workloads: pools of operations, seeded selection, output checks.

Every operation comes from a fixed pool. A pool member is built from
longeq constructors and its own key (``conj4-r2-5`` always means the same
operator), never from the test suite, so editing a test cannot change a
workload. ``expected/<workload>.json`` holds the output of every pool
operation at the commit that defined the benchmark; the run seed chooses
which members a run uses and in which order, so any seed can be checked.

A run is a sequence of rounds. Each round takes a fixed number of
operations from every category of its workload, so the mix of operation
kinds is the same in every round and for every seed; only the members
change. Within a category, strata (for example the three frt commands)
are interleaved so that each stays an equal share.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np

import longeq
from longeq import bialgebra, cli, jsonio, kz
from longeq.errors import SingularMatrix
from longeq.scalars import frac_str

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
ALL_LAWS = "long,d_equation,qybe,hopf,kz_bracket,symmetric"
ALL_AXIOMS = "L1,L2,L3,L4,L5,B1"
FRT_COMMANDS = {
    "present": lambda p: ["frt", "--op", p, "--present"],
    "json": lambda p: ["frt", "--op", p],
    "roundtrip": lambda p: ["roundtrip", "--op", p],
}
# Tolerances for the float layer. RK4 rounding differences between two
# correct implementations are near 1e-14; the oracle distances themselves
# are 1e-15 .. 1e-8.
ORACLE_ABS_TOL = 1e-10
ORACLE_REL_TOL = 1e-3
PROBE_TOL = 1e-9

_ELAPSED = re.compile(r',\n\s*"elapsed_s": [^,\n}]*')


def member_rng(key):
    """Random source of one pool member; independent of the run seed."""
    return random.Random(f"perfbench-member:{key}")


def digest(text):
    """SHA-256 of a CLI report with the wall-clock ``elapsed_s`` field removed."""
    return hashlib.sha256(_ELAPSED.sub("", text).encode()).hexdigest()


# ---------------------------------------------------------------------------
# pool members
# ---------------------------------------------------------------------------


def dense_conjugate(n, rank, key):
    """u R_phi u^-1 for a seeded dense small-integer invertible u and |im phi| = rank."""
    rng = member_rng(key)
    maps = [phi for phi in longeq.idempotent_maps(n) if len(set(phi)) == rank]
    while True:
        u = [[rng.choice((-2, -1, 1, 2)) for _ in range(n)] for _ in range(n)]
        phi = rng.choice(maps)
        try:
            return longeq.make_conjugate(u, longeq.make_phi(n, phi))
        except SingularMatrix:
            continue


def constructor_corpus():
    """Small-n solutions from every constructor, by name."""
    table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    z2 = longeq.GradedActionData(
        ["e", "g"], table, {"e": [[1, 0], [0, 1]], "g": [[1, 0], [0, -1]]}, ["e", "g"]
    )
    corpus = {
        "diag_2": lambda: longeq.make_diag(2, [[2, 3], [5, 7]]),
        "diag_groups": lambda: longeq.make_diag(2, [[2, 3], [0, 0]]),
        "pair_111": lambda: longeq.make_pair([[1, 1], [0, 1]], [[1, 1], [0, 1]]),
        "pair_235": lambda: longeq.make_pair([[2, 1], [0, 2]], [[3, 5], [0, 3]]),
        "pair_invertible": lambda: longeq.make_pair([[1, 1], [0, 1]], [[1, 2], [0, 1]]),
        "conjugate": lambda: longeq.make_conjugate(
            [[1, 1], [0, 1]], longeq.make_diag(2, [[2, 3], [5, 7]])
        ),
        "graded_z2": lambda: longeq.make_graded(z2),
        "homothety": lambda: longeq.make_homothety(
            [[[1, 0], [0, 1]], [[2, 0], [0, 3]]],
            [(Fraction(1), 1, 1), (Fraction(2), 0, 1)],
        ),
    }
    for n in (1, 2, 3):
        for phi in longeq.idempotent_maps(n):
            corpus[f"phi{n}_" + "".join(map(str, phi))] = (
                lambda n=n, phi=phi: longeq.make_phi(n, phi)
            )
    return corpus


def random_candidate(n, density, key):
    """An operator with entries in {-1, 0, 1}; nonzero with the given probability."""
    rng = member_rng(key)
    m = [
        [rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n * n)]
        for _ in range(n * n)
    ]
    return longeq.TensorOp2(n, m)


def phi_key(phi):
    return "".join(map(str, phi))


def circle_loop(key, big_n):
    """A circle loop whose moving point winds once around one fixed point.

    The other points stay at least five units away (and two from each
    other), so the holonomy is exp(2 pi i h R^{moving,center}), the
    ``--compare`` oracle.
    """
    rng = member_rng(key)
    base = [[0.0, 0.0], [1.0, 0.0]]
    for k in range(big_n - 2):
        r, theta = rng.uniform(6.0 + 6 * k, 10.0 + 6 * k), rng.uniform(0.0, 2 * math.pi)
        base.append([round(r * math.cos(theta), 4), round(r * math.sin(theta), 4)])
    moving, center = rng.choice(((1, 2), (2, 1)))
    loop = {"base": base, "kind": "circle", "moving": moving, "center": center,
            "radius": round(rng.uniform(0.35, 0.65), 4)}
    return loop, f"{rng.uniform(0.05, 0.15):.4f}"


def polygon_loop(key, big_n, steps):
    """Every point walks its own closed polygon around a corner of a square."""
    rng = member_rng(key)
    corners = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)][:big_n]
    count = rng.choice((4, 5, 6))
    paths = []
    for cx, cy in corners:
        inner = [
            [round(cx + rng.uniform(-0.6, 0.6), 4), round(cy + rng.uniform(-0.6, 0.6), 4)]
            for _ in range(count - 2)
        ]
        paths.append([[cx, cy]] + inner + [[cx, cy]])
    loop = {"base": [list(c) for c in corners], "kind": "polygon", "steps": steps,
            "waypoints": paths}
    return loop, f"{rng.uniform(0.05, 0.15):.4f},{rng.uniform(-0.05, 0.05):.4f}"


def l1_sample(space, key, d):
    """A table in the L1/L2/L4 solution space with seeded small coefficients."""
    rng = member_rng(key)
    vec = list(space.particular)
    for v in space.basis:
        c = rng.randint(-2, 2)
        if c:
            vec = [x + c * y for x, y in zip(vec, v)]
    return [vec[p * d:(p + 1) * d] for p in range(d)]


def truncation_table(b, key):
    """A table on a comatrix_tensor_truncation algebra that fails L1 early.

    The comultiplication keeps word length, so a functional
    sigma(- (x) e_y) that combines the counits of the word-length pieces
    commutes with the dual product, which is L1; the length-0 piece is
    pinned by L4 and the unit column by L2. One seeded entry in a
    length-one row is then moved off that family, so the L1 check stops
    at a witness among the first basis elements instead of scanning all
    of them.
    """
    rng = member_rng(key)
    lengths = [0 if w == "1" else "s" if w == "s" else w.count("*") + 1 for w in b.basis]
    lam = {}
    for y in range(b.d):
        for length in sorted(set(lengths), key=str):
            if y == 0:
                lam[length, y] = 1
            elif length == 0:
                lam[length, y] = b.counit[y]
            else:
                lam[length, y] = rng.randint(-2, 2)
    table = [[lam[lengths[p], y] * b.counit[p] for y in range(b.d)] for p in range(b.d)]
    first = lengths.index(1)
    table[rng.randrange(first, first + lengths.count(1))][rng.randrange(1, b.d)] += rng.choice((-1, 1))
    return table


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One operation: a CLI argument list or a package API call."""

    id: str
    check: str = "digest"  # "digest", "kz_circle" or "kz_polygon"
    argv: list = field(default_factory=list)
    call: object = None  # zero-argument callable returning canonical text

    def run(self):
        """Return (seconds, exit code, output text); only the call is timed."""
        if self.call is not None:
            start = perf_counter()
            result = self.call()
            elapsed = perf_counter() - start
            return elapsed, 0, canonical_text(result)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            code = cli.main(self.argv)
            elapsed = perf_counter() - start
        return elapsed, code, out.getvalue()


def canonical_text(result):
    """Deterministic text of an API result (AffineTableSpace or FeasibilityResult)."""
    def space(s):
        if s is None:
            return None
        return {"d": s.d, "particular": [frac_str(x) for x in s.particular],
                "basis": [[frac_str(x) for x in v] for v in s.basis]}

    if isinstance(result, bialgebra.FeasibilityResult):
        obj = {"status": result.status, "witness": result.witness,
               "space": space(result.space)}
    else:
        obj = space(result)
    return json.dumps(obj, sort_keys=True)


class Workload:
    """A workload: categories of pool operations and how to build their inputs."""

    name = ""
    min_rounds = 1
    prepared_rounds = 16
    trace_rounds = 2
    warm_ids = ()

    def __init__(self, workdir):
        self.workdir = workdir
        self._written = {}

    def categories(self):
        """[(category, ops per round, [stratum, ...])] with strata as lists of op ids."""
        raise NotImplementedError

    def make_op(self, op_id):
        raise NotImplementedError

    def warm_up(self):
        """Run one cheap operation of each command, untimed.

        This keeps lazy imports and first-call costs out of the timed loop.
        """
        for op_id in self.warm_ids:
            self.make_op(op_id).run()

    def write_json(self, name, factory):
        """Write an input file once per member; returns its path."""
        path = self._written.get(name)
        if path is None:
            path = os.path.join(self.workdir, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(factory(), fh)
            self._written[name] = path
        return path

    def pool(self):
        return [op for _, _, strata in self.categories() for s in strata for op in s]

    def rounds(self, seed, count):
        """Op ids of rounds 0..count-1 for this seed."""
        plan = []
        for cat, per_round, strata in self.categories():
            rng = random.Random(f"perfbench-run:{self.name}:{seed}:{cat}")
            shuffled = [rng.sample(s, len(s)) for s in strata]
            width = max(len(s) for s in shuffled)
            seq = [s[i % len(s)] for i in range(width) for s in shuffled]
            plan.append((per_round, seq))
        out = []
        for r in range(count):
            ops = []
            for per_round, seq in plan:
                ops.extend(seq[(r * per_round + j) % len(seq)] for j in range(per_round))
            out.append(ops)
        return out


class FrtBuild(Workload):
    name = "frt_build"
    min_rounds = 8
    prepared_rounds = 8
    trace_rounds = 2
    warm_ids = tuple(f"corpus-diag_2:{c}" for c in FRT_COMMANDS)

    def __init__(self, workdir):
        super().__init__(workdir)
        self.corpus = constructor_corpus()
        self._operators = {}

    def members(self):
        """{category: [[member, ...] per stratum]}, strata by size of the problem.

        The cost of an L(R) build follows the rank of phi (the number of
        generators), so every run takes the same share of each rank.
        """
        maps4 = longeq.idempotent_maps(4)
        small = [name for name in self.corpus if not name.startswith("phi3")]
        return {
            "phi4": [[f"phi4-{phi_key(p)}" for p in maps4 if len(set(p)) == rank]
                     for rank in (1, 2, 3, 4)],
            "conj4": [[f"conj4-r{rank}-{k}" for k in range(8)] for rank in (1, 2, 3, 4)],
            "conj3": [[f"conj3-r{rank}-{k}" for k in range(16)] for rank in (1, 2, 3)],
            "corpus": [[f"corpus-{name}" for name in small],
                       [f"corpus-{name}" for name in self.corpus if name not in small]],
        }

    def categories(self):
        """Strata cross the rank classes with the three commands.

        Classes vary fastest and the command shifts by one per class, so a
        few consecutive rounds already cover every class and every command.
        """
        per_round = {"phi4": 1, "conj4": 1, "conj3": 3, "corpus": 6}
        commands = list(FRT_COMMANDS)
        return [
            (cat, per_round[cat], [
                [f"{m}:{commands[(block + c) % len(commands)]}" for m in classes[c]]
                for block in range(len(commands)) for c in range(len(classes))])
            for cat, classes in self.members().items()
        ]

    def operator(self, member):
        r = self._operators.get(member)
        if r is None:
            kind, _, rest = member.partition("-")
            if kind == "phi4":
                r = longeq.make_phi(4, [int(c) for c in rest])
            elif kind in ("conj3", "conj4"):
                r = dense_conjugate(int(kind[-1]), int(rest[1]), member)
            else:
                r = self.corpus[rest]()
            self._operators[member] = r
        return r

    def make_op(self, op_id):
        member, command = op_id.split(":")
        r = self.operator(member)
        path = self.write_json(member, lambda: jsonio.operator_to_json(r))
        return Op(op_id, argv=FRT_COMMANDS[command](path))


class LongScreen(Workload):
    name = "long_screen"
    min_rounds = 10
    prepared_rounds = 24
    trace_rounds = 2
    warm_ids = ("planted2-11",)
    DENSITIES = (0.05, 0.2, 0.5)
    # Candidates per round for each (n, density). The n=2 checks are most
    # of the operations, so the median measures the CLI's own share of a
    # small check; the dense n=4 checks are the tail.
    PER_ROUND = {2: (5, 5, 5), 3: (1, 1, 1), 4: (1, 1, 2)}

    def categories(self):
        cats = []
        for n in (2, 3, 4):
            for dens, per_round in zip(self.DENSITIES, self.PER_ROUND[n]):
                cat = f"cand{n}-{dens}"
                size = 40 * per_round
                cats.append((cat, per_round, [[f"{cat}-{k:03d}" for k in range(size)]]))
        planted = [
            [f"planted{n}-{phi_key(p)}" for p in longeq.idempotent_maps(n)]
            for n in (2, 3, 4)
        ]
        cats.append(("planted", 1, planted))
        return cats

    def make_op(self, op_id):
        kind = op_id.split("-")[0]
        if kind.startswith("planted"):
            n = int(kind[-1])
            phi = [int(c) for c in op_id.split("-")[1]]
            factory = lambda: jsonio.operator_to_json(longeq.make_phi(n, phi))
        else:
            n, dens = int(kind[-1]), float(op_id.split("-")[1])
            factory = lambda: jsonio.operator_to_json(random_candidate(n, dens, op_id))
        path = self.write_json(op_id, factory)
        return Op(op_id, argv=["check", "--op", path, "--laws", ALL_LAWS])


class KzHolonomy(Workload):
    name = "kz_holonomy"
    min_rounds = 6
    prepared_rounds = 12
    trace_rounds = 1
    warm_ids = ("circle2-00",)
    # (category, n, N, steps); circle2 is the acceptance configuration
    KINDS = (("circle2", 2, 3, 4000), ("polygon", 3, 4, 60), ("circle4", 4, 4, 16))

    def categories(self):
        """The n=4 circles are the tail and rotate through the ranks of phi.

        Four cheap loops per round, mostly polygons of one cost, keep the
        median well inside the cheap ones.
        """
        circle4 = [[f"circle4-r{rank}.{k}" for k in range(10)] for rank in (1, 2, 3, 4)]
        return [("circle2", 1, [[f"circle2-{k:02d}" for k in range(40)]]),
                ("polygon", 3, [[f"polygon-{k:02d}" for k in range(40)]]),
                ("circle4", 2, circle4)]

    def make_op(self, op_id):
        kind, idx = op_id.split("-")
        _, n, big_n, steps = next(k for k in self.KINDS if k[0] == kind)
        maps = longeq.idempotent_maps(n)
        if idx.startswith("r"):
            maps = [phi for phi in maps if len(set(phi)) == int(idx[1])]
        phi = member_rng(op_id).choice(maps)
        op_path = self.write_json(f"phi{n}-{phi_key(phi)}",
                                  lambda: jsonio.operator_to_json(longeq.make_phi(n, phi)))
        if kind == "polygon":
            loop, h = polygon_loop(op_id, big_n, steps)
            extra, check = [], "kz_polygon"
        else:
            loop, h = circle_loop(op_id, big_n)
            loop["steps"] = steps
            extra, check = ["--compare"], "kz_circle"
        loop_path = self.write_json(op_id + ".loop", lambda: loop)
        argv = ["kz", "--op", op_path, "--points", str(big_n), "--h", h,
                "--loop", loop_path] + extra
        return Op(op_id, check=check, argv=argv)

    def warm_up(self):
        """Also take one RK4 step at each (n, N), which starts the BLAS threads."""
        super().warm_up()
        for _, n, big_n, _ in self.KINDS:
            system = kz.KZSystem.from_op(longeq.make_phi(n, [1] * n), big_n, 0.1)
            base = [0, 1, 10, 20j][:big_n]
            kz.integrate_holonomy(system, kz.LoopSpec(base, "circle", 1, moving=0,
                                                      center=1, radius=0.5))


class BialgebraAxioms(Workload):
    name = "bialgebra_axioms"
    min_rounds = 6
    prepared_rounds = 16
    trace_rounds = 2
    warm_ids = ("check-z2-counit", "l1-z2", "feas-z2")
    SMALL = ("h4", "z2", "z3", "z4", "z5", "z6", "t21")

    def __init__(self, workdir):
        super().__init__(workdir)
        self._algebras = {}
        self._spaces = {}

    def algebra(self, name):
        b = self._algebras.get(name)
        if b is None:
            if name == "h4":
                b = bialgebra.sweedler_h4()
            elif name.startswith("z"):
                b = bialgebra.cyclic_group_algebra(int(name[1:]))
            else:
                b = bialgebra.comatrix_tensor_truncation(int(name[1]), int(name[2]))
            self._algebras[name] = b
        return b

    def l1_space(self, name):
        if name not in self._spaces:
            self._spaces[name] = bialgebra.l1_solution_space(self.algebra(name))
        return self._spaces[name]

    def categories(self):
        """Every round checks each smaller algebra with both kinds of table."""
        sampled = [[f"check-{alg}-l1.{k:02d}"
                    for k in range(12 if self.l1_space(alg).basis else 1)]
                   for alg in self.SMALL]
        return [
            ("t22", 2, [[f"check-t22-offcentral.{k:02d}" for k in range(40)]]),
            ("counit", len(self.SMALL), [[f"check-{alg}-counit"] for alg in self.SMALL]),
            ("sampled", len(self.SMALL), sampled),
            ("api", 2, [[f"l1-{alg}" for alg in self.SMALL],
                        [f"feas-{alg}" for alg in self.SMALL]]),
        ]

    def make_op(self, op_id):
        kind, alg, *rest = op_id.split("-")
        b = self.algebra(alg)
        if kind == "l1":
            return Op(op_id, call=lambda: bialgebra.l1_solution_space(b))
        if kind == "feas":
            return Op(op_id, call=lambda: bialgebra.sigma_feasibility(b))
        table = rest[0]
        if table == "counit":
            factory = lambda: bialgebra.SigmaTable.counit_square(b).table
        elif table.startswith("l1"):
            factory = lambda: l1_sample(self.l1_space(alg), op_id, b.d)
        else:
            factory = lambda: truncation_table(b, op_id)
        b_path = self.write_json(alg + ".bialgebra", lambda: jsonio.bialgebra_to_json(b))
        s_path = self.write_json(
            op_id + ".sigma",
            lambda: jsonio.sigma_to_json(bialgebra.SigmaTable(factory())),
        )
        argv = ["bialgebra-check", "--bialgebra", b_path, "--sigma", s_path,
                "--axioms", ALL_AXIOMS]
        return Op(op_id, argv=argv)


WORKLOADS = {w.name: w for w in (FrtBuild, LongScreen, KzHolonomy, BialgebraAxioms)}


# ---------------------------------------------------------------------------
# expected outputs
# ---------------------------------------------------------------------------


def probe_vectors(dim):
    """Fixed probe vectors for the holonomy fingerprint."""
    rng = random.Random(f"perfbench-probe:{dim}")
    return [
        (np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)]),
         np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)]))
        for _ in range(4)
    ]


def holonomy_probes(report):
    """trace(W) and four bilinear probes p^T W q of a holonomy report."""
    w = np.array([[complex(re, im) for re, im in row] for row in report["matrix"]])
    vals = [complex(np.trace(w))] + [complex(p @ w @ q) for p, q in probe_vectors(len(w))]
    return [[z.real, z.imag] for z in vals]


def observe(op, code, text):
    """The expected-value record of one finished operation."""
    if op.check == "digest":
        return {"code": code, "sha256": digest(text)}
    report = json.loads(text)
    rec = {"code": code, "residuals": report["residuals"]}
    if op.check == "kz_circle":
        rec["oracle_distance"] = report["oracle_distance"]
    else:
        rec["probes"] = holonomy_probes(report)
    return rec


def matches(expected, actual):
    """True when an observed record agrees with the committed one."""
    if expected is None or expected["code"] != actual["code"]:
        return False
    if "sha256" in expected:
        return expected["sha256"] == actual["sha256"]
    if expected["residuals"] != actual["residuals"]:
        return False
    if "oracle_distance" in expected:
        ref = expected["oracle_distance"]
        return abs(actual["oracle_distance"] - ref) <= ORACLE_ABS_TOL + ORACLE_REL_TOL * ref
    scale = max(1.0, max(abs(complex(*z)) for z in expected["probes"]))
    return all(abs(complex(*a) - complex(*e)) <= PROBE_TOL * scale
               for a, e in zip(actual["probes"], expected["probes"]))


def load_expected(name):
    with open(os.path.join(EXPECTED_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)["ops"]
