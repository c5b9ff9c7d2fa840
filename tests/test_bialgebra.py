import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from longeq import (
    AXIOMS,
    DimensionCap,
    InternalCheckFailed,
    InvalidBialgebra,
    InvalidCoaction,
    InvalidGroupTable,
    LongeqError,
    NotAStrongDMap,
    SigmaTable,
    SingularMatrix,
    TensorOp2,
    build_LR,
    check_axioms,
    check_L1_on_generators,
    comatrix_coalgebra,
    comatrix_tensor_truncation,
    cyclic_group_algebra,
    dimodule_compatible,
    fundamental_comodule,
    group_algebra,
    idempotent_maps,
    l1_solution_space,
    make_conjugate,
    make_phi,
    round_trip,
    sigma_extend,
    sigma_feasibility,
    strong_dmap_rsigma,
    sweedler_h4,
)
from longeq import bialgebra, jsonio
from longeq.bialgebra import (
    Coalgebra,
    FinDimBialgebra,
    GeneratorBialgebra,
    generator_sigma_words,
)
from longeq.frt import cm_index
from longeq import linalg as la
from longeq.linalg import identity as la_identity
from longeq.linalg import mat_inv as la_inv
from longeq.scalars import frac_str, parse_frac

F = Fraction


def test_sweedler_h4_structure():
    h4 = sweedler_h4()
    assert h4.basis == ["1", "x", "y", "z"]
    I, X, Y, Z = range(4)
    assert h4.mult[X][X][I] == 1
    assert h4.mult[X][Y][Z] == 1
    assert h4.mult[Y][X][Z] == -1
    assert h4.mult[X][Z][Y] == 1
    assert h4.mult[Z][X][Y] == -1
    assert all(v == 0 for v in h4.mult[Y][Y])
    assert h4.comult[Y][Y][X] == 1 and h4.comult[Y][I][Y] == 1
    assert h4.comult[Z][X][Z] == 1 and h4.comult[Z][Z][I] == 1


def test_invalid_bialgebra_rejected():
    h4 = sweedler_h4()
    bad = [ [[x for x in cell] for cell in row] for row in h4.mult]
    bad[1][1][0] = F(2)  # x*x = 2, breaking Delta multiplicativity
    from longeq.bialgebra import FinDimBialgebra

    with pytest.raises(InvalidBialgebra):
        FinDimBialgebra(h4.basis, bad, h4.unit, h4.comult, h4.counit)


@pytest.mark.parametrize("field", ["mult", "comult"])
def test_constructor_reads_every_entry_but_an_int_zero(field):
    """A zero of another type is read as zero, and an entry that is not a
    rational raises, also where it stands for a zero of H4."""
    h4 = sweedler_h4()
    fields = {"mult": h4.mult, "unit": h4.unit, "comult": h4.comult, "counit": h4.counit}

    def with_zero_at(value):
        cube = [[cell[:] for cell in row] for row in fields[field]]
        cube[2][2][3] = value  # y*y = 0 and Delta(y) has no e_z (x) e_w term
        return FinDimBialgebra(h4.basis, **dict(fields, **{field: cube}))

    for zero in (0, F(0), False, 0.0, "0", "-0", "0/7"):
        b = with_zero_at(zero)
        assert (b.mult, b.comult, b.scale) == (h4.mult, h4.comult, 1)
    for bad in (None, [], [0], 0j, "x"):
        with pytest.raises((TypeError, ValueError)):
            with_zero_at(bad)


def _coalgebra_oracle(comult, counit):
    """First failure message of the coalgebra laws, or None: the dense
    counit loops and the coassociativity accumulation ``Coalgebra`` ran
    before its validation read only ``comult_nz``."""
    d = len(counit)
    for a in range(d):
        for c in range(d):
            left = sum((counit[p] * comult[a][p][c] for p in range(d)), F(0))
            right = sum((comult[a][c][p] * counit[p] for p in range(d)), F(0))
            want = F(1) if a == c else F(0)
            if left != want or right != want:
                return f"counit law fails on basis {a}"
    nz = [[(p, q, comult[a][p][q]) for p in range(d) for q in range(d) if comult[a][p][q]]
          for a in range(d)]
    for a in range(d):
        acc = {}
        for m, c, x in nz[a]:
            for p, q, y in nz[m]:
                acc[p, q, c] = acc.get((p, q, c), F(0)) + x * y
        for p, m, x in nz[a]:
            for q, c, y in nz[m]:
                acc[p, q, c] = acc.get((p, q, c), F(0)) - x * y
        if any(v for v in acc.values()):
            return f"coassociativity fails on basis {a}"
    return None


def _oracle_failures(basis, mult, unit, comult, counit):
    """Every failure message of the bialgebra laws, in the order of the dense
    validation ``FinDimBialgebra`` ran before it read only ``mult_nz`` and
    ``comult_nz``: a failing coalgebra law alone, or each failing basis tuple
    of the algebra laws, law by law and each law's tuples in lexicographic
    order. The slow reference for the sparse validation."""
    d = len(basis)
    msg = _coalgebra_oracle(comult, counit)
    if msg:
        yield msg
        return

    def product(va, vb):
        out = [F(0)] * d
        for a, xa in enumerate(va):
            if xa:
                for b, xb in enumerate(vb):
                    if xb:
                        for c in range(d):
                            if mult[a][b][c]:
                                out[c] += xa * xb * mult[a][b][c]
        return out

    e = [[F(int(i == k)) for i in range(d)] for k in range(d)]
    for b in range(d):
        if product(unit, e[b]) != e[b] or product(e[b], unit) != e[b]:
            yield f"unit law fails on basis {b}"
    for a, b, c in itertools.product(range(d), repeat=3):
        if product(mult[a][b], e[c]) != product(e[a], mult[b][c]):
            yield f"associativity fails at ({a},{b},{c})"
    for a in range(d):
        for b in range(d):
            val = sum((mult[a][b][c] * counit[c] for c in range(d)), F(0))
            if val != counit[a] * counit[b]:
                yield f"counit not multiplicative at ({a},{b})"
    if sum((unit[c] * counit[c] for c in range(d)), F(0)) != 1:
        yield "eps(1) != 1"
    d1 = [[sum((unit[a] * comult[a][p][q] for a in range(d)), F(0)) for q in range(d)]
          for p in range(d)]
    if d1 != [[unit[p] * unit[q] for q in range(d)] for p in range(d)]:
        yield "Delta(1) != 1 (x) 1"
    comult_nz = [[(p, q, comult[a][p][q]) for p in range(d) for q in range(d)
                  if comult[a][p][q]] for a in range(d)]
    mult_nz = [[[(c, mult[a][b][c]) for c in range(d) if mult[a][b][c]] for b in range(d)]
               for a in range(d)]
    for a in range(d):
        for b in range(d):
            acc = {}
            for c, xc in mult_nz[a][b]:
                for p, q, x in comult_nz[c]:
                    acc[p, q] = acc.get((p, q), F(0)) + xc * x
            for p1, q1, x1 in comult_nz[a]:
                for p2, q2, x2 in comult_nz[b]:
                    for p, xp in mult_nz[p1][p2]:
                        for q, xq in mult_nz[q1][q2]:
                            acc[p, q] = acc.get((p, q), F(0)) - x1 * x2 * xp * xq
            if any(v for v in acc.values()):
                yield f"Delta not multiplicative at ({a},{b})"


def _validate_oracle(basis, mult, unit, comult, counit):
    """First failure message of the bialgebra laws, or None."""
    return next(_oracle_failures(basis, mult, unit, comult, counit), None)


def _first_block_failures(basis, mult, unit, comult, counit):
    """How many tuples of the first failing law fail at its first tuple's
    outer index a, per the oracle: the size of the block that the sparse
    associativity or Delta-multiplicativity pass raises from at its least key."""
    def block(msg):
        law, _, at = msg.partition(" at (")
        return law, at.split(",")[0]

    failures = _oracle_failures(basis, mult, unit, comult, counit)
    first = next(failures)
    return 1 + sum(1 for _ in itertools.takewhile(lambda m: block(m) == block(first), failures))


def _raised(make):
    """The InvalidBialgebra message ``make()`` raises, or None."""
    try:
        make()
    except InvalidBialgebra as err:
        return str(err)
    return None


def _change_basis(b, p):
    """Structure constants of ``b`` on the basis f_i = sum_k p[i][k] e_k,
    with e_m = sum_t q[m][t] f_t for q = p^-1; units and products spread over
    several basis vectors, unlike on the builtin bases."""
    d = b.d
    q = la_inv([[F(x) for x in row] for row in p])
    rng = range(d)

    def in_f(vec):
        return [sum((vec[m] * q[m][t] for m in rng), F(0)) for t in rng]

    mult = [[in_f([sum((p[i][k] * p[j][l] * b.mult[k][l][m] for k in rng for l in rng), F(0))
                   for m in rng]) for j in rng] for i in rng]
    comult = [[[sum((p[i][k] * b.comult[k][u][v] * q[u][s] * q[v][t]
                     for k in rng for u in rng for v in rng), F(0))
                for t in rng] for s in rng] for i in rng]
    counit = [sum((p[i][k] * b.counit[k] for k in rng), F(0)) for i in rng]
    return {"mult": mult, "unit": in_f(b.unit), "comult": comult, "counit": counit}


def _seeded_mutations(rng, bases, count, empty_cell=False):
    """``count`` copies of the bases' structure constants (dicts of mult,
    unit, comult, counit), each with one entry moved by +-1 or +-1/2; a base
    is drawn with weight d, so the larger ones, whose many entries give the
    rarer failures, are mutated more often. With ``empty_cell`` the entry is
    in a ``mult`` cell e_a e_b that is zero on the base."""
    out = []
    for _ in range(count):
        b = rng.choices(bases, weights=[len(b["unit"]) for b in bases])[0]
        d = len(b["unit"])
        fields = {
            "mult": [[cell[:] for cell in row] for row in b["mult"]],
            "unit": b["unit"][:],
            "comult": [[row[:] for row in m] for m in b["comult"]],
            "counit": b["counit"][:],
        }
        if empty_cell:
            name = "mult"
            a, e = rng.choice([(a, e) for a in range(d) for e in range(d)
                               if not any(b["mult"][a][e])])
            target = fields["mult"][a][e]
        else:
            name = rng.choice(sorted(fields))
            target = fields[name]
            if name in ("mult", "comult"):
                target = target[rng.randrange(d)][rng.randrange(d)]
        target[rng.randrange(d)] += rng.choice([F(1), F(-1), F(1, 2), F(-1, 2)])
        out.append(fields)
    return out


def _twisted_comultiplications(rng, b, count):
    """``count`` copies of ``b``'s structure constants with Delta and eps
    replaced by (phi (x) phi) Delta phi^-1 and eps phi^-1, for seeded
    invertible phi that fix e_0 = 1 and move one e_u by a vector v with
    eps(v) = 0: a coalgebra on every copy, with the same counit, so the unit,
    associativity and counit laws hold and Delta-multiplicativity may fail,
    also at a pair (a, b) with e_a e_b = 0."""
    d, rng_d = b.d, range(b.d)
    out = []
    while len(out) < count:
        v = [F(0)] * d
        for _ in range(rng.randint(1, 2)):
            v[rng.randrange(1, d)] += rng.choice([F(1), F(-1), F(1, 2)])
        v[0] -= sum(x * y for x, y in zip(v, b.counit))
        u = rng.randrange(1, d)
        p = [[F(int(r == c)) + (v[c] if r == u else 0) for c in rng_d] for r in rng_d]
        if not p[u][u]:  # det p
            continue
        q = la_inv(p)
        comult = [[[sum((q[a][k] * b.comult[k][x][y] * p[x][s] * p[y][t]
                         for k in rng_d if q[a][k] for x in rng_d for y in rng_d
                         if b.comult[k][x][y]), F(0)) for t in rng_d] for s in rng_d]
                  for a in rng_d]
        out.append({"mult": b.mult, "unit": b.unit, "comult": comult, "counit": b.counit})
    return out


def test_validation_matches_dense_oracle():
    """Sparse validation raises exactly the dense oracle's first message,
    for ``FinDimBialgebra`` and for ``Coalgebra`` on its own, on the builtin
    bialgebras, three of them on other bases, 200 seeded single-entry
    mutations, 30 that make a zero product e_a e_b nonzero, of
    truncation(2,2) and of truncation(2,1) on a basis where a few products
    have two terms (the associativity pass skips triples through zero
    products), and 30 each of truncation(2,1) and H4 with a twisted
    comultiplication; the six law failures reachable that way all occur.
    Associativity and Delta-multiplicativity each fail at two or more tuples
    of one outer index on some input, where the sparse pass raises at the
    least failing key, and Delta-multiplicativity fails first at a zero
    product e_a e_b on some."""
    rng = random.Random(1)
    builtins = [sweedler_h4()] + [cyclic_group_algebra(m) for m in range(2, 7)]
    builtins.append(comatrix_tensor_truncation(2, 1))
    small = [{"mult": b.mult, "unit": b.unit, "comult": b.comult, "counit": b.counit}
             for b in builtins]
    small += [
        _change_basis(cyclic_group_algebra(2), [[1, 1], [1, -1]]),
        _change_basis(sweedler_h4(), [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [2, 0, 1, 1]]),
        _change_basis(comatrix_tensor_truncation(2, 1),
                      [[1 if k == i else 1 if k == i + 1 else 0 for k in range(6)]
                       for i in range(6)]),
    ]
    big = comatrix_tensor_truncation(2, 2)
    big = [{"mult": big.mult, "unit": big.unit, "comult": big.comult, "counit": big.counit}]
    inputs = small + big
    inputs += _seeded_mutations(rng, small, 190) + _seeded_mutations(rng, big, 10)
    inputs += _seeded_mutations(rng, big, 10, empty_cell=True)
    # f_5 = e_5 + e_1 spreads a few products of truncation(2,1) over two
    # basis vectors, so a skipped triple can hang on the second of them
    spread = _change_basis(comatrix_tensor_truncation(2, 1),
                           [[int(k == i or (i, k) == (5, 1)) for k in range(6)]
                            for i in range(6)])
    inputs += _seeded_mutations(rng, [spread], 20, empty_cell=True)
    inputs += _twisted_comultiplications(rng, comatrix_tensor_truncation(2, 1), 30)
    inputs += _twisted_comultiplications(rng, sweedler_h4(), 30)
    messages, blocks, zero_pairs = set(), set(), 0
    for k, f in enumerate(inputs):
        basis = [str(i) for i in range(len(f["unit"]))]
        fields = (basis, f["mult"], f["unit"], f["comult"], f["counit"])
        want = _validate_oracle(*fields)
        assert want is None or k >= len(small + big), want
        got = _raised(lambda: FinDimBialgebra(basis, f["mult"], f["unit"],
                                              f["comult"], f["counit"]))
        assert got == want, f
        want_co = _coalgebra_oracle(f["comult"], f["counit"])
        assert _raised(lambda: Coalgebra(basis, f["comult"], f["counit"])) == want_co, f
        law = want and want.split(" at ")[0].split(" on ")[0]
        messages.add(law)
        # the oracle's pass over every tuple is slow at d = 22
        if want and len(basis) <= 6 and _first_block_failures(*fields) >= 2:
            blocks.add(law)
        if law == "Delta not multiplicative":
            a, b = map(int, want.split(" at ")[1].strip("()").split(","))
            zero_pairs += not any(f["mult"][a][b])
    assert {
        "counit law fails", "coassociativity fails", "unit law fails",
        "associativity fails", "counit not multiplicative", "Delta not multiplicative",
    } <= messages, messages
    assert {"associativity fails", "Delta not multiplicative"} <= blocks, blocks
    assert zero_pairs, "no input fails Delta-multiplicativity first at a zero product"


def test_validation_holds_at_most_a_cube_of_sums():
    """Validating k[Z/64], whose 4,096 products are all nonzero, peaks under
    8 MB: each associativity and Delta-multiplicativity block holds at most
    d^3 = 262,144 sums (4,096 here), where one dict over every associativity
    tuple (a, b, c, t) would hold the 262,144 that the products of k[Z/64]
    reach, about 30 MB, and up to d^4 = 16.7M on a dense input."""
    b = cyclic_group_algebra(64)
    tracemalloc.start()
    try:
        b._validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def _builtin_inputs(monkeypatch):
    """Each builtin bialgebra and coalgebra with the structure constants its
    constructor was given, recorded by a subclass in place of the class."""
    seen = []

    def recording(cls):
        class Recording(cls):
            def __init__(self, basis, *fields):
                super().__init__(basis, *fields)
                seen.append((self, fields))
        return Recording

    monkeypatch.setattr(bialgebra, "FinDimBialgebra", recording(FinDimBialgebra))
    monkeypatch.setattr(bialgebra, "Coalgebra", recording(Coalgebra))
    for make in (sweedler_h4, lambda: comatrix_tensor_truncation(2, 1),
                 lambda: comatrix_tensor_truncation(2, 2), lambda: comatrix_coalgebra(2),
                 lambda: comatrix_coalgebra(3)):
        make()
    for m in range(2, 7):
        cyclic_group_algebra(m)
    return seen[:]


def test_dense_cubes_equal_the_constructor_input(monkeypatch):
    """``mult`` and ``comult`` are formed from the scaled nonzeros on first
    read; with ``unit`` and ``counit`` they equal the constructor's input
    entry by entry, as Fractions, on every builtin, on the changed bases of
    the oracle test, on H4 given as ints, and after a JSON round trip."""
    cases = _builtin_inputs(monkeypatch)
    assert len(cases) == 10
    for f in (_change_basis(cyclic_group_algebra(2), [[1, 1], [1, -1]]),
              _change_basis(sweedler_h4(), [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0],
                                            [2, 0, 1, 1]]),
              _change_basis(comatrix_tensor_truncation(2, 1),
                            [[1 if k == i else 1 if k == i + 1 else 0 for k in range(6)]
                             for i in range(6)])):
        fields = (f["mult"], f["unit"], f["comult"], f["counit"])
        cases.append((FinDimBialgebra([str(i) for i in range(len(f["unit"]))], *fields),
                      fields))
    h4 = sweedler_h4()
    as_ints = lambda t: [as_ints(x) for x in t] if isinstance(t, list) else int(t)
    fields = tuple(as_ints(getattr(h4, name)) for name in ("mult", "unit", "comult", "counit"))
    cases.append((FinDimBialgebra(h4.basis, *fields), fields))
    assert any(b.scale > 1 for b, _ in cases)
    assert not any({"mult", "comult"} & set(vars(b)) for b, _ in cases)
    cases += [(jsonio.bialgebra_from_json(jsonio.bialgebra_to_json(b)), fields)
              for b, fields in cases if isinstance(b, FinDimBialgebra)]
    for b, fields in cases:
        names = ("mult", "unit", "comult", "counit") if len(fields) == 4 else ("comult", "counit")
        for name, want in zip(names, fields):
            got = getattr(b, name)
            assert got == want and getattr(b, name) is got, name
            flat = got if name in ("unit", "counit") else [x for m in got for row in m
                                                             for x in row]
            assert {x.__class__ for x in flat} == {Fraction}, name


def test_bialgebra_to_json_is_frac_str_of_the_dense_cubes(monkeypatch):
    """``bialgebra_to_json`` writes the scaled nonzeros without forming a
    dense cube, to the bytes that ``frac_str`` of every cube entry gave: on
    every builtin bialgebra and on changed bases with fractional constants."""
    cases = [b for b, _ in _builtin_inputs(monkeypatch) if isinstance(b, FinDimBialgebra)]
    assert len(cases) == 8
    for b, p in ((cyclic_group_algebra(3), [[1, 1, 0], [0, 2, 1], [0, 0, 3]]),
                 (comatrix_tensor_truncation(2, 1),
                  [[1 if k == i else 1 if k == i + 1 else 0 for k in range(6)]
                   for i in range(6)])):
        f = _change_basis(b, p)
        cases.append(FinDimBialgebra([str(i) for i in range(b.d)], f["mult"], f["unit"],
                                     f["comult"], f["counit"]))
    assert any(b.scale > 1 for b in cases)
    for b in cases:
        got = json.dumps(jsonio.bialgebra_to_json(b))
        assert "mult" not in vars(b) and "comult" not in vars(b)
        want = {"dim": b.d, "basis": list(b.basis),
                "mult": [[[frac_str(x) for x in cell] for cell in row] for row in b.mult],
                "unit": [frac_str(x) for x in b.unit],
                "comult": [[[frac_str(x) for x in cell] for cell in row] for row in b.comult],
                "counit": [frac_str(x) for x in b.counit]}
        assert got == json.dumps(want)


def test_bialgebra_check_forms_no_dense_cube():
    """Loading the d = 22 truncation from JSON and checking every axiom on
    it reads only the scaled nonzeros: neither dense cube is formed. Nor
    does ``strong_dmap_rsigma`` form the Delta cube of its coalgebra."""
    b = comatrix_tensor_truncation(2, 2)
    loaded = jsonio.bialgebra_from_json(jsonio.bialgebra_to_json(b))
    report = check_axioms(loaded, SigmaTable.counit_square(loaded), AXIOMS)
    assert list(report) == ["L1", "strongD", "L2", "L4", "L3", "L5", "B1"]
    assert "mult" not in vars(loaded) and "comult" not in vars(loaded)
    c, table, rho = _comatrix2_case()
    assert strong_dmap_rsigma(c, SigmaTable(table), rho).matrix == la_identity(4)
    assert "comult" not in vars(c)


def test_counit_square_universal_l1_l5():
    for b in (
        sweedler_h4(),
        cyclic_group_algebra(2),
        cyclic_group_algebra(3),
        comatrix_tensor_truncation(2, 1),
    ):
        s = SigmaTable.counit_square(b)
        rep = check_axioms(b, s, ["L1", "L2", "L3", "L4", "L5"])
        assert all(ok for ok, _ in rep.values()), b.basis


def test_b1_with_counit_square_detects_noncommutativity():
    h4 = sweedler_h4()
    rep = check_axioms(h4, SigmaTable.counit_square(h4), ["B1"])
    ok, witness = rep["B1"]
    assert not ok and witness is not None
    for m in (2, 3):
        b = cyclic_group_algebra(m)
        rep = check_axioms(b, SigmaTable.counit_square(b), ["B1"])
        assert rep["B1"][0]


def test_bicharacter_on_z2_passes_everything():
    b = cyclic_group_algebra(2)
    s = SigmaTable([[1, 1], [1, -1]])
    rep = check_axioms(b, s, ["L1", "L2", "L3", "L4", "L5", "B1"])
    assert all(ok for ok, _ in rep.values())


def _formula_witnesses(b, t):
    """First violating basis tuple of each axiom, or None, evaluated straight
    from the formulas in the ``check_axioms`` docstring with
    ``FinDimBialgebra.product``: the slow oracle for ``check_axioms``."""
    d = b.d
    e = [[F(int(i == k)) for i in range(d)] for k in range(d)]

    def sig(va, vb):
        return sum((va[p] * t[p][q] * vb[q] for p in range(d) for q in range(d)), F(0))

    def delta(a):
        return [(p, q, x) for p in range(d) for q in range(d)
                if (x := b.comult[a][p][q])]

    def vec_sum(terms):
        return [sum((c * v[k] for c, v in terms), F(0)) for k in range(d)]

    def first(tuples, lhs, rhs):
        return next((w for w in tuples if lhs(*w) != rhs(*w)), None)

    singles = [(a,) for a in range(d)]
    pairs = list(itertools.product(range(d), repeat=2))
    triples = list(itertools.product(range(d), repeat=3))
    l1 = first(
        pairs,
        lambda a, c: vec_sum([(x * sig(e[p], e[c]), e[q]) for p, q, x in delta(a)]),
        lambda a, c: vec_sum([(x * sig(e[q], e[c]), e[p]) for p, q, x in delta(a)]),
    )
    return {
        "L1": l1,
        "strongD": l1,
        "L2": first(singles, lambda a: sig(e[a], b.unit), lambda a: b.counit[a]),
        "L4": first(singles, lambda a: sig(b.unit, e[a]), lambda a: b.counit[a]),
        "L3": first(
            triples,
            lambda a, x, y: sig(e[a], b.product(e[x], e[y])),
            lambda a, x, y: sum((c * sig(e[p], e[x]) * sig(e[q], e[y])
                                 for p, q, c in delta(a)), F(0)),
        ),
        "L5": first(
            triples,
            lambda x, y, a: sig(b.product(e[x], e[y]), e[a]),
            lambda x, y, a: sum((c * sig(e[y], e[p]) * sig(e[x], e[q])
                                 for p, q, c in delta(a)), F(0)),
        ),
        "B1": first(
            pairs,
            lambda a, c: vec_sum([(x1 * x2 * sig(e[p], e[r]), b.product(e[u], e[q]))
                                  for p, q, x1 in delta(a) for r, u, x2 in delta(c)]),
            lambda a, c: vec_sum([(x1 * x2 * sig(e[q], e[u]), b.product(e[p], e[r]))
                                  for p, q, x1 in delta(a) for r, u, x2 in delta(c)]),
        ),
    }


def _changed_basis_algebras():
    """Builtin bialgebras on bases whose inverse basis matrix has
    denominators 3 and 2, so their structure constants do too (D > 1)."""
    out = []
    for b, p in ((cyclic_group_algebra(3), [[1, 1, 0], [0, 2, 1], [1, 0, 1]]),
                 (sweedler_h4(), [[2, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])):
        f = _change_basis(b, p)
        out.append(FinDimBialgebra([str(i) for i in range(b.d)], f["mult"], f["unit"],
                                   f["comult"], f["counit"]))
    assert all(b.scale > 1 for b in out), [b.scale for b in out]
    return out


def test_check_axioms_matches_formula_oracle():
    """Equal (ok, witness) for every axiom on seeded tables of four kinds:
    eps (x) eps, members of the L1/L2/L4 space, the same with one entry
    moved, and small random tables; on builtin bialgebras and on two with
    fractional structure constants, with integral tables and with tables
    over 2 and 3 (sigma scale above 1)."""
    rng = random.Random(20261018)
    verdicts = {name: set() for name in AXIOMS}
    scales = set()
    # (algebra, integral tables, fractional tables); the oracle is slow on
    # d = 6 and on dense constants, so those get fewer
    cases = [(sweedler_h4(), 15, 6), (cyclic_group_algebra(3), 15, 15),
             (comatrix_tensor_truncation(2, 1), 15, 0)]
    cases += [(b, 3, 9) for b in _changed_basis_algebras()]
    for b, integral, fractional_count in cases:
        d = b.d
        space = l1_solution_space(b)
        tables = [SigmaTable.counit_square(b).table]
        for k in range(integral + fractional_count):
            fractional = k >= integral
            coeffs = [-1, 0, 1, 2, F(1, 2), F(-2, 3)] if fractional else [-1, 0, 1, 2]
            vec = list(space.particular)
            for v in space.basis:
                c = rng.choice(coeffs)
                vec = [x + c * y for x, y in zip(vec, v)]
            table = [vec[p * d:(p + 1) * d] for p in range(d)]
            if k % 3 == 1:
                table[rng.randrange(d)][rng.randrange(d)] += rng.choice(
                    [F(1, 3), F(-1, 2)] if fractional else [-1, 1])
            elif k % 3 == 2:
                entries = [-1, 0, 0, 1] + ([F(1, 2), F(-1, 3)] if fractional else [])
                table = [[F(rng.choice(entries)) for _ in range(d)] for _ in range(d)]
            tables.append(table)
        for table in tables:
            got = check_axioms(b, SigmaTable(table), AXIOMS)
            want = _formula_witnesses(b, table)
            for name in AXIOMS:
                assert got[name] == (want[name] is None, want[name]), (b.basis, name, table)
                verdicts[name].add(got[name][0])
            scales.add(bialgebra.la.clear_denominators(table)[1])
    # every axiom, L2, L4 and strongD included, both holds and fails somewhere
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts
    assert {2, 3, 6} <= scales, scales


def _fraction_streams(b):
    """The axiom equations as the Fraction streams they were before they were
    encoded on D-scaled ints, read from the public Fraction constants: the
    oracle for the integer encoding and for the spaces solved from it."""
    d, F0 = b.d, F(0)
    comult_nz = [[(p, q, x) for p in range(d) for q in range(d) if (x := b.comult[a][p][q])]
                 for a in range(d)]
    mult_nz = [[[(c, x) for c in range(d) if (x := b.mult[a][e][c])] for e in range(d)]
               for a in range(d)]

    def l1():
        for a, terms in enumerate(comult_nz):
            coeffs = {}
            for p, q, x in terms:
                coeffs[q, p] = coeffs.get((q, p), F0) + x
                coeffs[p, q] = coeffs.get((p, q), F0) - x
            for y in range(d):
                for r in range(d):
                    lin = {p * d + y: x for (r_, p), x in coeffs.items() if r_ == r and x}
                    if lin:
                        yield (a, y), F0, lin, {}

    def l2():
        for a in range(d):
            yield (a,), -b.counit[a], {a * d + c: u for c, u in enumerate(b.unit) if u}, {}

    def l4():
        for a in range(d):
            yield (a,), -b.counit[a], {c * d + a: u for c, u in enumerate(b.unit) if u}, {}

    def l3():
        for a, x, y in itertools.product(range(d), repeat=3):
            yield ((a, x, y), F0, {a * d + m: v for m, v in mult_nz[x][y]},
                   {(p * d + x, q * d + y): -v for p, q, v in comult_nz[a]})

    def l5():
        for x, y, a in itertools.product(range(d), repeat=3):
            yield ((x, y, a), F0, {m * d + a: v for m, v in mult_nz[x][y]},
                   {(y * d + p, x * d + q): -v for p, q, v in comult_nz[a]})

    def b1():
        for a, c in itertools.product(range(d), repeat=2):
            lins = [{} for _ in range(d)]
            for p, q, x1 in comult_nz[a]:
                for r, u, x2 in comult_nz[c]:
                    for m, v in mult_nz[u][q]:
                        lins[m][p * d + r] = lins[m].get(p * d + r, F0) + x1 * x2 * v
                    for m, v in mult_nz[p][r]:
                        lins[m][q * d + u] = lins[m].get(q * d + u, F0) - x1 * x2 * v
            for lin in lins:
                yield (a, c), F0, lin, {}

    return {"L1": l1, "L2": l2, "L4": l4, "L3": l3, "L5": l5, "B1": b1}


def _oracle_linear_system(streams, d2):
    rows, rhs = [], []
    for name in ("L1", "L2", "L4"):
        for _, const, lin, _ in streams[name]():
            row = [F(0)] * d2
            for k, x in lin.items():
                row[k] = x
            rows.append(row)
            rhs.append(-const)
    return rows, rhs


def _oracle_feasibility(b):
    """(status, witness, particular, basis) of ``sigma_feasibility`` as it ran
    on the Fraction streams."""
    streams, d2 = _fraction_streams(b), b.d * b.d
    rows, rhs = _oracle_linear_system(streams, d2)
    quads = [(name, eq) for name in ("L3", "L5") for eq in streams[name]()]
    sol = bialgebra.la.solve_affine(rows, rhs)
    if sol is None:
        return "infeasible", "linear axioms L1/L2/L4", None, None
    used = set()
    while True:
        particular, basis = sol
        pinned = {k: particular[k] for k in range(d2) if all(not v[k] for v in basis)}
        added = False
        for eq_id, (name, (where, const, lin, quad)) in enumerate(quads):
            if eq_id in used:
                continue
            row, c0, usable = [F(0)] * d2, const, True
            for k, coeff in lin.items():
                row[k] += coeff
            for (k1, k2), coeff in quad.items():
                if k1 in pinned and k2 in pinned:
                    c0 += coeff * pinned[k1] * pinned[k2]
                elif k1 in pinned:
                    row[k2] += coeff * pinned[k1]
                elif k2 in pinned:
                    row[k1] += coeff * pinned[k2]
                else:
                    usable = False
                    break
            if not usable:
                continue
            used.add(eq_id)
            if not any(row):
                if c0:
                    return "infeasible", f"{name} at basis triple {where}", None, None
                continue
            rows.append(row)
            rhs.append(-c0)
            added = True
        if not added:
            return "unknown", None, *sol
        sol = bialgebra.la.solve_affine(rows, rhs)
        if sol is None:
            return ("infeasible", "linearized quadratic axioms contradict L1/L2/L4",
                    None, None)


def _spaced_algebras():
    return ([sweedler_h4()] + [cyclic_group_algebra(m) for m in range(2, 7)]
            + [comatrix_tensor_truncation(2, 1)] + _changed_basis_algebras())


def test_integer_streams_are_positive_multiples_of_fraction_streams():
    """At sigma scale S each integer equation, evaluated at T = S t, is K
    times the Fraction one at t, with K = D S for L1, L2, L4, D^3 S for B1
    and D S^2 for L3, L5 (module docstring): const is K const, lin is
    K lin / S and quad is K quad / S^2, in the same order and at the same
    ``where``."""
    for b in _spaced_algebras()[:2] + _spaced_algebras()[-3:]:
        oracle = _fraction_streams(b)
        dd = b.scale
        for scale in (1, 2, 6):
            for name, k in (("L1", dd * scale), ("L2", dd * scale), ("L4", dd * scale),
                            ("B1", dd ** 3 * scale), ("L3", dd * scale ** 2),
                            ("L5", dd * scale ** 2)):
                got = list(bialgebra.EQUATIONS[name](b, scale))
                want = list(oracle[name]())
                assert len(got) == len(want), (name, b.basis)
                for (w1, c1, lin1, quad1), (w2, c2, lin2, quad2) in zip(got, want):
                    assert (w1, c1) == (w2, k * c2)
                    assert ({x: v for x, v in lin1.items() if v}
                            == {x: k * v / scale for x, v in lin2.items() if v})
                    assert quad1 == {x: k * v / scale ** 2 for x, v in quad2.items()}
                    assert all(type(v) is int for v in [c1, *lin1.values(), *quad1.values()])


def test_solution_spaces_match_fraction_streams():
    """``l1_solution_space`` and ``sigma_feasibility`` read the integer
    streams at sigma scale 1; their particular solution, basis, status and
    witness equal those solved from the Fraction streams, on the builtins
    and on two algebras with fractional structure constants."""
    for b in _spaced_algebras() + [cyclic_group_algebra(7)]:
        space = l1_solution_space(b)
        want = bialgebra.la.solve_affine(*_oracle_linear_system(_fraction_streams(b), b.d ** 2))
        assert (space.d, space.particular, space.basis) == (b.d, *want)
        res = sigma_feasibility(b)
        got = (res.status, res.witness, *((res.space.particular, res.space.basis)
                                          if res.space else (None, None)))
        assert got == _oracle_feasibility(b), b.basis


def test_sigma_feasibility_adds_each_linearized_row_once(monkeypatch):
    """With every L3 and L5 equation yielded twice, ``sigma_feasibility``
    gives the space of the unpatched streams, and each round eliminates as
    many rows: the second copy of a linearized row is not added."""
    rref_int, sizes = la.rref_int, []

    def sized(rows):
        sizes.append(len(rows))
        return rref_int(rows)

    monkeypatch.setattr(la, "rref_int", sized)
    cases = _spaced_algebras()
    want, want_sizes = [], []
    for b in cases:
        sizes.clear()
        space = sigma_feasibility(b).space
        want.append((space.particular, space.basis))
        want_sizes.append(list(sizes))

    def twice(stream):
        def equations(b, scale):
            for eq in stream(b, scale):
                yield eq
                yield eq
        return equations

    for name in ("L3", "L5"):
        monkeypatch.setitem(bialgebra.EQUATIONS, name, twice(bialgebra.EQUATIONS[name]))
    for b, space, rounds in zip(cases, want, want_sizes):
        sizes.clear()
        res = sigma_feasibility(b)
        assert ((res.space.particular, res.space.basis), sizes) == (space, rounds), b.basis
    assert any(len(rounds) > 2 for rounds in want_sizes)


def test_check_axioms_report_order():
    b = sweedler_h4()
    s = SigmaTable.counit_square(b)
    assert list(check_axioms(b, s, ["strongD", "L1"])) == ["L1", "strongD"]
    assert list(check_axioms(b, s, reversed(AXIOMS))) == [
        "L1", "strongD", "L2", "L4", "L3", "L5", "B1"
    ]
    assert list(check_axioms(b, s)) == ["L1", "L2", "L4", "L3", "L5", "B1"]


def _equation_values(equations, table):
    """(where, value) of each stream equation at the integer table
    ``table``: the per-tuple oracle of the L3, L5 and B1 blocks."""
    t = [x for row in table for x in row]
    for where, const, lin, quad in equations:
        yield where, (const + sum(c * t[k] for k, c in lin.items())
                      + sum(c * t[k1] * t[k2] for (k1, k2), c in quad.items()))


def _block_tables(b, rng, count):
    """eps (x) eps, which passes L1-L5 so that every block is scanned, and
    ``count`` seeded tables at each sigma scale 1, 2 and 6: eps (x) eps with
    one entry moved, members of the L1/L2/L4 space, and small random tables."""
    d, space = b.d, l1_solution_space(b)
    tables = [SigmaTable.counit_square(b).table]
    for den in (1, 2, 6):
        steps = [F(k, den) for k in (-1, 1)] + ([F(1, 3)] if den == 6 else [])
        for k in range(count):
            if k % 3 == 0:
                table = [row[:] for row in tables[0]]
            elif k % 3 == 1:
                vec = list(space.particular)
                for v in space.basis:
                    c = rng.choice([-1, 0, 1])
                    vec = [x + c * y for x, y in zip(vec, v)]
                table = [vec[p * d:(p + 1) * d] for p in range(d)]
            else:
                table = [[F(rng.choice([-1, 0, 0, 1])) for _ in range(d)] for _ in range(d)]
            for step in rng.sample(steps, 2 if den == 6 else 1):
                table[rng.randrange(d)][rng.randrange(d)] += step
            tables.append(table)
    return tables


def test_axiom_blocks_match_the_per_tuple_streams():
    """The L3, L5 and B1 blocks hold the value of every stream equation in
    them, and ``check_axioms`` names the stream's first violation: on every
    builtin bialgebra, the d = 22 truncation included, and on two with
    fractional structure constants, at sigma scales 1, 2 and 6. The streams
    stay in ``EQUATIONS`` as the oracle, read by ``sigma_feasibility``."""
    rng = random.Random(20261019)
    witnesses = {name: set() for name in ("L3", "L5", "B1")}
    scales = set()
    cases = [(b, 3) for b in _spaced_algebras()] + [(comatrix_tensor_truncation(2, 2), 1)]
    for b, count in cases:
        d = b.d
        for table in _block_tables(b, rng, count):
            t, scale = la.clear_denominators(table)
            scales.add(scale)
            got = check_axioms(b, SigmaTable(table), ["L3", "L5", "B1"])
            rows, cols = bialgebra._nonzeros(t), bialgebra._nonzeros(zip(*t))
            l3, l5, b1 = {}, {}, {}
            for (a, x, y), val in _equation_values(bialgebra.EQUATIONS["L3"](b, scale), t):
                l3.setdefault(a, {})[x * d + y] = val
            for (x, y, a), val in _equation_values(bialgebra.EQUATIONS["L5"](b, scale), t):
                l5.setdefault(x, {})[y * d + a] = val
            for where, val in _equation_values(bialgebra.EQUATIONS["B1"](b, scale), t):
                b1.setdefault(where, []).append(val)
            for outer in range(d):
                block = bialgebra._l3_block(b, t, rows, scale, outer)
                assert ({k: v for k, v in block.items() if v}
                        == {k: v for k, v in l3[outer].items() if v}), (b.basis, outer)
                block = bialgebra._l5_block(b, t, rows, cols, scale, outer)
                assert ({k: v for k, v in block.items() if v}
                        == {k: v for k, v in l5[outer].items() if v}), (b.basis, outer)
            for (a, c), values in b1.items():
                assert bialgebra._b1_block(b, t, a, c) == values, (b.basis, a, c)
            for name in ("L3", "L5", "B1"):
                want = bialgebra._first_violation(bialgebra.EQUATIONS[name](b, scale), t)
                assert got[name] == (want is None, want), (b.basis, name, table)
                witnesses[name].add(want is None)
    assert all(seen == {True, False} for seen in witnesses.values()), witnesses
    assert {1, 2, 6} <= scales, scales


def test_l5_blocks_run_by_x_not_by_a():
    """On k[Z/2], with Delta e_a = e_a (x) e_a and e_x e_y = e_{x+y}, L5 at
    (x, y, a) reads t[x+y][a] - t[y][a] t[x][a]. The table [[0, -1], [1, 0]]
    passes it at (0, 0, 0) (0 - 0), fails it at (0, 0, 1) (-1 - 1) and at
    (0, 1, 0) (1 - 1 * 0). The stream's order is (x, y, a), so its first
    violation is (0, 0, 1); blocks keyed by a would reach a = 0 first and
    name (0, 1, 0)."""
    b = cyclic_group_algebra(2)
    table = [[0, -1], [1, 0]]
    assert check_axioms(b, SigmaTable(table), ["L5"]) == {"L5": (False, (0, 0, 1))}
    failures = [w for w, v in _equation_values(bialgebra.EQUATIONS["L5"](b, 1), table) if v]
    assert min(failures) == (0, 0, 1)
    assert min(failures, key=lambda w: (w[2], w[0], w[1])) == (0, 1, 0)


def test_check_axioms_forms_no_per_tuple_equation_of_l3_l5_b1(monkeypatch):
    """``check_axioms`` decides L3, L5 and B1 by blocks: with their streams
    replaced by ones that raise, every report is the one before."""
    b, rng = comatrix_tensor_truncation(2, 1), random.Random(5)
    tables = _block_tables(b, rng, 3)
    want = [check_axioms(b, SigmaTable(t), AXIOMS) for t in tables]

    def refuse(b, scale):
        raise AssertionError("a per-tuple L3, L5 or B1 stream was read")

    for name in ("L3", "L5", "B1"):
        monkeypatch.setitem(bialgebra.EQUATIONS, name, refuse)
    assert [check_axioms(b, SigmaTable(t), AXIOMS) for t in tables] == want


def test_l1_space_h4_forced_constraints():
    h4 = sweedler_h4()
    space = l1_solution_space(h4)
    pinned = space.pinned()
    I, X, Y, Z = range(4)
    for hcol in range(4):
        assert pinned[(Y, hcol)] == 0
        assert pinned[(Z, hcol)] == 0
        assert pinned[(X, hcol)] == pinned[(I, hcol)] == h4.counit[hcol]
    assert len(space.basis) == 0
    assert space.contains(SigmaTable.counit_square(h4).table)


def test_l1_space_z2_one_free_parameter():
    b = cyclic_group_algebra(2)
    space = l1_solution_space(b)
    assert len(space.basis) == 1
    assert space.contains([[1, 1], [1, -1]])
    assert space.contains([[1, 1], [1, 5]])
    assert not space.contains([[1, 2], [1, 0]])


@pytest.mark.parametrize("size", [1, 3, 5])
def test_l1_space_contains_refuses_a_table_that_is_not_d_by_d(size):
    """H4's eps (x) eps cut to 1 x 1 or 3 x 3, or padded with zeros to
    5 x 5, is refused naming the size; the 5 x 5 table once answered True
    and the 1 x 1 table raised IndexError."""
    h4 = sweedler_h4()
    eps = SigmaTable.counit_square(h4).table
    table = [(row + [0])[:size] for row in eps[:size]] + [[0] * size] * (size - 4)
    assert len(table) == size and {len(row) for row in table} == {size}
    with pytest.raises(ValueError, match=r"^table must be 4 x 4$"):
        l1_solution_space(h4).contains(table)


def test_l1_space_agrees_with_strongd_check():
    b = cyclic_group_algebra(3)
    space = l1_solution_space(b)
    # any member of the space passes strongD/L1; perturbing a forced entry
    # breaks L2/L4 but not L1 on a cocommutative algebra
    table = [
        [space.particular[p * b.d + q] for q in range(b.d)] for p in range(b.d)
    ]
    rep = check_axioms(b, SigmaTable(table), ["strongD", "L1", "L2", "L4"])
    assert all(ok for ok, _ in rep.values())
    # cocommutative: L1 imposes nothing, so a random table still passes L1
    wild = SigmaTable([[7, -1, 2], [0, 3, 4], [1, 1, 9]])
    rep2 = check_axioms(b, wild, ["L1", "strongD"])
    assert rep2["L1"][0] and rep2["strongD"][0]


def _l1_equations_oracle(c, scale):
    """The L1 stream as it was written before it grouped each a's
    coefficients by r: all of ``coeffs`` scanned for every (y, r)."""
    d = c.d
    for a, terms in enumerate(c.comult_nz):
        coeffs = {}
        for p, q, x in terms:
            coeffs[q, p] = coeffs.get((q, p), 0) + x
            coeffs[p, q] = coeffs.get((p, q), 0) - x
        for y in range(d):
            for r in range(d):
                lin = {p * d + y: x for (r_, p), x in coeffs.items() if r_ == r and x}
                if lin:
                    yield (a, y), 0, lin, {}


def test_l1_equations_match_the_full_scan(monkeypatch):
    """The L1 stream emits the equations of the full scan, in its order and
    with each ``lin`` in its key order: on every builtin, on changed bases,
    and on seeded random comultiplication tables (where p = q terms cancel
    and cells repeat), which the stream reads without validation."""
    cases = [b for b, _ in _builtin_inputs(monkeypatch)]
    cases += [FinDimBialgebra([str(i) for i in range(len(f["unit"]))], f["mult"], f["unit"],
                              f["comult"], f["counit"])
              for f in (_change_basis(sweedler_h4(), [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0],
                                                      [2, 0, 1, 1]]),
                        _change_basis(cyclic_group_algebra(3), [[1, 1, 0], [0, 2, 1],
                                                                [0, 0, 3]]))]
    rng = random.Random(2020)
    for _ in range(40):
        d = rng.randint(1, 6)
        cases.append(SimpleNamespace(d=d, comult_nz=[
            [(rng.randrange(d), rng.randrange(d), rng.choice([-2, -1, 1, 3]))
             for _ in range(rng.randint(0, 2 * d))] for _ in range(d)]))
    for c in cases:
        got = [(w, k, list(lin.items()), q) for w, k, lin, q in bialgebra._l1_equations(c, 1)]
        want = [(w, k, list(lin.items()), q) for w, k, lin, q in _l1_equations_oracle(c, 1)]
        assert got == want


def _l1_rows_without_the_subtracted_half(c):
    """``bialgebra._l1_rows`` with the sum sigma(a_2 (x) y) a_1 left out."""
    for terms in c.comult_nz:
        coeffs = {}
        for p, q, x in terms:
            coeffs[q, p] = coeffs.get((q, p), 0) + x
        by_r = {}
        for (r, p), x in sorted(coeffs.items()):
            if x:
                by_r.setdefault(r, []).append((p, x))
        yield sorted(by_r.items())


def test_every_l1_reader_reads_the_one_encoding(monkeypatch):
    """``bialgebra._l1_rows`` is the one place L1's coefficients are formed:
    with the subtracted half of L1 dropped there, each reader of L1 changes
    its result on a fixed input (k[Z/2] with eps (x) eps, and the
    presentation of phi = (1, 1) at n = 2), so a reader that forms L1 on its
    own fails here."""
    b = cyclic_group_algebra(2)
    s = SigmaTable.counit_square(b)

    def results():
        c, sigma, rho, pres = _quotient_inputs(make_phi(2, [1, 1]))
        calls = {
            "check_axioms": lambda: check_axioms(b, s, ["L1"]),
            "l1_solution_space": lambda: l1_solution_space(b),
            "strong_dmap_rsigma": lambda: strong_dmap_rsigma(c, sigma, rho).matrix,
            "check_L1_on_generators": lambda: check_L1_on_generators(pres),
            "dimodule_compatible": lambda: [dimodule_compatible(pres, [g], l)
                                            for g in range(pres.num_generators)
                                            for l in (1, 2)],
        }
        out = {}
        for name, call in calls.items():
            try:
                out[name] = call()
            except (LongeqError, ValueError) as exc:
                out[name] = type(exc), str(exc)
        return out

    want = results()
    monkeypatch.setattr(bialgebra, "_l1_rows", _l1_rows_without_the_subtracted_half)
    got = results()
    assert [name for name in want if got[name] == want[name]] == []


def _respell_zeros(obj, zero):
    """A copy of bialgebra JSON with every "0" of every field written ``zero``."""
    def respell(t):
        return [respell(x) for x in t] if isinstance(t, list) else zero if t == "0" else t
    return dict(obj, **{k: respell(obj[k]) for k in ("mult", "unit", "comult", "counit")})


def test_bialgebra_from_json_matches_the_dense_constructor(monkeypatch):
    """The JSON reader, which shares one zero cell among the all-"0" cells,
    gives the scaled nonzeros and scale of the dense Python constructor on
    every builtin bialgebra and on changed bases, with the zeros spelled
    "0", 0, "-0" or "0/7"."""
    cases = [b for b, _ in _builtin_inputs(monkeypatch) if isinstance(b, FinDimBialgebra)]
    for b, p in ((sweedler_h4(), [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [2, 0, 1, 1]]),
                 (cyclic_group_algebra(3), [[1, 1, 0], [0, 2, 1], [0, 0, 3]])):
        f = _change_basis(b, p)
        cases.append(FinDimBialgebra([str(i) for i in range(b.d)], f["mult"], f["unit"],
                                     f["comult"], f["counit"]))
    assert len(cases) == 10 and any(b.scale > 1 for b in cases)
    for b in cases:
        dense = FinDimBialgebra(b.basis, b.mult, b.unit, b.comult, b.counit)
        want = (dense.mult_nz, dense.comult_nz, dense.scale, dense.int_unit, dense.int_counit)
        for zero in ("0", 0, "-0", "0/7"):
            loaded = jsonio.bialgebra_from_json(_respell_zeros(jsonio.bialgebra_to_json(b), zero))
            assert (loaded.mult_nz, loaded.comult_nz, loaded.scale, loaded.int_unit,
                    loaded.int_counit) == want, (b.basis, zero)


class _Walked(list):
    """A JSON list that counts the walks over it (``__iter__``); ``len`` and
    ``count`` do not walk it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def _walked(t):
    """``t`` with each nested list a ``_Walked``."""
    return _Walked(map(_walked, t)) if isinstance(t, list) else t


def _walk_counts(t):
    """The walks over ``t`` and over each list in it, read without walking."""
    if not isinstance(t, _Walked):
        return None
    return t.walks, [_walk_counts(x) for x in list.__iter__(t)]


def test_truncation_read_parses_only_the_nonzero_entries(monkeypatch):
    """Reading the d = 22 truncation walks ``mult`` and ``comult`` once: each
    of their rows is walked once, a cell with an entry other than "0" once,
    and an all-"0" cell never (one ``count`` finds it). Each entry that is
    not "0" is parsed once and no "0" is. Both cubes reach ``_cube`` as
    ``NonzeroCube``s, which it returns as they are, so ``as_frac`` reads
    only ``unit`` and ``counit``."""
    b = comatrix_tensor_truncation(2, 2)
    obj = jsonio.bialgebra_to_json(b)
    flat = lambda t: [y for x in t for y in flat(x)] if isinstance(t, list) else [t]
    cubes = flat(obj["mult"]) + flat(obj["comult"])
    walked = dict(obj, mult=_walked(obj["mult"]), comult=_walked(obj["comult"]))
    parsed, read, returned = [], [], []
    memo_parser, as_frac, cube = jsonio._memo_parser, la.as_frac, bialgebra._cube

    def counting_parser():
        parse = memo_parser()
        return lambda x: parsed.append(x) or parse(x)

    def tracked_cube(name, t, d):
        out = cube(name, t, d)
        returned.append((name, type(t).__name__, out is t))
        return out

    monkeypatch.setattr(jsonio, "_memo_parser", counting_parser)
    monkeypatch.setattr(la, "as_frac", lambda x: read.append(x) or as_frac(x))
    monkeypatch.setattr(bialgebra, "_cube", tracked_cube)
    loaded = jsonio.bialgebra_from_json(walked)
    assert returned == [("mult", "NonzeroCube", True), ("comult", "NonzeroCube", True)]
    for field in ("mult", "comult"):
        assert _walk_counts(walked[field]) == (1, [
            (1, [(int(cell.count("0") < b.d), [None] * b.d) for cell in row])
            for row in obj[field]])
    vectors = obj["unit"] + obj["counit"]
    assert sorted(parsed) == sorted(x for x in cubes + vectors if x != "0")
    assert len([x for x in cubes if x != "0"]) == 104 + 74
    assert len(read) == 2 * b.d
    assert (loaded.mult_nz, loaded.comult_nz) == (b.mult_nz, b.comult_nz)


def test_nonzero_cube_is_taken_as_it_is_and_other_cubes_are_read():
    """``_cube`` returns a ``NonzeroCube`` as it is; any other cube has its
    shape checked and is read entry by entry, so a cell of d complex zeros
    still raises."""
    h4 = sweedler_h4()
    mult = [[list(cell) for cell in row] for row in h4.mult]
    nonzeros = bialgebra.NonzeroCube(bialgebra._cube("mult", mult, 4))
    assert bialgebra._cube("mult", nonzeros, 4) is nonzeros
    assert FinDimBialgebra(h4.basis, nonzeros, h4.unit, h4.comult,
                           h4.counit).mult_nz == h4.mult_nz
    mult[2][2] = [0] * 3
    with pytest.raises(InvalidBialgebra, match="'mult' must be a 4 x 4 x 4 array"):
        FinDimBialgebra(h4.basis, mult, h4.unit, h4.comult, h4.counit)
    mult[2][2] = [0j] * 4
    with pytest.raises(TypeError):
        FinDimBialgebra(h4.basis, mult, h4.unit, h4.comult, h4.counit)


def _edited(obj, *edits):
    """A deep copy of the JSON ``obj`` with each (path, value) set in turn."""
    obj = json.loads(json.dumps(obj))
    for path, value in edits:
        t = obj
        for k in path[:-1]:
            t = t[k]
        t[path[-1]] = value
    return obj


@pytest.mark.parametrize("edits, error, message", [
    (((["mult", 1], [["1", "0"]]), (["comult", 1, 1, 1], "x")),
     ValueError, "not a fraction string: 'x'"),
    (((["mult", 0, 0, 1], "x"), (["mult", 0, 1], 3)), ValueError, "not a fraction string: 'x'"),
    (((["mult", 0, 0], 3), (["mult", 0, 1, 1], "x")),
     ValueError, "'mult' must be a 3-fold nested list of fractions"),
    (((["mult"], [[["1", "0"]]]), (["unit"], {"a": 1})),
     ValueError, "'unit' must be a 1-fold nested list of fractions"),
    (((["comult", 0, 0], ["1"]), (["counit", 0], "1/0")), ValueError, "zero denominator: '1/0'"),
    (((["mult", 0], []), (["basis"], ["a"])), ValueError, "basis length disagrees with 'dim'"),
    (((["mult", 0, 0], ["1", "0", "0"]), (["unit"], ["1"])),
     InvalidBialgebra, "'mult' must be a 2 x 2 x 2 array"),
    (((["unit"], ["1"]), (["comult", 1], [])), InvalidBialgebra, "'unit' must have length 2"),
    (((["mult", 0, 1], ["0"]), (["comult", 0, 1, 1], True)),
     ValueError, "not a fraction string: True"),
], ids=["comult-entry-before-mult-shape", "bad-string-before-non-list-cell",
        "non-list-cell-before-bad-string", "unit-type-before-mult-shape",
        "counit-entry-before-comult-cell-length", "basis-before-mult-shape",
        "mult-shape-before-unit-length", "unit-length-before-comult-shape",
        "comult-entry-after-short-zero-cell"])
def test_bialgebra_read_refuses_the_first_of_two_faults(edits, error, message):
    """A k[Z/2] document with two faults is refused with the message the
    dense two-pass reader gave: the type and parse faults of mult, unit,
    comult and counit in the order of a walk over them, then the length of
    basis, then the shapes of mult, unit, comult and counit."""
    obj = _edited(jsonio.bialgebra_to_json(cyclic_group_algebra(2)), *edits)
    with pytest.raises(error) as info:
        jsonio.bialgebra_from_json(obj)
    assert str(info.value) == message


def test_sigma_feasibility_soundness_sentinel():
    for b in (
        sweedler_h4(),
        cyclic_group_algebra(2),
        cyclic_group_algebra(3),
        comatrix_tensor_truncation(2, 1),
    ):
        res = sigma_feasibility(b)
        assert res.status == "unknown", b.basis
        assert res.space.contains(SigmaTable.counit_square(b).table)


def test_generator_example_two_generators():
    g = GeneratorBialgebra(
        ["x", "y"],
        {
            "x": [(1, ("x",), ("x",))],
            "y": [(1, ("y",), ()), (1, ("x",), ("y",))],
        },
        {"x": 1, "y": 0},
    )
    ok, rep = check_generator_long(g, {("x", "x"): F(1)})
    assert ok
    space = rep["constraints"]
    assert space.pinned() == {
        (0, 0): F(1), (0, 1): F(0), (1, 0): F(0), (1, 1): F(0)
    }
    ok2, rep2 = check_generator_long(g, {("x", "x"): F(2)})
    assert not ok2 and rep2["violations"]


def test_generator_example_three_generators():
    g = GeneratorBialgebra(
        ["x", "y", "z"],
        {
            "x": [(1, ("x",), ("x",))],
            "y": [(1, ("y",), ("y",))],
            "z": [(1, ("x",), ("z",)), (1, ("z",), ("y",))],
        },
        {"x": 1, "y": 1, "z": 0},
    )
    a, b, c = F(2), F(3), F(5)
    table = {
        ("x", "x"): a, ("y", "x"): a,
        ("x", "y"): b, ("y", "y"): b,
        ("x", "z"): c, ("y", "z"): c,
    }
    ok, rep = check_generator_long(g, table)
    assert ok
    space = rep["constraints"]
    # three free parameters; sigma(z (x) -) pinned to zero; row equalities
    assert len(space.basis) == 3
    pinned = space.pinned()
    for q in range(3):
        assert pinned[(2, q)] == 0
    assert space.contains([[a, b, c], [a, b, c], [0, 0, 0]])
    assert not space.contains([[a, b, c], [a + 1, b, c], [0, 0, 0]])
    # breaking the x/y row equality violates the identity
    bad = dict(table)
    bad[("y", "x")] = a + 1
    ok2, _ = check_generator_long(g, bad)
    assert not ok2


def test_generator_long_unconstrained_table_space():
    """One group-like generator: both sides of the identity are
    sigma(x (x) x) x, so no row is forced and every table is allowed."""
    g = GeneratorBialgebra(["x"], {"x": [(1, ("x",), ("x",))]}, {"x": 1})
    ok, rep = check_generator_long(g, {("x", "x"): F(5)})
    assert ok
    space = rep["constraints"]
    assert space.contains([[5]]) and space.contains([[0]])
    assert space.pinned() == {}


def check_generator_long(g, table):
    """Degree-one strong D-identity over the free algebra on the generators,
    the oracle of ``frt.check_L1_on_generators``'s witness.

    For each generator pair (x, y), sum c sigma(lw (x) y) rw - sum c
    sigma(rw (x) y) lw over the terms c lw (x) rw of Delta x is expanded
    once, the coefficient of each word as const + sum lin[k] t_k in
    t_{a*m+b} = sigma(g_a (x) g_b): a one-letter factor adds to ``lin``, any
    other (eps for the empty word, the splitting laws past one letter) to
    ``const``. Evaluated at ``table`` the forms give the violations; when
    every factor has length <= 1 they are linear, and also the rows of the
    forced constraints. Returns ``(ok, report)``: each violating pair with
    its nonzero word coefficients, in the order of (x, y), and the
    constraints when linearizable.
    """
    gens = list(g.generators)
    m = len(gens)
    gi = {name: k for k, name in enumerate(gens)}
    t = [F(table.get((a, b), 0)) for a in gens for b in gens]
    linearizable = all(len(lw) <= 1 and len(rw) <= 1
                       for x in gens for _, lw, rw in g.delta[x])
    violations, rows, rhs = [], [], []
    memo = {}
    for x in gens:
        for y in gens:
            forms = {}  # word: [const, {k: coefficient of t_k}]
            for c, lw, rw in g.delta[x]:
                c = F(c)
                for f, u, w in ((c, lw, rw), (-c, rw, lw)):
                    form = forms.setdefault(w, [F(0), {}])
                    if len(u) == 1:
                        k = gi[u[0]] * m + gi[y]
                        form[1][k] = form[1].get(k, F(0)) + f
                    else:
                        form[0] += f * generator_sigma_words(g, table, u, (y,), memo=memo)
            bad = {}
            for w, (const, lin) in forms.items():
                val = const + sum([a * t[k] for k, a in lin.items()])
                if val:
                    bad[w] = val
                if linearizable and (const or any(lin.values())):
                    rows.append([lin.get(k, F(0)) for k in range(m * m)])
                    rhs.append(-const)
            if bad:
                violations.append(((x, y), bad))
    report = {"violations": violations}
    if linearizable:
        # with no row, the one zero row leaves every table allowed
        sol = la.solve_affine(rows or [[F(0)] * (m * m)], rhs or [F(0)])
        if sol is None:
            report["constraints"] = None
        else:
            report["constraints"] = bialgebra.AffineTableSpace(m, *sol)
            report["generator_order"] = gens
    return (not violations, report)


def _generator_long_oracle(g, table):
    """The two-pass body ``check_generator_long`` had: the violations from
    sigma on every factor, then the constraint rows built apart."""
    gens = list(g.generators)
    violations = []
    memo = {}
    for x in gens:
        for y in gens:
            coeffs = {}
            for c, lw, rw in g.delta[x]:
                c = F(c)
                s = generator_sigma_words(g, table, lw, (y,), memo=memo)
                if s:
                    coeffs[rw] = coeffs.get(rw, F(0)) + c * s
                s = generator_sigma_words(g, table, rw, (y,), memo=memo)
                if s:
                    coeffs[lw] = coeffs.get(lw, F(0)) - c * s
            bad = {w: v for w, v in coeffs.items() if v}
            if bad:
                violations.append(((x, y), bad))
    report = {"violations": violations}
    if all(len(lw) <= 1 and len(rw) <= 1 for x in gens for _, lw, rw in g.delta[x]):
        m = len(gens)
        gi = {name: k for k, name in enumerate(gens)}
        rows, rhs = [], []
        for x in gens:
            for y in gens:
                word_rows, word_consts = {}, {}
                for c, lw, rw in g.delta[x]:
                    c = F(c)
                    if lw:
                        word_rows.setdefault(rw, [F(0)] * (m * m))[gi[lw[0]] * m + gi[y]] += c
                    else:
                        word_consts[rw] = word_consts.get(rw, F(0)) + c * F(g.eps[y])
                    if rw:
                        word_rows.setdefault(lw, [F(0)] * (m * m))[gi[rw[0]] * m + gi[y]] -= c
                    else:
                        word_consts[lw] = word_consts.get(lw, F(0)) - c * F(g.eps[y])
                for w in set(word_rows) | set(word_consts):
                    row = word_rows.get(w, [F(0)] * (m * m))
                    if any(row) or word_consts.get(w, F(0)):
                        rows.append(row)
                        rhs.append(-word_consts.get(w, F(0)))
        if rows:
            sol = bialgebra.la.solve_affine(rows, rhs)
        else:
            sol = ([F(0)] * (m * m), [[F(int(k == c)) for k in range(m * m)]
                                      for c in range(m * m)])
        if sol is None:
            report["constraints"] = None
        else:
            report["constraints"] = bialgebra.AffineTableSpace(m, *sol)
            report["generator_order"] = gens
    return not violations, report


def _random_generator_bialgebra(rng, longest):
    """One to three generators, each Delta one to three terms c lw (x) rw
    with words of at most ``longest`` letters."""
    gens = ["x", "y", "z"][:rng.randint(1, 3)]
    word = lambda: tuple(rng.choice(gens) for _ in range(rng.randint(0, longest)))
    delta = {x: [(rng.choice([1, -1, 2, F(1, 2)]), word(), word())
                 for _ in range(rng.randint(1, 3))] for x in gens}
    return GeneratorBialgebra(gens, delta, {x: rng.choice([0, 1, -1, F(1, 2)]) for x in gens})


def test_check_generator_long_matches_the_two_pass_oracle():
    """The one expansion against the two passes, on seeded random generator
    bialgebras with words of at most one letter (linearizable) and two: the
    same verdict and report, ``constraints.particular`` and ``.basis``
    included, or a ValueError from both. A member of the constraint space
    passes, so both verdicts occur."""
    rng = random.Random(23)
    verdicts, refused = set(), 0
    for trial in range(300):
        g = _random_generator_bialgebra(rng, 1 if trial % 2 else 2)
        table = {(a, b): rng.choice([0, 1, -1, 2, F(1, 3)]) for a in g.generators
                 for b in g.generators if rng.random() < 0.8}
        tables = [table]
        try:
            want = _generator_long_oracle(g, table)
        except ValueError:
            with pytest.raises(ValueError):
                check_generator_long(g, table)
            refused += 1
            continue
        space = want[1].get("constraints")
        if space is not None:
            m = len(g.generators)
            tables.append({(a, b): space.particular[p * m + q]
                           for p, a in enumerate(g.generators)
                           for q, b in enumerate(g.generators)})
        for t in tables:
            ok, report = check_generator_long(g, t)
            want_ok, want_report = _generator_long_oracle(g, t)
            assert (ok, report) == (want_ok, want_report), (trial, g, t)
            if space is not None:
                assert (report["constraints"].particular, report["constraints"].basis) == (
                    want_report["constraints"].particular, want_report["constraints"].basis)
            verdicts.add(ok)
    assert verdicts == {True, False} and refused


def test_word_engine_refuses_a_pair_that_refers_back_to_itself():
    """Delta x = xx (x) x makes sigma(x (x) xx) split into sigma(xx (x) x),
    which splits back into sigma(x (x) xx): a ValueError naming the pair,
    through the engine and through ``check_generator_long``, and the memo
    keeps no mark of the failed pairs."""
    g = GeneratorBialgebra(["x"], {"x": [(1, ("x", "x"), ("x",))]}, {"x": 1})
    memo = {}
    with pytest.raises(ValueError, match=r"^sigma on the words \('x',\) and \('x', 'x'\) "
                                         r"refers back to itself$"):
        generator_sigma_words(g, {("x", "x"): 1}, ["x"], ["x", "x"], memo=memo)
    assert all(isinstance(v, Fraction) for v in memo.values())
    with pytest.raises(ValueError, match="refers back to itself"):
        check_generator_long(g, {("x", "x"): F(1)})


def test_word_cap_is_one_constant_of_six_for_both_callers():
    """A 6-letter word is split (the generator check capped words at 4),
    and a 7-letter word is a ValueError through ``sigma_extend`` and
    ``check_generator_long`` alike."""
    assert bialgebra.WORD_CAP == 6
    for length, ok in ((6, True), (7, False)):
        g = GeneratorBialgebra(["x", "y"], {"x": [(1, ("x",), ("x",))],
                                            "y": [(1, ("x",) * length, ("y",))]},
                               {"x": 1, "y": 0})
        pres = build_LR(make_phi(2, [1, 2]))
        if ok:
            check_generator_long(g, {("x", "x"): F(2)})
            sigma_extend(pres, [0] * length, [0])
            continue
        with pytest.raises(ValueError, match="^word longer than cap 6$"):
            check_generator_long(g, {("x", "x"): F(2)})
        with pytest.raises(ValueError, match="^word longer than cap 6$"):
            sigma_extend(pres, [0] * length, [0])


@pytest.mark.parametrize("name, equation", [("L2", ((0,), 1, {}, {})),
                                            ("L3", ((0, 0, 0), 1, {}, {}))],
                         ids=["linear", "linearized"])
def test_sigma_feasibility_inconsistency_is_an_internal_error(monkeypatch, name, equation):
    """eps (x) eps satisfies every system the pass forms, so no validated
    bialgebra makes it inconsistent; a stream given the equation 1 = 0, in
    the linear system or among the quadratic ones, raises
    ``InternalCheckFailed`` instead of reporting "infeasible"."""
    stream = bialgebra.EQUATIONS[name]
    monkeypatch.setitem(bialgebra.EQUATIONS, name,
                        lambda b, scale: itertools.chain(stream(b, scale), [equation]))
    with pytest.raises(InternalCheckFailed, match="inconsistent on a validated bialgebra"):
        sigma_feasibility(cyclic_group_algebra(2))


def test_strong_dmap_full_comatrix_identity_r():
    """With R = Id the obstructions vanish, so sigma_0 is a strong D-map on
    the full comatrix coalgebra and the induced operator is R itself."""
    n = 2
    c = comatrix_coalgebra(n)
    table = [[F(0)] * (n * n) for _ in range(n * n)]
    for i in range(1, n + 1):
        for v in range(1, n + 1):
            for j in range(1, n + 1):
                for u in range(1, n + 1):
                    if i == v and j == u:
                        table[cm_index(i, v, n)][cm_index(j, u, n)] = F(1)
    from longeq import strong_dmap_rsigma

    r = strong_dmap_rsigma(c, SigmaTable(table), fundamental_comodule(n))
    assert r.matrix == la_identity(n * n)


def _dense_strong_dmap_rsigma(c, s, rho):
    """The dense Fraction body ``strong_dmap_rsigma`` had before it moved onto
    ``comult_nz``: the slow oracle of the sparse one. It reads the dense
    ``c.comult`` cube and forms R_sigma as a triple sum."""
    d = c.d
    if s.d != d:
        raise ValueError("sigma table size disagrees with the coalgebra dimension")
    n = len(rho)
    rho = [[[F(x) for x in cell] for cell in row] for row in rho]
    if any(len(row) != n for row in rho) or any(
        len(cell) != d for row in rho for cell in row
    ):
        raise InvalidCoaction("rho must be n x n with coalgebra-valued entries")
    w = bialgebra._first_violation(bialgebra._l1_equations(c, 1), s.table)
    if w is not None:
        raise NotAStrongDMap(f"strong D-map identity fails at basis pair {w}", w)
    rng, vals = range(n), range(d)
    for v, l in itertools.product(rng, repeat=2):
        if sum((rho[v][l][k] * c.counit[k] for k in vals), F(0)) != (F(1) if v == l else F(0)):
            raise InvalidCoaction(f"counit law fails at ({v},{l})")
    for v, l, p, q in itertools.product(rng, rng, vals, vals):
        if (sum((rho[v][l][k] * c.comult[k][p][q] for k in vals), F(0))
                != sum((rho[v][w_][p] * rho[w_][l][q] for w_ in rng), F(0))):
            raise InvalidCoaction(f"coassociativity fails at ({v},{l})")
    t = s.table
    mat = [[sum((x1 * x2 * t[k1][k2] for k1, x1 in enumerate(rho[i][v]) if x1
                 for k2, x2 in enumerate(rho[j][u]) if x2), F(0))
            for v in rng for u in rng] for i in rng for j in rng]
    out = TensorOp2(n, mat)
    witness = bialgebra.long_witness(out)
    if witness is not None:
        raise InternalCheckFailed(
            f"induced operator fails Long equation {witness[0]} at {witness[1]}"
        )
    return out


def _quotient_inputs(r):
    """C/V, the sigma table on its generators and the coaction
    rho[v][l] = pi(c_{v+1, l+1}) of the presentation of L(R)."""
    pres = build_LR(r)
    q, n = pres.quotient, r.dim
    rho = [[q.basis_coset(v + 1, l + 1) for l in range(n)] for v in range(n)]
    return pres.coalgebra, SigmaTable(pres.sigma_gen), rho, pres


def _seeded_conjugate(rng, n, rank):
    """u R_phi u^-1 for a seeded dense invertible u with entries in
    {-2, -1, 1, 2} and a phi with |im phi| = rank."""
    maps = [phi for phi in idempotent_maps(n) if len(set(phi)) == rank]
    while True:
        u = [[rng.choice((-2, -1, 1, 2)) for _ in range(n)] for _ in range(n)]
        try:
            return make_conjugate(u, make_phi(n, rng.choice(maps)))
        except SingularMatrix:
            continue


def _rsigma_operators(corpus, phi4_solutions):
    """87 Long operators: the 22 of the constructor corpus, every phi at
    n = 2, 3, 4 (54), 6 dense conjugates at n = 3 and 4 at n = 4 (one per
    rank) and R_x = I (x) E12 + E33 (x) E21, whose right legs do not commute."""
    ops = dict(corpus)
    for n in (2, 3):
        ops.update({f"phi{n}_{phi}": make_phi(n, phi) for phi in idempotent_maps(n)})
    ops.update({f"phi4_{phi}": r for phi, r in phi4_solutions.items()})
    rng = random.Random(24)
    ops.update({f"conj3_{k}": _seeded_conjugate(rng, 3, 1 + k % 3) for k in range(6)})
    ops.update({f"conj4_{rank}": _seeded_conjugate(rng, 4, rank) for rank in range(1, 5)})
    e = [[[int((i, j) == (a, b)) for j in range(3)] for i in range(3)]
         for a in range(3) for b in range(3)]
    ops["r_x"] = TensorOp2(3, la.mat_add(la.kron(la_identity(3), e[1]), la.kron(e[8], e[3])))
    return ops


def test_strong_dmap_on_quotient_matches_frt_roundtrip(corpus, phi4_solutions):
    """R_sigma = R: ``strong_dmap_rsigma`` on C/V, the generator sigma table
    and rho = pi of the fundamental comodule gives back R, as ``round_trip``
    does, on every one of the 87 operators."""
    ops = _rsigma_operators(corpus, phi4_solutions)
    assert len(ops) == 87
    for name, r in ops.items():
        c, s, rho, pres = _quotient_inputs(r)
        assert strong_dmap_rsigma(c, s, rho) == r == round_trip(pres), name


def _outcome(f, *args):
    """The operator ``f`` returns, or the class and message of what it raises."""
    try:
        return f(*args).matrix
    except (LongeqError, ValueError) as exc:
        return type(exc), str(exc)


def test_strong_dmap_matches_dense_oracle_on_perturbed_inputs(corpus, phi4_solutions):
    """On corpus presentations and seeded perturbations of them, the sparse
    ``strong_dmap_rsigma`` returns the dense oracle's operator, or raises
    its class with its message. A perturbation changes a sigma entry (L1
    fails), a rho entry (a coaction law fails), scales sigma or adds a
    multiple of eps (x) eps (L1 holds, R_sigma changes), or changes the
    basis of the comodule by a seeded u (rho -> u rho u^-1, a comodule
    again, R_sigma the conjugate)."""
    ops = _rsigma_operators(corpus, phi4_solutions)
    rng = random.Random(2024)
    names = ["diag_2", "pair_235", "conjugate", "homothety", "graded_z2", "phi_3_113",
             "phi4_(1, 2, 2, 4)", "conj3_0", "conj3_4", "conj4_2", "r_x"]
    kinds = {"none": 0, "sigma": 0, "rho": 0, "scale": 0, "eps": 0, "basis": 0}
    for name in names:
        c, s, rho, _ = _quotient_inputs(ops[name])
        n, d = len(rho), c.d
        for kind in kinds:
            for _ in range(3 if kind in ("sigma", "rho", "basis") else 1):
                table = [row[:] for row in s.table]
                coaction = [[cell[:] for cell in row] for row in rho]
                step = rng.choice((F(1), F(-2), F(1, 3)))
                if kind == "sigma":
                    table[rng.randrange(d)][rng.randrange(d)] += step
                elif kind == "rho":
                    coaction[rng.randrange(n)][rng.randrange(n)][rng.randrange(d)] += step
                elif kind == "scale":
                    table = [[step * x for x in row] for row in table]
                elif kind == "eps":
                    table = [[x + step * c.counit[p] * c.counit[q] for q, x in enumerate(row)]
                             for p, row in enumerate(table)]
                elif kind == "basis":
                    u = [[F(rng.randint(-1, 1)) + (i == j) for j in range(n)] for i in range(n)]
                    try:
                        u_inv = la_inv(u)
                    except ValueError:
                        continue
                    coaction = [[[sum((u[v][a] * coaction[a][b][k] * u_inv[b][l]
                                       for a in range(n) for b in range(n)), F(0))
                                  for k in range(d)] for l in range(n)] for v in range(n)]
                want = _outcome(_dense_strong_dmap_rsigma, c, SigmaTable(table), coaction)
                got = _outcome(strong_dmap_rsigma, c, SigmaTable(table), coaction)
                assert got == want, (name, kind)
                kinds[kind] += not isinstance(want[0], type)
    # the scaled, eps-shifted and re-based inputs reach the output
    assert kinds["scale"] and kinds["eps"] and kinds["basis"], kinds


def test_strong_dmap_rejects_violations():
    from longeq import strong_dmap_rsigma

    r = make_phi(2, [1, 1])
    pres = build_LR(r)
    q = pres.quotient
    c = pres.coalgebra
    rho = [[q.basis_coset(v + 1, l + 1) for l in range(2)] for v in range(2)]
    bad = [row[:] for row in pres.sigma_gen]
    bad[0][0] += F(1)
    try:
        strong_dmap_rsigma(c, SigmaTable(bad), rho)
    except NotAStrongDMap as err:
        assert err.args
    else:
        # the perturbation must either break the identity or change R
        out = strong_dmap_rsigma(c, SigmaTable(bad), rho)
        assert out != r
    broken_rho = [[rho[v][l][:] for l in range(2)] for v in range(2)]
    broken_rho[0][0][0] += F(1)
    with pytest.raises(InvalidCoaction):
        strong_dmap_rsigma(c, SigmaTable(pres.sigma_gen), broken_rho)


def test_strong_dmap_refuses_a_sigma_table_of_the_wrong_size():
    """A 2 x 2 table on the one-element comatrix coalgebra read the wrong
    cells and gave R = [[2]]; it is a ValueError."""
    from longeq import strong_dmap_rsigma

    with pytest.raises(ValueError, match="^sigma table size disagrees with the coalgebra "
                                         "dimension$"):
        strong_dmap_rsigma(comatrix_coalgebra(1), SigmaTable([[1, 1], [1, 1]]),
                           fundamental_comodule(1))


def _comatrix2_case():
    """comatrix_coalgebra(2), eps (x) eps (so R = Id) and the fundamental
    comodule: an input that ``strong_dmap_rsigma`` accepts."""
    c = comatrix_coalgebra(2)
    return c, [[x * y for y in c.counit] for x in c.counit], fundamental_comodule(2)


def _broken_coaction(counit=False, coassociativity=False):
    """The fundamental comodule of order 2 with rho_01 = c_12 + c_21, which
    keeps the counit law and breaks coassociativity from (0, 0) on, and/or
    rho_11 = 2 c_22, which breaks the counit law at (1, 1)."""
    rho = fundamental_comodule(2)
    if coassociativity:
        rho[0][1][2] = F(1)
    if counit:
        rho[1][1][3] = F(2)
    return rho


# an empty rho ran the L1 check and then failed in TensorOp2 with "dim must be positive"
_EMPTY_RHO = "rho is empty: the coaction needs at least one basis vector m_l"


def _strong_dmap_refusals():
    """(name, c, table, rho, class, message) for each refusal of
    ``strong_dmap_rsigma``, in the order in which it checks them."""
    c, table, rho = _comatrix2_case()
    not_l1 = [row[:] for row in table]
    not_l1[0][1] += 1
    ragged = [rho[0], rho[1][:1]]
    short_cell = [[rho[0][0][:3], rho[0][1]], rho[1]]
    unreadable = [rho[0], [["x"] * 4]]
    shape = (InvalidCoaction, "rho must be n x n with coalgebra-valued entries")
    return [
        ("sigma-size", c, [[1]], unreadable, ValueError,
         "sigma table size disagrees with the coalgebra dimension"),
        ("empty", c, table, [], InvalidCoaction, _EMPTY_RHO),
        ("empty-before-L1", c, not_l1, [], InvalidCoaction, _EMPTY_RHO),
        ("entry-before-shape", c, table, unreadable, ValueError,
         "Invalid literal for Fraction: 'x'"),
        ("ragged", c, not_l1, ragged, *shape),
        ("short-cell", c, not_l1, short_cell, *shape),
        ("L1", c, not_l1, _broken_coaction(True, True), NotAStrongDMap,
         "strong D-map identity fails at basis pair (1, 1)"),
        ("counit", c, table, _broken_coaction(True, True), InvalidCoaction,
         "counit law fails at (1,1)"),
        ("coassociativity", c, table, _broken_coaction(coassociativity=True),
         InvalidCoaction, "coassociativity fails at (0,0)"),
    ]


@pytest.mark.parametrize("case", range(9), ids=[
    "sigma-size", "empty", "empty-before-L1", "entry-before-shape", "ragged", "short-cell",
    "L1", "counit", "coassociativity"])
def test_strong_dmap_refusals_keep_their_class_message_and_order(case):
    """Each refusal of ``strong_dmap_rsigma`` raises its class with its
    exact message, and an input that breaks several laws is refused by the
    first in the order: sigma size, an empty rho, rho entries, shape, L1,
    counit law (at every (v, l)), coassociativity. The L1 refusal carries
    its witness."""
    _, c, table, rho, cls, message = _strong_dmap_refusals()[case]
    with pytest.raises(cls) as exc:
        strong_dmap_rsigma(c, SigmaTable(table), rho)
    assert type(exc.value) is cls and str(exc.value) == message
    if cls is NotAStrongDMap:
        assert exc.value.witness == (1, 1)


@pytest.mark.parametrize("size", [1, 3])
def test_check_axioms_refuses_a_sigma_table_of_the_wrong_size(size):
    """On k[Z/2] a 3 x 3 table returned verdicts (L1 and B1 true) and a
    1 x 1 table raised IndexError; both are a ValueError, whatever axioms
    are asked for."""
    b = cyclic_group_algebra(2)
    table = SigmaTable([[int(p == q) for q in range(size)] for p in range(size)])
    for which in (None, ["L1"], ["L9"]):
        with pytest.raises(ValueError, match="^sigma table size disagrees with the bialgebra "
                                             "dimension$"):
            check_axioms(b, table, which)


@pytest.mark.parametrize("rows, cols", [(65, 65), (65, 2), (2, 65), (64, 65)])
def test_sigma_from_json_refuses_a_table_over_the_cap_before_parsing(monkeypatch, rows, cols):
    """A sigma table with more than ``MAX_BIALGEBRA_DIM`` rows, or a longer
    row, is refused with ``DimensionCap`` before any entry is parsed; a
    2000 x 2000 table against k[Z/2] was parsed whole, for 2 s, before
    ``check_axioms`` refused its size. At the cap the entries are parsed, and the size that
    disagrees with the bialgebra is refused by ``check_axioms`` as before."""
    calls = []

    def counting(x):
        calls.append(x)
        return parse_frac(x)

    monkeypatch.setattr(jsonio, "parse_frac", counting)
    cap = jsonio.MAX_BIALGEBRA_DIM
    table = [[str(p + q) for q in range(cols)] for p in range(rows)]
    with pytest.raises(DimensionCap, match=f"^sigma table size {rows} x {cols} exceeds cap "
                                           f"{cap}$"):
        jsonio.sigma_from_json({"table": table})
    assert calls == []
    s = jsonio.sigma_from_json({"table": [[str(p + q) for q in range(cap)]
                                          for p in range(cap)]})
    assert len(calls) == 2 * cap - 1  # one call per distinct string
    with pytest.raises(ValueError, match="^sigma table size disagrees with the bialgebra "
                                         "dimension$"):
        check_axioms(cyclic_group_algebra(2), s)


def test_check_axioms_refuses_an_empty_or_unknown_axiom_list():
    """An empty list would verify nothing and ``check_axioms`` returned {}
    for it; it is a ValueError, and so is an unknown name, whose message
    lists the axioms to choose from. ``None`` still asks for all but
    ``strongD``."""
    b = cyclic_group_algebra(2)
    s = SigmaTable.counit_square(b)
    with pytest.raises(ValueError, match="^the axiom list names nothing; give at least one "
                                         "axiom$"):
        check_axioms(b, s, [])
    with pytest.raises(ValueError) as exc:
        check_axioms(b, s, ["L1", "L9"])
    assert str(exc.value) == f"unknown axioms: ['L9']; choose from {AXIOMS}"
    assert set(check_axioms(b, s)) == set(AXIOMS) - {"strongD"}


def test_group_algebra_validation():
    b = group_algebra(["e", "g"], [[0, 1], [1, 0]])
    assert b.counit == [F(1), F(1)]
    with pytest.raises(InvalidGroupTable):
        group_algebra(["a", "b", "c"], [[0, 1, 2], [1, 2, 1], [2, 0, 0]])
    with pytest.raises(InvalidGroupTable):
        group_algebra(["a", "b"], [[0, 1], [1, 3]])


def test_comatrix_tensor_truncation_dimensions():
    assert comatrix_tensor_truncation(2, 1).d == 1 + 4 + 1
    assert comatrix_tensor_truncation(2, 2).d == 1 + 4 + 16 + 1
    b = comatrix_tensor_truncation(2, 1)
    # the absorber class is group-like with counit one
    s = b.d - 1
    assert b.counit[s] == 1
    assert b.comult[s][s][s] == 1


@pytest.mark.parametrize("n, degree", [(1, 1), (2, 1), (2, 2), (3, 1), (1, 3)])
def test_comatrix_tensor_truncation_matches_letter_expansion(n, degree):
    """Delta and eps of each word, expanded letter by letter through the
    matrix indices (Delta c_ij = sum_u c_iu (x) c_uj, eps c_ij = [i = j]),
    with the absorber s group-like of counit one; the words are those of
    length at most ``degree``, read back from the basis labels."""
    b = comatrix_tensor_truncation(n, degree)
    words = [() if label == "1" else
             tuple(tuple(map(int, c.split("_")[1:])) for c in label.split("*"))
             for label in b.basis[:-1]]
    assert sorted(map(len, words)) == [k for k in range(degree + 1) for _ in range(n ** (2 * k))]
    index = {w: a for a, w in enumerate(words)}
    d = len(words) + 1
    comult = [la.zeros(d, d) for _ in range(d)]
    counit = [Fraction(0)] * d
    for a, w in enumerate(words):
        terms = [((), ())]
        for i, j in w:
            terms = [(lw + ((i, u),), rw + ((u, j),)) for lw, rw in terms for u in range(1, n + 1)]
        for lw, rw in terms:
            comult[a][index[lw]][index[rw]] += 1
        counit[a] = Fraction(all(i == j for i, j in w))
    comult[-1][-1][-1] = counit[-1] = Fraction(1)
    assert b.comult == comult and b.counit == counit


def test_strong_dmap_output_check_raises_internal_error(monkeypatch):
    """The Long check on the induced operator survives ``python -O`` and
    names its witness; forced here by a checker that always reports one."""
    n = 2
    c = comatrix_coalgebra(n)
    table = [[x * y for y in c.counit] for x in c.counit]  # eps (x) eps: R = Id
    monkeypatch.setattr(bialgebra, "long_witness", lambda r: (2, (1, 2, 1, 1, 2, 1)))
    with pytest.raises(InternalCheckFailed, match=r"^induced operator fails Long equation 2 "
                                                  r"at \(1, 2, 1, 1, 2, 1\)$"):
        bialgebra.strong_dmap_rsigma(c, SigmaTable(table), fundamental_comodule(n))


# d = 2 with e_0, e_1 orthogonal idempotents (unit e_0 + e_1), e_0 group-like
# and Delta(e_1) = e_0 (x) e_1 + e_1 (x) e_0 with eps = (1, 0): every law
# before Delta(1) = 1 (x) 1 holds, and Delta(1) lacks the term e_1 (x) e_1
_NOT_UNITAL_COALGEBRA_MAP = (["a", "b"], [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1],
                             [[[1, 0], [0, 0]], [[0, 1], [1, 0]]], [1, 0])


@pytest.mark.parametrize("build, error, message", [
    (lambda: group_algebra(["e", "g"], [[0, 1]]), InvalidGroupTable, "table must be d x d"),
    # the constant table is associative and has no identity
    (lambda: group_algebra(["e", "g"], [[0, 0], [0, 0]]), InvalidGroupTable,
     "no identity element"),
    # 0 is the identity and 1 absorbs: a monoid that is not a group
    (lambda: group_algebra(["e", "z"], [[0, 1], [1, 1]]), InvalidGroupTable,
     "element 1 has no inverse"),
    # the empty basis: its unit is 0, so eps(1) = 0
    (lambda: FinDimBialgebra([], [], [], [], []), InvalidBialgebra, "eps(1) != 1"),
    (lambda: FinDimBialgebra(*_NOT_UNITAL_COALGEBRA_MAP), InvalidBialgebra,
     "Delta(1) != 1 (x) 1"),
    # a float entry raised TypeError, and a bool was read as 0 or 1
    (lambda: group_algebra(["e", "g"], [[0, 1], [1, 0.0]]), InvalidGroupTable,
     "table entries out of range"),
    (lambda: group_algebra(["e", "g"], [[0, True], [True, 0]]), InvalidGroupTable,
     "table entries out of range"),
])
def test_group_algebra_and_bialgebra_refusals(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
