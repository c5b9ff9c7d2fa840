"""End-to-end tests of the command-line front end and JSON wire formats."""

import ast
import functools
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import longeq
from longeq import (
    TensorOp2,
    cli,
    comatrix_tensor_truncation,
    cyclic_group_algebra,
    frt,
    jsonio,
    kz,
    make_conjugate,
    make_diag,
    make_pair,
    make_phi,
    tensor_ops,
)
from longeq import linalg as la
from longeq.cli import _emit, main
from longeq.jsonio import (
    bialgebra_to_json,
    operator_from_json,
    operator_to_json,
    sigma_to_json,
)
from longeq.bialgebra import SigmaTable, sweedler_h4
from longeq.scalars import frac_str, parse_frac


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# numbers that overflow or underflow a float, or a product of two floats
_EXTREMES = st.sampled_from([1e308, -1e308, 1e154, 1e-320, 5e-324, 10 ** 400])
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 8), st.integers(-10 ** 30, 10 ** 30),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3), _EXTREMES)
_JSON_ANY = st.recursive(_JSON_SCALAR, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                         max_leaves=8)


# ---------------------------------------------------------------------------
# operator JSON
# ---------------------------------------------------------------------------


def test_operator_json_roundtrip(corpus):
    for r in corpus.values():
        blob = json.dumps(operator_to_json(r))
        assert operator_from_json(json.loads(blob)) == r


def test_operator_json_rejects_duplicates():
    obj = operator_to_json(make_phi(2, [1, 1]))
    obj["entries"].append(dict(obj["entries"][0]))
    with pytest.raises(ValueError):
        operator_from_json(obj)


def test_operator_json_omits_zeros():
    r = make_phi(2, [1, 2])
    obj = operator_to_json(r)
    assert all(e["coeff"] != "0" for e in obj["entries"])


def test_operator_json_dim_cap_is_usage_error(tmp_path, capsys, monkeypatch):
    # n^3 is checked against LONGEQ_MAX_DIM before any coefficient exists
    monkeypatch.setenv("LONGEQ_MAX_DIM", "64")
    assert operator_from_json(operator_to_json(make_phi(4, [1, 1, 3, 3]))).dim == 4
    op = _write(tmp_path, "op.json", {"dim": 5, "entries": []})
    code, out, err = _run(capsys, ["check", "--op", op])
    assert (code, out) == (2, "")
    assert "n^3 = 125 exceeds cap 64" in err


@pytest.mark.parametrize("cap", ["1_000", "\u0666\u0664", "abc", "0", "-5"])
def test_dim_cap_variable_is_a_positive_ascii_integer(capsys, monkeypatch, cap):
    """``LONGEQ_MAX_DIM`` follows ``parse_int`` and is at least 1: an
    underscore or non-ASCII digits, once accepted, a non-number, once a bare
    ``int()`` error, and 0 or -5, once caps that refused every operator,
    exit 2 naming the variable."""
    argv = ["construct", "phi", "--n", "2", "--map", "1,1"]
    monkeypatch.setenv("LONGEQ_MAX_DIM", " 8 ")
    assert _run(capsys, argv)[0] == 0
    monkeypatch.setenv("LONGEQ_MAX_DIM", cap)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: LONGEQ_MAX_DIM must be an integer of at least 1, got {cap!r}\n"


def test_operator_json_non_list_entries_is_usage_error(tmp_path, capsys):
    op = _write(tmp_path, "op.json", {"dim": 2, "entries": None})
    code, out, err = _run(capsys, ["check", "--op", op])
    assert (code, out) == (2, "")
    assert "'entries' must be a list" in err


def _operator_oracle(obj):
    """The operator of a valid operator JSON, with ``parse_frac`` called on
    every coefficient string and every index range-checked one at a time."""
    n = obj["dim"]
    matrix = [[Fraction(0)] * (n * n) for _ in range(n * n)]
    for e in obj["entries"]:
        assert all(1 <= e[k] <= n for k in "vuij")
        matrix[(e["i"] - 1) * n + e["j"] - 1][(e["v"] - 1) * n + e["u"] - 1] = \
            parse_frac(e["coeff"])
    return TensorOp2(n, matrix)


# the spellings of a few rationals that a coefficient string may take
_COEFF_SPELLINGS = ["1", "-1", "0", "-0", "0/7", "2/4", "-3/6", " 5 ", "+1", "-4/8", 7, -2]


def test_operator_from_json_matches_per_entry_parse_oracle(corpus):
    """``operator_from_json``, which parses each distinct coefficient string
    once, gives the operator of a per-entry ``parse_frac``: on the corpus, on
    seeded {-1, 0, 1} candidates and on seeded spellings of small rationals,
    with the entries in shuffled order."""
    rng = random.Random(2020)
    objs = [operator_to_json(r) for r in corpus.values()]
    for k in range(60):
        n = 2 + k % 3
        entries = [{"v": v, "u": u, "i": i, "j": j,
                    "coeff": rng.choice(["-1", "1", "0"] if k % 2 else _COEFF_SPELLINGS)}
                   for v, u, i, j in itertools.product(range(1, n + 1), repeat=4)
                   if rng.random() < 0.3]
        rng.shuffle(entries)
        objs.append({"dim": n, "entries": entries})
    for obj in objs:
        assert operator_from_json(obj) == _operator_oracle(obj)


def test_operator_read_parses_each_distinct_coefficient_once(monkeypatch):
    """Each distinct coefficient string of one document is parsed once; a
    second document parses its strings again."""
    calls = []
    monkeypatch.setattr(jsonio, "parse_frac", lambda x: calls.append(x) or parse_frac(x))
    obj = {"dim": 3, "entries": [
        {"v": v, "u": u, "i": i, "j": j, "coeff": ["-1", "1", "1/2"][(v + u + i + j) % 3]}
        for v, u, i, j in itertools.product(range(1, 4), repeat=4)]}
    want = _operator_oracle(obj)
    assert operator_from_json(obj) == want
    assert sorted(calls) == ["-1", "1", "1/2"]
    assert operator_from_json(obj) == want and len(calls) == 6


def _entry(**fields):
    """An operator entry at (1, 1, 1, 1) with coefficient "1", with ``fields``
    changed; a field given as ``...`` is left out."""
    e = dict({"v": 1, "u": 1, "i": 1, "j": 1, "coeff": "1"}, **fields)
    return {k: x for k, x in e.items() if x is not ...}


# each message as the per-entry parser gave it
@pytest.mark.parametrize("obj, want", [
    ([1], "operator JSON must be an object with a 'dim' key"),
    ({"entries": []}, "operator JSON must be an object with a 'dim' key"),
    ({"dim": True}, "'dim' must be a positive integer"),
    ({"dim": 0}, "'dim' must be a positive integer"),
    ({"dim": 2, "entries": {}}, "'entries' must be a list"),
    ({"dim": 2, "entries": [[1, 1, 1, 1, "1"]]}, "malformed operator entry [1, 1, 1, 1, '1']"),
    ({"dim": 2, "entries": ["v"]}, "malformed operator entry 'v'"),
    ({"dim": 2, "entries": [_entry(coeff=...)]},
     "malformed operator entry {'v': 1, 'u': 1, 'i': 1, 'j': 1}"),
    ({"dim": 2, "entries": [_entry(j=...)]},
     "malformed operator entry {'v': 1, 'u': 1, 'i': 1, 'coeff': '1'}"),
    ({"dim": 2, "entries": [_entry(coeff=None)]}, "not a fraction string: None"),
    ({"dim": 2, "entries": [_entry(coeff=True)]}, "not a fraction string: True"),
    ({"dim": 2, "entries": [_entry(coeff=0.5)]}, "not a fraction string: 0.5"),
    ({"dim": 2, "entries": [_entry(coeff=["1"])]}, "not a fraction string: ['1']"),
    ({"dim": 2, "entries": [_entry(coeff="1/0")]}, "zero denominator: '1/0'"),
    ({"dim": 2, "entries": [_entry(coeff="x")]}, "not a fraction string: 'x'"),
    ({"dim": 2, "entries": [_entry(coeff="1/x", v=0)]}, "not a fraction string: '1/x'"),
    ({"dim": 2, "entries": [_entry(v=0)]},
     "index out of range in entry {'v': 0, 'u': 1, 'i': 1, 'j': 1, 'coeff': '1'}"),
    ({"dim": 2, "entries": [_entry(j=3)]},
     "index out of range in entry {'v': 1, 'u': 1, 'i': 1, 'j': 3, 'coeff': '1'}"),
    ({"dim": 2, "entries": [_entry(u=True)]},
     "index out of range in entry {'v': 1, 'u': True, 'i': 1, 'j': 1, 'coeff': '1'}"),
    ({"dim": 2, "entries": [_entry(i=1.0)]},
     "index out of range in entry {'v': 1, 'u': 1, 'i': 1.0, 'j': 1, 'coeff': '1'}"),
    ({"dim": 2, "entries": [_entry(i="1")]},
     "index out of range in entry {'v': 1, 'u': 1, 'i': '1', 'j': 1, 'coeff': '1'}"),
    ({"dim": 2, "entries": [_entry(v=None)]},
     "index out of range in entry {'v': None, 'u': 1, 'i': 1, 'j': 1, 'coeff': '1'}"),
    ({"dim": 2, "entries": [_entry(), _entry(coeff="2")]},
     "duplicate entry for (v,u,i,j)=(1, 1, 1, 1)"),
    ({"dim": 2, "entries": [_entry(coeff="1/2", v=2), _entry(coeff="1/2"),
                            _entry(coeff="1/2", v=2)]},
     "duplicate entry for (v,u,i,j)=(2, 1, 1, 1)"),
    ({"dim": 2, "entries": [_entry(coeff="3"), _entry(coeff="3", v=2),
                            _entry(coeff="3/0", u=2)]}, "zero denominator: '3/0'"),
    ({"dim": 2, "entries": [_entry(coeff="0"), _entry(coeff="-0")]},
     "duplicate entry for (v,u,i,j)=(1, 1, 1, 1)"),
], ids=["not-object", "no-dim", "dim-bool", "dim-zero", "entries-dict", "entry-list",
        "entry-string", "no-coeff", "no-j", "coeff-null", "coeff-bool", "coeff-float",
        "coeff-list", "coeff-zero-denominator", "coeff-word", "coeff-before-index",
        "index-zero", "index-past-end", "index-bool", "index-float", "index-string",
        "index-null", "duplicate", "duplicate-after-repeated-coeff", "bad-after-good",
        "duplicate-zero"])
def test_operator_from_json_bad_entry_messages(obj, want):
    """Each bad operator JSON raises the ValueError the per-entry parser
    raised, with the same message: the coefficient is read before the
    indices are checked, and the first bad entry is named."""
    with pytest.raises(ValueError) as info:
        operator_from_json(obj)
    assert str(info.value) == want


_INDEX = st.one_of(st.integers(-1, 4), st.booleans(), st.none(), st.sampled_from([1.0, "1"]))
_GOOD_COEFF = st.sampled_from(["1", "-1", "0", "-0", "0/7", "1/2", " 2 ", 3])
_COEFF = st.one_of(_GOOD_COEFF, st.sampled_from(["1/0", "x", "", "1e3"]),
                   st.none(), st.booleans(), st.floats(-2, 2))


@st.composite
def _operator_objects(draw):
    """Operator JSON near the valid ones at dim 1..3: indices near their
    range or of a wrong type, coefficients of every spelling, sometimes a
    repeated entry, a key dropped, or a field given any JSON value."""
    n = draw(st.integers(1, 3))
    entries = draw(st.lists(st.fixed_dictionaries(
        {"v": st.integers(1, n), "u": st.integers(1, n), "i": st.integers(1, n),
         "j": st.integers(1, n), "coeff": _GOOD_COEFF}), max_size=6))
    if entries and draw(st.booleans()):
        e = draw(st.sampled_from(entries))
        entries.append(dict(e, coeff=draw(_COEFF)))
    if entries and draw(st.booleans()):
        e = draw(st.sampled_from(entries))
        key = draw(st.sampled_from(sorted(e)))
        if draw(st.booleans()):
            del e[key]
        else:
            e[key] = draw(_INDEX if key != "coeff" else _COEFF)
    obj = {"dim": n, "entries": entries}
    key = draw(st.sampled_from([None, None, None, "dim", "entries"]))
    if key is not None:
        obj[key] = draw(_JSON_ANY)
    return obj


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_operator_objects(), _JSON_ANY))
@example({"dim": 2, "entries": [_entry(u=True)]})
@example({"dim": 2, "entries": [_entry(), _entry()]})
@example({"dim": 2, "entries": [_entry(j=3), _entry(coeff="1/0")]})
@example({"dim": 2, "entries": [_entry(coeff=None)]})
def test_check_operator_fuzz_exits_0_1_or_2(tmp_path, capsys, obj):
    """``check`` on fuzzed operator JSON exits 0 or 1 with a report, or 2
    with an ``error:`` line; it never raises."""
    code, out, err = _run(capsys, ["check", "--op", _write(tmp_path, "op.json", obj),
                                   "--laws", "long,qybe"])
    if code == 2:
        assert out == "" and err.startswith("error: "), err
    else:
        assert code in (0, 1) and json.loads(out)["command"] == "check", err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_passes_on_solution(tmp_path, capsys):
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(3, [1, 1, 3])))
    code, out, _ = _run(capsys, ["check", "--op", op])
    report = json.loads(out)
    assert code == 0
    assert report["verdicts"] == {"long": True}


def test_check_fails_with_witness(tmp_path, capsys):
    bad = TensorOp2(2, [[0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]])
    op = _write(tmp_path, "op.json", operator_to_json(bad))
    code, out, _ = _run(capsys, ["check", "--op", op])
    report = json.loads(out)
    assert code == 1
    assert report["verdicts"]["long"] is False
    witness = report["witnesses"]["long"]
    assert witness["equation"] in (1, 2)
    assert len(witness["indices"]) == 6


def test_check_multiple_laws(tmp_path, capsys):
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    code, out, _ = _run(capsys, ["check", "--op", op, "--laws", "long,qybe,symmetric"])
    report = json.loads(out)
    assert code in (0, 1)
    assert set(report["verdicts"]) == {"long", "qybe", "symmetric"}


def test_check_kz_bracket_internal_disagreement_exits_70(tmp_path, capsys, monkeypatch):
    """A Long solution whose KZ bracket fails is a bug: exit 70. Forced by a
    sparse sum R13 + R23 that commutes with no non-scalar R12."""
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 2])))
    monkeypatch.setattr(tensor_ops, "_sparse_add", lambda a, b: {
        i: {j: i * 8 + j for j in range(8)} for i in range(8)
    })
    code, out, err = _run(capsys, ["check", "--op", op, "--laws", "long,kz_bracket"])
    assert code == 70
    assert out == ""
    assert "KZ bracket" in err


_FRACTIONAL_OPS = [
    make_conjugate([[1, Fraction(1, 7)], [0, 1]],
                   make_diag(2, [[Fraction(1, 2), Fraction(2, 3)],
                                 [Fraction(3, 5), Fraction(5, 6)]])),
    TensorOp2(2, [[0, Fraction(1, 3), 0, 0], [0, 0, 0, 0], [1, 0, 0, 0],
                  [0, 0, 1, Fraction(1, 2)]]),
]


def _count_clearings(monkeypatch):
    """The nonzero rows of each operator whose denominators are cleared:
    the arguments of ``la.clear_sparse``, which ``TensorOp2.cleared`` calls."""
    cleared = []
    real = la.clear_sparse

    def counting(rows):
        cleared.append(rows)
        return real(rows)

    monkeypatch.setattr(la, "clear_sparse", counting)
    return cleared


@pytest.mark.parametrize("r", _FRACTIONAL_OPS)
def test_check_clears_the_denominators_once(tmp_path, capsys, monkeypatch, r):
    """check_laws and long_witness share one integer form Z = D R; the
    verdicts, witness and exit code are those each forming its own gives."""
    op = _write(tmp_path, "op.json", operator_to_json(r))
    cleared = _count_clearings(monkeypatch)
    code, out, _ = _run(capsys, ["check", "--op", op, "--laws", "long,hopf,kz_bracket"])
    assert cleared == [r.rows]
    monkeypatch.undo()
    report = json.loads(out)
    assert report["verdicts"] == tensor_ops.check_laws(r, ["long", "hopf", "kz_bracket"])
    assert code == (0 if all(report["verdicts"].values()) else 1)
    witness = tensor_ops.long_witness(r)
    assert report["witnesses"] == ({} if witness is None else {
        "long": {"equation": witness[0], "indices": list(witness[1])}})


@pytest.mark.parametrize("r", _FRACTIONAL_OPS[:1] + [make_phi(3, [1, 2, 2])])
def test_check_and_build_LR_clear_the_denominators_once(tmp_path, capsys, monkeypatch, r):
    """A ``check`` of every law and a ``build_LR`` each clear the denominators
    of their operator once; the Long check, the obstruction rows and the
    sigma-form all read ``TensorOp2.cleared``."""
    op = _write(tmp_path, "op.json", operator_to_json(r))
    cleared = _count_clearings(monkeypatch)
    code, _, _ = _run(capsys, ["check", "--op", op, "--laws", ",".join(tensor_ops.LAWS)])
    assert code in (0, 1)
    assert cleared == [r.rows]
    cleared.clear()
    pres = frt.build_LR(operator_from_json(operator_to_json(r)))
    assert cleared == [r.rows]
    assert frt.round_trip(pres) == r


def _check_outcome(capsys, path):
    """Exit code, report without ``elapsed_s`` and stderr of ``check`` with every law."""
    code, out, err = _run(capsys, ["check", "--op", path, "--laws", ",".join(tensor_ops.LAWS)])
    report = json.loads(out)
    del report["elapsed_s"]
    return code, report, err


@pytest.mark.parametrize("zero", ["0", "-0", "0/7", 0])
def test_check_reads_a_zero_entry_as_left_out(tmp_path, capsys, zero):
    """Entries whose coefficient spells zero, before, among and after the
    others, give the exit code, verdicts and witness of the same document
    without them."""
    for r in (make_phi(3, [1, 2, 2]), *_FRACTIONAL_OPS):
        n, obj = r.dim, operator_to_json(r)
        taken = {tuple(e[k] for k in "vuij") for e in obj["entries"]}
        zeros = [dict(zip("vuij", key), coeff=zero)
                 for key in itertools.product(range(1, n + 1), repeat=4) if key not in taken]
        entries = zeros[::3] + obj["entries"][:2] + zeros[1::3] + obj["entries"][2:] + zeros[2::3]
        padded = dict(obj, entries=entries)
        want = _check_outcome(capsys, _write(tmp_path, "op.json", obj))
        assert _check_outcome(capsys, _write(tmp_path, "zeros.json", padded)) == want
        assert operator_from_json(padded) == r


def test_check_frt_and_roundtrip_never_form_the_dense_matrix(tmp_path, capsys, monkeypatch):
    """The operator that ``check`` with every law, ``frt``, ``frt --present``,
    ``roundtrip`` and ``kz`` read keeps only its sparse rows: the dense
    ``matrix`` view is never formed on the way from JSON to verdict."""
    read = []
    real = jsonio.operator_from_json
    monkeypatch.setattr(jsonio, "operator_from_json", lambda obj: read.append(real(obj)) or read[-1])
    # exit codes of check and of frt, frt --present and roundtrip: the
    # conjugate fails hopf, and the last operator is not a Long solution
    cases = [(make_phi(3, [1, 2, 2]), 0, 0), (_FRACTIONAL_OPS[0], 1, 0), (_FRACTIONAL_OPS[1], 1, 1)]
    loop = _write(tmp_path, "loop.json", {"base": [[0, 0], [1, 0], [6, 2]], "kind": "circle",
                                          "steps": 20, "moving": 2, "center": 1, "radius": 0.5})
    for r, check_code, frt_code in cases:
        op = _write(tmp_path, "op.json", operator_to_json(r))
        for argv, want in (
                (["check", "--op", op, "--laws", ",".join(tensor_ops.LAWS)], check_code),
                (["frt", "--op", op], frt_code), (["frt", "--op", op, "--present"], frt_code),
                (["roundtrip", "--op", op], frt_code),
                (["kz", "--op", op, "--points", "3", "--h", "0.05", "--loop", loop], 0)):
            code, _, _ = _run(capsys, argv)
            assert code == want, argv
            assert read[-1] == r and "matrix" not in vars(read[-1]), argv


def test_check_unknown_law_is_usage_error(tmp_path, capsys):
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    code, _, err = _run(capsys, ["check", "--op", op, "--laws", "bogus"])
    assert code == 2
    assert "unknown laws" in err


def _small_argv(tmp_path, command, edit=None):
    """argv of ``check`` on make_phi(2, [1, 1]) or of ``bialgebra-check`` on
    k[Z/2] with eps (x) eps, ``edit`` applied to the operator or sigma JSON."""
    if command == "check":
        op = operator_to_json(make_phi(2, [1, 1]))
        if edit:
            edit(op)
        return ["check", "--op", _write(tmp_path, "op.json", op)]
    b = cyclic_group_algebra(2)
    sig = sigma_to_json(SigmaTable.counit_square(b))
    if edit:
        edit(sig)
    return ["bialgebra-check", "--bialgebra", _write(tmp_path, "b.json", bialgebra_to_json(b)),
            "--sigma", _write(tmp_path, "s.json", sig)]


@pytest.mark.parametrize("command, option", [("check", "--laws"), ("bialgebra-check", "--axioms")])
@pytest.mark.parametrize("names", ["", ",", " , ", ",,"])
def test_empty_name_list_is_usage_error(tmp_path, capsys, command, option, names):
    """A ``--laws`` or ``--axioms`` list that names nothing would verify
    nothing and report success; it exits 2. An empty ``--axioms`` string
    is such a list too, not the L1-L5 default of an omitted ``--axioms``."""
    code, out, err = _run(capsys, _small_argv(tmp_path, command) + [f"{option}={names}"])
    assert (code, out, err) == (2, "", f"error: {option} names nothing; give at least one name\n")


@pytest.mark.parametrize("argv", [
    ["check", "--op", "NEST"],
    ["construct", "conjugate", "--op", "NEST", "--u", "1,0,0,1"],
    ["construct", "graded", "--spec", "NEST"],
    ["construct", "homothety", "--spec", "NEST"],
    ["frt", "--op", "NEST"],
    ["roundtrip", "--op", "NEST"],
    ["frt", "--op", "OP", "--naming", "NEST"],
    ["kz", "--op", "NEST", "--points", "3", "--h", "0.1", "--loop", "NEST"],
    ["kz", "--op", "OP", "--points", "3", "--h", "0.1", "--loop", "NEST"],
    ["bialgebra-check", "--bialgebra", "NEST", "--sigma", "NEST"],
    ["bialgebra-check", "--bialgebra", "B", "--sigma", "NEST"],
], ids=lambda argv: "-".join([argv[argv[0] == "construct"], argv[argv.index("NEST") - 1][2:]]))
@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")],
                         ids=["list", "object"])
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, argv, opening, closing):
    """JSON nested past the interpreter's recursion limit makes ``json.load``
    raise RecursionError; every file option refuses it with exit 2 and one
    ``error:`` line naming the file, not a traceback."""
    depth = 100_000
    nest = tmp_path / "nest.json"
    nest.write_text(opening * depth + "0" + closing * depth)
    files = {"NEST": str(nest),
             "OP": _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1]))),
             "B": _write(tmp_path, "b.json", bialgebra_to_json(cyclic_group_algebra(2)))}
    code, out, err = _run(capsys, [files.get(a, a) for a in argv])
    assert (code, out, err) == (2, "", f"error: {nest}: JSON nested too deeply\n")


_SIGMA_3X3 = {"table": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}


@pytest.mark.parametrize("command, extra, want", [
    ("check", ["--laws", "bogus"],
     "unknown laws: ['bogus']; choose from "
     "('long', 'd_equation', 'qybe', 'hopf', 'kz_bracket', 'symmetric')"),
    ("bialgebra-check", ["--axioms", "L9"],
     "unknown axioms: ['L9']; choose from ('L1', 'L2', 'L3', 'L4', 'L5', 'B1', 'strongD')"),
    ("bialgebra-3x3", ["--axioms", "L9"],
     "sigma table size disagrees with the bialgebra dimension"),
    ("bialgebra-3x3", [], "sigma table size disagrees with the bialgebra dimension"),
    ("bialgebra-3x3", ["--axioms", ","], "--axioms names nothing; give at least one name"),
])
def test_refused_names_and_sizes_stderr_is_pinned(tmp_path, capsys, command, extra, want):
    """The library decides unknown names and the sigma size; the CLI maps
    its ValueError to exit 2 with the same bytes as before. A 3 x 3 sigma on
    k[Z/2] is refused before its names, unless they name nothing."""
    if command == "bialgebra-3x3":
        argv = _small_argv(tmp_path, "bialgebra-check")
        argv[-1] = _write(tmp_path, "s3.json", _SIGMA_3X3)
    else:
        argv = _small_argv(tmp_path, command)
    code, out, err = _run(capsys, argv + extra)
    assert (code, out, err) == (2, "", f"error: {want}\n")


def test_omitted_axioms_check_l1_to_l5(tmp_path, capsys):
    code, out, _ = _run(capsys, _small_argv(tmp_path, "bialgebra-check"))
    assert code == 0 and list(json.loads(out)["verdicts"]) == ["L1", "L2", "L4", "L3", "L5"]


def _name_lists(names):
    """Strings for a comma-separated name option: known names, near misses,
    blanks and arbitrary text, joined by commas, or any text at all."""
    token = st.one_of(st.sampled_from(list(names) + ["", " ", "bogus", names[0].upper(),
                                                     f" {names[-1]} "]),
                      st.text(max_size=4))
    return st.one_of(st.lists(token, max_size=4).map(",".join), st.text(max_size=8))


def _check_name_option(capsys, argv, option, text):
    """Run ``argv`` with ``option=text``: exit 0 or 1 with a verdict for
    each name given, and at least one given, or 2 with an ``error:`` line;
    never a traceback."""
    code, out, err = _run(capsys, argv + [f"{option}={text}"])
    if code == 2:
        assert out == "" and err.startswith("error: "), err
    else:
        assert code in (0, 1), err
        given_names = {tok.strip() for tok in text.split(",") if tok.strip()}
        assert given_names and set(json.loads(out)["verdicts"]) == given_names


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_name_lists(tensor_ops.LAWS))
@example("long,,qybe")
@example(" symmetric , hopf,long ")
@example("long,bogus")
def test_check_laws_fuzz_exits_0_1_or_2(tmp_path, capsys, text):
    _check_name_option(capsys, _small_argv(tmp_path, "check"), "--laws", text)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_name_lists(longeq.AXIOMS))
@example("L1,strongD,L1")
@example(" B1 , L5")
@example("L3,l3")
def test_bialgebra_check_axioms_fuzz_exits_0_1_or_2(tmp_path, capsys, text):
    # on H4, eps (x) eps fails B1, so exit 1 is reached too
    bi, sig = _bialgebra_files(tmp_path, sweedler_h4())
    _check_name_option(capsys, ["bialgebra-check", "--bialgebra", bi, "--sigma", sig],
                       "--axioms", text)


def test_check_missing_file_is_usage_error(capsys):
    code, _, err = _run(capsys, ["check", "--op", "/nonexistent/op.json"])
    assert code == 2
    assert err


def test_unparseable_arguments_are_usage_error(capsys):
    code, _, _ = _run(capsys, ["check"])
    assert code == 2


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_phi_then_check(tmp_path, capsys):
    code, out, _ = _run(capsys, ["construct", "phi", "--n", "2",
                                 "--map", "1,2"])
    assert code == 0
    op = _write(tmp_path, "op.json", json.loads(out))
    code, out, _ = _run(capsys, ["check", "--op", op])
    assert code == 0


def test_construct_phi_rejects_non_idempotent(capsys):
    code, _, err = _run(capsys, ["construct", "phi", "--n", "2",
                                 "--map", "2,1"])
    assert code == 2
    assert err


def test_construct_pair_matches_api(capsys):
    code, out, _ = _run(capsys, ["construct", "pair", "--n", "2",
                                 "--f", "2,1,0,2", "--g", "3,5,0,3"])
    assert code == 0
    assert operator_from_json(json.loads(out)) == make_pair(
        [[2, 1], [0, 2]], [[3, 5], [0, 3]]
    )


def test_construct_diag_fractions(capsys):
    code, out, _ = _run(capsys, ["construct", "diag", "--n", "2",
                                 "--a", "1/2,3,0,0"])
    assert code == 0
    entries = {(e["v"], e["u"], e["i"], e["j"]): e["coeff"]
               for e in json.loads(out)["entries"]}
    assert entries[(1, 1, 1, 1)] == "1/2"


_HOMOTHETY = {"rep": [[[1, 0], [0, 1]], [[2, 0], [0, 3]]],
              "element": [["1", 1, 1], ["2", 0, 1]]}
_GRADED = {"elements": ["e", "g"], "table": [[0, 1], [1, 0]],
           "actions": {"e": [[1, 0], [0, 1]], "g": [[1, 0], [0, -1]]},
           "degrees": ["e", "g"]}


def test_construct_spec_kinds_match_api(tmp_path, capsys, corpus):
    """``construct homothety`` and ``construct graded`` build the corpus
    operators from their JSON specs (indices 0-based)."""
    for kind, spec, name in (("homothety", _HOMOTHETY, "homothety"),
                             ("graded", _GRADED, "graded_z2")):
        path = _write(tmp_path, f"{kind}.json", spec)
        code, out, _ = _run(capsys, ["construct", kind, "--spec", path])
        assert code == 0
        assert operator_from_json(json.loads(out)) == corpus[name]


@pytest.mark.parametrize("kind, spec, want", [
    ("graded", [_GRADED], "spec must be a JSON object, got list"),
    ("homothety", [_HOMOTHETY], "spec must be a JSON object, got list"),
    ("graded", dict(_GRADED, actions=list(_GRADED["actions"].values())),
     "actions must be an object"),
    ("graded", dict(_GRADED, elements=5), "elements must be a list, got int"),
    ("graded", dict(_GRADED, elements=[["e"], "g"]), "elements must be JSON scalars"),
    ("graded", dict(_GRADED, table=3), "table must be a list, got int"),
    ("graded", dict(_GRADED, degrees=7), "degrees must be a list, got int"),
    ("graded", dict(_GRADED, actions=dict(_GRADED["actions"], e=3)),
     "action 'e' must be a list, got int"),
    ("homothety", dict(_HOMOTHETY, rep=3), "rep must be a list, got int"),
    ("homothety", dict(_HOMOTHETY, rep=[3, 4]), "rep matrix must be a list, got int"),
    ("homothety", dict(_HOMOTHETY, element=7), "element must be a list, got int"),
    ("homothety", dict(_HOMOTHETY, element=[["x", 0, 0], ["2", 0]]),
     "element terms must be [coeff, left index, right index] lists"),
    ("graded", dict(_GRADED, table=[[0, 1], [1]]),
     "table must be 2 x 2, a row of element indices per element"),
    ("graded", dict(_GRADED, table=[[0, 1]]),
     "table must be 2 x 2, a row of element indices per element"),
    ("graded", dict(_GRADED, degrees=["e"]), "action 'e' must be 1 x 1, n = len(degrees)"),
    ("homothety", dict(_HOMOTHETY, rep=[[[1, 0], [0, 1]], [[2, 0, 0], [0, 3, 0], [0, 0, 1]]]),
     "rep must be a nonempty list of n x n matrices, n >= 1 the rows of rep[0]"),
    ("homothety", dict(_HOMOTHETY, rep=[[[1, 0, 0], [0, 1, 0]], [[2, 0], [0, 3]]]),
     "rep must be a nonempty list of n x n matrices, n >= 1 the rows of rep[0]"),
    ("graded", {"elements": [0], "table": [[0]], "actions": {}},
     "graded spec is missing 'degrees'"),
    ("homothety", {"rep": []}, "homothety spec is missing 'element'"),
    ("graded", {}, "graded spec is missing 'elements', 'table', 'actions', 'degrees'"),
], ids=["graded-list", "homothety-list", "graded-list-actions", "graded-int-elements",
        "graded-list-element", "graded-int-table", "graded-int-degrees", "graded-int-action",
        "homothety-int-rep", "homothety-int-matrices", "homothety-int-element",
        "homothety-short-term", "graded-short-row", "graded-missing-row",
        "graded-action-size", "homothety-rep-size", "homothety-rep-not-square",
        "graded-no-degrees", "homothety-no-element", "graded-empty"])
def test_construct_spec_of_wrong_type_is_usage_error(tmp_path, capsys, kind, spec, want):
    """A spec that is a JSON list, that lacks a key, or that has a field of
    the wrong JSON type or shape, exits 2 with an ``error:`` line naming the
    field instead of a TypeError or AttributeError. The parent read a short
    table row as "list index out of range", a rep matrix of another size as
    "dimension mismatch" and a 2 x 2 action at n = 1 as an identity that
    does not act as the identity; a missing key printed only its name."""
    path = _write(tmp_path, "spec.json", spec)
    code, out, err = _run(capsys, ["construct", kind, "--spec", path])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and want in err


_SPEC_KEYS = {"graded": ("elements", "table", "actions", "degrees"),
              "homothety": ("rep", "element")}
_SPEC_ENTRY = st.one_of(st.sampled_from([0, 1, -1, 2, "1", "-1/2", "0", "x", True, None]),
                        _JSON_SCALAR)
_SPEC_INDEX = st.one_of(st.integers(-1, 3), _SPEC_ENTRY)


@st.composite
def _spec_matrix(draw, n):
    """An n x n matrix: the identity, a diagonal of small integers, or
    entries of any kind in rows of up to n + 1 entries."""
    diag = draw(st.lists(st.sampled_from([1, 1, -1, 2]), min_size=n, max_size=n))
    square = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return draw(st.one_of(st.just(square), st.lists(st.lists(
        _SPEC_ENTRY, max_size=n + 1), min_size=max(0, n - 1), max_size=n + 1)))


def _near(draw, obj):
    """``obj`` with at most one key dropped or given any JSON value."""
    key = draw(st.sampled_from([None, *obj]))
    if key is not None:
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_JSON_ANY)
    return obj


@st.composite
def _graded_specs(draw):
    """Graded specs near the valid ones: Z/k for k <= 3 with its table,
    an entry of which may be anything, degrees of n <= 3 elements, and
    actions that are often diagonal n x n; then at most one key dropped
    or given any JSON value."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    elements = ["e", "g", "h"][:k]
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    if draw(st.booleans()):
        table[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = draw(_SPEC_INDEX)
    if draw(st.booleans()):
        table[-1] = table[-1][:-1]
    return _near(draw, {
        "elements": elements, "table": table,
        "actions": {g: draw(_spec_matrix(n)) for g in elements},
        "degrees": draw(st.lists(st.sampled_from(elements + [0]), min_size=n, max_size=n))})


@st.composite
def _homothety_specs(draw):
    """Homothety specs near the valid ones: up to three n x n matrices,
    n <= 3, often diagonal, and terms of up to four items whose indices
    are near range; then at most one key dropped or given any JSON
    value."""
    n = draw(st.integers(0, 3))
    term = st.lists(st.one_of(st.sampled_from(["1", "-2", "1/3", 2]), _SPEC_INDEX),
                    min_size=3, max_size=3) | st.lists(_SPEC_INDEX, max_size=4)
    return _near(draw, {"rep": draw(st.lists(_spec_matrix(n), max_size=3)),
                        "element": draw(st.lists(term, max_size=3))})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.tuples(st.just("graded"), st.one_of(_graded_specs(), _JSON_ANY)),
                 st.tuples(st.just("homothety"), st.one_of(_homothety_specs(), _JSON_ANY))))
@example(("graded", _GRADED))
@example(("homothety", _HOMOTHETY))
@example(("graded", dict(_GRADED, table=[[0, 1], [1]])))
@example(("homothety", dict(_HOMOTHETY, rep=[[[1, 0], [0, 1]], [[2]]])))
@example(("graded", {key: v for key, v in _GRADED.items() if key != "degrees"}))
@example(("homothety", {"rep": []}))
def test_construct_spec_fuzz_exits_0_or_2(tmp_path, capsys, case):
    """``construct graded|homothety --spec`` on fuzzed specs exits 0 with
    an operator, or 2 with an ``error:`` line; it never raises. A spec
    object without one of its kind's keys (``_near`` drops one at random)
    exits 2, and the ``error:`` line names the kind and every missing key."""
    kind, spec = case
    capsys.readouterr()
    code, out, err = _run(capsys, ["construct", kind, "--spec",
                                   _write(tmp_path, "spec.json", spec)])
    missing = [key for key in _SPEC_KEYS[kind] if isinstance(spec, dict) and key not in spec]
    if missing:
        line = err.splitlines()[-1]
        assert code == 2 and line.startswith(f"error: {kind} spec is missing "), err
        assert all(repr(key) in line for key in missing), err
    if code == 2:
        assert "error:" in err.splitlines()[-1], err
        assert out == ""
    else:
        assert code == 0 and isinstance(operator_from_json(json.loads(out)), TensorOp2), err


@pytest.mark.parametrize("n, f, g", [
    ("3", "1,0,0,1", "2,0,0,1"),
    ("1", "1,0,0,1", "2,0,0,1"),
    ("2", "1,0,0,1", "1,0,0,0,1,0,0,0,1"),
])
def test_construct_pair_checks_n(capsys, n, f, g):
    code, out, err = _run(capsys, ["construct", "pair", "--n", n, "--f", f, "--g", g])
    assert code == 2
    assert out == ""
    assert "--f and --g must be n x n" in err


_CONSTRUCT_N3 = {
    "phi": ["--n", "3", "--map", "1,2,3"],
    "diag": ["--n", "3", "--a", "1,2,3,4,5,6,7,8,9"],
    "pair": ["--n", "3", "--f", "1,0,0,0,1,0,0,0,1", "--g", "2,0,0,0,1,0,0,0,1"],
    "graded": {"elements": ["e", "g"], "table": [[0, 1], [1, 0]],
               "actions": {"e": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                           "g": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]},
               "degrees": ["e", "g", "e"]},
    "homothety": {"rep": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], "element": [["2", 0, 0]]},
}


@pytest.mark.parametrize("kind", list(_CONSTRUCT_N3))
def test_construct_refuses_n_cubed_above_the_cap(tmp_path, capsys, monkeypatch, kind):
    """Every constructor kind refuses n = 3 (n^3 = 27) under a cap of 8
    with exit 2, and its ``make_*`` builds no operator; without the cap the
    same arguments build the operator."""
    args = _CONSTRUCT_N3[kind]
    if isinstance(args, dict):
        args = ["--spec", _write(tmp_path, "spec.json", args)]
    code, out, _ = _run(capsys, ["construct", kind, *args])
    assert code == 0 and json.loads(out)["dim"] == 3
    monkeypatch.setenv("LONGEQ_MAX_DIM", "8")
    monkeypatch.setattr(longeq.tensor_ops, "TensorOp2", lambda *a: pytest.fail("built"))
    code, out, err = _run(capsys, ["construct", kind, *args])
    assert (code, out) == (2, "")
    assert err == "error: operator dim 3: n^3 = 27 exceeds cap 8\n"


def test_construct_pair_noncommuting_is_usage_error(capsys):
    code, _, err = _run(capsys, ["construct", "pair", "--n", "2",
                                 "--f", "1,1,0,1", "--g", "1,0,1,1"])
    assert code == 2
    assert err


# ---------------------------------------------------------------------------
# frt / roundtrip
# ---------------------------------------------------------------------------


def test_frt_json_contains_presentation(tmp_path, capsys):
    op = _write(tmp_path, "op.json",
                operator_to_json(make_phi(4, [1, 2, 2, 2])))
    code, out, _ = _run(capsys, ["frt", "--op", op])
    obj = json.loads(out)
    assert code == 0
    assert len(obj["generators"]) == 6
    assert set(obj) >= {"generators", "relations", "delta", "epsilon", "sigma"}


def test_frt_present_text(tmp_path, capsys):
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    code, out, _ = _run(capsys, ["frt", "--op", op, "--present"])
    assert code == 0
    assert "generators" in out.lower() or "c_" in out


def test_frt_rejects_non_solution(tmp_path, capsys):
    bad = TensorOp2(2, [[0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]])
    op = _write(tmp_path, "op.json", operator_to_json(bad))
    code, _, err = _run(capsys, ["frt", "--op", op])
    assert code == 1
    assert err


def test_roundtrip_command(tmp_path, capsys):
    op = _write(tmp_path, "op.json",
                operator_to_json(make_phi(3, [1, 1, 3])))
    code, out, _ = _run(capsys, ["roundtrip", "--op", op])
    assert code == 0
    assert json.loads(out)["verdicts"] == {"round_trip": True}


def test_build_decides_each_fact_once(tmp_path, capsys, monkeypatch, corpus):
    """``build_LR`` (and so ``frt``) runs neither the L1 check, the round
    trip nor the coset table, which follow from descent; ``roundtrip``
    calls ``round_trip`` exactly once, which forms the coset table by one
    ``_pullback``."""
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("check_L1_on_generators", "round_trip", "_pullback"):
        monkeypatch.setattr(frt, name, spy(name, getattr(frt, name)))
    monkeypatch.setattr(cli, "round_trip", frt.round_trip)  # cli binds it by name
    for r in corpus.values():
        frt.build_LR(r)
    op = _write(tmp_path, "op.json", operator_to_json(corpus["pair_235"]))
    assert _run(capsys, ["frt", "--op", op])[0] == 0
    assert _run(capsys, ["frt", "--op", op, "--present"])[0] == 0
    assert calls == []
    assert _run(capsys, ["roundtrip", "--op", op])[0] == 0
    assert calls == ["round_trip", "_pullback"]


def test_roundtrip_mismatch_is_internal_error(tmp_path, capsys, monkeypatch):
    """``roundtrip`` compares ``round_trip`` with the input itself: a coset
    form that gave back another operator exits 70."""
    other = make_phi(3, [1, 1, 1])
    monkeypatch.setattr(cli, "round_trip", lambda pres: other)
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(3, [1, 1, 3])))
    code, out, err = _run(capsys, ["roundtrip", "--op", op])
    assert (code, out) == (70, "")
    assert err == "internal error: coset form does not reproduce the input operator\n"


_ELAPSED = re.compile(r',\n\s*"elapsed_s": [^,\n}]*')


_IDENTITY_2 = TensorOp2(2, la.identity(4))
_PAIR_111 = make_pair([[1, 1], [0, 1]], [[1, 1], [0, 1]])  # c_1_1 = c_2_2 modulo V


@pytest.mark.parametrize("r, naming, message", [
    (_IDENTITY_2, {"c_0_1": "x"}, "bad naming key 'c_0_1'; expected c_i_j with 1 <= i, j <= 2"),
    (_IDENTITY_2, {"c_-1_1": "x"},
     "bad naming key 'c_-1_1'; expected c_i_j with 1 <= i, j <= 2"),
    (_IDENTITY_2, {"c_3_1": "x"}, "bad naming key 'c_3_1'; expected c_i_j with 1 <= i, j <= 2"),
    (_IDENTITY_2, {"c_01_1": "x"},
     "bad naming key 'c_01_1'; expected c_i_j with 1 <= i, j <= 2"),
    (_IDENTITY_2, {"c_1_1": "x", "c_2_2": "x"}, "naming gives two generators the name 'x'"),
    (_IDENTITY_2, {"c_1_1": "c_2_2"}, "naming gives two generators the name 'c_2_2'"),
    (_IDENTITY_2, {"c_1_1": ["x"]}, "naming value for 'c_1_1' must be a string"),
    (_IDENTITY_2, {"c_1_1": 7}, "naming value for 'c_1_1' must be a string"),
    (_IDENTITY_2, [1, 2], "naming must be a JSON object mapping c_i_j to names"),
    (_IDENTITY_2, "c_1_1", "naming must be a JSON object mapping c_i_j to names"),
    (_IDENTITY_2, None, "naming must be a JSON object mapping c_i_j to names"),
    (_PAIR_111, {"c_1_1": "a", "c_2_2": "b"},
     "naming keys 'c_1_1' and 'c_2_2' rename the same generator"),
], ids=["zero-index", "negative-index", "past-end-index", "padded-index", "same-name",
        "canonical-name", "list-value", "int-value", "list-file", "string-file",
        "null-file", "same-generator"])
def test_frt_naming_bad_input_is_usage_error(tmp_path, capsys, r, naming, message):
    """A naming file must be an object whose keys are c_i_j, 1 <= i, j <= n,
    and whose values are strings, distinct from each other and from the
    canonical names left. The parent renamed c_2_1 for c_0_1 (a wrapped
    index), kept duplicate names, stringified a list, ended a list file
    in a TypeError traceback and read a file holding null as no naming."""
    op = _write(tmp_path, "op.json", operator_to_json(r))
    code, out, err = _run(capsys, ["frt", "--op", op, "--naming",
                                   _write(tmp_path, "naming.json", naming)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_frt_empty_naming_path_is_usage_error(tmp_path, capsys):
    """``--naming ""`` names no file: it exits 2 like any missing file,
    where the parent read no file and exited 0 as if no naming were given."""
    op = _write(tmp_path, "op.json", operator_to_json(_IDENTITY_2))
    code, out, err = _run(capsys, ["frt", "--op", op, "--naming", ""])
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_frt_naming_swaps_and_keeps_canonical_names(tmp_path, capsys):
    """Names may swap two canonical labels; a renamed label's canonical name
    is free for another generator."""
    op = _write(tmp_path, "op.json", operator_to_json(_IDENTITY_2))
    naming = {"c_1_1": "c_2_2", "c_2_2": "c_1_1", "c_1_2": "y"}
    code, out, _ = _run(capsys, ["frt", "--op", op, "--naming",
                                 _write(tmp_path, "naming.json", naming)])
    assert code == 0
    report = json.loads(out)
    assert report["generators"] == ["c_2_2", "y", "c_2_1", "c_1_1"]
    assert report["naming"] == naming
    assert sorted(report["epsilon"]) == sorted(report["generators"])


# indices near 1..n: out of range, padded, signed, blank, non-ASCII, empty
_NAMING_INDEX = st.one_of(st.integers(-1, 4).map(str),
                          st.sampled_from(["01", " 1", "1 ", "+1", "\u0661", "\uff12", "1_0", ""]))
_NAMING_LABEL = st.sampled_from(["c_1_1", "c_1_2", "c_2_1", "c_2_2"])
_NAMING_KEY = st.one_of(
    _NAMING_LABEL,
    st.builds("c_{}_{}".format, _NAMING_INDEX, _NAMING_INDEX),
    st.sampled_from(["c_1", "c_1_1_1", "C_1_1", "c__1_1", "c_1_1 ", "c-1-1", ""]),
    st.text(max_size=6))
_NAMING_VALUE = st.one_of(st.sampled_from(["c_1_1", "c_2_2", "c_1_2", "c_2_1", "x", ""]),
                          st.text(max_size=4), _JSON_ANY)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["identity", "pair"]),
       st.one_of(st.dictionaries(_NAMING_LABEL, st.text(max_size=4), max_size=4),
                 st.dictionaries(_NAMING_KEY, _NAMING_VALUE, max_size=4), _JSON_ANY))
@example("identity", {"c_1_1": "c_2_2", "c_2_2": "c_1_1"})
@example("pair", {"c_1_1": "a", "c_2_2": "b"})
@example("identity", {"c_1_1": None})
@example("identity", None)
def test_frt_naming_fuzz_exits_0_or_2(tmp_path, capsys, which, naming):
    """``frt --naming`` on fuzzed JSON, objects with keys near ``c_i_j``
    and values of every JSON type, lists and scalars, exits 0 with the
    naming applied or 2 with an ``error:`` line; it never raises. Only an
    object is applied: a file holding null exits 2."""
    r = {"identity": _IDENTITY_2, "pair": _PAIR_111}[which]
    op = _write(tmp_path, "op.json", operator_to_json(r))
    capsys.readouterr()
    code, out, err = _run(capsys, ["frt", "--op", op, "--naming",
                                   _write(tmp_path, "naming.json", naming)])
    if code == 2:
        assert "error:" in err.splitlines()[-1], err
        assert out == ""
        return
    assert code == 0 and isinstance(naming, dict), err
    report = json.loads(out)
    assert report["naming"] == naming
    assert len(set(report["generators"])) == len(report["generators"])
    assert set(report["naming"].values()) <= set(report["generators"])


def test_parser_is_built_once_and_matches_a_fresh_parser(tmp_path, capsys, monkeypatch):
    """A sequence of calls through the one shared parser gives, call by
    call, the exit code, stdout and stderr of a fresh parser per call; the
    handler is looked up when the command runs, and the roundtrip default
    naming=None does not carry over from an earlier ``frt --naming``."""
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(4, [1, 2, 2, 2])))
    naming = _write(tmp_path, "naming.json", {"c_1_1": "g", "c_3_3": "h"})
    seen = []
    original = cli.cmd_roundtrip

    def spy(args):
        seen.append(args.naming)
        return original(args)

    monkeypatch.setattr(cli, "cmd_roundtrip", spy)
    sequence = [["frt", "--op"], ["frt", "--op", op, "--naming", naming],
                ["roundtrip", "--op", op], ["--help"]]

    def run_all():
        results = []
        for argv in sequence:
            code, out, err = _run(capsys, argv)
            results.append((code, _ELAPSED.sub("", out), err))
        return results

    shared = run_all()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_all()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0]
    assert "usage: longeq frt" in shared[0][2] and not shared[0][1]
    assert '"g"' in shared[1][1] and "usage: longeq" in shared[3][1]
    assert seen == [None, None]


# ---------------------------------------------------------------------------
# kz
# ---------------------------------------------------------------------------


def test_kz_compare_forms_no_dense_oracle(tmp_path, capsys, monkeypatch):
    """``kz --compare`` at n = 4, N = 4 (d = 256) measures the distance
    with ``lift_float`` made to raise, and reports the float of the dense
    difference of the written W from the lift of ``circle_block``."""
    r = make_phi(4, [1, 2, 2, 2])
    op = _write(tmp_path, "op.json", operator_to_json(r))
    loop = _write(tmp_path, "loop.json", {
        "base": [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [0.0, 20.0]], "kind": "circle",
        "steps": 16, "moving": 2, "center": 1, "radius": 0.5})

    def refuse(*args):
        raise AssertionError("a d x d oracle was formed")

    with monkeypatch.context() as m:
        m.setattr(kz, "lift_float", refuse)
        code, out, err = _run(capsys, ["kz", "--op", op, "--points", "4", "--h", "0.1",
                                       "--loop", loop, "--compare"])
    assert code == 0, err
    report = json.loads(out)
    w = np.array(report["matrix"]).view(complex)[..., 0]
    system = kz.KZSystem.from_op(r, 4, 0.1)
    assert w.shape == (256, 256)
    assert report["oracle_distance"] == float(
        np.max(np.abs(w - kz.lift_float(kz.circle_block(system), 4, 1, 0, 4))))
    assert report["oracle_distance"] < 1e-6


def _kz_files(tmp_path, r):
    op = _write(tmp_path, "op.json", operator_to_json(r))
    loop = _write(tmp_path, "loop.json", {
        "base": [[1.0, 0.0], [0.0, 0.0]],
        "kind": "circle",
        "steps": 64,
        "moving": 1,
        "center": 2,
        "radius": 0.5,
    })
    return op, loop


def test_kz_compare_symmetric(tmp_path, capsys):
    op, loop = _kz_files(tmp_path, make_phi(2, [1, 1]))
    code, out, _ = _run(capsys, ["kz", "--op", op, "--points", "2",
                                 "--h", "0.05", "--loop", loop, "--compare"])
    obj = json.loads(out)
    assert code == 0
    assert obj["oracle_distance"] < 1e-6
    assert all(obj["residuals"].values())
    # --steps rebuilds the loop; the rebuilt circle keeps its fixed-point centre
    code, out, _ = _run(capsys, ["kz", "--op", op, "--points", "2", "--h", "0.05",
                                 "--loop", loop, "--steps", "32", "--compare"])
    assert code == 0 and json.loads(out)["oracle_distance"] < 1e-6


_FLIP = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
_EQUATION_1 = "comparison mode requires an operator that satisfies Long equation 1, [R12, R13] = 0"


@pytest.mark.parametrize("matrix", [_FLIP, [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0],
                                            [0, 0, 0, 0]]], ids=["flip", "one_minus_flip"])
def test_kz_compare_rejects_operators_failing_equation_1(tmp_path, capsys, matrix):
    """The flip P and I - P are flip-invariant and pass the KZ bracket, but
    fail Long equation 1, on which the ``--compare`` oracle rests: with
    base 0, 1, 10, point 2 about point 3, radius 0.5 and h = 0.05 its
    distance from RK4 read 8.8e-4 at 16 to 1,024 steps. ``--compare``
    refuses them, naming the equation."""
    r = TensorOp2(2, matrix)
    assert tensor_ops.check_laws(r, ["symmetric", "kz_bracket"]) == {"symmetric": True,
                                                                     "kz_bracket": True}
    op, loop = _kz_files(tmp_path, r)
    code, out, err = _run(capsys, ["kz", "--op", op, "--points", "2",
                                   "--h", "0.05", "--loop", loop, "--compare"])
    assert (code, out, err) == (2, "", f"error: {_EQUATION_1}\n")


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("name", ["pair", "pair_235"])
def test_kz_compare_accepts_nonsymmetric_long_operators(tmp_path, capsys, corpus, name, N):
    """Long equation 1 is all the ``--compare`` oracle needs: on F1's pair
    and on ``pair_235``, Long and not flip-invariant, point 2 circling
    point 1 exits 0 with the oracle within 1e-6 at N = 2, 3 and 4."""
    r = (make_pair([[1, 1], [0, 1]], [[1, 2], [0, 1]]) if name == "pair"
         else corpus[name])
    assert tensor_ops.check_laws(r, ["long", "symmetric"]) == {"long": True,
                                                               "symmetric": False}
    op = _write(tmp_path, "op.json", operator_to_json(r))
    loop = _write(tmp_path, "loop.json", {
        "base": [[0.0, 0.0], [0.5, 0.0], [0.0, 20.0], [-15.0, 0.0]][:N], "kind": "circle",
        "steps": 256, "moving": 2, "center": 1, "radius": 0.5,
    })
    code, out, err = _run(capsys, ["kz", "--op", op, "--points", str(N), "--h", "0.05",
                                   "--loop", loop, "--compare"])
    assert (code, err) == (0, "")
    assert json.loads(out)["oracle_distance"] <= 1e-6


def test_kz_without_compare_reports_holonomy(tmp_path, capsys, corpus):
    op, loop = _kz_files(tmp_path, corpus["pair_235"])
    code, out, _ = _run(capsys, ["kz", "--op", op, "--points", "2",
                                 "--h", "0.1,0.05", "--loop", loop,
                                 "--steps", "32"])
    obj = json.loads(out)
    assert code == 0
    assert len(obj["matrix"]) == 4
    assert "residuals" in obj


def test_kz_without_compare_exits_0_on_failing_residual(tmp_path, capsys):
    # residuals are reported data; only --compare turns a failure into exit 1
    r = TensorOp2(2, [[0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]])
    op = _write(tmp_path, "op.json", operator_to_json(r))
    loop = _write(tmp_path, "loop.json", {
        "base": [[1.0, 0.0], [0.0, 0.0], [10.0, 0.0]], "kind": "circle",
        "steps": 16, "moving": 1, "center": 2, "radius": 0.5,
    })
    code, out, _ = _run(capsys, ["kz", "--op", op, "--points", "3",
                                 "--h", "0.05", "--loop", loop])
    assert code == 0
    assert not all(json.loads(out)["residuals"].values())


def test_kz_compare_exits_1_on_failing_bracket(tmp_path, capsys):
    """An operator that satisfies Long equation 1, [R12, R13] = 0, and fails
    [R12, R13 + R23] = 0 passes the ``--compare`` usage checks; the full
    report, oracle distance included, goes to stdout and the failing
    residuals make the exit code 1."""
    r = TensorOp2(2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    z12, z13, _ = r.lifts
    assert tensor_ops._commute(z12, z13)
    assert not tensor_ops.check_laws(r, ["kz_bracket"])["kz_bracket"]
    op = _write(tmp_path, "op.json", operator_to_json(r))
    loop = _write(tmp_path, "loop.json", {
        "base": [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]], "kind": "circle",
        "steps": 16, "moving": 2, "center": 3, "radius": 0.5,
    })
    code, out, err = _run(capsys, ["kz", "--op", op, "--points", "3", "--h", "0.05",
                                   "--loop", loop, "--compare"])
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert sorted(report) == ["N", "elapsed_s", "format_version", "h", "matrix", "n",
                              "oracle_distance", "residuals"]
    assert len(report["residuals"]) == 6 and not any(report["residuals"].values())
    assert (report["N"], report["n"], len(report["matrix"])) == (3, 2, 8)
    system = kz.KZSystem.from_op(r, 3, 0.05)
    spec = jsonio.loop_from_json(json.loads(pathlib.Path(loop).read_text()))
    w = kz.integrate_holonomy(system, spec)
    assert report["oracle_distance"] == kz.oracle_distance(system, w, 1, 2)


@pytest.mark.parametrize("argv, message", [
    (["kz", "--points", "1", "--h", "0.1"], "N must be >= 2"),
    (["construct", "diag", "--n", "2", "--a", "1,2,3"],
     "--a must have a square number of entries"),
])
def test_cli_refusals_exit_2(tmp_path, capsys, argv, message):
    if argv[0] == "kz":
        argv += ["--op", _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1]))),
                 "--loop", _write(tmp_path, "loop.json", {
                     "base": [[0.0, 0.0]], "kind": "circle", "steps": 8, "moving": 1,
                     "center": [1.0, 0.0], "radius": 0.5})]
    assert _run(capsys, argv) == (2, "", f"error: {message}\n")


def _refuse(*args, **kwargs):
    raise RuntimeError("the usage checks must run first")


@pytest.mark.parametrize("case", ["cap", "equation_1", "explicit_center",
                                  "encloses_second_point"])
def test_kz_usage_checks_precede_brackets_and_integration(tmp_path, capsys,
                                                          monkeypatch, case):
    """Each usage error exits 2 before any bracket or integration.
    ``encloses_second_point``: point 2 circling point 1 (at 0) at radius 2
    also encloses point 3 (at 1.6), where the oracle is not exact:
    at h = 0.05 and 64 steps the integrated holonomy lies 0.31 from it."""
    monkeypatch.setattr(kz, "flatness_residuals", _refuse)
    monkeypatch.setattr(kz, "integrate_holonomy", _refuse)
    r = TensorOp2(2, _FLIP) if case == "equation_1" else make_phi(2, [1, 1])
    op, loop = _kz_files(tmp_path, r)
    argv = ["kz", "--op", op, "--points", "2", "--h", "0.05", "--loop", loop]
    if case == "cap":
        # n^3 = 8 passes the operator guard; n^N = 16 fails the lift cap
        monkeypatch.setenv("LONGEQ_MAX_DIM", "8")
        loop = _write(tmp_path, "loop.json", {
            "base": [[1.0, 0.0], [0.0, 0.0], [5.0, 0.0], [9.0, 0.0]],
            "kind": "circle", "steps": 64, "moving": 1, "center": 2, "radius": 0.5,
        })
        argv = ["kz", "--op", op, "--points", "4", "--h", "0.05", "--loop", loop]
        want = "n^N = 16 exceeds cap 8"
    elif case == "equation_1":
        argv.append("--compare")
        want = _EQUATION_1
    elif case == "explicit_center":
        loop = _write(tmp_path, "loop.json", {
            "base": [[1.0, 0.0], [0.0, 0.0]], "kind": "circle", "steps": 64,
            "moving": 1, "center": [0.0, 0.0], "radius": 0.5,
        })
        argv = argv[:-1] + [loop, "--compare"]
        want = "comparison mode requires a circle loop centered on a fixed point"
    else:
        loop = _write(tmp_path, "loop.json", {
            "base": [[0.0, 0.0], [1.0, 0.0], [1.6, 0.0]], "kind": "circle", "steps": 64,
            "moving": 2, "center": 1, "radius": 2.0,
        })
        argv = ["kz", "--op", op, "--points", "3", "--h", "0.05", "--loop", loop, "--compare"]
        want = "comparison mode requires a circle that encloses no fixed point besides its centre"
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {want}\n")


def test_kz_lift_memory_cap_is_usage_error(tmp_path, capsys, monkeypatch):
    """n = 4, N = 6 is dim 4096, within LONGEQ_MAX_DIM, but integrating a
    circle there would hold more than 512 MiB: its five live pairs give
    E = 5 * 4^4 * nnz(R) = 20480 lift entries, so the cost rule picks
    *apply*, whose six 4096 x 4096 arrays alone exceed the cap. The command
    exits 2 before the brackets and before any operator or lift is built."""
    monkeypatch.delenv("LONGEQ_MAX_DIM", raising=False)
    for name in ("flatness_residuals", "integrate_holonomy", "segment_operator",
                 "lift_float"):
        monkeypatch.setattr(kz, name, _refuse)
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(4, [1, 1, 1, 1])))
    loop = _write(tmp_path, "loop.json", {
        "base": [[1.0, 0.0], [0.0, 0.0], [6.0, 0.0], [12.0, 0.0], [18.0, 0.0], [24.0, 0.0]],
        "kind": "circle", "steps": 16, "moving": 1, "center": 2, "radius": 0.5,
    })
    code, out, err = _run(capsys, ["kz", "--op", op, "--points", "6", "--h", "0.05",
                                   "--loop", loop])
    assert (code, out) == (2, "")
    entries = 5 * 4 ** 4 * 16
    need = 16 * (6 * 4096 ** 2 + 2 * (2 * 2 ** 16 + 3 * entries)) + 128 * entries
    assert need > 2 ** 29
    assert f"holonomy integration needs {need} bytes" in err


_CIRCLE = {"base": [[1.0, 0.0], [0.0, 0.0]], "kind": "circle", "steps": 64,
           "moving": 1, "center": 2, "radius": 0.5}
_SQUARE = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [1.0, 1.0]]
_POLYGON = {"base": [[1.0, 1.0], [0.0, 0.0]], "kind": "polygon", "steps": 64,
            "waypoints": [_SQUARE, [[0.0, 0.0]] * 5]}


@pytest.mark.parametrize("loop_obj, want", [
    (dict(_CIRCLE, steps=None), "steps must be an integer"),
    (dict(_CIRCLE, steps="64"), "steps must be an integer"),
    (dict(_CIRCLE, moving=None), "'moving' must be a 1-based index"),
    (dict(_CIRCLE, center=None), "'center' must be a 1-based index"),
    (dict(_CIRCLE, center=[float("nan"), 0.0]), "center must be a finite"),
    (dict(_CIRCLE, radius=float("nan")), "radius must be a finite"),
    (dict(_CIRCLE, radius=float("inf")), "radius must be a finite"),
    (dict(_CIRCLE, radius="0.5"), "radius must be a finite"),
    (dict(_CIRCLE, base=[[float("inf"), 0.0], [0.0, 0.0]]), "base point must be a finite"),
    (dict(_CIRCLE, base=[[None, 0.0], [0.0, 0.0]]), "base point must be an [re, im] pair"),
    (dict(_POLYGON, waypoints=[_SQUARE, [[0.0, float("nan")]] * 5]),
     "waypoint must be a finite"),
    (dict(_CIRCLE, center=1), "center index out of range"),
    (dict(_CIRCLE, radius=0), "radius must be positive"),
    ({k: v for k, v in _CIRCLE.items() if k != "radius"},
     "circle loop JSON needs moving/center/radius"),
    ({k: v for k, v in _POLYGON.items() if k != "waypoints"},
     "polygon loop JSON needs waypoint paths"),
    (dict(_CIRCLE, base=[[10 ** 400, 0.0], [0.0, 0.0]]), "base point is out of the float range"),
], ids=["steps-null", "steps-str", "moving-null", "center-null", "center-nan",
        "radius-nan", "radius-inf", "radius-str", "base-inf", "base-null",
        "waypoint-nan", "center-moving", "radius-zero", "radius-missing",
        "waypoints-missing", "base-huge"])
def test_kz_malformed_loop_is_usage_error(tmp_path, capsys, loop_obj, want):
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    loop = _write(tmp_path, "loop.json", loop_obj)
    code, out, err = _run(capsys, ["kz", "--op", op, "--points", "2",
                                   "--h", "0.05", "--loop", loop, "--compare"])
    assert (code, out) == (2, "")
    assert want in err


@pytest.mark.parametrize("source", ["loop", "flag"])
def test_kz_steps_above_cap_is_usage_error(tmp_path, capsys, monkeypatch, source):
    """``steps`` above ``kz.MAX_STEPS`` exits 2 before the separation guard
    samples the loop, and without integrating; from the loop JSON and from
    ``--steps``."""
    guard = kz.LoopSpec._check_separation

    def small_loops_only(loop):
        if loop.steps > kz.MAX_STEPS:
            raise RuntimeError("the step cap must precede the separation guard")
        guard(loop)

    monkeypatch.setattr(kz.LoopSpec, "_check_separation", small_loops_only)
    monkeypatch.setattr(kz, "flatness_residuals", _refuse)
    monkeypatch.setattr(kz, "integrate_holonomy", _refuse)
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    too_many = kz.MAX_STEPS + 1
    argv = ["kz", "--op", op, "--points", "2", "--h", "0.05"]
    if source == "loop":
        argv += ["--loop", _write(tmp_path, "loop.json", dict(_CIRCLE, steps=too_many))]
    else:
        argv += ["--loop", _write(tmp_path, "loop.json", _CIRCLE), "--steps", str(too_many)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"steps must be at most {kz.MAX_STEPS}" in err


def test_kz_steps_rebuilds_a_polygon_loop(tmp_path, capsys):
    """``--steps`` on a polygon loop gives the report of the loop file with
    that step count."""
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    argv = ["kz", "--op", op, "--points", "2", "--h", "0.05", "--loop"]
    reports = []
    for loop_obj, steps in ((_POLYGON, ["--steps", "12"]), (dict(_POLYGON, steps=12), [])):
        code, out, err = _run(capsys, argv + [_write(tmp_path, "loop.json", loop_obj), *steps])
        assert (code, err) == (0, "")
        reports.append({k: v for k, v in json.loads(out).items() if k != "elapsed_s"})
    assert reports[0] == reports[1]


def test_kz_steps_zero_is_usage_error(tmp_path, capsys, monkeypatch):
    """``--steps 0`` is refused, not read as "no override"."""
    monkeypatch.setattr(kz, "integrate_holonomy", _refuse)
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    code, out, err = _run(capsys, ["kz", "--op", op, "--points", "2", "--h", "0.05",
                                   "--loop", _write(tmp_path, "loop.json", _CIRCLE),
                                   "--steps", "0"])
    assert (code, out) == (2, "")
    assert "steps must be positive" in err


@pytest.mark.parametrize("h", ["nan", "0.1,inf", "1e400"])
def test_kz_non_finite_h_is_usage_error(tmp_path, capsys, h):
    op, loop = _kz_files(tmp_path, make_phi(2, [1, 1]))
    code, out, err = _run(capsys, ["kz", "--op", op, "--points", "2",
                                   "--h", h, "--loop", loop, "--compare"])
    assert (code, out) == (2, "")
    assert "--h must be finite" in err


def test_kz_points_mismatch_is_usage_error(tmp_path, capsys):
    op, loop = _kz_files(tmp_path, make_phi(2, [1, 1]))
    code, _, err = _run(capsys, ["kz", "--op", op, "--points", "3",
                                 "--h", "0.05", "--loop", loop])
    assert code == 2
    assert err


def test_kz_overflowing_holonomy_is_usage_error(tmp_path, capsys):
    """A loop that passes every input check but whose coefficients overflow
    at |h| = 1e308 exits 2 instead of writing NaN into the report (found by
    the fuzz test below; it exited 0 with NaN entries). The integration
    runs with numpy's warnings off, so stderr is the one error line."""
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    loop = _write(tmp_path, "loop.json", _CIRCLE)
    code, out, err = _run(capsys, ["kz", "--op", op, "--points", "2",
                                   "--h", "1e308,1e308", "--loop", loop])
    assert (code, out) == (2, "")
    assert err == ("error: the holonomy is not finite: the integration overflowed; "
                   "reduce |h| or the scale of the loop\n")


@pytest.mark.parametrize("field, loop", [
    # found by the fuzz tests below: the positions of the guard overflowed
    ("base point", {"base": [[-9, -1.37], [1e154, -3.04]], "kind": "circle", "steps": 5,
                    "moving": 1, "center": 2, "radius": 1e154}),
    ("center", {**_CIRCLE, "center": [0, -1e101]}),
    ("radius", {**_CIRCLE, "radius": 2e100}),
    ("waypoint", {**_POLYGON, "waypoints": [_SQUARE, [[0, 0], [1e101, 0]] + [[0, 0]] * 3]}),
])
def test_kz_loop_coordinates_are_bounded_at_parse_time(tmp_path, capsys, monkeypatch,
                                                         field, loop):
    """A base point, waypoint, centre or radius above kz.MAX_COORDINATE in
    magnitude exits 2 naming the field before any position is formed."""
    monkeypatch.setattr(kz.LoopSpec, "stage_data", _refuse)
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    code, out, err = _run(capsys, ["kz", "--op", op, "--points", "2", "--h", "0.1",
                                   "--loop", _write(tmp_path, "loop.json", loop)])
    assert (code, out) == (2, "")
    assert err == f"error: {field} must have magnitude at most 1e+100\n"


@pytest.mark.parametrize("walk, distance", [
    ([[1, 0], [0, 0], [0, 1], [-1, 0], [1, 0]], "0.000e+00"),
    ([[1, 0], [1e-7, 1e-7], [0, 1], [-1, 0], [0, -1], [1, 0]], "1.414e-07"),
], ids=["through", "near-corner"])
def test_kz_guard_samples_the_stage_times(tmp_path, capsys, monkeypatch, walk, distance):
    """One step over k segments is k steps, and the separation guard samples
    their 2 k + 1 stage times. Point 0 walks the polygon ``walk`` around the
    fixed point 1 at 0; its second corner, reached at t = 1/k, is 0 or
    1e-7 (1 + i). The parent sampled t = 0, 1/2 and 1 only: it integrated
    the first loop into numpy warnings and an overflow, and the second
    into a report that exited 0. Both are refused before integrating."""
    monkeypatch.setattr(kz, "integrate_holonomy", _refuse)
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    loop = _write(tmp_path, "loop.json", {"base": [[1, 0], [0, 0]], "kind": "polygon",
                                          "steps": 1, "waypoints": [walk, [[0, 0]] * len(walk)]})
    code, out, err = _run(capsys, ["kz", "--op", op, "--points", "2", "--h", "0.1",
                                   "--loop", loop])
    assert (code, out) == (2, "")
    assert err == (f"error: minimum pairwise distance {distance} below guard 1e-06 x "
                   "diameter 1.000e+00\n")


def test_loop_coordinates_at_the_bound_are_accepted():
    big = kz.MAX_COORDINATE
    loop = jsonio.loop_from_json({"base": [[-big, 0], [big, 0]], "kind": "circle", "steps": 4,
                                  "moving": 1, "center": [0, big], "radius": big})
    assert np.isfinite(loop.separation()).all()


_COORD = st.one_of(st.integers(-12, 12), st.floats(-12, 12), _EXTREMES)


@st.composite
def _loop_objects(draw):
    """Loop JSON near the valid ones: every key with a value of the right
    type, indices near their range, coordinates small, huge or subnormal,
    paths closed; then at most one key dropped or given any JSON value."""
    count = draw(st.integers(0, 4))
    pair = st.lists(_COORD, min_size=2, max_size=2)
    obj = {"base": draw(st.lists(pair, min_size=count, max_size=count)),
           "kind": draw(st.sampled_from(["circle", "polygon"])),
           # at most 12 steps or above the cap: a valid loop integrates quickly
           "steps": draw(st.one_of(st.integers(-1, 12),
                                   st.sampled_from([kz.MAX_STEPS + 1, 10 ** 40]))),
           "moving": draw(st.integers(0, count + 1)),
           "center": draw(st.one_of(st.integers(0, count + 1), pair)),
           "radius": draw(_COORD),
           "waypoints": draw(st.lists(st.lists(pair, min_size=1, max_size=4).map(
               lambda path: path + path[:1]), min_size=count, max_size=count))}
    key = draw(st.sampled_from([None, *obj]))
    if key is not None:
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_JSON_ANY)
    return obj


# the start of a circle whose angle underflows: cmath.phase raised OverflowError
_UNDERFLOWING_CIRCLE = {"base": [[1e308, 1e-320], [0, 0]], "kind": "circle", "steps": 1,
                        "moving": 1, "center": 2, "radius": 1}


@settings(max_examples=300, deadline=None)
@given(st.one_of(_loop_objects(), _JSON_ANY))
@example(_UNDERFLOWING_CIRCLE)
def test_loop_from_json_fuzz_refuses_with_usage_errors(obj):
    """Any JSON value either reads as a loop or raises an error that ``main``
    reports as exit 2 with an ``error:`` line, never another exception."""
    try:
        with np.errstate(all="ignore"):  # huge coordinates overflow in the guard
            loop = jsonio.loop_from_json(obj)
    except (ValueError, longeq.PathTooClose):
        return
    assert isinstance(loop, kz.LoopSpec)


# integer options with other Unicode digits or a ``_``, which int() reads
_NON_ASCII_INTS = ["\u0662", "\u0663", "\uff13", "1_6", "\u0661\u0666", " 3 ", "+3"]
_KZ_ARG = st.one_of(st.sampled_from(["2", "3", "0", "-1", "x", "", "1e3", "nan", "inf",
                                     "1,2", "1,", ",1", "1,2,3", "0.1,-0.05", "1e308,1e308",
                                     "-1e-3", "-0.1,0.2", "-.5", "-1_0", "-\u0661", "-inf",
                                     "1e-320", str(kz.MAX_STEPS + 1)] + _NON_ASCII_INTS),
                    st.text(alphabet=st.sampled_from("0123456789_+- ,.e" + "\u0662\u0663\uff13"),
                            max_size=4),
                    st.text(max_size=4))


def _non_ascii_int(text):
    """Whether ``text`` has a ``_`` or a digit that is not ASCII."""
    return any(ch == "_" or ch.isdigit() and not ch.isascii() for ch in text)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_loop_objects(), st.one_of(st.none(), _KZ_ARG), _KZ_ARG,
       st.one_of(st.none(), _KZ_ARG), st.booleans())
@example(_UNDERFLOWING_CIRCLE, None, "0.1", None, False)
@example({"base": [[0, 0], [1, 0], [6, 0]], "kind": "circle", "steps": 4, "moving": 1,
          "center": 0, "radius": 0.5}, "\u0663", "0.1", None, False)
@example({"base": [[0, 0], [1, 0], [6, 0]], "kind": "circle", "steps": 4, "moving": 1,
          "center": 0, "radius": 0.5}, "3", "0.1", "1_6", True)
@example({"base": [[0, 0], [1, 0], [6, 0]], "kind": "circle", "steps": 4, "moving": 1,
          "center": 0, "radius": 0.5}, "3", "1_0", None, False)
def test_kz_fuzz_exits_2_with_an_error_line(tmp_path, capsys, loop_obj, points, h, steps,
                                             compare):
    """``kz`` on fuzzed loop JSON and ``--points``, ``--h`` and ``--steps``
    values exits 0 or 1 with a report, or 2 with an ``error:`` line; it
    never raises. ``--points`` is the loop's own count when not drawn. A
    ``--points``, ``--h`` or ``--steps`` with a non-ASCII digit or a ``_``
    always exits 2."""
    loop = _write(tmp_path, "loop.json", loop_obj)
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    if points is None:
        base = loop_obj.get("base")
        points = str(len(base)) if isinstance(base, list) else "2"
    argv = ["kz", "--op", op, "--points", points, "--h", h, "--loop", loop]
    argv += [] if steps is None else ["--steps", steps]
    argv += ["--compare"] if compare else []
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code, out, err = _run(capsys, argv)
    if code == 2:
        last = err.splitlines()[-1]
        assert "error:" in last, err
        assert out == ""
    else:
        assert code in (0, 1) and json.loads(out)["N"] == int(points), (code, err)
    if (_non_ascii_int(points) or _non_ascii_int(h)
            or steps is not None and _non_ascii_int(steps)):
        assert code == 2


def test_kz_stdout_on_fixed_circle_is_pinned(tmp_path, capsys):
    """The whole kz report of a three-point circle at h = 0, whose holonomy
    and oracle are exactly the identity, matches the bytes the
    json.dump(indent=2) writer emitted (SHA-256 without the elapsed_s line)."""
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    loop = _write(tmp_path, "loop.json", {
        "base": [[1.0, 0.0], [0.0, 0.0], [6.0, 0.0]], "kind": "circle",
        "steps": 64, "moving": 1, "center": 2, "radius": 0.5,
    })
    code, out, _ = _run(capsys, ["kz", "--op", op, "--points", "3", "--h", "0",
                                 "--loop", loop, "--compare"])
    text = "".join(line for line in out.splitlines(True) if '"elapsed_s"' not in line)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d637f234d5a7e04646ad47d1bc9c8d32ac8b7d42dca38955ad3f923d568bdb0e")


_SPECIALS = [-0.0, 5e-324, -2.5e-310, 1e300, -1e-300, float("nan"),
             float("inf"), -float("inf"), 0.1, 1 / 3]


def _kz_report(d, seed, oracle, zeros=0.0):
    """(W, fields) of a kz report: a random d x d holonomy with IEEE edge
    entries, a share ``zeros`` of its pairs set to +0.0."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    w[rng.random((d, d)) < zeros] = 0
    flat = w.view(float).ravel()
    flat[rng.choice(flat.size, size=min(flat.size, 40), replace=False)] = (
        _SPECIALS * 4)[:min(flat.size, 40)]
    fields = {"format_version": jsonio.FORMAT_VERSION,
              "residuals": {"[R12,R13+R23]": True, "[R12,R34]": False},
              "elapsed_s": 0.123456}
    if oracle:
        fields["oracle_distance"] = float(np.max(np.abs(w)))
    return w, fields


def _report_text(w, fields):
    """The report as json.dump(indent=2) writes the dict form."""
    return json.dumps({**jsonio.holonomy_to_json(w, 0.1 - 0.05j, 4, 2), **fields},
                      indent=2)


def _write_report(w, fields):
    buf = io.StringIO()
    jsonio.write_holonomy(buf, w, 0.1 - 0.05j, 4, 2, fields)
    return buf.getvalue()


@pytest.mark.parametrize("d", [4, 8, 81, 256])
@pytest.mark.parametrize("oracle", [False, True])
def test_emit_matches_json_dump_on_kz_report(d, oracle):
    w, fields = _kz_report(d, d, oracle)
    assert _write_report(w, fields) == _report_text(w, fields)


@pytest.mark.parametrize("d", [81, 256])
def test_write_holonomy_on_mostly_zero_w(d):
    """98% of the pairs are +0.0 and written as the shared zero token."""
    w, fields = _kz_report(d, d + 1, True, zeros=0.98)
    bits = w.view(np.uint64).reshape(-1, 2)
    assert np.mean((bits == 0).all(axis=1)) > 0.95
    assert _write_report(w, fields) == _report_text(w, fields)


def test_write_holonomy_keeps_signed_zero_pairs():
    """Only a pair with all bits zero is the zero token; -0.0 is written as
    json writes it, in either place of a pair."""
    w = np.array([[complex(0.0, -0.0), complex(-0.0, 0.0), 0j],
                  [complex(-0.0, -0.0), 0j, complex(5e-324, 0.0)],
                  [0j, complex(0.0, float("nan")), complex(-float("inf"), -0.0)]])
    text = _write_report(w, {})
    assert text == _report_text(w, {})
    assert len(re.findall(r"-0\.0\b", text)) == 5 and "NaN" in text and "-Infinity" in text


def _edge_w(case):
    """W of one writer edge case; the sizes give zero runs of many lengths."""
    rng = np.random.default_rng(len(case))
    if case == "identity":
        return np.eye(37, dtype=complex)
    if case == "zero":
        return np.zeros((37, 37), dtype=complex)
    if case == "one-zero":
        return np.zeros((1, 1), dtype=complex)
    if case == "one-live":
        return np.array([[complex(-0.0, 2.5)]])
    w = np.zeros((37, 37), dtype=complex)
    if case == "first-column":
        w[::2, 0] = rng.standard_normal(19) + 0.5j
    elif case == "last-column":
        w[1::3, -1] = complex(0.0, -0.0)
        w[::4, -1] = rng.standard_normal(10)
    elif case == "adjacent":
        w[0] = 1.5
        w[3, 4:9] = rng.standard_normal(5)
        w[5, -2:] = -1j
        w[7, :2] = 2
        w[9, 16:34] = 3 - 1j
    else:  # few distinct values, scattered over a wider W
        w = rng.choice(np.array([0, 0, 0, 1, -0.5j, 1 / 3 + 1j]), size=(100, 100))
    return w


@pytest.mark.parametrize("case", ["identity", "zero", "one-zero", "one-live", "first-column",
                                  "last-column", "adjacent", "few-values"])
def test_write_holonomy_edge_cases(case):
    """The written report is byte for byte json.dump's of the dict form on
    W = I, an all-zero W, 1 x 1 W, live cells only in the first or the last
    column, adjacent live cells and a W of few distinct values."""
    w = _edge_w(case)
    fields = {"format_version": jsonio.FORMAT_VERSION, "elapsed_s": 0.5}
    for f in (fields, {}):
        assert _write_report(w, f) == _report_text(w, f)


def test_write_holonomy_holds_a_small_share_of_its_text():
    """Writing a phi holonomy at n = 4, N = 4 into an ``io.StringIO`` peaks,
    under tracemalloc, below a quarter of the text's length. The StringIO
    holds the written strings until ``getvalue`` joins them, so the peak is
    what the writer forms: one string per row made it 3.1 MB for 2.7 MB of
    text."""
    import tracemalloc

    system = kz.KZSystem.from_op(make_phi(4, [1, 1, 1, 1]), 4, 0.1)
    loop = kz.LoopSpec([0.0, 1.0, 10.0, 20j], "circle", 16, moving=0, center=1, radius=0.5)
    w = kz.integrate_holonomy(system, loop)
    fields = {"format_version": jsonio.FORMAT_VERSION, "oracle_distance": 1e-12}
    _write_report(w, fields)
    buf = io.StringIO()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        jsonio.write_holonomy(buf, w, 0.1 - 0.05j, 4, 2, fields)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    text = buf.getvalue()
    assert text == _report_text(w, fields)
    assert 0 < peak < len(text) // 4


def test_write_holonomy_writes_one_row_at_a_time():
    """No single write of the d = 256 report is longer than one row of it."""
    w, fields = _kz_report(256, 7, True, zeros=0.98)
    writes = []

    class Out:
        def write(self, text):
            writes.append(text)

    jsonio.write_holonomy(Out(), w, 0.1 - 0.05j, 4, 2, fields)
    want = _report_text(w, fields)
    assert "".join(writes) == want
    # a row sits four spaces deeper than at the top level, after ",\n    "
    row_len = max(len(t) + 4 * t.count("\n") + 6
                  for t in map(functools.partial(json.dumps, indent=2),
                               json.loads(want)["matrix"]))
    assert len(writes) >= 256
    assert max(map(len, writes)) <= row_len


def test_kz_polygon_stdout_is_json_dump_of_itself(tmp_path, capsys):
    """A polygon holonomy at complex h, with zero and nonzero pairs, is
    written exactly as json.dump(indent=2) writes the parsed report."""
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    loop = _write(tmp_path, "loop.json", {
        "base": [[2.0, 2.0], [0.0, 0.0], [6.0, 1.0]], "kind": "polygon",
        "steps": 32, "waypoints": [[[2.0, 2.0], [-2.0, 2.0], [-2.0, -2.0],
                                    [2.0, -2.0], [2.0, 2.0]],
                                   [[0.0, 0.0]] * 5, [[6.0, 1.0]] * 5]})
    code, out, _ = _run(capsys, ["kz", "--op", op, "--points", "3",
                                 "--h", "0.1,0.2", "--loop", loop])
    assert code == 0
    obj = json.loads(out)
    assert out == json.dumps(obj, indent=2) + "\n"
    assert list(obj) == ["h", "N", "n", "matrix", "format_version",
                         "residuals", "elapsed_s"]
    pairs = [p for row in obj["matrix"] for p in row]
    assert [0.0, 0.0] in pairs and any(p != [0.0, 0.0] for p in pairs)


@pytest.mark.parametrize("obj", [
    {"matrix": [[[1.0, "x"]]]},
    {"matrix": [[[1.0, 2.0, 3.0]]]},
    {"matrix": [[[1.0, 2.0]], [[1.0]]]},
    {"matrix": [[[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]]]},
    {"matrix": [[[1.0, [2.0]]]]},
    {"matrix": [[[True, None]], [[{"a": 1}, 2]]]},
    {"matrix": [[]], "rows": [[1, 2], [3, 4]]},
    {"matrix": [[[0.5, -0.0]]], "b": {"matrix": [[[1, 2]]]}, '\n  "matrix": null': 1},
    {"matrix": [[[2, 3], [4, 5]], [[6, 7], [8, 9]]], "c": [[[1.0, 2.0]]]},
    [[[1.0, 2.0]]],
])
def test_emit_matches_json_dump_on_other_shapes(capsys, obj):
    _emit(obj)
    assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"


class _Writes:
    """A stdout that keeps each string written to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("kind", ["check", "check-witness", "construct", "frt", "roundtrip",
                                  "bialgebra-check", "bialgebra-check-witness"])
def test_emit_writes_the_json_dump_text_in_one_write(tmp_path, monkeypatch, kind):
    """Every report that ``_emit`` writes is one write of the text that
    ``json.dump(obj, indent=2)`` writes chunk by chunk, and a newline."""
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    bad = _write(tmp_path, "bad.json", operator_to_json(TensorOp2(2, _FLIP)))
    b = cyclic_group_algebra(2)
    bi = _write(tmp_path, "b.json", bialgebra_to_json(b))
    table = [[2, 0], [0, 1]] if kind.endswith("witness") else SigmaTable.counit_square(b).table
    sig = _write(tmp_path, "s.json", sigma_to_json(SigmaTable(table)))
    argv = {"check": ["check", "--op", op, "--laws", "long,symmetric"],
            "check-witness": ["check", "--op", bad, "--laws", "long"],
            "construct": ["construct", "phi", "--n", "2", "--map", "1,1"],
            "frt": ["frt", "--op", op],
            "roundtrip": ["roundtrip", "--op", op],
            "bialgebra-check": ["bialgebra-check", "--bialgebra", bi, "--sigma", sig],
            "bialgebra-check-witness": ["bialgebra-check", "--bialgebra", bi, "--sigma", sig]}
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    code = main(argv[kind])
    assert code == (1 if kind.endswith("witness") else 0)
    [text] = out.writes
    buf = io.StringIO()
    json.dump(json.loads(text), buf, indent=2)
    assert text == buf.getvalue() + "\n"


# ---------------------------------------------------------------------------
# bialgebra-check
# ---------------------------------------------------------------------------


def test_bialgebra_check_counit_square(tmp_path, capsys):
    b = sweedler_h4()
    bi = _write(tmp_path, "b.json", bialgebra_to_json(b))
    sig = _write(tmp_path, "s.json",
                 sigma_to_json(SigmaTable.counit_square(b)))
    code, out, _ = _run(capsys, ["bialgebra-check", "--bialgebra", bi,
                                 "--sigma", sig])
    obj = json.loads(out)
    assert code == 0
    assert obj["verdicts"] == {k: True for k in ("L1", "L2", "L3", "L4", "L5")}


def test_bialgebra_check_b1_fails_with_witness(tmp_path, capsys):
    b = sweedler_h4()
    bi = _write(tmp_path, "b.json", bialgebra_to_json(b))
    sig = _write(tmp_path, "s.json",
                 sigma_to_json(SigmaTable.counit_square(b)))
    code, out, _ = _run(capsys, ["bialgebra-check", "--bialgebra", bi,
                                 "--sigma", sig, "--axioms", "B1"])
    obj = json.loads(out)
    assert code == 1
    assert obj["verdicts"]["B1"] is False
    assert "B1" in obj["witnesses"]


def test_bialgebra_check_unknown_axiom(tmp_path, capsys):
    b = sweedler_h4()
    bi = _write(tmp_path, "b.json", bialgebra_to_json(b))
    sig = _write(tmp_path, "s.json",
                 sigma_to_json(SigmaTable.counit_square(b)))
    code, _, err = _run(capsys, ["bialgebra-check", "--bialgebra", bi,
                                 "--sigma", sig, "--axioms", "L9"])
    assert code == 2
    assert "unknown axioms" in err


def test_bialgebra_check_report_order_is_hash_seed_independent(tmp_path):
    """L1 and strongD are reported in a fixed order, whatever PYTHONHASHSEED."""
    b = sweedler_h4()
    bi = _write(tmp_path, "b.json", bialgebra_to_json(b))
    sig = _write(tmp_path, "s.json",
                 sigma_to_json(SigmaTable.counit_square(b)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(longeq.__file__)))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "longeq", "bialgebra-check", "--bialgebra", bi,
             "--sigma", sig, "--axioms", "L1,strongD"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append([line for line in proc.stdout.splitlines()
                        if "elapsed_s" not in line])
        assert list(json.loads(proc.stdout)["verdicts"]) == ["L1", "strongD"]
    assert outputs[0] == outputs[1]


def _bialgebra_files(tmp_path, b, obj=None):
    """The bialgebra JSON (``obj`` when given, else ``b``'s) and eps (x) eps."""
    bi = _write(tmp_path, "b.json", bialgebra_to_json(b) if obj is None else obj)
    sig = _write(tmp_path, "s.json", sigma_to_json(SigmaTable.counit_square(b)))
    return bi, sig


@pytest.mark.parametrize("field, edit", [
    ("mult", lambda o: o["mult"][1][1].append("0")),
    ("mult", lambda o: o["mult"][1][1].pop()),
    ("mult", lambda o: o["mult"][1].pop()),
    ("comult", lambda o: o["comult"][0][1].append("0")),
    ("comult", lambda o: o["comult"][1][0].pop()),
    ("unit", lambda o: o["unit"].pop()),
    ("counit", lambda o: o["counit"].pop()),
    ("counit", lambda o: o["counit"].append("1")),
], ids=["mult-long-cell", "mult-short-cell", "mult-short-row", "comult-long-cell",
        "comult-short-cell", "unit-short", "counit-short", "counit-long"])
def test_bialgebra_check_wrong_shape_is_usage_error(tmp_path, capsys, field, edit):
    """Every structure constant must be d x d x d or of length d; k[Z/2]
    with one entry too many or too few exits 2 naming the field."""
    b = cyclic_group_algebra(2)
    obj = bialgebra_to_json(b)
    edit(obj)
    bi, sig = _bialgebra_files(tmp_path, b, obj)
    code, out, err = _run(capsys, ["bialgebra-check", "--bialgebra", bi, "--sigma", sig])
    assert (code, out) == (2, "")
    assert f"'{field}'" in err


@pytest.mark.parametrize("dim", [jsonio.MAX_BIALGEBRA_DIM + 1, 0, -3, "4", 2.0, True, None])
def test_bialgebra_check_dim_out_of_range_is_usage_error(tmp_path, capsys, dim):
    """``dim`` is checked before any entry: the malformed ``mult`` and the
    missing basis are never read."""
    b = sweedler_h4()
    obj = {"dim": dim, "mult": "not a table", "unit": [], "comult": [], "counit": []}
    bi, sig = _bialgebra_files(tmp_path, b, obj)
    code, out, err = _run(capsys, ["bialgebra-check", "--bialgebra", bi, "--sigma", sig])
    assert (code, out) == (2, "")
    assert "'dim'" in err or "exceeds cap" in err


def test_bialgebra_check_accepts_truncation_dim_22(tmp_path, capsys):
    b = comatrix_tensor_truncation(2, 2)
    assert b.d == 22 <= jsonio.MAX_BIALGEBRA_DIM
    bi, sig = _bialgebra_files(tmp_path, b)
    code, out, _ = _run(capsys, ["bialgebra-check", "--bialgebra", bi, "--sigma", sig,
                                 "--axioms", "L2,L4"])
    assert code == 0
    assert json.loads(out)["verdicts"] == {"L2": True, "L4": True}


@pytest.mark.parametrize("table", [[["1", "1", "5"], ["1", "-1", "7"]], [["1"], ["1"]]],
                         ids=["2x3", "2x1"])
def test_bialgebra_check_sigma_wrong_shape_is_usage_error(tmp_path, capsys, table):
    """On k[Z/2] a sigma table that is not 2 x 2 exits 2 naming 'table'."""
    bi = _write(tmp_path, "b.json", bialgebra_to_json(cyclic_group_algebra(2)))
    sig = _write(tmp_path, "s.json", {"table": table})
    code, out, err = _run(capsys, ["bialgebra-check", "--bialgebra", bi, "--sigma", sig])
    assert (code, out) == (2, "")
    assert "'table'" in err


def test_bialgebra_json_bad_fraction_string_message():
    """A bad entry string keeps the parser's message, also when it repeats."""
    obj = bialgebra_to_json(sweedler_h4())
    obj["comult"][2][0][3] = "1/x"
    obj["counit"][1] = "1/x"
    with pytest.raises(ValueError, match=r"^not a fraction string: '1/x'$"):
        jsonio.bialgebra_from_json(obj)


def _set(path, value):
    """An edit of a JSON object that puts ``value`` at the key path ``path``."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


@pytest.mark.parametrize("command, edit", [
    ("check", _set(["entries", 0, "coeff"], "1/-2")),
    ("bialgebra-check", _set(["table", 0, 1], "1/-2")),
], ids=["check", "bialgebra-check"])
def test_signed_denominator_is_not_a_fraction_string(tmp_path, capsys, command, edit):
    """A denominator carries no sign: "1/-2" exits 2 with the message of
    every other malformed fraction string, in an operator entry and in a
    sigma table entry; it used to reach ``Fraction`` and print its
    "Invalid literal for Fraction"."""
    argv = _small_argv(tmp_path, command, edit)
    assert _run(capsys, argv) == (2, "", "error: not a fraction string: '1/-2'\n")


@pytest.mark.parametrize("text, want", [("1/-2", None), ("1/+2", None), ("-1/-2", None),
                                        ("-1/2", Fraction(-1, 2)), ("+3/6", Fraction(1, 2))])
def test_parse_frac_takes_a_sign_on_the_numerator_only(text, want):
    if want is None:
        with pytest.raises(ValueError, match=re.escape(f"not a fraction string: '{text}'")):
            parse_frac(text)
    else:
        assert parse_frac(text) == want


def test_frac_str_round_trips_through_parse_frac():
    """Seeded Fractions, negative, zero, integral and large, are written as
    "p" or "p/q" in lowest terms and read back as the same value."""
    rng = random.Random(39)
    values = [Fraction(0), Fraction(-7), Fraction(10 ** 40), Fraction(-(10 ** 40) - 1, 3)]
    values += [Fraction(rng.randint(-10 ** k, 10 ** k), rng.choice((1, rng.randint(1, 10 ** k))))
               for k in (1, 3, 12, 60) for _ in range(50)]
    assert {x < 0 for x in values} == {True, False} and any(x.denominator > 1 for x in values)
    for x in values:
        text = frac_str(x)
        assert parse_frac(text) == x, text
        assert text == (f"{x.numerator}" if x.denominator == 1
                        else f"{x.numerator}/{x.denominator}"), text


# non-ASCII decimal digits: Arabic-Indic, Extended Arabic-Indic, Devanagari
# and fullwidth; str.isdigit, \\d, int() and Fraction() accept each of them
_UNICODE_DIGITS = "\u0661\u0662\u06f4\u0967\uff11\uff12"


@pytest.mark.parametrize("text", ["\u0661", "\uff11/\uff12", "1/\u0662", "-\u0967", "1_0", "1/2_0"])
@pytest.mark.parametrize("command", ["check", "bialgebra-check"])
def test_fraction_strings_take_ascii_digits_only(tmp_path, capsys, command, text):
    """The wire format is a decimal string of ASCII digits: other Unicode
    digits and ``_`` separators, which ``Fraction`` would read, exit 2 in
    an operator entry and in a sigma table entry."""
    where = ["entries", 0, "coeff"] if command == "check" else ["table", 0, 1]
    argv = _small_argv(tmp_path, command, _set(where, text))
    assert _run(capsys, argv) == (2, "", f"error: not a fraction string: {text!r}\n")
    with pytest.raises(ValueError, match="not a fraction string"):
        parse_frac(text)


@pytest.mark.parametrize("phi_map", ["1,\u0662", "\uff11,\uff11", "1,0_2", "1,2.0", "1,+2 "])
def test_construct_phi_map_takes_ascii_integers_only(capsys, phi_map):
    """``--map`` takes comma-separated ASCII integers, signs and blanks
    allowed; ``int()`` also read Unicode digits and ``_`` separators."""
    code, out, err = _run(capsys, ["construct", "phi", "--n", "2", "--map", phi_map])
    if phi_map == "1,+2 ":
        assert code == 0 and operator_from_json(json.loads(out)) == make_phi(2, [1, 2])
    else:
        assert (code, out) == (2, "") and err.startswith("error: not an integer string:")


@pytest.mark.parametrize("option, value, argv", [
    ("--n", "\u0662", ["construct", "phi", "--map", "1,1"]),
    ("--n", "1_0", ["construct", "diag", "--a", "1"]),
    ("--n", "\uff11", ["construct", "pair", "--f", "1", "--g", "1"]),
    ("--points", "\u0663", ["kz", "--op", "op.json", "--h", "0.1", "--loop", "loop.json"]),
    ("--steps", "1_6", ["kz", "--op", "op.json", "--points", "3", "--h", "0.1",
                        "--loop", "loop.json"]),
], ids=["construct-phi-n", "construct-diag-n", "construct-pair-n", "kz-points", "kz-steps"])
def test_int_options_take_ascii_integers_only(capsys, option, value, argv):
    """``--n``, ``--points`` and ``--steps`` are read by ``parse_int``:
    argparse's ``type=int`` also took other Unicode digits and ``_``
    separators, so ``construct phi --n \u0662 --map 1,1`` exited 0. The
    option is refused while the arguments are parsed, before any file is
    read."""
    code, out, err = _run(capsys, argv + [option, value])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        f"error: argument {option}: not an integer string: {value!r}")


@pytest.mark.parametrize("h", ["\u0661", "1_0", "0.1,\u0661", "\uff10.\uff11"])
def test_kz_h_takes_ascii_only(capsys, h):
    """``--h`` is refused unless it is ASCII without ``_``: ``float()`` also
    read other Unicode digits and ``_`` separators, so ``--h \u0661`` ran
    with h = 1 and ``--h 1_0`` with h = 10, both exiting 0. The option is
    refused while the arguments are parsed, before any file is read."""
    code, out, err = _run(capsys, ["kz", "--op", "op.json", "--points", "2", "--h", h,
                                   "--loop", "loop.json"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        f"error: argument --h: not an ASCII number string: {h!r}")


def _without_elapsed(out):
    return [line for line in out.splitlines() if '"elapsed_s"' not in line]


@pytest.mark.parametrize("h", ["-1e-3", "-0.1,0.2", "-.5,-0.25", "-0.1"])
def test_kz_h_takes_a_negative_real_part_after_a_space(tmp_path, capsys, h):
    """``--h VALUE`` runs as ``--h=VALUE`` does when VALUE starts with
    ``-``: argparse took ``-1e-3`` and ``-0.1,0.2`` for options, so
    ``--h -1e-3`` exited 2 with ``expected one argument``. The two reports
    agree byte for byte but for ``elapsed_s``."""
    op, loop = _kz_files(tmp_path, make_phi(2, [1, 1]))
    argv = ["kz", "--op", op, "--points", "2", "--loop", loop]
    spaced = _run(capsys, argv + ["--h", h])
    joined = _run(capsys, argv + [f"--h={h}"])
    assert spaced[0] == joined[0] == 0, spaced[2]
    assert _without_elapsed(spaced[1]) == _without_elapsed(joined[1])
    assert json.loads(spaced[1])["h"] == json.loads(joined[1])["h"]


@pytest.mark.parametrize("h, want", [
    ("-\u0661", "argument --h: not an ASCII number string: '-\u0661'"),
    ("-1_0", "argument --h: not an ASCII number string: '-1_0'"),
    ("-inf", "--h must be finite"),
    ("-0.1,nan", "--h must be finite"),
    ("-x", "could not convert string to float: '-x'"),
], ids=["non-ascii", "underscore", "infinite", "nan", "not-a-number"])
def test_kz_h_refusals_after_a_space_match_the_joined_form(tmp_path, capsys, h, want):
    """A refused ``--h VALUE`` starting with ``-`` exits 2 with the ``--h=VALUE``
    form's ``error:`` line, and never a traceback."""
    op, loop = _kz_files(tmp_path, make_phi(2, [1, 1]))
    argv = ["kz", "--op", op, "--points", "2", "--loop", loop]
    spaced = _run(capsys, argv + ["--h", h])
    joined = _run(capsys, argv + [f"--h={h}"])
    assert spaced[:2] == joined[:2] == (2, "")
    assert spaced[2].splitlines()[-1] == joined[2].splitlines()[-1]
    assert spaced[2].splitlines()[-1].endswith(f"error: {want}")


def test_kz_h_without_a_value_is_still_refused(tmp_path, capsys):
    """``--h`` followed by an option, or by nothing, has no value: exit 2."""
    op, loop = _kz_files(tmp_path, make_phi(2, [1, 1]))
    for argv in (["kz", "--op", op, "--points", "2", "--h", "--loop", loop],
                 ["kz", "--op", op, "--points", "2", "--loop", loop, "--h"]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith("error: argument --h: expected one argument")


@pytest.mark.parametrize("kind, options", [
    ("diag", [("--n", "2"), ("--a", "-1,0,0,1")]),
    ("pair", [("--n", "1"), ("--f", "-1"), ("--g", "-1/2")]),
    ("phi", [("--n", "2"), ("--map", "-1,2")]),
    ("conjugate", [("--op", "op.json"), ("--u", "-1,0,0,1")]),
])
def test_construct_number_lists_take_a_leading_minus_after_a_space(
        tmp_path, capsys, kind, options):
    """Every number-list option of ``construct`` reads ``OPTION VALUE`` as
    ``OPTION=VALUE`` when VALUE starts with ``-``: argparse took ``-1,0,0,1``
    and ``-1/2`` for options, so these exited 2 with ``expected one
    argument``. Both forms give the same exit code and the same bytes."""
    _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    options = [(o, str(tmp_path / v) if o == "--op" else v) for o, v in options]
    spaced = _run(capsys, ["construct", kind] + [x for pair in options for x in pair])
    joined = _run(capsys, ["construct", kind] + [f"{o}={v}" for o, v in options])
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize("kind, option, rest", [
    ("diag", "--a", ["--n", "2"]),
    ("pair", "--f", ["--n", "1", "--g", "1"]),
    ("pair", "--g", ["--n", "1", "--f", "1"]),
    ("phi", "--map", ["--n", "2"]),
    ("conjugate", "--u", ["--op", "op.json"]),
])
def test_construct_number_list_without_a_value_is_still_refused(capsys, kind, option, rest):
    """A number-list option followed by another option, or by nothing, has
    no value: exit 2 before any file is read."""
    for argv in ([option] + rest, rest + [option]):
        code, out, err = _run(capsys, ["construct", kind] + argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"error: argument {option}: expected one argument")


_CONSTRUCT_TOKEN = st.text(alphabet="0123456789/-+ ._e" + _UNICODE_DIGITS, max_size=4)
_CONSTRUCT_ARG = st.one_of(st.lists(_CONSTRUCT_TOKEN, max_size=5).map(",".join),
                           st.text(max_size=8))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["phi", "diag", "pair", "conjugate"]),
       st.one_of(st.sampled_from("0123"), st.sampled_from(_NON_ASCII_INTS), _CONSTRUCT_TOKEN),
       _CONSTRUCT_ARG, _CONSTRUCT_ARG)
@example("phi", "2", "1,\u0662", "")
@example("diag", "1", "\u0661", "")
@example("pair", "1", "2", "\uff11/\uff12")
@example("conjugate", "2", "1,0,0,1_0", "")
@example("phi", "\u0662", "1,1", "")
@example("diag", "1_0", "1", "")
def test_construct_string_arguments_fuzz(tmp_path, capsys, kind, n, first, second):
    """``construct`` on fuzzed ``--n``, ``--map``, ``--a``, ``--f``, ``--g``
    and ``--u`` strings exits 0 with an operator, or 2 with an ``error:``
    line; it never raises. A non-ASCII digit or a ``_`` always exits 2."""
    op = _write(tmp_path, "op.json", operator_to_json(make_phi(2, [1, 1])))
    argv = {"phi": ["--n", n, "--map", first], "diag": ["--n", n, "--a", first],
            "pair": ["--n", n, "--f", first, "--g", second],
            "conjugate": ["--op", op, "--u", first]}[kind]
    capsys.readouterr()
    code, out, err = _run(capsys, ["construct", kind] + argv)
    if code == 2:
        assert "error:" in err.splitlines()[-1], err
        assert out == ""
    else:
        assert code == 0 and isinstance(operator_from_json(json.loads(out)), TensorOp2), err
    used = first + second if kind == "pair" else first
    used += "" if kind == "conjugate" else n
    if _non_ascii_int(used):
        assert code == 2


_NESTED = "must be a {}-fold nested list of fractions"


@pytest.mark.parametrize("bi_edit, sig_edit, want", [
    (_set(["basis"], 2), None, "basis length disagrees with 'dim'"),
    (_set(["mult", 1, 0], "0"), None, "'mult' " + _NESTED.format(3)),
    (_set(["mult", 1], 3), None, "'mult' " + _NESTED.format(3)),
    (_set(["mult", 0, 1], {"0": "1"}), None, "'mult' " + _NESTED.format(3)),
    (_set(["mult", 0, 1, 1], ["1"]), None, "not a fraction string: ['1']"),
    (_set(["mult", 0, 1, 1], True), None, "not a fraction string: True"),
    (_set(["mult", 0, 1, 1], 1.0), None, "not a fraction string: 1.0"),
    (_set(["mult", 0, 1, 0], None), None, "not a fraction string: None"),
    (_set(["unit"], {"0": "1", "1": "0"}), None, "'unit' " + _NESTED.format(1)),
    (_set(["counit"], ["1"]), None, "'counit' must have length 2"),
    (None, _set(["table"], 3), "'table' " + _NESTED.format(2)),
    (None, _set(["table"], [1, 1]), "'table' " + _NESTED.format(2)),
    (None, _set(["table"], [["1", "1"], ["1"]]), "'table' must be 2 x 2; a row has 1 entries"),
    (None, _set(["table"], {"0": ["1", "1"], "1": ["1", "1"]}), "'table' " + _NESTED.format(2)),
    (None, _set(["table"], ["11", "11"]), "'table' " + _NESTED.format(2)),
    (None, lambda sig: [sig], "malformed sigma JSON"),
    (None, _set(["table", 1, 0], None), "not a fraction string: None"),
    (None, _set(["table"], [["1"] * 65] * 65), "sigma table size 65 x 65 exceeds cap 64"),
], ids=["basis-int", "mult-string-cell", "mult-int-row", "mult-dict-cell", "mult-list-entry",
        "mult-true-entry", "mult-float-entry", "mult-null-entry", "unit-dict", "counit-short",
        "sigma-int-table", "sigma-int-rows", "sigma-ragged", "sigma-dict-table",
        "sigma-string-rows", "sigma-list-file", "sigma-null-entry", "sigma-over-cap"])
def test_bialgebra_check_bad_input_messages(tmp_path, capsys, bi_edit, sig_edit, want):
    """A wrong-typed or wrong-sized field of the bialgebra or sigma JSON of
    k[Z/2] exits 2 with exactly this ``error:`` line, the one the dense
    loader printed, except that a level of ``mult`` that is not a list now
    names the field's shape, 3-fold, not the depth left where it failed, and
    that a sigma table or row that is not a list names 'table' as a 2-fold
    list: the dense loader read 3 and [1, 1] as "malformed sigma JSON", and
    iterated a string row (or a dict's keys) character by character; and
    that a table over ``MAX_BIALGEBRA_DIM`` is refused before its entries
    are parsed, where the size that disagrees with the bialgebra was."""
    b = cyclic_group_algebra(2)
    bi, sig = bialgebra_to_json(b), sigma_to_json(SigmaTable.counit_square(b))
    if bi_edit:
        bi_edit(bi)
    if sig_edit:
        sig = sig_edit(sig) or sig
    code, out, err = _run(capsys, ["bialgebra-check", "--bialgebra", _write(tmp_path, "b.json", bi),
                                   "--sigma", _write(tmp_path, "s.json", sig)])
    assert (code, out, err) == (2, "", f"error: {want}\n")


_SIGMA_ENTRY = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "-0", "3/0", "1/x", " 2 ", "+4", "11", ""]),
    _JSON_SCALAR)
_SIGMA_ROW = st.one_of(st.lists(_SIGMA_ENTRY, max_size=3), _JSON_ANY)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.fixed_dictionaries({"table": st.lists(_SIGMA_ROW, max_size=3)}),
                 st.fixed_dictionaries({"table": _JSON_ANY}), _JSON_ANY))
@example({"table": ["11", "11"]})
@example({"table": [["1", "1"], ["1", "-1"]]})
def test_bialgebra_check_sigma_fuzz_exits_0_1_or_2(tmp_path, capsys, sig):
    """``bialgebra-check`` on k[Z/2] with fuzzed sigma JSON exits 0 or 1
    with a report, or 2 with an ``error:`` line; it never raises."""
    bi = _write(tmp_path, "b.json", bialgebra_to_json(cyclic_group_algebra(2)))
    code, out, err = _run(capsys, ["bialgebra-check", "--bialgebra", bi,
                                   "--sigma", _write(tmp_path, "s.json", sig)])
    if code == 2:
        assert out == "" and err.startswith("error: "), err
    else:
        assert code in (0, 1) and json.loads(out)["command"] == "bialgebra-check", err


_ZERO_SPELLINGS = ["0", 0, "-0", "0/7"]
_BIALGEBRA_ENTRY = st.one_of(st.sampled_from(_ZERO_SPELLINGS + ["1", "-1", "1/2", "1/0", "x"]),
                             st.none(), st.booleans(), st.floats(-2, 2))


@st.composite
def _bialgebra_objects(draw):
    """Bialgebra JSON of k[Z/2] or H4 near the valid one: every zero of the
    cubes respelled, then a few edits, each a wrong-length cell, a level or a
    cell that is not a list, an entry of any spelling, or a field given any
    JSON value or dropped. Returns it with the JSON of the table eps (x) eps."""
    b = draw(st.sampled_from([cyclic_group_algebra(2), sweedler_h4()]))
    sig = sigma_to_json(SigmaTable.counit_square(b))
    obj = bialgebra_to_json(b)
    zero = draw(st.sampled_from(_ZERO_SPELLINGS))
    for name in ("mult", "comult"):
        obj[name] = [[[zero if x == "0" else x for x in cell] for cell in row]
                     for row in obj[name]]
    d = b.d
    index = st.integers(0, d - 1)
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["mult", "comult", "unit", "counit", "dim", "basis"]))
        edit = draw(st.sampled_from(["entry", "cell", "level", "any", "drop"]))
        a, p, q = draw(index), draw(index), draw(index)
        if name in ("mult", "comult", "unit", "counit") and edit in ("entry", "cell", "level"):
            try:  # an earlier edit may have left no list at this place
                if name in ("unit", "counit"):
                    obj[name][a] = draw(_BIALGEBRA_ENTRY)
                elif edit == "entry":
                    obj[name][a][p][q] = draw(_BIALGEBRA_ENTRY)
                elif edit == "cell":
                    obj[name][a][p] = draw(st.sampled_from(
                        [[zero] * (d + 1), [zero] * (d - 1), [zero] * d + ["1"], zero, None]))
                else:
                    obj[name][a] = draw(st.sampled_from([zero, [zero] * d, None]))
            except (IndexError, KeyError, TypeError):
                pass
        elif edit == "drop":
            obj.pop(name, None)
        elif edit == "any":
            obj[name] = draw(_JSON_ANY)
    return obj, sig


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_bialgebra_objects(),
                 st.tuples(_JSON_ANY, st.just({"table": [["1", "1"], ["1", "1"]]}))))
@example(({"dim": 2, "basis": ["e", "g"], "mult": [[["0", "0"]] * 2] * 2, "unit": ["0", "0"],
           "comult": [[["0", "0"]] * 2] * 2, "counit": ["0", "0"]},
          {"table": [["1", "1"], ["1", "1"]]}))
def test_bialgebra_check_bialgebra_fuzz_exits_0_1_or_2(tmp_path, capsys, objs):
    """``bialgebra-check`` on fuzzed bialgebra JSON, with the table
    eps (x) eps of the algebra it was drawn from, exits 0 or 1 with a
    report, or 2 with an ``error:`` line; it never raises."""
    obj, sig = objs
    code, out, err = _run(capsys, ["bialgebra-check",
                                   "--bialgebra", _write(tmp_path, "b.json", obj),
                                   "--sigma", _write(tmp_path, "s.json", sig)])
    if code == 2:
        assert out == "" and err.startswith("error: "), err
    else:
        assert code in (0, 1) and json.loads(out)["command"] == "bialgebra-check", err


def test_bialgebra_check_zero_spellings_give_the_same_report(tmp_path, capsys):
    """On H4, writing every zero of ``mult`` and ``comult`` as "0", 0, "-0",
    "00" or "0/7" gives the same algebra and the same report."""
    b = sweedler_h4()
    sig = _write(tmp_path, "s.json", sigma_to_json(SigmaTable.counit_square(b)))
    outputs = set()
    for zero in ("0", 0, "-0", "00", "0/7"):
        obj = bialgebra_to_json(b)
        for field in ("mult", "comult"):
            obj[field] = [[[zero if x == "0" else x for x in cell] for cell in row]
                          for row in obj[field]]
        loaded = jsonio.bialgebra_from_json(obj)
        assert (loaded.mult, loaded.comult) == (b.mult, b.comult)
        code, out, _ = _run(capsys, ["bialgebra-check", "--bialgebra",
                                     _write(tmp_path, "b.json", obj), "--sigma", sig,
                                     "--axioms", "L1,L2,L3,L4,L5,B1"])
        assert code == 1
        outputs.add(re.sub(r'"elapsed_s": [^\n]*', "", out))
    assert len(outputs) == 1


def _bad_input_argv(tmp_path, case):
    """argv of a command whose input holds a zero denominator or a JSON
    boolean where a scalar or an operator-entry index belongs."""
    op = operator_to_json(make_phi(2, [1, 1]))
    b = cyclic_group_algebra(2)
    bi = bialgebra_to_json(b)
    sig = sigma_to_json(SigmaTable.counit_square(b))
    if case in ("check-zero-denominator", "frt-zero-denominator"):
        op["entries"][0]["coeff"] = "1/0"
    elif case == "check-bool-index":
        op["entries"][0]["v"] = True
    elif case == "check-bool-coeff":
        op["entries"][0]["coeff"] = True
    elif case == "bialgebra-zero-denominator":
        bi["counit"][1] = "1/0"
    elif case == "bialgebra-bool-entry":
        bi["counit"][1] = True
    elif case == "sigma-zero-denominator":
        sig["table"][0][1] = "3/0"
    elif case == "sigma-bool-entry":
        sig["table"][1][1] = True
    if case == "construct-pair-zero-denominator":
        return ["construct", "pair", "--n", "2", "--f", "1,0,0,1/0", "--g", "1,0,0,1"]
    if case.startswith(("homothety", "graded")):
        # a boolean, a float or a negative index used to be read as an index,
        # a negative one wrapping to the last matrix or element
        bad = {"bool": True, "float": 1.9, "negative": -1, "past-end": 2}[
            case.split("-", 1)[1].rsplit("-", 1)[0]]
        kind = case.split("-")[0]
        spec = json.loads(json.dumps(_HOMOTHETY if kind == "homothety" else _GRADED))
        if kind == "homothety":
            spec["element"][0][1] = bad
        else:
            spec["table"][1][0] = bad
        return ["construct", kind, "--spec", _write(tmp_path, "spec.json", spec)]
    if case.startswith(("check", "frt")):
        return [case.split("-")[0], "--op", _write(tmp_path, "op.json", op)]
    return ["bialgebra-check", "--bialgebra", _write(tmp_path, "b.json", bi),
            "--sigma", _write(tmp_path, "s.json", sig)]


@pytest.mark.parametrize("case", [
    "check-zero-denominator", "frt-zero-denominator", "check-bool-index",
    "check-bool-coeff", "bialgebra-zero-denominator", "bialgebra-bool-entry",
    "sigma-zero-denominator", "sigma-bool-entry", "construct-pair-zero-denominator",
    "homothety-bool-index", "homothety-float-index", "homothety-negative-index",
    "homothety-past-end-index", "graded-bool-index", "graded-negative-index",
])
def test_bad_scalar_input_exits_2_without_traceback(tmp_path, case):
    """A zero denominator ("1/0") or a JSON boolean in a scalar or an index,
    or a construct spec index that is not an integer in range, exits 2 with
    an ``error:`` line, in a fresh process; before, "1/0" ended in a
    ZeroDivisionError traceback and ``true`` was read as 1."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(longeq.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "longeq", *_bad_input_argv(tmp_path, case)],
                          capture_output=True, text=True, env=env, check=False)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_no_assert_statements_in_src():
    """Internal invariants raise ``InternalCheckFailed``: an ``assert`` would
    vanish under ``python -O``."""
    found = []
    for path in sorted(pathlib.Path(longeq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_src_module_reads_a_dense_structure_cube():
    """The dense d x d x d cubes ``mult`` and ``comult`` are views that only
    the tests read: no module reads an attribute of either name, so every
    law and axiom runs on the scaled nonzeros. The cached-property
    definitions are ``def``s, not attribute reads."""
    found = []
    for path in sorted(pathlib.Path(longeq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("mult", "comult")]
    assert found == []


def test_cmd_handlers_leave_usage_errors_to_main():
    """Each refusal is a library exception that ``main`` maps to exit 2 with
    an ``error:`` line, so no ``cmd_*`` handler writes to stderr, names
    ``EXIT_USAGE`` or returns 2 itself."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    handlers = [f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")]
    assert len(handlers) == 6
    found = []
    for f in handlers:
        for node in ast.walk(f):
            if (isinstance(node, ast.Attribute) and node.attr == "stderr"
                    or isinstance(node, ast.Name) and node.id == "EXIT_USAGE"
                    or isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                    and node.value.value == 2):
                found.append(f"{f.name}:{node.lineno}")
    assert found == []
