"""Command-line front end.

Exit codes: 0 all requested checks pass; 1 a check failed; 2 usage or
parse error; 70 internal disagreement between redundant checkers.
Reports are JSON on stdout; diagnostics go to stderr. Each ``cmd_*``
handler parses its arguments and calls the library, which decides every
refusal; ``main`` maps the exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys
import time

from . import jsonio, kz
from .bialgebra import check_axioms
from .errors import InternalCheckFailed, LongeqError, NotALongSolution
from .frt import build_LR, presentation_text, round_trip
from .scalars import parse_frac, parse_int
from .tensor_ops import (
    GradedActionData,
    _spec_index,
    check_laws,
    long_witness,
    make_conjugate,
    make_diag,
    make_graded,
    make_homothety,
    make_pair,
    make_phi,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 70


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj):
    """Write ``json.dump(obj, indent=2)`` and a newline."""
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _report(command, verdicts, witnesses, started):
    return {
        "format_version": jsonio.FORMAT_VERSION,
        "command": command,
        "verdicts": verdicts,
        "witnesses": witnesses,
        "elapsed_s": round(time.monotonic() - started, 6),
    }


def _names(text, option):
    """The comma-separated names in ``text``, blanks stripped; a list that
    names nothing would verify nothing, so it is a ValueError."""
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise ValueError(f"{option} names nothing; give at least one name")
    return names


def _frac_list(text):
    return [parse_frac(tok) for tok in text.split(",")]


def _square(values, what):
    n = int(len(values) ** 0.5)
    if n * n != len(values):
        raise ValueError(f"{what} must have a square number of entries")
    return [values[r * n:(r + 1) * n] for r in range(n)]


def _load_spec(path, kind, keys):
    """A ``construct kind`` spec file, which must hold a JSON object with
    every one of ``keys``; a missing key is named with the kind."""
    spec = _load_json(path)
    if not isinstance(spec, dict):
        raise ValueError(f"spec must be a JSON object, got {type(spec).__name__}")
    missing = [key for key in keys if key not in spec]
    if missing:
        raise ValueError(f"{kind} spec is missing {', '.join(map(repr, missing))}")
    return spec


def _spec_list(x, what):
    """A spec field that must be a JSON list; anything else is a ValueError."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, got {type(x).__name__}")
    return x


def _spec_matrix(m, what):
    """A spec matrix, a list of rows of fractions, as Fractions."""
    return [[parse_frac(x) for x in _spec_list(row, f"{what} row")]
            for row in _spec_list(m, what)]


def cmd_check(args):
    started = time.monotonic()
    r = jsonio.operator_from_json(_load_json(args.op))
    laws = _names(args.laws, "--laws")
    verdicts = check_laws(r, laws)
    witnesses = {}
    if "long" in laws:
        witness = long_witness(r)
        if (witness is None) != verdicts["long"]:
            raise InternalCheckFailed(
                "matrix-level and componentwise Long checks disagree"
            )
        if witness is not None:
            eq_no, idx = witness
            witnesses["long"] = {"equation": eq_no, "indices": list(idx)}
    _emit(_report("check", verdicts, witnesses, started))
    return EXIT_OK if all(verdicts.values()) else EXIT_FAIL


def cmd_construct(args):
    if args.kind == "phi":
        r = make_phi(args.n, [parse_int(tok) for tok in args.map.split(",")])
    elif args.kind == "diag":
        r = make_diag(args.n, _square(_frac_list(args.a), "--a"))
    elif args.kind == "pair":
        f, g = _square(_frac_list(args.f), "--f"), _square(_frac_list(args.g), "--g")
        if len(f) != args.n or len(g) != args.n:
            raise ValueError("--f and --g must be n x n")
        r = make_pair(f, g)
    elif args.kind == "conjugate":
        base = jsonio.operator_from_json(_load_json(args.op))
        r = make_conjugate(_square(_frac_list(args.u), "--u"), base)
    elif args.kind == "graded":
        spec = _load_spec(args.spec, "graded", ("elements", "table", "actions", "degrees"))
        degrees = _spec_list(spec["degrees"], "degrees")
        if not isinstance(spec["actions"], dict):
            raise ValueError("actions must be an object mapping elements to matrices")
        elements = _spec_list(spec["elements"], "elements")
        if any(isinstance(g, (list, dict)) for g in elements):
            raise ValueError("elements must be JSON scalars, not lists or objects")
        rows = [_spec_list(row, "table row") for row in _spec_list(spec["table"], "table")]
        k = len(elements)
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ValueError(f"table must be {k} x {k}, a row of element indices per element")
        table = {
            (elements[i], elements[j]):
                elements[_spec_index(rows[i][j], len(elements), "table entry")]
            for i in range(len(elements))
            for j in range(len(elements))
        }
        actions = {g: _spec_matrix(m, f"action {g!r}") for g, m in spec["actions"].items()}
        r = make_graded(GradedActionData(elements, table, actions, degrees))
    elif args.kind == "homothety":
        spec = _load_spec(args.spec, "homothety", ("rep", "element"))
        rep = [_spec_matrix(m, "rep matrix") for m in _spec_list(spec["rep"], "rep")]
        r = make_homothety(rep, _spec_list(spec["element"], "element"))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown constructor {args.kind}")
    _emit(jsonio.operator_to_json(r))
    return EXIT_OK


def _build_presentation(args):
    r = jsonio.operator_from_json(_load_json(args.op))
    if args.naming is None:
        return build_LR(r)
    return build_LR(r, naming=_load_json(args.naming))


def cmd_frt(args):
    pres = _build_presentation(args)
    if args.present:
        sys.stdout.write(presentation_text(pres))
        sys.stdout.write("\n")
    else:
        _emit(jsonio.presentation_to_json(pres))
    return EXIT_OK


def cmd_roundtrip(args):
    started = time.monotonic()
    pres = _build_presentation(args)
    if round_trip(pres) != pres.r:
        raise InternalCheckFailed("coset form does not reproduce the input operator")
    _emit(_report("roundtrip", {"round_trip": True}, {}, started))
    return EXIT_OK


def cmd_kz(args):
    started = time.monotonic()
    r = jsonio.operator_from_json(_load_json(args.op))
    loop = jsonio.loop_from_json(_load_json(args.loop))
    if args.steps is not None:
        loop = loop.with_steps(args.steps)
    if loop.N != args.points:
        raise ValueError("--points disagrees with the loop base configuration")
    re, _, im = args.h.partition(",")
    h = complex(float(re), float(im) if im else 0.0)
    if not cmath.isfinite(h):
        raise ValueError("--h must be finite")
    # the cheap usage checks (dimension cap, integrator memory, comparison
    # preconditions) run before the exact brackets and the integration
    system = kz.KZSystem.from_op(r, args.points, h)
    kz.check_integrator_memory(system, loop)
    if args.compare:
        kz.check_circle_oracle(system, loop)
    residuals = kz.flatness_residuals(r, args.points)
    w = kz.integrate_holonomy(system, loop)
    fields = {
        "format_version": jsonio.FORMAT_VERSION,
        "residuals": residuals,
        "elapsed_s": round(time.monotonic() - started, 6),
    }
    code = EXIT_OK
    if args.compare:
        fields["oracle_distance"] = kz.oracle_distance(system, w, loop.moving,
                                                       loop.center_index)
        if not all(residuals.values()):
            code = EXIT_FAIL
    # the bytes of _emit({**holonomy_to_json(w, ...), **fields}), written from w
    jsonio.write_holonomy(sys.stdout, w, h, args.points, r.dim, fields)
    sys.stdout.write("\n")
    return code


def cmd_bialgebra_check(args):
    started = time.monotonic()
    b = jsonio.bialgebra_from_json(_load_json(args.bialgebra))
    s = jsonio.sigma_from_json(_load_json(args.sigma))
    axioms = (["L1", "L2", "L3", "L4", "L5"] if args.axioms is None
              else _names(args.axioms, "--axioms"))
    results = check_axioms(b, s, axioms)
    verdicts = {name: ok for name, (ok, _) in results.items()}
    witnesses = {
        name: list(w) for name, (ok, w) in results.items() if not ok and w
    }
    _emit(_report("bialgebra-check", verdicts, witnesses, started))
    return EXIT_OK if all(verdicts.values()) else EXIT_FAIL


def _int_option(text):
    """An integer option, read by ``scalars.parse_int``: ASCII digits only,
    where argparse's ``type=int`` also took other Unicode digits and ``_``."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ascii_number_option(text):
    """A number option such as ``--h``, refused unless it is ASCII without
    ``_``: ``float()`` also takes other Unicode digits and ``_`` separators."""
    if not text.isascii() or "_" in text:
        raise argparse.ArgumentTypeError(f"not an ASCII number string: {text!r}")
    return text


def build_parser():
    p = argparse.ArgumentParser(
        prog="longeq",
        description="Exact Long-equation toolkit: checks, constructions, "
        "FRT-type presentations, and KZ holonomy.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify equational laws of an operator")
    c.add_argument("--op", required=True, help="operator JSON file")
    c.add_argument("--laws", default="long", help="comma-separated law names")

    c = sub.add_parser("construct", help="emit a constructed solution as JSON")
    kinds = c.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("phi")
    k.add_argument("--n", type=_int_option, required=True)
    k.add_argument("--map", required=True, help="comma-separated values of phi")
    k = kinds.add_parser("diag")
    k.add_argument("--n", type=_int_option, required=True)
    k.add_argument("--a", required=True, help="row-major n*n fraction list")
    k = kinds.add_parser("pair")
    k.add_argument("--n", type=_int_option, required=True)
    k.add_argument("--f", required=True, help="row-major n*n fraction list")
    k.add_argument("--g", required=True, help="row-major n*n fraction list")
    k = kinds.add_parser("conjugate")
    k.add_argument("--op", required=True, help="base operator JSON file")
    k.add_argument("--u", required=True, help="row-major n*n fraction list")
    k = kinds.add_parser("graded")
    k.add_argument("--spec", required=True, help="graded-action JSON file")
    k = kinds.add_parser("homothety")
    k.add_argument("--spec", required=True, help="homothety JSON file")

    c = sub.add_parser("frt", help="build the induced bialgebra presentation")
    c.add_argument("--op", required=True)
    c.add_argument("--present", action="store_true", help="emit text, not JSON")
    c.add_argument("--naming", help="JSON file mapping c_i_j to display names")

    c = sub.add_parser("roundtrip", help="verify the presentation round trip")
    c.add_argument("--op", required=True)
    c.set_defaults(naming=None)

    c = sub.add_parser("kz", help="integrate loop holonomy of the connection")
    c.add_argument("--op", required=True)
    c.add_argument("--points", type=_int_option, required=True)
    c.add_argument("--h", type=_ascii_number_option, required=True,
                   help="complex parameter as RE or RE,IM")
    c.add_argument("--loop", required=True, help="loop JSON file")
    c.add_argument("--steps", type=_int_option, help="override the loop step count")
    c.add_argument(
        "--compare",
        action="store_true",
        help="compare against the exponential oracle (symmetric circle loops)",
    )

    c = sub.add_parser("bialgebra-check", help="check sigma-table axioms")
    c.add_argument("--bialgebra", required=True)
    c.add_argument("--sigma", required=True)
    c.add_argument("--axioms",
                   help="comma-separated subset of the axiom names (default L1,L2,L3,L4,L5)")
    return p


def _join_h_values(argv):
    """``argv`` with ``--h VALUE`` joined as ``--h=VALUE`` when VALUE starts
    with one ``-``: argparse takes ``-1e-3`` or ``-0.1,0.2`` for an option,
    and ``--h`` then has no value. ``--h --loop`` still has none."""
    out = []
    for arg in argv:
        if out and out[-1] == "--h" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = "--h=" + arg
        else:
            out.append(arg)
    return out


@functools.cache
def _parser():
    """The parser, built once per process; parsing does not change it."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(_join_h_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # the handler is looked up when the command runs, so a replaced
    # module-level cmd_* is the one called
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except InternalCheckFailed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NotALongSolution as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (LongeqError, ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
