"""Command-line front end.

Exit codes: 0 success/verified, 1 verification false or inconsistent data,
2 certification budget exhausted (Unknown verdict), 3 unusable input
(syntax, dimensions, flags, files).  Output on stdout is byte-deterministic
for identical inputs; diagnostics go to stderr.

Each subcommand prints nothing: it returns its result as a triple (exit
code, JSON document, text lines), and main, the one place that prints,
writes either the document or the lines.  So the two formats come from one
result and cannot disagree, and a failed check leaves stdout empty.

Every call is a fresh interpreter, so this module loads at start only what
all subcommands share (textio, which brings in poly and endo).  Each
subcommand imports its own layer when it runs: locfin for lf-certify and
minpoly-invert, tame for normal-form, witness for the witness commands,
and json only where a JSON document is read or written.
"""

from __future__ import annotations

import argparse
import sys

from .endo import Endo
from .poly import InconsistencyError, Poly, VerificationError, _brief
from .textio import MapDocument, ParseError, _read_rational, parse_map, render_poly


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our contract reserves 2 for Unknown
    # verdicts, so route usage problems through exit 3 instead
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# ----------------------------------------------------------------------
# input plumbing

def _load_map_from_file(path: str, n_flag) -> Endo:
    g = MapDocument.from_json(_read_text(path)).endo
    if n_flag is not None and n_flag != g.n:
        raise ValueError(f"--n {n_flag} contradicts file dimension {g.n}")
    return g


def _load_maps(maps: list, files: list, n_flag) -> list:
    """The maps given inline (maps) or as documents (files), in order."""
    if maps and files:
        raise ValueError("give --map or --file, not both")
    if files:
        return [_load_map_from_file(p, n_flag) for p in files]
    if not maps:
        raise ValueError("need a map: --map EXPRS or --file PATH")
    if n_flag is None:
        raise ValueError("--n is required with an inline --map")
    return [parse_map(m, n_flag) for m in maps]


def _load_single_map(args) -> Endo:
    maps, files = args.map or [], args.file or []
    if len(maps) > 1 or len(files) > 1:
        raise ValueError("give one --map or --file; only compose takes several")
    return _load_maps(maps, files, args.n)[0]


def _as_elementary(g: Endo):
    """Recognize (X_1, ..., X_i + g, ..., X_n) and recover (i, g)."""
    from .tame import Elementary

    xs = Poly.variables(g.n)
    off = [i for i in range(g.n) if g.coords[i] != xs[i]]
    if not off:
        return Elementary(1, Poly.zero(g.n))  # the identity moves nothing
    if len(off) > 1:
        raise ValueError("not an elementary map: several coordinates move")
    i = off[0]
    return Elementary(i + 1, g.coords[i] - xs[i])  # validates X_i-freeness


def _map_result(g: Endo):
    doc = MapDocument(g).to_json_dict()
    return 0, doc, [", ".join(doc["coords"])]


def _report_result(report):
    """An lf_certify report, with exit code 0 if it is certified, else 2."""
    mu = report.minimal_polynomial
    return 0 if report.certified else 2, report.to_json_dict(), [
        f"verdict: {report.verdict}",
        f"minimal_polynomial: {mu if mu is not None else 'none'}",
        "iterate_degrees: " + " ".join(str(d) for d in report.iterate_degrees),
        f"budget_used: iterations={report.budget_used[0]} "
        f"max_degree={report.budget_used[1]}",
    ]


def _witness_result(w):
    return 0, w.to_json_dict(), w.transcript


# ----------------------------------------------------------------------
# subcommands: each returns (exit code, JSON document, text lines)

def _cmd_compose(args):
    maps = _load_maps(args.map or [], args.file or [], args.n)
    result = maps[0]
    for g in maps[1:]:
        result = result.compose(g)
    return _map_result(result)


#: The largest count `iterate --times` accepts.  The orbit keeps every
#: iterate, so even x1 + 1, x2 takes about 8 s and 117 MB at 10^5 and a
#: count such as 10^20 never ends; a larger count is refused with exit 3
#: before the map is read.
MAX_ITERATE_TIMES = 10**4


def _cmd_iterate(args):
    if args.times > MAX_ITERATE_TIMES:
        raise ValueError(f"--times {_brief(args.times)} is above the cap {MAX_ITERATE_TIMES}")
    return _map_result(_load_single_map(args).iterate(args.times))


def _cmd_jacobian(args):
    g = _load_single_map(args)
    det = render_poly(g.jacobian_det())
    return 0, {"n": g.n, "jacobian_det": det}, [det]


def _cmd_lf_certify(args):
    from .locfin import lf_certify

    g = _load_single_map(args)
    return _report_result(lf_certify(g, max_iter=args.budget_iter, max_deg=args.budget_deg))


def _cmd_minpoly_invert(args):
    from .locfin import inverse_from_minpoly, lf_certify

    g = _load_single_map(args)
    report = lf_certify(g, max_iter=args.budget_iter, max_deg=args.budget_deg)
    if not report.certified:
        return _report_result(report)
    mu = report.minimal_polynomial
    inv = MapDocument(inverse_from_minpoly(g, mu)).to_json_dict()
    return 0, {"minimal_polynomial": mu.to_coeff_strings(), "inverse": inv}, [
        f"minimal_polynomial: {mu}",
        "inverse: " + ", ".join(inv["coords"]),
    ]


def _cmd_normal_form(args):
    if len(args.file) > 1:
        raise ValueError("give one --file")
    import json

    from .tame import TameWord, normal_form

    # normal_form certifies every step it takes (see its docstring), and a
    # failed step raises InconsistencyError before anything is printed
    doc = normal_form(TameWord.from_json(_read_text(args.file[0]))).to_word().to_json_dict()
    lines = [json.dumps(f) for f in doc["factors"]] + ["recomposition_verified: true"]
    doc["recomposition_verified"] = True
    return 0, doc, lines


def _cmd_witness_obs2(args):
    from .witness import witness_obs2

    return _witness_result(witness_obs2(_as_elementary(_load_single_map(args))))


def _cmd_witness_obs3(args):
    from .witness import witness_obs3

    a = _read_rational(args.a)
    e = _as_elementary(_load_single_map(args))
    return _witness_result(witness_obs3(e, a=a, j=args.j))


def _cmd_nagata_verify(args):
    from .witness import witness_obs4

    return _witness_result(witness_obs4())


def _cmd_parse_check(args):
    return _map_result(_load_single_map(args))


# ----------------------------------------------------------------------

def _add_map_flags(sub):
    # appended, so that a repeated flag is refused rather than overridden
    sub.add_argument("--map", action="append",
                     help="inline comma-separated coordinate expressions "
                     "(compose takes several, composed left to right)")
    sub.add_argument("--file", action="append",
                     help="JSON map document path (compose takes several)")
    sub.add_argument("--n", type=int, help="ambient dimension (required with --map)")


def _add_budget_flags(sub):
    sub.add_argument("--budget-iter", type=int, default=16,
                     help="iteration budget (default 16)")
    sub.add_argument("--budget-deg", type=int, default=512,
                     help="degree budget (default 512)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="polyaut",
        description="Exact computation with polynomial automorphisms over Q.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        sub.add_argument("--format", choices=("text", "json"), default="text")
        return sub

    sub = add("compose", _cmd_compose, "compose maps left to right")
    _add_map_flags(sub)

    sub = add("iterate", _cmd_iterate, "m-th iterate of a map")
    _add_map_flags(sub)
    sub.add_argument("--times", type=int, required=True, help="iteration count")

    sub = add("jacobian", _cmd_jacobian, "Jacobian determinant")
    _add_map_flags(sub)

    sub = add("lf-certify", _cmd_lf_certify,
              "certify local finiteness and compute the minimal polynomial")
    _add_map_flags(sub)
    _add_budget_flags(sub)

    sub = add("minpoly-invert", _cmd_minpoly_invert,
              "invert a map through its minimal polynomial")
    _add_map_flags(sub)
    _add_budget_flags(sub)

    sub = add("normal-form", _cmd_normal_form,
              "rewrite a tame word as elementaries then one diagonal")
    sub.add_argument("--file", action="append", required=True,
                     help="JSON word document path")

    sub = add("witness-obs2", _cmd_witness_obs2,
              "doubling-conjugation witness for an elementary map")
    _add_map_flags(sub)

    sub = add("witness-obs3", _cmd_witness_obs3,
              "determinant-one conjugation witness for an elementary map")
    _add_map_flags(sub)
    sub.add_argument("--a", default="2",
                     help="scaling parameter p or p/q, not 0 or +-1 (default 2); "
                     "write a negative fraction as --a=-6/4")
    sub.add_argument("--j", type=int, default=None,
                     help="balancing index (default: smallest != i)")

    add("nagata-verify", _cmd_nagata_verify,
        "verify the wild degree-5 conjugation chain")

    sub = add("parse-check", _cmd_parse_check,
              "parse a map and echo its canonical rendering")
    _add_map_flags(sub)

    return parser


def main(argv=None) -> int:
    # exact results have any number of digits, past the interpreter's cap
    # on int <-> str conversion (4300 digits by default, where it exists),
    # so the cap is lifted for the length of this call
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code, doc, lines = args.func(args)
        if args.format == "json":
            import json

            print(json.dumps(doc, indent=2))
        else:
            print("\n".join(lines))
        return code
    except _UsageError as exc:
        print(f"polyaut: error: {exc}", file=sys.stderr)
        return 3
    except (InconsistencyError, VerificationError) as exc:
        print(f"polyaut: verification failed: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print(f"polyaut: error: {exc}", file=sys.stderr)
        return 3
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
