"""Command-line front end.

Every command prints JSON lines: one leading metadata record echoing
the configuration, then one record per result row.  `--pretty` switches
to human-readable tables.  Exit codes: 0 success, 1 usage or invalid
input, 2 oracle mismatch under --check, 3 internal inconsistency.

Default truncation orders can be overridden with the environment
variables WPPTORIC_ORDER and WPPTORIC_MAX.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .errors import InternalInconsistencyError, InvalidInputError
from .hilbert import (
    GeneratingSheafSpec,
    chi_oracle,
    hilb_fit_oracle,
    hilb_top,
    hilb_top_E,
    rank2_constant_term,
)
from .inertia import sectors, tch_of_kclass
from .kgroup import WppParams, line_bundle_class, rank1_class, rank2_typeI_class
from .partitions import (
    Partition,
    color_zero_specialization,
    eta_inv_pow,
    g_series,
    reference_113_report,
    total_count_specialization,
)
from .rank2 import (
    enumerate_refined_solutions,
    enumerate_stable_triples,
    h_full,
    h_vb_specialized,
    is_mu_stable,
    refined_targets,
    slope_oracle_stability,
)
from .sheaf_model import (
    Rank1Sheaf,
    TypeIBundle,
    check_gluing,
    kclass_by_devissage,
    rank1_sfamily,
    typeI_sfamily,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_INCONSISTENT = 3


class _OracleMismatch(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _rat(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class Output:
    def __init__(self, pretty):
        self.pretty = pretty

    def emit(self, record):
        if self.pretty:
            kind = record.pop("record", "row")
            fields = "  ".join(f"{k}={v}" for k, v in record.items())
            print(f"[{kind}] {fields}")
        else:
            print(json.dumps(record, sort_keys=True))


def _meta(out, command, config):
    out.emit({"record": "meta", "tool": "wpptoric", "version": __version__,
              "command": command, "config": config})


def _series_records(out, series, label):
    for exps, coeff in series.items():
        monomial = {v: e for v, e in zip(series.vars, exps) if e}
        out.emit({"record": "term", "series": label, "monomial": monomial,
                  "coeff": coeff if isinstance(coeff, int) else _rat(coeff)})


def _parse_partition(text):
    text = text.strip()
    if not text:
        return Partition()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidInputError(f"partition {text!r} is not a comma-list of integers") from None
    return Partition(parts)


def _parse_points(text):
    points = []
    for chunk in text.split(";"):
        try:
            x, y = chunk.split(":")
            points.append((Fraction(x), Fraction(y)))
        except (ValueError, ZeroDivisionError):
            raise InvalidInputError(f"point {chunk!r} is not of the form x:y") from None
    if len(points) != 3:
        raise InvalidInputError("need three points, like '1:0;0:1;1:1'")
    return points


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_hilb(args, out):
    params = WppParams(*args.abc)
    _meta(out, "hilb", {"abc": args.abc, "r": args.r, "E": args.E})
    top = hilb_top(params, args.r)
    quad, lin, const = hilb_fit_oracle(params, args.r)
    agree = (quad, lin) == (top.quad, top.lin)
    out.emit({"record": "hilb", "source": "closed-form",
              "quad": _rat(top.quad), "lin": _rat(top.lin)})
    out.emit({"record": "hilb", "source": "oracle-fit", "quad": _rat(quad),
              "lin": _rat(lin), "const": _rat(const)})
    if args.r % params.d:
        samples = [chi_oracle(params, args.r + params.m * t) for t in range(6)]
        out.emit({"record": "vanishing", "chi_samples": samples})
        agree = agree and not any(samples)
    if args.E is not None:
        spec = GeneratingSheafSpec(args.E)
        te = hilb_top_E(params, spec, args.r)
        out.emit({"record": "hilb", "source": "generating-sheaf",
                  "E": args.E, "quad": _rat(te.quad), "lin": _rat(te.lin)})
        sq = sum((hilb_top(params, args.r + u).quad for u in range(args.E)), Fraction(0))
        sl = sum((hilb_top(params, args.r + u).lin for u in range(args.E)), Fraction(0))
        agree = agree and (sq, sl) == (te.quad, te.lin)
    out.emit({"record": "verdict", "oracle_match": agree})
    if not agree:
        raise _OracleMismatch("Hilbert coefficients disagree with the oracle")


def cmd_gseries(args, out):
    params = WppParams(*args.abc)
    _meta(out, "gseries", {"abc": args.abc, "beta": args.beta,
                           "order": args.order, "specialize": args.specialize})
    series = g_series(params, args.beta, args.order)
    if args.specialize == "color0":
        shown = color_zero_specialization(series)
    elif args.specialize == "total":
        shown = total_count_specialization(series)
    else:
        shown = series
    _series_records(out, shown, f"g[{args.specialize}]")
    if args.check:
        merged = total_count_specialization(series)
        reference = eta_inv_pow(3, args.order)
        ok = merged.coeffs == reference.coeffs
        out.emit({"record": "check", "name": "total-count-vs-partition-function",
                  "ok": ok})
        if tuple(args.abc) == (1, 1, 3):
            report = reference_113_report(min(args.order, 4))
            for verdict in report["verdicts"]:
                mono, coeff = verdict["term"]
                out.emit({"record": "reference-term", "monomial": mono,
                          "coeff": coeff, "status": verdict["status"]})
            for mono, coeff in report["unmatched_brute_terms"]:
                out.emit({"record": "reference-correction", "monomial": mono,
                          "coeff": coeff})
        if not ok:
            raise _OracleMismatch("chart series disagree with the partition function")


def cmd_hseries(args, out):
    params = WppParams(*args.abc)
    spec = GeneratingSheafSpec(args.E)
    lam = args.lam % params.d
    _meta(out, "hseries", {"abc": args.abc, "E": args.E, "c1": args.c1,
                           "lambda": lam, "max": args.max, "order": args.order})
    series = h_vb_specialized(params, spec, args.c1, lam, args.max)
    _series_records(out, series, "h_vb")
    if args.order:
        full, floor = h_full(params, spec, args.c1, lam, args.order)
        out.emit({"record": "window", "series": "h_full", "floor": floor})
        _series_records(out, full, "h_full")
    if args.check:
        grouped = {}
        alpha, beta = refined_targets(params, args.c1, lam)
        for _, widths, _ in enumerate_refined_solutions(params, alpha, beta, args.max):
            e = int(rank2_constant_term(params, spec, args.c1, lam, *widths))
            grouped[(e,)] = grouped.get((e,), 0) + 1
        ok = grouped == series.coeffs
        out.emit({"record": "check", "name": "refined-vs-specialized", "ok": ok})
        if not ok:
            raise _OracleMismatch("refined grouping disagrees with specialized series")


def cmd_stable(args, out):
    params = WppParams(*args.abc)
    lam = args.lam % params.d
    _meta(out, "stable", {"abc": args.abc, "c1": args.c1, "lambda": lam, "max": args.max})
    triples = list(enumerate_stable_triples(params, args.c1, lam, args.max))
    for t in triples:
        out.emit({"record": "triple", "A": t.A, "widths": list(t.widths)})
    if args.check:
        spec = GeneratingSheafSpec(params.m)
        ok = True
        for t in triples:
            datum = TypeIBundle(0, 0, t.A, *t.widths)
            if not (is_mu_stable(params, datum)
                    and slope_oracle_stability(params, spec, datum)):
                ok = False
        out.emit({"record": "check", "name": "classifier-vs-slope-oracle", "ok": ok})
        if not ok:
            raise _OracleMismatch("stability classifier disagrees with slope oracle")


def cmd_kclass(args, out):
    params = WppParams(*args.abc)
    A, B, C = args.ABC
    config = {"abc": args.abc, "ABC": args.ABC, "partitions": args.partitions,
              "widths": args.widths, "points": args.points}
    _meta(out, "kclass", config)
    if args.widths is not None:
        points = _parse_points(args.points) if args.points else None
        datum = (TypeIBundle(A, B, C, *args.widths, *points) if points
                 else TypeIBundle(A, B, C, *args.widths))
        sheaf = datum
        kclass = rank2_typeI_class(params, datum)
    elif args.partitions is not None:
        lams = [_parse_partition(p) for p in args.partitions.split(";")]
        if len(lams) != 3:
            raise InvalidInputError("need three partitions, like '2,1;;3'")
        sheaf = Rank1Sheaf(A, B, C, *lams)
        kclass = rank1_class(params, A, B, C, *lams)
    else:
        sheaf = Rank1Sheaf(A, B, C)
        kclass = line_bundle_class(params, A, B, C)
    out.emit({"record": "kclass",
              "triples": [[e, n, d] for e, n, d in kclass.to_triples()]})
    chern = tch_of_kclass(kclass)
    for rec in chern.to_records():
        rec["record"] = "chern"
        out.emit(rec)
    if args.check:
        oracle = kclass_by_devissage(params, sheaf)
        ok = oracle == kclass
        out.emit({"record": "check", "name": "devissage-vs-closed-form", "ok": ok})
        if not ok:
            raise _OracleMismatch("devissage disagrees with the closed formula")


def cmd_glue(args, out):
    params = WppParams(*args.abc)
    _meta(out, "glue", {"abc": args.abc, "demo": args.demo})
    if args.demo == "rank1":
        sheaf = Rank1Sheaf(1, 0, 1, Partition((2, 1)), Partition(), Partition((1,)))
        fams = [rank1_sfamily(params, sheaf, ch) for ch in (1, 2, 3)]
        ok, _ = check_gluing(params, *fams)
        out.emit({"record": "glue", "case": "matched-data", "pass": ok})
        mutated = Rank1Sheaf(1, 1, 1, Partition((2, 1)), Partition(), Partition((1,)))
        fams_bad = [rank1_sfamily(params, sheaf, ch, window=fams[0].window) for ch in (1, 2)]
        fams_bad.append(rank1_sfamily(params, mutated, 3, window=fams[0].window))
        bad_ok, diag = check_gluing(params, *fams_bad)
        out.emit({"record": "glue", "case": "mutated-hull-label", "pass": bad_ok,
                  "diagnostics": diag[:2]})
        expected = ok and not bad_ok
    else:
        from .sheaf_model import Window, minimal_halfwidth

        datum = TypeIBundle(0, 1, -1, params.b, 2 * params.c, params.a)
        mutated = TypeIBundle(0, 1, -1, params.b, 2 * params.c, 2 * params.a)
        window = Window.symmetric(minimal_halfwidth(params, mutated))
        fams = [typeI_sfamily(params, datum, ch, window=window) for ch in (1, 2, 3)]
        ok, _ = check_gluing(params, *fams)
        out.emit({"record": "glue", "case": "matched-data", "pass": ok})
        fams_bad = list(fams[:2])
        fams_bad.append(typeI_sfamily(params, mutated, 3, window=window))
        bad_ok, diag = check_gluing(params, *fams_bad)
        out.emit({"record": "glue", "case": "mutated-width", "pass": bad_ok,
                  "diagnostics": diag[:2]})
        expected = ok and not bad_ok
    out.emit({"record": "verdict", "demo_behaved": expected})
    if not expected:
        raise _OracleMismatch("gluing demo did not behave as expected")


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser():
    default_order = int(os.environ.get("WPPTORIC_ORDER", "6"))
    default_max = int(os.environ.get("WPPTORIC_MAX", "10"))
    parser = _Parser(prog="wpptoric",
                     description="Exact invariants of toric sheaves on weighted projective planes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--abc", type=int, nargs=3, required=True,
                       metavar=("A", "B", "C"), help="the three weights")
        p.add_argument("--pretty", action="store_true")
        p.add_argument("--check", action="store_true",
                       help="run the paired oracle; exit 2 on mismatch")

    p = sub.add_parser("hilb", help="Hilbert coefficients and the counting oracle")
    common(p)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--E", type=int, default=None)
    p.set_defaults(func=cmd_hilb)

    p = sub.add_parser("gseries", help="rank-1 colored generating function")
    common(p)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--order", type=int, default=default_order)
    p.add_argument("--specialize", choices=["none", "color0", "total"], default="none")
    p.set_defaults(func=cmd_gseries)

    p = sub.add_parser("hseries", help="rank-2 stable generating function")
    common(p)
    p.add_argument("--E", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=0)
    p.add_argument("--max", type=int, default=default_max)
    p.add_argument("--order", type=int, default=0,
                   help="also print the full-moduli series to this depth")
    p.set_defaults(func=cmd_hseries)

    p = sub.add_parser("stable", help="enumerate stable rank-2 data")
    common(p)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=0)
    p.add_argument("--max", type=int, default=default_max)
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("kclass", help="K-group classes and characters")
    common(p)
    p.add_argument("--ABC", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    p.add_argument("--partitions", type=str, default=None,
                   help="three comma-lists separated by ';', e.g. '2,1;;3'")
    p.add_argument("--widths", type=int, nargs=3, default=None,
                   metavar=("D1", "D2", "D3"))
    p.add_argument("--points", type=str, default=None,
                   help="three points 'x:y;x:y;x:y' for the rank-2 datum")
    p.set_defaults(func=cmd_kclass)

    p = sub.add_parser("glue", help="gluing verifier demonstration")
    common(p)
    p.add_argument("--demo", choices=["rank1", "rank2"], default="rank1")
    p.set_defaults(func=cmd_glue)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    out = Output(args.pretty)
    try:
        args.func(args, out)
    except _OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
