"""Command-line front end.

Every command prints JSON lines: one leading metadata record echoing
the configuration, then one record per result row.  `--pretty` switches
to human-readable tables.  Exit codes: 0 success, 1 usage, invalid
input or an output pipe closed by its reader, 2 oracle mismatch under
--check (`hilb` always checks), 3 internal inconsistency.

Default truncation orders can be overridden with the environment
variables WPPTORIC_ORDER (default 6) and WPPTORIC_MAX (default 10).
They are read on every call of `main`, so a changed value takes effect
in a long-lived process too; a value that is not an integer is invalid
input.

The command line is read against one table, `COMMANDS`: for each
command its handler, its help line and its flags, each with a
destination, a kind (an int, three ints, a string, a choice or a
store-true flag), a default and whether it is required.  The first
token names the command; every later token must be one of its flags,
spelled out in full, followed by its value(s) or written
`--flag=value`, and the last occurrence of a flag wins.  A malformed
command line exits 1 with one stderr line, `usage error: ...`;
`-h`/`--help` prints the help built from the same table and exits 0.

E, the rank of the generating sheaf, has two rules: `hilb --E` takes any
E >= 1 that every pairwise gcd of the weights divides, `hseries --E`
only positive multiples of lcm(a,b,c).

Input limits: `hilb` accepts |r| <= 10^6 and E <= 10^5.  The counting
oracle it always runs costs O(|r|): well under a second at the limit,
seconds to forever beyond it.  The generating-sheaf check costs one
period of integer numerators whatever E is
(`hilbert.lin_numerator_window`).  `kclass` accepts weights with
lcm(a,b,c) <= 10^6 (`kgroup.MAX_PERIOD`): its twists g^e reduce g^m from
a list of m + 1 coefficients, about a second and 70 MB at the limit.
`glue` accepts a window halfwidth h <= 300 (`minimal_halfwidth`,
3 + 2a + b + 2c for the rank-2 demo): its families hold (2h+1)^2 cells
each, about half a second and 100 MB at the limit.
"""

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .errors import InternalInconsistencyError, InvalidInputError
from .hilbert import (
    check_generating_E,
    chi_oracle,
    hilb_fit_oracle,
    hilb_top,
    hilb_top_E,
    hilb_top_from_sums,
    lin_numerator_window,
)
from .inertia import tch_of_kclass
from .kgroup import WppParams, rank1_class, rank2_typeI_class
from .partitions import (
    Partition,
    eta_inv_pow,
    g_series,
    reference_113_report,
)
from .rank2 import (
    enumerate_refined_solutions,
    enumerate_stable_triples,
    h_full,
    h_vb_specialized,
    is_mu_stable,
    slope_oracle_stability,
)
from .sheaf_model import (
    Rank1Sheaf,
    TypeIBundle,
    check_gluing,
    kclass_by_devissage,
    minimal_halfwidth,
    sfamily,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_INCONSISTENT = 3

MAX_ABS_R = 10**6
MAX_E = 10**5
MAX_HALFWIDTH = 300


class _OracleMismatch(Exception):
    pass


def _rat(x):
    """An int or a `Fraction` as "p" or "p/q"; both carry numerator and denominator."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# one encoder for every record: json.dumps(record, sort_keys=True) builds
# a new one per call
_encode = json.JSONEncoder(sort_keys=True).encode


class Output:
    def __init__(self, pretty):
        self.pretty = pretty

    def emit(self, record):
        if self.pretty:
            kind = record.pop("record", "row")
            fields = "  ".join(f"{k}={v}" for k, v in record.items())
            print(f"[{kind}] {fields}")
        else:
            print(_encode(record))


def _meta(out, command, config):
    out.emit({"record": "meta", "tool": "wpptoric", "version": __version__,
              "command": command, "config": config})


def _term_records(out, label, vars, terms):
    """One term record per (exponents, coeff) of `terms`, in their order.

    Every series keeps only its nonzero coefficients.  A monomial names
    the variables with a nonzero exponent, so q^0 is {}.
    """
    for exps, coeff in terms:
        monomial = {v: e for v, e in zip(vars, exps) if e}
        out.emit({"record": "term", "series": label, "monomial": monomial,
                  "coeff": coeff})


def _q_terms(counts):
    """The (exponents, coeff) of an {exponent: count} series in q, ascending."""
    return [((e,), coeff) for e, coeff in sorted(counts.items())]


def _require_nonnegative(args, *names):
    for name in names:
        if getattr(args, name) < 0:
            raise InvalidInputError(f"--{name} must be nonnegative")


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
    if abs(args.r) > MAX_ABS_R:
        raise InvalidInputError(f"|r| must be at most {MAX_ABS_R}")
    if args.E is not None:
        if args.E > MAX_E:
            raise InvalidInputError(f"E must be at most {MAX_E}")
        te = hilb_top_E(params, args.E, args.r)
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
        out.emit({"record": "hilb", "source": "generating-sheaf",
                  "E": args.E, "quad": _rat(te.quad), "lin": _rat(te.lin)})
        # the numerators of the twists r+u with d | r+u, pair sums
        # included, independent of the closed form of hilb_top_E
        agree = agree and hilb_top_from_sums(
            params, *lin_numerator_window(params, args.r, args.E)) == te
    out.emit({"record": "verdict", "oracle_match": agree})
    if not agree:
        raise _OracleMismatch("Hilbert coefficients disagree with the oracle")


def cmd_gseries(args, out):
    params = WppParams(*args.abc)
    _require_nonnegative(args, "order")
    _meta(out, "gseries", {"abc": args.abc, "beta": args.beta,
                           "order": args.order, "specialize": args.specialize})
    series, totals = g_series(params, args.beta, args.order, args.specialize)
    _term_records(out, f"g[{args.specialize}]", series.vars, series.items())
    if args.check:
        ok = totals == eta_inv_pow(3, args.order)
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
    check_generating_E(params, args.E)
    _require_nonnegative(args, "max", "order")
    lam = args.lam % params.d
    _meta(out, "hseries", {"abc": args.abc, "E": args.E, "c1": args.c1,
                           "lambda": lam, "max": args.max, "order": args.order})
    h_vb = h_vb_specialized(params, args.E, args.c1, lam, args.max)
    _term_records(out, "h_vb", ("q",), _q_terms(h_vb))
    if args.order:
        full, floor = h_full(params, args.E, args.c1, lam, args.order)
        out.emit({"record": "window", "series": "h_full", "floor": floor})
        _term_records(out, "h_full", ("q",), _q_terms(full))
    if args.check:
        # the data h_vb counts, against those solving the refined constraints
        ok = (list(enumerate_refined_solutions(params, args.c1, lam, args.max))
              == list(enumerate_stable_triples(params, args.c1, lam, args.max)))
        out.emit({"record": "check", "name": "refined-vs-specialized", "ok": ok})
        if not ok:
            raise _OracleMismatch("refined solutions disagree with the stable data")


def cmd_stable(args, out):
    params = WppParams(*args.abc)
    _require_nonnegative(args, "max")
    lam = args.lam % params.d
    _meta(out, "stable", {"abc": args.abc, "c1": args.c1, "lambda": lam, "max": args.max})
    triples = list(enumerate_stable_triples(params, args.c1, lam, args.max))
    for A, widths in triples:
        out.emit({"record": "triple", "A": A, "widths": list(widths)})
    if args.check:
        ok = True
        for A, widths in triples:
            datum = TypeIBundle(0, 0, A, *widths)
            # is_mu_stable validates the datum, the slope oracle relies on it
            if not (is_mu_stable(params, datum)
                    and slope_oracle_stability(params, params.m, datum)):
                ok = False
        out.emit({"record": "check", "name": "classifier-vs-slope-oracle", "ok": ok})
        if not ok:
            raise _OracleMismatch("stability classifier disagrees with slope oracle")


def cmd_kclass(args, out):
    params = WppParams(*args.abc)
    A, B, C = args.ABC
    if args.points is not None and args.widths is None:
        raise InvalidInputError("--points needs --widths")
    if args.partitions is not None and args.widths is not None:
        raise InvalidInputError("--partitions and --widths exclude each other")
    if args.widths is not None:
        points = _parse_points(args.points) if args.points is not None else ()
        sheaf = TypeIBundle(A, B, C, *args.widths, *points)
        kclass = rank2_typeI_class(params, sheaf)  # checks the widths
    else:
        lams = (Partition(),) * 3
        if args.partitions is not None:
            lams = [_parse_partition(p) for p in args.partitions.split(";")]
            if len(lams) != 3:
                raise InvalidInputError("need three partitions, like '2,1;;3'")
        sheaf = Rank1Sheaf(A, B, C, *lams)
        kclass = rank1_class(params, A, B, C, *lams)
    config = {"abc": args.abc, "ABC": args.ABC, "partitions": args.partitions,
              "widths": args.widths, "points": args.points}
    _meta(out, "kclass", config)
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
    if args.demo == "rank1":
        # chart 3 sees the hull label C through its corner on every plane,
        # B only through fine weights mod c
        case = "mutated-hull-label"
        sheaf = Rank1Sheaf(1, 0, 1, Partition((2, 1)), Partition(), Partition((1,)))
        mutated = Rank1Sheaf(1, 0, 2, Partition((2, 1)), Partition(), Partition((1,)))
    else:
        case = "mutated-width"
        sheaf = TypeIBundle(0, 1, -1, params.b, 2 * params.c, params.a)
        mutated = TypeIBundle(0, 1, -1, params.b, 2 * params.c, 2 * params.a)
    halfwidth = max(minimal_halfwidth(params, sheaf), minimal_halfwidth(params, mutated))
    if halfwidth > MAX_HALFWIDTH:
        raise InvalidInputError(f"window halfwidth {halfwidth} exceeds {MAX_HALFWIDTH}")
    _meta(out, "glue", {"abc": args.abc, "demo": args.demo})
    fams = [sfamily(params, sheaf, ch, halfwidth=halfwidth) for ch in (1, 2, 3)]
    ok, _ = check_gluing(params, *fams)
    out.emit({"record": "glue", "case": "matched-data", "pass": ok})
    bad_ok, diag = check_gluing(params, *fams[:2],
                                sfamily(params, mutated, 3, halfwidth=halfwidth))
    out.emit({"record": "glue", "case": case, "pass": bad_ok, "diagnostics": diag[:2]})
    expected = ok and not bad_ok
    out.emit({"record": "verdict", "demo_behaved": expected})
    if not expected:
        raise _OracleMismatch("gluing demo did not behave as expected")


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


# the defaults that WPPTORIC_ORDER and WPPTORIC_MAX override; a table
# default naming one of them is read from the environment on every call
_ENV_DEFAULTS = {"WPPTORIC_ORDER": 6, "WPPTORIC_MAX": 10}

# flag -> (dest, kind, default, required, help); a kind is "int", "int3"
# (three ints), "str", "flag" (store true) or a tuple of choices
_SHARED = {
    "--abc": ("abc", "int3", None, True, "the three weights A B C"),
    "--pretty": ("pretty", "flag", False, False, "human-readable lines instead of JSON"),
    "--check": ("check", "flag", False, False, "run the paired oracle; exit 2 on mismatch"),
}
_LAMBDA = ("lam", "int", 0, False, "the twist class lambda, taken mod gcd(a, b, c)")
_MAX = ("max", "int", "WPPTORIC_MAX", False, "enumeration bound")

# command -> (handler, help, flags)
COMMANDS = {
    "hilb": (cmd_hilb, "Hilbert coefficients and the counting oracle", {
        **_SHARED,
        "--check": ("check", "flag", False, False,
                    "accepted and ignored: the oracles always run, exit 2 on mismatch"),
        "--r": ("r", "int", 0, False, "the twist r"),
        "--E": ("E", "int", None, False, "also the generating-sheaf version for this E"),
    }),
    "gseries": (cmd_gseries, "rank-1 colored generating function", {
        **_SHARED,
        "--beta": ("beta", "int", 0, False, "the twist beta"),
        "--order": ("order", "int", "WPPTORIC_ORDER", False, "truncation order"),
        "--specialize": ("specialize", ("none", "color0", "total"), "none", False,
                         "which variables to keep"),
    }),
    "hseries": (cmd_hseries, "rank-2 stable generating function", {
        **_SHARED,
        "--E": ("E", "int", None, True, "the generating sheaf E"),
        "--c1": ("c1", "int", None, True, "the first Chern class c1"),
        "--lambda": _LAMBDA,
        "--max": _MAX,
        "--order": ("order", "int", 0, False, "also print the full-moduli series to this depth"),
    }),
    "stable": (cmd_stable, "enumerate stable rank-2 data", {
        **_SHARED,
        "--c1": ("c1", "int", None, True, "the first Chern class c1"),
        "--lambda": _LAMBDA,
        "--max": _MAX,
    }),
    "kclass": (cmd_kclass, "K-group classes and characters", {
        **_SHARED,
        "--ABC": ("ABC", "int3", None, True, "the hull labels A B C"),
        "--partitions": ("partitions", "str", None, False,
                         "three comma-lists separated by ';', e.g. '2,1;;3'"),
        "--widths": ("widths", "int3", None, False, "the rank-2 widths D1 D2 D3"),
        "--points": ("points", "str", None, False,
                     "three points 'x:y;x:y;x:y' for the rank-2 datum"),
    }),
    "glue": (cmd_glue, "gluing verifier demonstration", {
        **_SHARED,
        "--demo": ("demo", ("rank1", "rank2"), "rank1", False, "which demonstration"),
    }),
}
_HELP_FLAGS = ("-h", "--help")
_EXPECTS = {"int": "an integer", "int3": "three integers", "str": "a value"}
# a value may not look like a flag: a leading dash marks one, unless the
# token is a negative number or holds a space
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _env_int(name, default):
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"{name}={text!r} is not an integer") from None


def _value(flag, kind, token):
    """One value of a flag, converted as its kind says."""
    if not (token[:1] == "-" and token != "-" and " " not in token
            and not _NEGATIVE_NUMBER.match(token)):
        if kind == "str" or isinstance(kind, tuple) and token in kind:
            return token
        if kind in ("int", "int3"):
            try:
                return int(token)
            except ValueError:
                pass
    expects = _EXPECTS.get(kind) or f"one of {', '.join(kind)}"
    raise _UsageError(f"{flag} expects {expects}, not {token!r}")


def _parse_argv(argv, env):
    """The namespace of one command line, or None when it asks for help.

    The first token names the command; every later token is an exact
    flag of it, then its value(s), or `--flag=value` for a single value.
    The last occurrence of a flag wins.
    """
    if not argv:
        raise _UsageError(f"missing command, one of {', '.join(COMMANDS)}")
    command = argv[0]
    if command in _HELP_FLAGS:
        return None
    if command not in COMMANDS:
        raise _UsageError(f"unknown command {command!r}, expected one of {', '.join(COMMANDS)}")
    func, _, flags = COMMANDS[command]
    ns = {dest: env.get(default, default) for dest, _, default, _, _ in flags.values()}
    seen = set()
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if token in _HELP_FLAGS:
            return None
        flag, eq, text = token.partition("=")
        if flag not in flags:
            raise _UsageError(f"unknown flag {token!r} for {command}")
        dest, kind, _, _, _ = flags[flag]
        if kind == "flag":
            if eq:
                raise _UsageError(f"{flag} takes no value")
            ns[dest] = True
        elif kind == "int3":
            if eq or i + 3 > n:
                raise _UsageError(f"{flag} expects three integers, each its own word")
            ns[dest] = [_value(flag, kind, t) for t in argv[i:i + 3]]
            i += 3
        else:
            if not eq:
                if i == n:
                    raise _UsageError(f"{flag} expects a value")
                text = argv[i]
                i += 1
            ns[dest] = _value(flag, kind, text)
        seen.add(flag)
    missing = [flag for flag, spec in flags.items() if spec[3] and flag not in seen]
    if missing:
        raise _UsageError(f"{command} needs {', '.join(missing)}")
    return SimpleNamespace(command=command, func=func, **ns)


def _help_text():
    lines = ["usage: wpptoric COMMAND --abc A B C [--flag VALUE | --flag=VALUE ...]",
             "Exact invariants of toric sheaves on weighted projective planes.",
             "Flags must be spelled out in full; the last occurrence of a flag wins."]
    for command, (_, about, flags) in COMMANDS.items():
        lines += ["", f"{command}: {about}"]
        for flag, (_, kind, default, required, text) in flags.items():
            arg = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else \
                {"int": "N", "int3": "N N N", "str": "TEXT", "flag": ""}[kind]
            if required:
                text += " (required)"
            elif default in _ENV_DEFAULTS:
                text += f" (default ${default}, else {_ENV_DEFAULTS[default]})"
            elif default is not None and kind != "flag":
                text += f" (default {default})"
            lines.append(f"  {flag} {arg}".ljust(26) + "  " + text)
    return "\n".join(lines) + "\n"


def _run(argv):
    env = {name: _env_int(name, default) for name, default in _ENV_DEFAULTS.items()}
    args = _parse_argv(sys.argv[1:] if argv is None else argv, env)
    if args is None:
        sys.stdout.write(_help_text())
        return EXIT_OK
    args.func(args, Output(args.pretty))
    return EXIT_OK


def _exit_code(argv):
    try:
        return _run(argv)
    except _OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None):
    try:
        code = _exit_code(argv)
        sys.stdout.flush()  # a reader that closed early shows up here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`); as the Python docs advise,
        # point stdout at devnull so that the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
