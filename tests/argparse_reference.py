"""The argparse parser the command line used before its option table.

It is kept as the oracle of `wpptoric.cli._parse_argv`: on every command
line both must accept with the same attributes, or both must reject.
Prefix abbreviations are off (`allow_abbrev=False`), since the option
table accepts exact flag names only.  A rejected command line raises
SystemExit, as argparse does.
"""

import argparse

from wpptoric.cli import cmd_gseries, cmd_glue, cmd_hilb, cmd_hseries, cmd_kclass, cmd_stable


def build_parser(default_order, default_max):
    parser = argparse.ArgumentParser(
        prog="wpptoric", allow_abbrev=False,
        description="Exact invariants of toric sheaves on weighted projective planes")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--abc", type=int, nargs=3, required=True,
                       metavar=("A", "B", "C"), help="the three weights")
        p.add_argument("--pretty", action="store_true")
        p.add_argument("--check", action="store_true",
                       help="run the paired oracle; exit 2 on mismatch")
        p.set_defaults(func=func)
        return p

    p = command("hilb", "Hilbert coefficients and the counting oracle", cmd_hilb)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--E", type=int, default=None)

    p = command("gseries", "rank-1 colored generating function", cmd_gseries)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--order", type=int, default=default_order)
    p.add_argument("--specialize", choices=["none", "color0", "total"], default="none")

    p = command("hseries", "rank-2 stable generating function", cmd_hseries)
    p.add_argument("--E", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=0)
    p.add_argument("--max", type=int, default=default_max)
    p.add_argument("--order", type=int, default=0,
                   help="also print the full-moduli series to this depth")

    p = command("stable", "enumerate stable rank-2 data", cmd_stable)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=0)
    p.add_argument("--max", type=int, default=default_max)

    p = command("kclass", "K-group classes and characters", cmd_kclass)
    p.add_argument("--ABC", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    p.add_argument("--partitions", type=str, default=None,
                   help="three comma-lists separated by ';', e.g. '2,1;;3'")
    p.add_argument("--widths", type=int, nargs=3, default=None,
                   metavar=("D1", "D2", "D3"))
    p.add_argument("--points", type=str, default=None,
                   help="three points 'x:y;x:y;x:y' for the rank-2 datum")

    p = command("glue", "gluing verifier demonstration", cmd_glue)
    p.add_argument("--demo", choices=["rank1", "rank2"], default="rank1")
    return parser
