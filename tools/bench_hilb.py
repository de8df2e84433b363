"""Cost of a `wpptoric hilb --E` request in two checkouts: before and after.

Usage (stdlib only):

    python3 tools/bench_hilb.py --before OLD_CHECKOUT --after NEW_CHECKOUT \
        [--rounds 2] [--rr-seconds 8] [--out BENCH_hilb.json]

Each checkout is a repository root with `src/` and `bench/`.  For every
checkout, in alternating rounds, it measures three things:

* in process: one `cli.main(["hilb", ...])` per request of `REQUESTS`,
  with stdout captured, repeated with warm caches; the median time in
  microseconds and the number of `hilb_lin_numerator` calls one request
  makes (counted by wrapping the function wherever the checkout's `cli`
  or `hilbert` module holds it);
* whole process: `python -m wpptoric.cli` on `PROCESS_REQUEST`, in
  seconds;
* `bench/run.py --workload rr-sweep --seed 1`: its `wall_s`,
  `req_p50_ms`, `req_p90_ms`, `setup_s` and `peak_rss_mb`.

The in-process and whole-process figures run in a child interpreter per
checkout, so the two trees never share a module.  The result is one JSON
document, with the Python version and CPU count of the machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (weights, r, E): E = m, 2m, 1200 and 99990 on P(2,3,5) (m = 30,
# lcm of the pairwise gcds P = 1) and P(6,8,15) (m = 120, P = 6)
REQUESTS = [(w, r, E) for w, r, m in (((2, 3, 5), 7, 30), ((6, 8, 15), -9, 120))
            for E in (m, 2 * m, 1200, 99990)]
PROCESS_REQUEST = ["hilb", "--abc", "2", "3", "5", "--r", "7", "--E", "99990", "--check"]
RR_METRICS = ("wall_s", "req_p50_ms", "req_p90_ms", "setup_s", "peak_rss_mb")
MIN_REPEAT_S = 0.3


def _child(src):
    """Time the requests in this interpreter, against the package in `src`."""
    import contextlib
    import io

    sys.path.insert(0, src)
    from wpptoric import cli, hilbert

    calls = [0]
    for module in (cli, hilbert):
        original = getattr(module, "hilb_lin_numerator", None)
        if original is not None:
            def counted(params, r, _original=original):
                calls[0] += 1
                return _original(params, r)
            module.hilb_lin_numerator = counted

    rows = []
    for weights, r, E in REQUESTS:
        argv = ["hilb", "--abc", *map(str, weights), "--r", str(r), "--E", str(E), "--check"]
        times = []
        start = time.perf_counter()
        while len(times) < 3 or time.perf_counter() - start < MIN_REPEAT_S:
            calls[0] = 0
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                times.append(time.perf_counter() - t0)
            if code:
                raise SystemExit(f"{argv} exited {code}")
        rows.append({"abc": list(weights), "r": r, "E": E,
                     "median_us": round(statistics.median(times) * 1e6, 1),
                     "lin_numerator_calls": calls[0]})
    json.dump(rows, sys.stdout)


def _in_process(tree):
    out = subprocess.run([sys.executable, __file__, "--child", str(tree / "src")],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _whole_process(tree):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "wpptoric.cli", *PROCESS_REQUEST],
                   check=True, stdout=subprocess.DEVNULL, env=env)
    return round(time.perf_counter() - t0, 4)


def _rr_sweep(tree, seconds):
    out = subprocess.run([sys.executable, str(tree / "bench" / "run.py"), "--workload",
                          "rr-sweep", "--seed", "1", "--seconds", str(seconds),
                          "--trace", "0"],
                         check=True, capture_output=True, text=True, cwd=tree).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: round(metrics[name]["value"], 4) for name in RR_METRICS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--rr-seconds", type=float, default=8)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return _child(args.child)
    if not (args.before and args.after):
        parser.error("--before and --after are required")

    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    result = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "requests_in_process": {}, "whole_process_s": {}, "rr_sweep_seed1": {},
    }
    for label in trees:
        result["whole_process_s"][label] = []
        result["rr_sweep_seed1"][label] = []
    # alternate the trees round by round, so drift in the machine's speed
    # falls on both
    for _ in range(args.rounds):
        for label, tree in trees.items():
            result["whole_process_s"][label].append(_whole_process(tree))
            result["rr_sweep_seed1"][label].append(_rr_sweep(tree, args.rr_seconds))
    for label, tree in trees.items():
        result["requests_in_process"][label] = _in_process(tree)
    result["whole_process_request"] = " ".join(PROCESS_REQUEST)

    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
