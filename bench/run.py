"""Seeded request-stream benchmark of the wpptoric command line.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed fixes one stream of CLI requests (see `streams.py`).  A run
replays that stream again and again, each time in a fresh worker process
(`worker.py`), so caches start cold as they do for every `wpptoric`
invocation and persist from request to request as in a library sweep.
The load is a closed loop: one client, one worker, the next request sent
when the previous one returned.  Repetitions continue while the next one
still fits in S seconds; there are at least two, so that the stdout
digests of one code and seed can be compared.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
medians over repetitions.  With --trace 1 it alternates untraced and
traced repetitions and reports the per-layer metrics of the traced one
with the median wall time, plus the tracing overhead.

Correctness: a request that exits nonzero (2 is an oracle mismatch, 3
an internal inconsistency) or lets an exception escape `main` fails.  No
request may fail except the kept known ones (`streams.may_fail`), which
may only raise RecursionError, and the stdout digest and the outcome of
every request must repeat exactly between repetitions.  A traced
repetition must also have run every request inside traced calls, with no
negative self time.  Otherwise the result says `"correct": false` and
the exit code is 1.

The last line of standard output is one JSON record; the lines before it
show every metric by name and unit for a reader.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import streams
from layertrace import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PER_REP = 3  # bare workers spawned before each repetition
WORKER_TIMEOUT_S = 150
KNOWN_FAILURE = "RecursionError"
TRACE_OUTSIDE_MAX = 0.05  # share of request time outside every traced call


def _spawn(requests_path, trace=False, spans_path="-"):
    """Run one worker; return its record with the measured set-up time."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WPPTORIC_")}
    argv = [sys.executable, str(HERE / "worker.py"), str(SRC), str(requests_path),
            "1" if trace else "0", str(spans_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    record = json.loads(rest.splitlines()[-1]) if requests_path != "-" else {}
    record["setup_s"] = setup_s
    return record


def _median_rep(reps):
    return sorted(reps, key=lambda r: r["wall_s"])[(len(reps) - 1) // 2]


def _consistent(reps):
    return (len({r["digest"] for r in reps}) <= 1
            and len({json.dumps(r["outcomes"]) for r in reps}) <= 1)


def _end_to_end(plain, setups):
    # each request's latency is its median over the repetitions
    latencies = [statistics.median(x) for x in zip(*(r["latencies_s"] for r in plain))]
    attempted = sum(len(r["outcomes"]) for r in plain)
    failed = sum(o != 0 for r in plain for o in r["outcomes"])
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "req_p50_ms": statistics.median(latencies) * 1e3,
        "req_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_frac": 1 - failed / attempted,
        "fail_frac": failed / attempted,
    }


def _per_layer(plain, traced):
    rep = _median_rep(traced)
    layers = rep["layers"]
    out = dict(layers)
    req_s = sum(rep["latencies_s"])
    out["trace_req_s"] = req_s
    out["trace_outside_s"] = req_s - layers["root_s"]
    out["trace_overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                  / statistics.median(r["wall_s"] for r in plain) - 1)
    return out


def _unexpected_failures(reps, may_fail):
    return sum(o != 0 and not (allowed and o == KNOWN_FAILURE)
               for r in reps for o, allowed in zip(r["outcomes"], may_fail))


def _trace_covers(rep):
    """The traced calls hold nearly all request time and no negative self time."""
    layers = rep["layers"]
    req_s = sum(rep["latencies_s"])
    return (0 <= req_s - layers["root_s"] <= TRACE_OUTSIDE_MAX * req_s
            and all(layers[f"{layer}.self_s"] >= 0 for layer in LAYERS))


def run(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    stream = streams.build(workload, seed)
    requests_path = OUT / f"requests-{workload}-{seed}.json"
    requests_path.write_text(json.dumps([argv for _, argv in stream]))
    spans_path = OUT / f"spans-{workload}-{seed}.tsv"

    start = time.perf_counter()
    _spawn("-")  # compiles bytecode and warms the file cache; not timed
    setups, plain, traced = [], [], []
    while True:
        # set-up samples spread over the run, so that their median spans
        # the machine's slow and fast phases like the repetitions do
        setups += [_spawn("-")["setup_s"] for _ in range(SETUP_PER_REP)]
        want_trace = trace and len(traced) < len(plain)
        rep = _spawn(requests_path, want_trace, spans_path)
        (traced if want_trace else plain).append(rep)
        if not want_trace:
            setups.append(rep["setup_s"])
        if len(plain) < 2 or (trace and not traced):
            continue
        next_kind = traced if trace and len(traced) < len(plain) else plain
        next_s = (statistics.mean(r["wall_s"] + r["setup_s"] for r in next_kind)
                  + SETUP_PER_REP * statistics.median(setups))
        if time.perf_counter() - start + next_s > seconds:
            break

    reps = plain + traced
    unexpected = _unexpected_failures(reps, [streams.may_fail(*item) for item in stream])
    correct = (_consistent(plain) and _consistent(traced) and unexpected == 0
               and all(_trace_covers(r) for r in traced))
    e2e = _end_to_end(plain, setups)
    result = {
        "correct": correct,
        "attempted": sum(len(r["outcomes"]) for r in reps),
        "failed": sum(o != 0 for r in reps for o in r["outcomes"]),
    }
    return stream, plain, traced, e2e, (_per_layer(plain, traced) if trace else None), result


def _report(spec, workload, seed, stream, plain, traced, e2e, layers, result):
    info = streams.describe(stream)
    print(f"workload {workload}  seed {seed}  {info['requests']} requests per repetition  "
          f"{len(plain)} untraced and {len(traced)} traced repetitions")
    print(f"  per stratum {json.dumps(info['per_stratum'])}")
    print(f"  repeat_weight_share {info['repeat_weight_share']}")
    for kind, reps in (("untraced", plain), ("traced", traced)):
        if reps:
            print(f"  {kind} stdout sha256 {reps[0]['digest']} "
                  f"({'identical' if _consistent(reps) else 'DIFFERENT'} over {len(reps)})")
    outcomes = {}
    for o in plain[0]["outcomes"]:
        outcomes[str(o)] = outcomes.get(str(o), 0) + 1
    print(f"  outcomes per repetition {json.dumps(outcomes)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_frac"] = "ratio"
    print(f"  end to end (medians over {len(plain)} repetitions; latency percentiles over "
          f"{len(plain[0]['outcomes'])} requests)")
    for name, value in e2e.items():
        print(f"    {name:<24} {value:14.6f} {units[name]}")
    if layers is not None:
        print("  per layer (the traced repetition with the median wall time)")
        for m in spec["per_layer"]:
            print(f"    {m['name']:<44} {layers.get(m['name'], 0):16.6f} {m['unit']}")
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        print(f"  layer self_s sum {total:.6f} s + outside {layers['trace_outside_s']:.6f} s "
              f"= {total + layers['trace_outside_s']:.6f} s; traced request time "
              f"{layers['trace_req_s']:.6f} s")
    unexpected = _unexpected_failures(plain + traced, [streams.may_fail(*i) for i in stream])
    print(f"  unexpected failures {unexpected}  correct {result['correct']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wpptoric" / "cli.py").is_file():
        print(f"bench: no wpptoric sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stream, plain, traced, e2e, layers, result = run(args.workload, args.seed, args.seconds,
                                                     bool(args.trace))
    _report(spec, args.workload, args.seed, stream, plain, traced, e2e, layers, result)
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                         for m in chosen}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
