"""Steadiness check: rerun the benchmark and compare end-to-end medians.

Usage (from the repository root):

    python3 bench/steady.py

Each of two passes runs `run.py --trace 0` once per workload and seed
1-10, seed by seed so that slow drift of the machine hits every workload
alike.  For every workload and end-to-end metric it prints the median
over seeds and the spread, the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median.  It exits 1 if a spread exceeds the metric's bound in
BENCHMARK.json, if the second pass's median differs from the first
pass's by more than the bound either way, or if a run fails.  Then it
makes one traced run (`--trace 1`, seed 1) per workload and records its
per-layer metrics and each layer's share of the traced request time.
The figures, with each stream's requests per stratum and the share of
requests whose weight triple came up earlier in the stream, go to
`.bench_out/steady.json`; `baseline.json` is a copy of that file.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import streams
from layertrace import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
PASSES = 2
TRACE_SEED = 1


def _run(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _layer_shares(layers):
    """Each layer's self time as a share of the traced request time."""
    return {layer: round(layers[f"{layer}.self_s"] / layers["trace_req_s"], 4)
            for layer in LAYERS}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []  # runs[pass][workload] -> list of metric dicts
    for p in range(PASSES):
        runs.append({w: [] for w in streams.WORKLOADS})
        for seed in SEEDS:
            for w in streams.WORKLOADS:
                runs[p][w].append(_run(w, seed, spec["run_seconds"]))
                print(f"pass {p + 1} seed {seed} {w}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in runs[p][w][-1].items()),
                      flush=True)

    ok = True
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    print(f"\n{'workload':<12} {'metric':<12} {'bound':>6} "
          + " ".join(f"{'median' + str(p + 1):>12} {'spread' + str(p + 1):>8}"
                     for p in range(PASSES)) + "  change")
    for w in streams.WORKLOADS:
        described = [streams.describe(streams.build(w, seed)) for seed in SEEDS]
        record = summary["workloads"][w] = {
            "requests": described[0]["requests"],
            "per_stratum": described[0]["per_stratum"],
            "repeat_weight_share": [d["repeat_weight_share"] for d in described],
            "fail_frac_median": 1 - statistics.median(r["ok_frac"] for r in runs[0][w]),
            "metrics": {},
        }
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_pass = [[r[name] for r in runs[p][w]] for p in range(PASSES)]
            medians = [statistics.median(v) for v in per_pass]
            spreads = [_spread(v) for v in per_pass]
            change = (medians[1] - medians[0]) / medians[0]
            bad = abs(change) > bound or max(spreads) > bound
            ok = ok and not bad
            record["metrics"][name] = {"unit": m["unit"], "bound": bound, "medians": medians,
                                       "spreads": spreads, "change": change, "values": per_pass}
            print(f"{w:<12} {name:<12} {bound:6.3g} "
                  + " ".join(f"{md:12.5g} {sp:8.3f}" for md, sp in zip(medians, spreads))
                  + f"  {change:+.3f}{'  OUT OF BOUND' if bad else ''}")

    print(f"\ntraced run, seed {TRACE_SEED}: each layer's share of the traced request time")
    for w in streams.WORKLOADS:
        layers = _run(w, TRACE_SEED, spec["run_seconds"], trace=1)
        shares = _layer_shares(layers)
        summary["workloads"][w]["traced"] = {"seed": TRACE_SEED, "layer_share": shares,
                                             "per_layer": layers}
        print(f"{w:<12} overhead {layers['trace_overhead_frac']:+.3f}  "
              + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
