"""The bench's layer tracer installs over the package and traced requests succeed.

`bench/layertrace.py` looks up `exact_arith.Cyclotomic`, `kgroup.KClass`
and `partitions.Series` and rebinds functions and methods in place, so a
refactor that renames one of them breaks every traced bench run.  The
tracer runs in a subprocess, so that nothing it rebinds leaks into the
other tests, and it only reads `bench/` (no bytecode is written there).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).parent / "stdout_pins"

# (argv, stdout pin) of one checked request per command the bench traces
REQUESTS = [
    ("kclass --abc 2 2 2 --ABC 1 0 -1 --widths 2 2 4 --points 1:0;0:1;1:1 --check",
     "kclass_222_ABC1_0_-1_widths2_2_4_distinct_check.txt"),
    ("hseries --abc 1 1 2 --E 2 --c1 -1 --max 12 --order 6 --check",
     "hseries_112_E2_c1_-1_max12_order6_check.txt"),
    ("hilb --abc 4 6 10 --r 3 --E 60 --check", "hilb_4_6_10_r3_E60_check.txt"),
    ("gseries --abc 1 2 3 --beta 1 --order 6 --specialize none --check",
     "gseries_123_beta1_order6_none_check.txt"),
]

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import wpptoric.cli as cli
import layertrace

tracer = layertrace.install()
runs = []
for argv in json.loads(sys.argv[3]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"runs": runs, "layers": tracer.metrics()}))
"""


def test_traced_requests_exit_0_with_pinned_stdout():
    argvs = [argv.split() for argv, _ in REQUESTS]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
         json.dumps(argvs)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    for (argv, pin), (code, out) in zip(REQUESTS, result["runs"], strict=True):
        assert code == 0, argv
        assert out == (PINS / pin).read_text(), argv
    layers = result["layers"]
    for name in ("exact_arith.Cyclotomic.from_integers", "kgroup.KClass.mul",
                 "partitions.color_zero_series", "inertia.tch_rank2_closed_form"):
        assert layers[f"{name}.calls"] > 0, name
