"""One cold benchmark worker: import wpptoric, then replay a request list.

Usage: python3 worker.py SRC REQUESTS TRACE SPANS

SRC is the directory holding the `wpptoric` package.  The worker prints
`ready` as soon as `wpptoric.cli` is imported (the parent times that as
set-up), then, unless REQUESTS is `-`, runs every argv of the JSON list
in REQUESTS through `wpptoric.cli.main` in this one process, so the
package's caches persist from request to request.  With TRACE = 1 the
layers are traced and the spans written to SPANS.  The last line of
output is one JSON record of the run.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def main(src, requests_path, trace, spans_path):
    sys.path.insert(0, src)
    import wpptoric.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"wpptoric imported from {cli.__file__}, not from {src}")
    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.install()
    protocol = sys.stdout
    print("ready", file=protocol, flush=True)
    if requests_path == "-":
        return

    with open(requests_path) as fh:
        requests = json.load(fh)
    digest = hashlib.sha256()
    outcomes, latencies = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, argv in enumerate(requests):
        if tracer:
            tracer.start_request(i)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outcome = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed request
            outcome = type(exc).__name__
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        digest.update(out.getvalue().encode())
    record = {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies_s": latencies,
        "outcomes": outcomes,
        "digest": digest.hexdigest(),
    }
    if tracer:
        record["layers"] = tracer.metrics()
        tracer.write_spans(spans_path)
    print(json.dumps(record), file=protocol, flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4])
