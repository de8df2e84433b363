"""Digest of what the benchmark requests print, to show that stdout is unchanged.

Usage (stdlib only):

    python3 tools/stdout_digest.py CHECKOUT

CHECKOUT is a repository root with `src/` and `bench/`.  For each
workload of its `bench/streams.py` this replays every request of seeds
1 and 2 in one process through the checkout's `wpptoric.cli.main`, as a
benchmark worker does, and prints one line: the workload, the number of
requests and the sha256 of their outcomes and stdout in stream order.
An outcome is the exit code, or the name of an exception that escaped
`main`.  Two checkouts whose lines are equal print the same
bytes and exit codes on every request.  No bytecode is written into
the checkout.
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

SEEDS = (1, 2)


def digests(checkout):
    """{workload: (requests, sha256 hex)} for the streams of `SEEDS`."""
    root = Path(checkout).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import streams
    from wpptoric import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"wpptoric imported from {cli.__file__}, not from {root / 'src'}")
    out = {}
    for workload in streams.WORKLOADS:
        digest, count = hashlib.sha256(), 0
        for seed in SEEDS:
            for _, argv in streams.build(workload, seed):
                stdout = io.StringIO()
                try:
                    with contextlib.redirect_stdout(stdout), \
                            contextlib.redirect_stderr(io.StringIO()):
                        outcome = cli.main(argv)
                except Exception as exc:  # an escaped exception is an outcome too
                    outcome = type(exc).__name__
                digest.update(f"{outcome}\n{stdout.getvalue()}\0".encode())
                count += 1
        out[workload] = (count, digest.hexdigest())
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    args = parser.parse_args(argv)
    for workload, (count, hexdigest) in digests(args.checkout).items():
        print(f"{workload} requests={count} sha256={hexdigest}")


if __name__ == "__main__":
    main()
