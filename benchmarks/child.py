"""One run of one workload, in its own process.

Started by run.py from the root of the checkout, whose ``src`` it imports
``su2reduce`` from. Prints one JSON line: the monotonic time at which
set-up ended, the wall time of the workload, the peak RSS, the operation
counts, the problems the output checks found, and a digest of the
stripped reports.

    python3 benchmarks/child.py SPEC OUT_DIR [--setup-only] [--trace FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _run_op(cli, argv):
    """Exit code of cli.main, or the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv), None
        except Exception as exc:  # a raised error is the outcome under test
            return None, f"{type(exc).__name__}: {exc}"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("spec")
    p.add_argument("out")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace")
    args = p.parse_args()

    src = os.path.realpath("src")
    sys.path.insert(0, src)
    import su2reduce
    from su2reduce import cli, report

    if os.path.commonpath([src, os.path.realpath(su2reduce.__file__)]) != src:
        print(f"su2reduce imported from {su2reduce.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = [dict(op, argv=[a.replace("{out}", args.out) for a in op["argv"]])
           for op in spec["ops"]]
    t_ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(su2reduce)
        tracer.install()
    outcomes = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer:
            tracer.run = i
        outcomes.append(_run_op(cli, op["argv"]))
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace)

    import expect

    problems, failed = [], 0
    digest = hashlib.sha256()
    for op, (rc, error) in zip(ops, outcomes):
        if rc != op["expect_rc"]:
            failed += 1
            if op["check"] != "malformed":
                problems.append(f"{op['argv'][0]}: exit {rc} ({error}), expected {op['expect_rc']}")
            continue
        if op["check"] == "malformed":
            continue
        out_dir = op["argv"][op["argv"].index("--out") + 1]
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            text = report.strip_timings(fh.read())
        digest.update(text.encode())
        expect.CHECKS[op["check"]](op, json.loads(text), out_dir, problems)
    print(json.dumps({
        "t_ready": t_ready, "wall_s": wall, "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops), "failed": failed, "problems": problems,
        "digest": digest.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
