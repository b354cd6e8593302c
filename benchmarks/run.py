"""su2reduce benchmark: three workloads, each run in child processes.

Run from the root of a checkout that holds ``src/su2reduce``:

    python3 benchmarks/run.py --workload verify-default --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30
    python3 benchmarks/run.py --steady 10 --seconds 30 [--workload NAME]

A run starts child processes one at a time, each running the workload
once (two per round with --trace 1: one untraced, one traced), and starts
no new round once --seconds have passed; at least one round runs. It
prints every metric with its unit and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics. --steady
runs each workload on seeds 1..N and prints the median and quartiles of
every end-to-end metric. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import scenarios
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
ROOT = os.getcwd()
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 6  # least number of set-up-only children in an untraced run
CHILD_TIMEOUT_S = 170
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = env.get(var, "")
        env[var] = str(min(int(cur), nproc)) if cur.isdigit() and int(cur) > 0 else str(nproc)
    return env


def _child(spec_path: str, out: str, *extra: str) -> dict:
    os.makedirs(out)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, spec_path, out, *extra], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res.pop("t_ready") - t_spawn
    return res


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    trace_file = os.path.join(WORK_ROOT, f"{workload}.trace.jsonl")
    try:
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(scenarios.build(workload, seed, work), fh)
        out = os.path.join(work, "out")
        start = time.monotonic()
        setups, plain, traced = [], [], []
        while True:
            if not trace:
                setups.append(_child(spec_path, out, "--setup-only")["setup_s"])
            plain.append(_child(spec_path, out))
            if trace:
                traced.append(_child(spec_path, out, "--trace", trace_file))
                traced[-1]["layers"] = tracer.layer_metrics(tracer.read_spans(trace_file))
            if time.monotonic() - start >= seconds:
                break
        # probes are spread over the run: one before each round, the rest at its end
        while not trace and len(setups) < SETUP_PROBES:
            setups.append(_child(spec_path, out, "--setup-only")["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    children = plain + traced
    problems = [p for c in children for p in c["problems"]]
    if len({c["digest"] for c in children}) > 1:
        problems.append("stripped reports differ between runs of one invocation")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    if trace:
        values = {k: statistics.median(c["layers"][k] for c in traced) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = med(traced, "wall_s") - med(plain, "wall_s")
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
    else:
        setups += [c["setup_s"] for c in plain]
        values = {"wall_s": med(plain, "wall_s"), "setup_s": statistics.median(setups),
                  "peak_rss_mb": med(plain, "peak_rss_mb")}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {"correct": not problems, "attempted": sum(c["attempted"] for c in children),
            "failed": sum(c["failed"] for c in children), "metrics": metrics,
            "children": len(children)}


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {"calls": "count", "bytes": "B", "peak_mb": "MB"}.get(suffix, "s")


def _print_result(res: dict, prefix: str = "") -> None:
    for name, m in res["metrics"].items():
        print(f"{prefix}{name} {m['value']!r} {m['unit']}")
    print(f"{prefix}children {res['children']}  attempted {res['attempted']}"
          f"  failed {res['failed']}  correct {res['correct']}")


def _steady(workloads, runs: int, seconds: float) -> dict:
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench, encoding="utf-8") as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    summary = {}
    for w in workloads:
        results = []
        for seed in range(1, runs + 1):
            res = measure(w, seed, seconds, False)
            _print_result(res, f"{w} seed {seed}: ")
            results.append(res)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        summary[w] = {"correct": all(r["correct"] for r in results), "failed_shares": shares}
        for name in UNITS:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            summary[w][name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                "bound": bounds.get(name), "values": vals}
            print(f"{w} {name}: median {q2:.6g} {UNITS[name]}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.2%}  bound {bounds.get(name)}")
        print(f"{w} failed share(s): {shares}")
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=scenarios.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N", help="runs per workload, seeds 1..N")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be a nonnegative integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "su2reduce", "__init__.py")):
        print("benchmark: run from the root of a su2reduce checkout (src/su2reduce missing)",
              file=sys.stderr)
        return 2
    workloads = scenarios.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.steady:
            print(json.dumps(_steady(workloads, args.steady, args.seconds)))
            return 0
        results = {}
        for w in workloads:
            results[w] = measure(w, args.seed, args.seconds, bool(args.trace))
            _print_result(results[w], f"{w} " if len(workloads) > 1 else "")
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(k if len(results) == 1 else f"{w}.{k}"): m
                    for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
