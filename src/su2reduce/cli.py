"""Command-line entry point: verify | anomaly | contract | reduce.

Each command builds a ScenarioConfig (JSON file plus flag overrides),
runs its checks from `checks.COMMANDS` in order, prints one status line
per check row (or the full JSON report with --json) and exits 0 when
every judged check passed, 1 when any failed, 2 on usage or
configuration errors. The wall time of each check is recorded under the
report's `timings` key.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from . import checks, config, lattice, report


def _build_config(args) -> config.ScenarioConfig:
    cfg = config.load_config(args.config) if args.config else config.ScenarioConfig()
    overrides = {}
    if args.grid is not None:
        overrides["grid_n"] = args.grid
    if args.seed is not None:
        overrides["seed"] = args.seed
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _emit(rep: report.RunReport, args) -> int:
    if args.out:
        rep.save(os.path.join(args.out, "report.json"))
    if args.json:
        sys.stdout.write(rep.to_json())
    else:
        rep.print_lines()
    return 0 if rep.overall in (report.PASS, report.RECORDED) else 1


def _write_anomaly_fields(run: checks.Run, args) -> None:
    if not args.out:
        return
    j, div, expansion, closed = run.anomaly_fields
    for name, fieldvals in (
        ("anomaly_divergence.csv", div),
        ("anomaly_expansion.csv", expansion),
        ("anomaly_closed_form.csv", closed),
    ):
        lattice.save_field_csv(os.path.join(args.out, name), run.grid, fieldvals)
        run.report.artifacts.append(name)
    lattice.save_field_npz(os.path.join(args.out, "anomalous_current.npz"), run.grid,
                           np.moveaxis(j, 0, -1))
    run.report.artifacts.append("anomalous_current.npz")


def _write_banach_trace(run: checks.Run, args) -> None:
    if args.out:
        run.banach_trace.save_csv(os.path.join(args.out, "banach_trace.csv"))
        run.report.artifacts.append("banach_trace.csv")


def _print_operator(run: checks.Run, args) -> None:
    if args.json or run.operator is None:
        return
    coefficients, eigenvalues = run.operator
    print("reduced operator coefficients (per direction):")
    for mu, cval in enumerate(coefficients, start=1):
        print(f"  mu={mu}: {cval.real:+.12f} {cval.imag:+.12f}i")
    print(f"observable eigenvalues: {eigenvalues[0]:+.12f}, {eigenvalues[1]:+.12f}")


# what a command does after its last check, unless a check ended it
_FINISH = {"anomaly": _write_anomaly_fields, "contract": _write_banach_trace}


def _run(cfg: config.ScenarioConfig, args) -> int:
    """Run the command's checks in order, timing each under its name."""
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    run = checks.Run(args.command, cfg)
    spent = run.report.timings["check_s"] = {}
    for name in checks.COMMANDS[args.command]:
        t0 = time.perf_counter()
        ended = getattr(checks, name)(run)
        spent[name] = time.perf_counter() - t0
        if ended:
            break
    else:
        finish = _FINISH.get(args.command)
        if finish:
            finish(run, args)
    code = _emit(run.report, args)
    _print_operator(run, args)  # reduce's operator, below the rows that judge it
    return code


# ---------------------------------------------------------------------------


@functools.cache  # one parser for every main call, built on first use
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="su2reduce",
        description="verification workbench for the phase-ansatz reduction pipeline",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "algebra, field strength, covariance, residual and vacuum checks"),
        ("anomaly", "current divergence accounting and scaling study"),
        ("contract", "contraction map certificates and fixed-point iteration"),
        ("reduce", "chart collapse and reduced-operator pipeline"),
    ):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", help="JSON file of ScenarioConfig overrides")
        q.add_argument("--grid", type=int, help="points per axis of the working grid")
        q.add_argument("--seed", type=int, help="base RNG seed")
        q.add_argument("--out", help="directory for report.json and CSV artifacts")
        q.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _build_config(args)
    except (config.ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _run(cfg, args)


if __name__ == "__main__":
    sys.exit(main())
