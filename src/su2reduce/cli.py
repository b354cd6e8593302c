"""Command-line entry point: verify | anomaly | contract | reduce.

Each command builds a ScenarioConfig (JSON file plus flag overrides),
runs its check suite, prints one status line per check (or the full JSON
report with --json) and exits 0 when every judged check passed, 1 when
any failed, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields as dataclass_fields

import numpy as np

from . import ansatz_field, bundle, checks, config, contraction, lattice, report, su2_algebra

ORDER_TOL = 0.3
SLOPE_TOL_QUADRATIC = 0.1
SLOPE_TOL_LINEAR = 0.1
SCALING_WINDOW = (3.8, 4.2)
SHRINK_WINDOW = (3.6, 4.4)


def _build_config(args) -> config.ScenarioConfig:
    cfg = config.load_config(args.config) if args.config else config.ScenarioConfig()
    overrides = {}
    if args.grid is not None:
        overrides["grid_n"] = args.grid
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.metric is not None:
        overrides["metric"] = args.metric
    if overrides:
        kw = {f.name: getattr(cfg, f.name) for f in dataclass_fields(config.ScenarioConfig)}
        kw.update(overrides)
        cfg = config.ScenarioConfig(**kw)
    return cfg


def _order_window(o) -> bool:
    return abs(o - 2.0) <= ORDER_TOL


def _emit(rep: report.RunReport, args) -> int:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        rep.save(os.path.join(args.out, "report.json"))
    if args.json:
        sys.stdout.write(rep.to_json())
    else:
        rep.print_lines()
    return 0 if rep.overall in (report.PASS, report.RECORDED) else 1


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: config.ScenarioConfig, args) -> int:
    rep = report.RunReport("verify", cfg.to_dict())
    rep.errata = list(bundle.ERRATA)
    grid = cfg.grid()
    g = cfg.coupling
    timings = {}

    t0 = time.perf_counter()
    worst = 0.0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            want = np.zeros((2, 2), dtype=complex)
            for c in (1, 2, 3):
                want += 2j * su2_algebra.EPSILON[a - 1, b - 1, c - 1] * su2_algebra.pauli(c)
            got = su2_algebra.commutator(su2_algebra.pauli(a), su2_algebra.pauli(b))
            worst = max(worst, float(np.max(np.abs(got - want))))
    timings["pauli_commutators_ms"] = (time.perf_counter() - t0) * 1e3
    rep.add("pauli_commutators", report.PASS if worst <= 1e-15 else report.FAIL,
            max_error=worst, tolerance=1e-15)

    rng = np.random.default_rng(cfg.seed)
    rho = rng.uniform(-np.pi, np.pi, size=(64, 3))
    defect = su2_algebra.unitarity_defect(su2_algebra.su2_exp(rho))
    rep.add("group_exponential_unitarity", report.PASS if defect <= 1e-12 else report.FAIL,
            max_defect=defect, tolerance=1e-12, samples=64)

    t0 = time.perf_counter()
    lam = checks.phase_field(cfg, grid)
    f_ansatz = ansatz_field.field_strength_ansatz(lam)
    f_analytic = ansatz_field.field_strength_direct(lam, mode=ansatz_field.ANALYTIC)
    ident = lattice.max_abs(f_ansatz.values - f_analytic.values)
    anti = f_ansatz.antisymmetry_defect()
    rep.add("field_strength_identity",
            report.PASS if ident <= 1e-12 and anti <= 1e-12 else report.FAIL,
            max_error=ident, antisymmetry_defect=anti, tolerance=1e-12)

    est = checks.raw_field_strength_order(cfg)
    rep.add("field_strength_raw_order",
            report.PASS if _order_window(est.order) else report.FAIL,
            order=est.order, spacings=est.spacings, errors=est.errors,
            window=[2.0 - ORDER_TOL, 2.0 + ORDER_TOL])
    timings["field_strength_s"] = time.perf_counter() - t0

    ld = ansatz_field.lagrangian_density(lam)
    rep.add("lagrangian_identity", report.PASS if ld.identity_defect() <= 1e-10 else report.FAIL,
            relative_defect=ld.identity_defect(), tolerance=1e-10)

    t0 = time.perf_counter()
    est = checks.covariance_order(cfg)
    rep.add("gauge_covariance_order",
            report.PASS if _order_window(est.order) else report.FAIL,
            order=est.order, spacings=est.spacings, errors=est.errors,
            window=[2.0 - ORDER_TOL, 2.0 + ORDER_TOL])
    timings["covariance_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    est = checks.pure_gauge_order(cfg)
    rep.add("pure_gauge_order",
            report.PASS if _order_window(est.order) else report.FAIL,
            order=est.order, spacings=est.spacings, errors=est.errors,
            window=[2.0 - ORDER_TOL, 2.0 + ORDER_TOL])
    timings["pure_gauge_s"] = time.perf_counter() - t0

    small = lattice.Grid4.cubic(8, cfg.box_length, cfg.metric)
    U, A, coeff = checks.single_axis_pure_gauge(small, g, cfg.pauli_index)
    dev = lattice.max_abs(A[0] - coeff * su2_algebra.pauli(cfg.pauli_index))
    rest = max(lattice.max_abs(A[i]) for i in (1, 2, 3))
    fdev = ansatz_field.field_strength_matrix(small, A, g).max_abs()
    rep.add("pure_gauge_closed_form",
            report.PASS if max(dev, rest, fdev) <= 1e-12 else report.FAIL,
            coefficient=coeff, max_deviation=dev, other_components=rest,
            field_strength_max=fdev, tolerance=1e-12)

    ident_u = np.broadcast_to(su2_algebra.IDENTITY, small.dims + (2, 2)).copy()
    A_id = su2_algebra.gauge_transform(small, A, ident_u, g)
    rep.add("gauge_transform_identity",
            report.PASS if lattice.max_abs(A_id - A) <= 1e-15 else report.FAIL,
            max_deviation=lattice.max_abs(A_id - A), tolerance=1e-15)

    res_full = ansatz_field.field_equation_residual_full(lam, g)
    res_route = checks.residual_contraction_route(lam, g)
    gap1 = lattice.max_abs(res_full - res_route)
    rep.add("residual_contraction_equivalence", report.PASS if gap1 <= 1e-10 else report.FAIL,
            max_gap=gap1, tolerance=1e-10)

    res_gauge = ansatz_field.field_equation_residual(lam, g, mode=ansatz_field.ANALYTIC)
    gap2 = lattice.max_abs(res_full - res_gauge)
    gc = ansatz_field.gauge_condition_check(lam)
    rep.add("residual_gauge_fixed_equivalence",
            report.PASS if gap2 <= 1e-10 and gc.satisfied else report.FAIL,
            max_gap=gap2, gauge_violation=max(gc.per_component), tolerance=1e-10)

    j = ansatz_field.anomalous_current(lam, g)
    contracted = -1j * g * np.stack([
        sum(lam.profile[m - 1] * f_ansatz.component(m, n) for m in range(1, 5)) for n in range(1, 5)
    ])
    gap3 = lattice.max_abs(j - contracted)
    rep.add("anomalous_current_identity", report.PASS if gap3 <= 1e-12 else report.FAIL,
            max_gap=gap3, tolerance=1e-12)

    zero = ansatz_field.LambdaField.zero(grid)
    zvals = {
        "profile_minus_one": lattice.max_abs(zero.profile - 1.0),
        "field_strength": ansatz_field.field_strength_ansatz(zero).max_abs(),
        "lagrangian": lattice.max_abs(ansatz_field.lagrangian_density(zero).values),
        "noether_current": lattice.max_abs(ansatz_field.noether_current(zero)),
        "anomalous_current": lattice.max_abs(ansatz_field.anomalous_current(zero, g)),
        "residual": lattice.max_abs(ansatz_field.field_equation_residual(zero, g)),
    }
    rep.add("vacuum_exact_zeros",
            report.PASS if all(v == 0.0 for v in zvals.values()) else report.FAIL, **zvals)

    t0 = time.perf_counter()
    base = checks.gradient_base_field(cfg, grid)
    vac = ansatz_field.vacuum_report(base, cfg.scaling_amplitudes, g)
    ok = (
        vac.slope_current is not None
        and abs(vac.slope_current - 2.0) <= SLOPE_TOL_QUADRATIC
        and vac.slope_box_profile is not None
        and abs(vac.slope_box_profile - 1.0) <= SLOPE_TOL_LINEAR
    )
    rep.add("vacuum_scaling_slopes", report.PASS if ok else report.FAIL,
            slope_current=vac.slope_current, slope_box_profile=vac.slope_box_profile,
            quadratic_window=[2.0 - SLOPE_TOL_QUADRATIC, 2.0 + SLOPE_TOL_QUADRATIC],
            linear_window=[1.0 - SLOPE_TOL_LINEAR, 1.0 + SLOPE_TOL_LINEAR],
            gauge_mismatch=vac.gauge_mismatch, notes=vac.notes)
    timings["vacuum_s"] = time.perf_counter() - t0

    noe = lattice.max_abs(ansatz_field.noether_current(base.scaled(cfg.scaling_amplitudes[0])))
    rep.add("noether_gradient_cancellation", report.PASS if noe <= 1e-12 else report.FAIL,
            max_norm=noe, tolerance=1e-12,
            note="symmetric second derivatives cancel the divergence-form"
                 " current on gradient phase fields")

    rep.timings = timings
    return _emit(rep, args)


# ---------------------------------------------------------------------------
# anomaly


def cmd_anomaly(cfg: config.ScenarioConfig, args) -> int:
    rep = report.RunReport("anomaly", cfg.to_dict())
    rep.errata = list(bundle.ERRATA)
    grid = cfg.grid()
    g = cfg.coupling
    timings = {}

    t0 = time.perf_counter()
    lam = checks.phase_field(cfg, grid, scale=cfg.anomaly_amplitude)
    j = ansatz_field.anomalous_current(lam, g)
    div = lattice.divergence(grid, j)
    expansion = checks.anomaly_divergence_expansion(lam, g)
    closed = ansatz_field.anomaly_divergence_closed_form(lam, g)
    del lam  # its cached profile and gradients need not outlive the fields
    timings["fields_s"] = time.perf_counter() - t0

    rep.add("divergence_summary", report.RECORDED,
            current_max=lattice.max_abs(j), divergence_max=lattice.max_abs(div),
            expansion_gap=lattice.max_abs(div - expansion),
            amplitude=cfg.anomaly_amplitude)

    rep.add("closed_form_divergence_discrepancy", report.RECORDED,
            discrepancy=lattice.max_abs(div - closed),
            closed_form_max=lattice.max_abs(closed),
            note="reported, not asserted; the lattice divergence of the"
                 " current is the ground truth")

    t0 = time.perf_counter()
    est = checks.divergence_accounting_order(cfg)
    rep.add("divergence_accounting_order",
            report.PASS if _order_window(est.order) else report.FAIL,
            order=est.order, spacings=est.spacings, errors=est.errors,
            window=[2.0 - ORDER_TOL, 2.0 + ORDER_TOL])
    timings["accounting_s"] = time.perf_counter() - t0

    base = checks.gradient_base_field(cfg, grid)
    eps = cfg.scaling_amplitudes[-2] if len(cfg.scaling_amplitudes) >= 2 else cfg.scaling_amplitudes[0]
    d1 = lattice.max_abs(lattice.divergence(grid, ansatz_field.anomalous_current(base.scaled(eps), g)))
    d2 = lattice.max_abs(lattice.divergence(grid, ansatz_field.anomalous_current(base.scaled(2 * eps), g)))
    ratio = d2 / d1 if d1 > 0 else float("inf")
    ok = SCALING_WINDOW[0] <= ratio <= SCALING_WINDOW[1]
    rep.add("quadratic_divergence_scaling", report.PASS if ok else report.FAIL,
            eps=eps, ratio=ratio, window=list(SCALING_WINDOW))

    zero = ansatz_field.LambdaField.zero(grid)
    zj = ansatz_field.anomalous_current(zero, g)
    zc = ansatz_field.anomaly_divergence_closed_form(zero, g)
    zd = lattice.divergence(grid, zj)
    allzero = lattice.max_abs(zj) == 0.0 and lattice.max_abs(zd) == 0.0 and lattice.max_abs(zc) == 0.0
    rep.add("vacuum_zero_current", report.PASS if allzero else report.FAIL,
            current_max=lattice.max_abs(zj), divergence_max=lattice.max_abs(zd),
            closed_form_max=lattice.max_abs(zc))

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        t0 = time.perf_counter()
        for name, fieldvals in (
            ("anomaly_divergence.csv", div),
            ("anomaly_expansion.csv", expansion),
            ("anomaly_closed_form.csv", closed),
        ):
            lattice.save_field_csv(os.path.join(args.out, name), grid, fieldvals)
            rep.artifacts.append(name)
        lattice.save_field_npz(os.path.join(args.out, "anomalous_current.npz"), grid,
                               np.moveaxis(j, 0, -1))
        rep.artifacts.append("anomalous_current.npz")
        timings["artifacts_s"] = time.perf_counter() - t0

    rep.timings = timings
    return _emit(rep, args)


# ---------------------------------------------------------------------------
# contract


def cmd_contract(cfg: config.ScenarioConfig, args) -> int:
    rep = report.RunReport("contract", cfg.to_dict())
    rep.errata = list(bundle.ERRATA)
    timings = {}
    m = contraction.ContractionMap(cfg.contraction_center, cfg.contraction_n)
    cert = contraction.contraction_validity(m)

    if not cert.valid:
        rep.add("contraction_validity", report.FAIL, certificate_status="INVALID", **cert.to_dict())
        for name in ("fixed_point_residual", "lipschitz_sampled", "banach_convergence",
                     "large_scale_limit"):
            rep.add(name, report.SKIPPED, reason="map is not a certified contraction")
        rep.timings = timings
        return _emit(rep, args)

    rep.add("contraction_validity", report.PASS, certificate_status="VALID", **cert.to_dict())

    fp = contraction.evaluate(m, m.center_array)
    resid = float(np.linalg.norm(fp - m.center_array))
    rep.add("fixed_point_residual", report.PASS if resid <= 1e-15 else report.FAIL,
            residual=resid, tolerance=1e-15)

    t0 = time.perf_counter()
    radius = 1.0 / m.n
    est = contraction.lipschitz_estimate(m, m.center_array, radius,
                                         pairs=cfg.lipschitz_pairs, seed=cfg.seed)
    ok = est.ratio_max <= est.bound + 1e-12
    rep.add("lipschitz_sampled", report.PASS if ok else report.FAIL,
            ratio_max=est.ratio_max, bound=est.bound, pairs=est.pairs,
            slack=1e-12)
    timings["lipschitz_s"] = time.perf_counter() - t0

    x0 = m.center_array + np.array([cfg.banach_offset, 0.0, 0.0, 0.0])
    t0 = time.perf_counter()
    try:
        trace = contraction.banach_iterate(m, x0, tol=cfg.banach_tol)
    except contraction.NonConvergenceError as exc:
        rep.add("banach_convergence", report.FAIL, error=str(exc))
        rep.timings = timings
        return _emit(rep, args)
    timings["banach_s"] = time.perf_counter() - t0
    ratio_ok = trace.ratios.size == 0 or float(trace.ratios.max()) <= m.lipschitz_bound + 1e-9
    rep.add("banach_convergence", report.PASS if trace.converged and ratio_ok else report.FAIL,
            steps=trace.steps, ratio_max=float(trace.ratios.max()) if trace.ratios.size else None,
            measured_ratio=trace.measured_ratio, error_bound=trace.error_bound,
            bound=m.lipschitz_bound, slack=1e-9, tolerance=cfg.banach_tol)

    series = contraction.limit_large_n(m.center, x0, cfg.collapse_schedule)
    rep.add("large_scale_limit", report.PASS if series.decreasing else report.FAIL,
            ns=list(series.ns), deviations=list(series.deviations))

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        trace.save_csv(os.path.join(args.out, "banach_trace.csv"))
        rep.artifacts.append("banach_trace.csv")

    rep.timings = timings
    return _emit(rep, args)


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(cfg: config.ScenarioConfig, args) -> int:
    rep = report.RunReport("reduce", cfg.to_dict())
    rep.errata = list(bundle.ERRATA)
    timings = {}
    centers = [cfg.contraction_center]
    if cfg.reduce_centers == 2:
        centers.append(cfg.second_center)

    t0 = time.perf_counter()
    result = bundle.reduction_pipeline(
        centers, cfg.collapse_schedule, cfg.coupling, cfg.pauli_index,
        collapse_tol=cfg.collapse_tol, seed=cfg.seed,
    )
    timings["pipeline_s"] = time.perf_counter() - t0

    for stage in result.stages:
        if stage.status in ("PASS", "CONSISTENT"):
            rep.add(f"stage_{stage.name}", report.PASS, **stage.details)
        else:
            rep.add(f"stage_{stage.name}", report.FAIL, stage_status=stage.status, **stage.details)

    for idx, col in enumerate(result.collapse):
        rows = col.rows
        bound_ok = all(r.sampled_diameter <= 2.0 * r.sup_bound for r in rows)
        shrink = [
            rows[i].sampled_diameter / rows[i + 1].sampled_diameter
            for i in range(len(rows) - 1)
            if rows[i + 1].sampled_diameter > 0
        ]
        shrink_ok = all(SHRINK_WINDOW[0] <= r <= SHRINK_WINDOW[1] for r in shrink)
        rep.add(f"chart_diameter_bound_{idx}", report.PASS if bound_ok else report.FAIL,
                center=list(col.center), ns=[r.n for r in rows],
                sampled=[r.sampled_diameter for r in rows],
                bounds=[2.0 * r.sup_bound for r in rows])
        rep.add(f"chart_shrink_factor_{idx}", report.PASS if shrink_ok else report.FAIL,
                ratios=shrink, window=list(SHRINK_WINDOW))
        n_t = col.threshold_n
        cn = float(np.linalg.norm(col.center))
        crossing = cn / n_t**2 < col.tol and (n_t == 1 or cn / (n_t - 1) ** 2 >= col.tol)
        rep.add(f"collapse_threshold_{idx}", report.PASS if crossing else report.FAIL,
                threshold_n=n_t, tol=col.tol)

    if result.operator is not None:
        op = result.operator
        mod_dev = max(abs(abs(c) - cfg.coupling) for c in op.coefficients)
        rep.add("operator_coefficient_modulus", report.PASS if mod_dev <= 1e-15 else report.FAIL,
                max_deviation=mod_dev, coupling=cfg.coupling, tolerance=1e-15)
        eig_dev = max(abs(op.eigenvalues[0] + 0.5), abs(op.eigenvalues[1] - 0.5))
        rep.add("observable_spectrum", report.PASS if eig_dev <= 1e-12 else report.FAIL,
                eigenvalues=list(op.eigenvalues), max_deviation=eig_dev, tolerance=1e-12)
        if not args.json:
            print("reduced operator coefficients (per direction):")
            for mu, cval in enumerate(op.coefficients, start=1):
                print(f"  mu={mu}: {cval.real:+.12f} {cval.imag:+.12f}i")
            print(f"observable eigenvalues: {op.eigenvalues[0]:+.12f}, {op.eigenvalues[1]:+.12f}")

    rep.timings = timings
    return _emit(rep, args)


# ---------------------------------------------------------------------------


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
        q.add_argument("--metric", choices=[lattice.EUCLIDEAN, lattice.LORENTZIAN],
                       help="wave-operator signature")
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
    handler = {
        "verify": cmd_verify,
        "anomaly": cmd_anomaly,
        "contract": cmd_contract,
        "reduce": cmd_reduce,
    }[args.command]
    return handler(cfg, args)


if __name__ == "__main__":
    sys.exit(main())
