"""Acceptance suite: the eleven headline checks at their stated tolerances.

Each test prints one [PASS]/[FAIL] line with the measured numbers before
asserting, so a full run reads as a checklist. Heavy scenario pieces
(16^4 working grid, refinement ladders) are paid here once; the unit
suites keep to coarse grids.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from su2reduce import ansatz_field, bundle, checks, cli, config, contraction, lattice, report, su2_algebra


CFG = config.ScenarioConfig()


def emit(ok, name, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def verify_run():
    """One `verify --json` run, (exit code, stdout), shared by c04 and c11:
    its two matrix ladders are the most expensive work in the suite."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--json"])
    return code, out.getvalue()


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_c01_pauli_commutators():
    def body():
        worst = 0.0
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                got = su2_algebra.commutator(su2_algebra.pauli(a), su2_algebra.pauli(b))
                want = np.zeros((2, 2), dtype=complex)
                for c in (1, 2, 3):
                    want += 2j * su2_algebra.EPSILON[a - 1, b - 1, c - 1] * su2_algebra.pauli(c)
                worst = max(worst, float(np.max(np.abs(got - want))))
        return worst

    body()  # warm the numpy paths before timing
    best = math.inf
    for _ in range(3):
        worst, dt = timed(body)
        best = min(best, dt)
    ok = worst <= 1e-15 and best < 1e-3
    assert emit(ok, "c01 pauli_commutators", f"max_err={worst:.2e} runtime_ms={best * 1e3:.3f}")


def test_c02_field_strength_identity_and_raw_order():
    def body():
        grid = CFG.grid()
        lam = checks.phase_field(CFG, grid)
        Fa = ansatz_field.field_strength_ansatz(lam)
        Fd = ansatz_field.field_strength_direct(lam, mode=ansatz_field.ANALYTIC)
        gap = lattice.max_abs(Fa.values - Fd.values)
        est = checks.raw_field_strength_order(CFG)
        return gap, est.order

    (gap, order), dt = timed(body)
    ok = gap <= 1e-12 and order is not None and abs(order - 2.0) <= 0.3 and dt < 10.0
    assert emit(
        ok,
        "c02 field_strength_identity",
        f"analytic_gap={gap:.2e} raw_order={order:.3f} runtime_s={dt:.2f}",
    )


def test_c03_lagrangian_identity_on_ladder_grids():
    defects = []
    for n in CFG.raw_order_grids:
        grid = lattice.Grid4.cubic(n, CFG.box_length, CFG.metric)
        den = ansatz_field.lagrangian_density(checks.phase_field(CFG, grid))
        defects.append(den.identity_defect())
    worst = max(defects)
    ok = worst <= 1e-10
    assert emit(ok, "c03 lagrangian_identity", f"max_rel_defect={worst:.2e} grids={CFG.raw_order_grids}")


def test_c04_gauge_covariance_and_pure_gauge_orders(verify_run):
    # the orders of checks.covariance_order and checks.pure_gauge_order on
    # the default scenario, as the verify report carries them
    found = {c["name"]: c["details"] for c in json.loads(verify_run[1])["checks"]}
    cov = found["gauge_covariance_order"]["order"]
    pure = found["pure_gauge_order"]["order"]
    ok = abs(cov - 2.0) <= 0.3 and abs(pure - 2.0) <= 0.3
    assert emit(
        ok,
        "c04 gauge_covariance",
        f"covariance_order={cov:.3f} pure_gauge_order={pure:.3f}",
    )


def test_c05_residual_route_equivalences():
    grid = CFG.grid()
    lam = checks.phase_field(CFG, grid)
    full = ansatz_field.field_equation_residual_full(lam, CFG.coupling)
    contracted = checks.residual_contraction_route(lam, CFG.coupling)
    gap_contract = lattice.max_abs(full - contracted)
    fixed = ansatz_field.field_equation_residual(lam, CFG.coupling, mode=ansatz_field.ANALYTIC)
    gap_fixed = lattice.max_abs(full - fixed)
    gc = ansatz_field.gauge_condition_check(lam)
    ok = gap_contract <= 1e-10 and gap_fixed <= 1e-10 and gc.satisfied
    assert emit(
        ok,
        "c05 residual_equivalence",
        f"contraction_gap={gap_contract:.2e} gauge_fixed_gap={gap_fixed:.2e}",
    )


def test_c06_vacuum_zeros_and_scaling_slopes():
    grid = CFG.grid()
    lam0 = ansatz_field.LambdaField.zero(grid)
    zeros = (
        lattice.max_abs(lam0.profile - 1.0),
        ansatz_field.field_strength_ansatz(lam0).max_abs(),
        lattice.max_abs(ansatz_field.lagrangian_density(lam0).values),
        lattice.max_abs(ansatz_field.noether_current(lam0)),
        lattice.max_abs(ansatz_field.anomalous_current(lam0, CFG.coupling)),
        lattice.max_abs(ansatz_field.field_equation_residual_full(lam0, CFG.coupling)),
    )
    rep = ansatz_field.vacuum_report(
        checks.gradient_base_field(CFG, grid), CFG.scaling_amplitudes, CFG.coupling
    )
    ok = (
        all(z == 0.0 for z in zeros)
        and rep.slope_current is not None
        and abs(rep.slope_current - 2.0) <= 0.1
        and abs(rep.slope_box_profile - 1.0) <= 0.1
    )
    assert emit(
        ok,
        "c06 vacuum_limit",
        f"exact_zeros={all(z == 0.0 for z in zeros)} "
        f"current_slope={rep.slope_current:.3f} box_profile_slope={rep.slope_box_profile:.3f}",
    )


def test_c07_anomaly_accounting_and_recorded_discrepancy():
    est = checks.divergence_accounting_order(CFG)
    grid = CFG.grid()
    lam = checks.phase_field(CFG, grid, scale=CFG.anomaly_amplitude)
    div = lattice.divergence(grid, ansatz_field.anomalous_current(lam, CFG.coupling))
    closed = ansatz_field.anomaly_divergence_closed_form(lam, CFG.coupling)
    rel_gap = lattice.max_abs(div - closed) / max(1.0, lattice.max_abs(div))
    # the closed-form printed value is recorded, never asserted against
    ok = est.order is not None and abs(est.order - 2.0) <= 0.3 and math.isfinite(rel_gap)
    assert emit(
        ok,
        "c07 anomaly_accounting",
        f"expansion_order={est.order:.3f} closed_form_gap_recorded={rel_gap:.3f}",
    )


def test_c08_contraction_map_certificates():
    def body():
        m = contraction.ContractionMap(CFG.contraction_center, CFG.contraction_n)
        resid = float(np.linalg.norm(contraction.evaluate(m, m.center_array) - m.center_array))
        est = contraction.lipschitz_estimate(
            m, m.center, 1.0 / m.n, pairs=10_000, seed=CFG.seed
        )
        x0 = m.center_array + np.array([CFG.banach_offset, 0.0, 0.0, 0.0])
        tr = contraction.banach_iterate(m, x0, tol=1e-12)
        return m, resid, est, tr

    (m, resid, est, tr), dt = timed(body)
    ok = (
        resid <= 1e-15
        and est.ratio_max <= m.lipschitz_bound + 1e-12
        and tr.converged
        and tr.steps <= 16
        and bool(np.all(tr.ratios <= 0.1 + 1e-9))
        and dt < 0.1
    )
    assert emit(
        ok,
        "c08 contraction_fixed_point",
        f"residual={resid:.1e} ratio_max={est.ratio_max:.6f} steps={tr.steps} "
        f"runtime_ms={dt * 1e3:.1f}",
    )


def test_c09_chart_collapse_schedule():
    rep = bundle.collapse_chart(
        contraction.ContractionMap(CFG.contraction_center, CFG.collapse_schedule[0]),
        CFG.collapse_schedule,
        tol=CFG.collapse_tol,
        seed=CFG.seed,
    )
    diam_ok = all(r.sampled_diameter <= 2.0 * r.sup_bound for r in rep.rows)
    shrink = [a.sampled_diameter / b.sampled_diameter for a, b in zip(rep.rows, rep.rows[1:])]
    shrink_ok = all(3.6 <= s <= 4.4 for s in shrink)
    thresh_ok = abs(rep.threshold_n - 1001) <= 1
    ok = diam_ok and shrink_ok and thresh_ok and rep.collapsed
    assert emit(
        ok,
        "c09 chart_collapse",
        f"diameter_bound_ok={diam_ok} shrink_range=({min(shrink):.2f},{max(shrink):.2f}) "
        f"threshold_n={rep.threshold_n}",
    )


def test_c10_uniqueness_and_reduced_operator():
    centers = np.array([CFG.contraction_center, CFG.second_center])
    two_a = bundle.reduction_pipeline(centers, CFG.collapse_schedule, CFG.coupling,
                                      a=CFG.pauli_index, seed=CFG.seed)
    two_b = bundle.reduction_pipeline(centers, CFG.collapse_schedule, CFG.coupling,
                                      a=CFG.pauli_index, seed=CFG.seed)
    inconsistent = (
        two_a.status == "INCONSISTENT"
        and two_b.status == "INCONSISTENT"
        and two_a.consistency.reason == two_b.consistency.reason
    )
    single = bundle.reduction_pipeline(
        np.array(CFG.contraction_center), CFG.collapse_schedule, CFG.coupling,
        a=CFG.pauli_index, seed=CFG.seed,
    )
    op = single.operator
    mod_dev = max(abs(abs(v) - CFG.coupling) for v in op.coefficients) if op else math.inf
    eig_dev = (
        max(abs(op.eigenvalues[0] + 0.5), abs(op.eigenvalues[1] - 0.5)) if op else math.inf
    )
    ok = inconsistent and single.status == "PASS" and mod_dev <= 1e-15 and eig_dev <= 1e-12
    assert emit(
        ok,
        "c10 uniqueness_and_reduction",
        f"two_center=INCONSISTENT(deterministic={inconsistent}) "
        f"modulus_dev={mod_dev:.1e} eigenvalue_dev={eig_dev:.1e}",
    )


def test_c11_reports_are_reproducible(capsys, verify_run):
    worst = []
    for argv in (["verify", "--json"], ["anomaly", "--json"], ["contract", "--json"],
                 ["reduce", "--json"]):
        if argv[0] == "verify":
            code_a, out_a = verify_run
        else:
            code_a = cli.main(argv)
            out_a = capsys.readouterr().out
        code_b = cli.main(argv)
        out_b = capsys.readouterr().out
        same = report.strip_timings(out_a) == report.strip_timings(out_b)
        worst.append((argv[0], code_a == 0 and code_b == 0 and same))
        # the stripped text must still be a full report, not an empty shell
        assert json.loads(out_a)["overall"] == "PASS"
    ok = all(flag for _, flag in worst)
    detail = " ".join(f"{name}={'byte-identical' if flag else 'DIFFERS'}" for name, flag in worst)
    with capsys.disabled():
        print()
        emit(ok, "c11 reproducibility", detail)
    assert ok
