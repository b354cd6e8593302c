"""Acceptance suite: the judged checks of the four commands, read from one run each.

Every command runs once through the CLI (`<command> --json`) and the
tests read that shared report. `test_every_check_of_the_command_passes`
goes over the command tuples in `checks.COMMANDS`; the c-tests print one
[PASS]/[FAIL] line each with the measured numbers, so a full run reads as
a checklist, and add the gates the suite keeps on top of a check's own
verdict (timing budgets, the collapse threshold, determinism).
"""

import contextlib
import dataclasses
import io
import json
import math
import time

import pytest

from su2reduce import checks, cli, config, report


CFG = config.ScenarioConfig()


def emit(ok, name, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def cli_run(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def runs():
    """`runs(command)`: (exit code, stdout) of `<command> --json`, run on
    first use and shared by the module; verify's two matrix ladders are the
    most expensive work in the suite."""
    done = {}

    def get(command):
        if command not in done:
            done[command] = cli_run([command, "--json"])
        return done[command]

    return get


def read(runs, command):
    """(rows by name, seconds per check) of the command's shared report."""
    data = json.loads(runs(command)[1])
    return {c["name"]: c for c in data["checks"]}, data["timings"]["check_s"]


def passed(rows, *names):
    return all(rows[n]["status"] == report.PASS for n in names)


@pytest.mark.parametrize("command", list(checks.COMMANDS))
def test_every_check_of_the_command_passes(runs, command):
    code, text = runs(command)
    data = json.loads(text)
    assert set(data["timings"]["check_s"]) == set(checks.COMMANDS[command])
    failed = [c["name"] for c in data["checks"] if c["status"] not in (report.PASS, report.RECORDED)]
    assert code == 0 and not failed, failed


def test_c01_pauli_commutators():
    run = checks.Run("verify", CFG)
    checks.pauli_commutators(run)  # warm the numpy paths before timing
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        checks.pauli_commutators(run)
        best = min(best, time.perf_counter() - t0)
    row = run.report.checks[-1]
    ok = row.status == report.PASS and best < 1e-3
    assert emit(ok, "c01 pauli_commutators",
                f"max_err={row.details['max_error']:.2e} runtime_ms={best * 1e3:.3f}")


def test_c02_field_strength_identity_and_raw_order(runs):
    rows, spent = read(runs, "verify")
    gap = rows["field_strength_identity"]["details"]["max_error"]
    order = rows["field_strength_raw_order"]["details"]["order"]
    dt = spent["field_strength_routes"]
    ok = (passed(rows, "field_strength_identity", "field_strength_raw_order")
          and abs(order - 2.0) <= 0.3 and dt < 10.0)
    assert emit(ok, "c02 field_strength_identity",
                f"analytic_gap={gap:.2e} raw_order={order:.3f} runtime_s={dt:.2f}")


def test_c03_lagrangian_identity_on_ladder_grids():
    defects, ok = [], True
    for n in CFG.raw_order_grids:
        run = checks.Run("verify", dataclasses.replace(CFG, grid_n=n))
        checks.lagrangian_identity(run)
        (row,) = run.report.checks
        defects.append(row.details["relative_defect"])
        ok = ok and row.status == report.PASS and defects[-1] <= 1e-10
    assert emit(ok, "c03 lagrangian_identity",
                f"max_rel_defect={max(defects):.2e} grids={CFG.raw_order_grids}")


def test_c04_gauge_covariance_and_pure_gauge_orders(runs):
    rows, _ = read(runs, "verify")
    cov = rows["gauge_covariance_order"]["details"]["order"]
    pure = rows["pure_gauge_order"]["details"]["order"]
    ok = (passed(rows, "gauge_covariance_order", "pure_gauge_order")
          and abs(cov - 2.0) <= 0.3 and abs(pure - 2.0) <= 0.3)
    assert emit(ok, "c04 gauge_covariance",
                f"covariance_order={cov:.3f} pure_gauge_order={pure:.3f}")


def test_c05_residual_route_equivalences(runs):
    rows, _ = read(runs, "verify")
    names = ("residual_contraction_equivalence", "residual_gauge_fixed_equivalence")
    assert emit(passed(rows, *names), "c05 residual_equivalence",
                f"contraction_gap={rows[names[0]]['details']['max_gap']:.2e} "
                f"gauge_fixed_gap={rows[names[1]]['details']['max_gap']:.2e}")


def test_c06_vacuum_zeros_and_scaling_slopes(runs):
    rows, _ = read(runs, "verify")
    slopes = rows["vacuum_scaling_slopes"]["details"]
    ok = (passed(rows, "vacuum_exact_zeros", "vacuum_scaling_slopes",
                 "noether_gradient_cancellation")
          and abs(slopes["slope_current"] - 2.0) <= 0.1
          and abs(slopes["slope_box_profile"] - 1.0) <= 0.1)
    assert emit(ok, "c06 vacuum_limit",
                f"exact_zeros={rows['vacuum_exact_zeros']['status']} "
                f"current_slope={slopes['slope_current']:.3f} "
                f"box_profile_slope={slopes['slope_box_profile']:.3f}")


def test_c07_anomaly_accounting_and_recorded_discrepancy(runs):
    rows, _ = read(runs, "anomaly")
    order = rows["divergence_accounting_order"]["details"]["order"]
    recorded = rows["closed_form_divergence_discrepancy"]
    gap = recorded["details"]["discrepancy"]
    # the closed-form printed value is recorded, never asserted against
    ok = (passed(rows, "divergence_accounting_order") and abs(order - 2.0) <= 0.3
          and recorded["status"] == report.RECORDED and math.isfinite(gap))
    assert emit(ok, "c07 anomaly_accounting",
                f"expansion_order={order:.3f} closed_form_gap_recorded={gap:.3f}")


def test_c08_contraction_map_certificates(runs):
    rows, spent = read(runs, "contract")
    banach = rows["banach_convergence"]["details"]
    dt = sum(spent.values())
    ok = passed(rows, *rows) and banach["steps"] <= 16 and dt < 0.1
    assert emit(ok, "c08 contraction_fixed_point",
                f"residual={rows['fixed_point_residual']['details']['residual']:.1e} "
                f"ratio_max={rows['lipschitz_sampled']['details']['ratio_max']:.6f} "
                f"steps={banach['steps']} runtime_ms={dt * 1e3:.1f}")


def test_c09_chart_collapse_schedule(runs):
    rows, _ = read(runs, "reduce")
    shrink = rows["chart_shrink_factor_0"]["details"]["ratios"]
    threshold = rows["collapse_threshold_0"]["details"]["threshold_n"]
    ok = (passed(rows, "stage_chart_collapse", "chart_diameter_bound_0", "chart_shrink_factor_0",
                 "collapse_threshold_0")
          and abs(threshold - 1001) <= 1)
    assert emit(ok, "c09 chart_collapse",
                f"shrink_range=({min(shrink):.2f},{max(shrink):.2f}) threshold_n={threshold}")


def test_c10_uniqueness_and_reduced_operator(runs, tmp_path):
    cfgfile = tmp_path / "two.json"
    cfgfile.write_text(json.dumps({"reduce_centers": 2}))
    stages = []
    for _ in range(2):
        code, text = cli_run(["reduce", "--json", "--config", str(cfgfile)])
        rows = {c["name"]: c for c in json.loads(text)["checks"]}
        stages.append((code, rows["stage_transition_consistency"]["details"]))
    inconsistent = (
        all(code == 1 and st["stage_status"] == "INCONSISTENT" for code, st in stages)
        and stages[0][1]["reason"] == stages[1][1]["reason"]
    )
    rows, _ = read(runs, "reduce")
    mod_dev = rows["operator_coefficient_modulus"]["details"]["max_deviation"]
    eig_dev = rows["observable_spectrum"]["details"]["max_deviation"]
    ok = inconsistent and passed(rows, "stage_reduced_operator", "operator_coefficient_modulus",
                                 "observable_spectrum")
    assert emit(ok, "c10 uniqueness_and_reduction",
                f"two_center=INCONSISTENT(deterministic={inconsistent}) "
                f"modulus_dev={mod_dev:.1e} eigenvalue_dev={eig_dev:.1e}")


def test_c11_reports_are_reproducible(capsys, runs):
    worst = []
    for command in checks.COMMANDS:
        code_a, out_a = runs(command)
        code_b, out_b = cli_run([command, "--json"])
        same = report.strip_timings(out_a) == report.strip_timings(out_b)
        worst.append((command, code_a == 0 and code_b == 0 and same))
        # the stripped text must still be a full report, not an empty shell
        assert json.loads(out_a)["overall"] == "PASS"
    ok = all(flag for _, flag in worst)
    detail = " ".join(f"{name}={'byte-identical' if flag else 'DIFFERS'}" for name, flag in worst)
    with capsys.disabled():
        print()
        emit(ok, "c11 reproducibility", detail)
    assert ok
