"""Command-line driver: exit codes, overrides, artifacts, determinism.

Only the fast subcommands (contract, reduce) are driven here, plus small
verify runs on a degenerate box; the default verify and anomaly runs
belong to the acceptance suite where their cost is paid once.
"""

import csv
import json
import warnings

import numpy as np
import pytest

from su2reduce import cli, report


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_contract_defaults_pass(capsys):
    code, out, _ = run(["contract"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "[PASS] contraction_validity" in lines
    assert "[PASS] fixed_point_residual" in lines
    assert "[PASS] lipschitz_sampled" in lines
    assert "[PASS] banach_convergence" in lines
    assert lines[-1] == "overall: PASS"


def test_reduce_defaults_pass_and_print_operator(capsys):
    code, out, _ = run(["reduce"], capsys)
    assert code == 0
    assert "overall: PASS" in out
    assert "reduced operator coefficients (per direction):" in out
    assert "observable eigenvalues: -0.500000000000, +0.500000000000" in out


def test_reduce_prints_its_operator_below_the_rows_even_when_one_fails(capsys, tmp_path):
    # a schedule that does not double: the shrink-factor row fails, the
    # pipeline still emits the operator, and the text reads rows first
    cfgfile = tmp_path / "non_doubling.json"
    cfgfile.write_text(json.dumps({"collapse_schedule": [4, 6, 9, 1000, 2000]}))
    code, out, _ = run(["reduce", "--config", str(cfgfile)], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "[PASS] stage_chart_collapse" and "[FAIL] chart_shrink_factor_0" in lines
    end = lines.index("overall: FAIL")
    assert lines[end + 1] == "reduced operator coefficients (per direction):"
    assert [ln[:6] for ln in lines[end + 2:end + 6]] == ["  mu=1", "  mu=2", "  mu=3", "  mu=4"]
    assert lines[end + 6:] == ["observable eigenvalues: -0.500000000000, +0.500000000000"]


def test_reduce_two_centers_fails_consistency(capsys, tmp_path):
    cfgfile = tmp_path / "two.json"
    cfgfile.write_text(json.dumps({"reduce_centers": 2}))
    code, out, _ = run(["reduce", "--config", str(cfgfile)], capsys)
    assert code == 1
    assert "[FAIL] stage_transition_consistency" in out
    assert "overall: FAIL" in out


def test_reduce_two_centers_report_carries_stage_status_and_reason(capsys, tmp_path):
    cfgfile = tmp_path / "two.json"
    cfgfile.write_text(json.dumps({"reduce_centers": 2}))
    code, out, _ = run(["reduce", "--json", "--config", str(cfgfile)], capsys)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    stage = checks["stage_transition_consistency"]
    assert stage["status"] == "FAIL"
    assert stage["details"]["stage_status"] == "INCONSISTENT"
    assert "distinct centers" in stage["details"]["reason"]
    assert len(stage["details"]["centers"]) == 2
    # passing stages keep their details unchanged
    assert "stage_status" not in checks["stage_chart_collapse"]["details"]


def test_contract_invalid_map_skips_downstream(capsys, tmp_path):
    cfgfile = tmp_path / "wide.json"
    cfgfile.write_text(json.dumps({"contraction_n": 1}))
    code, out, _ = run(["contract", "--config", str(cfgfile)], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "[FAIL] contraction_validity" in lines
    skipped = [ln for ln in lines if ln.startswith("[SKIPPED]")]
    assert len(skipped) == 4
    assert lines[-1] == "overall: FAIL"


def test_contract_banach_nonconvergence_ends_the_run(capsys, tmp_path):
    cfgfile = tmp_path / "far.json"
    cfgfile.write_text(json.dumps({"contraction_center": [9.9, 0, 0, 0]}))
    out_dir = tmp_path / "far"
    code, out, _ = run(["contract", "--json", "--config", str(cfgfile), "--out", str(out_dir)],
                       capsys)
    assert code == 1
    rows = [(c["name"], c["status"]) for c in json.loads(out)["checks"]]
    assert rows == [("contraction_validity", "PASS"), ("fixed_point_residual", "PASS"),
                    ("lipschitz_sampled", "PASS"), ("banach_convergence", "FAIL")]
    assert "error" in json.loads(out)["checks"][-1]["details"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["report.json"]


def test_json_output_is_deterministic(capsys):
    code_a, out_a, _ = run(["contract", "--json"], capsys)
    code_b, out_b, _ = run(["contract", "--json"], capsys)
    assert code_a == code_b == 0
    assert report.strip_timings(out_a) == report.strip_timings(out_b)
    data = json.loads(out_a)
    assert data["overall"] == "PASS"
    assert data["command"] == "contract"

    _, red_a, _ = run(["reduce", "--json"], capsys)
    _, red_b, _ = run(["reduce", "--json"], capsys)
    assert report.strip_timings(red_a) == report.strip_timings(red_b)


def test_out_directory_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, _, _ = run(["contract", "--out", str(out_dir)], capsys)
    assert code == 0
    rep = json.loads((out_dir / "report.json").read_text())
    assert rep["overall"] == "PASS"
    assert "banach_trace.csv" in rep["artifacts"]
    with open(out_dir / "banach_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "k"
    for row in rows[1:]:
        for cell in row[1:]:
            if cell:
                float(cell)


def test_grid_and_seed_overrides_reach_the_report(capsys):
    code, out, _ = run(["reduce", "--json", "--seed", "7"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["scenario"]["seed"] == 7
    code2, out2, _ = run(["reduce", "--json", "--grid", "8"], capsys)
    assert code2 == 0
    assert json.loads(out2)["scenario"]["grid_n"] == 8


def test_config_file_plus_flag_override(capsys, tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"seed": 3, "contraction_n": 20}))
    code, out, _ = run(["contract", "--config", str(cfgfile), "--seed", "11", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    # the flag wins over the file, the file wins over the default
    assert data["scenario"]["seed"] == 11
    assert data["scenario"]["contraction_n"] == 20


def test_error_exits_are_code_two(capsys, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{oops")
    code, _, err = run(["contract", "--config", str(bad_json)], capsys)
    assert code == 2
    assert "config error" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"grid_m": 12}))
    code2, _, err2 = run(["contract", "--config", str(unknown)], capsys)
    assert code2 == 2
    assert "config error" in err2

    code3, _, err3 = run(["contract", "--config", str(tmp_path / "missing.json")], capsys)
    assert code3 == 2
    assert "config error" in err3

    code4, _, _ = run(["frobnicate"], capsys)
    assert code4 == 2
    code5, _, _ = run([], capsys)
    assert code5 == 2
    code6, _, err6 = run(["reduce", "--grid", "3"], capsys)
    assert code6 == 2
    assert "grid_n" in err6


@pytest.mark.parametrize("command", ["verify", "anomaly", "contract", "reduce"])
def test_the_metric_knob_is_gone(capsys, tmp_path, command):
    # the wave operator has one signature: no flag and no config key selects it
    code, _, err = run([command, "--metric", "euclidean"], capsys)
    assert code == 2
    assert "--metric" in err
    cfgfile = tmp_path / "metric.json"
    cfgfile.write_text(json.dumps({"metric": "euclidean"}))
    code, _, err = run([command, "--config", str(cfgfile)], capsys)
    assert code == 2
    assert "unknown config keys: metric" in err


@pytest.mark.parametrize("text", [
    '{"coupling": "2"}',
    '{"grid_n": 1e400}',
    '{"reduce_centers": true}',
    '{"seed": false}',
    '{"contraction_n": true}',
    '{"phase_waves": [[[0, 1, 0, 0], "0.8", 0.0]], "phase_components": [1]}',
    '{"divergence_grids": [2, 3]}',
    '{"raw_order_grids": [3, 8]}',
], ids=["string_coupling", "overflowing_grid_n", "bool_reduce_centers", "bool_seed",
        "bool_contraction_n", "string_amplitude", "divergence_grid_below_four",
        "raw_order_grid_below_four"])
def test_wrongly_typed_config_values_exit_two(capsys, tmp_path, text):
    cfgfile = tmp_path / "typed.json"
    cfgfile.write_text(text)
    code, _, err = run(["reduce", "--config", str(cfgfile)], capsys)
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("text", [
    '{"contraction_center": [1e308, 0, 0, 0]}',
    '{"contraction_center": [1e200, 1e200, 0, 0]}',
    '{"collapse_tol": 1e-320}',
], ids=["huge_center", "center_norm_overflows", "subnormal_collapse_tol"])
def test_collapse_thresholds_that_overflow_exit_two(capsys, tmp_path, text):
    # the collapse floors sqrt(|c| / collapse_tol) to a scale; where that
    # root is not finite the config is refused, on contract as on reduce
    cfgfile = tmp_path / "collapse.json"
    cfgfile.write_text(text)
    for command in ("contract", "reduce"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow in |c|
            code, _, err = run([command, "--config", str(cfgfile)], capsys)
        assert code == 2
        assert "config error" in err and "collapse_tol" in err


@pytest.mark.parametrize("schedule", ["[4, 1e200]", "[4, 8, 1e155]"])
def test_collapse_scales_whose_square_overflows_exit_two(capsys, tmp_path, schedule):
    # the collapse bounds each chart image by |c| / n^2, which needs n^2 as a float
    cfgfile = tmp_path / "schedule.json"
    cfgfile.write_text(f'{{"collapse_schedule": {schedule}}}')
    for command in ("contract", "reduce"):
        code, _, err = run([command, "--config", str(cfgfile)], capsys)
        assert code == 2
        assert "config error" in err and "collapse_schedule" in err


@pytest.mark.parametrize("text", [
    '{"box_length": 1e-308}',
    '{"box_length": 1e-310}',
    '{"box_length": 1e-320}',
    '{"box_length": 1e-307, "phase_waves": [[[9, 0, 0, 0], 0.5, 0.0]], "phase_components": [1]}',
    '{"box_length": 1.0, "gradient_waves": [[[1, 1, 0, 0], 1e308, 0.0]]}',
], ids=["box_1e-308", "box_1e-310", "box_1e-320", "cycle_count_9", "huge_gradient_amplitude"])
def test_wave_numbers_that_overflow_exit_two(capsys, tmp_path, text):
    # verify and anomaly ended in "phase field must be finite" or "amplitude
    # and phase must be finite" tracebacks here, while contract and reduce ran
    cfgfile = tmp_path / "waves.json"
    cfgfile.write_text(text)
    for command in ("verify", "anomaly", "contract", "reduce"):
        code, _, err = run([command, "--config", str(cfgfile)], capsys)
        assert code == 2
        assert "config error" in err and "wave number" in err


@pytest.mark.parametrize("text", [
    '{"gradient_waves": [[[0, 0, 0, 0], 0.5, 0.0]]}',
    '{"phase_waves": [[[0, 1, 0, 0], 1e308, 0.0], [[0, 0, 1, 0], 1e308, 0.0]], "phase_components": [1, 1]}',
], ids=["zero_gradient_cycles", "phase_amplitudes_overflow"])
def test_waves_that_make_no_finite_field_exit_two(capsys, tmp_path, text):
    # verify ended in a ValueError traceback on both, anomaly on the first and
    # with an overflow warning on the second, while contract and reduce ran
    cfgfile = tmp_path / "waves.json"
    cfgfile.write_text(text)
    for command in ("verify", "anomaly", "contract", "reduce"):
        code, _, err = run([command, "--config", str(cfgfile)], capsys)
        assert code == 2
        assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"anomaly_amplitude": 1e308, "phase_waves": [[[0, 1, 0, 0], 2.0, 0.0]], "phase_components": [1]}',
    '{"scaling_amplitudes": [1e308, 1e307]}',
], ids=["anomaly_amplitude_overflow", "scaling_amplitude_overflow"])
def test_scaled_fields_that_overflow_exit_two(capsys, tmp_path, text):
    # anomaly ended in a ValueError traceback on both: the phase field at the
    # anomaly amplitude, and the gradient base at twice the second-last scaling
    # amplitude, were not finite. verify failed three rows on the second, with
    # overflow warnings, while contract and reduce ran.
    cfgfile = tmp_path / "scaled.json"
    cfgfile.write_text(text)
    for command in ("verify", "anomaly", "contract", "reduce"):
        code, _, err = run([command, "--config", str(cfgfile)], capsys)
        assert code == 2
        assert "config error" in err and "Traceback" not in err


def test_large_amplitudes_with_a_finite_sum_still_run(capsys, tmp_path):
    # two waves of 1e307 on one component sum to a finite bound: the run goes
    # on, and the identities its huge values break end in FAIL rows
    cfgfile = tmp_path / "large.json"
    cfgfile.write_text(json.dumps({"phase_waves": [[[0, 1, 0, 0], 1e307, 0.0], [[0, 0, 1, 0], 1e307, 0.0]],
                                   "phase_components": [1, 1]}))
    for command, want in (("verify", 1), ("anomaly", 1), ("contract", 0), ("reduce", 0)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run([command, "--json", "--config", str(cfgfile)], capsys)
        assert code == want and "Traceback" not in err
        statuses = [c["status"] for c in json.loads(out)["checks"]]
        assert ("FAIL" in statuses) == (want == 1)


def test_a_tiny_box_with_finite_wave_numbers_still_runs(capsys, tmp_path):
    # 2 pi / 1e-307 is finite: verify and anomaly run, and their stencils'
    # overflows end in FAIL rows, not in a traceback; short ladders and an
    # 8^4 working grid keep the runs cheap
    cfgfile = tmp_path / "tiny.json"
    cfgfile.write_text(json.dumps({"box_length": 1e-307, "raw_order_grids": [6, 8], "divergence_grids": [6, 8],
                                   "covariance_grids": [6, 8], "pure_gauge_grids": [6, 8, 10]}))
    for command, want in (("verify", 1), ("anomaly", 1), ("contract", 0), ("reduce", 0)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run([command, "--json", "--grid", "8", "--config", str(cfgfile)], capsys)
        assert code == want and "Traceback" not in err
        statuses = [c["status"] for c in json.loads(out)["checks"]]
        assert ("FAIL" in statuses) == (want == 1)


def test_one_parser_serves_every_call(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(["contract", "--json", "--seed", "11"], capsys)
    assert code == 0
    assert json.loads(out)["scenario"]["seed"] == 11
    code, out, _ = run(["contract", "--json"], capsys)
    before = report.strip_timings(out)
    assert code == 0
    assert json.loads(out)["scenario"]["seed"] == 2024
    code, _, err = run(["contract", "--seed", "x"], capsys)
    assert code == 2
    assert "invalid int value" in err
    code, out, _ = run(["contract", "--json"], capsys)
    assert code == 0
    assert report.strip_timings(out) == before


def verify_on_huge_box(capsys, tmp_path):
    """verify --json on a box of 1e308; short ladders and an 8^4 working
    grid keep the run cheap."""
    cfgfile = tmp_path / "huge.json"
    cfgfile.write_text(json.dumps({"box_length": 1e308, "raw_order_grids": [6, 8],
                                   "covariance_grids": [6, 8], "pure_gauge_grids": [6, 8, 10]}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the huge spacings
        return run(["verify", "--json", "--grid", "8", "--config", str(cfgfile)], capsys)


def test_refinement_errors_that_underflow_fail_the_row(capsys, tmp_path):
    # on a box of 1e308 the pure-gauge potential underflows to zero, so its
    # refinement errors are exact zeros that no log-log fit accepts
    code, out, err = verify_on_huge_box(capsys, tmp_path)
    assert code == 1
    assert "Traceback" not in err
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    pure = rows["pure_gauge_order"]
    assert pure["status"] == "FAIL"
    assert pure["details"]["order"] is None
    assert pure["details"]["errors"] == [0.0, 0.0, 0.0]
    # the raw route's errors are subnormal (about 1e-309): they have lost
    # their precision to underflow, so no order is fitted to them either
    raw = rows["field_strength_raw_order"]
    assert raw["status"] == "FAIL"
    assert raw["details"]["order"] is None
    assert 0.0 < min(raw["details"]["errors"]) < np.finfo(float).tiny


def test_non_finite_values_are_reported_as_null(capsys, tmp_path):
    # the closed-form pure gauge overflows on the same box and its norms are
    # nan; the report stays strict JSON and both rows fail
    code, out, _ = verify_on_huge_box(capsys, tmp_path)
    assert code == 1

    def refuse(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    rows = {c["name"]: c for c in json.loads(out, parse_constant=refuse)["checks"]}
    closed = rows["pure_gauge_closed_form"]["details"]
    assert rows["pure_gauge_closed_form"]["status"] == "FAIL"
    assert closed["max_deviation"] is None
    assert closed["other_components"] is None
    assert closed["field_strength_max"] is None
    assert rows["gauge_transform_identity"]["status"] == "FAIL"
    assert rows["gauge_transform_identity"]["details"]["max_deviation"] is None


def test_help_exits_cleanly(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert "verify" in out and "reduce" in out
