"""Report assembly, JSON determinism and the timing-stripped comparison."""

import json

import numpy as np
import pytest

from su2reduce import report


def test_check_result_status_guard_and_line():
    res = report.CheckResult("thing", report.PASS)
    assert res.line() == "[PASS] thing"
    with pytest.raises(ValueError):
        report.CheckResult("thing", "MAYBE")


def test_overall_verdict_rules():
    rep = report.RunReport("verify", {})
    assert rep.overall == report.RECORDED
    rep.add("a", report.RECORDED, value=1.0)
    rep.add("b", report.SKIPPED, reason="upstream")
    assert rep.overall == report.RECORDED
    rep.add("c", report.PASS)
    assert rep.overall == report.PASS
    rep.add("d", report.FAIL)
    assert rep.overall == report.FAIL


def test_json_is_sorted_and_stable():
    rep = report.RunReport("verify", {"grid_n": 8})
    rep.add("zeta", report.PASS, max_err=1.5e-13)
    rep.add("alpha", report.PASS)
    rep.timings["zeta_ms"] = 12.3
    text = rep.to_json()
    data = json.loads(text)
    assert list(data.keys()) == sorted(data.keys())
    assert data["overall"] == "PASS"
    # check order is preserved inside the list even though keys sort
    assert [c["name"] for c in data["checks"]] == ["zeta", "alpha"]
    assert text == rep.to_json()


def test_numpy_and_complex_values_become_plain_json():
    rep = report.RunReport("verify", {})
    rep.add(
        "payload",
        report.RECORDED,
        scalar=np.float64(0.5),
        integer=np.int64(7),
        vector=np.arange(3),
        cplx=1.0 - 2.0j,
        nested={"inner": (np.float32(1.0), 2)},
    )
    data = json.loads(rep.to_json())
    det = data["checks"][0]["details"]
    assert det["scalar"] == 0.5
    assert det["integer"] == 7
    assert det["vector"] == [0, 1, 2]
    assert det["cplx"] == [1.0, -2.0]
    assert det["nested"]["inner"] == [1.0, 2]


def test_strip_timings_makes_runs_comparable():
    a = report.RunReport("anomaly", {"seed": 1})
    b = report.RunReport("anomaly", {"seed": 1})
    a.add("x", report.PASS)
    b.add("x", report.PASS)
    a.timings["x_ms"] = 1.0
    b.timings["x_ms"] = 999.0
    assert a.to_json() != b.to_json()
    assert report.strip_timings(a.to_json()) == report.strip_timings(b.to_json())


def test_environment_is_recorded_under_timings_only():
    rep = report.RunReport("reduce", {"seed": 1})
    rep.add("x", report.PASS)
    env = json.loads(rep.to_json())["timings"]["environment"]
    assert set(env) == {"python", "numpy", "platform", "machine", "cpu_count"}
    assert env["numpy"] == np.__version__
    bare = report.RunReport("reduce", {"seed": 1}, timings={})
    bare.add("x", report.PASS)
    assert "environment" not in bare.to_json()
    assert report.strip_timings(rep.to_json()) == report.strip_timings(bare.to_json())


def test_save_and_print(tmp_path, capsys):
    rep = report.RunReport("contract", {})
    rep.add("fixed_point", report.PASS, residual=0.0)
    path = tmp_path / "report.json"
    rep.save(path)
    assert json.loads(path.read_text())["overall"] == "PASS"
    rep.print_lines()
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "[PASS] fixed_point"
    assert out[-1] == "overall: PASS"
