"""Chart collapse, transition consistency, connection and the reduced operator.

The stages after the collapse are read off the rows of a `reduce` run."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from su2reduce import bundle, checks, config, contraction, su2_algebra
from su2reduce.contraction import ContractionMap

import oracles


CENTER = (1.0, 0.0, 0.0, 0.0)
SCHEDULE = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def reduce_run(**overrides):
    """The run of `reduce`'s checks in order, and its rows by name."""
    run = checks.Run("reduce", config.ScenarioConfig(**overrides))
    for name in checks.COMMANDS["reduce"]:
        getattr(checks, name)(run)
    return run, {row.name: row for row in run.report.checks}


def stage_names(run) -> list:
    return [row.name for row in run.report.checks if row.name.startswith("stage_")]


def test_image_diameter_bounds():
    ch = ContractionMap(CENTER, 8)
    (diameter,) = bundle.collapse_chart(ch, (8,))
    assert 0.0 < diameter <= 2.0 / 64


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_one_draw_serves_every_scale(seed):
    for center in (CENTER, (0.3, -0.2, 0.1, 0.4), (-2.5, 1.0, 0.7, 3.1)):
        c = np.array(center)
        want = []
        for n in SCHEDULE:
            # the chart sample as drawn before one draw served every scale:
            # a fresh generator per ball
            pts = oracles.row_major_sample(c, 1.0 / n, bundle.CHART_SAMPLES, np.random.default_rng(seed))
            got = contraction.sample_ball(c, 1.0 / n, bundle.CHART_SAMPLES, np.random.default_rng(seed))
            # coordinate-major, and the row-major sample's values bit for bit
            assert got.shape == (bundle.CHART_SAMPLES, 4) and got.flags.f_contiguous
            assert got.tobytes(order="C") == pts.tobytes(order="C")
            factors = np.exp(-np.linalg.norm(pts - c, axis=1) / n)
            want.append(float(np.linalg.norm(c)) * float(factors.max() - factors.min()))
        assert bundle.collapse_chart(ContractionMap(center, SCHEDULE[0]), SCHEDULE, seed=seed) == want


def collapse_peak(schedule) -> int:
    """Warm tracemalloc peak, in bytes, of one collapse along `schedule`."""
    m = ContractionMap((0.3, -0.2, 0.1, 0.4), schedule[0])
    bundle.collapse_chart(m, schedule)
    tracemalloc.start()
    try:
        bundle.collapse_chart(m, schedule)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_collapse_memory_does_not_grow_with_the_schedule():
    # one sample of CHART_SAMPLES points serves every scale in turn; a
    # (len(schedule), CHART_SAMPLES, 4) batch would take 16.8 MB here
    long = collapse_peak(tuple(range(4, 4 + 8 * 256, 8)))
    short = collapse_peak((4, 12))
    assert long <= 1.5 * short, (long, short)


def test_collapse_threshold_boundary():
    t = bundle.collapse_threshold(CENTER, 1e-6)
    assert t == 1001
    assert 1.0 / t**2 < 1e-6 <= 1.0 / (t - 1) ** 2
    assert bundle.collapse_threshold((0.0, 0.0, 0.0, 0.0), 1e-6) == 1
    with pytest.raises(ValueError):
        bundle.collapse_threshold(CENTER, 0.0)
    rng = np.random.default_rng(17)
    for _ in range(20):
        c = rng.uniform(-2, 2, size=4)
        tol = 10.0 ** rng.uniform(-8, -2)
        n = bundle.collapse_threshold(c, tol)
        cn = float(np.linalg.norm(c))
        assert cn / n**2 < tol
        if n > 1:
            assert cn / (n - 1) ** 2 >= tol


def test_collapse_threshold_past_float_precision():
    # past sqrt(|c| / tol) = 2^53 a step of one no longer moves |c| / n^2,
    # and a loop of such steps ran for ever on these centers
    for cn in (1e38, 1e39, 1e150):
        n = bundle.collapse_threshold((cn, 0.0, 0.0, 0.0), 1e-6)
        assert cn / n**2 < 1e-6 <= cn / (n - 1) ** 2
        assert n > math.floor(math.sqrt(cn / 1e-6))


def test_collapse_chart_schedule():
    sched = SCHEDULE
    diameters = bundle.collapse_chart(ContractionMap(CENTER, 4), sched)
    assert len(diameters) == len(sched)
    for d, n in zip(diameters, sched):
        assert d <= 2.0 / n**2
    assert bundle.collapse_threshold(CENTER, 1e-6) == 1001
    assert [n >= 1001 for n in sched] == [False] * 8 + [True, True]
    shrink = [a / b for a, b in zip(diameters, diameters[1:])]
    assert all(3.6 < s < 4.4 for s in shrink)
    with pytest.raises(ValueError):
        bundle.collapse_chart(ContractionMap(CENTER, 4), (8, 4))
    with pytest.raises(ValueError):
        bundle.collapse_chart(ContractionMap(CENTER, 4), ())


def test_consistency_collapsed_single_vs_two_centers():
    sched = (1024, 2048)
    _, rows = reduce_run(collapse_schedule=sched, reduce_centers=2, second_center=CENTER)
    stage = rows["stage_transition_consistency"]
    assert stage.status == "PASS"
    assert stage.details == {"centers": [list(CENTER)]}

    other = (0.0, 1.0, 0.0, 0.0)
    run, rows = reduce_run(collapse_schedule=sched, reduce_centers=2, second_center=other)
    assert stage_names(run)[-1] == "stage_transition_consistency"
    stage2 = rows["stage_transition_consistency"]
    assert stage2.status == "FAIL" and stage2.details["stage_status"] == "INCONSISTENT"
    assert "unique fixed point" in stage2.details["reason"]
    # distinct centers, in order of first appearance
    assert stage2.details["centers"] == [list(CENTER), list(other)]
    _, rows3 = reduce_run(collapse_schedule=sched, reduce_centers=2, second_center=other)
    assert rows3["stage_transition_consistency"] == stage2


def test_pullback_and_connection_coefficients():
    # the connection coefficients are the closed form -i g exp(-i c) bit for
    # bit, signed zeros included, at each Pauli direction
    g, center = 1.7, (0.3, -0.2, 0.1, 0.4)
    want = oracles.connection_coefficients(center, g)
    assert np.max(np.abs(np.abs(want) - g)) < 1e-15
    for a in (1, 2, 3):
        run, rows = reduce_run(contraction_center=center, coupling=g, pauli_index=a)
        stage = rows["stage_connection"]
        assert stage.status == "PASS"
        assert stage.details["one_form_vanishes"]
        got = np.array(stage.details["coefficients"])
        assert np.array_equal(got.view(float), want.view(float))
        assert run.operator[0] == stage.details["coefficients"]
    # and over random centres and couplings, at magnitudes from 1e-300 to 1e150
    # (the config refuses a centre whose norm overflows); the schedule's last
    # scale collapses every one of them
    rng = np.random.default_rng(23)
    for _ in range(300):
        c = tuple(float(x) for x in rng.uniform(-1.0, 1.0, 4) * 10.0 ** rng.uniform(-300, 150))
        g = float(rng.uniform(0.1, 3.0))
        run = checks.Run("reduce", config.ScenarioConfig(
            contraction_center=c, coupling=g, collapse_schedule=(2, 10**80)))
        checks.pipeline_stages(run)
        got = np.array(run.operator[0])
        assert np.array_equal(got.view(float), oracles.connection_coefficients(c, g).view(float)), c


def test_reduced_operator_spectrum_and_moduli():
    for a in (1, 2, 3):
        run, rows = reduce_run(pauli_index=a)
        coefficients, eigenvalues = run.operator
        assert max(abs(abs(v) - 1.0) for v in coefficients) <= 1e-15
        assert abs(eigenvalues[0] + 0.5) <= 1e-12
        assert abs(eigenvalues[1] - 0.5) <= 1e-12
        # the observable sigma_a / 2 and the potentials c_mu sigma_a, rebuilt
        # from what the report stores
        details = rows["stage_reduced_operator"].details
        assert rows["stage_reduced_operator"].status == "PASS"
        assert details["pauli_index"] == a
        assert details["coefficients"] == coefficients and details["eigenvalues"] == eigenvalues
        sig = su2_algebra.pauli(details["pauli_index"])
        assert np.array_equal(np.linalg.eigvalsh(0.5 * sig), eigenvalues)
        mats = np.array(coefficients)[:, None, None] * sig
        assert mats.shape == (4, 2, 2)
        assert np.array_equal(np.einsum("mij,ji->m", mats, sig) / 2, coefficients)
        json.loads(run.report.to_json())
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(pauli_index=4)
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(coupling=0.0)


def test_pipeline_happy_path():
    run, rows = reduce_run(collapse_schedule=SCHEDULE)
    assert stage_names(run) == [
        "stage_chart_collapse",
        "stage_constant_sections",
        "stage_transition_consistency",
        "stage_connection",
        "stage_reduced_operator",
    ]
    assert all(row.status == "PASS" for row in run.report.checks)
    assert run.operator is not None
    assert "chart_diameter_bound_0" in rows and "chart_diameter_bound_1" not in rows
    json.loads(run.report.to_json())


def test_pipeline_stops_when_not_collapsed():
    run, rows = reduce_run(collapse_schedule=(4, 8))
    assert stage_names(run) == ["stage_chart_collapse"]
    stage = rows["stage_chart_collapse"]
    assert stage.status == "FAIL" and stage.details["stage_status"] == "NOT_COLLAPSED"
    assert run.operator is None
    assert stage.details["final_n"] == 8


def test_pipeline_two_centers_is_inconsistent():
    run, rows = reduce_run(collapse_schedule=SCHEDULE, reduce_centers=2,
                           second_center=(0.0, 1.0, 0.0, 0.0))
    assert run.operator is None
    assert stage_names(run)[-1] == "stage_transition_consistency"
    stage = rows["stage_transition_consistency"]
    assert stage.status == "FAIL" and stage.details["stage_status"] == "INCONSISTENT"


def test_errata_catalog_ids():
    ids = {e["id"] for e in bundle.ERRATA}
    assert ids == {
        "anomaly-divergence-closed-form",
        "contraction-exponent-sign",
        "zero-valued-sections",
    }
