"""Chart collapse, transition consistency, connection and the reduced operator."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from su2reduce import bundle, contraction, su2_algebra
from su2reduce.contraction import ContractionMap

import oracles


CENTER = (1.0, 0.0, 0.0, 0.0)
SCHEDULE = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def test_image_diameter_bounds():
    ch = ContractionMap(CENTER, 8)
    (row,) = bundle.collapse_chart(ch, (8,)).rows
    assert row.sup_bound == 1.0 / 64
    assert 0.0 < row.sampled_diameter <= 2.0 * row.sup_bound


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
        rows = bundle.collapse_chart(ContractionMap(center, SCHEDULE[0]), SCHEDULE, seed=seed).rows
        assert [r.sampled_diameter for r in rows] == want


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
    rep = bundle.collapse_chart(ContractionMap(CENTER, 4), sched, tol=1e-6)
    assert [r.n for r in rep.rows] == list(sched)
    assert rep.threshold_n == 1001
    assert rep.center == CENTER
    for r in rep.rows:
        assert r.sup_bound == 1.0 / r.n**2
        assert r.sampled_diameter <= 2.0 * r.sup_bound
    assert [r.sup_bound < 1e-6 for r in rep.rows] == [False] * 8 + [True, True]
    shrink = [a.sampled_diameter / b.sampled_diameter for a, b in zip(rep.rows, rep.rows[1:])]
    assert all(3.6 < s < 4.4 for s in shrink)
    with pytest.raises(ValueError):
        bundle.collapse_chart(ContractionMap(CENTER, 4), (8, 4))
    with pytest.raises(ValueError):
        bundle.collapse_chart(ContractionMap(CENTER, 4), ())
    with pytest.raises(ValueError):
        bundle.collapse_chart(ContractionMap(CENTER, 4), (4, 8), tol=-1.0)


def test_consistency_collapsed_single_vs_two_centers():
    sched = (1024, 2048)
    stage = bundle.reduction_pipeline([CENTER, CENTER], sched, 1.0).stages[2]
    assert stage.name == "transition_consistency" and stage.status == "CONSISTENT"
    assert stage.details == {"centers": [list(CENTER)]}

    other = (0.0, 1.0, 0.0, 0.0)
    stage2 = bundle.reduction_pipeline([CENTER, other, CENTER], sched, 1.0).stages[-1]
    assert stage2.name == "transition_consistency"
    assert stage2.status == "INCONSISTENT"
    assert "unique fixed point" in stage2.details["reason"]
    # distinct centers, in order of first appearance
    assert stage2.details["centers"] == [list(CENTER), list(other)]
    stage3 = bundle.reduction_pipeline([CENTER, other, CENTER], sched, 1.0).stages[-1]
    assert stage3 == stage2


def test_pullback_and_connection_coefficients():
    rng = np.random.default_rng(23)
    lam = rng.uniform(-math.pi, math.pi, size=4)
    g = 1.7
    got = bundle.pullback_coefficients(lam, g)
    want = -1j * g * np.exp(-1j * lam)
    assert np.max(np.abs(got - want)) == 0.0
    assert np.max(np.abs(np.abs(got) - g)) < 1e-15

    center = (0.3, -0.2, 0.1, 0.4)
    sched = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
    stage = bundle.reduction_pipeline([center], sched, g).stages[3]
    assert stage.name == "connection"
    assert stage.details["one_form_vanishes"]
    got_c = np.array([complex(re, im) for re, im in stage.details["coefficients"]])
    assert np.max(np.abs(got_c - (-1j * g * np.exp(-1j * np.array(center))))) < 1e-15


def test_reduced_operator_spectrum_and_moduli():
    for a in (1, 2, 3):
        op = bundle.reduced_operator(CENTER, 1.0, a)
        assert max(abs(abs(v) - 1.0) for v in op.coefficients) <= 1e-15
        assert abs(op.eigenvalues[0] + 0.5) <= 1e-12
        assert abs(op.eigenvalues[1] - 0.5) <= 1e-12
        # the observable sigma_a / 2 and the potentials c_mu sigma_a, rebuilt
        # from what the operator stores
        sig = su2_algebra.pauli(op.pauli_index)
        assert op.pauli_index == a
        assert np.array_equal(np.linalg.eigvalsh(0.5 * sig), op.eigenvalues)
        mats = np.array(op.coefficients)[:, None, None] * sig
        assert mats.shape == (4, 2, 2)
        assert np.array_equal(np.einsum("mij,ji->m", mats, sig) / 2, op.coefficients)
        json.dumps(op.to_dict())
    with pytest.raises(ValueError):
        bundle.reduced_operator(CENTER, 1.0, 4)
    with pytest.raises(ValueError):
        bundle.reduced_operator(CENTER, 0.0)


def test_pipeline_happy_path():
    sched = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
    rep = bundle.reduction_pipeline([CENTER], sched, 1.0)
    assert rep.stages[-1].status == "PASS"
    assert [s.name for s in rep.stages] == [
        "chart_collapse",
        "constant_sections",
        "transition_consistency",
        "connection",
        "reduced_operator",
    ]
    assert all(s.status in ("PASS", "CONSISTENT") for s in rep.stages)
    assert rep.operator is not None
    assert rep.stages[2].status == "CONSISTENT"
    assert len(rep.collapse) == 1
    json.dumps([s.details for s in rep.stages])


def test_pipeline_stops_when_not_collapsed():
    rep = bundle.reduction_pipeline([CENTER], (4, 8), 1.0)
    assert rep.stages[-1].status == "NOT_COLLAPSED"
    assert rep.operator is None
    assert len(rep.stages) == 1
    assert rep.stages[0].details["final_n"] == 8


def test_pipeline_two_centers_is_inconsistent():
    sched = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
    centers = np.array([CENTER, (0.0, 1.0, 0.0, 0.0)])
    rep = bundle.reduction_pipeline(centers, sched, 1.0)
    assert rep.operator is None
    assert rep.stages[-1].name == "transition_consistency"
    assert rep.stages[-1].status == "INCONSISTENT"
    with pytest.raises(ValueError):
        bundle.reduction_pipeline([np.zeros(3)], sched, 1.0)
    with pytest.raises(ValueError):  # one bare 4-vector is not a sequence of them
        bundle.reduction_pipeline(CENTER, sched, 1.0)


def test_errata_catalog_ids():
    ids = {e["id"] for e in bundle.ERRATA}
    assert ids == {
        "anomaly-divergence-closed-form",
        "contraction-exponent-sign",
        "zero-valued-sections",
    }
