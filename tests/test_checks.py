"""Scenario builders and the cross-route study helpers."""

import tracemalloc

import numpy as np

from su2reduce import ansatz_field, checks, config, lattice, su2_algebra


def test_phase_field_scale_is_linear():
    cfg = config.ScenarioConfig()
    grid = lattice.Grid4.cubic(6)
    lam1 = checks.phase_field(cfg, grid)
    lam2 = checks.phase_field(cfg, grid, scale=2.0)
    assert np.array_equal(lam2.values, 2.0 * lam1.values)


def test_smooth_scalar_is_seeded_and_bounded():
    grid = lattice.Grid4.cubic(6)
    a = checks.smooth_scalar(grid, np.random.default_rng(42), 0.5)
    b = checks.smooth_scalar(grid, np.random.default_rng(42), 0.5)
    assert np.array_equal(a, b)
    assert a.shape == grid.dims
    assert np.max(np.abs(a)) <= 1.0


def test_smooth_group_field_is_unitary():
    grid = lattice.Grid4.cubic(6)
    U = checks.smooth_group_field(grid, np.random.default_rng(3), 0.5)
    assert U.shape == grid.dims + (2, 2)
    assert su2_algebra.unitarity_defect(U) < 1e-13


def test_smooth_matrix_potential_is_traceless_hermitian():
    grid = lattice.Grid4.cubic(6)
    A = checks.smooth_matrix_potential(grid, np.random.default_rng(4), 0.5)
    assert A.shape == (4,) + grid.dims + (2, 2)
    trace = A[..., 0, 0] + A[..., 1, 1]
    assert lattice.max_abs(trace) == 0.0
    assert lattice.max_abs(A - su2_algebra.dagger(A)) == 0.0


def test_divergence_expansion_gap_closes_quadratically():
    cfg = config.ScenarioConfig()
    gaps = []
    for n in (12, 24):
        grid = lattice.Grid4.cubic(n, cfg.box_length, cfg.metric)
        lam = checks.phase_field(cfg, grid, scale=cfg.anomaly_amplitude)
        div = lattice.divergence(grid, ansatz_field.anomalous_current(lam, cfg.coupling))
        gaps.append(lattice.max_abs(div - checks.anomaly_divergence_expansion(lam, cfg.coupling)))
    # one halving of h, so the gap should drop by about 4 (the coarse end
    # still carries some higher-order contamination, hence the wide window)
    assert 3.0 < gaps[0] / gaps[1] < 5.0


def test_divergence_study_peak_memory_is_bounded():
    # One complex field on the 16^4 rung is 16 * 16**4 bytes. The study's
    # traced peak measured 21.1424 such fields (22,169,384 bytes) before
    # the divergence expansion and the current were regrouped, 20.39
    # after: the phase field's values, profile and gradients hold 14 of
    # them, the current 4. A stack of the four squares f_mu^2 adds 4 more.
    field = 16 * 16**4
    cfg = config.ScenarioConfig(divergence_grids=(12, 16))
    checks.divergence_accounting_order(cfg)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        checks.divergence_accounting_order(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 21.1424 * field, peak / field


def test_covariance_defect_order_on_coarse_ladder():
    cfg = config.ScenarioConfig(covariance_grids=(8, 12, 16))
    est = checks.covariance_order(cfg)
    assert est.order is not None
    assert abs(est.order - 2.0) < 0.6


def test_pure_gauge_field_strength_order_on_coarse_ladder():
    cfg = config.ScenarioConfig(pure_gauge_grids=(8, 12, 16))
    est = checks.pure_gauge_order(cfg)
    assert est.order is not None
    assert abs(est.order - 2.0) < 0.6


def test_residual_contraction_route_zero_field():
    grid = lattice.Grid4.cubic(4)
    lam = ansatz_field.LambdaField.zero(grid)
    assert lattice.max_abs(checks.residual_contraction_route(lam, 1.0)) == 0.0
