"""Scenario builders and the cross-route study helpers."""

import math
import tracemalloc

import numpy as np
import pytest

from su2reduce import ansatz_field, checks, config, lattice, su2_algebra

import oracles


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
    assert U.shape == grid.dims + (4,)
    assert lattice.max_abs(np.sum(U**2, axis=-1) - 1.0) < 1e-15
    assert su2_algebra.unitarity_defect(su2_algebra.group_matrices(U)) < 1e-13


def test_smooth_matrix_potential_is_traceless_hermitian():
    grid = lattice.Grid4.cubic(6)
    A = checks.smooth_matrix_potential(grid, np.random.default_rng(4), 0.5)
    assert A.shape == (4,) + grid.dims + (4,)
    assert np.all(A[..., 0] == 0.0)
    M = oracles.algebra_matrices(A)
    assert lattice.max_abs(M[..., 0, 0] + M[..., 1, 1]) == 0.0
    assert lattice.max_abs(M - oracles.dagger(M)) == 0.0


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


# one complex field on the 16^4 rung
FIELD_16 = 16 * 16**4


def traced_peak(study, cfg) -> float:
    """tracemalloc peak of study(cfg), in complex 16^4 fields; a first call
    keeps one-off allocations out of the peak."""
    study(cfg)
    tracemalloc.start()
    try:
        study(cfg)
        return tracemalloc.get_traced_memory()[1] / FIELD_16
    finally:
        tracemalloc.stop()


def test_divergence_study_peak_memory_is_bounded():
    # The study's traced peak measured 21.1424 fields (22,169,384 bytes)
    # before the divergence expansion and the current were regrouped, 20.39
    # after: the phase field's values, profile and gradients hold 14 of
    # them, the current 4. A stack of the four squares f_mu^2 adds 4 more.
    peak = traced_peak(checks.divergence_accounting_order, config.ScenarioConfig(divergence_grids=(12, 16)))
    assert peak <= 21.1424, peak


def test_covariance_study_peak_memory_is_bounded():
    # The bound is the peak with the fields stored as 2x2 complex matrices,
    # 100.0277 fields (104,886,680 bytes). As real u(2) coefficients it
    # reads 46.52: a potential is 8 fields instead of 16, the group field
    # 2 instead of 4. Built one (mu, nu) component at a time, F[A] and
    # F[A'] are 2 fields each instead of 12: it reads 30.21.
    peak = traced_peak(checks.covariance_order, config.ScenarioConfig(covariance_grids=(12, 16)))
    assert peak <= 100.0278, peak


def test_pure_gauge_study_peak_memory_is_bounded():
    # The bound is the peak with the fields stored as 2x2 complex matrices,
    # 60.0160 fields (62,931,296 bytes); as real u(2) coefficients it
    # reads 26.20, and 14.20 with F built one (mu, nu) component at a time.
    peak = traced_peak(checks.pure_gauge_order, config.ScenarioConfig(pure_gauge_grids=(12, 16)))
    assert peak <= 60.0160, peak


def test_raw_field_strength_study_peak_memory_is_bounded():
    # The bound is the peak with both routes built as six-component tensors,
    # 28.3906 fields (29,769,744 bytes): the phase field's values, profile
    # and gradients hold 14 of them, the two tensors 12. Built one (mu, nu)
    # component at a time it reads 17.39.
    peak = traced_peak(checks.raw_field_strength_order, config.ScenarioConfig(raw_order_grids=(8, 16)))
    assert peak <= 28.3906, peak


def test_refine_gives_no_order_when_an_error_is_not_positive_and_finite():
    cfg = config.ScenarioConfig()
    for bad in (0.0, math.inf, math.nan):
        est = checks._refine(cfg, (4, 6, 8), lambda grid, bad=bad: bad if grid.dims[0] == 8 else 1.0)
        assert est.order is None
        assert est.spacings == tuple(lattice.Grid4.cubic(n, cfg.box_length).h for n in (4, 6, 8))
        assert est.errors[:2] == (1.0, 1.0) and est.errors[2] is bad
    assert checks._refine(cfg, (4, 8), lambda grid: grid.h**2).order == pytest.approx(2.0)
    with pytest.raises(ValueError):  # the fit itself stays strict
        lattice.fit_order((0.5, 0.25), (1.0, 0.0))


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


@pytest.mark.parametrize("seed", [0, 6, 17])
def test_matrix_ladders_match_the_oracle_route(seed):
    # the same seeded fields, then the whole study on 2x2 matrices
    cfg = config.ScenarioConfig(seed=seed, covariance_grids=(8, 12), pure_gauge_grids=(8, 12))
    g = cfg.coupling
    cov, pure = [], []
    for n in (8, 12):
        grid = lattice.Grid4.cubic(n, cfg.box_length, cfg.metric)
        rng = np.random.default_rng(seed)
        A = oracles.algebra_matrices(checks.smooth_matrix_potential(grid, rng, cfg.smooth_amp))
        U = oracles.group_matrices(checks.smooth_group_field(grid, rng, cfg.smooth_amp))
        cov.append(oracles.covariance_gap(grid, A, U, g))
        U = checks.smooth_group_field(grid, np.random.default_rng(seed + 1), cfg.smooth_amp)
        pure.append(oracles.pure_gauge_gap(grid, oracles.group_matrices(U), g))
    for est, want in ((checks.covariance_order(cfg), cov), (checks.pure_gauge_order(cfg), pure)):
        assert np.allclose(est.errors, want, rtol=1e-12, atol=0.0), (est.errors, want)
        assert abs(est.order - lattice.fit_order(est.spacings, want)) <= 1e-12 * abs(est.order)
