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


def replayed_scalars(grid, seed, count, amp=0.5):
    """The first `count` smooth scalars the generator seeded with `seed` gives."""
    rng = np.random.default_rng(seed)
    return [checks.smooth_scalar(grid, rng, amp) for _ in range(count)]


def test_smooth_scalar_is_seeded_and_bounded():
    grid = lattice.Grid4.cubic(6)
    a = checks.smooth_scalar(grid, np.random.default_rng(42), 0.5)
    b = checks.smooth_scalar(grid, np.random.default_rng(42), 0.5)
    assert np.array_equal(a, b)
    # kept only along the axes its two waves use; every kept axis varies
    assert a.shape == (6, 1, 1, 6)
    for d in (0, 3):
        assert np.ptp(a, axis=d).max() > 0.0
    assert np.max(np.abs(a)) <= 1.0


def test_smooth_group_field_is_unitary():
    grid = lattice.Grid4.cubic(6)
    for seed, shape in ((3, (6, 6, 6, 6)), (0, (1, 1, 6, 6))):
        U = checks.smooth_group_field(grid, np.random.default_rng(seed), 0.5)
        # kept along the union of its three angles' axes
        rho = replayed_scalars(grid, seed, 3)
        assert U.shape == np.broadcast_shapes(*(x.shape for x in rho)) + (4,) == shape + (4,)
        dense = np.stack([np.broadcast_to(x, grid.dims) for x in rho], axis=-1)
        assert np.array_equal(np.broadcast_to(U, grid.dims + (4,)), su2_algebra.su2_exp(dense))
        assert lattice.max_abs(np.sum(U**2, axis=-1) - 1.0) < 1e-15
        assert su2_algebra.unitarity_defect(su2_algebra.group_matrices(U)) < 1e-13


def test_smooth_matrix_potential_is_traceless_hermitian():
    grid = lattice.Grid4.cubic(6)
    A = checks.smooth_matrix_potential(grid, np.random.default_rng(4), 0.5)
    # the union of its twelve scalars' axes, component (mu, a) from scalar 3 mu + a - 1
    scalars = replayed_scalars(grid, 4, 12)
    assert A.shape == (4,) + np.broadcast_shapes(*(x.shape for x in scalars)) + (4,)
    for k, x in enumerate(scalars):
        assert np.array_equal(A[k // 3, ..., k % 3 + 1], np.broadcast_to(x, A.shape[1:-1]))
    assert np.all(A[..., 0] == 0.0)
    M = oracles.algebra_matrices(A)
    assert lattice.max_abs(M[..., 0, 0] + M[..., 1, 1]) == 0.0
    assert lattice.max_abs(M - oracles.dagger(M)) == 0.0


def test_default_pure_gauge_field_varies_along_two_axes():
    # the seeded group field of the default pure-gauge ladder varies only
    # along axes 2 and 4, and is stored that way on every rung
    cfg = config.ScenarioConfig()
    for n in cfg.pure_gauge_grids:
        grid = lattice.Grid4.cubic(n, cfg.box_length)
        U = checks.smooth_group_field(grid, np.random.default_rng(cfg.seed + 1), cfg.smooth_amp)
        assert U.shape == (1, n, 1, n, 4)


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
    # With every field kept only along the axes its waves vary (the default
    # recipe has no time dependence) it reads 1.43.
    peak = traced_peak(checks.divergence_accounting_order, config.ScenarioConfig(divergence_grids=(12, 16)))
    assert peak <= 21.1424, peak


def test_divergence_study_keeps_no_time_axis():
    # A structural bound: the default recipe is static, so dropping the time
    # axis divides every field by 16 on the 16^4 rung, and the peak by about
    # that. A field stored densely along time again breaks the bound.
    peak = traced_peak(checks.divergence_accounting_order, config.ScenarioConfig(divergence_grids=(12, 16)))
    assert peak <= 21.1424 / 8, peak


def test_covariance_study_peak_memory_is_bounded():
    # The bound is the peak with the fields stored as 2x2 complex matrices,
    # 100.0277 fields (104,886,680 bytes). As real u(2) coefficients it
    # reads 46.52: a potential is 8 fields instead of 16, the group field
    # 2 instead of 4. Built one (mu, nu) component at a time, F[A] and
    # F[A'] are 2 fields each instead of 12: it reads 30.21. With the group
    # field kept only along the axes its angles vary (1, 2 and 4 at this
    # seed; the potential stays dense) it reads 24.27.
    peak = traced_peak(checks.covariance_order, config.ScenarioConfig(covariance_grids=(12, 16)))
    assert peak <= 100.0278, peak


def test_pure_gauge_study_peak_memory_is_bounded():
    # The bound is the peak with the fields stored as 2x2 complex matrices,
    # 60.0160 fields (62,931,296 bytes); as real u(2) coefficients it
    # reads 26.20, and 14.20 with F built one (mu, nu) component at a time.
    # With the group field, the potential and F kept only along axes 2 and
    # 4, where the seeded angles vary, it reads 0.09.
    peak = traced_peak(checks.pure_gauge_order, config.ScenarioConfig(pure_gauge_grids=(12, 16)))
    assert peak <= 60.0160, peak


def test_pure_gauge_study_keeps_only_the_axes_its_group_field_varies():
    # A structural bound: the default group field varies along two axes, and
    # one dropped axis already divides every field of the study by 16 on the
    # 16^4 rung. The dense study read 14.1994 fields; a potential or field
    # strength sized by the grid again breaks the bound.
    peak = traced_peak(checks.pure_gauge_order, config.ScenarioConfig(pure_gauge_grids=(12, 16)))
    assert peak <= 14.1994 / 16, peak


def test_raw_field_strength_study_peak_memory_is_bounded():
    # The bound is the peak with both routes built as six-component tensors,
    # 28.3906 fields (29,769,744 bytes): the phase field's values, profile
    # and gradients hold 14 of them, the two tensors 12. Built one (mu, nu)
    # component at a time it reads 17.39, and 1.24 without the time axis
    # the default recipe does not vary along.
    peak = traced_peak(checks.raw_field_strength_order, config.ScenarioConfig(raw_order_grids=(8, 16)))
    assert peak <= 28.3906, peak


def test_refine_gives_no_order_when_an_error_is_not_positive_and_finite():
    cfg = config.ScenarioConfig()
    for bad in (0.0, 5e-309, math.inf, math.nan):  # 5e-309 is subnormal
        est = checks._refine(cfg, (4, 6, 8), lambda grid, bad=bad: bad if grid.dims[0] == 8 else 1.0)
        assert est.order is None
        assert est.spacings == tuple(lattice.Grid4.cubic(n, cfg.box_length).h for n in (4, 6, 8))
        assert est.errors[:2] == (1.0, 1.0) and est.errors[2] is bad
    assert checks._refine(cfg, (4, 8), lambda grid: grid.h**2).order == pytest.approx(2.0)
    with pytest.raises(ValueError):  # the fit itself stays strict
        lattice.fit_order((0.5, 0.25), (1.0, 0.0))


def test_closed_form_row_fails_on_a_nan_in_any_position(monkeypatch):
    # max(0.0, nan) is 0.0: the row must not judge the largest of its norms
    norms = iter([0.0, math.nan] + [0.0] * 7)  # dev, rest, six pairs, identity
    monkeypatch.setattr(su2_algebra, "max_norm", lambda x: next(norms))
    run = checks.Run("verify", config.ScenarioConfig(grid_n=8))
    checks.pure_gauge_closed_form(run)
    closed, ident = run.report.checks
    assert closed.name == "pure_gauge_closed_form" and closed.status == "FAIL"
    assert ident.status == "PASS"


@pytest.mark.parametrize("k", range(6))
def test_closed_form_row_fails_on_a_nan_in_any_pair(monkeypatch, k):
    norms = [0.0] * 9  # dev, rest, six pairs, identity
    norms[2 + k] = math.nan
    monkeypatch.setattr(su2_algebra, "max_norm", lambda x, it=iter(norms): next(it))
    run = checks.Run("verify", config.ScenarioConfig(grid_n=8))
    checks.pure_gauge_closed_form(run)
    closed, ident = run.report.checks
    assert closed.status == "FAIL" and math.isnan(closed.details["field_strength_max"])
    assert ident.status == "PASS"


def poison(monkeypatch, name, hit, plane=None):
    """Make ansatz_field.<name> put one nan at the origin of its result, in
    coefficient `plane` of a matrix field, on the calls where hit(*args)."""
    real = getattr(ansatz_field, name)

    def poisoned(*args):
        out = real(*args)
        if hit(*args):
            out[(0,) * 4 + (() if plane is None else (plane,))] = math.nan
        return out
    monkeypatch.setattr(ansatz_field, name, poisoned)


@pytest.mark.parametrize("plane", range(4))
@pytest.mark.parametrize("pair", ansatz_field.PAIRS)
def test_a_nan_in_one_coefficient_of_one_pair_fails_the_matrix_studies(monkeypatch, pair, plane):
    # on the finer rung only, in one (mu, nu) component and one coefficient
    poison(monkeypatch, "field_strength_matrix",
           lambda grid, A, g, mu, nu: (mu, nu) == pair and grid.dims[0] == 6, plane)
    cfg = config.ScenarioConfig(covariance_grids=(4, 6), pure_gauge_grids=(4, 6))
    for window, row in ((checks.covariance_order_window, "gauge_covariance_order"),
                        (checks.pure_gauge_order_window, "pure_gauge_order")):
        run = checks.Run("verify", cfg)
        window(run)
        (result,) = run.report.checks
        assert result.name == row and result.status == "FAIL"
        assert result.details["order"] is None
        assert math.isfinite(result.details["errors"][0]) and math.isnan(result.details["errors"][1])
        assert '"order": null' in run.report.to_json()


@pytest.mark.parametrize("pair", ansatz_field.PAIRS)
def test_a_nan_in_one_pair_reaches_the_field_strength_rows(monkeypatch, pair):
    # the raw route on the finer rung of the raw study
    cfg = config.ScenarioConfig(grid_n=8, raw_order_grids=(4, 6))
    poison(monkeypatch, "field_strength_direct",
           lambda lam, mu, nu, mode=ansatz_field.ANALYTIC:
               (mu, nu) == pair and mode == ansatz_field.RAW and lam.grid.dims[0] == 6)
    est = checks.raw_field_strength_order(cfg)
    assert est.order is None and math.isfinite(est.errors[0]) and math.isnan(est.errors[1])
    # the analytic route on the working grid, which the identity row reads
    monkeypatch.undo()
    poison(monkeypatch, "field_strength_direct",
           lambda lam, mu, nu, mode=ansatz_field.ANALYTIC:
               (mu, nu) == pair and mode == ansatz_field.ANALYTIC and lam.grid.dims[0] == 8)
    run = checks.Run("verify", cfg)
    checks.field_strength_routes(run)
    ident, raw = run.report.checks
    assert ident.status == "FAIL" and math.isnan(ident.details["max_error"])
    assert raw.details["order"] is not None


def test_anomalous_current_identity_does_not_depend_on_the_stored_shape():
    # numpy elides temporaries of 256 KiB and more by writing into them, which
    # swaps the operands of a product; a complex product is not bitwise
    # commutative. On 16^4 the dense copy's components are 1 MiB, the
    # compact field's 64 KiB: the two must give the same bits.
    gaps = []
    for dense in (False, True):
        run = checks.Run("verify", config.ScenarioConfig(grid_n=16))
        if dense:
            lam = run.phase
            run.phase = ansatz_field.LambdaField(
                run.grid, np.broadcast_to(lam.values, (4,) + run.grid.dims).copy())
        checks.anomalous_current_identity(run)
        (row,) = run.report.checks
        gaps.append(row.details["max_gap"])
    assert gaps[0] == gaps[1], gaps


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
