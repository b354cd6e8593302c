"""Scenario builders and the cross-route study helpers."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from su2reduce import ansatz_field, checks, cli, config, lattice, su2_algebra

import oracles


def test_phase_field_scale_is_linear():
    cfg = config.ScenarioConfig()
    grid = lattice.Grid4.cubic(6)
    lam1 = checks.phase_field(cfg, grid)
    lam2 = checks.phase_field(cfg, grid, scale=2.0)
    assert all(np.array_equal(a, 2.0 * b) for a, b in zip(lam2.values, lam1.values))


def drawn(seed, count, amp=0.5):
    """The first `count` smooth-scalar recipes the generator seeded with `seed` gives."""
    rng = np.random.default_rng(seed)
    return [checks.smooth_waves(rng, amp) for _ in range(count)]


def replayed_scalars(grid, seed, count, amp=0.5):
    """The same scalars, drawn and summed by the reference loop."""
    rng = np.random.default_rng(seed)
    return [oracles.smooth_scalar(grid, rng, amp) for _ in range(count)]


def test_smooth_scalar_is_seeded_and_bounded():
    grid = lattice.Grid4.cubic(6)
    a = ansatz_field.wave_sum(grid, checks.smooth_waves(np.random.default_rng(42), 0.5))
    b = ansatz_field.wave_sum(grid, checks.smooth_waves(np.random.default_rng(42), 0.5))
    assert np.array_equal(a, b)
    # kept only along the axes its two waves use; every kept axis varies
    assert a.shape == (6, 1, 1, 6)
    for d in (0, 3):
        assert np.ptp(a, axis=d).max() > 0.0
    assert np.max(np.abs(a)) <= 1.0


@pytest.mark.parametrize("n", [12, 16, 20, 24, 28])
def test_wave_sum_of_each_drawn_recipe_is_the_reference_scalar(n):
    # 64 seeds x 15 draws per grid: the recipe drawn as Modes and summed by
    # ansatz_field.wave_sum is the reference loop's scalar bit for bit, shape included
    grid = lattice.Grid4.cubic(n, 2.0 * math.pi)
    for seed in range(64):
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(15):
            got = ansatz_field.wave_sum(grid, checks.smooth_waves(mine, 0.5))
            want = oracles.smooth_scalar(grid, ref, 0.5)
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("ladder", [(8, 12), (8, 12, 16)])
def test_each_matrix_study_draws_its_recipe_once(monkeypatch, ladder):
    # 15 recipes (A's twelve, then U's three) and 3 (the pure gauge's U),
    # however many rungs the ladder has
    draws, real = [], checks.smooth_waves

    def counted(rng, amp):
        draws.append(amp)
        return real(rng, amp)
    monkeypatch.setattr(checks, "smooth_waves", counted)
    cfg = config.ScenarioConfig(covariance_grids=ladder, pure_gauge_grids=ladder)
    assert len(checks.covariance_order(cfg).errors) == len(ladder)
    assert len(draws) == 15
    draws.clear()
    assert len(checks.pure_gauge_order(cfg).errors) == len(ladder)
    assert len(draws) == 3


def test_smooth_group_field_is_unitary():
    grid = lattice.Grid4.cubic(6)
    for seed, shape in ((3, (6, 6, 6, 6)), (0, (1, 1, 6, 6))):
        U = checks.smooth_group_field(grid, drawn(seed, 3))
        # kept along the union of its three angles' axes
        rho = replayed_scalars(grid, seed, 3)
        assert U.shape == np.broadcast_shapes(*(x.shape for x in rho)) + (4,) == shape + (4,)
        dense = np.stack([np.broadcast_to(x, grid.dims) for x in rho], axis=-1)
        assert np.array_equal(np.broadcast_to(U, grid.dims + (4,)), su2_algebra.su2_exp(dense))
        assert lattice.max_abs(np.sum(U**2, axis=-1) - 1.0) < 1e-15
        assert su2_algebra.unitarity_defect(su2_algebra.group_matrices(U)) < 1e-13


def test_smooth_matrix_potential_is_traceless_hermitian():
    grid = lattice.Grid4.cubic(6)
    A = checks.smooth_matrix_potential(grid, drawn(4, 12))
    # four components, A_mu on the union of its own three scalars' axes,
    # coefficient a of A_mu from scalar 3 (mu - 1) + a - 1
    scalars = replayed_scalars(grid, 4, 12)
    assert len(A) == 4
    for mu, a in enumerate(A):
        own = scalars[3 * mu:3 * mu + 3]
        assert a.shape == np.broadcast_shapes(*(x.shape for x in own)) + (4,)
        for i, x in enumerate(own):
            assert np.array_equal(a[..., i + 1], np.broadcast_to(x, a.shape[:-1]))
        assert np.all(a[..., 0] == 0.0)
        M = oracles.algebra_matrices(a)
        assert lattice.max_abs(M[..., 0, 0] + M[..., 1, 1]) == 0.0
        assert lattice.max_abs(M - oracles.dagger(M)) == 0.0


def test_default_pure_gauge_field_varies_along_two_axes():
    # the seeded group field of the default pure-gauge ladder varies only
    # along axes 2 and 4, and is stored that way on every rung
    cfg = config.ScenarioConfig()
    for n in cfg.pure_gauge_grids:
        grid = lattice.Grid4.cubic(n, cfg.box_length)
        U = checks.smooth_group_field(grid, drawn(cfg.seed + 1, 3, cfg.smooth_amp))
        assert U.shape == (1, n, 1, n, 4)


def test_default_covariance_fields_keep_each_component_on_its_own_axes():
    # at the default seed A_1 varies along axes 1 and 3, A_2..A_4 and U along
    # 1, 2 and 4; A'_mu covers U's axes and A_mu's, so only A'_1 is dense
    cfg, n = config.ScenarioConfig(), 24
    grid = lattice.Grid4.cubic(n, cfg.box_length)
    waves = drawn(cfg.seed, 15, cfg.smooth_amp)
    A = checks.smooth_matrix_potential(grid, waves[:12])
    U = checks.smooth_group_field(grid, waves[12:])
    assert [a.shape for a in A] == [(n, 1, n, 1, 4)] + [(n, n, 1, n, 4)] * 3
    assert U.shape == (n, n, 1, n, 4)
    Ap = su2_algebra.gauge_transform(grid, A, U, cfg.coupling)
    assert [a.shape for a in Ap] == [(n, n, n, n, 4)] + [(n, n, 1, n, 4)] * 3


@pytest.mark.parametrize("seed", [0, 6, 17, 2024])
def test_covariance_study_is_unchanged_by_dense_potentials(monkeypatch, seed):
    cfg = config.ScenarioConfig(seed=seed, covariance_grids=(12, 16))
    compact = checks.covariance_order(cfg)
    real = checks.smooth_matrix_potential
    monkeypatch.setattr(checks, "smooth_matrix_potential", lambda grid, waves: tuple(
        np.broadcast_to(a, grid.dims + (4,)).copy() for a in real(grid, waves)))
    assert checks.covariance_order(cfg).errors == compact.errors


def test_divergence_expansion_gap_closes_quadratically():
    cfg = config.ScenarioConfig()
    gaps = []
    for n in (12, 24):
        grid = lattice.Grid4.cubic(n, cfg.box_length)
        lam = checks.phase_field(cfg, grid, scale=cfg.anomaly_amplitude)
        div = oracles.divergence(grid, (ansatz_field.anomalous_current(lam, cfg.coupling, nu)
                                        for nu in range(1, 5)))
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


def test_vacuum_scan_keeps_each_component_on_its_own_axes():
    # A structural bound: the gradient base spans all four axes, but each of
    # its components only two or three. Stored along the union of its waves'
    # axes, the scan read 28.1492 fields (29,516,624 bytes); with each
    # component on its own axes and each current dropped before the next is
    # built it reads 6.75, and 7.20 before the currents were built one
    # component per call, which reads 4.20. Components stored densely, or a
    # current built whole again, break the bound.
    cfg = config.ScenarioConfig()
    base = checks.gradient_base_field(cfg, cfg.grid())
    peak = traced_peak(lambda c: ansatz_field.vacuum_report(base, c.scaling_amplitudes, c.coupling), cfg)
    assert peak <= 7.20 * 2 / 3, peak


def test_divergence_scaling_builds_the_current_one_component_at_a_time():
    # On the gradient base, whose currents fill 16^4, the check read 10.80
    # fields with each current built whole (4 fields) before its divergence
    # was taken; with each component built as the stencil reads it, 4.80.
    cfg = config.ScenarioConfig()
    peak = traced_peak(lambda c: checks.quadratic_divergence_scaling(checks.Run("anomaly", c)), cfg)
    assert peak <= 10.80 / 2, peak


def test_divergence_scaling_takes_the_divergence_one_slab_at_a_time():
    # Each of the gradient base's 16^4 divergences built whole, from one
    # current component at a time, read 4.80 fields; taken on four slabs of
    # four planes, with the next slab's j_d built ahead, 2.19, and with each
    # slab's divergence from that slab and its two halo planes alone, 1.83. A
    # divergence held whole again breaks the bound.
    cfg = config.ScenarioConfig()
    peak = traced_peak(lambda c: checks.quadratic_divergence_scaling(checks.Run("anomaly", c)), cfg)
    assert peak <= 2.4, peak


def test_divergence_ladder_takes_the_divergence_and_its_expansion_one_slab_at_a_time():
    # The default 12/24/36 ladder read 3.02 fields with the 36^4 rung's
    # divergence and expansion taken whole; on three slabs of twelve planes,
    # 1.41 with the next slab's j_d built ahead, 1.14 without. A rung taken
    # whole again breaks the bound.
    peak = traced_peak(checks.divergence_accounting_order, config.ScenarioConfig())
    assert peak <= 1.6, peak


def test_vacuum_scan_takes_each_current_one_slab_at_a_time():
    # On the gradient base each current component built whole on 16^4 read
    # 4.20 fields; built on one slab of four planes at a time, 1.96. A
    # component built whole again breaks the bound.
    cfg = config.ScenarioConfig()
    base = checks.gradient_base_field(cfg, cfg.grid())
    peak = traced_peak(lambda c: ansatz_field.vacuum_report(base, c.scaling_amplitudes, c.coupling), cfg)
    assert peak <= 2.1, peak


def test_npz_writer_holds_no_copy_of_the_field(tmp_path):
    # The anomalous current of the default recipe as the CLI writes it:
    # compact (16, 16, 16, 1, 4), 1 field when repeated to the grid. Written
    # through np.savez it read 8.01 fields (a buffered copy of the repeated
    # field and its bytes); one slab of axis 1 at a time, 0.26.
    cfg = config.ScenarioConfig()
    rng = np.random.default_rng(12)
    j = rng.standard_normal((16, 16, 16, 1, 4)) + 1j * rng.standard_normal((16, 16, 16, 1, 4))
    peak = traced_peak(lambda c: lattice.save_field_npz(tmp_path / "j.npz", c.grid(), j), cfg)
    assert peak <= 1.0, peak


def test_csv_writer_formats_one_slab_at_a_time(tmp_path):
    # The default anomaly divergence, compact (16, 16, 16, 1): with every
    # stored row formatted and held as one object array before the first
    # write, the writer read 0.86 fields; one slab of axis 1 at a time, 0.32.
    cfg = config.ScenarioConfig()
    div = checks.Run("anomaly", cfg).anomaly_fields[1]
    peak = traced_peak(lambda c: lattice.save_field_csv(tmp_path / "div.csv", c.grid(), div), cfg)
    assert peak <= 0.6, peak


def test_covariance_study_peak_memory_is_bounded():
    # The bound is the peak with the fields stored as 2x2 complex matrices,
    # 100.0277 fields (104,886,680 bytes). As real u(2) coefficients it
    # reads 46.52: a potential is 8 fields instead of 16, the group field
    # 2 instead of 4. Built one (mu, nu) component at a time, F[A] and
    # F[A'] are 2 fields each instead of 12: it reads 30.21. With the group
    # field kept only along the axes its angles vary (1, 2 and 4 at this
    # seed; the potential stays dense) it reads 24.27. With U's rotation
    # matrix built once per rung and each gap F[A'] - R F[A] formed in place
    # it reads 22.99. At seed 0, whose group field spans all four axes, it
    # reads 30.20 both before and after that change. With each potential
    # component kept along its own scalars' axes it reads 9.76 (22.60 at
    # seed 0).
    peak = traced_peak(checks.covariance_order, config.ScenarioConfig(covariance_grids=(12, 16)))
    assert peak <= 100.0278, peak


def test_covariance_potential_keeps_each_component_on_its_own_axes():
    # A structural bound: at the default seed A_1 varies along two axes and
    # A_2..A_4 and U along three. Stored as one potential on the union of
    # all twelve scalars' axes, every field of the study was dense and it
    # read 22.9952 fields (24,112,206 bytes); with each component on its own
    # axes only A'_1 is dense and it reads 9.76 (3.21 since the 16^4 rung is
    # split). A potential stored on the union again breaks the bound.
    peak = traced_peak(checks.covariance_order, config.ScenarioConfig(covariance_grids=(12, 16)))
    assert peak <= 22.9952 / 2, peak


def test_covariance_study_takes_a_large_dense_gap_one_plane_at_a_time():
    # A structural bound: at the default seed A'_1 is dense, so the three
    # (1, nu) gaps on the 21^4 rung span all four axes and their planes hold
    # 21^3 points, above the 2^12 at which a gap is split. Each gap formed
    # whole read 27.94 fields; one plane at a time it reads 9.83. A dense
    # gap taken whole again breaks the bound.
    peak = traced_peak(checks.covariance_order, config.ScenarioConfig(covariance_grids=(8, 21)))
    assert peak <= 27.94 / 2, peak


def test_covariance_study_forms_a_grid_filling_a_prime_one_plane_at_a_time():
    # A structural bound: on the 21^4 rung A'_1 fills the grid. Formed whole
    # once per rung it read 9.83 fields; formed by each (1, nu) gap on each
    # plane, from U's rotation R and pure gauge P, it reads 4.64. An A'_1
    # held whole again breaks the bound.
    peak = traced_peak(checks.covariance_order, config.ScenarioConfig(covariance_grids=(8, 21)))
    assert peak <= 6.5, peak


def test_covariance_study_holds_only_the_pure_gauge_components_a_plane_reads():
    # A structural bound: on the 21^4 rung only A'_1 is formed on each plane,
    # so only P_1 of U's pure gauge is read after the rung's other A'_mu are
    # formed. With P built and held as one (4, *s, 4) array the study read
    # 4.64 fields (4.99 with the stencils each split gap takes once); holding
    # P_1 alone, it reads 4.14. A P held whole again breaks the bound.
    peak = traced_peak(checks.covariance_order, config.ScenarioConfig(covariance_grids=(8, 21)))
    assert peak <= 4.4, peak


def test_covariance_study_takes_the_16_rung_one_plane_at_a_time():
    # A structural bound: at the default seed A'_1 fills the 16^4 rung, whose
    # (1, nu) gaps hold planes of 16^3 = 2^12 points. Taken whole, they set
    # the study's peak at 9.62 fields; one plane at a time, the 12^4 rung
    # sets it at 3.21 and the 16^4 rung reads 1.86. A 16^4 gap taken whole
    # again breaks the bound.
    peak = traced_peak(checks.covariance_order, config.ScenarioConfig(covariance_grids=(12, 16)))
    assert peak <= 9.62 / 2, peak


def test_covariance_study_at_a_dense_seed_copies_no_pure_gauge():
    # At seed 0 U, and so every A'_mu, fills the grid: all six gaps of the
    # 16^4 rung are split and every plane reads all four P_mu. With P built
    # as one (4, *s, 4) array the study read 21.46 fields; built one
    # component per call it reads 17.90, and a copy of P (8 fields on this
    # rung) breaks the bound.
    peak = traced_peak(checks.covariance_order, config.ScenarioConfig(seed=0, covariance_grids=(8, 16)))
    assert peak <= 21.47, peak


def test_covariance_study_forms_each_plane_in_place_and_each_unsplit_a_prime_per_gap():
    # A structural bound: on the default ladder the 24^4 rung sets the study's
    # peak. With A'_2..A'_4, which miss an axis, held whole for the rung and each
    # plane's R F[A], F and commutator formed as new arrays it read 6.16 fields;
    # with each such A' formed by the gaps that read it and each plane formed in
    # its own stencil's buffer, 5.49. Those A' held for the rung again (6.34) or
    # F formed in a new array (5.86) break the bound; a whole R F[A] subtracted
    # again reads 5.75, under it.
    peak = traced_peak(checks.covariance_order, config.ScenarioConfig())
    assert peak <= 5.8, peak


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


def test_no_order_fit_reaches_lapack(monkeypatch, tmp_path):
    # np.polyfit's least-squares solve held about 1 MB of OpenBLAS workspace in
    # every verify and anomaly process; the closed-form fit reaches neither it
    # nor lstsq.
    def refuse(*args, **kwargs):
        raise AssertionError("an order fit reached LAPACK")
    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert cli.main(["anomaly", "--grid", "4", "--out", str(tmp_path)]) == 0
    cfg = config.ScenarioConfig()
    base = checks.gradient_base_field(cfg, cfg.grid())
    slopes = ansatz_field.vacuum_report(base, cfg.scaling_amplitudes, cfg.coupling)[:2]
    assert all(isinstance(s, float) for s in slopes), slopes


def test_closed_form_row_fails_on_a_nan_in_any_position(monkeypatch):
    # max(0.0, nan) is 0.0: the row must not judge the largest of its norms
    norms = iter([0.0, math.nan] + [0.0] * 10)  # dev, rest, six pairs, four identity components
    monkeypatch.setattr(su2_algebra, "max_norm", lambda x: next(norms))
    run = checks.Run("verify", config.ScenarioConfig(grid_n=8))
    checks.pure_gauge_closed_form(run)
    closed, ident = run.report.checks
    assert closed.name == "pure_gauge_closed_form" and closed.status == "FAIL"
    assert ident.status == "PASS"


@pytest.mark.parametrize("k", range(6))
def test_closed_form_row_fails_on_a_nan_in_any_pair(monkeypatch, k):
    norms = [0.0] * 12  # dev, rest, six pairs, four identity components
    norms[2 + k] = math.nan
    monkeypatch.setattr(su2_algebra, "max_norm", lambda x, it=iter(norms): next(it))
    run = checks.Run("verify", config.ScenarioConfig(grid_n=8))
    checks.pure_gauge_closed_form(run)
    closed, ident = run.report.checks
    assert closed.status == "FAIL" and math.isnan(closed.details["field_strength_max"])
    assert ident.status == "PASS"


@pytest.mark.parametrize("k", range(4))
def test_identity_row_reports_a_nan_in_any_component(monkeypatch, k):
    # the identity transform returns four components; a nan in any of them,
    # also past the first, must reach max_deviation
    real = su2_algebra.gauge_transform

    def poisoned(*args):
        out = real(*args)
        out[k][(0,) * 5] = math.nan
        return out
    monkeypatch.setattr(su2_algebra, "gauge_transform", poisoned)
    run = checks.Run("verify", config.ScenarioConfig(grid_n=8))
    checks.pure_gauge_closed_form(run)
    closed, ident = run.report.checks
    assert closed.status == "PASS"
    assert ident.name == "gauge_transform_identity" and ident.status == "FAIL"
    assert math.isnan(ident.details["max_deviation"])


@pytest.mark.parametrize("k", range(4))
def test_gauge_fixed_row_reports_a_nan_in_any_component(monkeypatch, k):
    # Python's max(0.0, nan) is 0.0: the row failed but reported no violation,
    # and the residual's warning read 0.000e+00
    per = [0.0] * 4
    per[k] = math.nan
    monkeypatch.setattr(ansatz_field, "gauge_condition_check",
                        lambda lam: tuple(per))
    run = checks.Run("verify", config.ScenarioConfig(grid_n=8))
    with pytest.warns(UserWarning, match=r"\| = nan\)"):
        checks.residual_routes(run)
    row = run.report.checks[-1]
    assert row.name == "residual_gauge_fixed_equivalence" and row.status == "FAIL"
    assert math.isnan(row.details["gauge_violation"])


@pytest.mark.parametrize("field, k", [("coefficients", k) for k in range(4)]
                         + [("eigenvalues", k) for k in range(2)])
def test_reduced_operator_rows_report_a_nan_in_any_position(field, k):
    run = checks.Run("reduce", config.ScenarioConfig())
    checks.pipeline_stages(run)
    operator = dict(zip(("coefficients", "eigenvalues"), run.operator))
    operator[field] = list(operator[field])
    operator[field][k] = math.nan
    run.operator = operator["coefficients"], operator["eigenvalues"]
    del run.report.checks[:]
    checks.reduced_operator(run)
    modulus, spectrum = run.report.checks
    hit, clean = (modulus, spectrum) if field == "coefficients" else (spectrum, modulus)
    assert hit.status == "FAIL" and math.isnan(hit.details["max_deviation"])
    assert clean.status == "PASS" and math.isfinite(clean.details["max_deviation"])


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
           lambda grid, A, g, mu, nu, *stencils: (mu, nu) == pair and grid.dims[0] == 6, plane)
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


def test_a_nan_in_the_last_plane_of_a_dense_gap_fails_the_covariance_row(monkeypatch):
    # At the default seed the (1, 2) gap on the 21^4 rung is taken over 21
    # planes along axis 3, two field strengths each (F[A'] first). Only the
    # last call, F[A] on the last plane, gets the nan; Python's max over
    # the planes' norms would drop it.
    calls = iter(range(2 * 21))
    poison(monkeypatch, "field_strength_matrix",
           lambda grid, A, g, mu, nu, *stencils:
           (mu, nu) == (1, 2) and grid.dims[0] == 21 and next(calls) == 2 * 21 - 1)
    run = checks.Run("verify", config.ScenarioConfig(covariance_grids=(8, 21)))
    checks.covariance_order_window(run)
    assert next(calls, None) is None  # every plane of the pair was called
    (row,) = run.report.checks
    assert row.name == "gauge_covariance_order" and row.status == "FAIL"
    assert row.details["order"] is None
    assert math.isfinite(row.details["errors"][0]) and math.isnan(row.details["errors"][1])
    assert '"order": null' in run.report.to_json()


def test_a_nan_in_the_last_plane_of_a_grid_filling_a_prime_fails_the_covariance_row(monkeypatch):
    # At the default seed A'_1 fills the 21^4 rung, so its (1, 2) gap forms it
    # on each of 21 planes along axis 3, where A_1 = (21, 1, 21, 1) is cut to
    # (21, 1, 1, 1); no other call sees that shape. Only the last plane's A'_1
    # gets the nan; Python's max over the planes' norms would drop it.
    calls, real = iter(range(21)), su2_algebra.transform_component

    def poisoned(R, X, P):
        out = real(R, X, P)
        if X.shape == (21, 1, 1, 1, 4) and next(calls) == 20:
            out[(0,) * 5] = math.nan
        return out
    monkeypatch.setattr(su2_algebra, "transform_component", poisoned)
    run = checks.Run("verify", config.ScenarioConfig(covariance_grids=(8, 21)))
    checks.covariance_order_window(run)
    assert next(calls, None) is None  # every plane of the pair was formed
    (row,) = run.report.checks
    assert row.name == "gauge_covariance_order" and row.status == "FAIL"
    assert row.details["order"] is None
    assert math.isfinite(row.details["errors"][0]) and math.isnan(row.details["errors"][1])
    assert '"order": null' in run.report.to_json()


@pytest.mark.parametrize("pair", ansatz_field.PAIRS)
def test_a_nan_in_one_pair_reaches_the_field_strength_rows(monkeypatch, pair):
    # the raw route on the finer rung of the raw study
    cfg = config.ScenarioConfig(grid_n=8, raw_order_grids=(4, 6))
    poison(monkeypatch, "field_strength_raw",
           lambda lam, mu, nu: (mu, nu) == pair and lam.grid.dims[0] == 6)
    est = checks.raw_field_strength_order(cfg)
    assert est.order is None and math.isfinite(est.errors[0]) and math.isnan(est.errors[1])
    # the analytic route on the working grid, which the identity row reads
    monkeypatch.undo()
    poison(monkeypatch, "field_strength_direct",
           lambda lam, mu, nu: (mu, nu) == pair and lam.grid.dims[0] == 8)
    run = checks.Run("verify", cfg)
    checks.field_strength_routes(run)
    ident, raw = run.report.checks
    assert ident.status == "FAIL" and math.isnan(ident.details["max_error"])
    assert raw.details["order"] is not None


def test_a_symmetric_field_strength_fails_the_identity_row(monkeypatch):
    # F_nu_mu returned as +F_mu_nu: the identity over PAIRS still holds, only
    # the antisymmetry defect sees the mirrored components
    real = ansatz_field.field_strength_ansatz
    monkeypatch.setattr(ansatz_field, "field_strength_ansatz",
                        lambda lam, mu, nu: real(lam, min(mu, nu), max(mu, nu)))
    run = checks.Run("verify", config.ScenarioConfig(grid_n=8, raw_order_grids=(4, 6)))
    checks.field_strength_routes(run)
    ident = run.report.checks[0]
    assert ident.name == "field_strength_identity" and ident.status == "FAIL"
    assert ident.details["max_error"] == 0.0
    assert ident.details["antisymmetry_defect"] > ident.details["tolerance"]


def test_anomalous_current_identity_does_not_depend_on_the_stored_shape():
    # numpy elides temporaries of 256 KiB and more by writing into them, which
    # swaps the operands of a product; a complex product is not bitwise
    # commutative. On 16^4 the dense copy's components are 1 MiB, the
    # compact components at most 64 KiB: the two must give the same bits, in
    # this row and in the other rows that read the working-grid phase field.
    cfg = config.ScenarioConfig(grid_n=16)
    grid = cfg.grid()
    multi_axis = ansatz_field.LambdaField.from_waves(grid, [
        [((1, 0, 2, 0), 0.6, 0.2)], [((0, 1, 1, -1), 0.4, 0.0)], [], [((2, 1, 0, 1), 0.5, 1.0)]])
    for lam in (checks.phase_field(cfg, grid), checks.gradient_base_field(cfg, grid), multi_axis):
        rows = []
        for phase in (lam, ansatz_field.LambdaField(
                grid, [np.broadcast_to(v, grid.dims).copy() for v in lam.values])):
            run = checks.Run("verify", cfg)
            run.phase = phase
            with warnings.catch_warnings():
                # two of the fields break the gauge condition
                warnings.filterwarnings("ignore", "componentwise gauge condition violated", UserWarning)
                for check in (checks.anomalous_current_identity, checks.lagrangian_identity,
                              checks.residual_routes):
                    check(run)
            rows.append([(row.name, row.status, row.details) for row in run.report.checks])
        assert rows[0] == rows[1], rows


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
        grid = lattice.Grid4.cubic(n, cfg.box_length)
        waves = drawn(seed, 15, cfg.smooth_amp)
        A = checks.smooth_matrix_potential(grid, waves[:12])
        A = oracles.algebra_matrices(oracles.stacked(A))
        U = oracles.group_matrices(checks.smooth_group_field(grid, waves[12:]))
        cov.append(oracles.covariance_gap(grid, A, U, g))
        U = checks.smooth_group_field(grid, drawn(seed + 1, 3, cfg.smooth_amp))
        pure.append(oracles.pure_gauge_gap(grid, oracles.group_matrices(U), g))
    for est, want in ((checks.covariance_order(cfg), cov), (checks.pure_gauge_order(cfg), pure)):
        assert np.allclose(est.errors, want, rtol=1e-12, atol=0.0), (est.errors, want)
        assert abs(est.order - lattice.fit_order(est.spacings, want)) <= 1e-12 * abs(est.order)


@pytest.mark.parametrize("seed", [config.ScenarioConfig().seed, 0])
def test_a_split_covariance_rung_matches_the_oracle_route(seed):
    # The (8, 12) ladders run every gap whole. On the 16^4 rung a gap whose
    # planes hold 16^3 = 2^12 points is split: the three (1, nu) gaps at the
    # default seed, where A'_1 is formed on each plane and the (1, 2) gap
    # takes the stencils of A'_2 and A_2 once, and all six at seed 0, where
    # every A'_mu is formed on each plane.
    cfg = config.ScenarioConfig(seed=seed, covariance_grids=(8, 16))
    waves, want = drawn(seed, 15, cfg.smooth_amp), []
    for n in cfg.covariance_grids:
        grid = lattice.Grid4.cubic(n, cfg.box_length)
        A = oracles.algebra_matrices(oracles.stacked(checks.smooth_matrix_potential(grid, waves[:12])))
        U = oracles.group_matrices(checks.smooth_group_field(grid, waves[12:]))
        want.append(oracles.covariance_gap(grid, A, U, cfg.coupling))
    est = checks.covariance_order(cfg)
    assert np.allclose(est.errors, want, rtol=1e-12, atol=0.0), (est.errors, want)
    assert abs(est.order - lattice.fit_order(est.spacings, want)) <= 1e-12 * abs(est.order)


# (covariance, pure gauge) rung errors of the (8, 12) ladders, frozen from the
# tree that rotated by U's quaternion on every call and took max-norms with
# hypot; a faster route must keep them to rounding
FROZEN_LADDER_ERRORS = {
    0: ((0.0806981883370776, 0.03974216373929106),
        (0.005640045874402245, 0.0034471399499358627)),
    6: ((0.13880098563159082, 0.06953382564319553),
        (0.002375020787952672, 0.0012367343140456644)),
    17: ((0.257699177374896, 0.1314899991145353),
         (0.0013638706413044753, 0.0008277752039962971)),
    33: ((0.13526331568688818, 0.06360784393688132),
         (0.0012092496330123926, 0.000702787474908256)),
}


@pytest.mark.parametrize("seed", sorted(FROZEN_LADDER_ERRORS))
def test_matrix_ladders_keep_their_frozen_rung_errors(seed):
    cfg = config.ScenarioConfig(seed=seed, covariance_grids=(8, 12), pure_gauge_grids=(8, 12))
    for est, want in zip((checks.covariance_order(cfg), checks.pure_gauge_order(cfg)),
                         FROZEN_LADDER_ERRORS[seed]):
        assert np.allclose(est.errors, want, rtol=1e-12, atol=0.0), (est.errors, want)
