"""Phase-field assembly, field strength, currents and the vacuum scan."""

import math
import warnings

import numpy as np
import pytest

from su2reduce import ansatz_field, checks, config, lattice, su2_algebra

import oracles


def small_grid(n=8):
    return lattice.Grid4.cubic(n)


def scenario_field(grid, scale=1.0):
    return checks.phase_field(config.ScenarioConfig(), grid, scale=scale)


def gradient_field(grid):
    return checks.gradient_base_field(config.ScenarioConfig(), grid)


def dense(F):
    """All sixteen F[mu-1, nu-1] read through the public accessor."""
    return np.stack([np.stack([F.component(m, n) for n in range(1, 5)]) for m in range(1, 5)])


def matrix_stack(grid, A, g):
    """The six matrix components over PAIRS, stacked here: the library
    builds one (mu, nu) component per call."""
    return np.stack([ansatz_field.field_strength_matrix(grid, A, g, mu, nu)
                     for mu, nu in ansatz_field.PAIRS])


def test_mode_validation():
    with pytest.raises(ValueError):
        ansatz_field.Mode(0, (0, 1, 0, 0), 1.0)
    with pytest.raises(ValueError):
        ansatz_field.Mode(5, (0, 1, 0, 0), 1.0)
    with pytest.raises(ValueError):
        ansatz_field.Mode(1, (0, 1, 0), 1.0)
    with pytest.raises(ValueError):
        ansatz_field.Mode(1, (0, 1.5, 0, 0), 1.0)
    with pytest.raises(ValueError):
        ansatz_field.Mode(1, (0, 1, 0, 0), math.inf)


def test_gradient_wave_modes_layout():
    grid = small_grid()
    modes = ansatz_field.gradient_wave_modes(grid, (1, 1, 0, 0), 0.7, phase=0.2)
    assert [m.component for m in modes] == [1, 2]
    for m in modes:
        k = 2.0 * math.pi * 1 / grid.length(m.component)
        assert m.amplitude == 0.7 * k
        assert m.phase == 0.2 + 0.5 * math.pi
        assert m.cycles == (1, 1, 0, 0)
    with pytest.raises(ValueError):
        ansatz_field.gradient_wave_modes(grid, (0, 0, 0, 0), 1.0)


def test_from_modes_matches_plain_sine_sum():
    grid = small_grid()
    rng = np.random.default_rng(3)
    recs = oracles.random_modes(rng, grid, count=4)
    modes = [ansatz_field.Mode(r.component, r.cycles, r.amplitude, r.phase) for r in recs]
    lam = ansatz_field.LambdaField.from_modes(grid, modes)
    assert np.max(np.abs(lam.values - oracles.lambda_values(grid, recs))) < 1e-15


def test_lambda_field_validation_and_scaling():
    grid = small_grid(4)
    with pytest.raises(lattice.GridMismatchError):
        ansatz_field.LambdaField(grid, np.zeros((3,) + grid.dims))
    bad = np.zeros((4,) + grid.dims)
    bad[0, 0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ansatz_field.LambdaField(grid, bad)
    lam = scenario_field(grid)
    assert np.array_equal(lam.scaled(2.0).values, 2.0 * lam.values)


def test_phase_field_is_kept_along_the_axes_its_waves_vary():
    n = 8
    grid = small_grid(n)
    Mode = ansatz_field.Mode
    assert scenario_field(grid).values.shape == (4, n, n, n, 1)  # the default recipe is static
    assert ansatz_field.LambdaField.zero(grid).shape == (1, 1, 1, 1)
    assert ansatz_field.LambdaField.from_modes(grid, []).shape == (1, 1, 1, 1)
    one_axis = ansatz_field.LambdaField.from_modes(grid, [Mode(3, (0, 0, 2, 0), 0.5)])
    assert one_axis.values.shape == (4, 1, 1, n, 1)
    timed = ansatz_field.LambdaField.from_modes(grid, [Mode(1, (0, 1, 0, 1), 0.8)])
    assert timed.values.shape == (4, 1, n, 1, n)
    waves = ((0, 1, 0, 1), 0.8, 0.0), *config.DEFAULT_PHASE_WAVES[1:]  # a time cycle on the default
    assert checks.phase_field(config.ScenarioConfig(phase_waves=waves), grid).shape == grid.dims
    assert gradient_field(grid).shape == grid.dims
    with pytest.raises(lattice.GridMismatchError):
        ansatz_field.LambdaField(grid, np.zeros((4, n, n, n, 2)))
    with pytest.raises(lattice.GridMismatchError):
        ansatz_field.LambdaField(grid, np.zeros((4, n, n, n)))


def recipe_set(rng, count):
    """Derandomised recipes of one to three waves, each with up to four
    nonzero cycles in -2..2, after the empty recipe, a time-only wave and a
    one-axis wave."""
    Mode = ansatz_field.Mode
    recipes = [[], [Mode(2, (0, 0, 0, 1), 0.7, 0.3)], [Mode(1, (0, 2, 0, 0), 0.9)]]
    for _ in range(count):
        recipes.append([
            Mode(int(rng.integers(1, 5)),
                 tuple(int(c) for c in rng.integers(-2, 3, size=4) * (rng.random(4) < 0.4)),
                 float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
            for _ in range(int(rng.integers(1, 4)))
        ])
    return recipes


def _quiet_residual(lam, g, mode):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # most recipes break the gauge condition
        return ansatz_field.field_equation_residual(lam, g, mode=mode)


# every quantity derived from a phase field, as one array
DERIVED = {
    "profile": lambda lam, g: lam.profile,
    "gradients": lambda lam, g: lam.gradients,
    "field_strength": lambda lam, g: ansatz_field.field_strength_ansatz(lam).values,
    "direct_analytic": lambda lam, g: np.stack([
        ansatz_field.field_strength_direct(lam, mu, nu, ansatz_field.ANALYTIC)
        for mu, nu in ansatz_field.PAIRS]),
    "direct_raw": lambda lam, g: np.stack([
        ansatz_field.field_strength_direct(lam, mu, nu, ansatz_field.RAW)
        for mu, nu in ansatz_field.PAIRS]),
    "lagrangian": lambda lam, g: ansatz_field.lagrangian_density(lam).values,
    "lagrangian_reference": lambda lam, g: ansatz_field.lagrangian_density(lam).from_field_strength,
    "noether_current": lambda lam, g: ansatz_field.noether_current(lam),
    "anomalous_current": lambda lam, g: ansatz_field.anomalous_current(lam, g),
    "residual_analytic": lambda lam, g: _quiet_residual(lam, g, ansatz_field.ANALYTIC),
    "residual_raw": lambda lam, g: _quiet_residual(lam, g, ansatz_field.RAW),
    "residual_full": lambda lam, g: ansatz_field.field_equation_residual_full(lam, g),
    "residual_route": lambda lam, g: checks.residual_contraction_route(lam, g),
    "expansion": lambda lam, g: checks.anomaly_divergence_expansion(lam, g),
    "closed_form": lambda lam, g: ansatz_field.anomaly_divergence_closed_form(lam, g),
    "lattice_divergence": lambda lam, g: lattice.divergence(
        lam.grid, ansatz_field.anomalous_current(lam, g)),
    "box_profile": lambda lam, g: np.stack([lattice.box(lam.grid, lam.profile[n]) for n in range(4)]),
}


@pytest.mark.parametrize("metric", [lattice.EUCLIDEAN, lattice.LORENTZIAN])
def test_compact_field_equals_its_dense_copy(metric):
    grid = lattice.Grid4((6, 5, 4, 6), 0.9, metric)
    g = 1.3
    shapes = set()
    for modes in recipe_set(np.random.default_rng(40), 20):
        lam = ansatz_field.LambdaField.from_modes(grid, modes)
        full = ansatz_field.LambdaField(grid, np.broadcast_to(lam.values, (4,) + grid.dims))
        shapes.add(lam.shape)
        for name, quantity in DERIVED.items():
            want = quantity(full, g)
            assert np.array_equal(np.broadcast_to(quantity(lam, g), want.shape), want), name
    # the set holds the zero field, a dense field, a time-only field and
    # fields that vary along one, two and three axes
    assert {(1, 1, 1, 1), grid.dims, (1, 1, 1, 6), (1, 5, 1, 1)} <= shapes
    assert {sum(s != 1 for s in shape) for shape in shapes} == {0, 1, 2, 3, 4}


def test_zero_field_gives_exact_zeros():
    grid = small_grid(4)
    lam = ansatz_field.LambdaField.zero(grid)
    assert np.array_equal(np.broadcast_to(lam.profile, (4,) + grid.dims),
                          np.ones((4,) + grid.dims, dtype=complex))
    assert ansatz_field.field_strength_ansatz(lam).max_abs() == 0.0
    assert lattice.max_abs(ansatz_field.noether_current(lam)) == 0.0
    assert lattice.max_abs(ansatz_field.anomalous_current(lam, 1.0)) == 0.0
    assert lattice.max_abs(ansatz_field.anomaly_divergence_closed_form(lam, 1.0)) == 0.0
    assert lattice.max_abs(ansatz_field.field_equation_residual_full(lam, 1.0)) == 0.0
    den = ansatz_field.lagrangian_density(lam)
    assert lattice.max_abs(den.values) == 0.0


def test_profile_is_unit_modulus_phase():
    grid = small_grid()
    lam = scenario_field(grid)
    assert lattice.max_abs(np.abs(lam.profile) - 1.0) < 1e-15
    assert lattice.max_abs(lam.profile - np.exp(-1j * lam.values)) == 0.0


def test_phase_gradients_match_dispersion_table():
    grid = small_grid()
    cfg = config.ScenarioConfig()
    lam = checks.phase_field(cfg, grid)
    recs = [
        ansatz_field.Mode(comp, cyc, amp, ph)
        for comp, (cyc, amp, ph) in zip(cfg.phase_components, cfg.phase_waves)
    ]
    assert np.max(np.abs(lam.gradients - oracles.gradient_table(grid, recs))) < 1e-13


def test_field_strength_matches_oracle():
    grid = small_grid()
    cfg = config.ScenarioConfig()
    lam = checks.phase_field(cfg, grid)
    recs = [
        ansatz_field.Mode(comp, cyc, amp, ph)
        for comp, (cyc, amp, ph) in zip(cfg.phase_components, cfg.phase_waves)
    ]
    F = ansatz_field.field_strength_ansatz(lam)
    assert F.values.shape == (6,) + lam.shape
    full = np.broadcast_to(dense(F), (4, 4) + grid.dims)
    assert np.max(np.abs(full - oracles.field_strength_oracle(grid, recs))) < 1e-13
    assert F.antisymmetry_defect() == 0.0
    assert np.array_equal(F.component(1, 2), F.values[ansatz_field.PAIRS.index((1, 2))])


def test_component_is_antisymmetric_with_zero_diagonal():
    grid = small_grid(4)
    lam = scenario_field(grid)
    A = checks.smooth_matrix_potential(grid, np.random.default_rng(5), 0.5)
    F = ansatz_field.field_strength_ansatz(lam)
    assert F.max_abs() > 0.0
    for m in range(1, 5):
        assert np.array_equal(F.component(m, m), np.zeros_like(F.values[0]))
        for n in range(1, 5):
            assert np.array_equal(F.component(n, m), -F.component(m, n))
    for k, (m, n) in enumerate(ansatz_field.PAIRS):
        assert np.array_equal(F.component(m, n), F.values[k])
    assert F.antisymmetry_defect() == 0.0
    # the matrix route, one ordered pair per call
    Fm = {(m, n): ansatz_field.field_strength_matrix(grid, A, 1.0, m, n)
          for m in range(1, 5) for n in range(1, 5)}
    assert su2_algebra.max_norm(matrix_stack(grid, A, 1.0)) > 0.0
    for m in range(1, 5):
        assert np.array_equal(Fm[m, m], np.zeros_like(Fm[m, m]))
        for n in range(1, 5):
            assert np.array_equal(Fm[n, m], -Fm[m, n])


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_per_pair_field_strengths_are_exactly_antisymmetric(seed):
    # IEEE subtraction is exactly antisymmetric, x - y == -(y - x), and so is
    # the unrolled cross product a_j b_k - a_k b_j: swapping (mu, nu) negates
    # every value exactly and the diagonal is exactly zero, on random fields
    # and couplings
    rng = np.random.default_rng(seed)
    grid = small_grid(5)
    recs = oracles.random_modes(rng, grid, count=6)
    lam = ansatz_field.LambdaField.from_modes(
        grid, [ansatz_field.Mode(r.component, r.cycles, r.amplitude, r.phase) for r in recs])
    g = float(rng.uniform(0.2, 3.0))
    A = rng.standard_normal((4,) + grid.dims + (4,)) * rng.uniform(0.1, 2.0)
    routes = [lambda m, n, mode=mode: ansatz_field.field_strength_direct(lam, m, n, mode)
              for mode in (ansatz_field.ANALYTIC, ansatz_field.RAW)]
    routes.append(lambda m, n: ansatz_field.field_strength_matrix(grid, A, g, m, n))
    for route in routes:
        largest = 0.0
        for m in range(1, 5):
            assert np.all(route(m, m) == 0.0)
            for n in range(m + 1, 5):
                F = route(m, n)
                largest = max(largest, np.max(np.abs(F)))
                assert np.array_equal(route(n, m), -F)  # exact equality; +0.0 == -0.0
        assert largest > 0.0


def test_direct_analytic_route_agrees_with_ansatz_form():
    grid = small_grid()
    lam = scenario_field(grid)
    Fa = ansatz_field.field_strength_ansatz(lam)
    for k, (mu, nu) in enumerate(ansatz_field.PAIRS):
        Fd = ansatz_field.field_strength_direct(lam, mu, nu, ansatz_field.ANALYTIC)
        assert lattice.max_abs(Fa.values[k] - Fd) < 1e-13


def test_direct_raw_route_converges_at_order_two():
    est = checks.raw_field_strength_order(config.ScenarioConfig(raw_order_grids=(8, 16, 32)))
    assert est.order is not None
    assert abs(est.order - 2.0) < 0.3


def test_field_strength_direct_input_guards():
    grid = small_grid(4)
    lam = scenario_field(grid)
    with pytest.raises(ValueError):
        ansatz_field.field_strength_direct(lam, 1, 2, mode="spectral")


def test_matrix_reading_tensors_with_sigma():
    grid = small_grid()
    lam = scenario_field(grid)
    for a in (1, 3):
        # a real coefficient cos(lambda) along one shared internal direction
        # keeps the commutator term zero: F is the raw scalar stencil route
        A = np.zeros((4,) + grid.dims + (4,))
        A[..., a] = lam.profile.real
        for mu, nu in ansatz_field.PAIRS:
            Fs = ansatz_field.field_strength_direct(lam, mu, nu, ansatz_field.RAW)
            Fm = ansatz_field.field_strength_matrix(grid, A, 1.0, mu, nu)
            assert Fm.shape == grid.dims + (4,)
            want = np.zeros(Fs.shape + (4,))
            want[..., a] = Fs.real
            assert lattice.max_abs(Fm - want) < 1e-13


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_matrix_field_strength_matches_the_oracle(seed):
    rng = np.random.default_rng(seed)
    grid = small_grid(5)
    g = float(rng.uniform(0.2, 3.0))
    A = rng.standard_normal((4,) + grid.dims + (4,)) * rng.uniform(0.1, 2.0)
    F = matrix_stack(grid, A, g)
    want = oracles.field_strength(grid, oracles.algebra_matrices(A), g)
    got = oracles.algebra_matrices(F)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the studies' max over pairs is the max-norm of the whole tensor
    per_pair = max(su2_algebra.max_norm(F[k]) for k in range(6))
    assert per_pair == su2_algebra.max_norm(F)
    assert abs(per_pair - np.max(np.abs(want))) <= 1e-13 * np.max(np.abs(want))


def test_lagrangian_identity_and_complexity():
    grid = small_grid()
    den = ansatz_field.lagrangian_density(scenario_field(grid))
    assert den.identity_defect() < 1e-12
    # the density is genuinely complex for this ansatz: profile squares
    # are phases, not positive weights
    assert np.max(np.abs(np.imag(den.values))) > 1e-3


def test_noether_current_vanishes_only_on_gradient_fields():
    grid = small_grid()
    jn_grad = ansatz_field.noether_current(gradient_field(grid))
    assert lattice.max_abs(jn_grad) < 1e-12
    jn_gen = ansatz_field.noether_current(scenario_field(grid))
    assert lattice.max_abs(jn_gen) > 1e-3


def test_anomalous_current_matches_contracted_oracle():
    grid = small_grid()
    cfg = config.ScenarioConfig()
    lam = checks.phase_field(cfg, grid)
    recs = [
        ansatz_field.Mode(comp, cyc, amp, ph)
        for comp, (cyc, amp, ph) in zip(cfg.phase_components, cfg.phase_waves)
    ]
    j = ansatz_field.anomalous_current(lam, cfg.coupling)
    want = oracles.anomalous_current_oracle(grid, recs, cfg.coupling)
    assert np.max(np.abs(j - want)) < 1e-13


def test_gauge_condition_componentwise():
    grid = small_grid()
    rep = ansatz_field.gauge_condition_check(scenario_field(grid))
    assert rep.satisfied
    assert max(rep.per_component) < 1e-12
    bad = ansatz_field.LambdaField.from_modes(
        grid, [ansatz_field.Mode(1, (1, 0, 0, 0), 0.5)]
    )
    rep_bad = ansatz_field.gauge_condition_check(bad)
    assert not rep_bad.satisfied
    assert rep_bad.per_component[0] > 0.1
    with pytest.warns(UserWarning):
        ansatz_field.field_equation_residual(bad, 1.0)


def test_residual_routes_agree():
    grid = small_grid()
    lam = scenario_field(grid)
    g = 1.0
    full = ansatz_field.field_equation_residual_full(lam, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fixed = ansatz_field.field_equation_residual(lam, g, mode=ansatz_field.ANALYTIC)
    assert lattice.max_abs(full - fixed) < 1e-10
    contracted = checks.residual_contraction_route(lam, g)
    assert lattice.max_abs(full - contracted) < 1e-10


def test_vacuum_report_slopes_and_exact_cancellations():
    grid = small_grid()
    rep = ansatz_field.vacuum_report(gradient_field(grid), (1e-1, 1e-2, 1e-3, 1e-4), 1.0)
    assert rep.slope_current is not None
    assert abs(rep.slope_current - 2.0) < 0.1
    assert abs(rep.slope_box_profile - 1.0) < 0.1
    for e in rep.entries:
        assert e.noether_max < 1e-12
    assert rep.gauge_mismatch
    assert len(rep.entries) == 4


def test_vacuum_report_validation_and_degenerate_base():
    grid = small_grid(4)
    base = gradient_field(grid)
    with pytest.raises(ValueError):
        ansatz_field.vacuum_report(base, (), 1.0)
    with pytest.raises(ValueError):
        ansatz_field.vacuum_report(base, (1e-2, -1e-3), 1.0)
    rep = ansatz_field.vacuum_report(ansatz_field.LambdaField.zero(grid), (1e-1, 1e-2), 1.0)
    assert rep.slope_current is None
    assert rep.slope_box_profile is None


def test_random_mode_sets_against_oracles():
    g = 1.3
    for metric in (lattice.EUCLIDEAN, lattice.LORENTZIAN):
        grid = lattice.Grid4.cubic(6, metric=metric)
        rng = np.random.default_rng(2024)
        waves = set()  # (component, axis) pairs the recipes exercise
        for _ in range(12):
            recs = oracles.random_modes(rng, grid, count=3)
            waves.update((r.component, 1 + [abs(c) for c in r.cycles].index(1)) for r in recs)
            modes = [ansatz_field.Mode(r.component, r.cycles, r.amplitude, r.phase) for r in recs]
            lam = ansatz_field.LambdaField.from_modes(grid, modes)
            assert lattice.max_abs(np.abs(lam.profile) - 1.0) < 1e-14
            assert lattice.max_abs(lam.profile - np.exp(-1j * oracles.lambda_values(grid, recs))) <= 1e-15
            assert np.max(np.abs(lam.gradients - oracles.gradient_table(grid, recs))) < 1e-13
            F = ansatz_field.field_strength_ansatz(lam)
            assert F.antisymmetry_defect() == 0.0
            assert np.max(np.abs(dense(F) - oracles.field_strength_oracle(grid, recs))) < 1e-13
            for k, (mu, nu) in enumerate(ansatz_field.PAIRS):
                Fd = ansatz_field.field_strength_direct(lam, mu, nu, ansatz_field.ANALYTIC)
                assert lattice.max_abs(F.values[k] - Fd) < 1e-13
            assert ansatz_field.lagrangian_density(lam).identity_defect() <= 1e-10
            full = ansatz_field.field_equation_residual_full(lam, g)
            assert lattice.max_abs(full - checks.residual_contraction_route(lam, g)) <= 1e-10
            j = ansatz_field.anomalous_current(lam, g)
            contracted = -1j * g * np.stack([
                sum(lam.profile[m - 1] * F.component(m, n) for m in range(1, 5)) for n in range(1, 5)
            ])
            assert lattice.max_abs(j - contracted) <= 1e-12
            want = oracles.anomaly_divergence_oracle(grid, recs, g)
            got = checks.anomaly_divergence_expansion(lam, g)
            assert lattice.max_abs(got - want) <= 1e-12 * lattice.max_abs(want)
        # the default recipe leaves component 3 empty and obeys the gauge
        # condition; these recipes give every component a wave along its
        # own axis, which the gauge-violating residual terms need
        assert {(c, c) for c in range(1, 5)} <= waves


def test_profile_and_gradients_are_computed_once_per_field(monkeypatch):
    counts = {"build_profile": 0, "phase_gradients": 0}
    for name in counts:
        original = getattr(ansatz_field, name)

        def counted(lam, _original=original, _name=name):
            counts[_name] += 1
            return _original(lam)

        monkeypatch.setattr(ansatz_field, name, counted)
    lam = scenario_field(small_grid(6))
    g = 1.0
    ansatz_field.field_strength_ansatz(lam)
    for mu, nu in ansatz_field.PAIRS:
        ansatz_field.field_strength_direct(lam, mu, nu, ansatz_field.ANALYTIC)
        ansatz_field.field_strength_direct(lam, mu, nu, ansatz_field.RAW)
    ansatz_field.lagrangian_density(lam)
    ansatz_field.noether_current(lam)
    ansatz_field.anomalous_current(lam, g)
    ansatz_field.anomaly_divergence_closed_form(lam, g)
    ansatz_field.gauge_condition_check(lam)
    ansatz_field.field_equation_residual(lam, g, mode=ansatz_field.ANALYTIC)
    ansatz_field.field_equation_residual(lam, g, mode=ansatz_field.RAW)
    ansatz_field.field_equation_residual_full(lam, g)
    checks.anomaly_divergence_expansion(lam, g)
    checks.residual_contraction_route(lam, g)
    assert counts == {"build_profile": 1, "phase_gradients": 1}
    # a study builds its phase field once per rung, however many pairs it compares
    for study, ladder in ((checks.raw_field_strength_order, "raw_order_grids"),
                          (checks.divergence_accounting_order, "divergence_grids")):
        before = dict(counts)
        study(config.ScenarioConfig(**{ladder: (4, 6, 8)}))
        assert counts == {k: v + 3 for k, v in before.items()}, (study.__name__, counts)
