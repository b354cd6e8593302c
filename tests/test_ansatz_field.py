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


def dense(lam):
    """All sixteen ansatz components F[mu-1, nu-1], one call each, on lam.shape."""
    return np.stack([np.stack([np.broadcast_to(ansatz_field.field_strength_ansatz(lam, m, n), lam.shape)
                               for n in range(1, 5)]) for m in range(1, 5)])


def on_grid(parts, grid):
    """A per-component tuple (or a tuple of them, as the gradients are)
    stacked and repeated to the full grid."""
    return np.stack([on_grid(p, grid) if isinstance(p, tuple) else np.broadcast_to(p, grid.dims)
                     for p in parts])


def stacked(current, *args):
    """The four nu components of a current, one call each, stacked here: the
    library builds one component per call."""
    return np.stack([current(*args, nu) for nu in range(1, 5)])


def matrix_stack(grid, A, g):
    """The six matrix components over PAIRS, stacked here: the library
    builds one (mu, nu) component per call."""
    return np.stack([ansatz_field.field_strength_matrix(grid, A, g, mu, nu)
                     for mu, nu in ansatz_field.PAIRS])


def test_gradient_waves_layout():
    grid = small_grid()
    waves = ansatz_field.gradient_waves(grid, [((1, 1, 0, 0), 0.7, 0.2), ((0, 2, 0, 0), 0.5, 0.0)])
    assert [len(w) for w in waves] == [1, 2, 0, 0]
    for mu in (1, 2):
        k = 2.0 * math.pi * 1 / grid.length(mu)
        assert waves[mu - 1][0] == ((1, 1, 0, 0), 0.7 * k, 0.2 + 0.5 * math.pi)
    # each component's waves in recipe order
    assert waves[1][1] == ((0, 2, 0, 0), 0.5 * (2.0 * math.pi * 2 / grid.length(2)), 0.5 * math.pi)
    with pytest.raises(ValueError):
        ansatz_field.gradient_waves(grid, [((1, 1, 0, 0), 0.7, 0.2), ((0, 0, 0, 0), 1.0, 0.0)])


def test_from_waves_matches_plain_sine_sum():
    grid = small_grid()
    rng = np.random.default_rng(3)
    recs = oracles.random_modes(rng, grid, count=4)
    lam = ansatz_field.LambdaField.from_waves(grid, oracles.component_waves(recs))
    assert np.max(np.abs(on_grid(lam.values, grid) - oracles.lambda_values(grid, recs))) < 1e-15


def test_lambda_field_validation_and_scaling():
    grid = small_grid(4)
    with pytest.raises(lattice.GridMismatchError):
        ansatz_field.LambdaField(grid, np.zeros((3,) + grid.dims))
    for k in range(4):
        bad = np.zeros((4,) + grid.dims)
        bad[k, 0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ansatz_field.LambdaField(grid, bad)
    lam = scenario_field(grid)
    assert all(np.array_equal(a, 2.0 * b) for a, b in zip(lam.scaled(2.0).values, lam.values))


def test_phase_field_is_kept_along_the_axes_its_waves_vary():
    n = 8
    grid = small_grid(n)

    def shapes(lam):
        return [v.shape for v in lam.values]

    # each component along the axes of its own waves; the default recipe is
    # static and leaves component 3 empty
    lam = scenario_field(grid)
    assert shapes(lam) == [(1, n, 1, 1), (1, 1, n, 1), (1, 1, 1, 1), (n, 1, 1, 1)]
    assert lam.shape == (n, n, n, 1)
    assert [f.shape for f in lam.profile] == shapes(lam)
    assert [[G.shape for G in row] for row in lam.gradients] == [[s] * 4 for s in shapes(lam)]
    assert shapes(lam.scaled(0.5)) == shapes(lam)
    assert shapes(ansatz_field.LambdaField.zero(grid)) == [(1, 1, 1, 1)] * 4
    assert ansatz_field.LambdaField.from_waves(grid, [[]] * 4).shape == (1, 1, 1, 1)
    one_axis = ansatz_field.LambdaField.from_waves(grid, [[], [], [((0, 0, 2, 0), 0.5, 0.0)], []])
    assert shapes(one_axis) == [(1, 1, 1, 1)] * 2 + [(1, 1, n, 1), (1, 1, 1, 1)]
    timed = ansatz_field.LambdaField.from_waves(grid, [[((0, 1, 0, 1), 0.8, 0.0)], [], [], []])
    assert shapes(timed) == [(1, n, 1, n)] + [(1, 1, 1, 1)] * 3
    waves = ((0, 1, 0, 1), 0.8, 0.0), *config.DEFAULT_PHASE_WAVES[1:]  # a time cycle on the default
    assert checks.phase_field(config.ScenarioConfig(phase_waves=waves), grid).shape == grid.dims
    # the gradient base spans all four axes, but no component does
    base = checks.gradient_base_field(config.ScenarioConfig(), small_grid(16))
    assert base.shape == (16,) * 4
    assert shapes(base) == [(16, 16, 1, 1), (16, 16, 16, 1), (1, 16, 16, 16), (1, 1, 16, 16)]
    # a stacked (4, *s) array is four components
    assert shapes(ansatz_field.LambdaField(grid, np.zeros((4, n, 1, n, 1)))) == [(n, 1, n, 1)] * 4
    for bad in (np.zeros((n, n, n, 2)), np.zeros((n, n, n)), np.zeros((n, n, n, n, 1))):
        for k in range(4):
            parts = [np.zeros((1, 1, 1, 1))] * 4
            parts[k] = bad
            with pytest.raises(lattice.GridMismatchError):
                ansatz_field.LambdaField(grid, parts)
    with pytest.raises(lattice.GridMismatchError):
        ansatz_field.LambdaField(grid, [np.zeros((1, 1, 1, 1))] * 5)


def recipe_set(rng, count):
    """Derandomised recipes of one to three waves, each with up to four
    nonzero cycles in -2..2, after the empty recipe, a time-only wave and a
    one-axis wave; each recipe as the four components' wave lists."""
    Wave = oracles.ComponentWave
    recipes = [[], [Wave(2, (0, 0, 0, 1), 0.7, 0.3)], [Wave(1, (0, 2, 0, 0), 0.9, 0.0)]]
    for _ in range(count):
        recipes.append([
            Wave(int(rng.integers(1, 5)),
                 tuple(int(c) for c in rng.integers(-2, 3, size=4) * (rng.random(4) < 0.4)),
                 float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
            for _ in range(int(rng.integers(1, 4)))
        ])
    return [oracles.component_waves(r) for r in recipes]


def _quiet_residual(lam, g):
    with warnings.catch_warnings():
        # most recipes break the gauge condition
        warnings.filterwarnings("ignore", "componentwise gauge condition violated", UserWarning)
        return ansatz_field.field_equation_residual(lam, g)


# every quantity derived from a phase field, as one array
DERIVED = {
    "profile": lambda lam, g: on_grid(lam.profile, lam.grid),
    "gradients": lambda lam, g: on_grid(lam.gradients, lam.grid),
    "field_strength": lambda lam, g: on_grid(tuple(
        ansatz_field.field_strength_ansatz(lam, mu, nu)
        for mu in range(1, 5) for nu in range(1, 5)), lam.grid),
    "direct_analytic": lambda lam, g: on_grid(tuple(
        ansatz_field.field_strength_direct(lam, mu, nu)
        for mu, nu in ansatz_field.PAIRS), lam.grid),
    "direct_raw": lambda lam, g: on_grid(tuple(
        ansatz_field.field_strength_raw(lam, mu, nu)
        for mu, nu in ansatz_field.PAIRS), lam.grid),
    "lagrangian": lambda lam, g: ansatz_field.lagrangian_density(lam)[0],
    "lagrangian_reference": lambda lam, g: ansatz_field.lagrangian_density(lam)[1],
    "noether_current": lambda lam, g: stacked(ansatz_field.noether_current, lam),
    "anomalous_current": lambda lam, g: stacked(ansatz_field.anomalous_current, lam, g),
    "residual_analytic": _quiet_residual,
    "residual_raw": oracles.raw_residual,
    "residual_full": lambda lam, g: ansatz_field.field_equation_residual_full(lam, g),
    "residual_route": lambda lam, g: checks.residual_contraction_route(lam, g),
    "gauge_condition": lambda lam, g: np.array(ansatz_field.gauge_condition_check(lam)),
    "expansion": lambda lam, g: checks.anomaly_divergence_expansion(lam, g),
    "closed_form": lambda lam, g: ansatz_field.anomaly_divergence_closed_form(lam, g),
    "lattice_divergence": lambda lam, g: oracles.divergence(
        lam.grid, (ansatz_field.anomalous_current(lam, g, nu) for nu in range(1, 5))),
    "box_profile": lambda lam, g: on_grid(tuple(lattice.box(lam.grid, f) for f in lam.profile), lam.grid),
}


def test_compact_field_equals_its_dense_copy():
    grid = lattice.Grid4((6, 5, 4, 6), 0.9)
    g = 1.3
    shapes = set()
    fields = [gradient_field(grid), ansatz_field.LambdaField.zero(grid)]
    fields += [ansatz_field.LambdaField.from_waves(grid, waves)
               for waves in recipe_set(np.random.default_rng(40), 20)]
    for lam in fields:
        full = ansatz_field.LambdaField(grid, [np.broadcast_to(v, grid.dims) for v in lam.values])
        shapes.update(v.shape for v in lam.values)
        for name, quantity in DERIVED.items():
            want = quantity(full, g)
            assert np.array_equal(np.broadcast_to(quantity(lam, g), want.shape), want), name
        eps = (1e-1, 1e-2, 1e-3)
        assert ansatz_field.vacuum_report(lam, eps, g) == ansatz_field.vacuum_report(full, eps, g)
    # the components include the zero field, dense ones, a time-only one
    # and ones that vary along one, two and three axes
    assert {(1, 1, 1, 1), grid.dims, (1, 1, 1, 6), (1, 5, 1, 1)} <= shapes
    assert {sum(s != 1 for s in shape) for shape in shapes} == {0, 1, 2, 3, 4}


def test_zero_field_gives_exact_zeros():
    grid = small_grid(4)
    lam = ansatz_field.LambdaField.zero(grid)
    assert np.array_equal(on_grid(lam.profile, grid), np.ones((4,) + grid.dims, dtype=complex))
    assert lattice.max_abs(dense(lam)) == 0.0
    assert lattice.max_abs(stacked(ansatz_field.noether_current, lam)) == 0.0
    assert lattice.max_abs(stacked(ansatz_field.anomalous_current, lam, 1.0)) == 0.0
    assert lattice.max_abs(ansatz_field.anomaly_divergence_closed_form(lam, 1.0)) == 0.0
    assert lattice.max_abs(ansatz_field.field_equation_residual_full(lam, 1.0)) == 0.0
    expanded, _ = ansatz_field.lagrangian_density(lam)
    assert lattice.max_abs(expanded) == 0.0


def test_profile_is_unit_modulus_phase():
    grid = small_grid()
    lam = scenario_field(grid)
    f = on_grid(lam.profile, grid)
    assert lattice.max_abs(np.abs(f) - 1.0) < 1e-15
    assert lattice.max_abs(f - np.exp(-1j * on_grid(lam.values, grid))) == 0.0


def test_phase_gradients_match_dispersion_table():
    grid = small_grid()
    cfg = config.ScenarioConfig()
    lam = checks.phase_field(cfg, grid)
    recs = oracles.config_modes(cfg)
    assert np.max(np.abs(on_grid(lam.gradients, grid) - oracles.gradient_table(grid, recs))) < 1e-13


def test_field_strength_matches_oracle():
    grid = small_grid()
    cfg = config.ScenarioConfig()
    lam = checks.phase_field(cfg, grid)
    recs = oracles.config_modes(cfg)
    # each component on the union of its two phase components' axes
    for m in range(1, 5):
        for n in range(1, 5):
            assert ansatz_field.field_strength_ansatz(lam, m, n).shape == np.broadcast_shapes(
                lam.values[m - 1].shape, lam.values[n - 1].shape)
    full = np.broadcast_to(dense(lam), (4, 4) + grid.dims)
    assert np.max(np.abs(full - oracles.field_strength_oracle(grid, recs))) < 1e-13


def test_component_is_antisymmetric_with_zero_diagonal():
    grid = small_grid(4)
    lam = scenario_field(grid)
    rng = np.random.default_rng(5)
    A = checks.smooth_matrix_potential(grid, [checks.smooth_waves(rng, 0.5) for _ in range(12)])
    F = {(m, n): ansatz_field.field_strength_ansatz(lam, m, n) for m in range(1, 5) for n in range(1, 5)}
    assert lattice.max_abs(dense(lam)) > 0.0
    for m in range(1, 5):
        assert np.array_equal(F[m, m], np.zeros_like(F[m, m]))
        for n in range(1, 5):
            assert np.array_equal(F[n, m], -F[m, n])
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
    lam = ansatz_field.LambdaField.from_waves(grid, oracles.component_waves(recs))
    g = float(rng.uniform(0.2, 3.0))
    A = rng.standard_normal((4,) + grid.dims + (4,)) * rng.uniform(0.1, 2.0)
    routes = [lambda m, n, route=route: route(lam, m, n)
              for route in (ansatz_field.field_strength_ansatz, ansatz_field.field_strength_direct,
                            ansatz_field.field_strength_raw)]
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
    for mu, nu in ansatz_field.PAIRS:
        Fa = ansatz_field.field_strength_ansatz(lam, mu, nu)
        Fd = ansatz_field.field_strength_direct(lam, mu, nu)
        assert lattice.max_abs(Fa - Fd) < 1e-13


def test_direct_raw_route_converges_at_order_two():
    est = checks.raw_field_strength_order(config.ScenarioConfig(raw_order_grids=(8, 16, 32)))
    assert est.order is not None
    assert abs(est.order - 2.0) < 0.3


def test_matrix_reading_tensors_with_sigma():
    grid = small_grid()
    lam = scenario_field(grid)
    for a in (1, 3):
        # a real coefficient cos(lambda) along one shared internal direction
        # keeps the commutator term zero: F is the raw scalar stencil route
        A = np.zeros((4,) + grid.dims + (4,))
        A[..., a] = on_grid(lam.profile, grid).real
        for mu, nu in ansatz_field.PAIRS:
            Fs = ansatz_field.field_strength_raw(lam, mu, nu)
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


def lagrangian_defect(lam):
    """The relative gap lagrangian_identity reports."""
    expanded, reference = ansatz_field.lagrangian_density(lam)
    return lattice.max_abs(expanded - reference) / max(1.0, lattice.max_abs(reference))


def test_lagrangian_identity_and_complexity():
    lam = scenario_field(small_grid())
    assert lagrangian_defect(lam) < 1e-12
    # the density is genuinely complex for this ansatz: profile squares
    # are phases, not positive weights
    expanded, _ = ansatz_field.lagrangian_density(lam)
    assert np.max(np.abs(np.imag(expanded))) > 1e-3


def test_noether_current_vanishes_only_on_gradient_fields():
    grid = small_grid()
    jn_grad = stacked(ansatz_field.noether_current, gradient_field(grid))
    assert lattice.max_abs(jn_grad) < 1e-12
    jn_gen = stacked(ansatz_field.noether_current, scenario_field(grid))
    assert lattice.max_abs(jn_gen) > 1e-3


def test_anomalous_current_matches_contracted_oracle():
    grid = small_grid()
    cfg = config.ScenarioConfig()
    lam = checks.phase_field(cfg, grid)
    recs = oracles.config_modes(cfg)
    j = stacked(ansatz_field.anomalous_current, lam, cfg.coupling)
    want = oracles.anomalous_current_oracle(grid, recs, cfg.coupling)
    assert np.max(np.abs(j - want)) < 1e-13


def test_gauge_condition_componentwise():
    grid = small_grid()
    per = ansatz_field.gauge_condition_check(scenario_field(grid))
    assert len(per) == 4 and max(per) < 1e-12 <= ansatz_field.GAUGE_TOL
    bad = ansatz_field.LambdaField.from_waves(grid, [[((1, 0, 0, 0), 0.5, 0.0)], [], [], []])
    per_bad = ansatz_field.gauge_condition_check(bad)
    assert per_bad[0] > 0.1 > ansatz_field.GAUGE_TOL
    assert per_bad[1:] == (0.0, 0.0, 0.0)
    with pytest.warns(UserWarning):
        ansatz_field.field_equation_residual(bad, 1.0)


def test_residual_routes_agree():
    grid = small_grid()
    lam = scenario_field(grid)
    g = 1.0
    full = ansatz_field.field_equation_residual_full(lam, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fixed = ansatz_field.field_equation_residual(lam, g)
    assert lattice.max_abs(full - fixed) < 1e-10
    contracted = checks.residual_contraction_route(lam, g)
    assert lattice.max_abs(full - contracted) < 1e-10


def test_raw_residual_route_closes_at_second_order():
    # the chain-rule wave operator and the compact stencil on the profile
    # values are two discretizations of one box(f): their gap is O(h^2)
    cfg = config.ScenarioConfig()
    g, hs, gaps = cfg.coupling, [], []
    for n in cfg.raw_order_grids:
        lam = checks.phase_field(cfg, lattice.Grid4.cubic(n, cfg.box_length))
        hs.append(lam.grid.h)
        gaps.append(lattice.max_abs(ansatz_field.field_equation_residual(lam, g)
                                    - oracles.raw_residual(lam, g)))
    assert cfg.raw_order_grids == (8, 16, 32) and gaps[0] > gaps[1] > gaps[2] > 0
    centre, half_width = checks.LIMITS["refinement_order"]
    assert abs(lattice.fit_order(hs, gaps) - centre) <= half_width, gaps


def test_vacuum_report_slopes_and_exact_cancellations():
    grid = small_grid()
    base, eps = gradient_field(grid), (1e-1, 1e-2, 1e-3, 1e-4)
    slope_current, slope_box_profile, noether_max = ansatz_field.vacuum_report(base, eps, 1.0)
    assert slope_current is not None
    assert abs(slope_current - 2.0) < 0.1
    assert abs(slope_box_profile - 1.0) < 0.1
    assert noether_max == lattice.max_abs(stacked(ansatz_field.noether_current, base.scaled(eps[0])))
    for e in eps:
        assert lattice.max_abs(stacked(ansatz_field.noether_current, base.scaled(e))) < 1e-12


def test_vacuum_report_validation_and_degenerate_base():
    grid = small_grid(4)
    base = gradient_field(grid)
    with pytest.raises(ValueError):
        ansatz_field.vacuum_report(base, (), 1.0)
    with pytest.raises(ValueError):
        ansatz_field.vacuum_report(base, (1e-2, -1e-3), 1.0)
    slope_current, slope_box_profile, noether_max = ansatz_field.vacuum_report(
        ansatz_field.LambdaField.zero(grid), (1e-1, 1e-2), 1.0)
    assert slope_current is None
    assert slope_box_profile is None
    assert noether_max == 0.0


@pytest.mark.parametrize("k", range(4))
def test_vacuum_report_keeps_a_nan_in_any_component(monkeypatch, k):
    # Python's max(0.0, nan) is 0.0: only a nan in the first component
    # reached the wave-operator maximum. The nan is planted in the wave
    # operator of component k, not in the profile, so the current stays
    # finite and only the wave-operator maximum can drop the slopes.
    real, calls = lattice.box, []

    def planted(grid, f):
        out = real(grid, f)
        if len(calls) % 4 == k:
            out = out.copy()
            out[0, 0, 0, 0] = np.nan
        calls.append(f)
        return out
    monkeypatch.setattr(lattice, "box", planted)
    _, slope_box_profile, _ = ansatz_field.vacuum_report(
        gradient_field(small_grid()), (1e-1, 1e-2), 1.0)
    assert len(calls) == 8
    assert slope_box_profile is None


@pytest.mark.parametrize("k", range(4))
def test_vacuum_report_keeps_a_nan_in_any_current_component(monkeypatch, k):
    # the current's max-norm is np.max over its four components' max-norms,
    # so a nan in component k + 1 alone drops the current slope
    real = ansatz_field.anomalous_current

    def planted(lam, g, nu):
        out = real(lam, g, nu)
        if nu == k + 1:
            out[(0,) * out.ndim] = np.nan
        return out
    monkeypatch.setattr(ansatz_field, "anomalous_current", planted)
    slope_current, _, _ = ansatz_field.vacuum_report(gradient_field(small_grid()), (1e-1, 1e-2), 1.0)
    assert slope_current is None


DENSE_PHASE = config.ScenarioConfig(
    phase_waves=(((0, 1, 0, 1), 0.8, 0.0), ((0, 0, 1, 0), 0.6, 0.4),
                 ((1, 0, 0, 0), 0.5, 1.1), ((2, 0, 0, 2), 0.3, 0.9)),
    phase_components=(1, 2, 4, 3), coupling=1.7)


def current_fields(grid):
    """The default recipe, a dense phase field (all four components, a wave
    along each axis) and the gradient base, each also with an inf planted in
    a gradient and a nan in a profile component."""
    def fields():
        return [scenario_field(grid), checks.phase_field(DENSE_PHASE, grid), gradient_field(grid)]
    planted = fields()
    for lam in planted:
        lam.gradients[0][1].flat[0] = np.inf
        lam.profile[1].flat[-1] = np.nan
    return fields() + planted


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf times zero, planted
def test_currents_are_the_stacked_loops_bit_for_bit():
    # on 16^4 the dense fields' temporaries are large enough for numpy to
    # elide them, which can swap the operands of a complex product
    grid = small_grid(16)
    for i, lam in enumerate(current_fields(grid)):
        noether = oracles.stacked_noether_current(lam)
        current = oracles.stacked_anomalous_current(lam, 1.7)
        assert np.isfinite(current).all() == (i < 3)  # the planted values reach the current
        for nu in range(1, 5):
            for got, want in ((ansatz_field.noether_current(lam, nu), noether[nu - 1]),
                              (ansatz_field.anomalous_current(lam, 1.7, nu), current[nu - 1])):
                assert got.shape == want.shape == lam.shape
                assert got.tobytes() == want.tobytes()
        from_generator = oracles.divergence(grid, (ansatz_field.anomalous_current(lam, 1.7, nu)
                                                   for nu in range(1, 5)))
        stacked_div = oracles.divergence(grid, current)
        assert from_generator.shape == stacked_div.shape
        assert from_generator.tobytes() == stacked_div.tobytes()


@pytest.mark.parametrize("k", range(6))
def test_antisymmetry_defect_keeps_a_nan_in_any_pair(monkeypatch, k):
    # the nan is planted in the mirrored component F_nu_mu of pair k, which
    # only the antisymmetry defect reads; np.max keeps it in any position
    mu, nu = ansatz_field.PAIRS[k]
    real = ansatz_field.field_strength_ansatz

    def planted(lam, m, n):
        out = real(lam, m, n)
        if (m, n) == (nu, mu):
            out = out.copy()
            out[(0,) * 4] = np.nan
        return out
    cfg = config.ScenarioConfig(grid_n=4, raw_order_grids=(4, 6))
    run = checks.Run("verify", cfg)
    checks.field_strength_routes(run)
    assert run.report.checks[0].details["antisymmetry_defect"] == 0.0
    monkeypatch.setattr(ansatz_field, "field_strength_ansatz", planted)
    run = checks.Run("verify", cfg)
    checks.field_strength_routes(run)
    ident = run.report.checks[0]
    assert ident.name == "field_strength_identity" and ident.status == "FAIL"
    assert ident.details["max_error"] == 0.0 and math.isnan(ident.details["antisymmetry_defect"])


def test_random_mode_sets_against_oracles():
    g = 1.3
    grid = lattice.Grid4.cubic(6)
    rng = np.random.default_rng(2024)
    waves = set()  # (component, axis) pairs the recipes exercise
    for _ in range(12):
        recs = oracles.random_modes(rng, grid, count=3)
        waves.update((r.component, 1 + [abs(c) for c in r.cycles].index(1)) for r in recs)
        lam = ansatz_field.LambdaField.from_waves(grid, oracles.component_waves(recs))
        f = on_grid(lam.profile, grid)
        assert lattice.max_abs(np.abs(f) - 1.0) < 1e-14
        assert lattice.max_abs(f - np.exp(-1j * oracles.lambda_values(grid, recs))) <= 1e-15
        assert np.max(np.abs(on_grid(lam.gradients, grid) - oracles.gradient_table(grid, recs))) < 1e-13
        F = dense(lam)
        assert np.array_equal(F, -np.swapaxes(F, 0, 1))
        assert np.max(np.abs(F - oracles.field_strength_oracle(grid, recs))) < 1e-13
        for mu, nu in ansatz_field.PAIRS:
            Fd = ansatz_field.field_strength_direct(lam, mu, nu)
            assert lattice.max_abs(F[mu - 1, nu - 1] - Fd) < 1e-13
        assert lagrangian_defect(lam) <= 1e-10
        full = ansatz_field.field_equation_residual_full(lam, g)
        assert lattice.max_abs(full - checks.residual_contraction_route(lam, g)) <= 1e-10
        j = stacked(ansatz_field.anomalous_current, lam, g)
        contracted = -1j * g * np.stack([
            sum(lam.profile[m - 1] * F[m - 1, n - 1] for m in range(1, 5)) for n in range(1, 5)
        ])
        assert lattice.max_abs(j - contracted) <= 1e-12
        want = oracles.anomaly_divergence_oracle(grid, recs, g)
        got = checks.anomaly_divergence_expansion(lam, g)
        assert lattice.max_abs(got - want) <= 1e-12 * lattice.max_abs(want)
    # the default recipe leaves component 3 empty and obeys the gauge
    # condition; these recipes give every component a wave along its
    # own axis, which the gauge-violating residual terms need
    assert {(c, c) for c in range(1, 5)} <= waves


def plant_at_the_ends(lam):
    """lam with an inf planted in the first plane and a nan in the last plane, along
    its slab axis, of the first profile component and gradient that vary along it:
    their stencils along that axis wrap the field's ends into each other."""
    d = ansatz_field.slabs(lam)[0].slab_axis
    f = next(f for f in lam.profile if f.shape[d] > 1)
    G = next(G for row in lam.gradients for G in row if G.shape[d] > 1)
    np.moveaxis(f, d, 0)[0].flat[0] = np.inf
    np.moveaxis(G, d, 0)[-1].flat[-1] = np.nan
    return lam


def slab_fields():
    """current_fields on 16^4, where the default recipe is one slab and the dense
    phase field and the gradient base four of four planes, and on 19^4, where the
    last of the dense fields' slabs of two planes holds one; each also with values
    planted at both ends of its slab axis."""
    fields = current_fields(small_grid(16)) + current_fields(small_grid(19))
    return fields + [plant_at_the_ends(lam) for lam in current_fields(small_grid(16))[:3]]


def reassembled(parts, taken):
    """The arrays taken on the slabs `parts` joined along their slab axis."""
    return np.concatenate(taken, axis=parts[0].slab_axis)


def anomalous(g):
    """checks.current_divergence's current for the anomalous current at coupling g."""
    return lambda part, mu: ansatz_field.anomalous_current(part, g, mu)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf times zero, planted
def test_slabs_cut_whole_planes_and_their_views_share_the_fields_arrays():
    for lam in slab_fields():
        parts = ansatz_field.slabs(lam)
        d, n = parts[0].slab_axis, lam.shape[parts[0].slab_axis]
        assert d == next(k for k, m in enumerate(lam.shape) if m > 1)
        plane = math.prod(lam.shape) // n
        step = max(1, ansatz_field.SLAB_POINTS // plane)
        assert [p.source[2:] for p in parts] == [(k, min(k + step, n)) for k in range(0, n, step)]
        for part in parts:
            assert part.shape == tuple(part.source[3] - part.source[2] if k == d else m
                                       for k, m in enumerate(lam.shape))
            for name in ("values", "profile"):
                for got, whole in zip(getattr(part, name), getattr(lam, name)):
                    assert np.shares_memory(got, whole)
            for row, whole_row in zip(part.gradients, lam.gradients):
                for got, whole in zip(row, whole_row):
                    assert got is whole if whole.shape[d] == 1 else np.shares_memory(got, whole)
    # a field that fits in one slab is that slab, whole
    lam = scenario_field(small_grid(16))
    (whole,) = ansatz_field.slabs(lam)
    assert whole.source[1:] == (0, 0, 16) and whole.shape == lam.shape


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf times zero, planted
def test_a_slab_view_cuts_its_fields_arrays_and_refuses_stencils_along_its_axis():
    lam = plant_at_the_ends(checks.phase_field(DENSE_PHASE, small_grid(8)))
    closed_whole = ansatz_field.anomaly_divergence_closed_form(lam, 1.0)
    n = 8
    for start, stop in ((0, 2), (3, 6), (n - 1, n), (0, 1), (0, n)):
        part = lam.slab(0, start, stop)

        def cut(x):
            return x if x.shape[0] == 1 else x[start:stop]
        for got, whole in zip(part.values + part.profile, lam.values + lam.profile):
            assert got.tobytes() == cut(whole).tobytes() and got.shape == cut(whole).shape
        for m in range(4):
            for k in range(4):
                assert part.gradients[m][k].tobytes() == cut(lam.gradients[m][k]).tobytes()
                for got, whole in zip(part.second_gradients[m][k], lam.second_gradients[m][k]):
                    assert got.tobytes() == cut(whole).tobytes() and np.shares_memory(got, whole)
        # the closed form reads its second differences from the table, so it runs on
        # the slab and gives the cut of the whole field's
        closed = ansatz_field.anomaly_divergence_closed_form(part, 1.0)
        assert closed.shape == cut(closed_whole).shape and closed.tobytes() == cut(closed_whole).tobytes()
        # a stencil along the slab axis is refused, a single plane too
        with pytest.raises(lattice.GridMismatchError):
            ansatz_field.field_strength_raw(part, 1, 2)
        with pytest.raises(lattice.GridMismatchError):
            ansatz_field.phase_gradients(part)
    for d, start, stop in ((0, 0, 0), (0, 3, 2), (0, -1, 2), (0, n - 1, n + 1), (4, 0, 1), (-1, 0, 1)):
        with pytest.raises(ValueError):
            lam.slab(d, start, stop)
    with pytest.raises(ValueError):  # a slab of a slab
        lam.slab(0, 0, 4).slab(0, 0, 2)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf times zero, planted
def test_the_current_divergence_on_slabs_is_the_whole_divergence_bit_for_bit():
    # slab_fields, then the zero field, one slab of a single point
    g = 1.7
    for i, lam in enumerate(slab_fields() + [ansatz_field.LambdaField.zero(small_grid(16))]):
        whole = oracles.divergence(lam.grid, (ansatz_field.anomalous_current(lam, g, nu) for nu in range(1, 5)))
        parts, taken = [], []

        def keep(part, div):
            parts.append(part)
            taken.append(div.copy())
            return lattice.max_abs(div)
        top = float(np.max(checks.current_divergence(lam, anomalous(g), keep)))
        assert [p.source[1:] for p in parts] == [p.source[1:] for p in ansatz_field.slabs(lam)]
        assert reassembled(parts, taken).tobytes() == whole.tobytes(), i
        assert repr(top) == repr(lattice.max_abs(whole)), i
        assert math.isfinite(top) == (i in (0, 1, 2, 6, 7, 8, 15)), i  # the planted values reach it
        # anomaly_fields joins the same slabs: the divergence of its stacked current
        j, div, _, _ = checks.anomaly_fields(lam, g)
        want = oracles.divergence(lam.grid, j)
        assert div.shape == want.shape == lam.shape and div.tobytes() == want.tobytes(), i


def divergence_fields():
    """The default recipe on 16^4, one slab; the dense phase field on 16^4, four
    slabs of four planes; and on 19^4, slabs of two planes, the last of one."""
    return [scenario_field(small_grid(16)), checks.phase_field(DENSE_PHASE, small_grid(16)),
            checks.phase_field(DENSE_PHASE, small_grid(19))]


def test_anomaly_fields_builds_each_current_component_once_whole(monkeypatch):
    # the divergence reads its slabs' planes of the stacked current: no component
    # is built again on a slab or a halo plane
    real, calls = ansatz_field.anomalous_current, []

    def counted(lam, g, nu):
        calls.append((lam, nu))
        return real(lam, g, nu)
    monkeypatch.setattr(ansatz_field, "anomalous_current", counted)
    for i, lam in enumerate(divergence_fields()):
        calls.clear()
        checks.anomaly_fields(lam, 1.7)
        assert [(part is lam, nu) for part, nu in calls] == [(True, nu) for nu in range(1, 5)], i


def test_current_divergence_carries_nothing_across_slabs():
    # every current built before gap(slab k) lies on slab k or on one of its two
    # halo planes: nothing is built a slab ahead or kept from the slab before
    for i, lam in enumerate(divergence_fields()):
        parts, events = ansatz_field.slabs(lam), []
        d, n = parts[0].slab_axis, lam.shape[parts[0].slab_axis]

        def current(part, mu):
            events.append(("current", part.source[1:]))
            return ansatz_field.anomalous_current(part, 1.7, mu)
        checks.current_divergence(lam, current, lambda part, div: events.append(("gap", part.source[1:])))
        assert [where for kind, where in events if kind == "gap"] == [p.source[1:] for p in parts], i
        built = []
        for kind, where in events:
            if kind == "current":
                built.append(where)
                continue
            _, start, stop = where
            halo = {(d, k % n, k % n + 1) for k in (start - 1, stop)}
            assert where in built and set(built) <= {where} | halo, (i, where, built)
            built = []
        assert not built, i


@pytest.mark.parametrize("k", range(4))
def test_a_nan_in_any_one_slab_reaches_the_divergence_max(k):
    # Python's max(1.0, nan) is 1.0: a nan planted in plane 4k + 2 of the dense
    # phase field's profile reaches only slab k of its four (planes 4k + 1 to
    # 4k + 3), and np.max over the slabs keeps it
    lam = checks.phase_field(DENSE_PHASE, small_grid(16))
    parts = ansatz_field.slabs(lam)
    assert [p.source[1:] for p in parts] == [(0, 4 * i, 4 * i + 4) for i in range(4)]
    f = next(f for f in lam.profile if f.shape[0] > 1)
    f[4 * k + 2].flat[0] = np.nan
    slabs_with_nan = []

    def keep(part, div):
        slabs_with_nan.append(bool(np.isnan(div).any()))
        return lattice.max_abs(div)
    assert math.isnan(np.max(checks.current_divergence(lam, anomalous(1.7), keep)))
    assert slabs_with_nan == [i == k for i in range(4)]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf times zero, planted
def test_the_divergence_expansion_on_slabs_is_the_whole_expansion_bit_for_bit():
    g = 1.7
    for i, lam in enumerate(slab_fields()):
        whole = checks.anomaly_divergence_expansion(lam, g)
        parts = ansatz_field.slabs(lam)
        assert reassembled(parts, [checks.anomaly_divergence_expansion(p, g) for p in parts]).tobytes() \
            == whole.tobytes(), i
        div = oracles.divergence(lam.grid, (ansatz_field.anomalous_current(lam, g, nu) for nu in range(1, 5)))
        gap = float(np.max(checks.current_divergence(
            lam, anomalous(g), lambda part, div_j: lattice.max_abs(div_j - checks.anomaly_divergence_expansion(part, g)))))
        assert repr(gap) == repr(lattice.max_abs(div - whole)), i


def test_the_divergence_ladder_gap_is_the_whole_fields():
    for cfg in (config.ScenarioConfig(), DENSE_PHASE, config.ScenarioConfig(divergence_grids=(12, 19, 30))):
        want = []
        for n in cfg.divergence_grids:
            lam = checks.phase_field(cfg, lattice.Grid4.cubic(n, cfg.box_length), scale=cfg.anomaly_amplitude)
            div = oracles.divergence(lam.grid, (ansatz_field.anomalous_current(lam, cfg.coupling, nu)
                                                for nu in range(1, 5)))
            want.append(lattice.max_abs(div - checks.anomaly_divergence_expansion(lam, cfg.coupling)))
        assert checks.divergence_accounting_order(cfg).errors == tuple(want)


@pytest.mark.parametrize("plant", ["none", "inf", "nan", "ends"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf times zero, planted
def test_vacuum_report_on_slabs_gives_the_whole_fields_maxima(monkeypatch, plant):
    real = ansatz_field.build_profile

    def planted(lam):
        profile = real(lam)
        if plant == "inf":
            profile[2].flat[-1] = np.inf
        elif plant == "nan":
            profile[1].flat[0] = np.nan
        elif plant == "ends":
            ends = [f for f in profile if f.shape[0] > 1]
            ends[0][0].flat[0], ends[-1][-1].flat[-1] = np.inf, np.nan
        return profile
    monkeypatch.setattr(ansatz_field, "build_profile", planted)

    def whole_path(base, eps_seq, g):
        """vacuum_report's maxima with every current component built whole."""
        first = base.scaled(eps_seq[0])
        noether = float(np.max([lattice.max_abs(ansatz_field.noether_current(first, nu)) for nu in range(1, 5)]))
        current, box = [], []
        for eps in eps_seq:
            lam = base.scaled(eps)
            current.append(float(np.max([lattice.max_abs(ansatz_field.anomalous_current(lam, g, nu))
                                         for nu in range(1, 5)])))
            box.append(float(np.max([lattice.max_abs(lattice.box(lam.grid, f)) for f in lam.profile])))
        if not all(c > 0 and b > 0 for c, b in zip(current, box)):
            return None, None, noether
        return lattice.fit_order(eps_seq, current), lattice.fit_order(eps_seq, box), noether
    eps = (1e-1, 1e-2, 1e-3)
    for grid in (small_grid(16), small_grid(19)):
        for base in (scenario_field(grid), checks.phase_field(DENSE_PHASE, grid), gradient_field(grid)):
            got = ansatz_field.vacuum_report(base, eps, 1.7)
            assert repr(got) == repr(whole_path(base, eps, 1.7)), (grid.dims, plant)
            assert (got[:2] == (None, None)) == (plant != "none")  # a planted value drops the slopes


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
    for mu, nu in ansatz_field.PAIRS:
        ansatz_field.field_strength_ansatz(lam, mu, nu)
        ansatz_field.field_strength_direct(lam, mu, nu)
        ansatz_field.field_strength_raw(lam, mu, nu)
    ansatz_field.lagrangian_density(lam)
    for nu in range(1, 5):
        ansatz_field.noether_current(lam, nu)
        ansatz_field.anomalous_current(lam, g, nu)
    ansatz_field.anomaly_divergence_closed_form(lam, g)
    ansatz_field.gauge_condition_check(lam)
    ansatz_field.field_equation_residual(lam, g)
    oracles.raw_residual(lam, g)
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
    # the vacuum scan builds one field per amplitude; the Noether current
    # at the first amplitude reads that amplitude's field
    before = dict(counts)
    ansatz_field.vacuum_report(gradient_field(small_grid(4)), (1e-1, 1e-2, 1e-3), g)
    assert counts == {k: v + 3 for k, v in before.items()}, counts
