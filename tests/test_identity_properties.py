"""Property tests of the rounding-level identities over drawn phase fields.

Hypothesis draws the recipe (one to four waves, each feeding one lambda
component with integer cycles along any of the four axes, several at once
among them), the coupling and the grid (6^4 or 8^4); for the gauge-fixed
residual, only waves with no cycle along their own component's axis, the
componentwise gauge condition that residual needs. The draws are
derandomised, so every run sees the same examples. Each identity is held to
the tolerance its report row uses in `checks.LIMITS`. The product-rule
divergence expansion, which no row judges at rounding level, is held to the
closed-form tables of oracles.py at 1e-12 relative to max(1, its largest
value), the scale `lagrangian_identity` divides by.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from su2reduce import ansatz_field, checks, lattice

import oracles

DRAWS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

amplitudes, phases = st.floats(-1.5, 1.5), st.floats(0.0, 2.0 * math.pi)
cycles = st.tuples(*[st.integers(-2, 2)] * 4).filter(any)
recipes = st.lists(st.builds(oracles.ComponentWave, st.integers(1, 4), cycles, amplitudes, phases),
                   min_size=1, max_size=4)


def gauge_wave(component):
    """A wave feeding `component` with no cycle along that component's own axis."""
    own = st.tuples(*[st.just(0) if d == component - 1 else st.integers(-2, 2) for d in range(4)])
    return st.builds(oracles.ComponentWave, st.just(component), own.filter(any), amplitudes, phases)


gauge_recipes = st.lists(st.integers(1, 4).flatmap(gauge_wave), min_size=1, max_size=4)
couplings = st.floats(0.1, 3.0)
grids = st.sampled_from([6, 8]).map(lattice.Grid4.cubic)


def phase(grid, modes):
    return ansatz_field.LambdaField.from_waves(grid, oracles.component_waves(modes))


@DRAWS
@given(grids, recipes)
def test_lagrangian_identity_holds_for_any_recipe(grid, modes):
    expanded, reference = ansatz_field.lagrangian_density(phase(grid, modes))
    defect = lattice.max_abs(expanded - reference) / max(1.0, lattice.max_abs(reference))
    assert defect <= checks.LIMITS["lagrangian_identity"]


@DRAWS
@given(grids, recipes, couplings)
def test_residual_routes_agree_for_any_recipe(grid, modes, g):
    lam = phase(grid, modes)
    gap = lattice.max_abs(ansatz_field.field_equation_residual_full(lam, g)
                          - checks.residual_contraction_route(lam, g))
    assert gap <= checks.LIMITS["residual_contraction_equivalence"]


@DRAWS
@given(grids, gauge_recipes, couplings)
def test_gauge_fixed_residual_is_the_full_one_under_the_gauge_condition(grid, modes, g):
    lam = phase(grid, modes)
    assert all(p <= ansatz_field.GAUGE_TOL for p in ansatz_field.gauge_condition_check(lam))
    gap = lattice.max_abs(ansatz_field.field_equation_residual_full(lam, g)
                          - ansatz_field.field_equation_residual(lam, g))
    assert gap <= checks.LIMITS["residual_gauge_fixed_equivalence"]


@DRAWS
@given(grids, recipes, couplings)
def test_anomalous_current_is_the_contracted_field_strength_for_any_recipe(grid, modes, g):
    lam, F = phase(grid, modes), ansatz_field.field_strength_ansatz
    for n in range(1, 5):
        contracted = -1j * g * sum(np.multiply(lam.profile[m - 1], F(lam, m, n)) for m in range(1, 5))
        gap = lattice.max_abs(ansatz_field.anomalous_current(lam, g, n) - contracted)
        assert gap <= checks.LIMITS["anomalous_current_identity"]


@DRAWS
@given(grids, recipes, couplings)
def test_divergence_expansion_matches_the_closed_form_tables_for_any_recipe(grid, modes, g):
    want = oracles.anomaly_divergence_oracle(grid, modes, g)
    got = checks.anomaly_divergence_expansion(phase(grid, modes), g)
    assert lattice.max_abs(got - want) <= 1e-12 * max(1.0, lattice.max_abs(want))
