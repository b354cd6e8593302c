"""Scenario builders and refinement studies shared by the CLI and tests.

The field recipes here are deliberately resolution-independent: a recipe
plus a grid size determines the field, so refinement ladders sample the
same continuum object at every resolution and the measured orders mean
what they claim.
"""

from __future__ import annotations

import math

import numpy as np

from . import ansatz_field, config, lattice, su2_algebra


def phase_field(cfg: config.ScenarioConfig, grid: lattice.Grid4,
                scale: float = 1.0) -> ansatz_field.LambdaField:
    """The scenario's main phase field on the given grid."""
    modes = [
        ansatz_field.Mode(comp, cyc, scale * amp, ph)
        for comp, (cyc, amp, ph) in zip(cfg.phase_components, cfg.phase_waves)
    ]
    return ansatz_field.LambdaField.from_modes(grid, modes)


def gradient_base_field(cfg: config.ScenarioConfig, grid: lattice.Grid4) -> ansatz_field.LambdaField:
    """Unit-amplitude gradient-wave base for the small-amplitude scans."""
    modes = []
    for cyc, amp, ph in cfg.gradient_waves:
        modes.extend(ansatz_field.gradient_wave_modes(grid, cyc, amp, ph))
    return ansatz_field.LambdaField.from_modes(grid, modes)


def smooth_scalar(grid: lattice.Grid4, rng, amp: float, terms: int = 2) -> np.ndarray:
    """Random low-harmonic scalar: `terms` single-axis unit waves.

    Content is kept at |cycles| = 1 per term so products of these fields
    stay resolvable on the coarse ends of the refinement ladders.
    """
    xs = grid.coords()
    out = np.zeros(grid.shape)
    for _ in range(terms):
        axis = int(rng.integers(0, 4))
        sign = -1 if rng.random() < 0.5 else 1
        ph = rng.uniform(0.0, 2.0 * math.pi)
        a = amp * rng.uniform(0.3, 1.0)
        k = sign * 2.0 * math.pi / grid.length(axis + 1)
        out += a * np.sin(np.broadcast_to(k * xs[axis] + ph, grid.shape))
    return out


def smooth_group_field(grid: lattice.Grid4, rng, amp: float) -> np.ndarray:
    """Seeded smooth SU(2) field from three random scalar angles."""
    rho = np.stack([smooth_scalar(grid, rng, amp) for _ in range(3)], axis=-1)
    return su2_algebra.su2_exp(rho)


def smooth_matrix_potential(grid: lattice.Grid4, rng, amp: float) -> np.ndarray:
    """Seeded smooth matrix potential spanning all three internal directions."""
    A = np.zeros((4,) + grid.dims + (2, 2), dtype=complex)
    for mu in range(4):
        for a in (1, 2, 3):
            A[mu] += smooth_scalar(grid, rng, amp)[..., None, None] * su2_algebra.pauli(a)
    return A


def raw_field_strength_order(cfg: config.ScenarioConfig) -> lattice.OrderEstimate:
    """Raw-stencil vs analytic field strength gap under refinement."""
    errs, hs = [], []
    for n in cfg.raw_order_grids:
        grid = lattice.Grid4.cubic(n, cfg.box_length, cfg.metric)
        lam = phase_field(cfg, grid)
        fa = ansatz_field.field_strength_direct(lam, mode=ansatz_field.ANALYTIC)
        fr = ansatz_field.field_strength_direct(lam, mode=ansatz_field.RAW)
        # one component at a time: lam keeps its gradients alive meanwhile
        errs.append(max(lattice.max_abs(fa.values[k] - fr.values[k]) for k in range(6)))
        hs.append(grid.h)
    return lattice.OrderEstimate(lattice.fit_order(hs, errs), tuple(hs), tuple(errs))


def anomaly_divergence_expansion(lam: ansatz_field.LambdaField, g: float) -> np.ndarray:
    """Product-rule expansion of the divergence of the anomalous current.

    d_nu j_nu = g sum_{mu,nu} [ -2i f_mu^2 (d_nu lam_mu)^2
                                + f_mu^2 d_nu d_nu lam_mu
                                + i f_mu f_nu (d_nu lam_mu)(d_mu lam_nu)
                                + i f_mu f_nu (d_nu lam_nu)(d_mu lam_nu)
                                - f_mu f_nu d_nu d_mu lam_nu ]

    Re-derived symbolically in tests/test_symbolic.py; f factors are exact
    and lambda derivatives are composed central stencils, so the gap to
    the raw lattice divergence of the current is O(h^2).
    """
    g = su2_algebra.check_coupling(g)
    f, G = lam.profile, lam.gradients
    out = np.zeros(lam.grid.dims, dtype=complex)
    for m in range(4):
        for n in range(4):
            out += g * (
                -2j * f[m] ** 2 * G[m, n] ** 2
                + f[m] ** 2 * lattice.partial(lam.grid, G[m, n], n + 1)
                + 1j * f[m] * f[n] * G[m, n] * G[n, m]
                + 1j * f[m] * f[n] * G[n, n] * G[n, m]
                - f[m] * f[n] * lattice.partial(lam.grid, G[n, m], n + 1)
            )
    return out


def residual_contraction_route(lam: ansatz_field.LambdaField, g: float) -> np.ndarray:
    """sum_mu (d_mu + i g f_mu) F_mu_nu, assembled from the field strength.

    An independent route to the equation-of-motion residual: the ansatz
    field strength is built first and then contracted, with the chain
    rule carrying the derivative onto its factors. Agrees with the
    expanded five-term residual to rounding in analytic mode.
    """
    g = su2_algebra.check_coupling(g)
    grid = lam.grid
    f, G = lam.profile, lam.gradients
    F = ansatz_field.field_strength_ansatz(lam)
    out = np.zeros((4,) + grid.dims, dtype=complex)
    for n in range(4):
        for m in range(4):
            dF = 1j * (
                -1j * f[m] * G[m, m] * G[m, n]
                + f[m] * lattice.partial(grid, G[m, n], m + 1)
                + 1j * f[n] * G[n, m] ** 2
                - f[n] * lattice.partial(grid, G[n, m], m + 1)
            )
            out[n] += dF + 1j * g * f[m] * F.component(m + 1, n + 1)
    return out


def divergence_accounting_order(cfg: config.ScenarioConfig) -> lattice.OrderEstimate:
    """Lattice divergence of the current vs the product-rule expansion.

    Uses the scenario phase field at the anomaly amplitude; the two
    evaluations differ only in where the stencils act (on the assembled
    current vs on its expanded factors), so the gap closes at order 2.
    """
    errs, hs = [], []
    for n in cfg.divergence_grids:
        grid = lattice.Grid4.cubic(n, cfg.box_length, cfg.metric)
        lam = phase_field(cfg, grid, scale=cfg.anomaly_amplitude)
        j = ansatz_field.anomalous_current(lam, cfg.coupling)
        div = lattice.divergence(grid, j)
        errs.append(lattice.max_abs(div - anomaly_divergence_expansion(lam, cfg.coupling)))
        hs.append(grid.h)
    return lattice.OrderEstimate(lattice.fit_order(hs, errs), tuple(hs), tuple(errs))


def covariance_order(cfg: config.ScenarioConfig) -> lattice.OrderEstimate:
    """‖F[A'] - U F[A] U^-1‖ under refinement for a seeded smooth pair."""
    errs, hs = [], []
    for n in cfg.covariance_grids:
        grid = lattice.Grid4.cubic(n, cfg.box_length, cfg.metric)
        rng = np.random.default_rng(cfg.seed)
        A = smooth_matrix_potential(grid, rng, cfg.smooth_amp)
        U = smooth_group_field(grid, rng, cfg.smooth_amp)
        Ap = su2_algebra.gauge_transform(grid, A, U, cfg.coupling)
        F = ansatz_field.field_strength_matrix(grid, A, cfg.coupling)
        Fp = ansatz_field.field_strength_matrix(grid, Ap, cfg.coupling)
        # one component at a time keeps a single conjugated copy alive
        errs.append(max(
            lattice.max_abs(Fp.values[k] - su2_algebra.conjugate(U, F.values[k])) for k in range(6)
        ))
        hs.append(grid.h)
    return lattice.OrderEstimate(lattice.fit_order(hs, errs), tuple(hs), tuple(errs))


def pure_gauge_order(cfg: config.ScenarioConfig) -> lattice.OrderEstimate:
    """‖F‖ of a discretized pure-gauge potential under refinement."""
    errs, hs = [], []
    for n in cfg.pure_gauge_grids:
        grid = lattice.Grid4.cubic(n, cfg.box_length, cfg.metric)
        rng = np.random.default_rng(cfg.seed + 1)
        U = smooth_group_field(grid, rng, cfg.smooth_amp)
        A = su2_algebra.pure_gauge_field(grid, U, cfg.coupling)
        F = ansatz_field.field_strength_matrix(grid, A, cfg.coupling)
        errs.append(F.max_abs())
        hs.append(grid.h)
    return lattice.OrderEstimate(lattice.fit_order(hs, errs), tuple(hs), tuple(errs))


def single_axis_pure_gauge(grid: lattice.Grid4, g: float, a: int = 3):
    """Closed-form pure-gauge pair: U with winding 2 along axis 1.

    Returns (U, A, expected_A1_coefficient). The group element must wind
    an even number of half-turns to be periodic on the axis (odd windings
    flip sign across the boundary seam), and the stencil turns the
    continuum coefficient -1 into -sin(h)/h exactly.
    """
    xs = grid.coords()
    rho = np.zeros(grid.dims + (3,))
    rho[..., a - 1] = np.broadcast_to(2.0 * xs[0], grid.dims)
    U = su2_algebra.su2_exp(rho)
    A = su2_algebra.pure_gauge_field(grid, U, g)
    coeff = -math.sin(grid.h) / grid.h / g
    return U, A, coeff
