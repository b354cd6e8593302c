"""The judged checks of the four commands, their inputs and their limits.

Scenario builders and refinement studies come first. The field recipes
are deliberately resolution-independent: a recipe plus a grid size
determines the field, so refinement ladders sample the same continuum
object at every resolution and the measured orders mean what they claim.

Then the checks. Each is a function of one `Run` that adds one or more
rows to the run's report; it returns True when the command must end
after it (an uncertified contraction, a Banach run that did not
converge). Every tolerance and window sits in `LIMITS`, and `COMMANDS`
names each command's checks in report order. The CLI and the acceptance
tests both run these tuples, looking each name up in this module at call
time, so a wrapper bound over a check's name (a tracer's) sees the call.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import ansatz_field, bundle, config, contraction, lattice, report, su2_algebra


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
    stay resolvable on the coarse ends of the refinement ladders. The
    waves are drawn first; the result is stored only along the axes they
    use (length 1 on the others, as for a LambdaField).
    """
    waves = [(int(rng.integers(0, 4)), -1 if rng.random() < 0.5 else 1,
              rng.uniform(0.0, 2.0 * math.pi), amp * rng.uniform(0.3, 1.0)) for _ in range(terms)]
    xs = grid.coords()
    out = np.zeros(tuple(n if any(w[0] == d for w in waves) else 1 for d, n in enumerate(grid.dims)))
    for axis, sign, ph, a in waves:
        k = sign * 2.0 * math.pi / grid.length(axis + 1)
        out += a * np.sin(k * xs[axis] + ph)
    return out


def smooth_group_field(grid: lattice.Grid4, rng, amp: float) -> np.ndarray:
    """Seeded smooth SU(2) field from three random scalar angles, as su2_algebra
    coefficients shaped (*s, 4), kept along the union of the angles' axes."""
    rho = np.moveaxis(np.stack(np.broadcast_arrays(*[smooth_scalar(grid, rng, amp)
                                                     for _ in range(3)])), 0, -1)
    return su2_algebra.su2_exp(rho)


def smooth_matrix_potential(grid: lattice.Grid4, rng, amp: float) -> np.ndarray:
    """Seeded smooth potential a.sigma spanning all three internal directions
    (s = 0), as su2_algebra coefficients shaped (4, *s, 4), kept along the
    union of its twelve scalars' axes."""
    scalars = [smooth_scalar(grid, rng, amp) for _ in range(12)]  # (mu, a) in row-major order
    A = su2_algebra.empty_coefficients((4,) + np.broadcast_shapes(*(x.shape for x in scalars)))
    A[..., 0] = 0.0
    for k, x in enumerate(scalars):
        A[k // 3, ..., k % 3 + 1] = x
    return A


def _refine(cfg: config.ScenarioConfig, ladder, gap) -> lattice.OrderEstimate:
    """Order of gap(grid) over the cubic grids with n points per axis, n in ladder.

    Each rung's fields are gone before the next rung builds its own. The
    order is None when an error is not finite or below the smallest normal
    float (zero, or subnormal with its precision lost): no fit exists.
    """
    grids = [lattice.Grid4.cubic(n, cfg.box_length, cfg.metric) for n in ladder]
    hs, errs = tuple(grid.h for grid in grids), tuple(gap(grid) for grid in grids)
    fits = all(np.finfo(float).tiny <= e < math.inf for e in errs)
    return lattice.OrderEstimate(lattice.fit_order(hs, errs) if fits else None, hs, errs)


def max_over_pairs(norm) -> float:
    """The largest norm(mu, nu) over PAIRS, each component dropped before the
    next is built; np.max keeps a nan in any position."""
    return float(np.max([norm(mu, nu) for mu, nu in ansatz_field.PAIRS]))


def raw_field_strength_order(cfg: config.ScenarioConfig) -> lattice.OrderEstimate:
    """Raw-stencil vs analytic field strength gap under refinement, one
    (mu, nu) component of each route at a time."""
    def gap(grid):
        lam, F = phase_field(cfg, grid), ansatz_field.field_strength_direct
        return max_over_pairs(lambda mu, nu: lattice.max_abs(
            F(lam, mu, nu, ansatz_field.ANALYTIC) - F(lam, mu, nu, ansatz_field.RAW)))
    return _refine(cfg, cfg.raw_order_grids, gap)


def anomaly_divergence_expansion(lam: ansatz_field.LambdaField, g: float) -> np.ndarray:
    """Product-rule expansion of the divergence of the anomalous current.

    d_nu j_nu = g sum_{mu,nu} [ -2i f_mu^2 (d_nu lam_mu)^2
                                + f_mu^2 d_nu d_nu lam_mu
                                + i f_mu f_nu (d_nu lam_mu)(d_mu lam_nu)
                                + i f_mu f_nu (d_nu lam_nu)(d_mu lam_nu)
                                - f_mu f_nu d_nu d_mu lam_nu ]
              = g [ sum_mu f_mu^2 (P_mu - 2i Q_mu) + sum_nu f_nu S_nu ]

    is evaluated in the grouped form, with the real sums
    P_mu = sum_nu d_nu d_nu lam_mu and Q_mu = sum_nu (d_nu lam_mu)^2 and
    S_nu = sum_mu f_mu [ i (d_mu lam_nu)(d_nu lam_mu + d_nu lam_nu) - d_nu d_mu lam_nu ];
    one complex buffer holds P_mu - 2i Q_mu, then each bracket of S_nu. Re-derived
    symbolically in tests/test_symbolic.py; f factors are exact and lambda
    derivatives are composed central stencils, so the gap to the raw
    lattice divergence of the current is O(h^2).
    """
    g = su2_algebra.check_coupling(g)
    grid, f, G = lam.grid, lam.profile, lam.gradients
    out = np.zeros(lam.shape, dtype=complex)
    buf = np.empty(lam.shape, dtype=complex)
    for m in range(4):
        P, Q = lattice.partial(grid, G[m, 0], 1), G[m, 0] ** 2
        for n in (1, 2, 3):
            P += lattice.partial(grid, G[m, n], n + 1)
            Q += G[m, n] ** 2
        buf.real, buf.imag = P, -2.0 * Q
        out += f[m] * f[m] * buf
    for n in range(4):
        S = np.zeros(lam.shape, dtype=complex)
        for m in range(4):
            buf.real = -lattice.partial(grid, G[n, m], n + 1)
            buf.imag = G[n, m] * (G[m, n] + G[n, n])
            S += buf * f[m]
        out += S * f[n]
    out *= g
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
    out = np.zeros((4,) + lam.shape, dtype=complex)
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
    def gap(grid):
        lam = phase_field(cfg, grid, scale=cfg.anomaly_amplitude)
        div = lattice.divergence(grid, ansatz_field.anomalous_current(lam, cfg.coupling))
        return lattice.max_abs(div - anomaly_divergence_expansion(lam, cfg.coupling))
    return _refine(cfg, cfg.divergence_grids, gap)


def covariance_order(cfg: config.ScenarioConfig) -> lattice.OrderEstimate:
    """‖F[A'] - U F[A] U^-1‖ under refinement for a seeded smooth pair, one
    (mu, nu) component of F[A'] and of F[A] at a time."""
    def gap(grid):
        F, g, rng = ansatz_field.field_strength_matrix, cfg.coupling, np.random.default_rng(cfg.seed)
        A = smooth_matrix_potential(grid, rng, cfg.smooth_amp)
        U = smooth_group_field(grid, rng, cfg.smooth_amp)
        Ap = su2_algebra.gauge_transform(grid, A, U, g)
        return max_over_pairs(lambda mu, nu: su2_algebra.max_norm(
            F(grid, Ap, g, mu, nu) - su2_algebra.rotate(U, F(grid, A, g, mu, nu))))
    return _refine(cfg, cfg.covariance_grids, gap)


def pure_gauge_order(cfg: config.ScenarioConfig) -> lattice.OrderEstimate:
    """‖F‖ of a discretized pure-gauge potential under refinement, one
    (mu, nu) component of F at a time."""
    def gap(grid):
        g, rng = cfg.coupling, np.random.default_rng(cfg.seed + 1)
        A = su2_algebra.pure_gauge_field(grid, smooth_group_field(grid, rng, cfg.smooth_amp), g)
        return max_over_pairs(lambda mu, nu: su2_algebra.max_norm(
            ansatz_field.field_strength_matrix(grid, A, g, mu, nu)))
    return _refine(cfg, cfg.pure_gauge_grids, gap)


def single_axis_pure_gauge(grid: lattice.Grid4, g: float, a: int = 3):
    """Closed-form pure-gauge pair: U with winding 2 along axis 1.

    Returns (U, A, expected_A1_coefficient), U and A as su2_algebra
    coefficients kept along axis 1 only. The group element must wind an
    even number of half-turns to be periodic on the axis (odd windings
    flip sign across the boundary seam), and the stencil turns the
    continuum coefficient -1 into -sin(h)/h exactly.
    """
    xs = grid.coords()
    rho = np.zeros((grid.dims[0], 1, 1, 1, 3))
    rho[..., a - 1] = 2.0 * xs[0]
    U = su2_algebra.su2_exp(rho)
    A = su2_algebra.pure_gauge_field(grid, U, g)
    coeff = -math.sin(grid.h) / grid.h / g
    return U, A, coeff


# ---------------------------------------------------------------------------
# limits of the judged checks, by row name: a float bounds a measured gap
# (for the two sampled-ratio rows, the slack over the certified bound); a
# pair is (centre, half-width) for the order and slope rows, which pass
# when |x - centre| <= half-width, and (lo, hi) for the two ratio windows

LIMITS = {
    "pauli_commutators": 1e-15,
    "group_exponential_unitarity": 1e-12,
    "field_strength_identity": 1e-12,
    "lagrangian_identity": 1e-10,
    "refinement_order": (2.0, 0.3),  # every row judging a *_order study
    "pure_gauge_closed_form": 1e-12,
    "gauge_transform_identity": 1e-15,
    "residual_contraction_equivalence": 1e-10,
    "residual_gauge_fixed_equivalence": 1e-10,
    "anomalous_current_identity": 1e-12,
    # the current vanishes like eps^2, the wave operator of the profile like eps
    "vacuum_scaling_slopes": ((2.0, 0.1), (1.0, 0.1)),
    "noether_gradient_cancellation": 1e-12,
    "quadratic_divergence_scaling": (3.8, 4.2),
    "fixed_point_residual": 1e-15,
    "lipschitz_sampled": 1e-12,
    "banach_convergence": 1e-9,
    "chart_shrink_factor": (3.6, 4.4),
    "operator_coefficient_modulus": 1e-15,
    "observable_spectrum": 1e-12,
}


def _near(x, limit) -> bool:
    centre, half_width = limit
    return x is not None and abs(x - centre) <= half_width


def _span(limit) -> list:
    """The [lo, hi] a (centre, half-width) limit admits, as the report prints it."""
    centre, half_width = limit
    return [centre - half_width, centre + half_width]


class Run:
    """One command's scenario, its report, and the inputs its checks share.

    Each shared input is built on first use and kept until the run is
    dropped, so the checks that read it pay for it once.
    """

    def __init__(self, command: str, cfg: config.ScenarioConfig):
        self.cfg = cfg
        self.grid = cfg.grid()
        self.report = report.RunReport(command, cfg.to_dict(), errata=list(bundle.ERRATA))

    def judge(self, name: str, ok: bool, **details) -> None:
        self.report.add(name, report.PASS if ok else report.FAIL, **details)

    def bounded(self, name: str, key: str, value: float, **details) -> None:
        """Row `name` passes when `value`, reported as `key`, is within its tolerance."""
        tol = LIMITS[name]
        self.judge(name, value <= tol, **{key: value}, tolerance=tol, **details)

    def order(self, name: str, est: lattice.OrderEstimate) -> None:
        limit = LIMITS["refinement_order"]
        self.judge(name, _near(est.order, limit), order=est.order, spacings=est.spacings,
                   errors=est.errors, window=_span(limit))

    @cached_property
    def phase(self) -> ansatz_field.LambdaField:
        """The scenario phase field on the working grid."""
        return phase_field(self.cfg, self.grid)

    @cached_property
    def field_strength(self) -> ansatz_field.FieldStrength:
        return ansatz_field.field_strength_ansatz(self.phase)

    @cached_property
    def anomaly_fields(self):
        """(current, its lattice divergence, the product-rule expansion, the
        closed form) at the anomaly amplitude; the phase field itself is not
        kept, so it is gone before the divergence ladder runs."""
        g = self.cfg.coupling
        lam = phase_field(self.cfg, self.grid, scale=self.cfg.anomaly_amplitude)
        j = ansatz_field.anomalous_current(lam, g)
        return (j, lattice.divergence(self.grid, j), anomaly_divergence_expansion(lam, g),
                ansatz_field.anomaly_divergence_closed_form(lam, g))

    @cached_property
    def contraction_map(self) -> contraction.ContractionMap:
        return contraction.ContractionMap(self.cfg.contraction_center, self.cfg.contraction_n)

    @cached_property
    def banach_start(self) -> np.ndarray:
        """The contraction center moved by banach_offset along axis 1."""
        offset = np.array([self.cfg.banach_offset, 0.0, 0.0, 0.0])
        return self.contraction_map.center_array + offset

    @cached_property
    def banach_trace(self) -> contraction.IterationTrace:
        """Raises contraction.NonConvergenceError when the iteration stalls."""
        return contraction.banach_iterate(self.contraction_map, self.banach_start,
                                          tol=self.cfg.banach_tol)

    @cached_property
    def pipeline(self) -> bundle.ReductionReport:
        cfg = self.cfg
        centers = [cfg.contraction_center]
        if cfg.reduce_centers == 2:
            centers.append(cfg.second_center)
        return bundle.reduction_pipeline(centers, cfg.collapse_schedule, cfg.coupling,
                                         cfg.pauli_index, collapse_tol=cfg.collapse_tol,
                                         seed=cfg.seed)


# ---------------------------------------------------------------------------
# verify


def pauli_commutators(run: Run) -> None:
    """[s_a, s_b] against 2i eps_abc s_c for all nine pairs at once."""
    P = su2_algebra.PAULI
    want = 2j * np.einsum("abc,cij->abij", su2_algebra.EPSILON, P)
    got = P[:, None] @ P[None, :] - P[None, :] @ P[:, None]
    run.bounded("pauli_commutators", "max_error", lattice.max_abs(got - want))


def group_exponential_unitarity(run: Run) -> None:
    rho = np.random.default_rng(run.cfg.seed).uniform(-np.pi, np.pi, size=(64, 3))
    defect = su2_algebra.unitarity_defect(su2_algebra.group_matrices(su2_algebra.su2_exp(rho)))
    run.bounded("group_exponential_unitarity", "max_defect", defect, samples=64)


def field_strength_routes(run: Run) -> None:
    """The ansatz form against the analytic route on the working grid, then
    the order at which the raw-stencil route closes on the analytic one."""
    F = run.field_strength
    ident = max_over_pairs(lambda mu, nu: lattice.max_abs(
        F.component(mu, nu) - ansatz_field.field_strength_direct(run.phase, mu, nu)))
    anti = F.antisymmetry_defect()
    tol = LIMITS["field_strength_identity"]
    run.judge("field_strength_identity", ident <= tol and anti <= tol,
              max_error=ident, antisymmetry_defect=anti, tolerance=tol)
    run.order("field_strength_raw_order", raw_field_strength_order(run.cfg))


def lagrangian_identity(run: Run) -> None:
    defect = ansatz_field.lagrangian_density(run.phase).identity_defect()
    run.bounded("lagrangian_identity", "relative_defect", defect)


def covariance_order_window(run: Run) -> None:
    run.order("gauge_covariance_order", covariance_order(run.cfg))


def pure_gauge_order_window(run: Run) -> None:
    run.order("pure_gauge_order", pure_gauge_order(run.cfg))


def pure_gauge_closed_form(run: Run) -> None:
    """The closed-form pure gauge on 8^4, then the identity transform of it."""
    g = run.cfg.coupling
    small = lattice.Grid4.cubic(8, run.cfg.box_length, run.cfg.metric)
    _, A, coeff = single_axis_pure_gauge(small, g, run.cfg.pauli_index)
    dev = su2_algebra.max_norm(A[0] - coeff * np.eye(4)[run.cfg.pauli_index])
    rest = su2_algebra.max_norm(A[1:])
    fdev = max_over_pairs(lambda mu, nu: su2_algebra.max_norm(
        ansatz_field.field_strength_matrix(small, A, g, mu, nu)))
    tol = LIMITS["pure_gauge_closed_form"]
    run.judge("pure_gauge_closed_form", all(v <= tol for v in (dev, rest, fdev)),
              coefficient=coeff, max_deviation=dev, other_components=rest,
              field_strength_max=fdev, tolerance=tol)
    ident_u = np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 1, 1, 1, 4)
    moved = su2_algebra.gauge_transform(small, A, ident_u, g)
    run.bounded("gauge_transform_identity", "max_deviation", su2_algebra.max_norm(moved - A))


def residual_routes(run: Run) -> None:
    """The full residual against the contraction route and the gauge-fixed form."""
    g = run.cfg.coupling
    full = ansatz_field.field_equation_residual_full(run.phase, g)
    gap = lattice.max_abs(full - residual_contraction_route(run.phase, g))
    run.bounded("residual_contraction_equivalence", "max_gap", gap)
    fixed = ansatz_field.field_equation_residual(run.phase, g, mode=ansatz_field.ANALYTIC)
    gap = lattice.max_abs(full - fixed)
    gc = ansatz_field.gauge_condition_check(run.phase)
    tol = LIMITS["residual_gauge_fixed_equivalence"]
    run.judge("residual_gauge_fixed_equivalence", gap <= tol and gc.satisfied,
              max_gap=gap, gauge_violation=max(gc.per_component), tolerance=tol)


def anomalous_current_identity(run: Run) -> None:
    g, f, F = run.cfg.coupling, run.phase.profile, run.field_strength
    j = ansatz_field.anomalous_current(run.phase, g)
    contracted = -1j * g * np.stack([
        sum(np.multiply(f[m - 1], F.component(m, n)) for m in range(1, 5)) for n in range(1, 5)
    ])
    run.bounded("anomalous_current_identity", "max_gap", lattice.max_abs(j - contracted))


def vacuum_limit(run: Run) -> None:
    """Exact zeros of the zero field, then the small-amplitude scan: its
    scaling slopes and the Noether current at its first amplitude."""
    g = run.cfg.coupling
    zero = ansatz_field.LambdaField.zero(run.grid)
    zvals = {
        "profile_minus_one": lattice.max_abs(zero.profile - 1.0),
        "field_strength": ansatz_field.field_strength_ansatz(zero).max_abs(),
        "lagrangian": lattice.max_abs(ansatz_field.lagrangian_density(zero).values),
        "noether_current": lattice.max_abs(ansatz_field.noether_current(zero)),
        "anomalous_current": lattice.max_abs(ansatz_field.anomalous_current(zero, g)),
        "residual": lattice.max_abs(ansatz_field.field_equation_residual(zero, g)),
    }
    run.judge("vacuum_exact_zeros", all(v == 0.0 for v in zvals.values()), **zvals)
    vac = ansatz_field.vacuum_report(gradient_base_field(run.cfg, run.grid),
                                     run.cfg.scaling_amplitudes, g)
    quadratic, linear = LIMITS["vacuum_scaling_slopes"]
    run.judge("vacuum_scaling_slopes",
              _near(vac.slope_current, quadratic) and _near(vac.slope_box_profile, linear),
              slope_current=vac.slope_current, slope_box_profile=vac.slope_box_profile,
              quadratic_window=_span(quadratic), linear_window=_span(linear),
              gauge_mismatch=vac.gauge_mismatch, notes=vac.notes)
    run.bounded("noether_gradient_cancellation", "max_norm", vac.entries[0].noether_max,
                note="symmetric second derivatives cancel the divergence-form"
                     " current on gradient phase fields")


# ---------------------------------------------------------------------------
# anomaly


def divergence_records(run: Run) -> None:
    """The divergence of the current against its expansion and the closed form."""
    j, div, expansion, closed = run.anomaly_fields
    run.report.add("divergence_summary", report.RECORDED,
                   current_max=lattice.max_abs(j), divergence_max=lattice.max_abs(div),
                   expansion_gap=lattice.max_abs(div - expansion),
                   amplitude=run.cfg.anomaly_amplitude)
    run.report.add("closed_form_divergence_discrepancy", report.RECORDED,
                   discrepancy=lattice.max_abs(div - closed),
                   closed_form_max=lattice.max_abs(closed),
                   note="reported, not asserted; the lattice divergence of the"
                        " current is the ground truth")


def divergence_accounting_order_window(run: Run) -> None:
    run.order("divergence_accounting_order", divergence_accounting_order(run.cfg))


def quadratic_divergence_scaling(run: Run) -> None:
    cfg, grid = run.cfg, run.grid
    base = gradient_base_field(cfg, grid)
    eps = cfg.scaling_amplitudes[-2]  # the config holds at least two
    j1 = ansatz_field.anomalous_current(base.scaled(eps), cfg.coupling)
    d1 = lattice.max_abs(lattice.divergence(grid, j1))
    j2 = ansatz_field.anomalous_current(base.scaled(2 * eps), cfg.coupling)
    d2 = lattice.max_abs(lattice.divergence(grid, j2))
    ratio = d2 / d1 if d1 > 0 else float("inf")
    window = LIMITS["quadratic_divergence_scaling"]
    run.judge("quadratic_divergence_scaling", window[0] <= ratio <= window[1],
              eps=eps, ratio=ratio, window=list(window))


def vacuum_zero_current(run: Run) -> None:
    zero = ansatz_field.LambdaField.zero(run.grid)
    zj = ansatz_field.anomalous_current(zero, run.cfg.coupling)
    zc = ansatz_field.anomaly_divergence_closed_form(zero, run.cfg.coupling)
    zd = lattice.divergence(run.grid, zj)
    maxima = {"current_max": lattice.max_abs(zj), "divergence_max": lattice.max_abs(zd),
              "closed_form_max": lattice.max_abs(zc)}
    run.judge("vacuum_zero_current", all(v == 0.0 for v in maxima.values()), **maxima)


# ---------------------------------------------------------------------------
# contract


def contraction_validity(run: Run) -> bool | None:
    """Ends the command when the map is not a certified contraction, so a
    secondary fixed point is never reported as success."""
    cert = contraction.contraction_validity(run.contraction_map)
    if not cert.valid:
        run.report.add("contraction_validity", report.FAIL, certificate_status="INVALID",
                       **cert.to_dict())
        for name in ("fixed_point_residual", "lipschitz_sampled", "banach_convergence",
                     "large_scale_limit"):
            run.report.add(name, report.SKIPPED, reason="map is not a certified contraction")
        return True
    run.report.add("contraction_validity", report.PASS, certificate_status="VALID",
                   **cert.to_dict())


def fixed_point_residual(run: Run) -> None:
    m = run.contraction_map
    resid = float(np.linalg.norm(contraction.evaluate(m, m.center_array) - m.center_array))
    run.bounded("fixed_point_residual", "residual", resid)


def lipschitz_sampled(run: Run) -> None:
    m = run.contraction_map
    est = contraction.lipschitz_estimate(m, m.center_array, 1.0 / m.n,
                                         pairs=run.cfg.lipschitz_pairs, seed=run.cfg.seed)
    slack = LIMITS["lipschitz_sampled"]
    run.judge("lipschitz_sampled", est.ratio_max <= est.bound + slack,
              ratio_max=est.ratio_max, bound=est.bound, pairs=est.pairs, slack=slack)


def banach_convergence(run: Run) -> bool | None:
    """Ends the command when the iteration does not converge."""
    try:
        trace = run.banach_trace
    except contraction.NonConvergenceError as exc:
        run.report.add("banach_convergence", report.FAIL, error=str(exc))
        return True
    bound = run.contraction_map.lipschitz_bound
    slack = LIMITS["banach_convergence"]
    ratio_max = float(trace.ratios.max()) if trace.ratios.size else None
    run.judge("banach_convergence",
              trace.converged and (ratio_max is None or ratio_max <= bound + slack),
              steps=trace.steps, ratio_max=ratio_max, measured_ratio=trace.measured_ratio,
              error_bound=trace.error_bound, bound=bound, slack=slack,
              tolerance=run.cfg.banach_tol)


def large_scale_limit(run: Run) -> None:
    series = contraction.limit_large_n(run.contraction_map.center, run.banach_start,
                                       run.cfg.collapse_schedule)
    run.judge("large_scale_limit", series.decreasing,
              ns=list(series.ns), deviations=list(series.deviations))


# ---------------------------------------------------------------------------
# reduce


def pipeline_stages(run: Run) -> None:
    """One row per pipeline stage; a failing one keeps the stage's own status."""
    for stage in run.pipeline.stages:
        if stage.status in ("PASS", "CONSISTENT"):
            run.report.add(f"stage_{stage.name}", report.PASS, **stage.details)
        else:
            run.report.add(f"stage_{stage.name}", report.FAIL, stage_status=stage.status,
                           **stage.details)


def chart_collapse_per_center(run: Run) -> None:
    """Diameter bound, shrink factor and threshold rows for each center."""
    window = LIMITS["chart_shrink_factor"]
    for idx, col in enumerate(run.pipeline.collapse):
        rows = col.rows
        shrink = [
            rows[i].sampled_diameter / rows[i + 1].sampled_diameter
            for i in range(len(rows) - 1)
            if rows[i + 1].sampled_diameter > 0
        ]
        run.judge(f"chart_diameter_bound_{idx}",
                  all(r.sampled_diameter <= 2.0 * r.sup_bound for r in rows),
                  center=list(col.center), ns=[r.n for r in rows],
                  sampled=[r.sampled_diameter for r in rows],
                  bounds=[2.0 * r.sup_bound for r in rows])
        run.judge(f"chart_shrink_factor_{idx}", all(window[0] <= r <= window[1] for r in shrink),
                  ratios=shrink, window=list(window))
        n_t = col.threshold_n
        cn = float(np.linalg.norm(col.center))
        crossing = cn / n_t**2 < col.tol and (n_t == 1 or cn / (n_t - 1) ** 2 >= col.tol)
        run.judge(f"collapse_threshold_{idx}", crossing, threshold_n=n_t, tol=col.tol)


def reduced_operator(run: Run) -> None:
    """Coefficient moduli and observable spectrum of the operator, when one was emitted."""
    op = run.pipeline.operator
    if op is None:
        return
    dev = max(abs(abs(c) - run.cfg.coupling) for c in op.coefficients)
    run.bounded("operator_coefficient_modulus", "max_deviation", dev, coupling=run.cfg.coupling)
    dev = max(abs(op.eigenvalues[0] + 0.5), abs(op.eigenvalues[1] - 0.5))
    run.bounded("observable_spectrum", "max_deviation", dev, eigenvalues=list(op.eigenvalues))


COMMANDS = {
    "verify": (
        "pauli_commutators", "group_exponential_unitarity", "field_strength_routes",
        "lagrangian_identity", "covariance_order_window", "pure_gauge_order_window",
        "pure_gauge_closed_form", "residual_routes", "anomalous_current_identity",
        "vacuum_limit",
    ),
    "anomaly": (
        "divergence_records", "divergence_accounting_order_window",
        "quadratic_divergence_scaling", "vacuum_zero_current",
    ),
    "contract": (
        "contraction_validity", "fixed_point_residual", "lipschitz_sampled",
        "banach_convergence", "large_scale_limit",
    ),
    "reduce": ("pipeline_stages", "chart_collapse_per_center", "reduced_operator"),
}
