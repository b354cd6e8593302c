"""The judged checks of the four commands, their inputs and their limits.

Scenario builders and refinement studies come first. The field recipes
are deliberately resolution-independent: a recipe plus a grid size
determines the field, so refinement ladders sample the same continuum
object at every resolution and the measured orders mean what they claim.
A recipe is a list of (cycles, amplitude, phase) waves, as the config
holds them; each matrix study draws its random recipes once, and every
rung sums them with `ansatz_field.wave_sum`.

`verify` draws its seeded recipes and samples from `_draws.Generator`, an
in-repo copy of numpy's SeedSequence -> PCG64 stream for the three draws it
makes, so it never imports `numpy.random` (about 5.5 MB a process). `contract`
and `reduce` keep `np.random.default_rng`: they draw numpy's ziggurat
`standard_normal`, which `_draws` does not copy, hence two draw paths. The
in-repo stream also keeps `verify`'s frozen values fixed if a later numpy
changes its `Generator` stream, as NEP 19 allows; tests/test_draws.py then fails.

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

from . import _draws, ansatz_field, bundle, config, contraction, lattice, report, su2_algebra


def phase_field(cfg: config.ScenarioConfig, grid: lattice.Grid4,
                scale: float = 1.0) -> ansatz_field.LambdaField:
    """The scenario's main phase field on the given grid."""
    return ansatz_field.LambdaField.from_waves(grid, [
        [(cyc, scale * amp, ph) for comp, (cyc, amp, ph) in zip(cfg.phase_components, cfg.phase_waves)
         if comp == m] for m in range(1, 5)])


def gradient_base_field(cfg: config.ScenarioConfig, grid: lattice.Grid4) -> ansatz_field.LambdaField:
    """Unit-amplitude gradient-wave base for the small-amplitude scans."""
    return ansatz_field.LambdaField.from_waves(grid, ansatz_field.gradient_waves(grid, cfg.gradient_waves))


def smooth_waves(rng, amp: float) -> list[tuple]:
    """A random low-harmonic scalar's recipe for ansatz_field.wave_sum: two single-axis
    unit waves, each drawn as axis, sign, phase, then amplitude factor. Content is kept
    at |cycles| = 1 so products of these fields stay resolvable on the coarse ends of
    the refinement ladders. `verify` passes a `_draws.Generator`, the in-repo PCG64;
    numpy's default_rng of the same seed draws the same recipe."""
    draws = [(int(rng.integers(0, 4)), -1 if rng.random() < 0.5 else 1,
              rng.uniform(0.0, 2.0 * math.pi), amp * rng.uniform(0.3, 1.0)) for _ in range(2)]
    return [(tuple(sign if d == axis else 0 for d in range(4)), a, ph) for axis, sign, ph, a in draws]


def smooth_group_field(grid: lattice.Grid4, waves) -> np.ndarray:
    """Smooth SU(2) field from three scalar angles drawn by smooth_waves, as
    su2_algebra coefficients shaped (*s, 4), kept along the union of the angles' axes."""
    rho = np.moveaxis(np.stack(np.broadcast_arrays(*[ansatz_field.wave_sum(grid, w)
                                                     for w in waves])), 0, -1)
    return su2_algebra.su2_exp(rho)


def smooth_matrix_potential(grid: lattice.Grid4, waves) -> tuple[np.ndarray, ...]:
    """Smooth potential a.sigma spanning all three internal directions (s = 0),
    from twelve scalars drawn by smooth_waves, (mu, a) in row-major order, as
    four su2_algebra coefficient components A_mu shaped (*s_mu, 4), each kept
    along the union of its own three scalars' axes."""
    scalars = [ansatz_field.wave_sum(grid, w) for w in waves]
    return tuple(np.moveaxis(np.stack(np.broadcast_arrays(0.0, *scalars[k:k + 3])), 0, -1)
                 for k in (0, 3, 6, 9))


def _refine(cfg: config.ScenarioConfig, ladder, gap) -> lattice.OrderEstimate:
    """Order of gap(grid) over the cubic grids with n points per axis, n in ladder.

    Each rung's fields are gone before the next rung builds its own. The
    order is None when an error is not finite or below the smallest normal
    float (zero, or subnormal with its precision lost): no fit exists.
    """
    grids = [lattice.Grid4.cubic(n, cfg.box_length) for n in ladder]
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
        lam = phase_field(cfg, grid)
        return max_over_pairs(lambda mu, nu: lattice.max_abs(
            ansatz_field.field_strength_direct(lam, mu, nu)
            - ansatz_field.field_strength_raw(lam, mu, nu)))
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
    a complex buffer on the axes of its factors holds P_mu - 2i Q_mu, then
    each bracket of S_nu. Re-derived symbolically in tests/test_symbolic.py;
    f factors are exact and lambda derivatives are composed central
    stencils, so the gap to the raw lattice divergence of the current is
    O(h^2).
    """
    g = su2_algebra.check_coupling(g)
    f, G, DG = lam.profile, lam.gradients, lam.second_gradients
    out = np.zeros(lam.shape, dtype=complex)
    for m in range(4):
        P, Q = DG[m][0][0].copy(), G[m][0] ** 2
        for n in (1, 2, 3):
            P += DG[m][n][0]
            Q += G[m][n] ** 2
        buf = P.astype(complex)
        buf.imag = -2.0 * Q
        out += f[m] * f[m] * buf
    for n in range(4):
        S = np.zeros(lam.shape, dtype=complex)
        for m in range(4):
            im = G[n][m] * (G[m][n] + G[n][n])
            buf = np.empty(im.shape, dtype=complex)
            buf.real, buf.imag = -DG[m][n][1], im
            S += buf * f[m]
        out += S * f[n]
    out *= g
    return out


def residual_contraction_route(lam: ansatz_field.LambdaField, g: float) -> np.ndarray:
    """sum_mu (d_mu + i g f_mu) F_mu_nu, assembled from the field strength.

    An independent route to the equation-of-motion residual: each ansatz
    field-strength component is contracted as it is built, with the chain
    rule carrying the derivative onto its factors. Agrees with the
    expanded five-term residual to rounding.
    """
    g = su2_algebra.check_coupling(g)
    grid = lam.grid
    f, G = lam.profile, lam.gradients
    out = np.zeros((4,) + lam.shape, dtype=complex)
    for n in range(4):
        for m in range(4):
            dF = 1j * (
                -1j * f[m] * G[m][m] * G[m][n]
                + f[m] * lattice.partial(grid, G[m][n], m + 1, lam.slab_axis)
                + 1j * f[n] * G[n][m] ** 2
                - f[n] * lattice.partial(grid, G[n][m], m + 1, lam.slab_axis)
            )
            out[n] += dF + 1j * g * f[m] * ansatz_field.field_strength_ansatz(lam, m + 1, n + 1)
    return out


def current_divergence(lam: ansatz_field.LambdaField, current, gap) -> list:
    """[gap(slab, the lattice divergence of the current on it)] for each slab of
    ansatz_field.slabs(lam), in order: the package's one lattice divergence of a current.
    current(part, mu) is the component j_mu on the slab view part, on part.shape.
    Each slab's divergence is a function of that slab alone, dropped inside gap
    before the next slab's is built.

    Along the slab axis d the stencil also reads j_d's planes on either side of the
    slab, (start - 1) % n and stop % n, which current gives on those one-plane slab
    views. The four partials d_mu j_mu are added in the order mu = 1..4.
    """
    grid, parts = lam.grid, ansatz_field.slabs(lam)
    d = parts[0].slab_axis
    n = lam.shape[d]

    def term(part, mu):  # d_mu j_mu on the slab part
        if mu != d + 1:
            return lattice.partial(grid, current(part, mu), mu, d)
        _, _, start, stop = part.source
        below, above = (current(lam.slab(d, k % n, k % n + 1), mu) for k in (start - 1, stop))
        return lattice.halo_partial(grid, current(part, mu), mu, below, above)

    def taken(part):
        div = term(part, 1)
        for mu in (2, 3, 4):
            div += term(part, mu)
        return gap(part, div)
    return [taken(part) for part in parts]


def anomaly_fields(lam: ansatz_field.LambdaField, g: float):
    """(the anomalous current stacked, its lattice divergence, the product-rule
    expansion, the closed form) of lam. Each current component is built once, whole;
    the divergence is current_divergence's slabs joined along their axis, each slab
    reading its planes of the stacked current."""
    j = np.stack([ansatz_field.anomalous_current(lam, g, nu) for nu in range(1, 5)])

    def planes(part, mu):  # j_mu cut to the slab view part
        _, d, start, stop = part.source
        return j[mu - 1][(slice(None),) * d + (slice(start, stop),)]
    div = np.concatenate(current_divergence(lam, planes, lambda part, div: div),
                         axis=ansatz_field.slabs(lam)[0].slab_axis)
    return j, div, anomaly_divergence_expansion(lam, g), ansatz_field.anomaly_divergence_closed_form(lam, g)


def divergence_accounting_order(cfg: config.ScenarioConfig) -> lattice.OrderEstimate:
    """Lattice divergence of the current vs the product-rule expansion.

    Uses the scenario phase field at the anomaly amplitude; the two
    evaluations differ only in where the stencils act (on the assembled
    current vs on its expanded factors), so the gap closes at order 2.
    Both are taken one slab at a time, the expansion from the composed
    differences of the whole field.
    """
    def gap(grid):
        lam = phase_field(cfg, grid, scale=cfg.anomaly_amplitude)
        return float(np.max(current_divergence(
            lam, lambda part, mu: ansatz_field.anomalous_current(part, cfg.coupling, mu),
            lambda part, div: lattice.max_abs(
                np.subtract(div, anomaly_divergence_expansion(part, cfg.coupling), out=div)))))
    return _refine(cfg, cfg.divergence_grids, gap)


def covariance_order(cfg: config.ScenarioConfig) -> lattice.OrderEstimate:
    """‖F[A'] - U F[A] U^-1‖ under refinement for a seeded smooth pair, one
    (mu, nu) component of F[A'] and of F[A] at a time; each rung builds U's
    rotation R once, and each gap in place.

    A gap whose planes along d, the first axis other than mu and nu, hold at least
    2^12 points is taken one plane at a time: A, A' and R are sliced at each index
    along d (a field of length 1 there passes whole), and np.max keeps a nan from any
    plane. F_mu_nu differentiates only along mu and nu, so each point's arithmetic is
    unchanged; only max_norm's scale is per plane. A smaller gap is one plane, the
    whole field. A stencil of a component that misses d is the same on every plane
    and is taken once per gap. Each plane's F[A'] is formed in a stencil's buffer, and
    R F[A] is subtracted from it one coefficient at a time. A rung holds A and R, and
    holds an A'_mu = R A_mu + P_mu that fills a split rung as P_mu (its gaps form it on
    each plane), one that fills an unsplit rung whole, and one that misses an axis not
    at all: each gap that reads it forms it whole, from U, which the rung keeps only then.
    """
    rng = _draws.Generator(cfg.seed)
    waves = [smooth_waves(rng, cfg.smooth_amp) for _ in range(15)]
    # Split from 2^12 points, the 16^4 rung's planes: run whole, its dense gaps' n^4
    # temporaries set the study's peak. The 12^4 rung's gaps stay below the 24^4
    # rung's split peak, so splitting them too would not lower the study's peak,
    # and would move the 12^4 error by 1 ulp (max_norm's scale is per plane).
    split = 2**12

    def gap(grid):
        F, g = ansatz_field.field_strength_matrix, cfg.coupling
        A = smooth_matrix_potential(grid, waves[:12])
        U = smooth_group_field(grid, waves[12:])
        shapes = [np.broadcast_shapes(U.shape[:-1], a.shape[:-1]) for a in A]  # A'_mu's axes
        planewise = [s == grid.dims and math.prod(s[1:]) >= split for s in shapes]
        P = [su2_algebra.pure_gauge_field(grid, U, g, mu) if w else None for mu, w in enumerate(planewise, 1)]
        R = su2_algebra.rotation(U)

        def transformed(c):  # A'_mu, c = mu - 1, whole, from U
            return su2_algebra.transform_component(R, A[c], su2_algebra.pure_gauge_field(grid, U, g, c + 1))
        # None: formed on each plane from P_mu, or by each gap that reads it
        held = [transformed(c) if shapes[c] == grid.dims and not planewise[c] else None for c in range(4)]
        U = U if any(s != grid.dims for s in shapes) else None

        def norm(mu, nu):
            i, j = mu - 1, nu - 1
            Ap = [transformed(c) if c in (i, j) and shapes[c] != grid.dims else held[c] for c in range(4)]
            d = min({0, 1, 2, 3} - {i, j})  # the free axis whose planes have the longest runs
            shape = np.broadcast_shapes(shapes[i], shapes[j])
            n = shape[d]
            step = 1 if math.prod(shape) >= split * n else n

            def cut(x, lead, k):
                return x if x.shape[lead + d] == 1 else x[(slice(None),) * (lead + d) + (slice(k, k + step),)]

            def strength(whole, plane):
                """k -> F_mu_nu on plane k of the potential whose component c there is
                plane(c, k); a stencil of a held component whole[c] that misses d is
                the same on every plane of a split gap, so it is taken here, once."""
                fixed = [lattice.partial(grid, whole[c], m) if step < n and whole[c] is not None
                         and whole[c].shape[d] == 1 else None for c, m in ((j, mu), (i, nu))]
                return lambda k: F(grid, [plane(c, k) for c in range(4)], g, mu, nu, fixed)

            def prime(c, k):  # plane k of A'_mu, c = mu - 1, formed here if the gap does not hold it
                return cut(Ap[c], 0, k) if Ap[c] is not None else su2_algebra.transform_component(
                    cut(R, 2, k), cut(A[c], 0, k), cut(P[c], 0, k))

            # F reads only A'_mu and A'_nu: A's planes fill the two other slots
            FAp = strength(Ap, lambda c, k: prime(c, k) if c in (i, j) else cut(A[c], 0, k))
            # an F[A] that misses an axis holds at most a plane's points: built once
            FA = F(grid, A, g, mu, nu) if 1 in np.broadcast_shapes(A[i].shape, A[j].shape) else None
            FAk = strength(A, lambda c, k: cut(A[c], 0, k)) if FA is None else lambda k: cut(FA, 0, k)
            return np.max([su2_algebra.max_norm(su2_algebra.subtract_rotated(FAp(k), cut(R, 2, k), FAk(k)))
                           for k in range(0, n, step)])
        return max_over_pairs(norm)
    return _refine(cfg, cfg.covariance_grids, gap)


def pure_gauge_order(cfg: config.ScenarioConfig) -> lattice.OrderEstimate:
    """‖F‖ of a discretized pure-gauge potential under refinement, one
    (mu, nu) component of F at a time."""
    rng = _draws.Generator(cfg.seed + 1)
    waves = [smooth_waves(rng, cfg.smooth_amp) for _ in range(3)]

    def gap(grid):
        g, U = cfg.coupling, smooth_group_field(grid, waves)
        A = tuple(su2_algebra.pure_gauge_field(grid, U, g, mu) for mu in range(1, 5))
        return max_over_pairs(lambda mu, nu: su2_algebra.max_norm(
            ansatz_field.field_strength_matrix(grid, A, g, mu, nu)))
    return _refine(cfg, cfg.pure_gauge_grids, gap)


def single_axis_pure_gauge(grid: lattice.Grid4, g: float, a: int = 3):
    """Closed-form pure-gauge pair: U with winding 2 along axis 1.

    Returns (U, A, expected_A1_coefficient), U and A's four components as
    su2_algebra coefficients kept along axis 1 only. The group element must
    wind an even number of half-turns to be periodic on the axis (odd windings
    flip sign across the boundary seam), and the stencil turns the
    continuum coefficient -1 into -sin(h)/h exactly.
    """
    xs = grid.coords()
    rho = np.zeros((grid.dims[0], 1, 1, 1, 3))
    rho[..., a - 1] = 2.0 * xs[0]
    U = su2_algebra.su2_exp(rho)
    A = tuple(su2_algebra.pure_gauge_field(grid, U, g, mu) for mu in range(1, 5))
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
        # reduce's (coefficients, observable eigenvalues), once its last stage passes
        self.operator = None

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
    def anomaly_fields(self):
        """anomaly_fields of the phase field at the anomaly amplitude; the phase
        field itself is not kept, so it is gone before the divergence ladder runs."""
        return anomaly_fields(phase_field(self.cfg, self.grid, scale=self.cfg.anomaly_amplitude), self.cfg.coupling)

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

    @property
    def centers(self) -> list:
        """The chart centers reduce collapses: the contraction center, then
        the second center when reduce_centers is 2."""
        return [self.cfg.contraction_center, self.cfg.second_center][:self.cfg.reduce_centers]


# ---------------------------------------------------------------------------
# verify


def pauli_commutators(run: Run) -> None:
    """[s_a, s_b] against 2i eps_abc s_c for all nine pairs at once."""
    P = su2_algebra.PAULI
    want = 2j * np.einsum("abc,cij->abij", su2_algebra.EPSILON, P)
    got = P[:, None] @ P[None, :] - P[None, :] @ P[:, None]
    run.bounded("pauli_commutators", "max_error", lattice.max_abs(got - want))


def group_exponential_unitarity(run: Run) -> None:
    rho = _draws.Generator(run.cfg.seed).uniform(-np.pi, np.pi, size=(64, 3))
    defect = su2_algebra.unitarity_defect(su2_algebra.group_matrices(su2_algebra.su2_exp(rho)))
    run.bounded("group_exponential_unitarity", "max_defect", defect, samples=64)


def field_strength_routes(run: Run) -> None:
    """The ansatz form against the analytic route on the working grid, and
    against its own mirrored component F_nu_mu, then the order at which the
    raw-stencil route closes on the analytic one."""
    F, lam = ansatz_field.field_strength_ansatz, run.phase
    ident = max_over_pairs(lambda mu, nu: lattice.max_abs(
        F(lam, mu, nu) - ansatz_field.field_strength_direct(lam, mu, nu)))
    anti = max_over_pairs(lambda mu, nu: lattice.max_abs(F(lam, mu, nu) + F(lam, nu, mu)))
    tol = LIMITS["field_strength_identity"]
    run.judge("field_strength_identity", ident <= tol and anti <= tol,
              max_error=ident, antisymmetry_defect=anti, tolerance=tol)
    run.order("field_strength_raw_order", raw_field_strength_order(run.cfg))


def lagrangian_identity(run: Run) -> None:
    expanded, reference = ansatz_field.lagrangian_density(run.phase)
    defect = lattice.max_abs(expanded - reference) / max(1.0, lattice.max_abs(reference))
    run.bounded("lagrangian_identity", "relative_defect", defect)


def covariance_order_window(run: Run) -> None:
    run.order("gauge_covariance_order", covariance_order(run.cfg))


def pure_gauge_order_window(run: Run) -> None:
    run.order("pure_gauge_order", pure_gauge_order(run.cfg))


def pure_gauge_closed_form(run: Run) -> None:
    """The closed-form pure gauge on 8^4, then the identity transform of it."""
    g = run.cfg.coupling
    small = lattice.Grid4.cubic(8, run.cfg.box_length)
    _, A, coeff = single_axis_pure_gauge(small, g, run.cfg.pauli_index)
    dev = su2_algebra.max_norm(A[0] - coeff * np.eye(4)[run.cfg.pauli_index])
    rest = su2_algebra.max_norm(np.stack(A[1:]))
    fdev = max_over_pairs(lambda mu, nu: su2_algebra.max_norm(
        ansatz_field.field_strength_matrix(small, A, g, mu, nu)))
    tol = LIMITS["pure_gauge_closed_form"]
    run.judge("pure_gauge_closed_form", all(v <= tol for v in (dev, rest, fdev)),
              coefficient=coeff, max_deviation=dev, other_components=rest,
              field_strength_max=fdev, tolerance=tol)
    ident_u = np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 1, 1, 1, 4)
    moved = su2_algebra.gauge_transform(small, A, ident_u, g)
    run.bounded("gauge_transform_identity", "max_deviation",  # np.max keeps a nan in any component
                float(np.max([su2_algebra.max_norm(m - a) for m, a in zip(moved, A)])))


def residual_routes(run: Run) -> None:
    """The full residual against the contraction route and the gauge-fixed form."""
    g = run.cfg.coupling
    full = ansatz_field.field_equation_residual_full(run.phase, g)
    gap = lattice.max_abs(full - residual_contraction_route(run.phase, g))
    run.bounded("residual_contraction_equivalence", "max_gap", gap)
    fixed = ansatz_field.field_equation_residual(run.phase, g)
    gap = lattice.max_abs(full - fixed)
    per = ansatz_field.gauge_condition_check(run.phase)
    tol = LIMITS["residual_gauge_fixed_equivalence"]
    run.judge("residual_gauge_fixed_equivalence",
              gap <= tol and all(p <= ansatz_field.GAUGE_TOL for p in per),
              max_gap=gap, gauge_violation=float(np.max(per)), tolerance=tol)


def anomalous_current_identity(run: Run) -> None:
    g, lam, F = run.cfg.coupling, run.phase, ansatz_field.field_strength_ansatz

    def gap(n):
        contracted = -1j * g * sum(np.multiply(lam.profile[m - 1], F(lam, m, n)) for m in range(1, 5))
        return lattice.max_abs(ansatz_field.anomalous_current(lam, g, n) - contracted)
    # np.max keeps a nan in any component
    run.bounded("anomalous_current_identity", "max_gap", float(np.max([gap(n) for n in range(1, 5)])))


def vacuum_limit(run: Run) -> None:
    """Exact zeros of the zero field, then the small-amplitude scan: its
    scaling slopes and the Noether current at its first amplitude."""
    g = run.cfg.coupling
    zero = ansatz_field.LambdaField.zero(run.grid)
    zvals = {
        "profile_minus_one": float(np.max([lattice.max_abs(f - 1.0) for f in zero.profile])),
        "field_strength": max_over_pairs(lambda mu, nu: lattice.max_abs(
            ansatz_field.field_strength_ansatz(zero, mu, nu))),
        "lagrangian": lattice.max_abs(ansatz_field.lagrangian_density(zero)[0]),
        "noether_current": ansatz_field.current_max(ansatz_field.noether_current, zero),
        "anomalous_current": ansatz_field.current_max(ansatz_field.anomalous_current, zero, g),
        "residual": lattice.max_abs(ansatz_field.field_equation_residual(zero, g)),
    }
    run.judge("vacuum_exact_zeros", all(v == 0.0 for v in zvals.values()), **zvals)
    slope_j, slope_bf, noether_max = ansatz_field.vacuum_report(
        gradient_base_field(run.cfg, run.grid), run.cfg.scaling_amplitudes, g)
    quadratic, linear = LIMITS["vacuum_scaling_slopes"]
    run.judge("vacuum_scaling_slopes", _near(slope_j, quadratic) and _near(slope_bf, linear),
              slope_current=slope_j, slope_box_profile=slope_bf,
              quadratic_window=_span(quadratic), linear_window=_span(linear),
              gauge_mismatch=True,
              notes="the identification of phase components with free fields assumes a"
                    " gauged-away time component; the ansatz keeps it at unit modulus,"
                    " so no free-field equation is evaluated, only the two scaling slopes")
    run.bounded("noether_gradient_cancellation", "max_norm", noether_max,
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
    d1, d2 = (float(np.max(current_divergence(
        base.scaled(e), lambda part, mu: ansatz_field.anomalous_current(part, cfg.coupling, mu),
        lambda part, div: lattice.max_abs(div)))) for e in (eps, 2 * eps))
    ratio = d2 / d1 if d1 > 0 else float("inf")
    window = LIMITS["quadratic_divergence_scaling"]
    run.judge("quadratic_divergence_scaling", window[0] <= ratio <= window[1],
              eps=eps, ratio=ratio, window=list(window))


def vacuum_zero_current(run: Run) -> None:
    zj, zd, _, zc = anomaly_fields(ansatz_field.LambdaField.zero(run.grid), run.cfg.coupling)
    maxima = {"current_max": lattice.max_abs(zj), "divergence_max": lattice.max_abs(zd),
              "closed_form_max": lattice.max_abs(zc)}
    run.judge("vacuum_zero_current", all(v == 0.0 for v in maxima.values()), **maxima)


# ---------------------------------------------------------------------------
# contract


def contraction_validity(run: Run) -> bool | None:
    """The criterion |center|/n < 1 is not automatic, so it is certified
    here rather than assumed. Ends the command when the map is not a
    certified contraction, so a secondary fixed point is never reported as
    success."""
    m = run.contraction_map
    valid = m.is_contraction
    run.report.add("contraction_validity", report.PASS if valid else report.FAIL,
                   certificate_status="VALID" if valid else "INVALID", valid=valid,
                   bound=m.lipschitz_bound, center=list(m.center), n=m.n)
    if not valid:
        for name in ("fixed_point_residual", "lipschitz_sampled", "banach_convergence",
                     "large_scale_limit"):
            run.report.add(name, report.SKIPPED, reason="map is not a certified contraction")
        return True


def fixed_point_residual(run: Run) -> None:
    m = run.contraction_map
    resid = float(np.linalg.norm(contraction.evaluate(m, m.center_array) - m.center_array))
    run.bounded("fixed_point_residual", "residual", resid)


def lipschitz_sampled(run: Run) -> None:
    m = run.contraction_map
    ratio_max, pairs = contraction.lipschitz_estimate(m, pairs=run.cfg.lipschitz_pairs,
                                                      seed=run.cfg.seed)
    bound, slack = m.lipschitz_bound, LIMITS["lipschitz_sampled"]
    run.judge("lipschitz_sampled", ratio_max <= bound + slack,
              ratio_max=ratio_max, bound=bound, pairs=pairs, slack=slack)


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
    ns = run.cfg.collapse_schedule
    devs = contraction.limit_large_n(run.contraction_map.center, run.banach_start, ns)
    run.judge("large_scale_limit", all(b <= a for a, b in zip(devs, devs[1:])),
              ns=list(ns), deviations=devs)


# ---------------------------------------------------------------------------
# reduce


def pipeline_stages(run: Run) -> None:
    """The reduction's stage rows in order, up to the first that fails; a
    failing row names the stage's own word for it as `stage_status`.

    A chart has collapsed once the final scale reaches its threshold. Each
    final map then fixes its own center bit for bit, so the canonical
    identity section over the singleton is constant. Collapsed charts
    sharing one center glue with identity transition functions; two
    distinct centers are irreconcilable, since a contraction map has
    exactly one fixed point. On the singleton the coordinate one-forms
    vanish, and the pullback coefficients at the fixed point c, -i g times
    the profile exp(-i c_mu) of the constant phase field lambda_mu = c_mu,
    times one Pauli direction, are the reduced operator.
    """
    cfg, centers = run.cfg, run.centers
    final_n = cfg.collapse_schedule[-1]

    def stage(name, ok, word="FAIL", **details) -> bool:
        run.judge(f"stage_{name}", ok, **details, **({} if ok else {"stage_status": word}))
        return ok

    thresholds = [bundle.collapse_threshold(c, cfg.collapse_tol) for c in centers]
    if not stage("chart_collapse", max(thresholds) <= final_n, "NOT_COLLAPSED",
                 threshold_n=thresholds, final_n=final_n):
        return
    final = [contraction.ContractionMap(c, final_n) for c in centers]
    if not stage("constant_sections", all(np.array_equal(contraction.evaluate(m, m.center_array),
                                                         m.center_array) for m in final)):
        return
    distinct = list(dict.fromkeys(centers))
    reason = {} if len(distinct) == 1 else {
        "reason": "collapsed charts retain distinct centers; each contraction has a"
                  " unique fixed point, so the collapsed base cannot be shared"}
    if not stage("transition_consistency", len(distinct) == 1, "INCONSISTENT",
                 centers=[list(c) for c in distinct], **reason):
        return
    fixed = ansatz_field.LambdaField(run.grid, [np.full((1, 1, 1, 1), c) for c in centers[0]])
    coefficients = (-1j * cfg.coupling * np.ravel(fixed.profile)).tolist()
    eigenvalues = np.linalg.eigvalsh(0.5 * su2_algebra.pauli(cfg.pauli_index)).tolist()
    stage("connection", True, one_form_vanishes=True, coefficients=coefficients)
    # Python's complex abs: numpy's can round the last bit of a modulus apart
    stage("reduced_operator", True, coefficients=coefficients, pauli_index=cfg.pauli_index,
          eigenvalues=eigenvalues, coefficient_moduli=[abs(v) for v in coefficients])
    run.operator = coefficients, eigenvalues


def chart_collapse_per_center(run: Run) -> None:
    """Diameter bound, shrink factor and threshold rows for each center.

    A scale's certified bound is |c| / n^2, the sup of |lam(x) - c| over
    its chart; the sampled diameter may reach twice that. The threshold is
    the first scale whose bound sits strictly below collapse_tol.
    """
    ns, tol, window = list(run.cfg.collapse_schedule), run.cfg.collapse_tol, LIMITS["chart_shrink_factor"]
    for idx, c in enumerate(run.centers):
        m = contraction.ContractionMap(c, ns[0])
        cn, sampled = m.center_norm, bundle.collapse_chart(m, ns, run.cfg.seed)
        bounds = [2.0 * (cn / n**2) for n in ns]
        shrink = [a / b for a, b in zip(sampled, sampled[1:]) if b > 0]
        run.judge(f"chart_diameter_bound_{idx}", all(s <= b for s, b in zip(sampled, bounds)),
                  center=list(m.center), ns=ns, sampled=sampled, bounds=bounds)
        run.judge(f"chart_shrink_factor_{idx}", all(window[0] <= r <= window[1] for r in shrink),
                  ratios=shrink, window=list(window))
        n_t = bundle.collapse_threshold(c, tol)
        crossing = cn / n_t**2 < tol and (n_t == 1 or cn / (n_t - 1) ** 2 >= tol)
        run.judge(f"collapse_threshold_{idx}", crossing, threshold_n=n_t, tol=tol)


def reduced_operator(run: Run) -> None:
    """Coefficient moduli and observable spectrum of the operator, when one was emitted."""
    if run.operator is None:
        return
    coefficients, eigenvalues = run.operator
    dev = float(np.max([abs(abs(c) - run.cfg.coupling) for c in coefficients]))
    run.bounded("operator_coefficient_modulus", "max_deviation", dev, coupling=run.cfg.coupling)
    dev = float(np.max([abs(eigenvalues[0] + 0.5), abs(eigenvalues[1] - 0.5)]))
    run.bounded("observable_spectrum", "max_deviation", dev, eigenvalues=eigenvalues)


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
