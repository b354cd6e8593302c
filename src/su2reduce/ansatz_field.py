"""Quantities derived from the phase ansatz A_mu = exp(-i lambda_mu).

lambda is a four-component real lattice field. Its componentwise complex
exponential, the gauge profile f = exp(-i lambda), stands in for the
potential; because the components are scalars the commutator term of the
field strength drops and everything reduces to products of the profile
with the phase gradients G[m, n] = d_n lambda_m.

A LambdaField computes f and G once, on first use, and keeps them as
`profile` and `gradients`; every quantity here reads those two arrays.
The field is stored only along the axes its waves vary (length 1 on the
others), and so is every array derived from it; broadcasting stands in
for the repeats.
Second derivatives are formed where they are used, one component at a
time, and are not kept.

Only the ansatz form of F_mu_nu is built whole (`FieldStrength`); the
routes compared with it return one (mu, nu) component per call, and a
study drops each component before building the next.

Derivatives of the profile come in two flavours:

* "analytic": d_nu f_mu is evaluated as -i f_mu d_nu lambda_mu, which
  makes the chain rule an exact lattice identity, so algebraically equal
  expressions agree to rounding;
* "raw": the central stencil applied directly to the profile values, an
  independent discretization that agrees with "analytic" to O(h^2).

Repeated derivatives of lambda are compositions of the central first
difference, so mixed partials commute exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import lattice, su2_algebra

ANALYTIC = "analytic"
RAW = "raw"

# componentwise gauge condition d_mu lambda_mu is treated as satisfied
# below this max-norm
GAUGE_TOL = 1e-10


def _check_mode(mode: str) -> str:
    if mode not in (ANALYTIC, RAW):
        raise ValueError(f"derivative mode must be {ANALYTIC!r} or {RAW!r}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class Mode:
    """One trigonometric wave in a phase-field recipe.

    component  which lambda component (1..4) the wave feeds
    cycles     integer wave counts per axis; the wavevector is
               2 pi cycles_d / L_d, always commensurate with the grid
    amplitude  prefactor
    phase      phase offset in radians
    """

    component: int
    cycles: tuple[int, int, int, int]
    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.component not in (1, 2, 3, 4):
            raise ValueError(f"component must be 1..4, got {self.component}")
        cyc = tuple(int(c) for c in self.cycles)
        if len(cyc) != 4 or any(c != float(r) for c, r in zip(self.cycles, cyc)):
            raise ValueError(f"cycles must be four integers, got {self.cycles}")
        object.__setattr__(self, "cycles", cyc)
        if not (math.isfinite(self.amplitude) and math.isfinite(self.phase)):
            raise ValueError("amplitude and phase must be finite")


def gradient_wave_modes(grid: lattice.Grid4, cycles, amplitude: float, phase: float = 0.0) -> list[Mode]:
    """Modes realizing lambda = grad of the scalar wave amplitude*sin(k.x + phase).

    Phase fields assembled this way make the two terms of the anomalous
    current cancel at leading order in the amplitude, which is what the
    small-amplitude scaling checks rely on. The cancellation stays exact
    on the lattice when the nonzero entries of `cycles` share one
    magnitude (each axis then carries the same discrete wave factor).
    """
    cycles = tuple(int(c) for c in cycles)
    modes = []
    for mu in range(1, 5):
        if cycles[mu - 1] == 0:
            continue
        k_mu = 2.0 * math.pi * cycles[mu - 1] / grid.length(mu)
        modes.append(Mode(mu, cycles, amplitude * k_mu, phase + 0.5 * math.pi))
    if not modes:
        raise ValueError("gradient wave needs at least one nonzero cycle count")
    return modes


@dataclass(frozen=True)
class LambdaField:
    """Real four-component phase field on a Grid4, shaped (4, *shape).

    shape      per axis, dims[d] where the field varies and 1 where it
               does not; numpy broadcasting stands in for the repeats
    profile    f = exp(-i lambda), complex (4, *shape)
    gradients  G[m-1, n-1] = d_n lambda_m, real (4, 4, *shape)

    Both are computed on first access and kept for the life of the field.
    """

    grid: lattice.Grid4
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 5 or v.shape[0] != 4:
            raise lattice.GridMismatchError(f"expected shape (4, s1, s2, s3, s4), got {v.shape}")
        lattice.check_field(self.grid, v[0])
        if not np.all(np.isfinite(v)):
            raise ValueError("phase field must be finite")
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.values.shape[1:]

    @cached_property
    def profile(self) -> np.ndarray:
        return build_profile(self)

    @cached_property
    def gradients(self) -> np.ndarray:
        return phase_gradients(self)

    @classmethod
    def zero(cls, grid: lattice.Grid4) -> "LambdaField":
        return cls(grid, np.zeros((4, 1, 1, 1, 1)))

    @classmethod
    def from_modes(cls, grid: lattice.Grid4, modes) -> "LambdaField":
        """The sum of the modes, kept along the axes where any mode has a nonzero cycle."""
        modes = list(modes)
        vals = np.zeros((4,) + tuple(n if any(m.cycles[d] for m in modes) else 1
                                     for d, n in enumerate(grid.dims)))
        xs = grid.coords()
        for m in modes:
            arg = m.phase
            for d in range(4):
                if m.cycles[d]:
                    arg = arg + (2.0 * math.pi * m.cycles[d] / grid.length(d + 1)) * xs[d]
            vals[m.component - 1] += m.amplitude * np.sin(arg)
        return cls(grid, vals)

    def scaled(self, eps: float) -> "LambdaField":
        return LambdaField(self.grid, eps * self.values)


def build_profile(lam: LambdaField) -> np.ndarray:
    """The unit-modulus profile exp(-i lambda); read it as `lam.profile`.

    cos lambda and -sin lambda go straight into its real and imaginary
    planes: no complex copy of lambda is made."""
    out = np.empty(lam.values.shape, dtype=complex)
    np.cos(lam.values, out=out.real)
    np.sin(lam.values, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def phase_gradients(lam: LambdaField) -> np.ndarray:
    """All first differences G[m-1, n-1] = d_n lambda_m, shaped (4, 4, *lam.shape);
    read them as `lam.gradients`."""
    out = np.empty((4, 4) + lam.shape)
    for m in range(4):
        for n in range(4):
            out[m, n] = lattice.partial(lam.grid, lam.values[m], n + 1)
    return out


# the independent (mu, nu) pairs of an antisymmetric tensor, in storage order
PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


@dataclass(frozen=True)
class FieldStrength:
    """The ansatz tensor F_mu_nu, antisymmetric and scalar valued per point.

    Only the six independent components are stored: values[k] holds
    F_mu_nu for (mu, nu) = PAIRS[k], so values has shape (6, *lam.shape).
    `component` supplies the mirrored entries by sign and the zero
    diagonal. The routes it is compared with (field_strength_direct,
    field_strength_matrix) return one component per call instead.
    """

    grid: lattice.Grid4
    values: np.ndarray

    def component(self, mu: int, nu: int) -> np.ndarray:
        if mu == nu:
            return np.zeros_like(self.values[0])
        if mu < nu:
            return self.values[PAIRS.index((mu, nu))]
        return -self.values[PAIRS.index((nu, mu))]

    def max_abs(self) -> float:
        return lattice.max_abs(self.values)

    def antisymmetry_defect(self) -> float:
        """max |F_mu_nu + F_nu_mu| over all ordered pairs; zero by construction of the storage."""
        return max(
            lattice.max_abs(self.component(m, n) + self.component(n, m))
            for m in range(1, 5)
            for n in range(m, 5)
        )


def field_strength_ansatz(lam: LambdaField) -> FieldStrength:
    """F_mu_nu = i (f_mu d_nu lambda_mu - f_nu d_mu lambda_nu).

    This is the closed form the phase ansatz gives for the commutator-free
    field strength; it involves only phase gradients, so no derivative of
    the profile itself is taken and no evaluation mode applies.
    """
    f, G = lam.profile, lam.gradients
    F = np.empty((6,) + lam.shape, dtype=complex)
    for k, (mu, nu) in enumerate(PAIRS):
        m, n = mu - 1, nu - 1
        F[k] = 1j * (f[m] * G[m, n] - f[n] * G[n, m])
    return FieldStrength(lam.grid, F)


def field_strength_direct(lam: LambdaField, mu: int, nu: int, mode: str = ANALYTIC) -> np.ndarray:
    """The component d_mu f_nu - d_nu f_mu, from the profile itself.

    The components are scalars, so the commutator term vanishes
    identically; `mode` selects how d f is evaluated, "analytic" as
    d_mu f_nu = -i f_nu d_mu lambda_nu. Matrix potentials go through
    field_strength_matrix.
    """
    _check_mode(mode)
    f, m, n = lam.profile, mu - 1, nu - 1
    if mode == ANALYTIC:
        G = lam.gradients
        return -1j * f[n] * G[n, m] - (-1j * f[m] * G[m, n])
    return lattice.partial(lam.grid, f[n], mu) - lattice.partial(lam.grid, f[m], nu)


def field_strength_matrix(grid: lattice.Grid4, A: np.ndarray, g: float, mu: int,
                          nu: int) -> np.ndarray:
    """The component d_mu A_nu - d_nu A_mu + i g [A_mu, A_nu] of a potential in
    su2_algebra coefficients, shaped (*s, 4) for A shaped (4, *s, 4); the commutator
    moves a only."""
    g = su2_algebra.check_coupling(g)
    A = su2_algebra._check_matrix_field(grid, A, components=True)
    F = np.subtract(lattice.partial(grid, A[nu - 1], mu), lattice.partial(grid, A[mu - 1], nu),
                    out=su2_algebra.empty_coefficients(A.shape[1:-1]))
    F[..., 1:] += su2_algebra.commutator(A[mu - 1], A[nu - 1], g)
    return F


@dataclass(frozen=True)
class LagrangianDensity:
    """Expanded quadratic form and its field-strength reference, per point.

    Both are complex: the profile squares are unit-modulus phases, not
    positive weights.
    """

    grid: lattice.Grid4
    values: np.ndarray
    from_field_strength: np.ndarray

    def identity_defect(self) -> float:
        scale = max(1.0, lattice.max_abs(self.from_field_strength))
        return lattice.max_abs(self.values - self.from_field_strength) / scale


def lagrangian_density(lam: LambdaField) -> LagrangianDensity:
    """Quarter-sum over ordered pairs of the expanded field-strength square.

    values            (1/4) sum_{mu,nu} [ f_mu^2 (d_nu lam_mu)^2
                      + f_nu^2 (d_mu lam_nu)^2
                      - 2 f_mu f_nu d_nu lam_mu d_mu lam_nu ]
    from_field_strength   -(1/4) sum_{mu,nu} F_mu_nu F_mu_nu
    """
    f, G = lam.profile, lam.gradients
    vals = np.zeros(lam.shape, dtype=complex)
    for m in range(4):
        for n in range(4):
            vals += (
                f[m] ** 2 * G[m, n] ** 2
                + f[n] ** 2 * G[n, m] ** 2
                - 2.0 * f[m] * f[n] * G[m, n] * G[n, m]
            )
    vals *= 0.25
    F = field_strength_ansatz(lam)
    ref = -0.25 * sum(F.component(m, n) ** 2 for m in range(1, 5) for n in range(1, 5))
    return LagrangianDensity(lam.grid, vals, ref)


def noether_current(lam: LambdaField) -> np.ndarray:
    """j_nu = sum_mu f_nu [ (d_mu lam_nu)^2 - d_nu lam_mu d_mu lam_nu ]."""
    f, G = lam.profile, lam.gradients
    out = np.zeros((4,) + lam.shape, dtype=complex)
    for n in range(4):
        for m in range(4):
            out[n] += f[n] * (G[n, m] ** 2 - G[m, n] * G[n, m])
    return out


def anomalous_current(lam: LambdaField, g: float) -> np.ndarray:
    """j_nu = g sum_mu f_mu (f_mu d_nu lam_mu - f_nu d_mu lam_nu).

    Free index nu, summed mu; identical to -i g sum_mu f_mu F_mu_nu with
    the ansatz field strength. Evaluated as g [ sum_mu f_mu^2 d_nu lam_mu
    - f_nu sum_mu f_mu d_mu lam_nu ], one square f_mu^2 at a time.
    """
    g = su2_algebra.check_coupling(g)
    f, G = lam.profile, lam.gradients
    out = np.zeros((4,) + lam.shape, dtype=complex)
    buf = np.empty(lam.shape, dtype=complex)
    for m in range(4):
        np.multiply(f[m], f[m], out=buf)
        for n in range(4):
            out[n] += buf * G[m, n]
    for n in range(4):
        np.multiply(f[0], G[n, 0], out=buf)
        for m in (1, 2, 3):
            buf += f[m] * G[n, m]
        buf *= f[n]
        out[n] -= buf
    out *= g
    return out


def anomaly_divergence_closed_form(lam: LambdaField, g: float) -> np.ndarray:
    """Closed-form non-conservation expression, evaluated verbatim.

    g sum_{mu,nu} exp(-i(lam_mu + lam_nu)) [ i (d_mu lam_nu)^2 - d_mu^2 lam_nu ]

    The second derivative is the composed central stencil. The lattice
    divergence of the anomalous current is the ground truth; callers are
    expected to record the gap between the two rather than assert it away.
    """
    g = su2_algebra.check_coupling(g)
    f, G = lam.profile, lam.gradients
    out = np.zeros(lam.shape, dtype=complex)
    for m in range(4):
        for n in range(4):
            d2 = lattice.partial(lam.grid, G[n, m], m + 1)
            out += g * f[m] * f[n] * (1j * G[n, m] ** 2 - d2)
    return out


@dataclass(frozen=True)
class GaugeConditionReport:
    """Componentwise and summed diagnostics for d_mu lambda_mu."""

    per_component: tuple[float, float, float, float]
    summed_max: float
    satisfied: bool


def gauge_condition_check(lam: LambdaField, tol: float = GAUGE_TOL) -> GaugeConditionReport:
    """Max-norms of each d_mu lambda_mu (no sum) and of their sum.

    The componentwise reading is the one the residual identities rely on;
    the summed scalar is reported alongside for reference.
    """
    G = lam.gradients
    per = tuple(lattice.max_abs(G[m, m]) for m in range(4))
    summed = lattice.max_abs(G[0, 0] + G[1, 1] + G[2, 2] + G[3, 3])
    return GaugeConditionReport(per, summed, all(p <= tol for p in per))


def _box_profile_analytic(lam: LambdaField, n: int) -> np.ndarray:
    """Chain-rule wave operator on profile component n (0-based)."""
    f, G = lam.profile, lam.gradients
    out = np.zeros(lam.shape, dtype=complex)
    for m in range(4):
        d2 = lattice.partial(lam.grid, G[n, m], m + 1)
        out += -f[n] * G[n, m] ** 2 - 1j * f[n] * d2
    return out


def field_equation_residual(lam: LambdaField, g: float, mode: str = ANALYTIC) -> np.ndarray:
    """R_nu = box(f_nu) - j_nu, the gauge-fixed equation of motion.

    Valid as an equation of motion only under the componentwise gauge
    condition; a warning is emitted when the input violates it. In
    analytic mode the wave operator is the exact chain-rule expansion
    (composed central stencils); in raw mode it is the compact stencil
    applied to the profile values.
    """
    g = su2_algebra.check_coupling(g)
    _check_mode(mode)
    rep = gauge_condition_check(lam)
    if not rep.satisfied:
        warnings.warn(
            "componentwise gauge condition violated "
            f"(max |d_mu lam_mu| = {max(rep.per_component):.3e}); "
            "the residual is not the equation of motion for this field",
            stacklevel=2,
        )
    j = anomalous_current(lam, g)
    out = np.empty((4,) + lam.shape, dtype=complex)
    for n in range(4):
        if mode == ANALYTIC:
            boxf = _box_profile_analytic(lam, n)
        else:
            boxf = lattice.box(lam.grid, lam.profile[n])
        out[n] = boxf - j[n]
    return out


def field_equation_residual_full(lam: LambdaField, g: float) -> np.ndarray:
    """Expanded equation of motion, no gauge condition assumed.

    R_nu = sum_mu [ f_mu d_mu lam_mu d_nu lam_mu
                    - f_nu (d_mu lam_nu)^2
                    + i f_mu d_nu d_mu lam_mu
                    - i f_nu d_mu d_mu lam_nu
                    - g f_mu (f_mu d_nu lam_mu - f_nu d_mu lam_nu) ]

    Term for term this is the contraction sum_mu (d_mu + i g f_mu) F_mu_nu
    with the chain rule applied, overall factor exactly 1 (re-derived
    symbolically in tests/test_symbolic.py). Under the componentwise
    gauge condition the first and third terms vanish and the expression
    collapses to box(f_nu) - j_nu.
    """
    g = su2_algebra.check_coupling(g)
    grid = lam.grid
    f, G = lam.profile, lam.gradients
    out = np.zeros((4,) + lam.shape, dtype=complex)
    for n in range(4):
        for m in range(4):
            out[n] += (
                f[m] * G[m, m] * G[m, n]
                - f[n] * G[n, m] ** 2
                + 1j * f[m] * lattice.partial(grid, G[m, m], n + 1)
                - 1j * f[n] * lattice.partial(grid, G[n, m], m + 1)
                - g * f[m] * (f[m] * G[m, n] - f[n] * G[n, m])
            )
    return out


@dataclass(frozen=True)
class VacuumEntry:
    eps: float
    profile_defect: float
    current_max: float
    noether_max: float
    residual_max: float
    box_lambda_max: float
    box_profile_max: float
    goldstone_gap: tuple[float, float, float]


@dataclass(frozen=True)
class VacuumReport:
    """Small-amplitude decoupling study for a base phase field.

    The current must vanish quadratically in the amplitude while the wave
    operator of the profile vanishes only linearly: the self-interaction
    switches off faster than the free dynamics. The Goldstone row records
    the gap between the spatial Laplacian of each spatial phase component
    and the real part of the matching current component; it is a
    diagnostic, not an identity, because the time component of the
    profile is not gauged away here (see gauge_mismatch).
    """

    entries: tuple[VacuumEntry, ...]
    slope_current: float | None
    slope_box_profile: float | None
    gauge_mismatch: bool = True
    notes: str = field(
        default="the identification of phase components with free fields assumes a"
        " gauged-away time component; the ansatz keeps it at unit modulus,"
        " so the Goldstone gap is recorded, not asserted"
    )


def vacuum_report(base: LambdaField, eps_seq, g: float) -> VacuumReport:
    """Scan lambda = eps * base over a decreasing amplitude sequence."""
    g = su2_algebra.check_coupling(g)
    eps_list = [float(e) for e in eps_seq]
    if not eps_list:
        raise ValueError("need at least one amplitude")
    if any(e < 0 for e in eps_list):
        raise ValueError("amplitudes must be nonnegative")
    grid = base.grid
    entries = []
    for eps in eps_list:
        lam = base.scaled(eps)
        j = anomalous_current(lam, g)
        jn = noether_current(lam)
        with warnings.catch_warnings():
            # the gauge warning is redundant here: the report itself
            # records the raw norms for every amplitude
            warnings.simplefilter("ignore")
            R = field_equation_residual(lam, g, mode=ANALYTIC)
        box_lam = max(lattice.max_abs(lattice.box(grid, lam.values[m])) for m in range(4))
        box_f = max(lattice.max_abs(lattice.box(grid, lam.profile[m])) for m in range(4))
        gold = tuple(
            lattice.max_abs(lattice.laplacian_spatial(grid, lam.values[i]) - np.real(j[i]))
            for i in range(3)
        )
        entries.append(
            VacuumEntry(
                eps=eps,
                profile_defect=lattice.max_abs(lam.profile - 1.0),
                current_max=lattice.max_abs(j),
                noether_max=lattice.max_abs(jn),
                residual_max=lattice.max_abs(R),
                box_lambda_max=box_lam,
                box_profile_max=box_f,
                goldstone_gap=gold,
            )
        )
    pos = [(e.eps, e.current_max, e.box_profile_max) for e in entries if e.eps > 0]
    slope_j = slope_bf = None
    if len(pos) >= 2 and all(c > 0 and b > 0 for _, c, b in pos):
        eps_arr = [p[0] for p in pos]
        slope_j = lattice.fit_order(eps_arr, [p[1] for p in pos])
        slope_bf = lattice.fit_order(eps_arr, [p[2] for p in pos])
    return VacuumReport(tuple(entries), slope_j, slope_bf)
