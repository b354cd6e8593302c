"""Quantities derived from the phase ansatz A_mu = exp(-i lambda_mu).

lambda is a four-component real lattice field. Its componentwise complex
exponential, the gauge profile f = exp(-i lambda), stands in for the
potential; because the components are scalars the commutator term of the
field strength drops and everything reduces to products of the profile
with the phase gradients G[m][n] = d_n lambda_m.

A phase field is built from waves, (cycles, amplitude, phase) tuples as
the config holds them, one list per component (`LambdaField.from_waves`).
A LambdaField computes f and G once, on first use, and keeps them as
`profile` and `gradients`; every quantity here reads those two.
Each component lambda_m is stored only along the axes its own waves vary
(length 1 on the others), and so are f_m and every G[m][n]; a quantity
mixing components is formed on the union of their axes, and broadcasting
stands in for the repeats.
Second derivatives are formed where they are used, one component at a
time, and are not kept, except the composed differences the divergence
expansion reads (`second_gradients`), kept on the components' axes.

A field is evaluated slab by slab where a quantity on its `shape` would be
large. `slabs(lam)` cuts it along the first axis its shape varies along
into runs of whole planes, as many as fit in SLAB_POINTS = 2^14 points
(one plane when a plane holds more); a field that fits in one slab is that
one slab, whole. A slab view, `lam.slab(d, start, stop)`, holds views of
the field's values, profile and gradients cut to its planes. Both currents
and the divergence expansion are pointwise in these, so they run on a slab
unchanged; a stencil along d is refused on it.

Every field strength here, the ansatz form and the routes compared with
it, returns one (mu, nu) component per call, and so do both currents,
one nu component on the field's `shape` per call; a check takes its
max-norms, differences and divergences over the components as they are
built and drops each before building the next.

Derivatives of the profile are taken in one of two ways:

* analytic: d_nu f_mu is evaluated as -i f_mu d_nu lambda_mu, which
  makes the chain rule an exact lattice identity, so algebraically equal
  expressions agree to rounding (field_strength_direct and every other
  quantity here);
* raw: the central stencil applied directly to the profile values, an
  independent discretization that agrees with the analytic one to O(h^2)
  (field_strength_raw).

Repeated derivatives of lambda are compositions of the central first
difference, so mixed partials commute exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattice, su2_algebra

# componentwise gauge condition d_mu lambda_mu is treated as satisfied
# below this max-norm
GAUGE_TOL = 1e-10


def gradient_waves(grid: lattice.Grid4, recipe) -> list[list[tuple]]:
    """The waves of lambda = grad of the sum of amplitude * sin(k.x + phase) over
    the recipe's (cycles, amplitude, phase) scalar waves: per component mu, the
    waves of d_mu of each scalar wave along mu, in recipe order.

    Phase fields assembled this way make the two terms of the anomalous
    current cancel at leading order in the amplitude, which is what the
    small-amplitude scaling checks rely on. The cancellation stays exact
    on the lattice when each wave's nonzero cycles share one magnitude
    (each axis then carries the same discrete wave factor).
    """
    waves = [[], [], [], []]
    for cycles, amplitude, phase in recipe:
        if not any(cycles):
            raise ValueError("gradient wave needs at least one nonzero cycle count")
        for mu, c in enumerate(cycles):
            if c:
                k_mu = 2.0 * math.pi * c / grid.length(mu + 1)
                waves[mu].append((cycles, amplitude * k_mu, phase + 0.5 * math.pi))
    return waves


def wave_sum(grid: lattice.Grid4, waves) -> np.ndarray:
    """The sum of amplitude * sin(phase + sum_d (2 pi cycles_d / L_d) x_d) over the
    (cycles, amplitude, phase) waves, in the order given, with integer cycles; it is
    kept along the axes where some wave has a nonzero cycle (length 1 on the others)."""
    waves, xs = list(waves), grid.coords()
    v = np.zeros(tuple(n if any(c[d] for c, _, _ in waves) else 1 for d, n in enumerate(grid.dims)))
    for cycles, amplitude, phase in waves:
        arg = phase
        for d in range(4):
            if cycles[d]:
                arg = arg + (2.0 * math.pi * cycles[d] / grid.length(d + 1)) * xs[d]
        v += amplitude * np.sin(arg)
    return v


@dataclass(frozen=True)
class LambdaField:
    """Real four-component phase field on a Grid4: four arrays, one per lambda_m.

    values     per component, dims[d] on an axis where lambda_m varies and
               1 on the others; numpy broadcasting stands in for the repeats
    shape      the union of the four components' axes, the shape of every
               quantity that mixes components
    profile    f_m = exp(-i lambda_m), complex, one array per component
    gradients  G[m-1][n-1] = d_n lambda_m, real, on lambda_m's axes
    second_gradients  the pair (d_n G[m][n], d_n G[n][m]) at [m-1][n-1], each on
               its component's axes: the composed differences the divergence
               expansion reads
    source     None for a whole field; (field, d, start, stop) for the slab view
               `field.slab(d, start, stop)`

    The three are computed on first access and kept for the life of the field;
    a slab view's are the same cuts of its field's.
    """

    grid: lattice.Grid4
    values: tuple[np.ndarray, ...]
    source: tuple | None = None

    def __post_init__(self):
        vals = tuple(np.asarray(v, dtype=float) for v in self.values)
        if len(vals) != 4 or any(v.ndim != 4 for v in vals):
            raise lattice.GridMismatchError(
                f"expected four components shaped (s1, s2, s3, s4), got {[v.shape for v in vals]}")
        for v in vals:
            lattice.check_field(self.grid, v, self.slab_axis)
            if not np.all(np.isfinite(v)):
                raise ValueError("phase field must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return np.broadcast_shapes(*(v.shape for v in self.values))

    @property
    def slab_axis(self) -> int | None:
        return None if self.source is None else self.source[1]

    def _cut(self, name: str):
        field, d, start, stop = self.source
        return _planes(getattr(field, name), d, start, stop)

    @cached_property
    def profile(self) -> tuple[np.ndarray, ...]:
        return build_profile(self) if self.source is None else self._cut("profile")

    @cached_property
    def gradients(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return phase_gradients(self) if self.source is None else self._cut("gradients")

    @cached_property
    def second_gradients(self) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...]:
        if self.source is not None:
            return self._cut("second_gradients")
        G = self.gradients
        dd = [[lattice.partial(self.grid, G[m][n], n + 1) for n in range(4)] for m in range(4)]
        return tuple(tuple((dd[m][n], dd[m][m] if m == n else lattice.partial(self.grid, G[n][m], n + 1))
                           for n in range(4)) for m in range(4))

    def slab(self, d: int, start: int, stop: int) -> "LambdaField":
        """The view of planes start..stop-1 along the 0-based axis d; a component that
        does not vary along d stays whole. Its profile and gradients are views of this
        field's, cut the same way; a stencil along d is refused on it."""
        if self.source is not None or d not in range(4) or not 0 <= start < stop <= self.grid.dims[d]:
            raise ValueError(f"a slab is planes start..stop-1, 0 <= start < stop <= n, along an axis "
                             f"0..3 of a whole field, got axis {d}, planes {start}..{stop - 1}")
        return LambdaField(self.grid, _planes(self.values, d, start, stop), (self, d, start, stop))

    @classmethod
    def zero(cls, grid: lattice.Grid4) -> "LambdaField":
        return cls(grid, [np.zeros((1, 1, 1, 1))] * 4)

    @classmethod
    def from_waves(cls, grid: lattice.Grid4, waves) -> "LambdaField":
        """lambda_m = wave_sum of waves[m-1], kept along the axes they vary."""
        return cls(grid, [wave_sum(grid, w) for w in waves])

    def scaled(self, eps: float) -> "LambdaField":
        return LambdaField(self.grid, [eps * v for v in self.values])


def _planes(x, d: int, start: int, stop: int):
    """The view of planes start..stop-1 of x along axis d, or x itself where its length
    there is 1; a tuple is cut entry by entry."""
    if isinstance(x, tuple):
        return tuple(_planes(y, d, start, stop) for y in x)
    return x if x.shape[d] == 1 else x[(slice(None),) * d + (slice(start, stop),)]


# a slab holds whole planes, as many as fit in this many points (at least one)
SLAB_POINTS = 2**14


def slabs(lam: LambdaField):
    """The slab views that cut lam along the first axis d its shape varies along, in
    order, each a run of whole planes holding at most SLAB_POINTS points (one plane when
    a plane holds more); a field that fits in one slab is that one slab, whole."""
    shape = lam.shape
    d = next((d for d, n in enumerate(shape) if n > 1), 0)
    n = shape[d]
    step = max(1, SLAB_POINTS * n // math.prod(shape))
    return [lam.slab(d, k, min(k + step, n)) for k in range(0, n, step)]


def build_profile(lam: LambdaField) -> tuple[np.ndarray, ...]:
    """The unit-modulus profile exp(-i lambda_m) of each component; read it as
    `lam.profile`.

    cos lambda and -sin lambda go straight into its real and imaginary
    planes: no complex copy of lambda is made."""
    profile = []
    for v in lam.values:
        out = np.empty(v.shape, dtype=complex)
        np.cos(v, out=out.real)
        np.sin(v, out=out.imag)
        np.negative(out.imag, out=out.imag)
        profile.append(out)
    return tuple(profile)


def phase_gradients(lam: LambdaField) -> tuple[tuple[np.ndarray, ...], ...]:
    """All first differences G[m-1][n-1] = d_n lambda_m, each on lambda_m's axes;
    read them as `lam.gradients`."""
    return tuple(tuple(lattice.partial(lam.grid, v, n, lam.slab_axis) for n in range(1, 5))
                 for v in lam.values)


# the independent (mu, nu) pairs of an antisymmetric tensor
PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def field_strength_ansatz(lam: LambdaField, mu: int, nu: int) -> np.ndarray:
    """The component F_mu_nu = i (f_mu d_nu lambda_mu - f_nu d_mu lambda_nu), on
    the union of lambda_mu's and lambda_nu's axes.

    This is the closed form the phase ansatz gives for the commutator-free
    field strength; it involves only phase gradients, so no derivative of
    the profile itself is taken.
    """
    f, G, m, n = lam.profile, lam.gradients, mu - 1, nu - 1
    return 1j * (f[m] * G[m][n] - f[n] * G[n][m])


def field_strength_direct(lam: LambdaField, mu: int, nu: int) -> np.ndarray:
    """The component d_mu f_nu - d_nu f_mu, from the profile itself.

    The components are scalars, so the commutator term vanishes
    identically; d f is evaluated analytically, d_mu f_nu =
    -i f_nu d_mu lambda_nu. Matrix potentials go through
    field_strength_matrix.
    """
    f, G, m, n = lam.profile, lam.gradients, mu - 1, nu - 1
    return -1j * f[n] * G[n][m] - (-1j * f[m] * G[m][n])


def field_strength_raw(lam: LambdaField, mu: int, nu: int) -> np.ndarray:
    """The same component with the central stencil applied to the profile
    values; it agrees with field_strength_direct to O(h^2)."""
    f, m, n = lam.profile, mu - 1, nu - 1
    grid, d = lam.grid, lam.slab_axis
    return lattice.partial(grid, f[n], mu, d) - lattice.partial(grid, f[m], nu, d)


def field_strength_matrix(grid: lattice.Grid4, A, g: float, mu: int, nu: int,
                          stencils=(None, None)) -> np.ndarray:
    """The component d_mu A_nu - d_nu A_mu + i g [A_mu, A_nu] of a potential in
    su2_algebra coefficients, shaped (*s, 4) on the union of A_mu's and A_nu's
    axes; the commutator moves a only. `stencils` may give d_mu A_nu and d_nu A_mu
    already taken (None: taken here), for a caller that slices a potential into
    planes and takes a stencil that is the same on every plane once; those are only
    read. F is formed in the buffer of a stencil taken here that has F's shape."""
    g = su2_algebra.check_coupling(g)
    A = su2_algebra.check_matrix_field(grid, A, components=True)
    shape = np.broadcast_shapes(A[mu - 1].shape, A[nu - 1].shape)
    d = [lattice.partial(grid, A[c - 1], m) if x is None else x for x, c, m in zip(stencils, (nu, mu), (mu, nu))]
    own = [x for x, given in zip(d, stencils) if given is None and x.shape == shape]
    F = np.subtract(*d, out=own[0] if own else None)
    return su2_algebra.commutator(A[mu - 1], A[nu - 1], g, F)


def lagrangian_density(lam: LambdaField) -> tuple[np.ndarray, np.ndarray]:
    """Quarter-sum over ordered pairs of the expanded field-strength square,
    and its field-strength reference, per point: (expanded, reference).

    expanded    (1/4) sum_{mu,nu} [ f_mu^2 (d_nu lam_mu)^2
                + f_nu^2 (d_mu lam_nu)^2
                - 2 f_mu f_nu d_nu lam_mu d_mu lam_nu ]
    reference   -(1/4) sum_{mu,nu} F_mu_nu F_mu_nu

    Both are complex: the profile squares are unit-modulus phases, not
    positive weights.
    """
    f, G = lam.profile, lam.gradients
    vals = np.zeros(lam.shape, dtype=complex)
    for m in range(4):
        for n in range(4):
            vals += (
                f[m] ** 2 * G[m][n] ** 2
                + f[n] ** 2 * G[n][m] ** 2
                - 2.0 * f[m] * f[n] * G[m][n] * G[n][m]
            )
    vals *= 0.25
    ref = -0.25 * sum(field_strength_ansatz(lam, m, n) ** 2 for m in range(1, 5) for n in range(1, 5))
    return vals, ref


def noether_current(lam: LambdaField, nu: int) -> np.ndarray:
    """The component j_nu = sum_mu f_nu [ (d_mu lam_nu)^2 - d_nu lam_mu d_mu lam_nu ],
    on lam.shape."""
    f, G, n = lam.profile, lam.gradients, nu - 1
    out = np.zeros(lam.shape, dtype=complex)
    for m in range(4):
        out += f[n] * (G[n][m] ** 2 - G[m][n] * G[n][m])
    return out


def anomalous_current(lam: LambdaField, g: float, nu: int) -> np.ndarray:
    """The component j_nu = g sum_mu f_mu (f_mu d_nu lam_mu - f_nu d_mu lam_nu),
    on lam.shape.

    Summed mu; identical to -i g sum_mu f_mu F_mu_nu with the ansatz field
    strength. Evaluated as g [ sum_mu f_mu^2 d_nu lam_mu
    - f_nu sum_mu f_mu d_mu lam_nu ], one square f_mu^2 at a time.
    """
    g = su2_algebra.check_coupling(g)
    f, G, n = lam.profile, lam.gradients, nu - 1
    out = np.zeros(lam.shape, dtype=complex)
    for m in range(4):
        sq = f[m] * f[m]
        out += sq * G[m][n]
    buf = np.multiply(f[0], G[n][0], out=np.empty(lam.shape, dtype=complex))
    for m in (1, 2, 3):
        buf += f[m] * G[n][m]
    buf *= f[n]
    out -= buf
    out *= g
    return out


def anomaly_divergence_closed_form(lam: LambdaField, g: float) -> np.ndarray:
    """Closed-form non-conservation expression, evaluated verbatim.

    g sum_{mu,nu} exp(-i(lam_mu + lam_nu)) [ i (d_mu lam_nu)^2 - d_mu^2 lam_nu ]

    The second derivative is the composed central stencil d_mu G[nu][mu], read from
    `second_gradients`, so a slab view takes it too. The lattice divergence of the
    anomalous current is the ground truth; callers are expected to record the gap
    between the two rather than assert it away.
    """
    g = su2_algebra.check_coupling(g)
    f, G, DG = lam.profile, lam.gradients, lam.second_gradients
    out = np.zeros(lam.shape, dtype=complex)
    for m in range(4):
        for n in range(4):
            out += g * f[m] * f[n] * (1j * G[n][m] ** 2 - DG[n][m][0])
    return out


def gauge_condition_check(lam: LambdaField) -> tuple[float, float, float, float]:
    """Max-norms of each d_mu lambda_mu (no sum); the condition holds when
    each is at most GAUGE_TOL.

    The componentwise reading is the one the residual identities rely on.
    """
    G = lam.gradients
    return tuple(lattice.max_abs(G[m][m]) for m in range(4))


def _box_profile_analytic(lam: LambdaField, n: int) -> np.ndarray:
    """Chain-rule wave operator on profile component n (0-based), on its axes."""
    f, G = lam.profile, lam.gradients
    out = np.zeros(f[n].shape, dtype=complex)
    for m in range(4):
        d2 = lattice.partial(lam.grid, G[n][m], m + 1, lam.slab_axis)
        out += -f[n] * G[n][m] ** 2 - 1j * f[n] * d2
    return out


def field_equation_residual(lam: LambdaField, g: float) -> np.ndarray:
    """R_nu = box(f_nu) - j_nu, the gauge-fixed equation of motion.

    Valid as an equation of motion only under the componentwise gauge
    condition; a warning is emitted when the input violates it. The wave
    operator is the "analytic" chain-rule expansion (composed central
    stencils); the compact stencil on the profile values agrees to O(h^2).
    """
    g = su2_algebra.check_coupling(g)
    per = gauge_condition_check(lam)
    if not all(p <= GAUGE_TOL for p in per):
        warnings.warn(
            "componentwise gauge condition violated "
            f"(max |d_mu lam_mu| = {np.max(per):.3e}); "
            "the residual is not the equation of motion for this field",
            stacklevel=2,
        )
    out = np.empty((4,) + lam.shape, dtype=complex)
    for n in range(4):
        out[n] = _box_profile_analytic(lam, n) - anomalous_current(lam, g, n + 1)
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
                f[m] * G[m][m] * G[m][n]
                - f[n] * G[n][m] ** 2
                + 1j * f[m] * lattice.partial(grid, G[m][m], n + 1, lam.slab_axis)
                - 1j * f[n] * lattice.partial(grid, G[n][m], m + 1, lam.slab_axis)
                - g * f[m] * (f[m] * G[m][n] - f[n] * G[n][m])
            )
    return out


def current_max(current, lam: LambdaField, *args) -> float:
    """The max-norm of the four components of current(lam, *args, nu), each built on one
    slab at a time: a max is exact and np.max keeps a nan from any slab or component."""
    return float(np.max([lattice.max_abs(current(part, *args, nu)) for part in slabs(lam) for nu in range(1, 5)]))


def vacuum_report(base: LambdaField, eps_seq, g: float) -> tuple[float | None, float | None, float]:
    """Scan lambda = eps * base over a decreasing amplitude sequence:
    (slope_current, slope_box_profile, noether_max at the first amplitude).

    The current must vanish quadratically in the amplitude while the wave
    operator of the profile vanishes only linearly: the self-interaction
    switches off faster than the free dynamics. The slopes are None unless
    at least two positive amplitudes give positive maxima. No free-field
    equation for the phase components is evaluated, because the time
    component of the profile is not gauged away here.
    """
    g = su2_algebra.check_coupling(g)
    eps_list = [float(e) for e in eps_seq]
    if not eps_list:
        raise ValueError("need at least one amplitude")
    if any(e < 0 for e in eps_list):
        raise ValueError("amplitudes must be nonnegative")
    grid = base.grid
    first = base.scaled(eps_list[0])
    noether_max = current_max(noether_current, first)
    pos, current, box_profile = [e for e in eps_list if e > 0], [], []
    for eps in pos:
        lam = first if eps == eps_list[0] else base.scaled(eps)
        current.append(current_max(anomalous_current, lam, g))
        box_profile.append(float(np.max([lattice.max_abs(lattice.box(grid, f)) for f in lam.profile])))
    if len(pos) < 2 or not all(c > 0 and b > 0 for c, b in zip(current, box_profile)):
        return None, None, noether_max
    return lattice.fit_order(pos, current), lattice.fit_order(pos, box_profile), noether_max
