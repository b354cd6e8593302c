"""Reference values computed by routes independent of the package.

The helpers here deliberately avoid the package's own derivative and
assembly code: matrix exponentials come from a plain power series, and
stencil derivatives of trigonometric modes come from the discrete
dispersion factors (central differences act on a single wave as exact
multipliers, sin(kh)/h for the first difference and -(2 - 2 cos kh)/h^2
for the compact second difference), and the SU(2) algebra is the 2x2
reference: the package's real u(2) coefficients are read as complex
matrices and multiplied entry by entry (`matmul`), with derivatives by np.roll.
Tests compare the package against these at rounding level, except the
raw-stencil residual: it applies the compact second difference by np.roll
to the profile values, and the package's chain-rule residual meets it at
O(h^2). The artifact readers parse the package's CSV and npz files
without its own code. The CSV writer formats the whole field before it
writes a row, and the log-log fit solves by np.polyfit, as the package
did before it wrote one slab and fitted in closed form; `exact_order`
takes that fit's slope without rounding. The ball sampler draws and
places points row by row with np.linalg.norm, as the package did before
its batches were stored coordinate-major. The matrix ladders' smooth
scalar is drawn and summed by the loop the package used before it drew
its recipes as waves.
The coefficient commutator is kept as the whole (..., 3) array the package
formed before it added each coefficient into F; the two must agree bit for bit.
The connection coefficients are the closed form -i g exp(-i c) of the
centre c, which `reduce` reads off the ansatz profile instead. The two
currents and the pure gauge are also kept as the loops that built all
four components at once, before the package built one per call; those
must agree bit for bit.
"""

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np


def series_exp(M, terms=48):
    """Power-series matrix exponential, broadcast over leading axes."""
    M = np.asarray(M, dtype=complex)
    out = np.broadcast_to(np.eye(M.shape[-1], dtype=complex), M.shape).copy()
    term = out.copy()
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


def first_diff_factor(k, h):
    """Multiplier of the central first difference on cos/sin waves: sin(kh)/h."""
    return math.sin(k * h) / h


def second_diff_factor(k, h):
    """Multiplier of the compact second difference: -(2 - 2 cos kh) / h^2."""
    return -(2.0 - 2.0 * math.cos(k * h)) / h**2


def wavevector(grid, cycles):
    """2 pi cycles_d / L_d per axis."""
    return tuple(2.0 * math.pi * c / grid.length(d + 1) for d, c in enumerate(cycles))


def mode_argument(grid, mode):
    """Broadcastable k.x + phase array for one wave."""
    xs = grid.coords()
    ks = wavevector(grid, mode.cycles)
    arg = mode.phase
    for d in range(4):
        if mode.cycles[d]:
            arg = arg + ks[d] * xs[d]
    return np.broadcast_to(arg, grid.dims)


def gradient_table(grid, modes):
    """Closed-form stencil gradients G[m, n] = d_{n+1} lambda_{m+1}.

    The central stencil maps a sin(k.x + phi) onto sin(k_n h)/h times
    cos(k.x + phi) exactly, so the table needs no finite differencing.
    """
    G = np.zeros((4, 4) + grid.dims)
    for mode in modes:
        ks = wavevector(grid, mode.cycles)
        cos_arg = np.cos(mode_argument(grid, mode))
        for n in range(4):
            if mode.cycles[n]:
                G[mode.component - 1, n] += (
                    mode.amplitude * first_diff_factor(ks[n], grid.h) * cos_arg
                )
    return G


def second_table(grid, modes):
    """Composed-stencil second derivatives D2[m, n] = d_n d_n lambda_{m+1}.

    Two central first differences compose to the factor -(sin(k h)/h)^2
    on a sine wave, again exactly.
    """
    D2 = np.zeros((4, 4) + grid.dims)
    for mode in modes:
        ks = wavevector(grid, mode.cycles)
        sin_arg = np.sin(mode_argument(grid, mode))
        for n in range(4):
            if mode.cycles[n]:
                D2[mode.component - 1, n] += (
                    -mode.amplitude * first_diff_factor(ks[n], grid.h) ** 2 * sin_arg
                )
    return D2


def lambda_values(grid, modes):
    """Plain sine superposition, shaped (4, *dims)."""
    vals = np.zeros((4,) + grid.dims)
    for mode in modes:
        vals[mode.component - 1] += mode.amplitude * np.sin(mode_argument(grid, mode))
    return vals


def field_strength_oracle(grid, modes):
    """F[m, n] = i (f_m G[m, n] - f_n G[n, m]) from the closed-form table."""
    lam = lambda_values(grid, modes)
    f = np.exp(-1j * lam)
    G = gradient_table(grid, modes)
    F = np.zeros((4, 4) + grid.dims, dtype=complex)
    for m in range(4):
        for n in range(4):
            F[m, n] = 1j * (f[m] * G[m, n] - f[n] * G[n, m])
    return F


def anomalous_current_oracle(grid, modes, g):
    """j_n = -i g sum_m f_m F[m, n], contracted from the oracle tensor."""
    lam = lambda_values(grid, modes)
    f = np.exp(-1j * lam)
    F = field_strength_oracle(grid, modes)
    return -1j * g * np.einsum("m...,mn...->n...", f, F)


def mixed_table(grid, modes):
    """Composed-stencil derivatives M[c, m, n] = d_{n+1} d_{m+1} lambda_{c+1}: the
    two central first differences compose to -(sin(k_m h)/h)(sin(k_n h)/h) on a
    sine wave, exactly, and to 0 where the wave has no cycle along m or n."""
    M = np.zeros((4, 4, 4) + grid.dims)
    for mode in modes:
        ks = wavevector(grid, mode.cycles)
        sin_arg = np.sin(mode_argument(grid, mode))
        for m in range(4):
            for n in range(4):
                if mode.cycles[m] and mode.cycles[n]:
                    M[mode.component - 1, m, n] += (
                        -mode.amplitude * first_diff_factor(ks[m], grid.h) * first_diff_factor(ks[n], grid.h)
                        * sin_arg
                    )
    return M


def anomaly_divergence_oracle(grid, modes, g):
    """Five-term product-rule divergence of the current from the closed-form tables.

    g sum_{m,n} [ -2i f_m^2 G[m, n]^2 + f_m^2 D2[m, n]
                  + i f_m f_n G[m, n] G[n, m] + i f_m f_n G[n, n] G[n, m]
                  - f_m f_n d_n d_m lambda_n ]

    The last term is the mixed composed difference M[n, m, n] (`mixed_table`);
    for single-axis waves it vanishes when m != n (each wave is constant
    along every other axis), so only D2[n, n] enters, at m == n.
    """
    f = np.exp(-1j * lambda_values(grid, modes))
    G = gradient_table(grid, modes)
    D2 = second_table(grid, modes)
    M = mixed_table(grid, modes)
    out = np.zeros(grid.dims, dtype=complex)
    for m in range(4):
        for n in range(4):
            out += g * (
                -2j * f[m] ** 2 * G[m, n] ** 2
                + f[m] ** 2 * D2[m, n]
                + 1j * f[m] * f[n] * G[m, n] * G[n, m]
                + 1j * f[m] * f[n] * G[n, n] * G[n, m]
                - f[m] * f[n] * M[n, m, n]
            )
    return out


# one wave of a phase-field recipe, with the lambda component (1..4) it feeds
ComponentWave = namedtuple("ComponentWave", "component cycles amplitude phase")


def config_modes(cfg):
    """The scenario's phase waves, each with the component it feeds."""
    return [ComponentWave(c, cyc, amp, ph) for c, (cyc, amp, ph) in zip(cfg.phase_components, cfg.phase_waves)]


def component_waves(modes):
    """The modes as the package takes them: per component 1..4, its own
    (cycles, amplitude, phase) waves in order."""
    return [[(m.cycles, m.amplitude, m.phase) for m in modes if m.component == c] for c in range(1, 5)]


def connection_coefficients(center, g):
    """-i g exp(-i c_mu) per direction: the closed form the reduced operator's
    coefficients must equal bit for bit."""
    return -1j * g * np.exp(-1j * np.asarray(center, dtype=float).reshape(4))


def random_modes(rng, grid, count=3, amp=0.7):
    """Seeded well-conditioned mode set: unit |cycles| on a single axis each."""
    out = []
    for _ in range(count):
        comp = int(rng.integers(1, 5))
        axis = int(rng.integers(0, 4))
        sign = -1 if rng.random() < 0.5 else 1
        cyc = [0, 0, 0, 0]
        cyc[axis] = sign
        out.append(
            ComponentWave(comp, tuple(cyc), amp * float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
        )
    return out


def smooth_scalar(grid, rng, amp, terms=2):
    """Random low-harmonic scalar of `terms` single-axis unit waves, drawn as
    axis, sign, phase, then amplitude factor and summed by a loop of its own:
    the reference for a recipe drawn by checks.smooth_waves and summed by
    ansatz_field.wave_sum. Kept only along the axes its waves use."""
    waves = [(int(rng.integers(0, 4)), -1 if rng.random() < 0.5 else 1,
              rng.uniform(0.0, 2.0 * math.pi), amp * rng.uniform(0.3, 1.0)) for _ in range(terms)]
    xs = grid.coords()
    out = np.zeros(tuple(n if any(w[0] == d for w in waves) else 1 for d, n in enumerate(grid.dims)))
    for axis, sign, ph, a in waves:
        k = sign * 2.0 * math.pi / grid.length(axis + 1)
        out += a * np.sin(k * xs[axis] + ph)
    return out


# ---------------------------------------------------------------------------
# the 2x2 reference for su2_algebra's coefficient fields

SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def algebra_matrices(X):
    """i s 1 + a.sigma for coefficients (s, a1, a2, a3) on the trailing axis."""
    X = np.asarray(X)
    return 1j * X[..., 0, None, None] * np.eye(2) + np.einsum("...a,aij->...ij", X[..., 1:], SIGMA)


def stacked(A):
    """A potential's four coefficient components repeated to their common
    shape and stacked, (4, *s, 4)."""
    return np.stack(np.broadcast_arrays(*A))


def group_matrices(q):
    """q0 1 + i q.sigma for coefficients (q0, q1, q2, q3) on the trailing axis."""
    q = np.asarray(q)
    return q[..., 0, None, None] * np.eye(2) + 1j * np.einsum("...a,aij->...ij", q[..., 1:], SIGMA)


def dagger(M):
    return np.conj(np.swapaxes(M, -1, -2))


def roll_diff(grid, M, mu):
    """Periodic central difference along axis mu - 1 of a field shaped (*dims, ...)."""
    return (np.roll(M, -1, axis=mu - 1) - np.roll(M, 1, axis=mu - 1)) / (2.0 * grid.h)


def matmul(M, N):
    """The 2x2 matrix products M N over the leading axes: the sum over the inner
    index of column times row, several times faster than np.matmul on such batches."""
    return M[..., :, :1] * N[..., :1, :] + M[..., :, 1:] * N[..., 1:, :]


def conjugate(U, X):
    """U X U^dagger."""
    return matmul(matmul(U, X), dagger(U))


def matrix_commutator(A, B, g):
    """i g [A, B]."""
    return 1j * g * (matmul(A, B) - matmul(B, A))


def commutator(A, B, g):
    """The sigma coefficients of i g [A, B] for coefficient fields A and B, shaped
    (..., 3), as the package formed them whole before it added them into F one
    coefficient at a time: the cross product a x b into one array, then times -2g."""
    from su2reduce import su2_algebra

    shape = np.broadcast_shapes(A.shape, B.shape)[:-1]
    out = su2_algebra._cross(A[..., 1:], B[..., 1:], su2_algebra.empty_coefficients(shape, 3))
    out *= -2.0 * g
    return out


def pure_gauge(grid, U, g):
    """-(i/g) U d_mu U^dagger for mu = 1..4, stacked."""
    Ud = dagger(U)
    return np.stack([-1j / g * matmul(U, roll_diff(grid, Ud, mu)) for mu in range(1, 5)])


def gauge_transform(grid, A, U, g):
    """U A_mu U^dagger - (i/g) U d_mu U^dagger."""
    return conjugate(U, A) + pure_gauge(grid, U, g)


def field_strength_component(grid, A, g, mu, nu):
    """d_mu A_nu - d_nu A_mu + i g [A_mu, A_nu]."""
    return roll_diff(grid, A[nu - 1], mu) - roll_diff(grid, A[mu - 1], nu) + matrix_commutator(A[mu - 1], A[nu - 1], g)


def field_strength(grid, A, g):
    """The components over PAIRS, stacked."""
    return np.stack([field_strength_component(grid, A, g, mu, nu) for mu, nu in PAIRS])


def stacked_noether_current(lam):
    """The Noether current shaped (4, *lam.shape), by the loop that built its
    four components at once."""
    f, G = lam.profile, lam.gradients
    out = np.zeros((4,) + lam.shape, dtype=complex)
    for n in range(4):
        for m in range(4):
            out[n] += f[n] * (G[n][m] ** 2 - G[m][n] * G[n][m])
    return out


def stacked_anomalous_current(lam, g):
    """The anomalous current shaped (4, *lam.shape), by the loop that built its
    four components at once: every square f_mu^2 first, then each component's
    f_nu sum_mu f_mu d_mu lam_nu in one buffer."""
    f, G = lam.profile, lam.gradients
    out = np.zeros((4,) + lam.shape, dtype=complex)
    for m in range(4):
        sq = f[m] * f[m]
        for n in range(4):
            out[n] += sq * G[m][n]
    buf = np.empty(lam.shape, dtype=complex)
    for n in range(4):
        np.multiply(f[0], G[n][0], out=buf)
        for m in (1, 2, 3):
            buf += f[m] * G[n][m]
        buf *= f[n]
        out[n] -= buf
    out *= g
    return out


def stacked_pure_gauge(grid, q, g):
    """The pure gauge -(i/g) U d_mu U^dagger as su2 coefficients shaped (4, *s, 4),
    by the package's loop that built its four components at once."""
    from su2reduce import lattice, su2_algebra

    q0, qv = q[..., 0], q[..., 1:]
    out = su2_algebra.empty_coefficients((4,) + q.shape[:-1])
    for mu in range(1, 5):
        p = lattice.partial(grid, q, mu)
        s, a = out[mu - 1, ..., 0], out[mu - 1, ..., 1:]
        np.multiply(q0, p[..., 0], out=s)
        for i in (1, 2, 3):
            s += q[..., i] * p[..., i]
        su2_algebra._cross(qv, p[..., 1:], a)
        a += p[..., 0, None] * qv
        a -= q0[..., None] * p[..., 1:]
    out *= np.array([-1.0, 1.0, 1.0, 1.0]) / g
    return out


def raw_residual(lam, g):
    """box(f_nu) - j_nu on the full grid, the raw-stencil route to the
    gauge-fixed residual: the compact second difference, by np.roll, of
    the profile values, minus j_nu = g sum_mu f_mu (f_mu G[mu][nu] -
    f_nu G[nu][mu]) contracted from the phase field's profile and gradients."""
    grid = lam.grid
    f = [np.broadcast_to(p, grid.dims) for p in lam.profile]
    G = [[np.broadcast_to(x, grid.dims) for x in row] for row in lam.gradients]
    out = np.zeros((4,) + grid.dims, dtype=complex)
    for n in range(4):
        for ax in range(4):
            out[n] += (np.roll(f[n], -1, axis=ax) - 2.0 * f[n] + np.roll(f[n], 1, axis=ax)) / grid.h**2
        for m in range(4):
            out[n] -= g * f[m] * (f[m] * G[m][n] - f[n] * G[n][m])
    return out


def covariance_gap(grid, A, U, g):
    """max |F[A'] - U F[A] U^dagger| over the matrix entries, A' the transform of A,
    one (mu, nu) component at a time."""
    Ap = gauge_transform(grid, A, U, g)
    return float(np.max([np.max(np.abs(field_strength_component(grid, Ap, g, mu, nu)
                                       - conjugate(U, field_strength_component(grid, A, g, mu, nu))))
                         for mu, nu in PAIRS]))


def pure_gauge_gap(grid, U, g):
    """max |F| over the matrix entries of the pure-gauge potential of U."""
    return float(np.max(np.abs(field_strength(grid, pure_gauge(grid, U, g), g))))


# ---------------------------------------------------------------------------
# the log-log fit and the CSV writer as the package had them, and readers for
# the CSV and npz artifacts written by lattice


def polyfit_order(spacings, errors):
    """Slope of log(error) vs log(h) by np.polyfit's least-squares solve."""
    return float(np.polyfit(np.log(spacings), np.log(errors), 1)[0])


def exact_order(spacings, errors):
    """The least-squares slope of the float logs of spacings and errors, summed in
    rational arithmetic and rounded once."""
    x = [Fraction(v) for v in np.log(spacings).tolist()]
    y = [Fraction(v) for v in np.log(errors).tolist()]
    xm, ym = sum(x) / len(x), sum(y) / len(y)
    return float(sum((a - xm) * (b - ym) for a, b in zip(x, y)) / sum((a - xm) ** 2 for a in x))


def save_field_csv_whole(path, grid, f):
    """The CSV writer that formats every stored value of the field, holds all its
    rows as one object array and then writes them one slab of axis 1 at a time."""
    complex_kind = np.iscomplexobj(f)
    vals = f.astype(complex if complex_kind else float).ravel().tolist()
    rows = [f"{z.real!r},{z.imag!r}\n" if complex_kind else f"{z!r}\n" for z in vals]
    rows = np.array(rows, dtype=object).reshape(f.shape)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# dims=" + ",".join(str(n) for n in grid.dims) + "\n")
        fh.write(f"# h={float(grid.h)!r}\n")
        fh.write(f"# kind={'complex' if complex_kind else 'real'}\n")
        for slab in np.broadcast_to(rows, grid.dims):
            fh.write("".join(slab.flat))


def read_field_csv(path):
    """(header, values) of a CSV field: the `# key=value` lines as dims, h
    and kind, and the rows as an array shaped by dims."""
    header, rows = {}, []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                header[key] = val
            else:
                rows.append([float(v) for v in line.split(",")])
    header["dims"] = tuple(int(n) for n in header["dims"].split(","))
    header["h"] = float(header["h"])
    vals = np.array(rows)
    if header["kind"] == "complex":
        vals = vals[:, 0] + 1j * vals[:, 1]
    return header, vals.reshape(header["dims"])


def read_field_npz(path):
    """Every array stored in an npz field, by name."""
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def row_major_sample(center, radius, count, rng):
    """Uniform points in the 4-ball from rng's draws in `sample_ball`'s order
    (directions, then radial fractions), as a row-major (count, 4) array."""
    d = rng.standard_normal((count, 4))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return center + d * (radius * rng.random(count) ** 0.25)[:, None]
