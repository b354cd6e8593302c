"""Reference values computed by routes independent of the package.

The helpers here deliberately avoid the package's own derivative and
assembly code: matrix exponentials come from a plain power series, and
stencil derivatives of trigonometric modes come from the discrete
dispersion factors (central differences act on a single wave as exact
multipliers, sin(kh)/h for the first difference and -(2 - 2 cos kh)/h^2
for the compact second difference). Tests compare the package against
these at rounding level.
"""

import math

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


def anomaly_divergence_oracle(grid, modes, g):
    """Five-term product-rule divergence of the current from the closed-form tables.

    g sum_{m,n} [ -2i f_m^2 G[m, n]^2 + f_m^2 D2[m, n]
                  + i f_m f_n G[m, n] G[n, m] + i f_m f_n G[n, n] G[n, m]
                  - f_m f_n d_n d_m lambda_n ]

    The last term needs the mixed composed difference d_n d_m lambda_n. For
    the single-axis mode sets that random_modes draws it vanishes exactly
    when m != n (each wave is constant along every other axis), so only
    D2[n, n] enters, at m == n.
    """
    f = np.exp(-1j * lambda_values(grid, modes))
    G = gradient_table(grid, modes)
    D2 = second_table(grid, modes)
    out = np.zeros(grid.dims, dtype=complex)
    for m in range(4):
        for n in range(4):
            mixed = D2[n, n] if m == n else 0.0
            out += g * (
                -2j * f[m] ** 2 * G[m, n] ** 2
                + f[m] ** 2 * D2[m, n]
                + 1j * f[m] * f[n] * G[m, n] * G[n, m]
                + 1j * f[m] * f[n] * G[n, n] * G[n, m]
                - f[m] * f[n] * mixed
            )
    return out


def random_modes(rng, grid, count=3, amp=0.7):
    """Seeded well-conditioned mode set: unit |cycles| on a single axis each.

    Importing the package Mode class here would be circular for an oracle
    module, so this returns plain records with the same four attributes.
    """

    class _M:
        def __init__(self, component, cycles, amplitude, phase):
            self.component = component
            self.cycles = cycles
            self.amplitude = amplitude
            self.phase = phase

    out = []
    for _ in range(count):
        comp = int(rng.integers(1, 5))
        axis = int(rng.integers(0, 4))
        sign = -1 if rng.random() < 0.5 else 1
        cyc = [0, 0, 0, 0]
        cyc[axis] = sign
        out.append(
            _M(comp, tuple(cyc), amp * float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
        )
    return out
