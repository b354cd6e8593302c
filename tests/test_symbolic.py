"""Symbolic re-derivation of the expanded expressions the code evaluates.

Each expression is transcribed term by term as the code evaluates it,
with G[m][n] = d_n lambda_m and a composed stencil
partial(G[a, b], c) read as the mixed derivative d_c d_b lambda_a (the
lattice mixed partials commute exactly, as these do). sympy then shows
that the transcription equals the defining expression for arbitrary
smooth lambda_mu(x1..x4) with f_mu = exp(-i lambda_mu).

The closed-form divergence (ansatz_field.anomaly_divergence_closed_form)
is not checked here: it is a recorded erratum, never asserted.
"""

import pytest

sp = pytest.importorskip("sympy")

X = sp.symbols("x1:5", real=True)
LAM = [sp.Function(f"lambda{m + 1}", real=True)(*X) for m in range(4)]
f = [sp.exp(-sp.I * lam) for lam in LAM]
g = sp.Symbol("g", positive=True)


def G(m, n):
    """phase_gradients entry G[m, n] = d_n lambda_m (0-based)."""
    return sp.diff(LAM[m], X[n])


def partial_G(m, n, k):
    """lattice.partial(grid, G[m, n], k + 1) = d_k d_n lambda_m."""
    return sp.diff(LAM[m], X[n], X[k])


def F(mu, nu):
    """d_mu f_nu - d_nu f_mu; scalar components have no commutator term."""
    return sp.diff(f[nu], X[mu]) - sp.diff(f[mu], X[nu])


def vanishes(expr) -> bool:
    return sp.expand(expr) == 0


def test_full_residual_is_the_field_strength_contraction():
    # ansatz_field.field_equation_residual_full, term by term
    for n in range(4):
        code = sum(
            f[m] * G(m, m) * G(m, n)
            - f[n] * G(n, m) ** 2
            + sp.I * f[m] * partial_G(m, m, n)
            - sp.I * f[n] * partial_G(n, m, m)
            - g * f[m] * (f[m] * G(m, n) - f[n] * G(n, m))
            for m in range(4)
        )
        contraction = sum(sp.diff(F(m, n), X[m]) + sp.I * g * f[m] * F(m, n) for m in range(4))
        assert vanishes(code - contraction), n


def current(n):
    """ansatz_field.anomalous_current, as grouped in the code:
    g [sum_m f_m^2 G[m, n] - f_n sum_m f_m G[n, m]]."""
    return g * (sum(f[m] ** 2 * G(m, n) for m in range(4)) - f[n] * sum(f[m] * G(n, m) for m in range(4)))


def P(m):
    """sum_n partial(G[m, n], n + 1)."""
    return sum(partial_G(m, n, n) for n in range(4))


def Q(m):
    """sum_n G[m, n]^2."""
    return sum(G(m, n) ** 2 for n in range(4))


def S(n):
    """sum_m f_m (i G[n, m] (G[m, n] + G[n, n]) - partial(G[n, m], n + 1))."""
    return sum(f[m] * (sp.I * G(n, m) * (G(m, n) + G(n, n)) - partial_G(n, m, n)) for m in range(4))


def expansion(S=S):
    """checks.anomaly_divergence_expansion, as grouped in the code."""
    return g * (sum(f[m] ** 2 * (P(m) - 2 * sp.I * Q(m)) for m in range(4))
                + sum(f[n] * S(n) for n in range(4)))


def divergence_of_current():
    return sum(sp.diff(current(n), X[n]) for n in range(4))


def test_divergence_expansion_is_the_divergence_of_the_current():
    # the current is -i g sum_mu f_mu F_mu_nu
    for n in range(4):
        assert vanishes(current(n) + sp.I * g * sum(f[m] * F(m, n) for m in range(4))), n
    assert vanishes(expansion() - divergence_of_current())


def test_grouped_expansion_catches_a_slip():
    # G[n, n] read as G[m, m] inside S_n is detected
    def slipped(n):
        return sum(f[m] * (sp.I * G(n, m) * (G(m, n) + G(m, m)) - partial_G(n, m, n)) for m in range(4))

    assert not vanishes(expansion(S=slipped) - divergence_of_current())


def test_transcription_catches_a_slip():
    # the check is not vacuous: a swapped index in one term is detected
    n = 0
    slipped = sum(
        f[m] * G(m, m) * G(m, n)
        - f[n] * G(m, n) ** 2
        + sp.I * f[m] * partial_G(m, m, n)
        - sp.I * f[n] * partial_G(n, m, m)
        - g * f[m] * (f[m] * G(m, n) - f[n] * G(n, m))
        for m in range(4)
    )
    contraction = sum(sp.diff(F(m, n), X[m]) + sp.I * g * f[m] * F(m, n) for m in range(4))
    assert not vanishes(slipped - contraction)
