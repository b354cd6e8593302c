"""Symbolic re-derivation of the expanded expressions the code evaluates.

Each expression is transcribed term by term as the code evaluates it,
with G[m][n] = d_n lambda_m and a composed stencil
partial(G[a, b], c) read as the mixed derivative d_c d_b lambda_a (the
lattice mixed partials commute exactly, as these do). sympy then shows
that the transcription equals the defining expression for arbitrary
smooth lambda_mu(x1..x4) with f_mu = exp(-i lambda_mu).

The last part derives su2_algebra's coefficient forms of i g [A, B],
the rotation matrix R(q) of U X U^dagger and -(i/g) U dU^dagger on
symbolic 2x2 matrices.

The closed-form divergence (ansatz_field.anomaly_divergence_closed_form)
is not checked here: it is a recorded erratum, never asserted.
"""

import numpy as np
import pytest

from su2reduce import su2_algebra

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


# ---------------------------------------------------------------------------
# su2_algebra's coefficient identities, on symbolic 2x2 matrices

ONE = sp.eye(2)
SIGMA = [sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]),
         sp.Matrix([[1, 0], [0, -1]])]


def algebra(s, a):
    """i s 1 + a.sigma."""
    return sp.I * s * ONE + sum((a[i] * SIGMA[i] for i in range(3)), sp.zeros(2))


def group(q):
    """q0 1 + i q.sigma for q = (q0, q1, q2, q3)."""
    return q[0] * ONE + sp.I * sum((q[i + 1] * SIGMA[i] for i in range(3)), sp.zeros(2))


def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def dot(a, b):
    return sum(a[i] * b[i] for i in range(3))


def zero_matrix(M) -> bool:
    return all(sp.expand(e) == 0 for e in M)


S_A, S_B = sp.symbols("s t", real=True)
A_VEC = sp.symbols("a1:4", real=True)
B_VEC = sp.symbols("b1:4", real=True)
QUAT = sp.symbols("q0:4", real=True)


def rotation_matrix(q, cross_sign=-1):
    """su2_algebra.rotation: (q0^2 - |q|^2) 1 + 2 q q^T - 2 q0 [q]x, where column j
    of [q]x is q x e_j."""
    q0, qv = q[0], sp.Matrix(q[1:])
    qx = sp.Matrix.hstack(*(sp.Matrix(cross(q[1:], sp.eye(3)[:, j])) for j in range(3)))
    return (q0**2 - qv.dot(qv)) * sp.eye(3) + 2 * qv * qv.T + cross_sign * 2 * q0 * qx


def sigma_image(R, j):
    """sum_i R_ij sigma_i: what R says U sigma_j U^dagger is."""
    return sum((R[i, j] * SIGMA[i] for i in range(3)), sp.zeros(2))


def test_commutator_coefficients():
    # i g [A, B] = -2g (a x b).sigma: the identity parts drop out
    A, B = algebra(S_A, A_VEC), algebra(S_B, B_VEC)
    want = algebra(0, [-2 * g * c for c in cross(A_VEC, B_VEC)])
    assert zero_matrix(sp.I * g * (A * B - B * A) - want)


def test_rotation_matrix_entries():
    # U sigma_j U^dagger = sum_i R_ij sigma_i for each j: all nine entries, and
    # no identity part; for any real q, unit or not
    U, R = group(QUAT), rotation_matrix(QUAT)
    for j in range(3):
        assert zero_matrix(U * SIGMA[j] * U.H - sigma_image(R, j))


def test_rotation_coefficients():
    # U X U^dagger: s picks up |U|^2 = q0^2 + |q|^2, which is 1 for a group
    # element, and a turns into R a
    U, R = group(QUAT), rotation_matrix(QUAT)
    want = algebra(S_A * (QUAT[0] ** 2 + dot(QUAT[1:], QUAT[1:])), list(R * sp.Matrix(A_VEC)))
    assert zero_matrix(U * algebra(S_A, A_VEC) * U.H - want)


def test_rotation_matrix_is_a_scaled_rotation():
    # R^T R = (q0^2 + |q|^2)^2 1 and det R = (q0^2 + |q|^2)^3: for a group
    # element R is in SO(3)
    R, norm2 = rotation_matrix(QUAT), QUAT[0] ** 2 + dot(QUAT[1:], QUAT[1:])
    assert zero_matrix(R.T * R - norm2**2 * sp.eye(3))
    assert vanishes(R.det() - norm2**3)


def test_rotation_catches_a_sign_slip():
    # the [q]x term with the wrong sign is detected
    U, slipped = group(QUAT), rotation_matrix(QUAT, cross_sign=+1)
    assert not zero_matrix(U * SIGMA[0] * U.H - sigma_image(slipped, 0))


def test_rotation_code_evaluates_the_derived_matrix():
    # su2_algebra.rotation against the derived R at random, non-unit q
    q = np.random.default_rng(7).standard_normal((5, 4))
    got, R = su2_algebra.rotation(q), rotation_matrix(QUAT)
    for k in range(len(q)):
        want = np.array(R.subs(dict(zip(QUAT, q[k].tolist()))), dtype=float)
        assert np.allclose(got[..., k], want, rtol=1e-14, atol=1e-14)


def test_maurer_cartan_coefficients():
    # -(i/g) U dU^dagger with p = dq: s = -(q0 p0 + q.p)/g, a = (p0 q - q0 p + q x p)/g,
    # for any real q(x), unit or not
    x = X[0]
    q = [sp.Function(f"q{i}", real=True)(x) for i in range(4)]
    p = [sp.diff(c, x) for c in q]
    U = group(q)
    qxp = cross(q[1:], p[1:])
    want = algebra(-(q[0] * p[0] + dot(q[1:], p[1:])) / g,
                   [(p[0] * q[i + 1] - q[0] * p[i + 1] + qxp[i]) / g for i in range(3)])
    assert zero_matrix(-(sp.I / g) * U * sp.diff(U.H, x) - want)
