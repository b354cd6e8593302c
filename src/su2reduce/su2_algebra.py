"""SU(2) lattice fields as real u(2) coefficients.

Every matrix field the checks build is X = i s 1 + a.sigma with real s
and a (a potential, a field strength, i g [A, B]), and every group field
is U = q0 1 + i q.sigma with real q0 and q. Both are stored as their four
real coefficients on a trailing axis, (s, a1, a2, a3) and (q0, q1, q2, q3):
a group field has shape (*s, 4) and a matrix potential is four components
A_mu, each (*s_mu, 4) on its own axes (a stacked (4, *s, 4) array is four
components on shared axes), where s[d] is dims[d] on an axis the field
varies along and 1 on every other axis (the rule of `lattice.check_field`).
Broadcasting stands in for the repeats, results are kept along the union
of their inputs' axes, and a compact field gives what its dense copy
gives, bit for bit.
Fields this module allocates keep each coefficient as one contiguous plane
(`empty_coefficients`), so one `lattice.partial` call covers a whole field
and the coefficient slices X[..., i] the products read stay contiguous.
Any memory order is accepted and gives the same numbers. Of the public functions
only `commutator` (into out) and `subtract_rotated` (into D) write into an array
they are given; the others only read their arguments.

In these coefficients
  i g [A, B]          = -2g (a x b).sigma: the identity parts commute;
  U X U^dagger        keeps s and turns a into R a, R the SO(3) matrix
                      (q0^2 - |q|^2) 1 + 2 q q^T - 2 q0 [q]x (`rotation`);
  -(i/g) U dU^dagger  with p = dq has s = -(q0 p0 + q.p)/g and
                      a = (p0 q - q0 p + q x p)/g.
tests/test_symbolic.py re-derives all three on symbolic 2x2 matrices, R entry
by entry; `transform_component` forms a transformed R a + p, for `gauge_transform`
and the covariance study alike. The matrix max-norm of X is max(|a3 + i s|,
|a1 + i a2|) (`max_norm`), each modulus max taken by scaling rather than with
libm's much slower hypot, to within 4 ulp of it. A nan in any coefficient gives
nan, also at an entry holding inf and nan, where hypot gives inf.
Only `group_matrices` builds 2x2 matrices, for the checks that read them.
"""

from __future__ import annotations

import numpy as np

from . import lattice

IDENTITY = np.eye(2, dtype=complex)
PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
IDENTITY.setflags(write=False)
PAULI.setflags(write=False)

# structure constants of the commutation relation [s_a, s_b] = 2 i eps_abc s_c
EPSILON = np.zeros((3, 3, 3))
for _a, _b, _c, _s in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                       (1, 0, 2, -1.0), (2, 1, 0, -1.0), (0, 2, 1, -1.0)):
    EPSILON[_a, _b, _c] = _s
EPSILON.setflags(write=False)


def pauli(a: int) -> np.ndarray:
    """Basis matrix sigma_a for a in {1, 2, 3}."""
    if a not in (1, 2, 3):
        raise ValueError(f"basis index must be 1, 2 or 3, got {a}")
    return PAULI[a - 1]


def empty_coefficients(shape, count: int = 4) -> np.ndarray:
    """Uninitialised real (*shape, count) array, each coefficient one contiguous plane."""
    return np.empty((count,) + tuple(shape)).transpose(*range(1, len(shape) + 1), 0)


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a x b over the trailing axis of length 3, written into out."""
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        out[..., i] -= a[..., k] * b[..., j]
    return out


def commutator(A: np.ndarray, B: np.ndarray, g: float, out: np.ndarray) -> np.ndarray:
    """Add the sigma coefficients of i g [A, B] = -2g (a x b).sigma into out[..., 1:], one
    coefficient at a time through one-coefficient temporaries, and return out; the
    identity parts commute, so out[..., 0] is kept. A's and B's axes broadcast to out's."""
    a, b = A[..., 1:], B[..., 1:]
    t, u = np.empty(out.shape[:-1]), np.empty(out.shape[:-1])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., j], b[..., k], out=t)
        t -= np.multiply(a[..., k], b[..., j], out=u)
        t *= -2.0 * g
        out[..., i + 1] += t
    return out


def rotation(q: np.ndarray) -> np.ndarray:
    """The SO(3) matrix R = (q0^2 - |q|^2) 1 + 2 q q^T - 2 q0 [q]x of U = q0 + i q.sigma,
    where [q]x a = q x a, shaped (3, 3, *s) for q shaped (*s, 4): each entry is
    one contiguous plane, and U X U^dagger turns a into R a (`rotate`)."""
    q0, qv = q[..., 0], np.moveaxis(q[..., 1:], -1, 0)
    R = 2.0 * qv[:, None] * qv[None]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # -2 q0 [q]x
        w = 2.0 * q0 * qv[k]
        R[i, j] += w
        R[j, i] -= w
    R[(0, 1, 2), (0, 1, 2)] += q0 * q0 - qv[0] * qv[0] - qv[1] * qv[1] - qv[2] * qv[2]
    return R


def _rotate_row(R: np.ndarray, a: np.ndarray, i: int, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Row i of R a, three multiply-adds per point, written into out; term is a work buffer."""
    np.multiply(R[i, 0], a[..., 0], out=out)
    out += np.multiply(R[i, 1], a[..., 1], out=term)
    out += np.multiply(R[i, 2], a[..., 2], out=term)
    return out


def rotate(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """U X U^dagger for R = rotation(q): s is kept and a becomes R a, nine
    multiply-adds per point. R's trailing axes broadcast against X's leading ones."""
    out = empty_coefficients(np.broadcast_shapes(R.shape[2:], X.shape[:-1]))
    out[..., 0] = X[..., 0]
    term = np.empty(out.shape[:-1])
    for i in range(3):
        _rotate_row(R, X[..., 1:], i, out[..., i + 1], term)
    return out


def subtract_rotated(D: np.ndarray, R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """D - U X U^dagger (`rotate`) written into D and returned, one coefficient at a
    time through one-coefficient temporaries; R's and X's axes broadcast to D's."""
    D[..., 0] -= X[..., 0]
    row, term = np.empty(D.shape[:-1]), np.empty(D.shape[:-1])
    for i in range(3):
        D[..., i + 1] -= _rotate_row(R, X[..., 1:], i, row, term)
    return D


def _modulus_max(x: np.ndarray, y: np.ndarray) -> float:
    """max |x + i y| as m sqrt(max((x/m)^2 + (y/m)^2)), m the largest |x| or |y|, or m
    itself when that is 0, inf or nan. Each sum is at most 2, and at least 1 where m
    is attained, so no square overflows and none that underflows moves the max."""
    t, u = np.abs(x), np.abs(y)
    m = np.maximum(t.max(), u.max())
    if m == 0.0 or not np.isfinite(m):
        return float(m)
    t /= m
    t *= t
    u /= m
    u *= u
    t += u
    return float(m * np.sqrt(t.max()))


def max_norm(X: np.ndarray) -> float:
    """Max-norm over the matrix entries of i s 1 + a.sigma: max(|a3 + i s|, |a1 + i a2|);
    a nan in any coefficient gives nan."""
    return float(np.maximum(_modulus_max(X[..., 3], X[..., 0]), _modulus_max(X[..., 1], X[..., 2])))


def group_matrices(q: np.ndarray) -> np.ndarray:
    """The 2x2 complex matrices q0 1 + i q.sigma, shaped (..., 2, 2)."""
    q = np.asarray(q)
    return q[..., 0, None, None] * IDENTITY + 1j * np.tensordot(q[..., 1:], PAULI, axes=(-1, 0))


def check_coupling(g: float) -> float:
    g = float(g)
    if not (np.isfinite(g) and g > 0):
        raise ValueError(f"coupling must be finite and positive, got {g}")
    return g


def su2_exp(rho: np.ndarray) -> np.ndarray:
    """Group element exp(i rho_a sigma_a / 2) for a real 3-vector field rho.

    Closed form: cos(|rho|/2) 1 + i sin(|rho|/2) (rho_hat . sigma), returned
    as its coefficients (q0, q) with shape (..., 4) for rho of shape
    (..., 3). The zero vector maps to the identity (1, 0, 0, 0).
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape[-1] != 3:
        raise ValueError(f"expected a trailing axis of length 3, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("rotation vector must be finite")
    norm = np.sqrt(np.sum(rho**2, axis=-1))
    axis = np.zeros_like(rho)
    np.divide(rho, norm[..., None], out=axis, where=norm[..., None] > 0)
    half = 0.5 * norm
    q = empty_coefficients(rho.shape[:-1])
    np.cos(half, out=q[..., 0])
    np.multiply(np.sin(half)[..., None], axis, out=q[..., 1:])
    return q


def unitarity_defect(U: np.ndarray) -> float:
    """max of the unitarity and unit-determinant residuals of 2x2 matrices, in max-norm."""
    U = np.asarray(U)
    gram = np.conj(np.swapaxes(U, -1, -2)) @ U - IDENTITY
    det = np.linalg.det(U) - 1.0
    return float(np.max([lattice.max_abs(gram), lattice.max_abs(det)]))


def check_matrix_field(grid: lattice.Grid4, A, components: bool):
    """A potential as four components (*s_mu, 4), a stacked (4, *s, 4) array
    among them, or a group field (*s, 4); each s[d] is 1 or dims[d]."""
    if components:
        A = tuple(A)
        if len(A) != 4:
            raise lattice.GridMismatchError(f"expected four potential components, got {len(A)}")
        return tuple(check_matrix_field(grid, a, components=False) for a in A)
    A = np.asarray(A, dtype=float)
    if A.ndim != 5 or A.shape[-1] != 4:
        raise lattice.GridMismatchError(f"expected shape (s1, s2, s3, s4, 4), got {A.shape}")
    lattice.check_field(grid, A)
    return A


def transform_component(R: np.ndarray, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """R X + P: U X U^dagger (`rotate`) plus a component P of U's pure gauge. R's and
    P's trailing axes broadcast against X's leading ones: slices of the three give a slice."""
    out = rotate(R, X)
    out += P
    return out


def gauge_transform(grid: lattice.Grid4, A, q: np.ndarray, g: float) -> tuple[np.ndarray, ...]:
    """U A_mu U^-1 - (i/g) U d_mu U^-1 with U^-1 realized as the adjoint.

    A is a potential of four components A_mu shaped (*s_mu, 4), q the group
    field of U shaped (*s', 4); A'_mu is kept along the union of A_mu's and
    U's axes, so every component covers U's, and is formed by
    `transform_component`. Derivatives are central stencils on the
    coefficients, so the transform of a constant U is exact rotation.
    """
    g = check_coupling(g)
    A = check_matrix_field(grid, A, components=True)
    R = rotation(check_matrix_field(grid, q, components=False))
    return tuple(transform_component(R, a, pure_gauge_field(grid, q, g, mu)) for mu, a in enumerate(A, 1))


def pure_gauge_field(grid: lattice.Grid4, q: np.ndarray, g: float, mu: int) -> np.ndarray:
    """The component P_mu = -(i/g) U d_mu U^-1 of the gauge transform of the zero
    potential, shaped (*s, 4) for q shaped (*s, 4)."""
    g = check_coupling(g)
    q = check_matrix_field(grid, q, components=False)
    q0, qv = q[..., 0], q[..., 1:]
    p = lattice.partial(grid, q, mu)
    out = empty_coefficients(q.shape[:-1])
    s, a = out[..., 0], out[..., 1:]
    np.multiply(q0, p[..., 0], out=s)
    for i in (1, 2, 3):
        s += q[..., i] * p[..., i]
    _cross(qv, p[..., 1:], a)
    a += p[..., 0, None] * qv
    a -= q0[..., None] * p[..., 1:]
    out *= np.array([-1.0, 1.0, 1.0, 1.0]) / g  # s = -(q0 p0 + q.p)/g, a = (p0 q - q0 p + q x p)/g
    return out
