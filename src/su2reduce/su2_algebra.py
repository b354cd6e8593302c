"""Exact 2x2 matrix algebra for SU(2)-valued lattice fields.

Matrices are complex128 numpy arrays with the matrix axes last, so a
group-element field has shape (*dims, 2, 2) and a four-component matrix
potential has shape (4, *dims, 2, 2). Everything here broadcasts over the
leading axes.

Products are unrolled over the four matrix entries (as in Creutz's lattice
SU(2) codes) instead of going through a batched matmul, which is slow for
millions of 2x2 blocks. Fields this module allocates store each entry as
one contiguous plane (`empty_matrices`); elementwise numpy results inherit
that memory order, so the entry slices X[..., i, j] the products read stay
contiguous along a whole refinement study. Any memory order is accepted
and gives the same numbers.
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


def empty_matrices(shape) -> np.ndarray:
    """Uninitialised complex (*shape, 2, 2) array, each matrix entry one contiguous plane."""
    planes = np.empty((2, 2) + tuple(shape), dtype=complex)
    return np.moveaxis(planes, (0, 1), (-2, -1))


def _mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product over the trailing 2x2 axes, formed entry by entry; leading axes broadcast."""
    A = np.asarray(A)
    B = np.asarray(B)
    out = empty_matrices(np.broadcast_shapes(A.shape, B.shape)[:-2])
    for i in (0, 1):
        for k in (0, 1):
            np.multiply(A[..., i, 0], B[..., 0, k], out=out[..., i, k])
            out[..., i, k] += A[..., i, 1] * B[..., 1, k]
    return out


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return _mul(A, B) - _mul(B, A)


def conjugate(U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """U X U^dagger over the trailing 2x2 axes; U broadcasts against X."""
    return _mul(_mul(U, X), dagger(U))


def dagger(U: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(U, -1, -2))


def check_coupling(g: float) -> float:
    g = float(g)
    if not (np.isfinite(g) and g > 0):
        raise ValueError(f"coupling must be finite and positive, got {g}")
    return g


def su2_exp(rho: np.ndarray) -> np.ndarray:
    """Group element exp(i rho_a sigma_a / 2) for a real 3-vector field rho.

    Closed form: cos(|rho|/2) 1 + i sin(|rho|/2) (rho_hat . sigma).
    rho has shape (..., 3); the result has shape (..., 2, 2). The zero
    vector maps to the identity.
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
    c = np.cos(half)
    x, y, z = np.moveaxis(np.sin(half)[..., None] * axis, -1, 0)
    U = empty_matrices(rho.shape[:-1])
    U[..., 0, 0] = c + 1j * z
    U[..., 0, 1] = y + 1j * x
    U[..., 1, 0] = -y + 1j * x
    U[..., 1, 1] = c - 1j * z
    return U


def unitarity_defect(U: np.ndarray) -> float:
    """max of the unitarity and unit-determinant residuals, in max-norm."""
    U = np.asarray(U)
    gram = _mul(dagger(U), U) - IDENTITY
    det = np.linalg.det(U) - 1.0
    return max(lattice.max_abs(gram), lattice.max_abs(det))


def _check_matrix_field(grid: lattice.Grid4, A: np.ndarray, components: bool) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    want = (4,) + grid.dims + (2, 2) if components else grid.dims + (2, 2)
    if A.shape != want:
        raise lattice.GridMismatchError(f"expected shape {want}, got {A.shape}")
    return A


def gauge_transform(grid: lattice.Grid4, A: np.ndarray, U: np.ndarray, g: float) -> np.ndarray:
    """U A_mu U^-1 - (i/g) U d_mu U^-1 with U^-1 realized as the adjoint.

    A is a matrix potential shaped (4, *dims, 2, 2), U a group-element field
    shaped (*dims, 2, 2). Derivatives are central stencils on the matrix
    entries, so the transform of a constant U is exact conjugation.
    """
    g = check_coupling(g)
    A = _check_matrix_field(grid, A, components=True)
    U = _check_matrix_field(grid, U, components=False)
    Ud = dagger(U)
    out = conjugate(U, A)
    for mu in range(1, 5):
        out[mu - 1] -= (1j / g) * _mul(U, lattice.partial(grid, Ud, mu))
    return out


def pure_gauge_field(grid: lattice.Grid4, U: np.ndarray, g: float) -> np.ndarray:
    """Gauge transform of the zero potential: -(i/g) U d_mu U^-1."""
    g = check_coupling(g)
    U = _check_matrix_field(grid, U, components=False)
    Ud = dagger(U)
    out = empty_matrices((4,) + grid.dims)
    for mu in range(1, 5):
        out[mu - 1] = -(1j / g) * _mul(U, lattice.partial(grid, Ud, mu))
    return out
