"""Matrix algebra tests: commutators, the group exponential, transforms."""

import math

import numpy as np
import pytest

from su2reduce import lattice, su2_algebra

import oracles


def test_pauli_commutation_relations():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            got = su2_algebra.commutator(su2_algebra.pauli(a), su2_algebra.pauli(b))
            want = np.zeros((2, 2), dtype=complex)
            for c in (1, 2, 3):
                want += 2j * su2_algebra.EPSILON[a - 1, b - 1, c - 1] * su2_algebra.pauli(c)
            assert np.max(np.abs(got - want)) <= 1e-15


def test_pauli_index_validation():
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            su2_algebra.pauli(bad)


def test_exponential_matches_power_series():
    rng = np.random.default_rng(101)
    rho = rng.uniform(-math.pi, math.pi, size=(32, 3))
    got = su2_algebra.su2_exp(rho)
    arg = 0.5j * np.tensordot(rho, su2_algebra.PAULI, axes=([-1], [0]))
    want = oracles.series_exp(arg)
    assert np.max(np.abs(got - want)) < 1e-13


def test_exponential_zero_is_identity():
    got = su2_algebra.su2_exp(np.zeros(3))
    assert np.array_equal(got, su2_algebra.IDENTITY)


def test_exponential_unitarity_and_determinant():
    rng = np.random.default_rng(7)
    U = su2_algebra.su2_exp(rng.uniform(-4.0, 4.0, size=(200, 3)))
    assert su2_algebra.unitarity_defect(U) < 1e-13
    assert np.max(np.abs(np.linalg.det(U) - 1.0)) < 1e-13


def test_exponential_input_validation():
    with pytest.raises(ValueError):
        su2_algebra.su2_exp(np.zeros(4))
    with pytest.raises(ValueError):
        su2_algebra.su2_exp(np.array([1.0, np.inf, 0.0]))


def test_coupling_validation():
    assert su2_algebra.check_coupling(2) == 2.0
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            su2_algebra.check_coupling(bad)


def test_gauge_transform_constant_u_is_exact_conjugation():
    # the derivative term of a constant group element is exactly zero on
    # the periodic lattice, so the transform reduces to conjugation
    grid = lattice.Grid4.cubic(6)
    rng = np.random.default_rng(19)
    A = np.zeros((4,) + grid.dims + (2, 2), dtype=complex)
    for mu in range(4):
        for a in (1, 2, 3):
            A[mu] += rng.standard_normal(grid.dims)[..., None, None] * su2_algebra.pauli(a)
    U0 = su2_algebra.su2_exp(np.array([0.3, -1.2, 0.7]))
    U = np.broadcast_to(U0, grid.dims + (2, 2)).copy()
    got = su2_algebra.gauge_transform(grid, A, U, g=1.3)
    want = np.einsum("ij,mu...jk,kl->mu...il", U0, A, U0.conj().T)
    assert lattice.max_abs(got - want) < 1e-14


def test_gauge_transform_identity_u_is_noop():
    grid = lattice.Grid4.cubic(5)
    rng = np.random.default_rng(29)
    A = rng.standard_normal((4,) + grid.dims + (2, 2)) + 0j
    U = np.broadcast_to(su2_algebra.IDENTITY, grid.dims + (2, 2)).copy()
    got = su2_algebra.gauge_transform(grid, A, U, g=0.7)
    assert lattice.max_abs(got - A) == 0.0


def test_pure_gauge_of_constant_u_vanishes():
    grid = lattice.Grid4.cubic(5)
    U = np.broadcast_to(su2_algebra.su2_exp(np.array([1.0, 0.2, -0.4])), grid.dims + (2, 2)).copy()
    A = su2_algebra.pure_gauge_field(grid, U, g=1.0)
    assert lattice.max_abs(A) == 0.0


def test_single_axis_pure_gauge_closed_form():
    from su2reduce import ansatz_field, checks

    grid = lattice.Grid4.cubic(8)
    g = 1.25
    U, A, coeff = checks.single_axis_pure_gauge(grid, g)
    assert su2_algebra.unitarity_defect(U) < 1e-13
    want = coeff * su2_algebra.pauli(3)
    assert lattice.max_abs(A[0] - want) < 1e-12
    for mu in (1, 2, 3):
        assert lattice.max_abs(A[mu]) < 1e-13
    F = ansatz_field.field_strength_matrix(grid, A, g)
    assert F.max_abs() < 1e-12


def test_odd_winding_breaks_periodicity():
    # a half-turn per circuit leaves a sign seam at the boundary: the
    # wrapped stencil sees the flipped sheet there, so the potential is
    # no longer the constant it is for even windings
    grid = lattice.Grid4.cubic(8)
    xs = grid.coords()
    rho = np.zeros(grid.dims + (3,))
    rho[..., 2] = np.broadcast_to(xs[0], grid.dims)
    U = su2_algebra.su2_exp(rho)
    A = su2_algebra.pure_gauge_field(grid, U, 1.0)
    interior = A[0][2:3]
    assert lattice.max_abs(A[0] - interior) > 0.1


def test_matrix_field_shape_guards():
    grid = lattice.Grid4.cubic(4)
    good_u = np.broadcast_to(su2_algebra.IDENTITY, grid.dims + (2, 2)).copy()
    with pytest.raises(lattice.GridMismatchError):
        su2_algebra.pure_gauge_field(grid, good_u[..., :1, :], 1.0)
    with pytest.raises(lattice.GridMismatchError):
        su2_algebra.gauge_transform(grid, np.zeros((3,) + grid.dims + (2, 2)), good_u, 1.0)


def random_matrices(rng, shape):
    return rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))


def test_unrolled_product_matches_matmul():
    rng = np.random.default_rng(41)
    dims = (3, 4, 5, 2)
    cases = [
        (random_matrices(rng, dims), random_matrices(rng, dims)),
        # a group field against a six-component tensor, both ways round
        (random_matrices(rng, dims), random_matrices(rng, (6,) + dims)),
        (random_matrices(rng, (6,) + dims), random_matrices(rng, dims)),
        (random_matrices(rng, ()), random_matrices(rng, (7,))),
    ]
    for A, B in cases:
        got = su2_algebra._mul(A, B)
        want = np.matmul(A, B)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14
        assert np.max(np.abs(su2_algebra.commutator(A, B) - (want - np.matmul(B, A)))) <= 1e-14


def test_conjugate_matches_einsum():
    rng = np.random.default_rng(43)
    dims = (4, 3, 2, 5)
    U = random_matrices(rng, dims)
    X = random_matrices(rng, (6,) + dims)
    want = np.einsum("...ij,m...jk,...lk->m...il", U, X, U.conj())
    got = su2_algebra.conjugate(U, X)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14
    got1 = su2_algebra.conjugate(U, X[2])
    assert np.max(np.abs(got1 - want[2])) <= 1e-14


def test_entry_planes_layout_gives_identical_products():
    # the memory order of the operands must not change a single bit
    rng = np.random.default_rng(47)
    A = random_matrices(rng, (5, 6))
    B = random_matrices(rng, (5, 6))
    planar = su2_algebra.empty_matrices((5, 6))
    planar[...] = A
    assert planar[..., 1, 0].flags.c_contiguous
    assert np.array_equal(su2_algebra._mul(planar, B), su2_algebra._mul(A, B))
