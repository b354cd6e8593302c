"""Coefficient algebra tests: commutators, the group exponential, transforms.

Fields are su2_algebra coefficients; every routine is read back as 2x2
matrices and compared with the 2x2 matrix reference in oracles.py.
"""

import math

import numpy as np
import pytest

from su2reduce import lattice, su2_algebra

import oracles


def test_pauli_commutation_relations():
    # i g [sigma_a, sigma_b] = -2g eps_abc sigma_c
    basis = np.eye(4)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            got = su2_algebra.commutator(basis[a], basis[b], 0.5, np.zeros(4))
            assert got[0] == 0.0 and np.array_equal(got[1:], -su2_algebra.EPSILON[a - 1, b - 1])


def test_pauli_index_validation():
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            su2_algebra.pauli(bad)


def test_exponential_matches_power_series():
    rng = np.random.default_rng(101)
    rho = rng.uniform(-math.pi, math.pi, size=(32, 3))
    got = su2_algebra.group_matrices(su2_algebra.su2_exp(rho))
    arg = 0.5j * np.tensordot(rho, su2_algebra.PAULI, axes=([-1], [0]))
    want = oracles.series_exp(arg)
    assert np.max(np.abs(got - want)) < 1e-13


def test_exponential_zero_is_identity():
    got = su2_algebra.su2_exp(np.zeros(3))
    assert np.array_equal(got, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(su2_algebra.group_matrices(got), su2_algebra.IDENTITY)


def test_exponential_unitarity_and_determinant():
    rng = np.random.default_rng(7)
    U = su2_algebra.group_matrices(su2_algebra.su2_exp(rng.uniform(-4.0, 4.0, size=(200, 3))))
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


def random_coefficients(rng, shape):
    return rng.standard_normal(shape + (4,))


def random_group(rng, shape, spread=4.0):
    return su2_algebra.su2_exp(rng.uniform(-spread, spread, size=shape + (3,)))


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_gauge_transform_constant_u_is_exact_conjugation():
    # the derivative term of a constant group element is exactly zero on
    # the periodic lattice, so the transform reduces to conjugation
    grid = lattice.Grid4.cubic(6)
    rng = np.random.default_rng(19)
    A = random_coefficients(rng, (4,) + grid.dims)
    q0 = su2_algebra.su2_exp(np.array([0.3, -1.2, 0.7]))
    q = np.broadcast_to(q0, grid.dims + (4,)).copy()
    got = su2_algebra.gauge_transform(grid, A, q, g=1.3)
    want = oracles.conjugate(oracles.group_matrices(q0), oracles.algebra_matrices(A))
    assert np.max(np.abs(oracles.algebra_matrices(got) - want)) < 1e-14


def test_gauge_transform_identity_u_is_noop():
    grid = lattice.Grid4.cubic(5)
    rng = np.random.default_rng(29)
    A = random_coefficients(rng, (4,) + grid.dims)
    q = np.broadcast_to([1.0, 0.0, 0.0, 0.0], grid.dims + (4,))
    got = su2_algebra.gauge_transform(grid, A, q, g=0.7)
    assert su2_algebra.max_norm(got - A) == 0.0


def test_pure_gauge_of_constant_u_vanishes():
    grid = lattice.Grid4.cubic(5)
    q = np.broadcast_to(su2_algebra.su2_exp(np.array([1.0, 0.2, -0.4])), grid.dims + (4,)).copy()
    for mu in range(1, 5):
        assert su2_algebra.max_norm(su2_algebra.pure_gauge_field(grid, q, 1.0, mu)) == 0.0


def test_single_axis_pure_gauge_closed_form():
    from su2reduce import ansatz_field, checks

    grid = lattice.Grid4.cubic(8)
    g = 1.25
    U, A, coeff = checks.single_axis_pure_gauge(grid, g)
    assert su2_algebra.unitarity_defect(su2_algebra.group_matrices(U)) < 1e-13
    assert su2_algebra.max_norm(A[0] - [0.0, 0.0, 0.0, coeff]) < 1e-12
    for mu in (1, 2, 3):
        assert su2_algebra.max_norm(A[mu]) < 1e-13
    for mu, nu in ansatz_field.PAIRS:
        assert su2_algebra.max_norm(ansatz_field.field_strength_matrix(grid, A, g, mu, nu)) < 1e-12


def test_odd_winding_breaks_periodicity():
    # a half-turn per circuit leaves a sign seam at the boundary: the
    # wrapped stencil sees the flipped sheet there, so the potential is
    # no longer the constant it is for even windings
    grid = lattice.Grid4.cubic(8)
    xs = grid.coords()
    rho = np.zeros(grid.dims + (3,))
    rho[..., 2] = np.broadcast_to(xs[0], grid.dims)
    U = su2_algebra.su2_exp(rho)
    A1 = su2_algebra.pure_gauge_field(grid, U, 1.0, 1)
    interior = A1[2:3]
    assert su2_algebra.max_norm(A1 - interior) > 0.1


def test_matrix_field_shape_guards():
    grid = lattice.Grid4.cubic(4)
    good_u = np.broadcast_to([1.0, 0.0, 0.0, 0.0], grid.dims + (4,))
    with pytest.raises(lattice.GridMismatchError):
        su2_algebra.pure_gauge_field(grid, good_u[..., :3], 1.0, 1)
    for bad_mu in (0, 5):
        with pytest.raises(ValueError):
            su2_algebra.pure_gauge_field(grid, good_u, 1.0, bad_mu)
    with pytest.raises(lattice.GridMismatchError):
        su2_algebra.gauge_transform(grid, np.zeros((3,) + grid.dims + (4,)), good_u, 1.0)
    with pytest.raises(lattice.GridMismatchError):
        # the 2x2 layout is not a coefficient field
        su2_algebra.gauge_transform(grid, np.zeros((4,) + grid.dims + (2, 2)), good_u, 1.0)


def bits(x):
    """The bit patterns of a float array: nan payloads and the sign of zero count."""
    return np.asarray(x, dtype=float).view(np.uint64)


def plant(rng, x):
    """x with inf, -inf, nan and -0.0 written at four random entries of a copy."""
    x = np.array(x)
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, 4, replace=False)] = [math.inf, -math.inf, math.nan, -0.0]
    return x


def added_commutator(A, B, g):
    """su2_algebra.commutator added into zeros of A's and B's broadcast shape."""
    return su2_algebra.commutator(A, B, g, np.zeros(np.broadcast_shapes(A.shape, B.shape)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, on both sides
@pytest.mark.parametrize("seed", [41, 42, 43])
def test_commutator_matches_the_oracle(seed):
    rng = np.random.default_rng(seed)
    dims = (3, 4, 5, 2)
    g = float(rng.uniform(0.2, 3.0))
    cases = [
        (random_coefficients(rng, dims), random_coefficients(rng, dims)),
        # a six-component tensor against one field, both ways round
        (random_coefficients(rng, (6,) + dims), random_coefficients(rng, dims)),
        (random_coefficients(rng, dims), random_coefficients(rng, (6,) + dims)),
        # compact fields on overlapping axes, and one against a dense field
        (random_coefficients(rng, (3, 1, 5, 1)), random_coefficients(rng, (1, 4, 5, 1))),
        (random_coefficients(rng, (1, 4, 1, 2)), random_coefficients(rng, dims)),
    ]
    for A, B in cases:
        # the whole-array reference against the 2x2 matrices
        got = oracles.commutator(A, B, g)
        want = oracles.matrix_commutator(oracles.algebra_matrices(A), oracles.algebra_matrices(B), g)
        full = np.concatenate([np.zeros(got.shape[:-1] + (1,)), got], axis=-1)
        assert relative_gap(oracles.algebra_matrices(full), want) <= 1e-13
        # the accumulating kernel is F plus that reference, bit for bit
        for A_, B_ in ((A, B), (plant(rng, A), plant(rng, B))):
            F = plant(rng, random_coefficients(rng, np.broadcast_shapes(A.shape, B.shape)[:-1]))
            want = F.copy()
            want[..., 1:] += oracles.commutator(A_, B_, g)
            out = F.copy()
            assert su2_algebra.commutator(A_, B_, g, out) is out
            assert np.array_equal(bits(out), bits(want))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, on both sides
@pytest.mark.parametrize("seed", [43, 44, 45])
def test_rotate_matches_the_oracle(seed):
    rng = np.random.default_rng(seed)
    dims = (4, 3, 2, 5)
    q = random_group(rng, dims)
    X = random_coefficients(rng, (6,) + dims)
    want = oracles.conjugate(oracles.group_matrices(q), oracles.algebra_matrices(X))
    R = su2_algebra.rotation(q)
    assert relative_gap(oracles.algebra_matrices(su2_algebra.rotate(R, X)), want) <= 1e-13
    got1 = oracles.algebra_matrices(su2_algebra.rotate(R, X[2]))
    assert relative_gap(got1, want[2]) <= 1e-13
    # the in-place subtraction is D - rotate(R, X), bit for bit: dense and compact
    # rotations and operands, with inf, nan and -0.0 planted in each input
    Rc = su2_algebra.rotation(random_group(rng, (4, 1, 2, 1)))
    for Rk, Xk in ((R, X), (R, X[3]), (R, random_coefficients(rng, (1, 3, 1, 5))),
                   (Rc, X), (Rc, random_coefficients(rng, (1, 3, 2, 1)))):
        for R_, X_ in ((Rk, Xk), (plant(rng, Rk), plant(rng, Xk))):
            D = plant(rng, random_coefficients(rng, np.broadcast_shapes(R_.shape[2:], X_.shape[:-1])))
            want = D - su2_algebra.rotate(R_, X_)
            got = D.copy()
            assert su2_algebra.subtract_rotated(got, R_, X_) is got
            assert np.array_equal(bits(got), bits(want))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, on both sides
@pytest.mark.parametrize("special", [False, True])
def test_field_strength_only_reads_the_stencils_it_is_given(special):
    from su2reduce import ansatz_field

    # components on all four axes, on three, and on two: F is formed in a stencil's
    # buffer where one has F's shape, and in a new array where each is smaller
    grid = lattice.Grid4((4, 5, 6, 4), 0.3)
    rng = np.random.default_rng(61 + special)
    A = [random_coefficients(rng, axes_shape(grid, axes)) for axes in ((0, 1, 2, 3), (0, 1, 3), (1, 2), (0, 2, 3))]
    if special:
        A = [plant(rng, a) for a in A]
    g = 1.3
    for mu, nu in ansatz_field.PAIRS:
        taken = (lattice.partial(grid, A[nu - 1], mu), lattice.partial(grid, A[mu - 1], nu))
        want = np.subtract(*taken)
        want[..., 1:] += oracles.commutator(A[mu - 1], A[nu - 1], g)
        F = ansatz_field.field_strength_matrix(grid, A, g, mu, nu)
        assert np.array_equal(bits(F), bits(want))
        for given in ((taken[0], None), (None, taken[1]), taken):
            kept = [None if x is None else x.copy() for x in given]
            got = ansatz_field.field_strength_matrix(grid, A, g, mu, nu, given)
            assert np.array_equal(bits(got), bits(want))
            for x, y in zip(given, kept):
                if x is not None:
                    assert np.array_equal(bits(x), bits(y)) and not np.shares_memory(got, x)


def smooth_pair(grid, rng, amp):
    from su2reduce import checks

    waves = [checks.smooth_waves(rng, amp) for _ in range(15)]
    return checks.smooth_matrix_potential(grid, waves[:12]), checks.smooth_group_field(grid, waves[12:])


@pytest.mark.parametrize("seed", [0, 6, 17])
def test_gauge_transform_and_pure_gauge_match_the_oracle(seed):
    rng = np.random.default_rng(seed)
    grid = lattice.Grid4.cubic(6)
    g = float(rng.uniform(0.2, 3.0))
    A, q = smooth_pair(grid, rng, float(rng.uniform(0.3, 2.0)))
    for a in A:
        a[..., 0] = rng.standard_normal(a.shape[:-1])  # an identity part too
    U = oracles.group_matrices(q)
    got = np.stack([su2_algebra.pure_gauge_field(grid, q, g, mu) for mu in range(1, 5)])
    want = oracles.pure_gauge(grid, U, g)
    assert relative_gap(oracles.algebra_matrices(got), want) <= 1e-13
    got = su2_algebra.gauge_transform(grid, A, q, g)
    want = oracles.gauge_transform(grid, oracles.algebra_matrices(oracles.stacked(A)), U, g)
    assert relative_gap(oracles.algebra_matrices(oracles.stacked(got)), want) <= 1e-13


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, on both sides
@pytest.mark.parametrize("special", [None, math.inf, math.nan])
@pytest.mark.parametrize("q_axes", [(), (1,), (0, 2, 3), (0, 1, 2, 3)])
def test_pure_gauge_components_are_the_stacked_loop_bit_for_bit(q_axes, special):
    # each call builds one component P_mu by the operations the loop that
    # built all four at once applied to it, so every value is unchanged
    grid = lattice.Grid4((4, 5, 6, 4), 0.3)
    q = random_group(np.random.default_rng(len(q_axes)), axes_shape(grid, q_axes))
    if special is not None:
        q[(0,) * 4 + (2,)] = special
    g = 0.9
    want = oracles.stacked_pure_gauge(grid, q, g)
    for mu in range(1, 5):
        assert np.array_equal(su2_algebra.pure_gauge_field(grid, q, g, mu), want[mu - 1], equal_nan=True)


@pytest.mark.parametrize("seed", [0, 6, 17])
def test_transform_component_on_planes_is_the_plane_of_the_transform(seed):
    # the covariance study forms a grid-filling A'_mu plane by plane from
    # slices of R, A_mu and P_mu: each plane equals that plane of
    # gauge_transform's component bit for bit, along every axis
    rng = np.random.default_rng(seed)
    grid = lattice.Grid4.cubic(6)
    g = float(rng.uniform(0.2, 3.0))
    A, q = smooth_pair(grid, rng, float(rng.uniform(0.3, 2.0)))
    whole = su2_algebra.gauge_transform(grid, A, q, g)
    R, P = su2_algebra.rotation(q), [su2_algebra.pure_gauge_field(grid, q, g, mu) for mu in range(1, 5)]

    def cut(x, lead, d, k):  # plane k along axis d; a field of length 1 there passes whole
        return x if x.shape[lead + d] == 1 else x[(slice(None),) * (lead + d) + (slice(k, k + 1),)]
    for a, p, w in zip(A, P, whole):
        assert np.array_equal(su2_algebra.transform_component(R, a, p), w)
        for d in range(4):
            for k in range(6):
                got = su2_algebra.transform_component(cut(R, 2, d, k), cut(a, 0, d, k), cut(p, 0, d, k))
                assert np.array_equal(got, cut(w, 0, d, k))


@pytest.mark.parametrize("seed", [51, 52])
def test_max_norm_is_the_largest_matrix_entry(seed):
    rng = np.random.default_rng(seed)
    X = random_coefficients(rng, (6, 3, 4, 5, 2)) * rng.uniform(0.1, 10.0)
    want = np.max(np.abs(oracles.algebra_matrices(X)))
    assert abs(su2_algebra.max_norm(X) - want) <= 1e-13 * want
    for k in range(4):
        # each coefficient alone: the norm is its modulus
        e = np.zeros(4)
        e[k] = -2.5
        assert su2_algebra.max_norm(e) == 2.5


def test_entry_planes_layout_gives_identical_products():
    # the memory order of the operands must not change a single bit
    rng = np.random.default_rng(47)
    A = random_coefficients(rng, (5, 6))
    B = random_coefficients(rng, (5, 6))
    q = random_group(rng, (5, 6))
    planar = su2_algebra.empty_coefficients((5, 6))
    planar[...] = A
    assert planar[..., 1].flags.c_contiguous
    assert np.array_equal(added_commutator(planar, B, 1.5), added_commutator(A, B, 1.5))
    R = su2_algebra.rotation(q)
    assert np.array_equal(su2_algebra.rotate(R, planar), su2_algebra.rotate(R, A))
    assert np.array_equal(R, su2_algebra.rotation(np.ascontiguousarray(q)))


def axes_shape(grid, axes):
    return tuple(n if d in axes else 1 for d, n in enumerate(grid.dims))


def compact_pair(rng, grid, a_axes, q_axes):
    """A random stacked potential and group field kept along the given axes only."""
    return (random_coefficients(rng, (4,) + axes_shape(grid, a_axes)),
            random_group(rng, axes_shape(grid, q_axes)))


# derandomised (potential axes, group field axes): empty, single, disjoint,
# overlapping, nested and full subsets
AXIS_SUBSETS = [((), ()), ((0,), (3,)), ((1, 3), (1, 3)), ((0, 2), (1, 3)),
                ((0, 1, 2), (2,)), ((3,), (0, 1, 2, 3)), ((0, 1, 2, 3), (1, 2))]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, on both sides
@pytest.mark.parametrize("special", [None, math.inf, math.nan])
@pytest.mark.parametrize("a_axes, q_axes", AXIS_SUBSETS)
def test_compact_matrix_fields_equal_their_dense_copies(a_axes, q_axes, special):
    from su2reduce import ansatz_field

    grid = lattice.Grid4((4, 5, 6, 4), 0.3)
    rng = np.random.default_rng(len(a_axes) * 10 + len(q_axes))
    A, q = compact_pair(rng, grid, a_axes, q_axes)
    # and a potential whose four components each keep a different subset
    i = AXIS_SUBSETS.index((a_axes, q_axes))
    own = tuple(random_coefficients(rng, axes_shape(grid, AXIS_SUBSETS[(i + mu) % len(AXIS_SUBSETS)][0]))
                for mu in range(4))
    if special is not None:
        A[(2,) + (0,) * 4 + (1,)] = special
        own[2][(0,) * 4 + (1,)] = special
        q[(0,) * 4 + (0,)] = special
    qd = np.broadcast_to(q, grid.dims + (4,)).copy()
    R, Rd = su2_algebra.rotation(q), su2_algebra.rotation(qd)
    g = 1.7

    def same(got, want):
        assert np.array_equal(np.broadcast_to(got, want.shape), want, equal_nan=True)

    for pot in (A, own):
        Ad = np.stack([np.broadcast_to(a, grid.dims + (4,)) for a in pot])
        for a, want in zip(pot, su2_algebra.rotate(Rd, Ad)):
            same(su2_algebra.rotate(R, a), want)
        for a, ad in zip(pot, Ad):
            assert np.array_equal([su2_algebra.max_norm(a)], [su2_algebra.max_norm(ad)], equal_nan=True)
        moved, moved_d = (su2_algebra.gauge_transform(grid, pot, q, g),
                          su2_algebra.gauge_transform(grid, Ad, qd, g))
        assert len(moved) == len(moved_d) == 4
        for a, got, want in zip(pot, moved, moved_d):
            assert got.shape == np.broadcast_shapes(a.shape, q.shape)
            same(got, want)
        for mu, nu in ansatz_field.PAIRS:
            F = ansatz_field.field_strength_matrix(grid, pot, g, mu, nu)
            assert F.shape == np.broadcast_shapes(pot[mu - 1].shape, pot[nu - 1].shape)
            same(F, ansatz_field.field_strength_matrix(grid, Ad, g, mu, nu))
            same(added_commutator(pot[mu - 1], pot[nu - 1], g), added_commutator(Ad[mu - 1], Ad[nu - 1], g))
    for mu in range(1, 5):
        same(su2_algebra.pure_gauge_field(grid, q, g, mu), su2_algebra.pure_gauge_field(grid, qd, g, mu))
        assert su2_algebra.pure_gauge_field(grid, q, g, mu).shape == q.shape


def test_a_matrix_axis_neither_full_nor_one_is_refused():
    from su2reduce import ansatz_field

    grid = lattice.Grid4.cubic(6)
    A, q = compact_pair(np.random.default_rng(3), grid, (0, 1), (2, 3))
    bad_a = np.zeros((4, 6, 3, 1, 1, 4))
    bad_q = np.zeros((1, 1, 2, 6, 4))
    with pytest.raises(lattice.GridMismatchError):
        su2_algebra.gauge_transform(grid, bad_a, q, 1.0)
    with pytest.raises(lattice.GridMismatchError):
        su2_algebra.gauge_transform(grid, A, bad_q, 1.0)
    with pytest.raises(lattice.GridMismatchError):
        su2_algebra.pure_gauge_field(grid, bad_q, 1.0, 1)
    with pytest.raises(lattice.GridMismatchError):
        ansatz_field.field_strength_matrix(grid, bad_a, 1.0, 1, 2)
    with pytest.raises(lattice.GridMismatchError):  # too few axes for a field
        su2_algebra.pure_gauge_field(grid, np.zeros((6, 6, 6, 4)), 1.0, 1)
    # a potential is four components, each on axes of its own
    parts = list(A)
    wrong = [parts[:3], parts + [parts[0]]]
    for k in range(4):
        for bad in (np.zeros((6, 3, 1, 1, 4)), np.zeros((6, 6, 1, 1)), np.zeros((6, 6, 1, 1, 2, 2))):
            wrong.append(parts[:k] + [bad] + parts[k + 1:])
    for bad in wrong:
        with pytest.raises(lattice.GridMismatchError):
            su2_algebra.gauge_transform(grid, bad, q, 1.0)
        with pytest.raises(lattice.GridMismatchError):
            ansatz_field.field_strength_matrix(grid, bad, 1.0, 1, 2)


@pytest.mark.parametrize("plane", range(4))
def test_max_norm_keeps_a_nan_in_any_coefficient_plane(plane):
    for where in ((0, 0, 0, 0), (1, 2, 0, 0)):
        X = np.zeros((2, 3, 1, 1, 4))
        X[where + (plane,)] = math.nan
        assert math.isnan(su2_algebra.max_norm(X))
    X[where + (plane,)] = -3.0
    assert su2_algebra.max_norm(X) == 3.0


def hypot_max_norm(X):
    """max_norm through libm's hypot: the reference for the scaled form."""
    return float(np.max([np.max(np.hypot(X[..., 3], X[..., 0])),
                         np.max(np.hypot(X[..., 1], X[..., 2]))]))


@pytest.mark.parametrize("scale", [1.0, 1e-300, 5e-324, 1e300, 1e308, "spread"])
def test_max_norm_agrees_with_hypot_to_four_ulp(scale):
    rng = np.random.default_rng(61)
    for _ in range(20):
        shape = (5, 4, 3, 2, 4)
        if scale == "spread":  # moduli from 1e-300 to 1e300 in one field
            X = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        elif scale == 5e-324:  # subnormal multiples of the smallest float, exact
            X = rng.integers(-1000, 1001, shape) * scale
        else:
            X = rng.uniform(-1.0, 1.0, shape) * scale
        want = hypot_max_norm(X)
        assert 0.0 < want < math.inf
        assert abs(su2_algebra.max_norm(X) - want) <= 4 * np.spacing(want), scale


@pytest.mark.parametrize("plane", range(4))
def test_max_norm_of_zero_and_inf_fields(plane):
    X = np.zeros((2, 3, 1, 1, 4))
    got = su2_algebra.max_norm(X)
    assert got == 0.0 and type(got) is float
    X[1, 2, 0, 0, plane] = -math.inf
    assert su2_algebra.max_norm(X) == math.inf
    X[0, 0, 0, 0, (plane + 1) % 4] = math.nan  # a nan elsewhere still wins
    assert math.isnan(su2_algebra.max_norm(X))


@pytest.mark.parametrize("inf_plane, nan_plane", [(3, 0), (0, 3), (1, 2), (2, 1)])
def test_max_norm_of_an_entry_holding_inf_and_nan_is_nan(inf_plane, nan_plane):
    # hypot(inf, nan) is inf, so the hypot form read inf at such an entry; the
    # scaled form takes the nan-propagating max of |x| and |y| first, so it
    # reads nan, as it does for a nan anywhere else
    X = np.zeros((2, 4))
    X[1, inf_plane], X[1, nan_plane] = math.inf, math.nan
    assert hypot_max_norm(X) == math.inf
    assert math.isnan(su2_algebra.max_norm(X))


def test_unitarity_defect_keeps_a_nan_in_either_residual(monkeypatch):
    for norms in ((0.0, math.nan), (math.nan, 0.0)):
        monkeypatch.setattr(lattice, "max_abs", lambda x, it=iter(norms): next(it))
        assert math.isnan(su2_algebra.unitarity_defect(su2_algebra.group_matrices(np.eye(4)[0])))
