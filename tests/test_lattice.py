"""Stencil, refinement-fit and serialization tests for the grid layer."""

import math
import zipfile

import numpy as np
import pytest

from su2reduce import lattice

import oracles


def small_grid(n=8):
    return lattice.Grid4.cubic(n, 2.0 * math.pi)


def test_grid_validation():
    with pytest.raises(ValueError):
        lattice.Grid4((4, 4, 4), 0.1)
    with pytest.raises(ValueError):
        lattice.Grid4((4, 4, 4, 3), 0.1)
    with pytest.raises(ValueError):
        lattice.Grid4((4, 4, 4, 4), -1.0)


def test_grid_lengths_and_coords():
    grid = small_grid(8)
    for mu in (1, 2, 3, 4):
        assert grid.length(mu) == pytest.approx(2.0 * math.pi)
    xs = grid.coords()
    assert xs[0].shape == (8, 1, 1, 1)
    assert float(xs[3][0, 0, 0, 1]) == pytest.approx(grid.h)


def test_partial_matches_discrete_dispersion():
    # a central stencil acts on sin(kx + p) as the exact multiplier sin(kh)/h
    grid = small_grid(12)
    xs = grid.coords()
    for mu, cycles in ((1, 1), (2, 2), (4, -1)):
        k = 2.0 * math.pi * cycles / grid.length(mu)
        f = np.broadcast_to(np.sin(k * xs[mu - 1] + 0.3), grid.dims).copy()
        want = oracles.first_diff_factor(k, grid.h) * np.cos(
            np.broadcast_to(k * xs[mu - 1] + 0.3, grid.dims)
        )
        got = lattice.partial(grid, f, mu)
        assert lattice.max_abs(got - want) < 1e-13


def test_second_diff_matches_discrete_dispersion():
    grid = small_grid(10)
    xs = grid.coords()
    k = 2.0 * math.pi * 2 / grid.length(3)
    f = np.broadcast_to(np.sin(k * xs[2] + 1.1), grid.dims).copy()
    want = oracles.second_diff_factor(k, grid.h) * f
    got = lattice.second_diff(grid, f, 3)
    assert lattice.max_abs(got - want) < 1e-12


def test_box_is_the_sum_of_the_four_second_differences():
    grid = small_grid(8)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.dims)
    # every axis counts with the same sign, summed in axis order
    parts = [lattice.second_diff(grid, f, mu) for mu in (1, 2, 3, 4)]
    assert np.array_equal(lattice.box(grid, f), ((parts[0] + parts[1]) + parts[2]) + parts[3])


def roll_partial(grid, f, mu):
    ax = mu - 1
    return (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) / (2.0 * grid.h)


def roll_second_diff(grid, f, mu):
    ax = mu - 1
    return (np.roll(f, -1, axis=ax) - 2.0 * f + np.roll(f, 1, axis=ax)) / grid.h**2


@pytest.mark.parametrize("dims", [(4, 4, 4, 4), (5, 4, 7, 6)])
@pytest.mark.parametrize("trailing", [(), (2, 2)])
def test_slicing_stencils_equal_rolled_reference(dims, trailing):
    grid = lattice.Grid4(dims, 0.37)
    rng = np.random.default_rng(17)
    shape = dims + trailing
    fields = [rng.standard_normal(shape)]
    if trailing:
        fields.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for f in fields:
        for mu in (1, 2, 3, 4):
            assert np.array_equal(lattice.partial(grid, f, mu), roll_partial(grid, f, mu))
            assert np.array_equal(lattice.second_diff(grid, f, mu), roll_second_diff(grid, f, mu))


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("shape", [(5, 1, 7, 1), (1, 4, 1, 6), (1, 1, 1, 1)])
@pytest.mark.parametrize("trailing", [(), (2,)])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, on both sides
def test_stencils_on_length_one_axes_equal_the_dense_field(shape, trailing):
    # a length-1 axis stands for a field that repeats along it: every
    # stencil gives the dense field's result bit for bit, inf and nan too
    grid = lattice.Grid4((5, 4, 7, 6), 0.37)
    rng = np.random.default_rng(31)
    full = grid.dims + trailing
    for f in (rng.standard_normal(shape + trailing),
              rng.standard_normal(shape + trailing) + 1j * rng.standard_normal(shape + trailing)):
        f.flat[0], f.flat[-1] = np.inf, np.nan
        dense = np.broadcast_to(f, full).copy()
        for mu in (1, 2, 3, 4):
            assert bits(np.broadcast_to(lattice.partial(grid, f, mu), full)) == bits(
                lattice.partial(grid, dense, mu))
            assert bits(np.broadcast_to(lattice.second_diff(grid, f, mu), full)) == bits(
                lattice.second_diff(grid, dense, mu))
        assert bits(np.broadcast_to(lattice.box(grid, f), full)) == bits(lattice.box(grid, dense))


def test_an_axis_neither_full_nor_one_is_refused():
    grid = lattice.Grid4((5, 4, 7, 6), 0.37)
    for shape in ((5, 2, 7, 6), (5, 4, 7), (1, 1, 1, 5)):
        with pytest.raises(lattice.GridMismatchError):
            lattice.check_field(grid, np.zeros(shape))
    with pytest.raises(lattice.GridMismatchError):
        lattice.partial(grid, np.zeros((5, 2, 7, 1)), 1)


def test_check_field_without_a_slab_axis_refuses_what_it_refused():
    # the rule before slabs: four leading axes, each the grid's length or 1
    grid = lattice.Grid4((5, 4, 7, 6), 0.37)
    lengths = [sorted({0, 1, 2, n - 1, n, n + 1}) for n in grid.dims]
    for shape in [(a, b, c, e) for a in lengths[0] for b in lengths[1] for c in lengths[2] for e in lengths[3]] + [
            (5, 4, 7), (5,), (5, 4, 7, 6, 3), (1, 4, 7, 1, 2), (5, 3, 7, 6, 1)]:
        old = len(shape) >= 4 and all(s in (1, n) for s, n in zip(shape, grid.dims))
        for slab in ((), (None,)):
            if old:
                assert lattice.check_field(grid, np.zeros(shape), *slab).shape == shape
            else:
                with pytest.raises(lattice.GridMismatchError):
                    lattice.check_field(grid, np.zeros(shape), *slab)
    # along a slab axis any length 1..n passes; every other axis keeps the rule
    for d, n in enumerate(grid.dims):
        for length in range(n + 2):
            shape = tuple(length if k == d else grid.dims[k] for k in range(4))
            if 1 <= length <= n:
                assert lattice.check_field(grid, np.zeros(shape), d).shape == shape
            else:
                with pytest.raises(lattice.GridMismatchError):
                    lattice.check_field(grid, np.zeros(shape), d)
        with pytest.raises(lattice.GridMismatchError):
            lattice.check_field(grid, np.zeros(tuple(2 if k == d else 3 if k == (d + 1) % 4 else 1
                                                     for k in range(4))), d)


def planes(f, d, start, stop):
    """Planes start..stop-1 of f along axis d, wrapping, as a copy."""
    return np.take(f, range(start, stop), axis=d, mode="wrap")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, on both sides
def test_stencils_on_a_slab_are_the_slab_of_the_stencils_bit_for_bit():
    grid = lattice.Grid4((7, 5, 6, 4), 0.37)
    rng = np.random.default_rng(41)
    f = rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
    f[0, 1, 2, 3], f[-1, 0, 1, 2], f[3, -1, -1, 0], f[2, 2, 0, -1] = np.inf, np.nan, -np.inf, np.nan
    for d, n in enumerate(grid.dims):
        whole = [lattice.partial(grid, f, mu) for mu in (1, 2, 3, 4)]
        # the first and last planes (their halos wrap), a last slab shorter than the
        # others, single planes, the whole axis
        for start, stop in ((0, 2), (2, 4), (n - 3, n), (n - 1, n), (0, 1), (1, 2), (0, n)):
            slab = planes(f, d, start, stop)
            for mu in (1, 2, 3, 4):
                want = bits(planes(whole[mu - 1], d, start, stop))
                if mu == d + 1:
                    got = lattice.halo_partial(grid, slab, mu, planes(f, d, start - 1, start),
                                               planes(f, d, stop, stop + 1))
                    assert bits(got) == want, (d, start, stop)
                    with pytest.raises(lattice.GridMismatchError):
                        lattice.partial(grid, slab, mu, d)
                else:
                    assert bits(lattice.partial(grid, slab, mu, d)) == want, (d, mu, start, stop)


def test_a_halo_must_be_one_plane_bordering_the_slab():
    grid = lattice.Grid4((7, 5, 6, 4), 0.37)
    f = np.zeros(grid.dims)
    slab, plane = f[2:5], f[:1]
    assert lattice.halo_partial(grid, slab, 1, plane, plane).shape == slab.shape
    for below, above in ((f[:2], plane), (plane, f[:1, :1]), (plane, f[:1, :, :, :1])):
        with pytest.raises(lattice.GridMismatchError):
            lattice.halo_partial(grid, slab, 1, below, above)
    with pytest.raises(lattice.GridMismatchError):  # not a slab of this grid
        lattice.halo_partial(grid, np.zeros((3, 5, 6, 3)), 1, plane, plane)


def test_divergence_and_shape_guards():
    grid = small_grid(8)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((4,) + grid.dims)
    with pytest.raises(lattice.GridMismatchError):
        lattice.check_field(grid, np.zeros((8, 8, 8, 4)))
    with pytest.raises(ValueError):
        lattice.partial(grid, v[0], 5)


def test_periodic_sum_of_partial_vanishes():
    # rolled differences telescope to zero over the periodic box
    grid = small_grid(6)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.dims)
    total = lattice.partial(grid, f, 2).sum()
    assert abs(total) < 1e-12


def test_fit_order_recovers_synthetic_slope():
    hs = [0.4, 0.2, 0.1, 0.05]
    for p in (1.0, 2.0, 2.37):
        errs = [0.9 * h**p for h in hs]
        assert lattice.fit_order(hs, errs) == pytest.approx(p, abs=1e-12)
    # Seeded ladders of 2-5 strictly increasing spacings whose errors, about
    # C h^p, span 1e-300 to 1e300; every third touches each end. The closed
    # form reads within 4.2e-16 of the slope summed without rounding, and
    # np.polyfit's own solve strays up to 2.3e-13 from that slope where
    # |log error| nears 690, so polyfit is held at 1e-12 and the exact at 1e-14.
    rng = np.random.default_rng(29)
    for k in range(300):
        hs = np.cumprod(np.r_[10 ** rng.uniform(-3, 0), rng.uniform(1.25, 4, rng.integers(1, 5))])
        logs = rng.uniform(1, 6) * np.log10(hs) + np.log10(rng.uniform(0.95, 1.05, hs.size))
        lo, hi = -300 - logs.min(), 300 - logs.max()
        errs = 10 ** (logs + (lo, hi, rng.uniform(lo, hi))[k % 3])
        assert 1e-300 * (1 - 1e-13) <= errs.min() and errs.max() <= 1e300 * (1 + 1e-13)
        order = lattice.fit_order(hs, errs)
        assert order == pytest.approx(oracles.exact_order(hs, errs), rel=1e-14, abs=0)
        assert order == pytest.approx(oracles.polyfit_order(hs, errs), rel=1e-12, abs=0)
    for hs, errs in (([0.1], [0.5]), ([0.1, 0.05], [0.5]), ([0.1, 0.05, 0.02], [0.5, 0.1]),
                     ([0.1, 0.05], [0.5, 0.0]), ([0.1, 0.05], [-0.5, 0.1])):
        with pytest.raises(ValueError):
            lattice.fit_order(hs, errs)


def test_convergence_order_second_order_stencil():
    # h-halving ladder for the central difference of sin(x1) against cos(x1)
    hs, errs = [], []
    for n in (8, 16, 32):
        grid = small_grid(n)
        xs = grid.coords()
        f = np.broadcast_to(np.sin(xs[0]), grid.dims).copy()
        errs.append(lattice.max_abs(lattice.partial(grid, f, 1) - np.cos(xs[0])))
        hs.append(grid.h)
    assert lattice.fit_order(hs, errs) == pytest.approx(2.0, abs=0.05)


def test_csv_round_trip_real_and_complex(tmp_path):
    grid = small_grid(4)
    rng = np.random.default_rng(17)
    real = rng.standard_normal(grid.dims)
    path = tmp_path / "real.csv"
    lattice.save_field_csv(path, grid, real)
    header, back = oracles.read_field_csv(path)
    assert header == {"dims": grid.dims, "h": grid.h, "kind": "real"}
    assert np.array_equal(back, real)

    cplx = rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
    path_c = tmp_path / "cplx.csv"
    lattice.save_field_csv(path_c, grid, cplx)
    header_c, back_c = oracles.read_field_csv(path_c)
    assert header_c["kind"] == "complex"
    assert np.array_equal(back_c, cplx)


def test_csv_writer_gives_the_whole_field_writers_bytes(tmp_path):
    # One slab of axis 1 formatted at a time, and a field that does not vary
    # along axis 1 formatted once for every slab, write what the writer that
    # formatted every stored value before its first row wrote, byte for byte.
    rng = np.random.default_rng(29)
    planted = (math.inf, math.nan, -0.0, 5e-324, -math.inf)
    for grid in (lattice.Grid4((4, 5, 6, 7), 0.37), small_grid(4)):
        n1, n2, n3, n4 = grid.dims
        for shape in ((n1, n2, n3, n4), (1, n2, n3, n4), (n1, 1, n3, 1), (1, n2, 1, n4), (1, 1, 1, 1)):
            real = rng.standard_normal(shape)
            cplx = real + 1j * rng.standard_normal(shape)
            odd = real.copy(), cplx.copy()
            for k, v in enumerate(planted):
                odd[0].flat[k * 7 % real.size] = v
                odd[1].flat[k * 5 % real.size] = complex(v, planted[k - 2])
            for f in (real, cplx, real.astype(np.float32), *odd):
                lattice.save_field_csv(tmp_path / "slab.csv", grid, f)
                oracles.save_field_csv_whole(tmp_path / "whole.csv", grid, f)
                assert (tmp_path / "slab.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_csv_rejects_component_fields(tmp_path):
    grid = small_grid(4)
    with pytest.raises(ValueError):
        lattice.save_field_csv(tmp_path / "bad.csv", grid, np.zeros(grid.dims + (4,)))


def test_compact_fields_are_written_as_their_dense_copies(tmp_path):
    grid = lattice.Grid4((5, 4, 7, 6), 0.37)
    rng = np.random.default_rng(41)
    real = rng.standard_normal((5, 1, 7, 1))
    for f in (real, real + 1j * rng.standard_normal(real.shape)):
        dense = np.broadcast_to(f, grid.dims).copy()
        for name, field in (("compact", f), ("dense", dense)):
            lattice.save_field_csv(tmp_path / f"{name}.csv", grid, field)
            lattice.save_field_npz(tmp_path / f"{name}.npz", grid, np.stack([field, 2.0 * field], -1))
        text = (tmp_path / "compact.csv").read_text()
        assert text == (tmp_path / "dense.csv").read_text()
        # one row per point in row-major order, each value by float repr
        if np.iscomplexobj(f):
            rows = [f"{float(z.real)!r},{float(z.imag)!r}\n" for z in dense.ravel()]
        else:
            rows = [f"{float(v)!r}\n" for v in dense.ravel()]
        assert text.splitlines(keepends=True)[3:] == rows
        back = oracles.read_field_npz(tmp_path / "compact.npz")["values"]
        assert back.shape == grid.dims + (2,)
        assert np.array_equal(back, oracles.read_field_npz(tmp_path / "dense.npz")["values"])


def test_npz_loads_as_an_uncompressed_savez_of_the_dense_field(tmp_path):
    # the written file, read with np.load(allow_pickle=False), holds the
    # members, dtypes, shapes and bits of np.savez's file of the dense field
    grid = lattice.Grid4((5, 4, 7, 6), 0.37)
    rng = np.random.default_rng(43)
    planted = rng.standard_normal((1, 4, 7, 6, 2)) + 1j * rng.standard_normal((1, 4, 7, 6, 2))
    planted.flat[0], planted.flat[-1] = np.inf, np.nan
    for f in (rng.standard_normal((5, 1, 7, 1, 3)), planted, rng.standard_normal(grid.dims),
              np.asfortranarray(rng.standard_normal(grid.dims + (2,))), np.arange(5 * 4 * 7 * 6).reshape(grid.dims)):
        mine, ref = tmp_path / "mine.npz", tmp_path / "ref.npz"
        lattice.save_field_npz(mine, grid, f)
        np.savez(ref, values=np.broadcast_to(f, grid.dims + f.shape[4:]), dims=np.array(grid.dims),
                 h=np.array(grid.h))
        with np.load(mine, allow_pickle=False) as got, np.load(ref, allow_pickle=False) as want:
            assert got.files == want.files == ["values", "dims", "h"]
            for key in want.files:
                assert (got[key].dtype, got[key].shape) == (want[key].dtype, want[key].shape)
                assert bits(got[key]) == bits(want[key])
        with zipfile.ZipFile(mine) as zf:
            assert [info.compress_type for info in zf.infolist()] == [zipfile.ZIP_STORED] * 3


def test_npz_round_trip_with_trailing_axes(tmp_path):
    grid = small_grid(4)
    rng = np.random.default_rng(23)
    vals = rng.standard_normal(grid.dims + (4,)) + 1j * rng.standard_normal(grid.dims + (4,))
    path = tmp_path / "field.npz"
    lattice.save_field_npz(path, grid, vals)
    data = oracles.read_field_npz(path)
    assert set(data) == {"dims", "h", "values"}
    assert tuple(data["dims"]) == grid.dims and float(data["h"]) == grid.h
    assert np.array_equal(data["values"], vals)
