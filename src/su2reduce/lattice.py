"""Periodic 4D lattice geometry and central-difference operators.

Fields are plain numpy arrays whose first four axes match the grid shape,
each either dims[d] or 1: a length-1 axis holds a field that does not
vary along it, and numpy broadcasting supplies the repeats. A stencil
along such an axis sees the point itself as both periodic neighbours,
so it gives what the repeated dense field would, inf and nan included.
Trailing axes (the four u(2) coefficients of an SU(2) field and the like)
ride along untouched, so the same stencils serve scalar, vector and
matrix-valued data. All stencils
wrap periodically; that makes discrete integration by parts exact and
keeps every operator translation invariant. They are built by slicing
into one preallocated result, which keeps the input's memory order: the
interior points read the shifted slices directly and the two seam points
read the wrapped neighbours. `divergence` takes its four components as one
array or as any iterable, so a caller can build each one as its stencil
reads it; the CSV and npz writers repeat a compact field to the grid one
slab of axis 1 per write, never as a whole copy.

A slab is a run of whole planes of a field along one axis d: named as
`slab=d`, `check_field` and `partial` accept any length from 1 to dims[d]
there. A stencil along d of a slab reads planes the slab does not hold, so
`partial` refuses it; `halo_partial` takes it from the slab and the one
plane on either side. Both run the one central difference, `_difference`,
and a whole axis with its own wrapped planes as the halo gives `partial`'s
result bit for bit.

Index convention: mu runs 1..4 and maps to array axis mu-1. Axis 4 is the
time axis, axes 1..3 are spatial; the wave operator `box` is Euclidean and
counts all four alike.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np


class GridMismatchError(ValueError):
    """A field's leading shape does not match the grid it is used with."""


@dataclass(frozen=True)
class Grid4:
    """Uniform periodic lattice with a shared spacing on all four axes.

    dims    points per axis, each at least 4 so central stencils see
            distinct neighbours
    h       lattice spacing
    """

    dims: tuple[int, int, int, int]
    h: float

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) != 4 or any(n < 4 for n in dims):
            raise ValueError(f"need four axes with at least 4 points each, got {dims}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"spacing must be finite and positive, got {self.h}")

    @classmethod
    def cubic(cls, n: int, length: float = 2.0 * math.pi) -> "Grid4":
        """n points per axis spanning `length`; integer-cycle trig modes stay commensurate."""
        return cls((n, n, n, n), length / n)

    def length(self, mu: int) -> float:
        _check_mu(mu)
        return self.dims[mu - 1] * self.h

    def coords(self):
        """Sparse broadcastable coordinate arrays (x1, x2, x3, x4)."""
        axes = [self.h * np.arange(n) for n in self.dims]
        return np.meshgrid(*axes, indexing="ij", sparse=True)


def _check_mu(mu: int) -> None:
    if mu not in (1, 2, 3, 4):
        raise ValueError(f"direction index must be 1..4, got {mu}")


def check_field(grid: Grid4, f: np.ndarray, slab: int | None = None) -> np.ndarray:
    """f as an array, once each of its first four axes is the grid's length there or 1;
    along `slab`, a 0-based axis along which f is a slab (a run of whole planes of a
    field), any length from 1 to the grid's."""
    f = np.asarray(f)
    if f.ndim < 4 or any(s not in (1, n) and not (d == slab and 1 <= s <= n)
                         for d, (s, n) in enumerate(zip(f.shape, grid.dims))):
        raise GridMismatchError(f"field shape {f.shape} does not fit the grid dims {grid.dims}")
    return f


def _stencil_views(grid: Grid4, f: np.ndarray, mu: int, slab: int | None = None):
    """(f, out, o): an uninitialised result `out` in f's memory order, with
    f and o the views of the input and of `out` that put axis mu first."""
    _check_mu(mu)
    f = check_field(grid, f, slab)
    out = np.empty_like(f, dtype=np.result_type(f, 1.0))
    return np.swapaxes(f, mu - 1, 0), out, np.swapaxes(out, mu - 1, 0)


def _difference(grid: Grid4, f, below, above, out, o) -> np.ndarray:
    """The one central first difference: o = (f(x+h e) - f(x-h e)) / 2h along the
    first axis of f, whose neighbours past its first and last planes are the planes
    `below` and `above`; o is a view of `out`."""
    if len(f) == 1:
        np.subtract(above, below, out=o)
    else:
        np.subtract(f[2:], f[:-2], out=o[1:-1])
        np.subtract(f[1:2], below, out=o[:1])
        np.subtract(above, f[-2:-1], out=o[-1:])
    out /= 2.0 * grid.h
    return out


def partial(grid: Grid4, f: np.ndarray, mu: int, slab: int | None = None) -> np.ndarray:
    """Central first difference along direction mu: (f(x+h e) - f(x-h e)) / 2h.

    f may be a slab along the 0-based axis `slab`, not along mu's own axis: a
    stencil along the axis a slab is cut along reads planes the slab does not
    hold (`halo_partial` takes them)."""
    if mu - 1 == slab:
        raise GridMismatchError(f"a stencil along axis {slab} of a slab along it reads planes it does not hold")
    f, out, o = _stencil_views(grid, f, mu, slab)
    return _difference(grid, f, f[-1:], f[:1], out, o)


def halo_partial(grid: Grid4, f: np.ndarray, mu: int, below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """`partial` along mu of f, a slab along mu's own axis of a periodic field whose planes
    just before and just after the slab are `below` and `above`: for the whole axis, the
    field's last and first planes, which gives partial's result bit for bit."""
    f, out, o = _stencil_views(grid, f, mu, mu - 1)
    halo = [np.swapaxes(check_field(grid, x, mu - 1), mu - 1, 0) for x in (below, above)]
    if any(x.shape != f[:1].shape for x in halo):
        raise GridMismatchError(f"halo planes {[np.shape(x) for x in (below, above)]} do not border "
                                f"the slab {np.swapaxes(f, 0, mu - 1).shape} along axis {mu - 1}")
    return _difference(grid, f, *halo, out, o)


def second_diff(grid: Grid4, f: np.ndarray, mu: int) -> np.ndarray:
    """Compact second difference along mu: (f(x+h e) - 2 f(x) + f(x-h e)) / h^2."""
    f, out, o = _stencil_views(grid, f, mu)
    np.multiply(f, 2.0, out=o)
    np.subtract(f[1:], o[:-1], out=o[:-1])
    np.subtract(f[:1], o[-1:], out=o[-1:])
    np.add(o[1:], f[:-1], out=o[1:])
    np.add(o[:1], f[-1:], out=o[:1])
    out /= np.float64(grid.h) ** 2  # libm pow as for a float, but inf on overflow
    return out


def box(grid: Grid4, f: np.ndarray) -> np.ndarray:
    """Euclidean wave operator: the sum of the four compact second differences.

    The compact stencil is used directly rather than composing two first
    differences; the two choices differ at O(h^2) and the compact one has
    the smaller stencil footprint.
    """
    out = second_diff(grid, f, 1)
    for mu in (2, 3, 4):
        out += second_diff(grid, f, mu)
    return out


def divergence(grid: Grid4, v) -> np.ndarray:
    """sum_mu d_mu v_mu of a four-component field: an array shaped (4, *dims) or any
    iterable of four components of one shape and dtype, such as a generator that
    builds each on demand; a component is only its stencil's argument, so it is
    dropped before the next is drawn. A missing one arrives as None, which
    check_field refuses."""
    it = iter(v)
    out = partial(grid, next(it, None), 1)
    for mu in (2, 3, 4):
        out += partial(grid, next(it, None), mu)
    if next(it, None) is not None:
        raise GridMismatchError("expected four components, got more")
    return out


def max_abs(f: np.ndarray) -> float:
    """Max-norm used for every tolerance in this package."""
    return float(np.max(np.abs(f))) if np.asarray(f).size else 0.0


@dataclass(frozen=True)
class OrderEstimate:
    """Result of a grid-refinement study.

    order     least-squares slope of log(max error) against log(h), or
              None when an error is zero or not finite
    spacings  the h values visited
    errors    max-norm errors per grid
    """

    order: float | None
    spacings: tuple[float, ...]
    errors: tuple[float, ...]


def fit_order(spacings, errors) -> float:
    """Slope of log(error) vs log(h). Caller guards against zero errors."""
    hs = np.asarray(spacings, dtype=float)
    es = np.asarray(errors, dtype=float)
    if hs.size != es.size or hs.size < 2:
        raise ValueError("need matching spacing/error sequences with at least 2 entries")
    if np.any(es <= 0):
        raise ValueError("errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(hs), np.log(es), 1)[0])


# ---------------------------------------------------------------------------
# serialization: header (dims, h) then values in row-major order


def save_field_csv(path, grid: Grid4, f: np.ndarray) -> None:
    """One row per grid point. Each stored value is formatted once and its
    row repeated along the field's length-1 axes, one slab of axis 1 per write."""
    f = check_field(grid, f)
    if f.ndim != 4:
        raise ValueError("csv layout stores scalar fields only (four axes)")
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


def save_field_npz(path, grid: Grid4, f: np.ndarray) -> None:
    """An uncompressed .npz that loads as np.savez's of `values`, the field repeated
    to the full grid shape, `dims` and `h`; `values` is written one slab of axis 1 at a time."""
    f = check_field(grid, f)
    f = np.broadcast_to(f, grid.dims + f.shape[4:])
    header = {"descr": np.lib.format.dtype_to_descr(f.dtype), "fortran_order": False, "shape": f.shape}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        with zf.open("values.npy", "w", force_zip64=True) as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            for slab in f:
                fh.write(np.ascontiguousarray(slab))
        for name, a in (("dims", np.array(grid.dims)), ("h", np.array(grid.h))):
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, a, allow_pickle=False)
