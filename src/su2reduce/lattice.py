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
read the wrapped neighbours.

Index convention: mu runs 1..4 and maps to array axis mu-1. Axis 4 is the
time axis, axes 1..3 are spatial; the wave operator `box` is Euclidean and
counts all four alike.
"""

from __future__ import annotations

import math
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


def check_field(grid: Grid4, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f)
    if f.ndim < 4 or any(s not in (1, n) for s, n in zip(f.shape, grid.dims)):
        raise GridMismatchError(f"field shape {f.shape} does not fit the grid dims {grid.dims}")
    return f


def _stencil_views(grid: Grid4, f: np.ndarray, mu: int):
    """(f, out, o): an uninitialised result `out` in f's memory order, with
    f and o the views of the input and of `out` that put axis mu first."""
    _check_mu(mu)
    f = check_field(grid, f)
    out = np.empty_like(f, dtype=np.result_type(f, 1.0))
    return np.swapaxes(f, mu - 1, 0), out, np.swapaxes(out, mu - 1, 0)


def partial(grid: Grid4, f: np.ndarray, mu: int) -> np.ndarray:
    """Central first difference along direction mu: (f(x+h e) - f(x-h e)) / 2h."""
    f, out, o = _stencil_views(grid, f, mu)
    if len(f) == 1:  # both neighbours are the point itself
        np.subtract(f, f, out=o)
    else:
        np.subtract(f[2:], f[:-2], out=o[1:-1])
        np.subtract(f[1:2], f[-1:], out=o[:1])
        np.subtract(f[:1], f[-2:-1], out=o[-1:])
    out /= 2.0 * grid.h
    return out


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


def divergence(grid: Grid4, v: np.ndarray) -> np.ndarray:
    """sum_mu d_mu v_mu for a four-component field shaped (4, *dims)."""
    v = np.asarray(v)
    if v.shape[0] != 4:
        raise GridMismatchError(f"expected a leading component axis of length 4, got shape {v.shape}")
    out = partial(grid, v[0], 1)
    for mu in (2, 3, 4):
        out += partial(grid, v[mu - 1], mu)
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
    row repeated along the field's length-1 axes."""
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
        fh.writelines(np.broadcast_to(rows, grid.dims).flat)


def save_field_npz(path, grid: Grid4, f: np.ndarray) -> None:
    """Stores the field repeated to the full grid shape."""
    f = check_field(grid, f)
    f = np.broadcast_to(f, grid.dims + f.shape[4:])
    np.savez(path, values=f, dims=np.array(grid.dims), h=np.array(grid.h))
