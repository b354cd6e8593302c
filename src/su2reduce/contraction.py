"""Radial contraction maps on R^4 and Banach fixed-point machinery.

The map family is lam(x) = c * exp(-|c - x| / n) for a target point c and
an integer scale n: every image point is a scalar multiple of c, the
target is always a fixed point, and the best global Lipschitz constant is
|c| / n. The map is a contraction iff |c| / n < 1, which is a genuine
restriction (and the condition for the fixed point to be unique: past it
a second, stable fixed point appears on the ray), so validity is
certified rather than assumed.

Sampled point batches are (N, 4) arrays stored coordinate-major (F order),
one contiguous run of N floats per coordinate. `point_norms` adds their
squared columns in np.linalg.norm's order, ((x0^2 + x1^2) + x2^2) + x3^2,
so every batch norm is bit for bit np.linalg.norm(x, axis=-1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration hit the step limit; carries the partial trace."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def _check_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 4:
        raise ValueError(f"points live in R^4, got trailing axis {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    return x


@dataclass(frozen=True)
class ContractionMap:
    """lam(x) = center * exp(-|center - x| / n)."""

    center: tuple[float, float, float, float]
    n: int

    def __post_init__(self):
        c = tuple(float(v) for v in np.asarray(self.center, dtype=float).reshape(4))
        if not all(math.isfinite(v) for v in c):
            raise ValueError("center must be a finite 4-vector")
        object.__setattr__(self, "center", c)
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"scale n must be an integer >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def center_array(self) -> np.ndarray:
        return np.array(self.center)

    @property
    def center_norm(self) -> float:
        return float(np.linalg.norm(self.center))

    @property
    def lipschitz_bound(self) -> float:
        """Global bound |center| / n; attained in the limit toward the center."""
        return self.center_norm / self.n

    @property
    def is_contraction(self) -> bool:
        return self.lipschitz_bound < 1.0


def point_norms(x):
    """|x| over the last axis of a (..., 4) array, summed in np.linalg.norm's order."""
    s = x[..., 0] * x[..., 0]
    for k in (1, 2, 3):
        s += x[..., k] * x[..., k]  # in place on a batch, a new scalar for one point
    return np.sqrt(s)


def decay(displacement, n):
    """The map's factor exp(-|displacement| / n) over the last axis of a (..., 4) array
    of displacements c - x (or x - c): the one formula of the map, which `evaluate` and
    the chart collapse both read."""
    return np.exp(-point_norms(displacement) / n)


def evaluate(m: ContractionMap, x) -> np.ndarray:
    """Map one point or a (..., 4) batch of points, in the batch's memory order."""
    x = _check_point(x)
    out = np.subtract(m.center_array, x)  # c - x, overwritten by the images
    return np.multiply(m.center_array, decay(out, m.n)[..., None], out=out)


def ball_draw(count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Directions d (count, 4), coordinate-major, and radial fractions u of uniform
    points d * u in the unit 4-ball; `sample_ball` and the chart collapse draw only here."""
    d = np.asfortranarray(rng.standard_normal((count, 4)))
    d /= point_norms(d)[:, None]
    return d, rng.random(count) ** 0.25


def sample_ball(center, radius: float, count: int, rng) -> np.ndarray:
    """Uniform points in the open 4-ball, shaped (count, 4), coordinate-major."""
    center = _check_point(center).reshape(4)
    if radius <= 0:
        raise ValueError("radius must be positive")
    d, u = ball_draw(count, rng)
    d *= (radius * u)[:, None]
    return np.add(d, center, out=d)


def lipschitz_estimate(m: ContractionMap, pairs: int = 10_000, seed: int = 0) -> tuple[float, int]:
    """Seeded sampled ratio sup d(lam x, lam x') / d(x, x') over the chart
    ball of radius 1/n around the map's center, and the number of distinct
    pairs it was taken over.

    The sampled value never exceeds the closed-form bound |c|/n and
    approaches it for radially aligned pairs near the target.
    """
    if pairs < 2:
        raise ValueError("need at least two pairs")
    rng = np.random.default_rng(seed)
    a = sample_ball(m.center_array, 1.0 / m.n, pairs, rng)
    b = sample_ball(m.center_array, 1.0 / m.n, pairs, rng)
    dist = point_norms(a - b)
    keep = dist > 0
    if not keep.all():
        a, b, dist = a[keep], b[keep], dist[keep]
    img = evaluate(m, a)
    img -= evaluate(m, b)
    ratio = point_norms(img)
    ratio /= dist
    return float(np.max(ratio)), len(dist)


@dataclass(frozen=True)
class IterationTrace:
    """Banach iteration record.

    iterates   (k+1, 4) array of visited points, x_0 first
    distances  per-step displacements |x_{k+1} - x_k|
    ratios     consecutive distance ratios d_{k+1} / d_k
    error_bound  a-posteriori bound q/(1-q) * d_last with q the map bound
               (only meaningful when the map is a certified contraction)
    """

    iterates: np.ndarray
    distances: np.ndarray
    ratios: np.ndarray
    converged: bool
    measured_ratio: float
    error_bound: float

    @property
    def steps(self) -> int:
        return len(self.distances)

    def save_csv(self, path) -> None:
        """Columns: k, x1..x4, d (displacement taken at k), ratio."""
        with open(path, "w", newline="", encoding="ascii") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "x1", "x2", "x3", "x4", "d", "ratio"])
            for k, pt in enumerate(self.iterates):
                d = f"{float(self.distances[k - 1])!r}" if 1 <= k <= len(self.distances) else ""
                rat = f"{float(self.ratios[k - 2])!r}" if 2 <= k <= len(self.ratios) + 1 else ""
                w.writerow([k, *(f"{float(v)!r}" for v in pt), d, rat])


def banach_iterate(m: ContractionMap, x0, tol: float = 1e-12, max_iter: int = 200) -> IterationTrace:
    """Iterate x -> lam(x) until the displacement drops below tol.

    A point whose very first displacement is already below tol counts as
    converged in zero steps. Hitting max_iter raises NonConvergenceError
    with the partial trace attached.

    Every image of the map lies on the ray through the target, so after
    the first step the iteration is one-dimensional in the distance
    r = |x - c|, which obeys r' = -|c| expm1(-r/n). The displacements are
    computed from that recursion (d_k = r_k - r_{k+1}) instead of by
    subtracting near-equal points: near convergence a direct subtraction
    is dominated by exp rounding at about 1e-16 absolute, which would
    bury the per-step contraction ratios in noise, while the expm1 form
    keeps them at full relative precision.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be positive and finite")
    if max_iter < 1:
        raise ValueError("need at least one allowed step")
    x = _check_point(x0).reshape(4).copy()
    iterates = [x.copy()]
    distances: list[float] = []
    q = m.lipschitz_bound
    cn = m.center_norm
    c = m.center_array

    # first step: x0 is generally off the ray, handle it pointwise
    nxt = evaluate(m, x)
    d = float(np.linalg.norm(nxt - x))
    if d < tol:
        return _finish_trace(iterates, distances, True, d, q)
    iterates.append(nxt.copy())
    distances.append(d)
    if cn == 0.0:
        # the map is identically zero: one step lands exactly on the target
        return _finish_trace(iterates, distances, True, 0.0, q)

    r = -cn * math.expm1(-float(np.linalg.norm(c - x)) / m.n)
    for _ in range(max_iter - 1):
        r_next = -cn * math.expm1(-r / m.n)
        # |.| matters in the expanding regime, where r can grow
        d = abs(r - r_next)
        if d < tol:
            return _finish_trace(iterates, distances, True, d, q)
        r = r_next
        iterates.append(c * (1.0 - r / cn))
        distances.append(d)
    trace = _finish_trace(iterates, distances, False, float("nan"), q)
    raise NonConvergenceError(
        f"no convergence to {tol} within {max_iter} steps (last displacement {distances[-1]:.3e})",
        trace,
    )


def _finish_trace(iterates, distances, converged, last, q) -> IterationTrace:
    """`last` is the displacement that ended a converged run."""
    dist = np.array(distances)
    ratios = dist[1:] / dist[:-1] if len(dist) >= 2 else np.array([])
    s, h = np.sort(ratios), ratios.size // 2  # np.median without its numpy.ma import; a nan sorts last
    measured = float(np.mean(s[h - 1 + s.size % 2:h + 1])) if s.size and not np.isnan(s[-1]) else math.nan
    if converged and distances and q < 1.0:
        bound = q / (1.0 - q) * distances[-1]
    elif converged:
        bound = last  # already at the fixed point or no contraction certificate
    else:
        bound = float("inf")
    return IterationTrace(np.array(iterates), dist, ratios, converged, measured, bound)


def limit_large_n(center, x, n_seq) -> list[float]:
    """|lam_n(x) - center| per n: the maps pinch every point onto the target.

    The deviation is |center| (1 - exp(-r/n)) <= |center| r / n, so it
    falls off like 1/n once n dominates r.
    """
    ns = [int(n) for n in n_seq]
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("need a strictly increasing schedule with at least two entries")
    c = _check_point(center).reshape(4)
    return [float(np.linalg.norm(evaluate(ContractionMap(tuple(c), n), x) - c)) for n in ns]
