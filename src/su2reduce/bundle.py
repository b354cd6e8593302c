"""Chart collapse of a trivial SU(2) bundle onto a reduced spin operator.

A chart is the open ball of radius 1/n around a target point, and all it
carries is the matching radial contraction map ContractionMap(center, n).
As n grows the image of a chart shrinks like 1/n^2, so past a computable
threshold every chart image fits inside any stated tolerance and the base
degenerates to the map's fixed point. This module holds the collapse
threshold and the sampled chart diameters; the stages that read them
(chart collapse, constant sections, transition consistency, connection,
reduced operator) are the `reduce` checks in `checks`, which take the
connection coefficients at the fixed point from the ansatz profile.
"""

from __future__ import annotations

import math

import numpy as np

from .contraction import ContractionMap, ball_draw, point_norms


# points sampled from each chart ball
CHART_SAMPLES = 2048


def collapse_threshold(center, tol: float) -> int:
    """Smallest integer n with |center| / n^2 strictly below tol."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be positive and finite")
    cn = float(np.linalg.norm(np.asarray(center, dtype=float).reshape(4)))
    if cn == 0.0:
        return 1
    # the first n from the floor on that passes: cn / n^2 never rises with n,
    # so double past it, then bisect (stepping by one stalls past 2^53)
    lo = hi = max(1, math.floor(math.sqrt(cn / tol)))
    while cn / hi**2 >= tol:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if cn / mid**2 < tol else (mid + 1, hi)
    return hi


def collapse_chart(m: ContractionMap, n_sequence, seed: int = 0) -> list[float]:
    """Re-scale the map's chart along `n_sequence`: the sampled diameter of
    each chart image.

    The image is that of the chart ball of radius 1/n around the map's
    center. It lies on the ray through the center (every value is center
    times a scalar in (0, 1]), so the diameter over a sample is the center
    norm times the spread of the sampled scale factors. It never exceeds
    2 |center| / n^2, twice the certified sup of |lam(x) - center|.

    One unit-ball draw, the points a fresh default_rng(seed) would give, is
    scaled to each 1/n in a loop; a batch over the scales was slower and
    grows with the schedule.
    """
    ns = [int(n) for n in n_sequence]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ValueError("need a strictly increasing schedule of scales >= 1")
    c, cn = m.center_array, m.center_norm
    d, u = ball_draw(CHART_SAMPLES, np.random.default_rng(seed))
    diameters = []
    for n in ns:
        pts = d * ((1.0 / n) * u)[:, None]
        pts += c  # placed as sample_ball places them; the round trip to c rounds
        pts -= c
        factors = np.exp(-point_norms(pts) / n)
        diameters.append(cn * float(factors.max() - factors.min()))
    return diameters


ERRATA = (
    {
        "id": "anomaly-divergence-closed-form",
        "note": "the closed-form divergence expression disagrees with the lattice"
        " divergence of the anomalous current; the lattice value is ground"
        " truth and the gap is recorded, never asserted away",
    },
    {
        "id": "contraction-exponent-sign",
        "note": "chart contraction maps use the negative exponent; the positive-"
        "exponent variant is an expansion with no fixed point collapse",
    },
    {
        "id": "zero-valued-sections",
        "note": "sections outside a collapsed singleton are modeled as undefined"
        " (domain restriction); the structure group contains no zero element",
    },
)
