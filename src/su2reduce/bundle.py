"""Chart collapse of a trivial SU(2) bundle onto a reduced spin operator.

A chart is the open ball of radius 1/n around a target point, and all it
carries is the matching radial contraction map ContractionMap(center, n).
As n grows the image of a chart shrinks like 1/n^2, so past a computable
threshold every chart image fits inside any stated tolerance and the base
degenerates to the map's fixed point. The rest of the pipeline reads the
final maps alone:

* constant sections: each final map fixes its own center exactly, so the
  canonical identity section over the singleton is constant;
* transition consistency: the charts glue only when they share one
  center, because a contraction has a unique fixed point;
* connection: on the singleton the coordinate one-forms vanish, and the
  pullback coefficients at the fixed point are all that survives;
* the reduced operator: those four constant coefficients multiplying one
  Pauli direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import su2_algebra
from .contraction import ContractionMap, ball_draw, evaluate, point_norms


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


@dataclass(frozen=True)
class CollapseRow:
    """sup_bound is |center| / n^2, the certified sup of |lam(x) - center|."""

    n: int
    sampled_diameter: float
    sup_bound: float


@dataclass(frozen=True)
class CollapseReport:
    """Chart-image shrink record along an increasing scale schedule.

    A scale counts as collapsed when the certified bound |center|/n^2 sits
    strictly below the tolerance; the sampled diameter is recorded next to
    it but the declaration rests on the bound, so the threshold scale is
    deterministic.
    """

    center: tuple[float, float, float, float]
    tol: float
    rows: tuple[CollapseRow, ...]
    threshold_n: int


def collapse_chart(m: ContractionMap, n_sequence, tol: float = 1e-6, seed: int = 0) -> CollapseReport:
    """Re-scale the map's chart along `n_sequence` and record the image shrink.

    A row's sampled diameter is that of the image of the chart ball of
    radius 1/n around the map's center. The image lies on the ray through
    the center (every value is center times a scalar in (0, 1]), so the
    diameter over a sample is the center norm times the spread of the
    sampled scale factors. It never exceeds 2 |center| / n^2, twice the
    certified sup of |lam(x) - center|.

    One unit-ball draw, the points a fresh default_rng(seed) would give, is
    scaled to each 1/n in a loop; a batch over the scales was slower and
    grows with the schedule.
    """
    ns = [int(n) for n in n_sequence]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ValueError("need a strictly increasing schedule of scales >= 1")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be positive and finite")
    c, cn = m.center_array, m.center_norm
    d, u = ball_draw(CHART_SAMPLES, np.random.default_rng(seed))
    rows = []
    for n in ns:
        pts = d * ((1.0 / n) * u)[:, None]
        pts += c  # placed as sample_ball places them; the round trip to c rounds
        pts -= c
        factors = np.exp(-point_norms(pts) / n)
        rows.append(CollapseRow(n, cn * float(factors.max() - factors.min()), cn / n**2))
    return CollapseReport(m.center, tol, tuple(rows), collapse_threshold(m.center, tol))


def pullback_coefficients(lambda_values, g: float) -> np.ndarray:
    """Per-direction connection coefficients -i g exp(-i lam_mu)."""
    g = su2_algebra.check_coupling(g)
    lv = np.asarray(lambda_values, dtype=float).reshape(4)
    return -1j * g * np.exp(-1j * lv)


@dataclass(frozen=True)
class ReducedOperator:
    """Constant reduced potential A_mu = -i g exp(-i c_mu) sigma_a.

    coefficients  the four complex prefactors, all of modulus g
    pauli_index   a, the internal direction of sigma_a
    eigenvalues   of the surviving spin observable sigma_a / 2, -1/2 and +1/2
    """

    coefficients: tuple[complex, complex, complex, complex]
    pauli_index: int
    eigenvalues: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "coefficients": [[v.real, v.imag] for v in self.coefficients],
            "pauli_index": self.pauli_index,
            "eigenvalues": list(self.eigenvalues),
            "coefficient_moduli": [abs(v) for v in self.coefficients],
        }


def reduced_operator(center, g: float, a: int = 3) -> ReducedOperator:
    coeffs = pullback_coefficients(center, g)
    eig = np.linalg.eigvalsh(0.5 * su2_algebra.pauli(a))
    return ReducedOperator(tuple(complex(v) for v in coeffs), a, (float(eig[0]), float(eig[1])))


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


@dataclass(frozen=True)
class StageResult:
    name: str
    status: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReductionReport:
    """The stages run, in order (the last one's status is the pipeline's), the
    operator when one was emitted, and one collapse record per center."""

    stages: tuple[StageResult, ...]
    operator: ReducedOperator | None
    collapse: tuple[CollapseReport, ...]


def reduction_pipeline(centers, n_schedule, g: float, a: int = 3, collapse_tol: float = 1e-6,
                       seed: int = 0) -> ReductionReport:
    """Run collapse, sections, consistency, connection and operator emission.

    `centers` is a sequence of 4-vectors; the happy path has a single
    center and ends with the reduced operator. The pipeline stops at the
    first failing stage and reports what it saw.

    Collapsed charts sharing one center glue with identity transition
    functions, since each is a constant identity section on that singleton.
    Two distinct centers are irreconcilable: a contraction map has exactly
    one fixed point, so the collapsed base cannot be shared and the
    consistency stage reads INCONSISTENT.
    """
    g = su2_algebra.check_coupling(g)
    cs = np.asarray(centers, dtype=float)
    if cs.ndim != 2 or cs.shape[1] != 4:
        raise ValueError(f"centers must be a sequence of 4-vectors, got shape {cs.shape}")
    maps = [ContractionMap(c, int(n_schedule[0])) for c in cs]
    stages: list[StageResult] = []

    reports = tuple(
        collapse_chart(m, n_schedule, tol=collapse_tol, seed=seed) for m in maps
    )
    all_collapsed = all(r.rows[-1].sup_bound < collapse_tol for r in reports)
    final_n = int(n_schedule[-1])
    stages.append(
        StageResult(
            "chart_collapse",
            "PASS" if all_collapsed else "NOT_COLLAPSED",
            {"threshold_n": [r.threshold_n for r in reports], "final_n": final_n},
        )
    )
    if not all_collapsed:
        return ReductionReport(tuple(stages), None, reports)

    final = [ContractionMap(m.center, final_n) for m in maps]
    section_ok = all(np.array_equal(evaluate(m, m.center_array), m.center_array) for m in final)
    stages.append(StageResult("constant_sections", "PASS" if section_ok else "FAIL"))
    if not section_ok:
        return ReductionReport(tuple(stages), None, reports)

    distinct = list(dict.fromkeys(m.center for m in final))
    details = {"centers": [list(c) for c in distinct]}
    if len(distinct) > 1:
        details["reason"] = ("collapsed charts retain distinct centers; each contraction has a"
                             " unique fixed point, so the collapsed base cannot be shared")
        stages.append(StageResult("transition_consistency", "INCONSISTENT", details))
        return ReductionReport(tuple(stages), None, reports)
    stages.append(StageResult("transition_consistency", "CONSISTENT", details))

    # every final map fixes its center bit for bit (constant_sections), so
    # the pullback at the fixed point is the operator's own coefficients
    op = reduced_operator(final[0].center_array, g, a)
    stages.append(
        StageResult(
            "connection",
            "PASS",
            {
                # the coordinate differentials vanish on the singleton base
                "one_form_vanishes": True,
                "coefficients": [[v.real, v.imag] for v in op.coefficients],
            },
        )
    )
    stages.append(StageResult("reduced_operator", "PASS", op.to_dict()))
    return ReductionReport(tuple(stages), op, reports)
