"""Chart collapse of a trivial SU(2) bundle onto a reduced spin operator.

Charts are open balls of radius 1/n around a target point, each carrying
the matching radial contraction map. As n grows the image of a chart
shrinks like 1/n^2, so past a computable threshold every chart image fits
inside any stated tolerance and the base degenerates to the single target
point. On the singleton the canonical identity section is constant, the
coordinate one-forms vanish, and what survives of the connection is a set
of four constant coefficients multiplying one Pauli direction: the
reduced operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import su2_algebra
from .contraction import ContractionMap, evaluate, sample_ball


class DomainError(ValueError):
    """A point was used outside the chart it belongs to."""


@dataclass(frozen=True)
class Chart:
    """Open ball of radius 1/n around `center`, with its contraction map."""

    center: tuple[float, float, float, float]
    n: int

    def __post_init__(self):
        c = tuple(float(v) for v in np.asarray(self.center, dtype=float).reshape(4))
        if not all(math.isfinite(v) for v in c):
            raise ValueError("center must be a finite 4-vector")
        object.__setattr__(self, "center", c)
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"chart scale must be an integer >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def radius(self) -> float:
        return 1.0 / self.n

    @property
    def center_array(self) -> np.ndarray:
        return np.array(self.center)

    @property
    def contraction(self) -> ContractionMap:
        return ContractionMap(self.center, self.n)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float).reshape(4)
        return bool(np.linalg.norm(x - self.center_array) < self.radius)

    def require(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(4)
        if not self.contains(x):
            raise DomainError(f"point {x.tolist()} is outside the chart ball at {self.center}")
        return x


def make_chart(center, n: int) -> Chart:
    return Chart(tuple(np.asarray(center, dtype=float).reshape(4)), n)


@dataclass(frozen=True)
class DiameterEstimate:
    """Sampled diameter of a chart image, plus the certified bounds.

    The image of the ball lies on the ray through the center (every value
    is center times a scalar in (0, 1]), so the diameter over a sample is
    the center norm times the spread of the sampled scale factors.

    sup_bound      |center| / n^2, certified sup of |lam(x) - center|
    diameter_bound 2 * sup_bound, certified diameter bound
    """

    sampled_diameter: float
    sampled_deviation: float
    sup_bound: float
    diameter_bound: float
    samples: int
    seed: int


def chart_image_diameter(chart: Chart, samples: int = 2048, seed: int = 0) -> DiameterEstimate:
    if samples < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    pts = sample_ball(chart.center_array, chart.radius, samples, rng)
    r = np.linalg.norm(pts - chart.center_array, axis=1)
    factors = np.exp(-r / chart.n)
    cn = float(np.linalg.norm(chart.center_array))
    sup = cn / chart.n**2
    return DiameterEstimate(
        sampled_diameter=cn * float(factors.max() - factors.min()),
        sampled_deviation=cn * float(1.0 - factors.min()),
        sup_bound=sup,
        diameter_bound=2.0 * sup,
        samples=samples,
        seed=seed,
    )


def collapse_threshold(center, tol: float) -> int:
    """Smallest integer n with |center| / n^2 strictly below tol."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be positive and finite")
    cn = float(np.linalg.norm(np.asarray(center, dtype=float).reshape(4)))
    if cn == 0.0:
        return 1
    n = max(1, math.floor(math.sqrt(cn / tol)))
    while cn / n**2 >= tol:
        n += 1
    return n


@dataclass(frozen=True)
class CollapseRow:
    n: int
    sampled_diameter: float
    sup_bound: float
    collapsed: bool


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
    collapsed: bool

    @property
    def singleton(self) -> tuple[float, float, float, float]:
        return self.center

    def to_dict(self) -> dict:
        return {
            "center": list(self.center),
            "tol": self.tol,
            "threshold_n": self.threshold_n,
            "collapsed": self.collapsed,
            "rows": [
                {
                    "n": r.n,
                    "sampled_diameter": r.sampled_diameter,
                    "sup_bound": r.sup_bound,
                    "collapsed": r.collapsed,
                }
                for r in self.rows
            ],
        }


def collapse_chart(chart: Chart, n_sequence, tol: float = 1e-6, samples: int = 2048,
                   seed: int = 0) -> CollapseReport:
    """Re-scale the chart along `n_sequence` and record the image shrink."""
    ns = [int(n) for n in n_sequence]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ValueError("need a strictly increasing schedule of scales >= 1")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be positive and finite")
    rows = []
    for n in ns:
        est = chart_image_diameter(Chart(chart.center, n), samples=samples, seed=seed)
        rows.append(CollapseRow(n, est.sampled_diameter, est.sup_bound, est.sup_bound < tol))
    return CollapseReport(
        center=chart.center,
        tol=tol,
        rows=tuple(rows),
        threshold_n=collapse_threshold(chart.center, tol),
        collapsed=rows[-1].collapsed,
    )


@dataclass(frozen=True)
class Section:
    """Canonical identity section over a chart.

    Pre-collapse the domain is the chart ball; post-collapse it is the
    singleton center alone. Points outside the domain are a DomainError,
    not a zero value: the structure group has no zero element, so a
    section that "vanishes" off the singleton is modeled as undefined
    there.
    """

    chart: Chart
    constant: bool = False
    canonical: bool = True

    def domain_contains(self, x) -> bool:
        if self.constant:
            return bool(np.array_equal(np.asarray(x, dtype=float).reshape(4), self.chart.center_array))
        return self.chart.contains(x)

    def value(self, x) -> np.ndarray:
        if not self.domain_contains(x):
            raise DomainError(f"point outside the section domain at {self.chart.center}")
        return np.array(su2_algebra.IDENTITY)

    def project(self, x) -> np.ndarray:
        """Base point of the section value: the identity fibration over x."""
        if not self.domain_contains(x):
            raise DomainError(f"point outside the section domain at {self.chart.center}")
        return np.asarray(x, dtype=float).reshape(4)


def canonical_section(chart: Chart, collapsed: bool = False) -> Section:
    return Section(chart, constant=collapsed)


@dataclass(frozen=True)
class Atlas:
    """A finite family of charts, optionally in the collapsed state."""

    charts: tuple[Chart, ...]
    collapsed: bool = False

    def __post_init__(self):
        if not self.charts:
            raise ValueError("atlas needs at least one chart")
        object.__setattr__(self, "charts", tuple(self.charts))

    def overlapping_pairs(self) -> list[tuple[int, int]]:
        out = []
        for i in range(len(self.charts)):
            for j in range(i + 1, len(self.charts)):
                ci, cj = self.charts[i], self.charts[j]
                if np.linalg.norm(ci.center_array - cj.center_array) < ci.radius + cj.radius:
                    out.append((i, j))
        return out

    def distinct_centers(self) -> list[tuple[float, ...]]:
        seen: list[tuple[float, ...]] = []
        for ch in self.charts:
            if ch.center not in seen:
                seen.append(ch.center)
        return seen


def transition_function(atlas: Atlas, i: int, j: int, x) -> np.ndarray:
    """t_ij(x) relating the canonical sections: s_j(x) = s_i(x) t_ij(x).

    With identity sections every transition function is the identity; the
    point is still required to lie in both chart domains.
    """
    si = canonical_section(atlas.charts[i], collapsed=atlas.collapsed)
    sj = canonical_section(atlas.charts[j], collapsed=atlas.collapsed)
    if not (si.domain_contains(x) and sj.domain_contains(x)):
        raise DomainError("transition functions are defined on chart overlaps only")
    return np.array(su2_algebra.IDENTITY)


@dataclass(frozen=True)
class PairRecord:
    i: int
    j: int
    points_checked: int
    max_gluing_defect: float


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    status: str
    reason: str
    pairs: tuple[PairRecord, ...]
    centers: tuple[tuple[float, ...], ...]

    def to_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "status": self.status,
            "reason": self.reason,
            "pairs": [
                {"i": p.i, "j": p.j, "points_checked": p.points_checked,
                 "max_gluing_defect": p.max_gluing_defect}
                for p in self.pairs
            ],
            "centers": [list(c) for c in self.centers],
        }


def transition_consistency(atlas: Atlas, samples: int = 256, seed: int = 0) -> ConsistencyReport:
    """Check the gluing relations of the canonical sections.

    Pre-collapse: on sampled overlap points, s_j = s_i t_ij must hold with
    t_ii the identity and t_ij t_ji the identity; for identity sections
    these are exact matrix equalities. Post-collapse every chart is a
    constant section on its center singleton, and two distinct centers are
    irreconcilable: a contraction map has exactly one fixed point, so a
    collapsed atlas with two centers reports INCONSISTENT.
    """
    centers = tuple(atlas.distinct_centers())
    if atlas.collapsed:
        if len(centers) > 1:
            return ConsistencyReport(
                False,
                "INCONSISTENT",
                "collapsed charts retain distinct centers; each contraction has a"
                " unique fixed point, so the collapsed base cannot be shared",
                (),
                centers,
            )
        return ConsistencyReport(
            True, "CONSISTENT", "all collapsed charts share one singleton", (), centers
        )

    rng = np.random.default_rng(seed)
    records = []
    worst = 0.0
    for i, j in atlas.overlapping_pairs():
        ci, cj = atlas.charts[i], atlas.charts[j]
        pts = sample_ball(ci.center_array, ci.radius, samples, rng)
        inside = [p for p in pts if cj.contains(p)]
        defect = 0.0
        for p in inside:
            si = canonical_section(ci).value(p)
            sj = canonical_section(cj).value(p)
            tij = transition_function(atlas, i, j, p)
            tji = transition_function(atlas, j, i, p)
            defect = max(
                defect,
                float(np.max(np.abs(sj - si @ tij))),
                float(np.max(np.abs(tij @ tji - su2_algebra.IDENTITY))),
            )
        worst = max(worst, defect)
        records.append(PairRecord(i, j, len(inside), defect))
    ok = worst == 0.0
    return ConsistencyReport(
        ok,
        "CONSISTENT" if ok else "INCONSISTENT",
        "identity sections glue with identity transition functions" if ok
        else f"gluing defect {worst:.3e} on sampled overlaps",
        tuple(records),
        centers,
    )


@dataclass(frozen=True)
class ConnectionCoefficients:
    """Per-direction pullback coefficients -i g exp(-i lam_mu(x)).

    one_form_vanishes marks the collapsed state: on a singleton base the
    coordinate differentials are zero, so the coefficients are the only
    surviving connection data.
    """

    values: tuple[complex, complex, complex, complex]
    one_form_vanishes: bool


def pullback_coefficients(lambda_values, g: float) -> np.ndarray:
    g = su2_algebra.check_coupling(g)
    lv = np.asarray(lambda_values, dtype=float).reshape(4)
    return -1j * g * np.exp(-1j * lv)


def connection_coefficients(chart: Chart, x, g: float, collapsed: bool = False) -> ConnectionCoefficients:
    """Coefficients at a point of the chart, from the chart's own map."""
    x = np.asarray(x, dtype=float).reshape(4)
    if collapsed:
        if not np.array_equal(x, chart.center_array):
            raise DomainError("collapsed charts contain only their center")
    else:
        chart.require(x)
    lam_vals = evaluate(chart.contraction, x)
    vals = pullback_coefficients(lam_vals, g)
    return ConnectionCoefficients(tuple(complex(v) for v in vals), collapsed)


@dataclass(frozen=True)
class ReducedOperator:
    """Constant reduced potential A_mu = -i g exp(-i c_mu) sigma_a.

    coefficients  the four complex prefactors, all of modulus g
    observable    sigma_a / 2, the surviving spin observable
    eigenvalues   of the observable, -1/2 and +1/2
    """

    coefficients: tuple[complex, complex, complex, complex]
    pauli_index: int
    matrices: np.ndarray
    observable: np.ndarray
    eigenvalues: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "coefficients": [[v.real, v.imag] for v in self.coefficients],
            "pauli_index": self.pauli_index,
            "eigenvalues": list(self.eigenvalues),
            "coefficient_moduli": [abs(v) for v in self.coefficients],
        }


def reduced_operator(center, g: float, a: int = 3) -> ReducedOperator:
    g = su2_algebra.check_coupling(g)
    c = np.asarray(center, dtype=float).reshape(4)
    coeffs = -1j * g * np.exp(-1j * c)
    sig = su2_algebra.pauli(a)
    mats = coeffs[:, None, None] * sig
    obs = 0.5 * sig
    eig = np.linalg.eigvalsh(obs)
    return ReducedOperator(
        tuple(complex(v) for v in coeffs), a, mats, obs, (float(eig[0]), float(eig[1]))
    )


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
    stages: tuple[StageResult, ...]
    operator: ReducedOperator | None
    collapse: tuple[CollapseReport, ...]
    consistency: ConsistencyReport | None
    errata: tuple[dict, ...]
    status: str

    def to_dict(self) -> dict:
        return {
            "stages": [
                {"name": s.name, "status": s.status, "details": s.details} for s in self.stages
            ],
            "operator": self.operator.to_dict() if self.operator else None,
            "collapse": [c.to_dict() for c in self.collapse],
            "consistency": self.consistency.to_dict() if self.consistency else None,
            "errata": list(self.errata),
            "status": self.status,
        }


def reduction_pipeline(centers, n_schedule, g: float, a: int = 3, collapse_tol: float = 1e-6,
                       samples: int = 2048, seed: int = 0) -> ReductionReport:
    """Run collapse, sections, consistency, connection and operator emission.

    `centers` is one 4-vector or a sequence of them; the happy path has a
    single center and ends with the reduced operator. The pipeline stops
    at the first failing stage and reports what it saw.
    """
    g = su2_algebra.check_coupling(g)
    cs = np.asarray(centers, dtype=float)
    if cs.ndim == 1:
        cs = cs[None, :]
    if cs.ndim != 2 or cs.shape[1] != 4:
        raise ValueError(f"centers must be one or more 4-vectors, got shape {cs.shape}")
    charts = [make_chart(c, int(n_schedule[0])) for c in cs]
    stages: list[StageResult] = []

    reports = tuple(
        collapse_chart(ch, n_schedule, tol=collapse_tol, samples=samples, seed=seed)
        for ch in charts
    )
    all_collapsed = all(r.collapsed for r in reports)
    stages.append(
        StageResult(
            "chart_collapse",
            "PASS" if all_collapsed else "NOT_COLLAPSED",
            {
                "threshold_n": [r.threshold_n for r in reports],
                "final_n": int(n_schedule[-1]) if len(n_schedule) else None,
            },
        )
    )
    if not all_collapsed:
        return ReductionReport(tuple(stages), None, reports, None, ERRATA, "NOT_COLLAPSED")

    final_n = int(n_schedule[-1])
    collapsed_charts = [make_chart(c, final_n) for c in cs]
    sections = [canonical_section(ch, collapsed=True) for ch in collapsed_charts]
    section_ok = all(
        np.array_equal(s.value(ch.center_array), su2_algebra.IDENTITY)
        and s.constant
        for s, ch in zip(sections, collapsed_charts)
    )
    stages.append(StageResult("constant_sections", "PASS" if section_ok else "FAIL"))
    if not section_ok:
        return ReductionReport(tuple(stages), None, reports, None, ERRATA, "FAIL")

    atlas = Atlas(tuple(collapsed_charts), collapsed=True)
    consistency = transition_consistency(atlas, samples=min(samples, 256), seed=seed)
    details = {"centers": [list(c) for c in consistency.centers]}
    if not consistency.consistent:
        details["reason"] = consistency.reason
    stages.append(StageResult("transition_consistency", consistency.status, details))
    if not consistency.consistent:
        return ReductionReport(tuple(stages), None, reports, consistency, ERRATA, "INCONSISTENT")

    chart = collapsed_charts[0]
    conn = connection_coefficients(chart, chart.center_array, g, collapsed=True)
    stages.append(
        StageResult(
            "connection",
            "PASS",
            {
                "one_form_vanishes": conn.one_form_vanishes,
                "coefficients": [[v.real, v.imag] for v in conn.values],
            },
        )
    )

    op = reduced_operator(chart.center_array, g, a)
    stages.append(StageResult("reduced_operator", "PASS", op.to_dict()))
    return ReductionReport(tuple(stages), op, reports, consistency, ERRATA, "PASS")
