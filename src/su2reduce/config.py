"""Run configuration: a validated scenario bundle for the CLI commands.

Everything a command consumes is collected here so that a (config, seed)
pair pins the whole run; the reproducibility guarantee of the report
machinery depends on nothing else feeding the numerics.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import bundle, lattice


class ConfigError(ValueError):
    """Rejected configuration input."""


# wave recipe entries are (cycles[4], amplitude, phase)
DEFAULT_PHASE_WAVES = (
    ((0, 1, 0, 0), 0.8, 0.0),
    ((0, 0, 1, 0), 0.6, 0.4),
    ((1, 0, 0, 0), 0.5, 1.1),
)
# the three free component slots matching the waves above; component 3 is
# left empty so the field is not fully symmetric
DEFAULT_PHASE_COMPONENTS = (1, 2, 4)

# scalar gradient-wave recipe for the small-amplitude scans: each entry's
# nonzero cycles share one magnitude, which keeps the leading-order
# cancellation of the current exact on the lattice
DEFAULT_GRADIENT_WAVES = (
    ((1, 1, 0, 0), 0.7, 0.2),
    ((0, 1, 1, 0), 0.5, 1.0),
    ((0, 0, 1, 1), 0.4, 0.7),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """All knobs for the verification scenarios.

    grid_n            points per axis of the working grid
    box_length        physical extent of every axis; every command exits 2 if a wave number
                      2 pi c / (n h) of a grid (c = 1 for the matrix ladders' unit waves) or a
                      gradient wave's amplitude times one is not finite
    coupling          gauge coupling g > 0
    pauli_index       internal direction for matrix readings (1..3)
    phase_waves       waves for the main phase field, one per entry of
                      phase_components
    phase_components  which lambda component each wave feeds; every command exits 2 if a
                      component's sum of |amplitude| is not finite
    gradient_waves    scalar waves, each with a nonzero cycle count, whose gradients build the
                      vacuum-scan base field; every command exits 2 if a component mu's sum of
                      |amplitude| 2 pi |c_mu| / (n h) is not finite
    scaling_amplitudes  decreasing eps values for the vacuum scan; every command exits 2 if
                        max(scaling_amplitudes[0], 2 scaling_amplitudes[-2]) times a component's
                        gradient-wave sum above is not finite
    anomaly_amplitude   overall amplitude factor for the divergence study; every command exits 2
                        if it times a component's sum of phase-wave |amplitude| is not finite
    raw_order_grids     h-halving ladder for raw-stencil convergence
    divergence_grids    ladder for the current-divergence convergence
    covariance_grids    ladder for the gauge-covariance study
    pure_gauge_grids    ladder for the pure-gauge field-strength decay;
                        every rung of the four ladders is >= 4, like grid_n
    smooth_amp          amplitude of the random smooth fields in the
                      covariance and pure-gauge studies
    contraction_center  target point of the radial map
    contraction_n       map scale (integer >= 1)
    banach_offset       starting displacement for the fixed-point run
    banach_tol          displacement convergence tolerance
    lipschitz_pairs     sampled pairs for the ratio estimate
    collapse_schedule   strictly increasing chart scales; every command exits 2
                        if a scale's square n^2 overflows a float
    collapse_tol        image-size tolerance declaring collapse; every command
                        exits 2 if either center's |c|, the root of a sum of squares,
                        overflows (above about 1.34e154) or its sqrt(|c| / collapse_tol) does
    second_center       extra target for the two-chart consistency probe
    reduce_centers      1 for the happy-path reduction, 2 to include the
                        second center and exercise the inconsistency path
    seed                base RNG seed for every sampled quantity
    """

    grid_n: int = 16
    box_length: float = 2.0 * math.pi
    coupling: float = 1.0
    pauli_index: int = 3
    phase_waves: tuple = DEFAULT_PHASE_WAVES
    phase_components: tuple = DEFAULT_PHASE_COMPONENTS
    gradient_waves: tuple = DEFAULT_GRADIENT_WAVES
    scaling_amplitudes: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    anomaly_amplitude: float = 0.5
    raw_order_grids: tuple = (8, 16, 32)
    divergence_grids: tuple = (12, 24, 36)
    covariance_grids: tuple = (12, 16, 24)
    pure_gauge_grids: tuple = (16, 20, 28)
    smooth_amp: float = 0.5
    contraction_center: tuple = (1.0, 0.0, 0.0, 0.0)
    contraction_n: int = 10
    banach_offset: float = 0.09
    banach_tol: float = 1e-12
    lipschitz_pairs: int = 10_000
    collapse_schedule: tuple = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
    collapse_tol: float = 1e-6
    second_center: tuple = (0.0, 1.0, 0.0, 0.0)
    reduce_centers: int = 1
    seed: int = 2024

    def __post_init__(self):
        for name in _INTEGER_FIELDS:
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in _POSITIVE_FIELDS:
            v = _number(getattr(self, name), name)
            if not (v > 0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be positive and finite")
        if self.grid_n < 4:
            raise ConfigError(f"grid_n must be an integer >= 4, got {self.grid_n}")
        if self.pauli_index not in (1, 2, 3):
            raise ConfigError(f"pauli_index must be 1..3, got {self.pauli_index}")
        object.__setattr__(self, "phase_waves", _check_waves(self.phase_waves, "phase_waves"))
        comps = tuple(
            _integer(c, "phase_components") for c in _sequence(self.phase_components, "phase_components")
        )
        if len(comps) != len(self.phase_waves) or any(c not in (1, 2, 3, 4) for c in comps):
            raise ConfigError("phase_components must list one component (1..4) per phase wave")
        object.__setattr__(self, "phase_components", comps)
        object.__setattr__(
            self, "gradient_waves", _check_waves(self.gradient_waves, "gradient_waves")
        )
        amps = tuple(
            _number(a, "scaling_amplitudes")
            for a in _sequence(self.scaling_amplitudes, "scaling_amplitudes")
        )
        if len(amps) < 2 or any(not (a > 0 and math.isfinite(a)) for a in amps):
            raise ConfigError("scaling_amplitudes needs >= 2 positive finite entries")
        if any(b >= a for a, b in zip(amps, amps[1:])):
            raise ConfigError("scaling_amplitudes must decrease strictly")
        object.__setattr__(self, "scaling_amplitudes", amps)
        L = self.grid_n * (self.box_length / self.grid_n)  # the shortest grid length n h, as lattice takes it
        for name in ("raw_order_grids", "divergence_grids", "covariance_grids", "pure_gauge_grids"):
            object.__setattr__(self, name, _check_ladder(getattr(self, name), name, 4, "grid sizes"))
            L = min([L] + [n * (self.box_length / n) for n in getattr(self, name)])
        waves = [(1.0, c) for c, _, _ in self.phase_waves] + [(abs(a), c) for c, a, _ in self.gradient_waves]
        if not (L and all(math.isfinite(max(1.0, a) * (2.0 * math.pi * max(1, *map(abs, c)) / L))
                          for a, c in waves)):
            raise ConfigError("a wave number 2 pi c / (n h), or a gradient amplitude times one, overflows")
        if not all(any(c) for c, _, _ in self.gradient_waves):  # the gradient of a constant is no wave
            raise ConfigError("gradient_waves: each gradient wave needs a nonzero cycle count")
        phase = [sum(abs(a) for m, (_, a, _) in zip(comps, self.phase_waves) if m == mu) for mu in (1, 2, 3, 4)]
        grad = [sum(abs(a) * (2.0 * math.pi * abs(c[mu]) / L) for c, a, _ in self.gradient_waves) for mu in range(4)]
        # each bounds its component's max-norm: the phase field's, at one and at the anomaly
        # amplitude, and the gradient base's, at one and at the largest factor a scan scales it by
        # (the vacuum scan's first amplitude, the divergence scaling's twice its second-last)
        scale = max(amps[0], 2.0 * amps[-2])
        sums = phase + [self.anomaly_amplitude * x for x in phase] + grad + [scale * x for x in grad]
        if not all(map(math.isfinite, sums)):
            raise ConfigError("a phase or gradient component's sum of wave amplitudes, or that sum"
                              " at the anomaly amplitude or a scan's largest factor, overflows")
        object.__setattr__(self, "collapse_schedule", _check_ladder(
            self.collapse_schedule, "collapse_schedule", 2, "chart scales"))
        try:  # the collapse bounds each chart image by |c| / n^2
            float(self.collapse_schedule[-1] ** 2)
        except OverflowError:
            raise ConfigError("collapse_schedule: a scale's square n^2 overflows a float") from None
        if self.contraction_n < 1:
            raise ConfigError(f"contraction_n must be an integer >= 1, got {self.contraction_n}")
        if self.lipschitz_pairs < 2:
            raise ConfigError("lipschitz_pairs must be an integer >= 2")
        for name in ("contraction_center", "second_center"):
            c = _check_center(getattr(self, name))
            with np.errstate(over="ignore"):  # the norm the collapse reads
                if math.isinf(np.linalg.norm(c)):
                    raise ConfigError(f"{name}: |c| overflows, so sqrt(|c| / collapse_tol) cannot be formed: |c| is"
                                      " the root of a sum of squares, which overflows for |c| above about 1.34e154")
            try:  # the collapse floors sqrt(|c| / collapse_tol) to a scale
                bundle.collapse_threshold(c, self.collapse_tol)
            except OverflowError:
                raise ConfigError(f"{name}: sqrt(|c| / collapse_tol) overflows") from None
            object.__setattr__(self, name, c)
        if self.reduce_centers not in (1, 2):
            raise ConfigError(f"reduce_centers must be 1 or 2, got {self.reduce_centers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")

    def grid(self) -> lattice.Grid4:
        return lattice.Grid4.cubic(self.grid_n, self.box_length)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = _plain(v)
        return out


def _plain(v):
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v


# fields stored as Python ints; integral floats such as 8.0 are accepted
_INTEGER_FIELDS = ("grid_n", "pauli_index", "contraction_n", "lipschitz_pairs",
                   "reduce_centers", "seed")
# fields that must be positive finite numbers; they keep the value given,
# so a JSON integer such as "coupling": 2 stays 2 in the report
_POSITIVE_FIELDS = ("box_length", "coupling", "anomaly_amplitude", "smooth_amp",
                    "banach_offset", "banach_tol", "collapse_tol")


def _number(value, name) -> float:
    """value as a float; bools (an int subclass) and strings are refused like any non-number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is out of range, got {value!r}") from None


def _integer(value, name) -> int:
    x = _number(value, name)
    if isinstance(value, numbers.Integral):
        return int(value)
    if not (math.isfinite(x) and x == int(x)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(x)


def _sequence(value, name) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def _check_waves(waves, name):
    checked = []
    for i, entry in enumerate(_sequence(waves, name)):
        try:
            cycles, amp, phase = entry
        except (TypeError, ValueError):
            raise ConfigError(f"{name}[{i}] must be (cycles, amplitude, phase)") from None
        cyc = _sequence(cycles, f"{name}[{i}] cycles")
        if len(cyc) != 4:
            raise ConfigError(f"{name}[{i}] cycles must have four entries")
        # reject non-integer cycle counts up front: a fractional wave is
        # silently incommensurate with the periodic grid
        cyc = tuple(_integer(c, f"{name}[{i}] cycle count") for c in cyc)
        amp = _number(amp, f"{name}[{i}] amplitude")
        phase = _number(phase, f"{name}[{i}] phase")
        if not (math.isfinite(amp) and math.isfinite(phase)):
            raise ConfigError(f"{name}[{i}] amplitude and phase must be finite")
        checked.append((cyc, amp, phase))
    if not checked:
        raise ConfigError(f"{name} must not be empty")
    return tuple(checked)


def _check_ladder(ladder, name, least, what):
    """At least two strictly increasing integers, the first >= least."""
    ns = tuple(_integer(n, name) for n in _sequence(ladder, name))
    if len(ns) < 2 or ns[0] < least or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError(f"{name} must be >= 2 strictly increasing {what}, each >= {least}")
    return ns


def _check_center(center):
    c = tuple(_number(v, "centers") for v in _sequence(center, "centers"))
    if len(c) != 4 or any(not math.isfinite(v) for v in c):
        raise ConfigError("centers must be finite 4-vectors")
    return c


def load_config(path) -> ScenarioConfig:
    """Read a JSON file of overrides on top of the defaults."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return ScenarioConfig(**raw)
