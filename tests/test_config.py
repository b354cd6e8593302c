"""Scenario configuration: defaults, validation, JSON loading."""

import json
import math
import warnings

import pytest

from su2reduce import ansatz_field, config, lattice


def test_defaults_are_self_consistent():
    cfg = config.ScenarioConfig()
    assert cfg.grid_n == 16
    assert len(cfg.phase_waves) == len(cfg.phase_components)
    grid = cfg.grid()
    assert grid.dims == (16, 16, 16, 16)
    d = cfg.to_dict()
    json.dumps(d)
    assert d["contraction_center"] == [1.0, 0.0, 0.0, 0.0]


def test_field_validation():
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(grid_n=3)
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(coupling=0.0)
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(pauli_index=4)
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(phase_waves=(((0, 1, 0), 0.8, 0.0),))
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(phase_waves=(((0, 1.5, 0, 0), 0.8, 0.0),))
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(phase_components=(1, 2))
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(scaling_amplitudes=(1e-2, 1e-1))
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(raw_order_grids=(8,))
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(contraction_n=0)
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(contraction_center=(1.0, 0.0, 0.0))
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(collapse_schedule=(4, 4, 8))
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(reduce_centers=3)
    with pytest.raises(config.ConfigError):
        config.ScenarioConfig(seed=-1)


def test_load_config_overrides_and_rejects(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid_n": 8, "seed": 7, "collapse_schedule": [4, 8, 16]}))
    cfg = config.load_config(path)
    assert cfg.grid_n == 8
    assert cfg.seed == 7
    assert cfg.collapse_schedule == (4, 8, 16)
    # untouched fields keep their defaults
    assert cfg.coupling == 1.0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(config.ConfigError):
        config.load_config(bad)

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"grid_m": 8}))
    with pytest.raises(config.ConfigError):
        config.load_config(unknown)

    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff\xfe{")
    with pytest.raises(config.ConfigError):
        config.load_config(undecodable)

    deep = tmp_path / "deep.json"
    deep.write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(config.ConfigError):
        config.load_config(deep)

    listfile = tmp_path / "list.json"
    listfile.write_text(json.dumps([1, 2]))
    with pytest.raises(config.ConfigError):
        config.load_config(listfile)


def test_loaded_lists_become_tuples(tmp_path):
    path = tmp_path / "waves.json"
    path.write_text(
        json.dumps({"phase_waves": [[[0, 1, 0, 0], 0.4, 0.0]], "phase_components": [2]})
    )
    cfg = config.load_config(path)
    assert cfg.phase_waves == (((0, 1, 0, 0), 0.4, 0.0),)
    assert cfg.phase_components == (2,)


def test_json_integers_still_fill_float_fields(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"coupling": 2, "smooth_amp": 1, "scaling_amplitudes": [1, 0.5],
                                "contraction_center": [1, 0, 0, 0], "grid_n": 8.0}))
    cfg = config.load_config(path)
    assert cfg.coupling == 2
    assert cfg.scaling_amplitudes == (1.0, 0.5)
    assert cfg.contraction_center == (1.0, 0.0, 0.0, 0.0)
    assert cfg.grid_n == 8 and isinstance(cfg.grid_n, int)


def test_wrong_types_are_config_errors():
    bad = [
        {"coupling": "2"},
        {"grid_n": float("inf")},
        {"grid_n": 8.5},
        {"seed": 10**400},
        {"reduce_centers": True},
        {"seed": False},
        {"contraction_n": True},
        {"pauli_index": True},
        {"coupling": None},
        {"phase_waves": (((0, 1, 0, 0), "0.8", 0.0),), "phase_components": (1,)},
        {"phase_waves": ((("0", 1, 0, 0), 0.8, 0.0),), "phase_components": (1,)},
        {"phase_components": ("1", 2, 4)},
        {"raw_order_grids": (8, 16.5, 32)},
        {"raw_order_grids": 8},
        {"contraction_center": (True, 0.0, 0.0, 0.0)},
        {"scaling_amplitudes": ("0.1", 0.01)},
    ]
    for kw in bad:
        with pytest.raises(config.ConfigError):
            config.ScenarioConfig(**kw)


def test_centers_whose_collapse_threshold_overflows_are_refused():
    # sqrt(|c| / collapse_tol) must be finite for both centers, whichever
    # command reads them; |(1e200, 1e200, 0, 0)| itself overflows to inf
    bad = [
        {"contraction_center": (1e308, 0.0, 0.0, 0.0)},
        {"contraction_center": (1e200, 1e200, 0.0, 0.0)},
        {"collapse_tol": 1e-320},
        {"second_center": (0.0, 1e308, 0.0, 0.0)},
    ]
    for kw in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(config.ConfigError, match="collapse_tol"):
                config.ScenarioConfig(**kw)
    # a finite root passes, also one far past 2^53
    cfg = config.ScenarioConfig(contraction_center=(1e150, 0.0, 0.0, 0.0), collapse_tol=1e-6)
    assert cfg.contraction_center == (1e150, 0.0, 0.0, 0.0)


def test_scales_whose_square_overflows_are_refused():
    for top in (1e155, 2**512):
        with pytest.raises(config.ConfigError, match="collapse_schedule"):
            config.ScenarioConfig(collapse_schedule=(4, top))
    # the largest scales whose square stays finite pass
    assert config.ScenarioConfig(collapse_schedule=(4, 1e154)).collapse_schedule == (4, int(1e154))
    assert config.ScenarioConfig(collapse_schedule=(4, 2**511)).collapse_schedule[-1] == 2**511


def test_wave_numbers_that_overflow_are_refused():
    # each phase field's wave number 2 pi c / (n h), the matrix ladders' unit
    # waves (c = 1) among them, and each gradient wave's amplitude times its
    # own must be finite; otherwise no phase field of the run is
    bad = [
        {"box_length": 1e-308},
        {"box_length": 1e-320},
        {"box_length": 1e-307, "phase_waves": (((9, 0, 0, 0), 0.5, 0.0),), "phase_components": (1,)},
        {"box_length": 1.0, "gradient_waves": (((1, 1, 0, 0), 1e308, 0.0),)},
        {"box_length": 1e-307, "grid_n": 10**300},  # n (box_length / n) is 0
    ]
    for kw in bad:
        with pytest.raises(config.ConfigError, match="wave number"):
            config.ScenarioConfig(**kw)
    # the default waves on a box of 1e-307 keep every wave number finite
    assert config.ScenarioConfig(box_length=1e-307).box_length == 1e-307
    assert config.ScenarioConfig(gradient_waves=(((1, 1, 0, 0), 1e307, 0.0),)).box_length == 2 * math.pi


def test_gradient_waves_without_a_nonzero_cycle_are_refused():
    # the gradient of a constant is no wave: refused at config time, alone or
    # beside a good wave, while the library call keeps its own refusal
    for waves in ((((0, 0, 0, 0), 0.5, 0.0),), (((0.0, 0, 0, 0), 0.5, 0.0),),
                  (((1, 1, 0, 0), 0.7, 0.2), ((0, 0, 0, 0), 0.5, 0.0))):
        with pytest.raises(config.ConfigError, match="nonzero cycle count"):
            config.ScenarioConfig(gradient_waves=waves)
    with pytest.raises(ValueError, match="nonzero cycle count"):
        ansatz_field.gradient_waves(lattice.Grid4.cubic(4), [((0, 0, 0, 0), 0.5, 0.0)])


def test_wave_amplitude_sums_that_overflow_are_refused():
    # a component's sum of |amplitude| bounds its max-norm; for gradient waves
    # each component mu sums |amplitude| 2 pi |c_mu| / (n h), here |c_mu| on a box of 2 pi
    def phase(amp, comps):
        return {"phase_waves": (((0, 1, 0, 0), amp, 0.0), ((0, 0, 1, 0), amp, 0.0)), "phase_components": comps}

    bad = [phase(1e308, (1, 1)), phase(-1e308, (4, 4)),
           {"gradient_waves": (((1, 0, 0, 0), 0.6e308, 0.0), ((2, 0, 0, 0), 0.6e308, 0.0))}]
    for kw in bad:
        with pytest.raises(config.ConfigError, match="sum of wave amplitudes"):
            config.ScenarioConfig(**kw)
    # the same amplitudes on two components, and 1e307 twice on one, pass
    for kw in (phase(1e308, (1, 2)), phase(1e307, (1, 1)),
               {"gradient_waves": (((1, 0, 0, 0), 0.6e308, 0.0), ((0, 2, 0, 0), 0.6e308, 0.0))}):
        assert config.ScenarioConfig(**kw).box_length == 2 * math.pi


def test_scaled_amplitude_sums_that_overflow_are_refused():
    # the anomaly study scales the phase field by anomaly_amplitude; the scans
    # scale the gradient base by each scaling amplitude (the first is the
    # largest) and by twice the second-last. The default gradient waves feed
    # 0.7 + 0.5 = 1.2 into component 2 on a box of 2 pi.
    bad = [{"anomaly_amplitude": 1e308, "phase_waves": (((0, 1, 0, 0), 2.0, 0.0),), "phase_components": (1,)},
           {"scaling_amplitudes": (1e308, 1e307)},
           {"scaling_amplitudes": (1.6e308, 1e-3, 1e-4)},
           {"scaling_amplitudes": (1e308, 0.8e308, 1e-4)}]
    for kw in bad:
        with pytest.raises(config.ConfigError, match="anomaly amplitude or a scan's largest factor"):
            config.ScenarioConfig(**kw)
    # just below each edge, and the default phase waves at 1e308, pass
    for kw in ({"anomaly_amplitude": 1e308},
               {"anomaly_amplitude": 0.8e308, "phase_waves": (((0, 1, 0, 0), 2.0, 0.0),), "phase_components": (1,)},
               {"scaling_amplitudes": (1.4e308, 1e-3, 1e-4)}, {"scaling_amplitudes": (1e308, 0.7e308, 1e-4)}):
        assert config.ScenarioConfig(**kw).box_length == 2 * math.pi


def test_wave_numbers_are_taken_on_each_grid_s_own_length():
    # On this box 2 pi / box_length is finite, but n (box_length / n) with a
    # subnormal spacing rounds below box_length for n = 20 and 2 pi over it
    # overflows: a pure-gauge rung of 20 is refused, one of 16 is not.
    # Wave numbers here are about 1.8e308, so the default gradient waves, which
    # feed 0.7 k + 0.5 k into component 2, would overflow the gradient field:
    # one gradient wave of amplitude 0.5 keeps it finite.
    box = 3.4951378437904613e-308
    assert math.isfinite(2 * math.pi / box)
    assert not math.isfinite(2 * math.pi / lattice.Grid4.cubic(20, box).length(1))
    short = dict(box_length=box, raw_order_grids=(8, 16), divergence_grids=(12, 16), covariance_grids=(12, 16),
                 gradient_waves=(((1, 1, 0, 0), 0.5, 0.0),))
    assert config.ScenarioConfig(**short, pure_gauge_grids=(12, 16)).box_length == box
    with pytest.raises(config.ConfigError, match="sum of wave amplitudes"):
        config.ScenarioConfig(**{**short, "gradient_waves": config.DEFAULT_GRADIENT_WAVES}, pure_gauge_grids=(12, 16))
    with pytest.raises(config.ConfigError, match="wave number"):
        config.ScenarioConfig(**short, pure_gauge_grids=(16, 20))
