"""Radial map family: certificates, sampled ratios, Banach iteration."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from su2reduce import contraction

import oracles


def default_map():
    return contraction.ContractionMap((1.0, 0.0, 0.0, 0.0), 10)


def test_map_validation():
    with pytest.raises(ValueError):
        contraction.ContractionMap((1.0, 0.0, 0.0, 0.0), 0)
    with pytest.raises(ValueError):
        contraction.ContractionMap((1.0, 0.0, 0.0, 0.0), 2.5)
    with pytest.raises(ValueError):
        contraction.ContractionMap((math.inf, 0.0, 0.0, 0.0), 3)
    with pytest.raises(ValueError):
        contraction.ContractionMap((1.0, 0.0, 0.0), 3)


def test_evaluate_closed_form_and_batch():
    m = default_map()
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((7, 4))
    got = contraction.evaluate(m, xs)
    for i in range(7):
        r = np.linalg.norm(m.center_array - xs[i])
        want = m.center_array * math.exp(-r / m.n)
        assert np.max(np.abs(got[i] - want)) < 1e-15
        assert np.max(np.abs(contraction.evaluate(m, xs[i]) - want)) < 1e-15
    with pytest.raises(ValueError):
        contraction.evaluate(m, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        contraction.evaluate(m, [1.0, 2.0, 3.0, math.nan])


def test_target_is_exact_fixed_point():
    m = default_map()
    assert np.array_equal(contraction.evaluate(m, m.center_array), m.center_array)


def test_lipschitz_bound_and_certificate():
    m = default_map()
    assert m.lipschitz_bound == 0.1
    assert m.is_contraction is True
    assert m.n == 10 and list(m.center) == [1.0, 0.0, 0.0, 0.0]

    edge = contraction.ContractionMap((1.0, 0.0, 0.0, 0.0), 1)
    assert edge.lipschitz_bound == 1.0
    assert not edge.is_contraction


def test_sample_ball_stays_inside_and_is_seeded():
    center = np.array([1.0, 0.0, 0.0, 0.0])
    a = contraction.sample_ball(center, 0.5, 500, np.random.default_rng(11))
    b = contraction.sample_ball(center, 0.5, 500, np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert np.max(np.linalg.norm(a - center, axis=1)) <= 0.5
    with pytest.raises(ValueError):
        contraction.sample_ball(center, 0.0, 10, np.random.default_rng(0))


def test_sampled_ratio_respects_and_approaches_bound():
    m = default_map()
    ratio_max, pairs = contraction.lipschitz_estimate(m, pairs=10_000, seed=2024)
    assert ratio_max <= m.lipschitz_bound + 1e-12
    assert ratio_max > 0.9 * m.lipschitz_bound
    assert pairs == 10_000
    assert contraction.lipschitz_estimate(m, pairs=10_000, seed=2024) == (ratio_max, pairs)
    with pytest.raises(ValueError):
        contraction.lipschitz_estimate(m, pairs=1)


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_point_norms_are_numpys_norms_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    special = np.array([[0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, -0.0, 0.0], [math.inf, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, -math.inf], [math.nan, 0.0, 0.0, 0.0],
                        [1.0, math.inf, math.nan, 2.0], [1e300, 1e300, 0.0, 0.0]])
    batches = [special]
    with np.errstate(over="ignore"):  # past 1e154 the squares overflow, in both routes
        for scale in (1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e160, 1e300):
            x = scale * rng.standard_normal((257, 4))
            # one coordinate per row far larger than the rest, so the order of the sum shows
            x[np.arange(257), rng.integers(0, 4, 257)] *= 1e8
            batches.append(x)
        for x in batches:
            want = np.linalg.norm(x, axis=-1)
            for batch in (x, np.asfortranarray(x)):
                assert bits(contraction.point_norms(batch)) == bits(want)
            for row in x[:16]:
                assert bits(contraction.point_norms(row)) == bits(np.linalg.norm(row, axis=-1))


def test_sampled_ratio_drops_pairs_at_distance_zero(monkeypatch):
    m = default_map()
    sample_ball, drawn = contraction.sample_ball, []

    def sample_with_shared_rows(center, radius, count, rng):
        pts = sample_ball(center, radius, count, rng)
        if drawn:  # the second sample repeats the first one's rows 3, 10 and 11
            pts[[3, 10, 11]] = drawn[0][[3, 10, 11]]
        drawn.append(pts)
        return pts

    monkeypatch.setattr(contraction, "sample_ball", sample_with_shared_rows)
    ratio, pairs = contraction.lipschitz_estimate(m, pairs=500, seed=5)
    assert pairs == 497
    # the batches are coordinate-major and hold the row-major draws' values
    rng = np.random.default_rng(5)
    want = [oracles.row_major_sample(m.center_array, 0.1, 500, rng) for _ in drawn]
    want[1][[3, 10, 11]] = want[0][[3, 10, 11]]
    for pts, ref in zip(drawn, want):
        assert pts.shape == (500, 4) and pts.flags.f_contiguous
        assert bits(pts) == bits(ref)
        img = contraction.evaluate(m, pts)
        assert img.shape == (500, 4) and img.flags.f_contiguous
        c = m.center_array
        assert bits(img) == bits(c * np.exp(-np.linalg.norm(c - ref, axis=1) / m.n)[:, None])
        assert contraction.evaluate(m, ref).flags.c_contiguous  # the input's order, either way
    d, u = contraction.ball_draw(500, np.random.default_rng(5))
    assert d.shape == (500, 4) and d.flags.f_contiguous and u.shape == (500,)
    rest = np.setdiff1d(np.arange(500), [3, 10, 11])
    a, b = want[0][rest], want[1][rest]
    img = np.linalg.norm(contraction.evaluate(m, a) - contraction.evaluate(m, b), axis=1)
    assert ratio == float(np.max(img / np.linalg.norm(a - b, axis=1)))


def test_banach_iteration_contracting_run():
    m = default_map()
    x0 = m.center_array + np.array([0.09, 0.0, 0.0, 0.0])
    tr = contraction.banach_iterate(m, x0, tol=1e-12)
    assert tr.converged
    assert tr.steps <= 16
    assert np.all(tr.ratios <= m.lipschitz_bound + 1e-9)
    assert 0.05 < tr.measured_ratio <= m.lipschitz_bound + 1e-9
    err = float(np.linalg.norm(tr.iterates[-1] - m.center_array))
    assert err <= tr.error_bound + 1e-15
    x_hat = tr.iterates[-1]
    assert np.linalg.norm(contraction.evaluate(m, x_hat) - x_hat) < 1e-12
    # the stored points really are orbit points of the map
    for k in range(len(tr.iterates) - 1):
        step = contraction.evaluate(m, tr.iterates[k]) - tr.iterates[k + 1]
        assert np.max(np.abs(step)) < 1e-12
    # displacements match the recorded points at rounding level
    diffs = np.linalg.norm(np.diff(tr.iterates, axis=0), axis=1)
    assert np.max(np.abs(diffs - tr.distances)) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_measured_ratio_is_numpys_median_bit_for_bit(seed):
    # odd and even counts of ratios, ties, and a nan anywhere
    rng = np.random.default_rng(seed)
    for size in (0, 1, 2, 3, 4, 9, 10, 27, 40):
        distances = list(rng.uniform(1e-9, 1.0, size) * rng.choice([1.0, 1e-6, 1e6], size))
        if size > 6:
            distances[3] = distances[5]
        for planted in (False, True):
            if planted and size > 2:
                distances[int(rng.integers(0, size))] = math.nan
            tr = contraction._finish_trace([], distances, True, 0.0, 0.5)
            want = float(np.median(tr.ratios)) if tr.ratios.size else math.nan
            assert bits(tr.measured_ratio) == bits(want), (size, planted)


def test_contract_does_not_import_numpy_ma():
    # np.median imports numpy.ma on its first call, 9.9 ms and 1.3 MB a process
    code = ("import contextlib, io, sys\n"
            "from su2reduce import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['contract', '--json']) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    src = str(Path(contraction.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_banach_zero_steps_at_fixed_point():
    m = default_map()
    tr = contraction.banach_iterate(m, m.center_array, tol=1e-12)
    assert tr.converged
    assert tr.steps == 0
    x_hat = tr.iterates[-1]
    assert np.linalg.norm(contraction.evaluate(m, x_hat) - x_hat) == 0.0
    assert tr.error_bound == 0.0
    assert len(tr.iterates) == 1


def test_banach_zero_center_lands_exactly():
    m = contraction.ContractionMap((0.0, 0.0, 0.0, 0.0), 5)
    tr = contraction.banach_iterate(m, np.ones(4))
    assert tr.converged
    assert tr.steps == 1
    assert np.array_equal(tr.iterates[-1], np.zeros(4))


def test_banach_nonconvergence_carries_trace():
    m = default_map()
    x0 = m.center_array + np.array([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(contraction.NonConvergenceError) as exc:
        contraction.banach_iterate(m, x0, tol=1e-30, max_iter=3)
    tr = exc.value.trace
    assert not tr.converged
    assert tr.steps == 3
    assert math.isinf(tr.error_bound)
    with pytest.raises(ValueError):
        contraction.banach_iterate(m, x0, tol=-1.0)
    with pytest.raises(ValueError):
        contraction.banach_iterate(m, x0, max_iter=0)


def test_expanding_map_finds_secondary_fixed_point():
    # past |c|/n = 1 the target keeps its fixed point but loses uniqueness:
    # a second, stable one appears on the ray and the orbit settles there
    m = contraction.ContractionMap((3.0, 0.0, 0.0, 0.0), 2)
    assert not m.is_contraction
    tr = contraction.banach_iterate(m, np.array([1.0, 0.0, 0.0, 0.0]), tol=1e-12, max_iter=200)
    assert tr.converged
    gap = float(np.linalg.norm(tr.iterates[-1] - m.center_array))
    assert gap > 0.5
    res = float(np.linalg.norm(contraction.evaluate(m, tr.iterates[-1]) - tr.iterates[-1]))
    assert res < 1e-11


def test_limit_large_n_pinches_to_target():
    c = (1.0, 0.0, 0.0, 0.0)
    x = np.array([0.3, 0.4, 0.0, 0.0])
    ns = (4, 8, 16, 32, 64)
    devs = contraction.limit_large_n(c, x, ns)
    assert len(devs) == len(ns)
    assert all(b <= a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < devs[0] / 10
    r = float(np.linalg.norm(np.array(c) - x))
    for n, dev in zip(ns, devs):
        assert abs(dev - 1.0 * -math.expm1(-r / n)) < 1e-15
    with pytest.raises(ValueError):
        contraction.limit_large_n(c, x, (4,))
    with pytest.raises(ValueError):
        contraction.limit_large_n(c, x, (4, 4, 8))


def test_trace_csv_round_trip(tmp_path):
    m = default_map()
    tr = contraction.banach_iterate(m, m.center_array + np.array([0.09, 0, 0, 0]))
    path = tmp_path / "trace.csv"
    tr.save_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "x1", "x2", "x3", "x4", "d", "ratio"]
    body = rows[1:]
    assert len(body) == len(tr.iterates)
    assert body[0][5] == "" and body[0][6] == ""
    assert body[1][6] == ""
    got_pts = np.array([[float(v) for v in row[1:5]] for row in body])
    assert np.array_equal(got_pts, tr.iterates)
    got_d = [float(row[5]) for row in body if row[5]]
    assert np.array_equal(np.array(got_d), tr.distances)
    got_r = [float(row[6]) for row in body if row[6]]
    assert np.array_equal(np.array(got_r), tr.ratios)
