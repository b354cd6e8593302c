"""The in-repo SeedSequence -> PCG64 draws against numpy's default_rng, and the
import of numpy.random they keep out of `verify` and `anomaly`."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from su2reduce import _draws

# 2^128 and above overflow SeedSequence's pool of four 32-bit words
LARGE_SEEDS = [2024, 2**32 + 5, 2**63 - 1, 10**30, 2**128, 2**128 + 5, 10**40]
CAUSE = ("numpy's Generator stream differs from su2reduce._draws; NEP 19 lets a numpy"
         f" release change it (numpy {np.__version__})")


def draw_groups(rng):
    """smooth_waves' draws, in its order, for 40 groups, then
    group_exponential_unitarity's (64, 3) array."""
    groups = [(rng.integers(0, 4), rng.random(), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 1.0))
              for _ in range(40)]
    return groups, rng.uniform(-np.pi, np.pi, size=(64, 3))


@pytest.mark.parametrize("seeds", [range(300)] + [[s] for s in LARGE_SEEDS],
                         ids=["0-299"] + [str(s) for s in LARGE_SEEDS])
def test_draws_are_numpys_bit_for_bit(seeds):
    for seed in seeds:
        (want, want_rho), (got, got_rho) = draw_groups(np.random.default_rng(seed)), draw_groups(_draws.Generator(seed))
        for k, (w, g) in enumerate(zip(want, got)):
            assert int(w[0]) == g[0] and [float(x).hex() for x in w[1:]] == [x.hex() for x in g[1:]], \
                f"seed {seed}, draw group {k}: {CAUSE}"
        assert (got_rho.shape, got_rho.dtype) == (want_rho.shape, want_rho.dtype)
        assert got_rho.tobytes() == want_rho.tobytes(), f"seed {seed}, (64, 3) array: {CAUSE}"


def test_integers_rejects_like_numpy_and_refuses_wide_ranges():
    # ranges whose Lemire threshold is not zero take numpy's rejection path
    want, got = np.random.default_rng(7), _draws.Generator(7)
    for n in (3, 5, 7, 1000, 2**31 + 1, 2**32 - 2):
        assert [int(want.integers(-2, n - 2)) for _ in range(50)] == [got.integers(-2, n - 2) for _ in range(50)]
    for high in (0, 2**32 - 1):
        with pytest.raises(ValueError):
            got.integers(0, high)


@pytest.mark.parametrize("command", ["verify", "anomaly"])
def test_command_does_not_import_numpy_random(command, tmp_path):
    # numpy imports numpy.random lazily, about 5.5 MB a process
    code = ("import contextlib, io, sys\n"
            "from su2reduce import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main([{command!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n")
    src = str(Path(_draws.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
