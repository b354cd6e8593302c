"""The outputs of all four commands, held to frozen copies.

`frozen_pipeline.json` holds, for each scenario below and each of
`contract` and `reduce`, the exit code, the `--json` report without its
`timings` key, the plain-text stdout of a second run without `--json`
and `banach_trace.csv` where one was written; these are compared byte
for byte. `frozen_verify.json` holds the same exit code
and stripped report for `verify` and `anomaly` at the default seed, at
each seed in SEEDS and on each config in CONFIGS, and the `anomaly --out` artifacts of one
`--grid 4` run as arrays; these are compared by `differences`: every
non-float exactly, each report float within 1e-12 relative and each
artifact array within 1e-12 of its own max-norm, which allows
floating-point reassociation.

The reproducibility tests only compare two runs of the same code; these
copies hold the outputs across changes to it. A change that means to
move them regenerates the files it moves, and says so, with
`PYTHONPATH=src python tests/test_frozen_reports.py frozen_verify.json`
(or `frozen_pipeline.json`, or both names); a file not named is not
touched.
"""

import contextlib
import io
import json
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from su2reduce import checks, cli, lattice, report

import oracles

FROZEN = Path(__file__).with_name("frozen_pipeline.json")
FROZEN_VERIFY = Path(__file__).with_name("frozen_verify.json")

SCENARIOS = {
    "defaults": {},
    "invalid_certificate": {"contraction_n": 1},
    "banach_nonconvergence": {"contraction_center": [9.9, 0, 0, 0]},
    "zero_center": {"contraction_center": [0, 0, 0, 0]},
    "not_collapsed": {"collapse_schedule": [4, 8]},
    "inconsistent": {"reduce_centers": 2},
    "coincident_centers": {"reduce_centers": 2, "second_center": [1, 0, 0, 0]},
    # the sampling path off its defaults: batch sizes, a slow contraction,
    # another seed and a second chart of its own
    "odd_pairs": {"lipschitz_pairs": 9999},
    "tiny_pairs": {"lipschitz_pairs": 3},
    "slow_contraction": {"contraction_n": 3, "contraction_center": [1.3, -1.5, 0.6, 0.4]},
    "other_seed": {"seed": 7},
    "own_second_center": {"reduce_centers": 2, "second_center": [0.3, -0.2, 0.1, 0.4]},
    # the reduce rows off their defaults: a schedule that does not double
    # (its shrink factors leave the window), the other two Pauli directions
    # at other couplings, and a second center that has not collapsed
    "non_doubling": {"collapse_schedule": [4, 6, 9, 1000, 2000]},
    "pauli_1": {"pauli_index": 1, "coupling": 1.7, "contraction_center": [0.3, -1.2, 2.5, 0.7]},
    "pauli_2": {"pauli_index": 2, "coupling": 0.6, "contraction_center": [0.3, -1.2, 2.5, 0.7]},
    "second_not_collapsed": {"reduce_centers": 2, "second_center": [5, 0, 0, 0]},
}

# verify and anomaly run at the default seed and at each of these
SEEDS = (0, 6, 17, 33)
# and at the default seed on each of these configs, off the default recipe: a
# dense phase field (all four components, varying along all four axes) and a
# single gradient wave, on which both small-amplitude scans fail
CONFIGS = {
    "dense_phase": {
        "phase_waves": [[[0, 1, 0, 1], 0.8, 0.0], [[0, 0, 1, 0], 0.6, 0.4],
                        [[1, 0, 0, 0], 0.5, 1.1], [[2, 0, 0, 2], 0.3, 0.9]],
        "phase_components": [1, 2, 4, 3],
        "coupling": 1.7,
    },
    "one_gradient_wave": {"gradient_waves": [[[0, 0, 1, 1], 0.4, 0.7]], "coupling": 0.6},
}
ARTIFACT_ARGV = ["anomaly", "--grid", "4"]
REL = 1e-12


def outputs(overrides, workdir):
    """{command: {exit_code, report, stdout, banach_trace.csv}} for one scenario."""
    cfgfile = workdir / "config.json"
    cfgfile.write_text(json.dumps(overrides), encoding="utf-8")
    got = {}
    for command in ("contract", "reduce"):
        out, stdout = workdir / command, io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([command, "--json", "--config", str(cfgfile), "--out", str(out)])
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli.main([command, "--config", str(cfgfile)])
        trace = out / "banach_trace.csv"
        got[command] = {
            "exit_code": code,
            "report": report.strip_timings(stdout.getvalue()),
            "stdout": text.getvalue(),
            # bytes as written: the csv module ends its rows with \r\n
            "banach_trace.csv": trace.read_bytes().decode("ascii") if trace.exists() else None,
        }
    return got


def seed_key(seed) -> str:
    return "default" if seed is None else f"seed {seed}"


def run_report(argv):
    """(exit code, stripped report as parsed JSON) of one CLI run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv + ["--json"])
    return {"exit_code": code, "report": json.loads(report.strip_timings(stdout.getvalue()))}


def seeded_report(command, seed):
    return run_report([command] + ([] if seed is None else ["--seed", str(seed)]))


def configured_report(command, name, workdir):
    cfgfile = workdir / f"{name}.json"
    cfgfile.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    return run_report([command, "--config", str(cfgfile)])


def encode(a) -> dict:
    """An array as JSON: dtype, shape and the values flattened (complex
    values as interleaved real and imaginary parts)."""
    a = np.asarray(a)
    flat = a.ravel()
    return {"dtype": a.dtype.name, "shape": list(a.shape),
            "values": (flat.view(float) if a.dtype.kind == "c" else flat).tolist()}


def decode(rec) -> np.ndarray:
    dtype = np.dtype(rec["dtype"])
    base = np.float64 if dtype.kind == "c" else dtype
    return np.array(rec["values"], dtype=base).view(dtype).reshape(rec["shape"])


def artifacts(workdir):
    """Exit code and {file name: {array name: encoded array}} of the
    `--grid 4` anomaly run's --out files."""
    got = run_report(ARTIFACT_ARGV + ["--out", str(workdir)])
    files = {}
    for name in got["report"]["artifacts"]:
        if name.endswith(".csv"):
            header, values = oracles.read_field_csv(workdir / name)
            arrays = {"dims": np.array(header["dims"]), "h": np.array(header["h"]),
                      "values": values}
        else:
            arrays = oracles.read_field_npz(workdir / name)
        files[name] = {key: encode(v) for key, v in arrays.items()}
    return {"exit_code": got["exit_code"], "files": files}


def verify_outputs(workdir):
    reports = {command: {seed_key(s): seeded_report(command, s) for s in (None,) + SEEDS}
               for command in ("verify", "anomaly")}
    for command, runs in reports.items():
        runs.update((name, configured_report(command, name, workdir)) for name in CONFIGS)
    return {"reports": reports, "anomaly_artifacts": artifacts(workdir)}


def differences(want, got, where) -> list[str]:
    """Where `got` leaves the frozen `want`. Every non-float must be equal,
    type included; a float may move by 1e-12 of itself; an encoded array
    keeps its dtype and shape and may move by 1e-12 of its max-norm."""
    if isinstance(want, dict) and set(want) == {"dtype", "shape", "values"}:
        head = {k: want[k] for k in ("dtype", "shape")}
        now = {k: got.get(k) for k in head} if isinstance(got, dict) else got
        if now != head:
            return [f"{where}: frozen {head}, now {now}"]
        gap, scale = lattice.max_abs(decode(got) - decode(want)), lattice.max_abs(decode(want))
        return [] if gap <= REL * scale else [f"{where}: moved by {gap!r}, max-norm {scale!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            return [f"{where}: frozen keys {sorted(want)}, now {sorted(got)}"]
        return [d for k in want for d in differences(want[k], got[k], f"{where}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: frozen length {len(want)}, now {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(want, got))
                for d in differences(a, b, f"{where}[{i}]")]
    if type(want) is float and type(got) is float:
        same = abs(got - want) <= REL * abs(want)
    else:
        same = type(want) is type(got) and want == got
    return [] if same else [f"{where}: frozen {want!r}, now {got!r}"]


def first_difference(want, got) -> str:
    if want is None or got is None:
        return f"frozen {want!r}, now {got!r}"
    for i, (a, b) in enumerate(zip_longest(want.splitlines(), got.splitlines()), start=1):
        if a != b:
            return f"first differing line {i}: frozen {a!r}, now {b!r}"
    return "the texts differ in line endings only"


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def frozen_verify():
    return json.loads(FROZEN_VERIFY.read_text(encoding="utf-8"))


def reduce_rows(frozen, name) -> dict:
    """{row name: (status, details)} of one scenario's frozen reduce report."""
    rows = json.loads(frozen[name]["reduce"]["report"])["checks"]
    return {r["name"]: (r["status"], r["details"]) for r in rows}


def test_the_frozen_file_covers_every_scenario(frozen):
    assert list(frozen) == list(SCENARIOS)
    assert frozen["invalid_certificate"]["contract"]["report"].count('"SKIPPED"') == 4
    # every row reduce can write, and each way its rows can fail
    rows = {name: reduce_rows(frozen, name) for name in frozen}
    seen = {row for r in rows.values() for row in r}
    stages = [f"stage_{s}" for s in ("chart_collapse", "constant_sections", "transition_consistency",
                                     "connection", "reduced_operator")]
    per_center = [f"{row}_{i}" for i in (0, 1)
                  for row in ("chart_diameter_bound", "chart_shrink_factor", "collapse_threshold")]
    assert set(stages + per_center + ["operator_coefficient_modulus", "observable_spectrum"]) <= seen

    def failed(row, stage_status=None):
        return [name for name, r in rows.items() if row in r and r[row][0] == "FAIL"
                and (stage_status is None or r[row][1]["stage_status"] == stage_status)]

    not_collapsed = failed("stage_chart_collapse", "NOT_COLLAPSED")
    assert {len(rows[name]["stage_chart_collapse"][1]["threshold_n"]) for name in not_collapsed} == {1, 2}
    assert failed("stage_transition_consistency", "INCONSISTENT")
    assert failed("chart_shrink_factor_0")
    operators = [r["stage_reduced_operator"] for r in rows.values() if "stage_reduced_operator" in r]
    assert {d["pauli_index"] for status, d in operators if status == "PASS"} == {1, 2, 3}


def test_the_frozen_files_cover_every_command(frozen, frozen_verify):
    pipeline = {command for texts in frozen.values() for command in texts}
    assert pipeline | set(frozen_verify["reports"]) == set(checks.COMMANDS)
    runs = frozen_verify["reports"]
    for by_key in runs.values():
        assert list(by_key) == [seed_key(s) for s in (None,) + SEEDS] + list(CONFIGS)
    # frozen as it stands: a seed whose verify fails
    assert runs["verify"]["seed 17"]["exit_code"] == 1
    # a dense phase field: all four components, and a wave along each axis
    dense = runs["verify"]["dense_phase"]["report"]["scenario"]
    assert sorted(dense["phase_components"]) == [1, 2, 3, 4]
    assert all(any(cycles[d] for cycles, _, _ in dense["phase_waves"]) for d in range(4))
    # both small-amplitude scans failing, frozen as they stand
    failed = {(command, c["name"]) for command, by_key in runs.items() for r in by_key.values()
              for c in r["report"]["checks"] if c["status"] == "FAIL"}
    assert {("verify", "vacuum_scaling_slopes"), ("anomaly", "quadratic_divergence_scaling")} <= failed


@pytest.mark.parametrize("name", SCENARIOS)
def test_contract_and_reduce_outputs_match_the_frozen_texts(tmp_path, frozen, name):
    got = outputs(SCENARIOS[name], tmp_path)
    for command, texts in frozen[name].items():
        for key, want in texts.items():
            now = got[command][key]
            where = f"{name}: {command} {key}"
            if key == "exit_code":
                assert now == want, f"{where}: frozen {want}, now {now}"
            else:
                assert now == want, f"{where}: {first_difference(want, now)}"


@pytest.mark.parametrize("command", ("verify", "anomaly"))
@pytest.mark.parametrize("seed", (None,) + SEEDS)
def test_verify_and_anomaly_reports_match_the_frozen_values(frozen_verify, command, seed):
    want = frozen_verify["reports"][command][seed_key(seed)]
    assert differences(want, seeded_report(command, seed), f"{command} {seed_key(seed)}") == []


@pytest.mark.parametrize("command", ("verify", "anomaly"))
@pytest.mark.parametrize("name", CONFIGS)
def test_verify_and_anomaly_reports_match_the_frozen_values_off_the_default_recipe(
        tmp_path, frozen_verify, command, name):
    want = frozen_verify["reports"][command][name]
    assert differences(want, configured_report(command, name, tmp_path), f"{command} {name}") == []


def test_anomaly_artifacts_match_the_frozen_arrays(tmp_path, frozen_verify):
    want = frozen_verify["anomaly_artifacts"]
    assert list(want["files"]) == ["anomaly_divergence.csv", "anomaly_expansion.csv",
                                   "anomaly_closed_form.csv", "anomalous_current.npz"]
    assert differences(want, artifacts(tmp_path), "anomaly --grid 4 --out") == []


def test_differences_holds_each_rule():
    # the comparator behind the two tests above, on a record small enough to read
    want = {"exit_code": 0, "report": {"checks": [{"name": "a", "value": 2.5, "n": 3}]},
            "files": {"f.npz": {"values": encode(np.array([[1.0 + 2.0j, -4.0]]))}}}

    def after(edit):
        got = json.loads(json.dumps(want))
        edit(got, got["report"]["checks"][0], got["files"]["f.npz"]["values"])
        return differences(want, got, "record")

    assert after(lambda got, row, arr: None) == []
    assert after(lambda got, row, arr: row.update(value=2.5 * (1 + 1e-13))) == []
    assert after(lambda got, row, arr: row.update(value=2.5 * (1 + 1e-11))) != []
    assert after(lambda got, row, arr: row.update(n=3.0)) != []  # a float where an int was
    assert after(lambda got, row, arr: row.update(m=row.pop("n"))) != []
    assert after(lambda got, row, arr: row.update(name="b")) != []
    assert after(lambda got, row, arr: got.update(exit_code=1)) != []
    assert after(lambda got, row, arr: arr.update(shape=[2, 1])) != []
    assert after(lambda got, row, arr: arr.update(dtype="float64")) != []
    # an array may move by 1e-12 of its own max-norm, here |-4| = 4
    assert after(lambda got, row, arr: arr["values"].__setitem__(2, -4.0 + 3e-12)) == []
    assert after(lambda got, row, arr: arr["values"].__setitem__(2, -4.0 + 5e-12)) != []


def pipeline_outputs():
    texts = {}
    for name, overrides in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            texts[name] = outputs(overrides, Path(tmp))
    return texts


def verify_file_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        return verify_outputs(Path(tmp))


# each frozen file the script can write, by name: its path and what it holds
FILES = {FROZEN.name: (FROZEN, pipeline_outputs), FROZEN_VERIFY.name: (FROZEN_VERIFY, verify_file_outputs)}


def regenerate(names, files=FILES) -> None:
    """Rewrite each named frozen file from the outputs of the code as it is."""
    if not names or any(name not in files for name in names):
        raise SystemExit(f"usage: test_frozen_reports.py {' | '.join(files)} ...: the frozen files to rewrite")
    for name in names:
        path, make = files[name]
        path.write_text(json.dumps(make(), indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)


def test_the_freeze_script_writes_only_the_files_it_names(tmp_path):
    files = {name: (tmp_path / name, lambda name=name: {"made": name}) for name in FILES}
    regenerate([FROZEN_VERIFY.name], files)
    assert [p.name for p in tmp_path.iterdir()] == [FROZEN_VERIFY.name]
    assert json.loads((tmp_path / FROZEN_VERIFY.name).read_text()) == {"made": FROZEN_VERIFY.name}
    for names in ([], ["frozen_verify"], [FROZEN.name, "other.json"]):
        with pytest.raises(SystemExit, match="usage"):
            regenerate(names, files)
    assert [p.name for p in tmp_path.iterdir()] == [FROZEN_VERIFY.name]


if __name__ == "__main__":
    regenerate(sys.argv[1:])
