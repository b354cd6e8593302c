"""The outputs of `contract` and `reduce`, held byte-equal to frozen texts.

`frozen_pipeline.json` holds, for each scenario below and each of the two
commands, the exit code, the `--json` report without its `timings` key and
`banach_trace.csv` where one was written. The reproducibility tests only
compare two runs of the same code; these texts hold the pipeline's outputs
across changes to it. A change that means to move them regenerates the
file with `PYTHONPATH=src python tests/test_frozen_reports.py` and says so.
"""

import contextlib
import io
import json
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import pytest

from su2reduce import cli, report

FROZEN = Path(__file__).with_name("frozen_pipeline.json")

SCENARIOS = {
    "defaults": {},
    "invalid_certificate": {"contraction_n": 1},
    "banach_nonconvergence": {"contraction_center": [9.9, 0, 0, 0]},
    "zero_center": {"contraction_center": [0, 0, 0, 0]},
    "not_collapsed": {"collapse_schedule": [4, 8]},
    "inconsistent": {"reduce_centers": 2},
    "coincident_centers": {"reduce_centers": 2, "second_center": [1, 0, 0, 0]},
}


def outputs(overrides, workdir):
    """{command: {exit_code, report, banach_trace.csv}} for one scenario."""
    cfgfile = workdir / "config.json"
    cfgfile.write_text(json.dumps(overrides), encoding="utf-8")
    got = {}
    for command in ("contract", "reduce"):
        out, stdout = workdir / command, io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([command, "--json", "--config", str(cfgfile), "--out", str(out)])
        trace = out / "banach_trace.csv"
        got[command] = {
            "exit_code": code,
            "report": report.strip_timings(stdout.getvalue()),
            # bytes as written: the csv module ends its rows with \r\n
            "banach_trace.csv": trace.read_bytes().decode("ascii") if trace.exists() else None,
        }
    return got


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


def test_the_frozen_file_covers_every_scenario(frozen):
    assert list(frozen) == list(SCENARIOS)
    assert frozen["invalid_certificate"]["contract"]["report"].count('"SKIPPED"') == 4


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


if __name__ == "__main__":
    texts = {}
    for name, overrides in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            texts[name] = outputs(overrides, Path(tmp))
    FROZEN.write_text(json.dumps(texts, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FROZEN}", file=sys.stderr)
