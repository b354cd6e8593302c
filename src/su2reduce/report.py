"""Check results and the JSON run report.

Reports are deterministic given (config, seed): keys are sorted, floats
are emitted by repr through the json module, and the only run-dependent
material is collected under the single top-level "timings" key, so two
runs of the same scenario produce byte-identical files once that key is
dropped. That key carries the environment that produced the run and,
from the CLI, the wall time of each check.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field

import numpy as np

PASS = "PASS"
FAIL = "FAIL"
RECORDED = "RECORDED"
SKIPPED = "SKIPPED"

_STATUSES = (PASS, FAIL, RECORDED, SKIPPED)


@dataclass(frozen=True)
class CheckResult:
    """One named check with its status and measured numbers.

    RECORDED marks a quantity that is reported without a pass criterion
    (measured discrepancies, slopes shown for context); SKIPPED marks a
    check the command did not run. Neither affects the overall verdict.
    """

    name: str
    status: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")

    def line(self) -> str:
        return f"[{self.status}] {self.name}"


def environment() -> dict:
    """Interpreter, numpy, platform and processor count of this process.

    platform.platform() is left out: it reads the interpreter binary,
    which costs milliseconds in each process.
    """
    return {"python": sys.version, "numpy": np.__version__, "platform": sys.platform,
            "machine": platform.machine(), "cpu_count": os.cpu_count()}


@dataclass
class RunReport:
    command: str
    scenario: dict
    checks: list = field(default_factory=list)
    errata: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    timings: dict = field(default_factory=lambda: {"environment": environment()})

    def add(self, name: str, status: str, **details) -> CheckResult:
        res = CheckResult(name, status, details)
        self.checks.append(res)
        return res

    @property
    def overall(self) -> str:
        judged = [c for c in self.checks if c.status in (PASS, FAIL)]
        if not judged:
            return RECORDED
        return PASS if all(c.status == PASS for c in judged) else FAIL

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "scenario": self.scenario,
            "checks": [
                {"name": c.name, "status": c.status, "details": _jsonable(c.details)}
                for c in self.checks
            ],
            "errata": _jsonable(self.errata),
            "artifacts": list(self.artifacts),
            "overall": self.overall,
            "timings": _jsonable(self.timings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def print_lines(self) -> None:
        for c in self.checks:
            print(c.line())
        print(f"overall: {self.overall}")


def _jsonable(v):
    """Map numpy scalars and containers onto plain python values."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, complex):
        return [v.real, v.imag]
    if hasattr(v, "item") and callable(v.item) and getattr(v, "ndim", None) == 0:
        return _jsonable(v.item())
    if hasattr(v, "tolist") and callable(v.tolist):
        return _jsonable(v.tolist())
    return v


def strip_timings(text: str) -> str:
    """Report text minus the volatile timing block, for byte comparison."""
    data = json.loads(text)
    data.pop("timings", None)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
