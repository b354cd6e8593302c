"""Output checks for each workload.

Every check compares a report against a value this file computes itself
from the scenario, or against a property the method must have. Nothing is
compared against a stored copy of an earlier report.
"""

from __future__ import annotations

import cmath
import math
import os

import numpy as np

import scenarios

REL = 1e-14  # spacings, coefficients: same formula, different evaluation order
REL_FIT = 1e-9  # a least-squares slope against numpy's polyfit
REL_FIELD = 1e-9  # a max-norm error recomputed with the benchmark's own stencils


def _close(a, b, rel) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _checks(report: dict) -> dict:
    return {c["name"]: c for c in report["checks"]}


def _judged_pass(report: dict, problems: list) -> None:
    bad = [c["name"] for c in report["checks"] if c["status"] not in ("PASS", "RECORDED")]
    if bad or report["overall"] != "PASS":
        problems.append(f"{report['command']}: overall {report['overall']}, not passing: {bad}")


def _slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x), in closed form."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def _order_study(checks: dict, name: str, problems: list) -> None:
    d = checks[name]["details"]
    ladder = scenarios.LADDERS[name]
    want_h = [scenarios.BOX_LENGTH / n for n in ladder]
    if len(d["spacings"]) != len(ladder) or not all(
            _close(h, w, REL) for h, w in zip(d["spacings"], want_h)):
        problems.append(f"{name}: spacings {d['spacings']} are not box_length/n for {ladder}")
        return
    fit = _slope(d["spacings"], d["errors"])
    if not _close(d["order"], fit, REL_FIT):
        problems.append(f"{name}: order {d['order']} differs from the fitted slope {fit}")
    lo, hi = scenarios.ORDER_WINDOW
    if not lo <= fit <= hi:
        problems.append(f"{name}: fitted order {fit} outside [{lo}, {hi}]")


def _shift(a: np.ndarray, k: int, axis: int) -> np.ndarray:
    """a(x + k e_axis) on the periodic grid, by index arithmetic."""
    n = a.shape[axis]
    return np.take(a, (np.arange(n) + k) % n, axis=axis)


def _central(a: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (_shift(a, 1, axis) - _shift(a, -1, axis)) / (2.0 * h)


def _raw_field_strength_error(n: int) -> float:
    """max |F_analytic - F_raw| on the n^4 grid of the default wave recipe."""
    h = scenarios.BOX_LENGTH / n
    x = h * np.arange(n)
    lam = np.zeros((4, n, n, n, n))
    for comp, (cycles, amp, phase) in zip(scenarios.PHASE_COMPONENTS, scenarios.PHASE_WAVES):
        arg = np.full((n, n, n, n), phase)
        for d, cyc in enumerate(cycles):
            shape = [1, 1, 1, 1]
            shape[d] = n
            arg = arg + (2.0 * math.pi * cyc / scenarios.BOX_LENGTH) * x.reshape(shape)
        lam[comp - 1] += amp * np.sin(arg)
    f = np.exp(-1j * lam)
    worst = 0.0
    for m in range(4):
        for k in range(m + 1, 4):
            # analytic: d_m f_k = -i f_k d_m lam_k; raw: the stencil on f_k itself
            fa = -1j * f[k] * _central(lam[k], m, h) + 1j * f[m] * _central(lam[m], k, h)
            fr = _central(f[k], m, h) - _central(f[m], k, h)
            worst = max(worst, float(np.max(np.abs(fa - fr))))
    return worst


def check_verify(op: dict, report: dict, out_dir: str, problems: list) -> None:
    _judged_pass(report, problems)
    checks = _checks(report)
    for name in ("field_strength_raw_order", "gauge_covariance_order", "pure_gauge_order"):
        _order_study(checks, name, problems)
    h = scenarios.BOX_LENGTH / 8
    want = -math.sin(h) / h / scenarios.COUPLING
    got = checks["pure_gauge_closed_form"]["details"]["coefficient"]
    if not _close(got, want, REL):
        problems.append(f"pure_gauge_closed_form: coefficient {got} != -sin(h)/h/g = {want}")
    ladder = scenarios.LADDERS["field_strength_raw_order"]
    n = ladder[0]
    want = _raw_field_strength_error(n)
    got = checks["field_strength_raw_order"]["details"]["errors"][0]
    if not _close(got, want, REL_FIELD):
        problems.append(f"field_strength_raw_order: error {got} on {n}^4, recomputed {want}")


def _read_csv_field(path: str):
    header, rows = {}, []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                header[key] = val
            elif line.strip():
                rows.append(line)
    parts = np.array([[float(v) for v in r.split(",")] for r in rows])
    dims = tuple(int(v) for v in header["dims"].split(","))
    return dims, float(header["h"]), (parts[:, 0] + 1j * parts[:, 1]).reshape(dims)


def check_anomaly(op: dict, report: dict, out_dir: str, problems: list) -> None:
    _judged_pass(report, problems)
    checks = _checks(report)
    _order_study(checks, "divergence_accounting_order", problems)
    status = checks["closed_form_divergence_discrepancy"]["status"]
    if status != "RECORDED":
        problems.append(f"closed_form_divergence_discrepancy is {status}, must stay RECORDED")
    want_files = ["anomaly_divergence.csv", "anomaly_expansion.csv", "anomaly_closed_form.csv",
                  "anomalous_current.npz"]
    if report["artifacts"] != want_files:
        problems.append(f"anomaly artifacts {report['artifacts']} != {want_files}")
        return
    with np.load(os.path.join(out_dir, "anomalous_current.npz"), allow_pickle=False) as data:
        j = data["values"]
        h = float(data["h"])
    n = scenarios.WORKING_GRID
    if j.shape != (n, n, n, n, 4) or not _close(h, scenarios.BOX_LENGTH / n, REL):
        problems.append(f"anomalous_current.npz: shape {j.shape}, h {h}")
        return
    div = sum(_central(j[..., mu], mu, h) for mu in range(4))
    dims, h_csv, csv_div = _read_csv_field(os.path.join(out_dir, "anomaly_divergence.csv"))
    if dims != (n, n, n, n) or h_csv != h:
        problems.append(f"anomaly_divergence.csv: dims {dims}, h {h_csv}")
        return
    gap = float(np.max(np.abs(csv_div - div)))
    scale = max(1.0, float(np.max(np.abs(div))))
    if gap > 1e-12 * scale:
        problems.append(f"anomaly_divergence.csv differs from the divergence of the npz by {gap}")


def _threshold(norm: float, tol: float) -> int:
    """Smallest integer n >= 1 with norm / n^2 < tol, by linear search."""
    n = 1
    while norm / n**2 >= tol:
        n += 1
    return n


def _norm(v) -> float:
    return math.sqrt(sum(x * x for x in v))


def check_contract(op: dict, report: dict, out_dir: str, problems: list) -> None:
    cfg = op["config"]
    checks = _checks(report)
    cert = checks["contraction_validity"]
    want = _norm(cfg["contraction_center"]) / cfg["contraction_n"]
    if not _close(cert["details"]["bound"], want, REL):
        problems.append(f"contract: certificate bound {cert['details']['bound']} != |c|/n = {want}")
    if op["kind"] == "invalid":
        downstream = [c["status"] for c in report["checks"][1:]]
        if cert["details"]["certificate_status"] != "INVALID" or downstream != ["SKIPPED"] * 4:
            problems.append(f"contract: invalid certificate gave {cert['details']['certificate_status']},"
                            f" downstream {downstream}")
    else:
        _judged_pass(report, problems)


def check_reduce(op: dict, report: dict, out_dir: str, problems: list) -> None:
    cfg = op["config"]
    checks = _checks(report)
    centres = [cfg["contraction_center"]]
    if op["kind"] == "two_centre":
        centres.append(cfg["second_center"])
    for idx, c in enumerate(centres):
        want = _threshold(_norm(c), scenarios.COLLAPSE_TOL)
        got = checks[f"collapse_threshold_{idx}"]["details"]["threshold_n"]
        if got != want:
            problems.append(f"reduce: threshold_n {got} for centre {idx}, integer search gives {want}")
    if op["kind"] == "two_centre":
        stage = checks.pop("stage_transition_consistency", None)
        if (stage is None or stage["status"] != "FAIL" or len(stage["details"]["centers"]) != 2
                or "stage_reduced_operator" in checks):
            problems.append("reduce: two distinct centres were not reported INCONSISTENT")
        bad = [name for name, c in checks.items() if c["status"] != "PASS"]
        if bad:
            problems.append(f"reduce: two-centre run also failed {bad}")
        return
    _judged_pass(report, problems)
    g = cfg["coupling"]
    got = checks["stage_reduced_operator"]["details"]
    for mu, (real, imag) in enumerate(got["coefficients"]):
        want = -1j * g * cmath.exp(-1j * cfg["contraction_center"][mu])
        if abs(complex(real, imag) - want) > 4 * REL * g:
            problems.append(f"reduce: coefficient {mu} is {real}+{imag}i, -i g e^(-i c) = {want}")
    lo, hi = got["eigenvalues"]
    if abs(lo + 0.5) > 1e-12 or abs(hi - 0.5) > 1e-12:
        problems.append(f"reduce: eigenvalues {lo}, {hi} are not -1/2, +1/2")


# op["check"] -> check(op, report, out_dir, problems)
CHECKS = {"verify": check_verify, "anomaly": check_anomaly,
          "contract": check_contract, "reduce": check_reduce}
