"""Output checks: quality metrics and per-operation failures derived from the
files and stdout a workload leaves behind, against ground truth.

The truth is the workload's inclusion (a ``ShapeSpec`` disk), the exact
tangency offsets of ``probes.critical_cone_offset``, and the closed form
E_{1/2}(z) = exp(z^2) erfc(-z) = wofz(-iz).  Nothing here is timed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import wofz

from enclosure2d.probes import ConeSpec, cone_avoids_shape, critical_cone_offset

SUPPORT_TOL = 1e-9          # a hull support below h_true - SUPPORT_TOL is unsound
ML_TARGET = 1e-10           # the default relative accuracy of MLParams


@dataclass
class CheckResult:
    """Operations checked, operations failed, quality metrics and failure notes."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.problems.append(note)


def _data_rows(path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(ln for ln in f if not ln.startswith("#")))


# ---------------------------------------------------------------------------
# hull


def polygon_support(poly: np.ndarray, theta: np.ndarray) -> float:
    """max over the polygon's vertices of x . theta."""
    return float(np.max(np.asarray(poly) @ np.asarray(theta)))


def polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a simple polygon."""
    x, y = np.asarray(poly, dtype=float).T
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def read_hull(path) -> np.ndarray:
    return np.array([[float(r["x"]), float(r["y"])] for r in _data_rows(path)])


def check_hull(poly: np.ndarray, shape, n_directions: int) -> CheckResult:
    """One operation per support direction; a direction fails when the hull's
    support lies below the true support by more than SUPPORT_TOL."""
    res = CheckResult()
    errs = []
    for k in range(n_directions):
        ang = 2 * math.pi * k / n_directions
        th = np.array([math.cos(ang), math.sin(ang)])
        h_hull = polygon_support(poly, th)
        h_true = shape.support(th)
        errs.append(abs(h_hull - h_true))
        res.attempted += 1
        if h_hull < h_true - SUPPORT_TOL:
            res.fail(f"direction {k}: hull support {h_hull:.6g} < true {h_true:.6g}")
    res.metrics["support_err_max"] = max(errs)
    res.metrics["hull_area_ratio"] = polygon_area(poly) / shape.area()
    return res


# ---------------------------------------------------------------------------
# cones

_STATUS = re.compile(r"offset estimate: (\S+) \[(\w+)\]")
_KEPT = re.compile(r"kept area (\S+)")


def read_cones(path) -> list[dict]:
    return [{k: float(v) for k, v in r.items()} for r in _data_rows(path)]


def check_cones(cones: list[dict], stdout: str, geometry, alpha: float, shape,
                t_search: tuple[float, float]) -> CheckResult:
    """One operation per cone probe; a probe fails when its status is not
    ``ok`` or when its carved cone overlaps the true inclusion.

    Statuses come from the ``reconstruct`` stdout (one line per probe, in
    geometry order); offsets come from ``cones.csv`` at full precision, as
    (vertex - y) . axis of the cone whose axis matches the probe direction.
    """
    res = CheckResult()
    statuses = _STATUS.findall(stdout)
    if len(statuses) != len(geometry):
        res.attempted += len(geometry)
        for _ in geometry:
            res.fail(f"expected {len(geometry)} probe status lines, found {len(statuses)}")
        return res
    half = math.pi * alpha / 2
    errs = []
    for (y, th), (_, status) in zip(geometry, statuses):
        res.attempted += 1
        if status != "ok":
            res.fail(f"probe at {y}: status {status}")
            continue
        match = [c for c in cones
                 if abs(c["axis_x"] - th[0]) < 1e-12 and abs(c["axis_y"] - th[1]) < 1e-12]
        if len(match) != 1:
            res.fail(f"probe at {y}: {len(match)} cones with its axis in cones.csv")
            continue
        c = match[0]
        h_est = (c["vertex_x"] - y[0]) * th[0] + (c["vertex_y"] - y[1]) * th[1]
        t_true = critical_cone_offset(y, th, half, shape, *t_search)
        errs.append(abs(h_est - t_true))
        cone = ConeSpec(vertex=(c["vertex_x"], c["vertex_y"]), axis=(th[0], th[1]),
                        half_aperture=c["half_aperture"])
        if not cone_avoids_shape(cone, shape):
            res.fail(f"probe at {y}: cone at offset {h_est:.6g} overlaps the inclusion "
                     f"(tangency at {t_true:.6g})")
    if errs:
        res.metrics["cone_offset_err_max"] = max(errs)
        res.metrics["cone_offset_err_median"] = statistics.median(errs)
    kept = _KEPT.findall(stdout)
    if kept:
        res.metrics["cone_kept_area_ratio"] = float(kept[-1]) / shape.area()
    return res


# ---------------------------------------------------------------------------
# Mittag-Leffler grid


def ml_half_oracle(z: np.ndarray) -> np.ndarray:
    """E_{1/2}(z) = exp(z^2) erfc(-z), as the Faddeeva function wofz(-iz)."""
    return wofz(-1j * np.asarray(z, dtype=complex))


def read_ml(path) -> tuple[np.ndarray, np.ndarray]:
    """Grid points z and tabulated values E from an ``mleval`` output file."""
    with open(path) as f:
        lines = [ln for ln in f if not ln.startswith("#")][1:]      # drop the header
    data = np.atleast_2d(np.loadtxt(lines, delimiter=",", usecols=(1, 2, 3, 4)))
    return data[:, 0] + 1j * data[:, 1], data[:, 2] + 1j * data[:, 3]


def check_ml(z: np.ndarray, vals: np.ndarray, expected_points: int) -> CheckResult:
    """One operation per grid point; a point fails when its value is NaN or
    when code and oracle disagree on whether it is finite.  The relative
    error is measured where both are finite."""
    res = CheckResult(attempted=expected_points)
    if len(z) != expected_points:
        res.failed = expected_points
        res.problems.append(f"ml.csv has {len(z)} rows, expected {expected_points}")
        return res
    ref = ml_half_oracle(z)
    fin_v, fin_r = np.isfinite(vals), np.isfinite(ref)
    bad = np.isnan(vals) | (fin_v != fin_r)
    for i in np.flatnonzero(bad)[:5]:
        res.problems.append(f"z = {z[i]}: code {vals[i]}, oracle {ref[i]}")
    res.failed = int(bad.sum())
    both = fin_v & fin_r
    rel = np.abs(vals[both] - ref[both]) / np.maximum(np.abs(ref[both]), 1e-300)
    res.metrics["ml_err_max"] = float(rel.max()) if rel.size else 0.0
    res.metrics["ml_miss_count"] = int(np.sum(rel > ML_TARGET))
    return res


# ---------------------------------------------------------------------------


def sha256_files(root: Path, names) -> dict:
    """SHA-256 of each named output file (None where a file is missing)."""
    out = {}
    for name in names:
        p = Path(root) / name
        out[name] = hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
    return out
