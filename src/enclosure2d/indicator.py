"""Indicator functionals on boundary data and the region estimates built from them.

Everything here consumes only the operator gap L1 - L0 of an assembled
(perturbed, background) pair (plus probe parameters), formed once by
``fem.gap_matrix`` and passed to every indicator, fit and search; mesh
interiors and true inclusion shapes appear exclusively in the validation
helpers, which keeps the reconstruction side honest.

Every consumer takes a probe as one ``ProbeSpec`` whose ``tau`` is the whole
ladder: the indicators and the energy oracle evaluate it in one call and
return one value per tau, the slope fit reads its taus from it, and the
transition search classifies its values in ladder order.

The depth-t exponential indicator obeys log|I(tau, t)| ~ 2 tau (h(theta) - t),
so the support value in a direction is recovered as t plus the slope of a
trailing-window linear fit.  The cone-probe indicator switches from decay to
growth as the probing cone first reaches the inclusion; the critical offset is
located by bisection in t on a decay/growth classification of the tau ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .fem import DtNMatrix, quadratic_gap
from .mesh import INCLUSION, Mesh, ShapeSpec, polygon_area, provenance_header
from .probes import (ConeSpec, ProbeSpec, cgo_trace, cone_avoids_shape,
                     cone_contains_many, probe_gradient, ml_probe_trace)

_UNDERFLOW_FLOOR = 1e-280
_DEAD_BAND = 1e-2
_HULL_SIDES = 128
_SUPPORT_TOL = 1e-9
_SVG_SIZE = 600
_FIT_RESIDUAL = 0.05
_CARVE_RESOLUTION = 512      # side of the cone estimate's raster mask, in cells
_SEARCH_DT = 0.02            # width at which the transition search stops bisecting


class IndicatorError(ValueError):
    """Invalid indicator inputs or an unusable sample series."""


@dataclass(frozen=True)
class SupportFit:
    """Per-direction support estimate from the log-slope of an indicator series."""

    theta: tuple[float, float]
    t: float
    h_est: float
    rms_residual: float
    window: tuple[int, int]
    low_confidence: bool


@dataclass(frozen=True)
class TransitionEstimate:
    """Critical cone offset located by decay/growth bisection."""

    y: tuple[float, float]
    theta: tuple[float, float]
    alpha: float
    h_est: Optional[float]
    bracket: tuple[float, float]
    status: str                  # "ok" | "no_transition"
    low_confidence_steps: int = 0


@dataclass(frozen=True)
class RegionEstimate:
    """Upper estimate of the inclusion: a clipped half-plane hull or the domain
    minus a union of cones (the cone list is authoritative; the mask is a
    rasterized convenience)."""

    kind: str                    # "hull" | "cones"
    domain_radius: float
    polygon: Optional[np.ndarray] = None
    cones: tuple[ConeSpec, ...] = ()
    mask: Optional[np.ndarray] = None

    def area(self) -> float:
        if self.kind == "hull":
            return abs(polygon_area(self.polygon))
        if self.mask is None:
            raise IndicatorError("cone estimate has no rasterized mask")
        cell = (2 * self.domain_radius / self.mask.shape[0]) ** 2
        return float(self.mask.sum() * cell)


# ---------------------------------------------------------------------------
# Quadratic-form indicators


def _ladder_forms(gap: DtNMatrix, traces: np.ndarray) -> np.ndarray:
    """Quadratic forms Re <(L1 - L0) f, conj f> of the traces f of a probe,
    one row per tau: one form per tau, inf from the first trace that
    overflows on."""
    finite = np.isfinite(traces).all(axis=1)
    stop = len(finite) if finite.all() else int(finite.argmin())
    vals = np.full(len(finite), np.inf)
    vals[:stop] = quadratic_gap(gap, gap.basis.expand(traces[:stop].T))
    return vals


def indicator_cgo(gap: DtNMatrix, spec: ProbeSpec) -> np.ndarray:
    """Depth-shifted exponential-probe indicator from the operator gap, one
    value per tau."""
    return _ladder_forms(gap, cgo_trace(spec, gap.basis.points))


def indicator_ml(gap: DtNMatrix, spec: ProbeSpec) -> np.ndarray:
    """Cone-probe indicator from the operator gap, one value per tau, inf
    from the first overflowing trace on; rejects probes whose vertex or base
    cone meets the operators' domain."""
    spec.check_domain(gap.basis.radius)
    return _ladder_forms(gap, ml_probe_trace(spec, gap.basis.points))


def j_oracle(mesh: Mesh, spec: ProbeSpec) -> np.ndarray:
    """Ground-truth probe energy: quadrature of |grad probe|^2 over the labeled
    inclusion elements, one value per tau (validation mode only)."""
    inc = mesh.labels == INCLUSION
    g = probe_gradient(spec, mesh.centroids()[inc])
    return np.sum(mesh.triangle_areas()[inc] * (np.abs(g) ** 2).sum(axis=-1), axis=-1)


# ---------------------------------------------------------------------------
# Support recovery by log-slope fitting


def support_slope_fit(spec: ProbeSpec, values: np.ndarray) -> SupportFit:
    """Least-squares slope of log|I| against 2 tau over the largest trailing
    window with per-point residual below the acceptance threshold, for the
    indicator values of a probe over its tau ladder.

    The ladder must increase strictly and the values must be finite.  Samples
    with |I| below the underflow floor are censored (not zeroed).
    """
    taus = np.asarray(spec.tau, dtype=float)
    if np.any(np.diff(taus) <= 0):
        raise IndicatorError("tau grid must be strictly increasing")
    if not np.all(np.isfinite(values)):
        raise IndicatorError("indicator values must be finite")
    vals = np.abs(values)
    usable = vals > _UNDERFLOW_FLOOR
    if usable.sum() < 5:
        raise IndicatorError("fewer than 5 usable samples above the underflow floor")
    x = 2.0 * taus[usable]
    yv = np.log(vals[usable])
    n = len(x)
    best = None
    low_confidence = False
    for length in range(n, 3, -1):
        xs, ys = x[n - length:], yv[n - length:]
        slope, intercept = np.polyfit(xs, ys, 1)
        rms = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
        if rms <= _FIT_RESIDUAL:
            best = (slope, intercept, rms, (n - length, n))
            break
        if best is None or rms < best[2]:
            best = (slope, intercept, rms, (n - length, n))
    else:
        low_confidence = True
    slope, _, rms, window = best
    return SupportFit(theta=spec.theta, t=spec.t, h_est=spec.t + float(slope),
                      rms_residual=rms, window=window, low_confidence=low_confidence)


def fit_support_directions(gap: DtNMatrix,
                           probes: Sequence[ProbeSpec]) -> tuple[SupportFit, ...]:
    """Slope fits of exponential probes, one per probe, each over its ladder."""
    return tuple(support_slope_fit(spec, indicator_cgo(gap, spec)) for spec in probes)


# ---------------------------------------------------------------------------
# Cone-probe transition search


def classify_series(values: np.ndarray, noise_floors: np.ndarray) -> tuple[str, bool]:
    """Label the indicator values of a probe over its tau ladder "growth" or
    "decay" by the monotonicity of log|I| over the trailing half; ties are
    labelled growth with a low-confidence flag (growth errs toward a
    shallower, containment-safe estimate).  The values come in ladder order,
    each with its own noise floor; the taus themselves are not needed.

    Samples below their roundoff noise floor (and everything after the first
    such sample) are discarded.  A sustained decline followed by an explosive
    upturn is the signature of discretization leakage from the probe's large
    boundary values, not of the limiting growth, so such tails are censored
    at the minimum before classifying.
    """
    vals = np.abs(np.asarray(values, dtype=float))
    n = len(vals)
    cut = n
    for i in range(n):
        if (not np.isfinite(vals[i]) or vals[i] <= _UNDERFLOW_FLOOR
                or vals[i] < 10.0 * noise_floors[i]):
            cut = i
            break
    if cut < 4:
        return "growth", True
    logs = np.log(vals[:cut])
    # leakage announces itself with an explosive per-step jump well above any
    # near-transition trend; censor the tail from the first such step
    jumps = np.flatnonzero(np.diff(logs) > 2.0)
    if len(jumps):
        logs = logs[:jumps[0] + 1]
    if len(logs) < 4:
        return "growth", True
    half = logs[len(logs) // 2:]
    mean_step = float(np.mean(np.diff(half)))
    if mean_step > _DEAD_BAND:
        return "growth", False
    if mean_step < -_DEAD_BAND:
        return "decay", False
    return "growth", True


def transition_search_ml(gap: DtNMatrix, spec: ProbeSpec,
                         t_interval: tuple[float, float]) -> TransitionEstimate:
    """Bisect the decay/growth transition of the cone-probe indicator in t,
    each step classifying the forms of the probe's tau ladder at that t (the
    probe's own t is not read).  The probe is checked against the operators'
    domain once, before the first step: its base cone does not depend on t.

    The search interval must lie in (-inf, 0); if both endpoints classify the
    same there is no transition to report.

    Noise floor: each entry of either operator carries roundoff of about
    u s, with u = 1e-16 the unit roundoff and s = ``gap.scale`` the largest
    entry of the two operators (the roundoff of a Schur complement follows
    the size of its terms, not of the small difference B1 - B0).  Taken as
    independent across the m x m entries, these errors move a sample
    Re c^T (B1 - B0) conj(c) by about u s |c|^2 <= u s m max|c|^2, the floor
    of its tau.  The coefficients c are the trace f itself, so each floor is
    u s m max|f|^2 from its own trace; ``classify_series`` discards a sample
    below ten times its floor, together with the rest of its ladder.
    """
    t_lo, t_hi = float(t_interval[0]), float(t_interval[1])
    if not (t_lo < t_hi < 0):
        raise IndicatorError("search interval must satisfy t_lo < t_hi < 0")
    basis = gap.basis
    spec.check_domain(basis.radius)
    noise = 1e-16 * gap.scale * gap.matrix.shape[0]
    low_conf = 0

    def classify(t: float) -> str:
        nonlocal low_conf
        traces = ml_probe_trace(replace(spec, t=t), basis.points)
        # a floor that overflows is inf, which discards its sample; the forms
        # are inf from the first overflowing trace on, which ends the series
        # before the floors of those traces are read
        with np.errstate(over="ignore"):
            floors = np.max(np.abs(traces), axis=1) ** 2 * noise
        label, tie = classify_series(_ladder_forms(gap, traces), floors)
        if tie:
            low_conf += 1
        return label

    lo_label = classify(t_lo)
    hi_label = classify(t_hi)
    if lo_label == hi_label:
        return TransitionEstimate(y=spec.y, theta=spec.theta, alpha=spec.alpha,
                                  h_est=None, bracket=(t_lo, t_hi),
                                  status="no_transition", low_confidence_steps=low_conf)
    lo, hi = t_lo, t_hi
    while hi - lo > _SEARCH_DT:
        mid = 0.5 * (lo + hi)
        if classify(mid) == "growth":
            lo = mid
        else:
            hi = mid
    return TransitionEstimate(y=spec.y, theta=spec.theta, alpha=spec.alpha,
                              h_est=0.5 * (lo + hi), bracket=(lo, hi), status="ok",
                              low_confidence_steps=low_conf)


# ---------------------------------------------------------------------------
# Region assembly


def clip_polygon_halfplane(poly: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon to {x . normal <= offset}."""
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        d_cur = cur @ normal - offset
        d_nxt = nxt @ normal - offset
        if d_cur <= 0:
            out.append(cur)
            if d_nxt > 0:
                s = d_cur / (d_cur - d_nxt)
                out.append(cur + s * (nxt - cur))
        elif d_nxt <= 0:
            s = d_cur / (d_cur - d_nxt)
            out.append(cur + s * (nxt - cur))
    return np.array(out) if out else np.empty((0, 2))


def convex_hull_estimate(fits: Sequence[SupportFit], domain_radius: float) -> RegionEstimate:
    """Intersection of the half-planes {x . theta <= h(theta)}, clipped to the domain."""
    if len(fits) < 3:
        raise IndicatorError("need at least 3 directions for a hull")
    ang = np.linspace(0, 2 * math.pi, _HULL_SIDES, endpoint=False)
    poly = domain_radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    for fit in fits:
        poly = clip_polygon_halfplane(poly, np.asarray(fit.theta), fit.h_est)
        if len(poly) < 3:
            raise IndicatorError("half-plane intersection is empty; estimates inconsistent")
    return RegionEstimate(kind="hull", domain_radius=domain_radius, polygon=poly)


def cone_carving(estimates: Sequence[TransitionEstimate], domain_radius: float) -> RegionEstimate:
    """Domain minus the union of the critical cones of the "ok" estimates,
    with a rasterized mask."""
    cones = []
    for est in estimates:
        if est.status != "ok" or est.h_est is None:
            continue
        v = np.asarray(est.y) + est.h_est * np.asarray(est.theta)
        cones.append(ConeSpec(vertex=(v[0], v[1]), axis=est.theta,
                              half_aperture=math.pi * est.alpha / 2))
    xs = np.linspace(-domain_radius, domain_radius, _CARVE_RESOLUTION)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    mask = (np.hypot(pts[:, 0], pts[:, 1]) <= domain_radius)
    for cone in cones:
        mask &= ~cone_contains_many(cone, pts)
    return RegionEstimate(kind="cones", domain_radius=domain_radius,
                          cones=tuple(cones), mask=mask.reshape(xs.size, xs.size))


# ---------------------------------------------------------------------------
# Validation helpers (ground truth required)


def hull_contains_shape(fits: Sequence[SupportFit], shape: ShapeSpec) -> bool:
    """Soundness: the true support never exceeds the fitted one per direction."""
    return all(shape.support(np.asarray(f.theta)) <= f.h_est + _SUPPORT_TOL for f in fits)


def cones_avoid_shape(region: RegionEstimate, shape: ShapeSpec) -> bool:
    return all(cone_avoids_shape(c, shape) for c in region.cones)


# ---------------------------------------------------------------------------
# CSV and SVG output


def write_indicator_csv(path, rows: Sequence[dict], provenance: Optional[dict] = None) -> None:
    """Columns: family, alpha, theta_x, theta_y, y_x, y_y, t, tau, I, logabsI, J."""
    cols = ("family", "alpha", "theta_x", "theta_y", "y_x", "y_y", "t", "tau",
            "I", "logabsI", "J")
    with open(path, "w") as f:
        f.write(provenance_header(provenance) + ",".join(cols) + "\n")
        for r in rows:
            out = []
            for c in cols:
                v = r.get(c)
                if v is None:
                    out.append("")
                elif isinstance(v, str):
                    out.append(v)
                else:
                    out.append(f"{v:.17g}")
            f.write(",".join(out) + "\n")


def write_region_svg(path, estimate: RegionEstimate,
                     true_shape: Optional[ShapeSpec] = None,
                     provenance: Optional[dict] = None) -> None:
    """Overlay of the domain circle, the estimate, and (in validation mode)
    the true inclusion."""
    size = _SVG_SIZE
    r = estimate.domain_radius
    scale = size / (2.2 * r)

    def sx(x):
        return (x + 1.1 * r) * scale

    def sy(y):
        return (1.1 * r - y) * scale

    prov = "".join(f"<!-- {k}: {v} -->\n" for k, v in (provenance or {}).items())
    parts = [prov + f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<circle cx="{sx(0):.2f}" cy="{sy(0):.2f}" r="{r * scale:.2f}" '
             'fill="none" stroke="black" stroke-width="1.5"/>']
    if true_shape is not None:
        pts = true_shape.boundary_points(128)
        d = "M " + " L ".join(f"{sx(p[0]):.2f} {sy(p[1]):.2f}" for p in pts) + " Z"
        parts.append(f'<path d="{d}" fill="#9ecae1" fill-opacity="0.6" stroke="#3182bd"/>')
    if estimate.kind == "hull" and estimate.polygon is not None:
        d = "M " + " L ".join(f"{sx(p[0]):.2f} {sy(p[1]):.2f}" for p in estimate.polygon) + " Z"
        parts.append(f'<path d="{d}" fill="none" stroke="#d62728" stroke-width="2"/>')
    else:
        span = 6.0 * r
        for cone in estimate.cones:
            v = np.asarray(cone.vertex)
            ax = np.asarray(cone.axis)
            psi = cone.half_aperture
            for sgn in (1.0, -1.0):
                ca, sa = math.cos(sgn * psi), math.sin(sgn * psi)
                e = np.array([ca * ax[0] - sa * ax[1], sa * ax[0] + ca * ax[1]])
                tip = v + span * e
                parts.append(f'<line x1="{sx(v[0]):.2f}" y1="{sy(v[1]):.2f}" '
                             f'x2="{sx(tip[0]):.2f}" y2="{sy(tip[1]):.2f}" '
                             'stroke="#d62728" stroke-width="1"/>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")
