"""Boundary traces and gradients of the two probe families.

Exponential probes exp(tau * x.(theta + i theta_perp)) are stored in a
depth-shifted form, exp(tau * ((x.theta - t) + i x.theta_perp)), so that the
scalar factor exp(-2 tau t) of the depth-t indicator is folded into the trace
and stored values stay bounded by exp(tau * diam(domain)).

Mittag-Leffler probes E_a(tau * ((x-y).theta - t + i (x-y).theta_perp)) grow
inside the open cone of half-aperture pi*a/2 about theta with vertex y + t*theta
and decay algebraically outside it; cone membership and shape-avoidance tests
live here alongside the trace evaluators.

A ``ProbeSpec`` is the whole description of a probe, its tau ladder included:
tau is always a ladder, and traces and gradients evaluate it in one call, one
row per tau, each equal to the one row of a ladder holding that tau alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mesh import ShapeSpec
from .mittag import MLParams, ml_deriv_many, ml_eval_many

_OVERFLOW_GUARD = 700.0
_ANGLE_TOL = 1e-12
_OFFSET_TOL = 1e-10          # bracket width at which critical_cone_offset stops


class ProbeError(ValueError):
    """Invalid probe parameters."""


def rot90(v: np.ndarray) -> np.ndarray:
    """Counterclockwise quarter turn."""
    return np.array([-v[1], v[0]])


def _unit(v, name: str) -> np.ndarray:
    u = np.asarray(v, dtype=float).reshape(2)
    if abs(np.hypot(u[0], u[1]) - 1.0) > 1e-9:
        raise ProbeError(f"{name} must be a unit vector")
    return u


@dataclass(frozen=True)
class ConeSpec:
    """Open cone: vertex, unit axis, half-aperture in (0, pi/2)."""

    vertex: tuple[float, float]
    axis: tuple[float, float]
    half_aperture: float

    def __post_init__(self):
        _unit(self.axis, "axis")
        if not (0 < self.half_aperture < math.pi / 2):
            raise ProbeError("half-aperture must lie in (0, pi/2)")

    def local_coords(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(axial, transverse) coordinates of points relative to the vertex."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        v = np.asarray(self.vertex)
        t = np.asarray(self.axis)
        d = p - v
        return d @ t, d @ rot90(t)


def cone_contains_many(cone: ConeSpec, points: np.ndarray) -> np.ndarray:
    """Closed membership per point: the angle from the axis is at most the
    half-aperture."""
    xi, eta = cone.local_coords(points)
    return np.arctan2(np.abs(eta), xi) <= cone.half_aperture + 1e-12


def cone_avoids_shape(cone: ConeSpec, shape: ShapeSpec) -> bool:
    """True when the open cone and the shape do not overlap (tangency allowed).

    Seen from the vertex, a convex shape fills one sector of directions, at
    most a half turn wide and bounded by ``ShapeSpec.extreme_directions``; a
    vertex strictly inside sees it in every direction.  The cone is a sector
    narrower than a half turn.  Two such open sectors overlap exactly when an
    extreme direction of the shape lies strictly inside the cone, or the cone
    axis lies strictly inside the shape's sector (which then holds the cone's
    middle).  For disks and ellipses the extreme directions are closed-form
    tangents that tend to the boundary tangent as the vertex reaches the
    boundary, so a vertex on a smooth boundary is judged exactly.  "Strictly"
    carries a 1e-12 angular margin, so exact tangency counts as avoidance.
    """
    ext = shape.extreme_directions(cone.vertex)
    if ext is None:
        return False
    ax, ay = float(cone.axis[0]), float(cone.axis[1])
    limit = cone.half_aperture - _ANGLE_TOL
    for dx, dy in ext:
        if math.atan2(abs(ax * dy - ay * dx), ax * dx + ay * dy) < limit:
            return False
    (x1, y1), (x2, y2) = ext
    return not (x1 * ay - y1 * ax > _ANGLE_TOL * math.hypot(x1, y1)
                and ax * y2 - ay * x2 > _ANGLE_TOL * math.hypot(x2, y2))


def critical_cone_offset(y, theta, half_aperture: float, shape: ShapeSpec,
                         t_lo: float, t_hi: float) -> float:
    """Largest axis offset t at which the cone with vertex y + t*theta first
    touches the shape (bisection on the exact avoidance test, to _OFFSET_TOL).

    Requires the cone to avoid the shape at t_hi and hit it at t_lo.
    """
    y = np.asarray(y, dtype=float)
    th = _unit(theta, "theta")

    def avoids(t):
        return cone_avoids_shape(
            ConeSpec(vertex=tuple(y + t * th), axis=(th[0], th[1]),
                     half_aperture=half_aperture), shape)

    if not avoids(t_hi):
        raise ProbeError("cone already touches the shape at the upper offset")
    if avoids(t_lo):
        raise ProbeError("cone misses the shape over the whole offset interval")
    lo, hi = t_lo, t_hi
    while hi - lo > _OFFSET_TOL:
        mid = 0.5 * (lo + hi)
        if avoids(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Probe specification and evaluators


@dataclass(frozen=True)
class ProbeSpec:
    """CGO (pure exponential) or Mittag-Leffler probe parameters.

    ``theta_perp`` must be a unit vector orthogonal to ``theta``; flipping its
    sign conjugates the probe values.  ``tau`` is the ladder, a non-empty
    1-D array of non-negative values, kept as float64; traces and gradients
    have one row per tau.  ML probes additionally carry the cone
    vertex ``y`` and the order ``alpha`` in (0, 1).  A probe knows no domain:
    ``check_domain`` judges its vertex and vertex cone against the disk of
    the operators it meets.
    """

    kind: str                     # "cgo" | "mittag_leffler"
    theta: tuple[float, float]
    theta_perp: tuple[float, float]
    t: float
    tau: np.ndarray
    y: Optional[tuple[float, float]] = None
    alpha: Optional[float] = None

    def __post_init__(self):
        th = _unit(self.theta, "theta")
        tp = _unit(self.theta_perp, "theta_perp")
        if abs(th @ tp) > 1e-9:
            raise ProbeError("theta_perp must be orthogonal to theta")
        tau = np.asarray(self.tau, dtype=float)
        if tau.ndim != 1 or tau.size == 0 or np.any(tau < 0):
            raise ProbeError("tau must be a non-empty 1-D ladder of nonnegative values")
        object.__setattr__(self, "tau", tau)
        if self.kind == "cgo":
            return
        if self.kind != "mittag_leffler":
            raise ProbeError(f"unknown probe kind {self.kind!r}")
        if self.y is None or self.alpha is None:
            raise ProbeError("ML probes need a vertex y and an order alpha")
        if not (0 < self.alpha < 1):
            raise ProbeError("ML probe order must lie in (0, 1)")

    def check_domain(self, radius: float) -> None:
        """Reject an ML probe whose vertex or vertex cone meets the disk of this radius."""
        if np.hypot(*self.y) <= radius:
            raise ProbeError("ML probe vertex must lie outside the domain")
        if not cone_avoids_shape(self.base_cone(), ShapeSpec.disk((0.0, 0.0), radius)):
            raise ProbeError("vertex cone must avoid the domain disk")

    def base_cone(self) -> ConeSpec:
        """Cone at zero offset (vertex y)."""
        return ConeSpec(vertex=self.y, axis=self.theta,
                        half_aperture=math.pi * self.alpha / 2)

    def ml_argument(self, points: np.ndarray) -> np.ndarray:
        """w(x) = tau * ((x-y).theta - t + i (x-y).theta_perp)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        y = np.asarray(self.y)
        th, tp = np.asarray(self.theta), np.asarray(self.theta_perp)
        d = p - y
        return np.multiply.outer(self.tau, (d @ th - self.t) + 1j * (d @ tp))


def cgo_trace(spec: ProbeSpec, points) -> np.ndarray:
    """Depth-shifted exponential probe values exp(tau((x.theta - t) + i x.theta_perp))."""
    if spec.kind != "cgo":
        raise ProbeError("cgo_trace needs a cgo probe")
    p = np.atleast_2d(np.asarray(points, dtype=float))
    th, tp = np.asarray(spec.theta), np.asarray(spec.theta_perp)
    ex = np.multiply.outer(spec.tau, p @ th - spec.t)
    if ex.size and ex.max() > _OVERFLOW_GUARD:
        raise ProbeError(
            f"exponent {ex.max():.3g} exceeds the overflow guard; lower tau or raise t")
    return np.exp(ex + 1j * np.multiply.outer(spec.tau, p @ tp))


def ml_probe_trace(spec: ProbeSpec, points) -> np.ndarray:
    """E_alpha evaluated at the depth-shifted cone coordinate of each point."""
    if spec.kind != "mittag_leffler":
        raise ProbeError("ml_probe_trace needs a mittag_leffler probe")
    return ml_eval_many(MLParams(alpha=spec.alpha), spec.ml_argument(points))


def probe_gradient(spec: ProbeSpec, points) -> np.ndarray:
    """Gradient tau*(theta + i theta_perp) u'(w(x)), per tau and point:
    (n_tau, n_points, 2), with u' the trace for an exponential probe and
    E_alpha' for a Mittag-Leffler one."""
    if spec.kind == "cgo":
        dv = cgo_trace(spec, points)
    else:
        dv = ml_deriv_many(MLParams(alpha=spec.alpha), spec.ml_argument(points))
    d = np.multiply.outer(spec.tau, np.asarray(spec.theta) + 1j * np.asarray(spec.theta_perp))
    return dv[..., None] * d[..., None, :]
