"""Conductivity/permittivity fields over a mesh and the unit-background reduction.

Coefficients are real symmetric 2x2 matrices, piecewise constant per triangle
(background triangles carry the identity conductivity and zero permittivity).
A general constant background (sigma0, epsilon0) at frequency omega is mapped
onto this normal form by `reduce_background`; the corresponding boundary
operators differ by the scalar factor (sigma0 - i omega epsilon0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mesh import INCLUSION, Mesh, support_function_exact


class FieldError(ValueError):
    """Invalid coefficient data."""


_DEFINITE_TOL = 1e-12
_JUMP_MARGIN = 1e-9


def sym_eig_bounds(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (min, max) eigenvalues of a batch of symmetric 2x2 matrices."""
    m = np.asarray(mats, dtype=float)
    half_tr = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    disc = np.sqrt((0.5 * (m[..., 0, 0] - m[..., 1, 1])) ** 2 + m[..., 0, 1] ** 2)
    return half_tr - disc, half_tr + disc


def _sym_batch(values, n: int, name: str) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.shape == (2, 2):
        a = np.broadcast_to(a, (n, 2, 2)).copy()
    if a.shape != (n, 2, 2):
        raise FieldError(f"{name} must have shape (n_triangles, 2, 2)")
    if np.max(np.abs(a[:, 0, 1] - a[:, 1, 0])) > 1e-12:
        raise FieldError(f"{name} must be symmetric")
    return a


@dataclass(frozen=True)
class ReductionInput:
    """Original-background problem data: constants (sigma0, epsilon0), frequency
    omega, and per-inclusion-triangle perturbations alpha, beta (2x2 symmetric)."""

    sigma0: float
    epsilon0: float
    omega: float
    alpha: np.ndarray   # (nt, 2, 2), zero off the inclusion
    beta: np.ndarray    # (nt, 2, 2)

    def __post_init__(self):
        if self.sigma0 < 0:
            raise FieldError("sigma0 must be nonnegative")
        if self.epsilon0 <= 0:
            raise FieldError("epsilon0 must be positive")
        if self.omega < 0:
            raise FieldError("omega must be nonnegative")

    @property
    def denom(self) -> float:
        return self.sigma0 ** 2 + self.omega ** 2 * self.epsilon0 ** 2


@dataclass(frozen=True)
class AdmittivityField:
    """Reduced-form field: sigma = I + a, epsilon = b on the inclusion,
    (I, 0) elsewhere, at frequency omega."""

    mesh: Mesh
    a: np.ndarray       # (nt, 2, 2)
    b: np.ndarray       # (nt, 2, 2)
    omega: float

    def __post_init__(self):
        nt = self.mesh.n_triangles
        object.__setattr__(self, "a", _sym_batch(self.a, nt, "a"))
        object.__setattr__(self, "b", _sym_batch(self.b, nt, "b"))
        if self.omega < 0:
            raise FieldError("omega must be nonnegative")
        lo, _ = sym_eig_bounds(self.sigma())
        if lo.min() <= _DEFINITE_TOL:
            raise FieldError("sigma = I + a must be uniformly positive definite")
        self.a.setflags(write=False)
        self.b.setflags(write=False)

    @staticmethod
    def from_scalars(mesh: Mesh, a: float, b: float, omega: float) -> "AdmittivityField":
        """Scalar contrasts a, b applied on every inclusion triangle."""
        inc = (mesh.labels == INCLUSION).astype(float)
        eye = np.eye(2)
        return AdmittivityField(mesh=mesh,
                                a=inc[:, None, None] * a * eye,
                                b=inc[:, None, None] * b * eye,
                                omega=float(omega))

    def sigma(self) -> np.ndarray:
        return np.eye(2) + self.a

    def epsilon(self) -> np.ndarray:
        return self.b

    def uniform_bounds(self, mask: Optional[np.ndarray] = None) -> tuple[float, float]:
        """(m, M): lowest sigma eigenvalue and largest |b| operator norm over the
        selected triangles (default: the whole inclusion)."""
        if mask is None:
            mask = self.mesh.labels == INCLUSION
        lo, _ = sym_eig_bounds(self.sigma()[mask])
        blo, bhi = sym_eig_bounds(self.b[mask])
        return float(lo.min()), float(np.maximum(np.abs(blo), np.abs(bhi)).max())


def reduce_background(inp: ReductionInput, mesh: Mesh) -> AdmittivityField:
    """Map a (sigma0, epsilon0) background problem to the unit-background form.

    sigma~ = (sigma0 sigma + omega^2 epsilon0 epsilon) / (sigma0^2 + omega^2 epsilon0^2)
    epsilon~ = (sigma0 epsilon - epsilon0 sigma) / (sigma0^2 + omega^2 epsilon0^2)

    and the returned perturbations are a = sigma~ - I, b = epsilon~ on the
    inclusion.  The admittivity factorizes exactly:
    sigma - i omega epsilon = (sigma0 - i omega epsilon0)(sigma~ - i omega epsilon~).
    """
    if inp.denom == 0:
        raise FieldError("sigma0^2 + omega^2 epsilon0^2 must be nonzero")
    nt = mesh.n_triangles
    alpha = _sym_batch(inp.alpha, nt, "alpha")
    beta = _sym_batch(inp.beta, nt, "beta")
    s0, e0, w = inp.sigma0, inp.epsilon0, inp.omega
    a = (s0 * alpha + w ** 2 * e0 * beta) / inp.denom
    b = (s0 * beta - e0 * alpha) / inp.denom
    return AdmittivityField(mesh=mesh, a=a, b=b, omega=w)


def perturbation_roundtrip(inp: ReductionInput, field: AdmittivityField) -> tuple[np.ndarray, np.ndarray]:
    """Invert the reduction map: recover (alpha, beta) from (a, b)."""
    s0, e0, w = inp.sigma0, inp.epsilon0, inp.omega
    alpha = s0 * field.a - w ** 2 * e0 * field.b
    beta = e0 * field.a + s0 * field.b
    return alpha, beta


def complex_admittivity(field: AdmittivityField) -> np.ndarray:
    """Per-element gamma = sigma - i omega epsilon (identity off the inclusion)."""
    return field.sigma() - 1j * field.omega * field.b


def original_admittivity(inp: ReductionInput, mesh: Mesh) -> np.ndarray:
    """Per-element gamma for the unreduced problem: (sigma0 I + alpha) -
    i omega (epsilon0 I + beta)."""
    nt = mesh.n_triangles
    alpha = _sym_batch(inp.alpha, nt, "alpha")
    beta = _sym_batch(inp.beta, nt, "beta")
    eye = np.broadcast_to(np.eye(2), (nt, 2, 2))
    return (inp.sigma0 * eye + alpha) - 1j * inp.omega * (inp.epsilon0 * eye + beta)


@dataclass(frozen=True)
class JumpReport:
    """Definiteness of the conductivity perturbation on the contact slab
    {x in D : h_D(theta) - delta < x.theta <= h_D(theta)}."""

    theta: tuple[float, float]
    delta: float
    sign: str              # "positive" | "negative" | "indefinite"
    c_theta: float
    m: float
    big_m: float
    omega_max: float
    n_elements: int


def jump_analysis(field: AdmittivityField, theta, delta: float) -> JumpReport:
    """Scan inclusion triangles whose centroid lies in the depth-delta contact
    slab for the direction theta and report the definiteness of a there.

    The admissible-frequency bound is sqrt(m * C) / M for a negative jump and
    +inf for a positive one.
    """
    t = np.asarray(theta, dtype=float).reshape(2)
    if abs(np.hypot(t[0], t[1]) - 1.0) > 1e-9:
        raise FieldError("theta must be a unit vector")
    if delta <= 0:
        raise FieldError("delta must be positive")
    mesh = field.mesh
    inc = mesh.labels == INCLUSION
    cents = mesh.centroids()
    if mesh.inclusion is not None:
        h_d = support_function_exact(mesh.inclusion, t)
    else:
        if not inc.any():
            raise FieldError("field has no inclusion elements")
        h_d = float((cents[inc] @ t).max())
    depth = cents @ t
    slab = inc & (depth > h_d - delta) & (depth <= h_d + 1e-12)
    n = int(slab.sum())
    if n == 0:
        raise FieldError("contact slab contains no inclusion elements")

    lo_a, hi_a = sym_eig_bounds(field.a[slab])
    m, big_m = field.uniform_bounds(slab)
    if lo_a.min() > 0:
        sign, c = "positive", float(lo_a.min()) - _JUMP_MARGIN
        omega_max = math.inf
    elif hi_a.max() < 0:
        sign, c = "negative", float(-hi_a.max()) - _JUMP_MARGIN
        omega_max = math.sqrt(max(m * c, 0.0)) / big_m if big_m > 0 else math.inf
    else:
        sign, c, omega_max = "indefinite", 0.0, 0.0
    return JumpReport(theta=(t[0], t[1]), delta=float(delta), sign=sign,
                      c_theta=max(c, 0.0), m=m, big_m=big_m,
                      omega_max=omega_max, n_elements=n)


# ---------------------------------------------------------------------------
# Plain-text field exchange keyed to mesh element indices


def write_field(field: AdmittivityField, path) -> None:
    with open(path, "w") as f:
        f.write("# enclosure2d field v1\n")
        f.write(f"{field.mesh.n_triangles} {field.omega:.17g}\n")
        for e in range(field.mesh.n_triangles):
            a, b = field.a[e], field.b[e]
            f.write(f"{e} {a[0, 0]:.17g} {a[0, 1]:.17g} {a[1, 1]:.17g} "
                    f"{b[0, 0]:.17g} {b[0, 1]:.17g} {b[1, 1]:.17g}\n")


def read_field(mesh: Mesh, path) -> AdmittivityField:
    """Inverse of write_field; raises FieldError("corrupt field file: ...")
    when the header, the row count, a row length or an element index is
    wrong."""
    with open(path) as f:
        rows = [ln.split() for ln in f if not ln.startswith("#")]
    try:
        if not rows or len(rows[0]) != 2:
            raise ValueError("need a 2-field header")
        nt, omega = int(rows[0][0]), float(rows[0][1])
        if len(rows) - 1 != nt:
            raise ValueError(f"{len(rows) - 1} element rows, header declares {nt}")
        if any(len(r) != 7 for r in rows[1:]):
            raise ValueError("an element row does not hold 7 fields")
        elems = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
        vals = np.array([[float(x) for x in r[1:]] for r in rows[1:]]).reshape(nt, 6)
    except ValueError as exc:
        raise FieldError(f"corrupt field file: {exc}") from exc
    if nt != mesh.n_triangles:
        raise FieldError("field file does not match the mesh")
    if np.any((elems < 0) | (elems >= nt)) or np.unique(elems).size != nt:
        raise FieldError("corrupt field file: element index out of range or repeated")
    vals = vals[np.argsort(elems)]      # rows a11 a12 a22 b11 b12 b22
    a = vals[:, [0, 1, 1, 2]].reshape(nt, 2, 2)
    b = vals[:, [3, 4, 4, 5]].reshape(nt, 2, 2)
    return AdmittivityField(mesh=mesh, a=a, b=b, omega=omega)
