"""Conductivity/permittivity fields over a mesh and the unit-background reduction.

Coefficients are real symmetric 2x2 matrices, piecewise constant per triangle
(background triangles carry the identity conductivity and zero permittivity).
A general constant background (sigma0, epsilon0) at frequency omega is mapped
onto this normal form by `reduce_background`; the corresponding boundary
operators differ by the scalar factor (sigma0 - i omega epsilon0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import INCLUSION, Mesh


class FieldError(ValueError):
    """Invalid coefficient data."""


_DEFINITE_TOL = 1e-12


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


def complex_admittivity(field: AdmittivityField) -> np.ndarray:
    """Per-element gamma = sigma - i omega epsilon (identity off the inclusion)."""
    return field.sigma() - 1j * field.omega * field.b
