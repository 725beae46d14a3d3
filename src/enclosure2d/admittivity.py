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
    def from_scalars(mesh: Mesh, a: float, b: float, omega: float, sigma0: float = 1.0,
                     epsilon0: float = 0.0) -> "AdmittivityField":
        """Scalar jumps a, b of sigma and epsilon (a*I, b*I) on every inclusion
        triangle over the constant background (sigma0, epsilon0), reduced to
        the unit background by `reduce_background`."""
        inc = (mesh.labels == INCLUSION).astype(float)[:, None, None]
        eye = np.eye(2)
        return reduce_background(mesh, inc * a * eye, inc * b * eye, omega, sigma0, epsilon0)

    def sigma(self) -> np.ndarray:
        return np.eye(2) + self.a


def reduce_background(mesh: Mesh, alpha, beta, omega: float, sigma0: float = 1.0,
                      epsilon0: float = 0.0) -> AdmittivityField:
    """Map the jumps alpha, beta (2x2 symmetric per triangle, zero off the
    inclusion) of sigma and epsilon over the constant background (sigma0,
    epsilon0) at frequency omega to the unit-background form:

    sigma~ = (sigma0 sigma + omega^2 epsilon0 epsilon) / (sigma0^2 + omega^2 epsilon0^2)
    epsilon~ = (sigma0 epsilon - epsilon0 sigma) / (sigma0^2 + omega^2 epsilon0^2)

    and the returned perturbations are a = sigma~ - I, b = epsilon~ on the
    inclusion.  The admittivity factorizes exactly:
    sigma - i omega epsilon = (sigma0 - i omega epsilon0)(sigma~ - i omega epsilon~).
    At (sigma0, epsilon0) = (1, 0) the map leaves the jumps as they are.
    """
    for name, value in (("sigma0", sigma0), ("epsilon0", epsilon0), ("omega", omega)):
        if value < 0:
            raise FieldError(f"{name} must be nonnegative")
    denom = sigma0 ** 2 + omega ** 2 * epsilon0 ** 2
    if denom == 0:
        raise FieldError("sigma0^2 + omega^2 epsilon0^2 must be nonzero")
    nt = mesh.n_triangles
    alpha = _sym_batch(alpha, nt, "alpha")
    beta = _sym_batch(beta, nt, "beta")
    a = (sigma0 * alpha + omega ** 2 * epsilon0 * beta) / denom
    b = (sigma0 * beta - epsilon0 * alpha) / denom
    return AdmittivityField(mesh=mesh, a=a, b=b, omega=float(omega))


def complex_admittivity(field: AdmittivityField) -> np.ndarray:
    """Per-element gamma = sigma - i omega epsilon (identity off the inclusion)."""
    return field.sigma() - 1j * field.omega * field.b
