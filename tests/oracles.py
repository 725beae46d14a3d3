"""References for the tests: Dirichlet solves on the stiffness matrix that
scipy assembles from the element matrices, the boundary operator as the
pipeline condenses it for any checked coefficient, and the paper-side
oracles that read them (Proposition 2.1's integral inequalities, the
two-layer disk's eigenvalues, the contact-slab jump analysis and the
unreduced admittivity).  The pipeline itself needs none of them.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enclosure2d import fem
from enclosure2d.admittivity import (AdmittivityField, FieldError, _sym_batch,
                                     complex_admittivity, sym_eig_bounds)
from enclosure2d.fem import DirichletSystem, SolverError
from enclosure2d.mesh import INCLUSION, Mesh

_JUMP_MARGIN = 1e-9


def stiffness(mesh: Mesh, gamma: np.ndarray) -> sp.csr_matrix:
    """The P1 stiffness matrix of the coefficient gamma, assembled by scipy
    from the element matrices."""
    tri, n = mesh.triangles, mesh.n_vertices
    rows, cols = np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, (1, 3)).ravel()
    k = fem._element_matrices(mesh, gamma)
    return sp.coo_matrix((k.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def boundary_operator(system: DirichletSystem) -> np.ndarray:
    """S as ``assemble_dtn_matrix`` forms it, for the system's checked
    coefficient: read-only, from the pass that checks it."""
    return fem._operator(system.mesh, fem._leaf_elements(system.mesh, system.gamma))


def fourier_trace(mesh: Mesh, n: int) -> np.ndarray:
    """Nodal values of exp(i n theta) on the boundary loop."""
    return np.exp(1j * n * fem.nodal_basis_for_mesh(mesh).thetas)


def element_gradients(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Per-triangle constant gradient of a P1 function; (nt, 2) complex."""
    bvec, cvec, area = fem._p1_geometry(mesh)
    uv = np.asarray(u, dtype=complex)[mesh.triangles]
    gx = (uv * bvec).sum(axis=1) / (2.0 * area)
    gy = (uv * cvec).sum(axis=1) / (2.0 * area)
    return np.stack([gx, gy], axis=1)


# ---------------------------------------------------------------------------
# Dirichlet solves


@dataclass
class SolveResult:
    """Nodal solution with its relative interior residual."""

    u: np.ndarray
    residual: float


class ReferenceSystem:
    """Dirichlet solves for the coefficient gamma, checked as a
    ``DirichletSystem`` checks it (and kept real when it has no imaginary
    part), on the scipy-assembled stiffness K: u_b = f and
    u_i = -K_ii^-1 K_ib f by a sparse LU of K_ii, with a complex trace as
    [Re | Im] columns when K is real."""

    def __init__(self, mesh: Mesh, gamma: np.ndarray):
        system = DirichletSystem(mesh, gamma)
        self.mesh, self.gamma = mesh, system.gamma
        self.boundary, self.interior = system.boundary, system.interior
        self.k = stiffness(mesh, self.gamma)
        k_i = self.k[self.interior]
        self._k_ib = k_i[:, self.boundary]
        self._lu = spla.splu(k_i[:, self.interior].tocsc())

    def apply(self, u: np.ndarray) -> np.ndarray:
        """K u for the nodal values u."""
        return self.k @ u

    def solve(self, trace: np.ndarray) -> SolveResult:
        """Solution with the given boundary-node values (ordered as the loop).
        A relative interior residual above 1e-6 raises SolverError."""
        trace = np.asarray(trace, dtype=complex)
        if trace.shape != (len(self.boundary),):
            raise SolverError("trace length must match the boundary loop")
        rhs = -(self._k_ib @ trace)
        if self.k.dtype.kind == "c":
            u_i = self._lu.solve(rhs)
        else:
            v = self._lu.solve(np.column_stack([rhs.real, rhs.imag]))
            u_i = v[:, 0] + 1j * v[:, 1]
        u = np.zeros(self.mesh.n_vertices, dtype=complex)
        u[self.boundary], u[self.interior] = trace, u_i
        res = np.linalg.norm(self.apply(u)[self.interior]) / max(np.linalg.norm(rhs), 1e-300)
        if not res <= 1e-6:
            raise SolverError(f"direct solve residual {res:.3g}; system may be singular")
        return SolveResult(u=u, residual=float(res))

    def pairing(self, u_full: np.ndarray, g_trace: np.ndarray) -> complex:
        """Bilinear boundary pairing <L f, g> evaluated with the zero extension
        of g (extension-independent up to the solve residual)."""
        r = self.apply(u_full)[self.boundary]
        return complex(np.dot(np.asarray(g_trace, dtype=complex), r))

    def energy(self, u_full: np.ndarray) -> float:
        """Dirichlet energy of |grad u| (unit coefficient)."""
        g = element_gradients(self.mesh, u_full)
        areas = self.mesh.triangle_areas()
        return float(np.sum(areas * (np.abs(g) ** 2).sum(axis=1)))


# ---------------------------------------------------------------------------
# Oracles


def analytic_two_layer_dtn(rho: float, k: complex, n: int) -> complex:
    """Boundary-operator eigenvalue of the concentric two-layer unit disk.

    Separation of variables with contrast k inside radius rho gives
    lambda_n = |n| (1 - mu rho^(2|n|)) / (1 + mu rho^(2|n|)), mu = (1-k)/(1+k).
    """
    if not (0 < rho < 1):
        raise ValueError("rho must lie in (0, 1)")
    if k == -1:
        raise ValueError("contrast k = -1 is singular")
    n = abs(int(n))
    if n == 0:
        return 0.0 + 0.0j
    mu = (1.0 - k) / (1.0 + k)
    q = mu * rho ** (2 * n)
    return n * (1.0 - q) / (1.0 + q)


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    gap: float
    rhs: float
    slack: float
    passed: bool


def prop21_check(field1: AdmittivityField, field2: AdmittivityField,
                 omega: float, f_trace: np.ndarray,
                 systems: tuple[ReferenceSystem, ReferenceSystem] | None = None
                 ) -> InequalityReport:
    """Sandwich check LHS <= Re <(L2 - L1) f, conj f> <= RHS with

      LHS = int (s1 + i w e1) { (s1 + w^2 e1 s1^-1 e1)^-1 - s2^-1 } (s1 - i w e1)
            grad u1 . conj(grad u1)
      RHS = int { (s2 + w^2 e2 s2^-1 e2) - s1 } grad u1 . conj(grad u1)

    evaluated on the discrete solution u1.  The allowed slack is
    5 times an a-priori first-order energy-error bound h * E(u1);
    at the Galerkin level the inequalities hold to solver precision, so the
    slack only guards against roundoff on near-equality cases.
    """
    mesh = field1.mesh
    if field2.mesh is not mesh:
        raise SolverError("fields must share a mesh")
    if abs(field1.omega - omega) > 0 or abs(field2.omega - omega) > 0:
        raise SolverError("omega must match both fields")
    f_trace = np.asarray(f_trace, dtype=complex)

    if systems is None:
        sys1 = ReferenceSystem(mesh, complex_admittivity(field1))
        sys2 = ReferenceSystem(mesh, complex_admittivity(field2))
    else:
        sys1, sys2 = systems
    u1 = sys1.solve(f_trace).u
    g1 = element_gradients(mesh, u1)
    areas = mesh.triangle_areas()

    s1, e1 = field1.sigma(), field1.b
    s2, e2 = field2.sigma(), field2.b
    s1_inv = np.linalg.inv(s1)
    s2_inv = np.linalg.inv(s2)
    t1 = s1 + omega ** 2 * np.einsum("tij,tjk,tkl->til", e1, s1_inv, e1)
    mid = np.linalg.inv(t1) - s2_inv
    a_plus = s1 + 1j * omega * e1
    a_minus = s1 - 1j * omega * e1
    m_lhs = np.einsum("tij,tjk,tkl->til", a_plus, mid.astype(complex), a_minus)
    m_rhs = (s2 + omega ** 2 * np.einsum("tij,tjk,tkl->til", e2, s2_inv, e2) - s1)

    def form(mat, g):
        return float(np.real(np.sum(areas * np.einsum(
            "ti,tij,tj->t", np.conj(g), mat.astype(complex), g))))

    lhs = form(m_lhs, g1)
    rhs = form(m_rhs, g1)

    conj_f = np.conj(f_trace)
    gap = float(np.real(sys2.pairing(sys2.solve(f_trace).u, conj_f)
                        - sys1.pairing(u1, conj_f)))
    # the discrete inequalities are exact, so the slack only needs to cover
    # solver roundoff; it is still capped by the first-order energy bound
    energy = sys1.energy(u1)
    slack = 5.0 * min(mesh.h * energy, 1e-9 * (1.0 + abs(lhs) + abs(rhs) + energy))
    passed = (lhs <= gap + slack) and (gap <= rhs + slack)
    return InequalityReport(lhs=lhs, gap=gap, rhs=rhs, slack=slack, passed=passed)


def original_admittivity(mesh: Mesh, alpha, beta, omega: float, sigma0: float,
                         epsilon0: float) -> np.ndarray:
    """Per-element gamma for the unreduced problem with jumps alpha, beta over
    the background (sigma0, epsilon0): (sigma0 I + alpha) - i omega (epsilon0 I + beta)."""
    nt = mesh.n_triangles
    alpha = _sym_batch(alpha, nt, "alpha")
    beta = _sym_batch(beta, nt, "beta")
    eye = np.broadcast_to(np.eye(2), (nt, 2, 2))
    return (sigma0 * eye + alpha) - 1j * omega * (epsilon0 * eye + beta)


@dataclass(frozen=True)
class JumpReport:
    """Definiteness of the conductivity perturbation on the contact slab
    {x in D : h_D(theta) - delta < x.theta <= h_D(theta)}."""

    theta: tuple[float, float]
    sign: str              # "positive" | "negative" | "indefinite"
    c_theta: float
    m: float
    big_m: float
    omega_max: float


def jump_analysis(field: AdmittivityField, theta, delta: float) -> JumpReport:
    """Scan inclusion triangles whose centroid lies in the depth-delta contact
    slab for the direction theta and report the definiteness of a there.

    m is the lowest sigma eigenvalue and M the largest |b| operator norm on
    the slab.  The admissible-frequency bound is sqrt(m * C) / M for a
    negative jump and +inf for a positive one.
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
        h_d = mesh.inclusion.support(t)
    else:
        if not inc.any():
            raise FieldError("field has no inclusion elements")
        h_d = float((cents[inc] @ t).max())
    depth = cents @ t
    slab = inc & (depth > h_d - delta) & (depth <= h_d + 1e-12)
    if not slab.any():
        raise FieldError("contact slab contains no inclusion elements")

    lo_a, hi_a = sym_eig_bounds(field.a[slab])
    lo_s, _ = sym_eig_bounds(field.sigma()[slab])
    lo_b, hi_b = sym_eig_bounds(field.b[slab])
    m, big_m = float(lo_s.min()), float(np.maximum(np.abs(lo_b), np.abs(hi_b)).max())
    if lo_a.min() > 0:
        sign, c = "positive", float(lo_a.min()) - _JUMP_MARGIN
        omega_max = math.inf
    elif hi_a.max() < 0:
        sign, c = "negative", float(-hi_a.max()) - _JUMP_MARGIN
        omega_max = math.sqrt(max(m * c, 0.0)) / big_m if big_m > 0 else math.inf
    else:
        sign, c, omega_max = "indefinite", 0.0, 0.0
    return JumpReport(theta=(t[0], t[1]), sign=sign, c_theta=max(c, 0.0), m=m,
                      big_m=big_m, omega_max=omega_max)
