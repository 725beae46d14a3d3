"""P1 Galerkin solver for div((sigma - i omega epsilon) grad u) = 0 and the
boundary-operator matrices built from it.

The voltage-to-current boundary operator is realized as the bilinear pairing

    <L f, g> = integral over the domain of (sigma - i omega epsilon) grad u_f . grad v_g

with u_f the discrete solution for trace f and v_g any discrete extension of
g: at the Galerkin level <L f, g> = g^T S f with S = K_bb - K_bi K_ii^-1 K_ib,
the Schur complement of the stiffness matrix onto the boundary nodes.  One
sparse factorization of the interior rows of the stiffness matrix, interior
nodes first and boundary nodes last with identity rows in place of the
boundary rows, yields S from the rows of its U factor alone (the stiffness
matrix is symmetric; see ``DirichletSystem``), with no back-substitution, and
solves for the discrete solution of any trace.  A
coefficient with no imaginary part (omega = 0, a real jump, and always the
background sigma = 1, epsilon = 0) is assembled and factorized in real
arithmetic; a complex trace is then solved as its real and imaginary columns
through the same real factor.  A system forms and checks S only when S is
first asked for, and each solve checks its interior residual.

Only assembly and factorization need scipy.sparse, and they import it where
they run: a process that reads the operator archive and evaluates probes
never loads scipy.

Traces are discretized in one basis, the nodal one: a trace's coefficients
are its boundary-node values, so expanding a trace is exact.  A measurement
with trigonometric current patterns exp(i n theta), |n| <= N, is a band
limit on the operator, and it is written in that same basis as Q^T S^T Q
with Q the least-squares projection onto those modes.

A separated-variables oracle for the concentric two-layer disk provides the
reference eigenvalues used to validate the assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .admittivity import AdmittivityField, complex_admittivity, sym_eig_bounds
from .mesh import Mesh


class SolverError(RuntimeError):
    """Singular or ill-conditioned system, or an invalid coefficient field."""


# ---------------------------------------------------------------------------
# Boundary bases


@dataclass(frozen=True)
class BoundaryBasis:
    """Nodal trace discretization on the boundary loop: one hat function per
    boundary node, so a trace's coefficients are its nodal values.
    ``thetas`` are the polar angles of the boundary nodes (kept as a read-only
    float copy) and ``radius`` the circle they sit on, kept here so that
    traces can be expanded and probes evaluated without access to the mesh
    interior.
    """

    thetas: np.ndarray
    radius: float = 1.0

    def __post_init__(self):
        thetas = np.array(self.thetas, dtype=float)
        thetas.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)

    @property
    def size(self) -> int:
        return len(self.thetas)

    @property
    def points(self) -> np.ndarray:
        """Boundary node coordinates on the domain circle."""
        return self.radius * np.stack([np.cos(self.thetas), np.sin(self.thetas)], axis=1)

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of boundary-node values, (nodes,) or (nodes, k): the
        values themselves, as a C-ordered complex array."""
        return np.ascontiguousarray(values, dtype=complex)


def nodal_basis_for_mesh(mesh: Mesh) -> BoundaryBasis:
    return BoundaryBasis(thetas=_boundary_thetas(mesh), radius=mesh.domain_radius)


def _boundary_thetas(mesh: Mesh) -> np.ndarray:
    p = mesh.boundary_points
    return np.arctan2(p[:, 1], p[:, 0])


def fourier_trace(mesh: Mesh, n: int) -> np.ndarray:
    """Nodal values of exp(i n theta) on the boundary loop."""
    return np.exp(1j * n * _boundary_thetas(mesh))


# ---------------------------------------------------------------------------
# Assembly and Dirichlet solves


# rows of W per dense block when S is formed: the blocks fix the order of
# S's sums, and so its bytes.  One complex block is 4.9 MB with 594 boundary
# nodes; the whole W as one block (5,752 rows on the benchmark meshes) is
# 55 MB, which does not raise hull's dtn peak RSS (170.2 against 170.1 MB),
# since S is formed after the factor is freed
_BLOCK_ROWS = 512


@dataclass
class SolveResult:
    """Nodal solution with its relative interior residual."""

    u: np.ndarray
    residual: float


class DirichletSystem:
    """Assembled P1 stiffness K, factorized with the boundary nodes last.

    The coefficient is a per-triangle complex symmetric 2x2 matrix; the real
    part must be uniformly positive definite.  A coefficient with no
    imaginary part gives a real stiffness matrix and a real factor.

    The factor is that of M = [[K_ii, K_ib], [0, I]], interior nodes first in
    the minimum-degree order of K_ii + K_ii^T, with diagonal pivots only: its
    identity rows leave L_21 = 0 and U_22 = I, so the elimination stops at
    U_11 and U_12 = L_11^-1 K_ib.  K is symmetric (checked: a relative defect
    |K - K^T| / |K| above 1e-8 raises SolverError), so K_ii = U_11^T D^-1 U_11
    with D the pivots, and K_bi K_ii^-1 K_ib = W^T W for the sparse
    W = D_R^-1/2 U_R, the rows R of U_12 that hold nonzeros.  Every pivot has
    a positive real part (Re K is positive definite), so the principal square
    root serves for a complex factor too.  ``operator``,
    S = K_bb - W^T W (read-only, in loop order), maps a trace to the boundary
    currents of its solution.

    The factor is built on first use.  Forming S consumes it: the first read
    of SuperLU's U builds CSC copies of both L and U and caches them on the
    factor, so S frees the factor once it holds what it needs of U, and a
    later solve factors again.  A system that only solves never reads U.
    """

    def __init__(self, mesh: Mesh, gamma: np.ndarray):
        import scipy.sparse.linalg as spla

        gamma = np.asarray(gamma, dtype=complex)
        if gamma.shape != (mesh.n_triangles, 2, 2):
            raise SolverError("gamma must have shape (n_triangles, 2, 2)")
        lo, _ = sym_eig_bounds(gamma.real)
        if lo.min() <= 0:
            raise SolverError("real part of the coefficient must be positive definite")
        if not gamma.imag.any():
            gamma = gamma.real
        self.mesh = mesh
        self.stiffness = _assemble_stiffness(mesh, gamma)
        # the premise that lets U stand in for L
        defect = (np.linalg.norm((self.stiffness - self.stiffness.T).data)
                  / np.linalg.norm(self.stiffness.data))
        if not defect <= 1e-8:
            raise SolverError(f"stiffness matrix symmetry defect {defect:.3g}")
        self.boundary = np.asarray(mesh.boundary_loop)
        self.interior = np.setdiff1d(np.arange(mesh.n_vertices), self.boundary)
        try:
            # the minimum-degree order of K_ii + K_ii^T (40 % fewer nonzeros in
            # L + U than the default COLAMD), from an incomplete factor that
            # drops every entry it may: the same order as a complete factor's
            perm = spla.spilu(self.stiffness[self.interior][:, self.interior].tocsc(),
                              permc_spec="MMD_AT_PLUS_A", drop_tol=1.0,
                              fill_factor=1).perm_c
        except RuntimeError as exc:
            raise SolverError(f"stiffness factorization failed: {exc}") from exc
        self._order = np.concatenate([self.interior[np.argsort(perm)], self.boundary])

    @cached_property
    def _lu(self):
        """The complete factor of M, in the node order ``_order``."""
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n, ni = self.mesh.n_vertices, len(self.interior)
        # the interior rows, then identity rows: the factor stops at U_12
        m = sp.vstack([self.stiffness[self._order[:ni]][:, self._order],
                       sp.eye(n - ni, n, k=ni)], format="csc")
        try:
            lu = spla.splu(m, permc_spec="NATURAL", diag_pivot_thresh=0,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SolverError(f"stiffness factorization failed: {exc}") from exc
        if not (np.array_equal(lu.perm_r, np.arange(n))
                and np.array_equal(lu.perm_c, np.arange(n))):
            raise SolverError("the factorization reordered the nodes")
        return lu

    @cached_property
    def operator(self) -> np.ndarray:
        """S = K_bb - W^T W, formed on first access over dense blocks of at
        most _BLOCK_ROWS rows of W, each subtracted as w^T w: one symmetric
        rank-k update (BLAS syrk) per block, so S is exactly symmetric.
        SolverError above 1e-8 in either of two relative defects, zero in
        exact arithmetic: S 1 (constants carry no current), and the boundary
        currents of a seeded random trace solved through the factor less S f.
        The largest measured is 6e-11, S 1 at a contrast of 1e6 (h = 0.1)."""
        f = np.random.default_rng(0).standard_normal(len(self.boundary))
        current = (self.stiffness @ self.solve(f).u)[self.boundary]
        ni = len(self.interior)
        # the check trace is solved while the factor lives; the first read of
        # U builds CSC copies of L and U, cached on the factor, so the factor
        # goes at once, with SuperLU's storage and the CSC L, and U as soon as
        # W's precursors are read off it
        u = self._lu.U
        del self._lu
        pivots, u12 = u.diagonal()[:ni], u[:ni, ni:].tocsr()
        del u
        rows = np.flatnonzero(np.diff(u12.indptr))
        w = u12[rows]
        del u12
        # scaled in place, not by a product with sp.diags that holds one more copy
        w.data *= np.repeat(1.0 / np.sqrt(pivots[rows]), np.diff(w.indptr))
        s = self.stiffness[self.boundary][:, self.boundary].toarray()
        for r in range(0, w.shape[0], _BLOCK_ROWS):
            b = w[r:r + _BLOCK_ROWS].toarray()
            s -= b.T @ b
        s.setflags(write=False)
        leak = np.abs(s.sum(axis=1)).max() / np.abs(s).sum(axis=1).max()
        if not leak <= 1e-8:
            raise SolverError(f"boundary operator leaks current on constants: {leak:.3g}")
        mismatch = np.linalg.norm(current - s @ f) / np.linalg.norm(s @ f)
        if not mismatch <= 1e-8:
            raise SolverError(f"boundary current of a solved trace differs from the "
                              f"boundary operator by {mismatch:.3g}")
        return s

    def solve(self, trace: np.ndarray) -> SolveResult:
        """Solution with the given boundary-node values (ordered as the loop),
        through the factor as M [u_i; u_b] = [0; f], so that u_b = f and
        u_i = -K_ii^-1 K_ib f, with the right-hand side as [Re | Im] columns
        (SuperLU solves only in its factor's type).  A relative interior
        residual above 1e-6 raises SolverError."""
        trace = np.asarray(trace, dtype=complex)
        nb = len(self.boundary)
        if trace.shape != (nb,):
            raise SolverError("trace length must match the boundary loop")
        u = np.zeros(self.mesh.n_vertices, dtype=complex)
        u[self.boundary] = trace
        scale = np.linalg.norm((self.stiffness @ u)[self.interior])     # |K_ib f|
        rhs = np.zeros((self.mesh.n_vertices, 2))
        rhs[-nb:] = np.column_stack([trace.real, trace.imag])
        x = self._lu.solve(rhs)
        u[self._order[:-nb]] = x[:-nb, 0] + 1j * x[:-nb, 1]
        res = np.linalg.norm((self.stiffness @ u)[self.interior]) / max(scale, 1e-300)
        if not res <= 1e-6:
            raise SolverError(f"direct solve residual {res:.3g}; system may be singular")
        return SolveResult(u=u, residual=float(res))

    def pairing(self, u_full: np.ndarray, g_trace: np.ndarray) -> complex:
        """Bilinear boundary pairing <L f, g> evaluated with the zero extension
        of g (extension-independent up to the solve residual)."""
        r = (self.stiffness @ u_full)[self.boundary]
        return complex(np.dot(np.asarray(g_trace, dtype=complex), r))

    def energy(self, u_full: np.ndarray) -> float:
        """Dirichlet energy of |grad u| (unit coefficient)."""
        g = element_gradients(self.mesh, u_full)
        areas = self.mesh.triangle_areas()
        return float(np.sum(areas * (np.abs(g) ** 2).sum(axis=1)))


def _p1_geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triangle P1 coefficients (b, c), each (nt, 3), and signed areas."""
    p = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    x, y = p[..., 0], p[..., 1]
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (bvec[:, 0] * cvec[:, 1] - bvec[:, 1] * cvec[:, 0])
    return bvec, cvec, area


def _assemble_stiffness(mesh: Mesh, gamma: np.ndarray):
    """The P1 stiffness matrix, as a scipy.sparse CSR matrix."""
    import scipy.sparse as sp

    bvec, cvec, area = _p1_geometry(mesh)
    # grad(lambda_i) = (b_i, c_i) / (2A); constant per triangle
    grads = np.stack([bvec, cvec], axis=2) / (2.0 * area)[:, None, None]
    ke = np.einsum("tik,tkl,tjl->tij", grads, gamma, grads) * area[:, None, None]
    idx = mesh.triangles
    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    n = mesh.n_vertices
    return sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def element_gradients(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Per-triangle constant gradient of a P1 function; (nt, 2) complex."""
    bvec, cvec, area = _p1_geometry(mesh)
    uv = np.asarray(u, dtype=complex)[mesh.triangles]
    gx = (uv * bvec).sum(axis=1) / (2.0 * area)
    gy = (uv * cvec).sum(axis=1) / (2.0 * area)
    return np.stack([gx, gy], axis=1)


# ---------------------------------------------------------------------------
# Boundary-operator matrices


@dataclass(frozen=True)
class DtNMatrix:
    """Bilinear boundary-operator matrix B[j, k] = <L phi_j, phi_k> over the
    nodal basis (no conjugation; symmetric for symmetric coefficient fields),
    band-limited to the modes |n| <= ``modes``, or the full operator for
    modes = 0: assembled, float64 for the full operator of a real coefficient,
    else complex128.  ``scale`` is the largest entry magnitude of the operators
    the matrix comes from, its own unless given: their entries carry roundoff
    of order eps * scale, which for a gap can be far above eps times its own
    entries."""

    basis: BoundaryBasis
    omega: float
    matrix: np.ndarray
    mesh_h: float
    modes: int = 0
    scale: Optional[float] = None

    def __post_init__(self):
        self.matrix.setflags(write=False)
        if self.scale is None:
            object.__setattr__(self, "scale", float(np.abs(self.matrix).max(initial=0.0)))


def check_band_limit(modes: int, nodes: int) -> None:
    """ValueError unless 0 <= modes <= nodes // 8: above that the modes alias
    on the nodes, and past nodes / 2 their projection is rank-deficient."""
    if not 0 <= modes <= nodes // 8:
        raise ValueError(f"band limit N = {modes} is negative or exceeds the aliasing "
                         f"limit {nodes // 8} for {nodes} boundary nodes")


def band_limited(matrix: np.ndarray, thetas: np.ndarray, modes: int) -> np.ndarray:
    """Q^T B Q for a nodal operator matrix B: the operator measured with the
    trigonometric current patterns exp(i n theta), |n| <= modes, where
    Q = P P+ projects node values onto them by least squares, with P the
    (nodes, 2 modes + 1) mode matrix at the node angles ``thetas``.

    Formed as P+^T (P^T B P) P+, with products of P only.  Its quadratic form
    on a trace f is that of the modes' matrix P^T B P on the coefficients
    c = P+ f, because conj(P+) = J P+ with J the mode reversal."""
    check_band_limit(modes, len(thetas))
    p = np.exp(1j * np.outer(thetas, np.arange(-modes, modes + 1)))
    # the singular-value cutoff of lstsq(rcond=None); pinv's default is 1e-15
    pinv = np.linalg.pinv(p, rcond=max(p.shape) * np.finfo(float).eps)
    return pinv.T @ (p.T @ (matrix @ p)) @ pinv


def assemble_dtn_matrix(mesh: Mesh, field: AdmittivityField, modes: int = 0,
                        system: Optional[DirichletSystem] = None) -> DtNMatrix:
    """B[j, k] = <L phi_j, phi_k> = phi_k^T S phi_j over the nodal basis, read
    off the boundary operator S of the system: S^T, in S's own arithmetic, or
    for modes >= 1 its complex ``band_limited`` form."""
    basis = nodal_basis_for_mesh(mesh)
    sys_ = system or DirichletSystem(mesh, complex_admittivity(field))
    b = (band_limited(sys_.operator.T, basis.thetas, modes) if modes
         else np.ascontiguousarray(sys_.operator.T))
    return DtNMatrix(basis=basis, omega=field.omega, matrix=b, mesh_h=mesh.h, modes=modes)


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


# ---------------------------------------------------------------------------
# Quadratic-form utilities


DtnPair = tuple[DtNMatrix, DtNMatrix]


def gap_matrix(pair: DtnPair) -> DtNMatrix:
    """The operator gap L1 - L0 of a (perturbed, background) pair from one
    mesh, frequency and band limit, as ``read_dtn`` gives it, in their basis
    and with the larger of their scales; its matrix is real when its
    imaginary part is zero, as when both operators are real."""
    b1, b0 = pair
    gap = b1.matrix - b0.matrix
    return replace(b1, matrix=gap if gap.imag.any() else np.ascontiguousarray(gap.real),
                   scale=max(b1.scale, b0.scale))


def quadratic_gap(gap: DtNMatrix, coef: np.ndarray):
    """Re <(L1 - L0) f, conj(f)> from the operator gap and the expansion
    coefficients of f: a float for (size,) coefficients, one value per column
    for (size, k).  A form whose products pass double range is inf."""
    c = np.asarray(coef, dtype=complex)
    cols = c[:, None] if c.ndim == 1 else c
    cc = np.conj(cols)
    g = gap.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        if np.iscomplexobj(g):
            w = g @ cc
        else:
            # one real product on the stacked parts, not a complex copy of the gap
            k = cc.shape[1]
            w = g @ np.hstack([cc.real, cc.imag])
            w = w[:, :k] + 1j * w[:, k:]
        vals = np.real(np.sum(cols * w, axis=0))
    vals = np.where(np.isfinite(vals), vals, np.inf)
    return float(vals[0]) if c.ndim == 1 else vals


# ---------------------------------------------------------------------------
# Integral-inequality check for two coefficient pairs


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    gap: float
    rhs: float
    slack: float
    passed: bool


def prop21_check(field1: AdmittivityField, field2: AdmittivityField,
                 omega: float, f_trace: np.ndarray,
                 systems: Optional[tuple[DirichletSystem, DirichletSystem]] = None
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
        sys1 = DirichletSystem(mesh, complex_admittivity(field1))
        sys2 = DirichletSystem(mesh, complex_admittivity(field2))
    else:
        sys1, sys2 = systems
    u1 = sys1.solve(f_trace).u
    g1 = element_gradients(mesh, u1)
    areas = mesh.triangle_areas()

    s1, e1 = field1.sigma(), field1.epsilon()
    s2, e2 = field2.sigma(), field2.epsilon()
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


# ---------------------------------------------------------------------------
# Operator-matrix exchange format


DTN_FORMAT = "enclosure2d dtn v4"

# the archive's two operator matrices, in the order of a DtnPair
_DTN_MATRICES = ("perturbed", "background")
# each archive entry's dtypes ("U": a str of any length) and dimensions
_DTN_ENTRIES = {"format": ("U", 0), "provenance": ("U", 1), "modes": ("i8", 0),
                "n_nodes": ("i8", 0), "omega": ("f8", 0), "h": ("f8", 0), "radius": ("f8", 0),
                "thetas": ("f8", 1), "perturbed": ("f8 c16", 2), "background": ("f8 c16", 2)}


def write_dtn(pair: DtnPair, path, provenance: Optional[dict] = None) -> None:
    """A (perturbed, background) pair from one mesh, frequency and band limit
    as one uncompressed numpy .npz archive (see ``numpy.lib.format``): the
    ``format`` tag DTN_FORMAT, the header once, from the perturbed operator
    (``modes`` the band limit N, 0 for the full operator, ``n_nodes``,
    ``omega``, ``h`` the mesh size, ``radius``), ``provenance`` as
    'key: value' lines, the float64 node angles ``thetas``, and the
    ``perturbed`` and ``background`` nodal matrices, each float64 or
    complex128 as assembled.  The bytes depend only on these values: zip
    entries carry a fixed timestamp."""
    b1, b0 = pair
    basis = b1.basis
    lines = np.array([f"{key}: {val}" for key, val in (provenance or {}).items()], dtype=str)
    # through a file object, which np.savez does not rename to end in .npz
    with open(path, "wb") as f:
        np.savez(f, format=DTN_FORMAT, provenance=lines, modes=np.int64(b1.modes),
                 n_nodes=np.int64(basis.size), omega=np.float64(b1.omega),
                 h=np.float64(b1.mesh_h), radius=np.float64(basis.radius),
                 thetas=basis.thetas, perturbed=b1.matrix, background=b0.matrix)


def read_dtn(path) -> DtnPair:
    """Inverse of ``write_dtn``, loaded without unpickling.  A file that is not
    such an archive, is of another format version, or whose entries are
    missing, mistyped (a matrix neither float64 nor complex128 among them),
    misshapen, non-finite or inconsistent, raises
    SolverError("corrupt operator file: ...")."""
    import tokenize
    import zipfile

    with open(path, "rb") as f:
        if f.read(4) != b"PK\x03\x04":       # the zip signature that np.load dispatches on
            raise SolverError("corrupt operator file: not an .npz archive (a file in the "
                              "v1 text format needs a new dtn run)")
        f.seek(0)
        try:
            with np.load(f, allow_pickle=False) as data:
                fmt = data.get("format")
                if str(fmt) != DTN_FORMAT:
                    raise SolverError(f"corrupt operator file: format {fmt}, expected "
                                      f"{DTN_FORMAT} (a file of another format needs a new "
                                      "dtn run)")
                z = {name: data[name] for name in _DTN_ENTRIES}
        # np.load's errors on a damaged archive, a bad CRC-32 and an unparsable
        # array header among them
        except (OSError, EOFError, ValueError, KeyError, NotImplementedError,
                zipfile.BadZipFile, tokenize.TokenError) as exc:
            raise SolverError(f"corrupt operator file: {exc}") from exc
    for name, (dtypes, ndim) in _DTN_ENTRIES.items():
        a = z[name]
        dtype = "U" if a.dtype.kind == "U" else a.dtype.str[1:]      # '<c16': 'c16'
        if dtype not in dtypes.split() or a.ndim != ndim:
            raise SolverError(f"corrupt operator file: entry {name!r} is {a.ndim}-d {a.dtype}")
    thetas = z["thetas"]
    omega, h, radius = float(z["omega"]), float(z["h"]), float(z["radius"])
    if not (np.isfinite([omega, h, radius]).all() and np.isfinite(thetas).all()):
        raise SolverError("corrupt operator file: non-finite omega, h, radius or node angle")
    nb = len(thetas)
    if nb != z["n_nodes"]:
        raise SolverError("corrupt operator file: node count mismatch")
    if not nb:
        raise SolverError("corrupt operator file: no node angles")
    try:
        check_band_limit(int(z["modes"]), nb)
    except ValueError as exc:
        raise SolverError(f"corrupt operator file: {exc}") from exc
    for name in _DTN_MATRICES:
        if z[name].shape != (nb, nb):
            raise SolverError(f"corrupt operator file: a {z[name].shape} {name} matrix, "
                              f"expected {nb} x {nb}")
        if not np.isfinite(z[name]).all():
            raise SolverError(f"corrupt operator file: non-finite {name} operator entry")
    basis = BoundaryBasis(thetas=thetas, radius=radius)
    return tuple(DtNMatrix(basis=basis, omega=omega, matrix=z[name], mesh_h=h,
                           modes=int(z["modes"])) for name in _DTN_MATRICES)
