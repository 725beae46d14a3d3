"""P1 Galerkin solver for div((sigma - i omega epsilon) grad u) = 0 and the
boundary-operator matrices built from it.

The voltage-to-current boundary operator is realized as the bilinear pairing

    <L f, g> = integral over the domain of (sigma - i omega epsilon) grad u_f . grad v_g

with u_f the discrete solution for trace f and v_g any discrete extension of
g: at the Galerkin level <L f, g> = g^T S f with S = K_bb - K_bi K_ii^-1 K_ib,
the Schur complement of the stiffness matrix onto the boundary nodes.  One
pass over the mesh's nested dissection condenses the element matrices onto
the boundary in dense fronts, eliminating the interior nodes and keeping the
boundary nodes, and yields S as the root's update matrix; the same pass
condenses a checksum load, against which S is checked (``_operator``).  A
coefficient with no imaginary part (omega = 0, a real jump, and always the
background sigma = 1, epsilon = 0) is condensed in real arithmetic.  The
solver runs on numpy alone.

Traces are discretized in one basis, the nodal one: a trace's coefficients
are its boundary-node values, so expanding a trace is exact.  A measurement
with trigonometric current patterns exp(i n theta), |n| <= N, is a band
limit on the operator, and it is written in that same basis as Q^T S^T Q
with Q the least-squares projection onto those modes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    p = mesh.boundary_points
    return BoundaryBasis(thetas=np.arctan2(p[:, 1], p[:, 0]), radius=mesh.domain_radius)


# ---------------------------------------------------------------------------
# Assembly and condensation


class DirichletSystem:
    """The coefficient of a P1 stiffness K on a mesh, checked for the
    condensation of K onto the boundary nodes by the mesh's nested dissection
    (``Mesh.dissection``, condensed by ``_operator``).

    The coefficient is a per-triangle complex symmetric 2x2 matrix; the real
    part must be uniformly positive definite.  A coefficient with no
    imaginary part is kept real, ``gamma``, and gives real element matrices
    and real fronts.  The dissection must eliminate every interior vertex
    exactly once and no boundary vertex, and its root must keep the boundary
    loop in order (checked when the system is built).  The system forms no
    element matrices: the condensation forms each leaf's as it assembles the
    leaf (``_leaf_elements``).
    """

    def __init__(self, mesh: Mesh, gamma: np.ndarray):
        gamma = np.asarray(gamma, dtype=complex)
        if gamma.shape != (mesh.n_triangles, 2, 2):
            raise SolverError("gamma must have shape (n_triangles, 2, 2)")
        lo, _ = sym_eig_bounds(gamma.real)
        if lo.min() <= 0:
            raise SolverError("real part of the coefficient must be positive definite")
        if not gamma.imag.any():
            gamma = gamma.real
        self.mesh = mesh
        self.gamma = gamma
        self.boundary = np.asarray(mesh.boundary_loop)
        self.interior = np.setdiff1d(np.arange(mesh.n_vertices), self.boundary)
        fronts = mesh.dissection
        eliminated = np.sort(np.concatenate([f.eliminated for f in fronts]))
        if not (np.array_equal(eliminated, self.interior)
                and np.array_equal(fronts[-1].kept, self.boundary)):
            raise SolverError("the dissection does not eliminate each interior vertex "
                              "exactly once and keep the boundary loop")


def _bincount(idx: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """np.bincount for real or complex weights."""
    if weights.dtype.kind != "c":
        return np.bincount(idx, weights, size)
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(idx, weights.real, size)
    out.imag = np.bincount(idx, weights.imag, size)
    return out


def _operator(mesh: Mesh, leaves, out=None) -> np.ndarray:
    """S, read-only, from one ``_condense`` pass over the mesh's dissection
    with the element matrices ``leaves`` gives, formed in ``out`` if given.
    SolverError above 1e-8 in either of two relative defects, zero in exact
    arithmetic: S 1 (constants carry no current), and a checksum, the load
    K x of a seeded random x on every vertex condensed in the same pass,
    less S x_b (Huang & Abraham, IEEE Trans. Comput. C-33, 1984; Freivalds
    1977).  The checksum sees each front's backward error, and extend-add
    positions that keep S 1 = 0.  At a contrast of 1e6 (h = 0.1) the
    checksum measured 1.7e-11 (real) and 8.2e-11 (complex), S 1 up to
    2.9e-11; at unit contrast both stay below 5e-16."""
    x = np.random.default_rng(0).standard_normal(mesh.n_vertices)
    load, s = _condense(leaves, mesh.dissection, x, out)
    s.setflags(write=False)
    leak = np.abs(s.sum(axis=1)).max() / np.abs(s).sum(axis=1).max()
    if not leak <= 1e-8:
        raise SolverError(f"boundary operator leaks current on constants: {leak:.3g}")
    sx = s @ x[mesh.boundary_loop]
    mismatch = np.linalg.norm(load - sx) / np.linalg.norm(sx)
    if not mismatch <= 1e-8:
        raise SolverError(f"condensed checksum differs from the boundary operator "
                          f"by {mismatch:.3g}")
    return s


# the most bytes that one gather of an extend-add copies out of a front: on
# the finest benchmark mesh a root child's update is 495^2 complex, 3.9 MB
_EXTEND_ADD_BYTES = 1 << 18


def _condense(leaves, fronts, x: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """One post-order pass over the fronts of a dissection (multifrontal,
    Duff & Reid, ACM TOMS 9, 1983): the condensed load of K x, for x on
    every vertex, and the root's update matrix.  At a root that keeps the
    boundary loop, as a ``DirichletSystem`` checks, the update is the Schur
    complement S = K_bb - K_bi K_ii^-1 K_ib and the load S x_b.

    ``leaves`` gives the element matrices of each leaf, in the fronts'
    order, taken as the leaf is assembled, so that the pass holds no more of
    them than ``leaves`` forms at once; their relative symmetry defect
    |K_e - K_e^T| / |K_e| is summed leaf by leaf and raises SolverError
    above 1e-8 once the pass is done.  A leaf's front is assembled from its
    element matrices, and its load is the front times x at its vertices; an
    inner front's children's updates and condensed loads are extend-added
    at their positions.  Each front [[F_ee, F_ek], [F_ke, F_kk]], its
    eliminated vertices e first and its kept vertices k last, gives
    X = F_ee^-1 F_ek (LAPACK, partial pivoting; a singular front raises
    SolverError), the update matrix F_kk - F_ke X, symmetrized, and the
    condensed load l_k - X^T l_e; X goes once its front has used it.

    An inner front is the sum of its children's updates, each exactly
    symmetric, so it is exactly symmetric too: it is assembled as F_ee,
    F_ke and F_kk, with F_ke^T for F_ek, and its update is formed in F_kk,
    which ``out`` holds at the root when it is given (a writable buffer of
    at least (kept vertices)^2 complex128).  A child's update is added in
    row blocks, each gather of a block at most ``_EXTEND_ADD_BYTES``: the
    same adds as one np.ix_ gather of the whole front, so S keeps its
    bits."""
    updates, loads = [None] * len(fronts), [None] * len(fronts)
    skew = norm = 0.0
    for k, front in enumerate(fronts):
        ne, nk = len(front.eliminated), len(front.kept)
        if front.children:
            dtype = updates[front.children[0][0]].dtype
            if out is not None and k == len(fronts) - 1:
                fkk = np.frombuffer(out, dtype, nk * nk).reshape(nk, nk)
                fkk[...] = 0
            else:
                fkk = np.zeros((nk, nk), dtype)
            fee, fke = np.zeros((ne, ne), dtype), np.zeros((nk, ne), dtype)
            fek = fke.T
            l = np.zeros(ne + nk, dtype)
            for c, pos in front.children:
                u, e = updates[c], pos < ne         # e: the positions this front eliminates
                ie, ik = np.flatnonzero(e), np.flatnonzero(~e)
                pe, pk = pos[ie], pos[ik] - ne
                for f, rows, cols, urows, ucols in ((fee, pe, pe, ie, ie), (fke, pk, pe, ik, ie),
                                                    (fkk, pk, pk, ik, ik)):
                    # in row blocks, so that each gather stays small
                    n = max(1, _EXTEND_ADD_BYTES // (f.itemsize * max(1, len(cols))))
                    for r in range(0, len(rows), n):
                        f[rows[r:r + n, None], cols] += u[urows[r:r + n, None], ucols]
                del u
                updates[c] = None
                l[pos] += loads[c]
                loads[c] = None
        else:
            ke = next(leaves)
            d = ke - ke.transpose(0, 2, 1)
            skew, norm = skew + np.vdot(d, d).real, norm + np.vdot(ke, ke).real
            m, loc = ne + nk, front.local
            f = _bincount((loc[:, :, None] * m + loc[:, None, :]).ravel(), ke.ravel(),
                          m * m).reshape(m, m)
            l = f @ x[np.concatenate([front.eliminated, front.kept])]
            fee, fek, fke, fkk = f[:ne, :ne], f[:ne, ne:], f[ne:, :ne], f[ne:, ne:]
            del f
        try:
            xf = np.linalg.solve(fee, fek)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular front of {ne} vertices: {exc}") from exc
        # F_kk - F_ke X in F_kk's memory; the rest of the front goes before
        # the symmetrization's copy of u.T is made
        u = fkk
        u -= fke @ xf
        del fee, fek, fke, fkk
        u += u.T
        u *= 0.5
        updates[k] = u
        loads[k] = l[ne:] - xf.T @ l[:ne]
        # updates[k] holds u now: the name goes too, so that the update is
        # freed once its parent has added it, not after the next product
        del xf, u
    defect = np.sqrt(skew / norm)
    if not defect <= 1e-8:
        raise SolverError(f"stiffness matrix symmetry defect {defect:.3g}")
    return loads[-1], updates[-1]


def _p1_geometry(mesh: Mesh, triangles=slice(None)
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-triangle P1 coefficients (b, c), each (nt, 3), and signed areas,
    of the given triangles, of all by default."""
    p = mesh.vertices[mesh.triangles[triangles]]          # (nt, 3, 2)
    x, y = p[..., 0], p[..., 1]
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (bvec[:, 0] * cvec[:, 1] - bvec[:, 1] * cvec[:, 0])
    return bvec, cvec, area


def _element_matrices(mesh: Mesh, gamma: np.ndarray, triangles=slice(None)) -> np.ndarray:
    """The (nt, 3, 3) P1 element stiffness matrices of the given triangles,
    of all by default, scaled by the areas in place: one (nt, 3, 3) array is
    made.  Each triangle's matrix has the same bits whichever triangles are
    asked for with it."""
    bvec, cvec, area = _p1_geometry(mesh, triangles)
    # grad(lambda_i) = (b_i, c_i) / (2A); constant per triangle
    grads = np.stack([bvec, cvec], axis=2) / (2.0 * area)[:, None, None]
    k = np.einsum("tik,tkl,tjl->tij", grads, gamma[triangles], grads)
    k *= area[:, None, None]
    return k


# the leaves whose element matrices are formed at once: 8 leaves of at most
# 128 triangles each, at most 147 KB of complex element matrices
_LEAVES_AT_ONCE = 8


def _leaf_elements(mesh: Mesh, gamma: np.ndarray):
    """The element matrices of each leaf of the mesh's dissection, in its
    order, formed ``_LEAVES_AT_ONCE`` leaves at a time as they are asked
    for.  It lets go of gamma once it has formed the last, so that a gamma
    that nothing else holds goes before the root is condensed."""
    leaves = [f.triangles for f in mesh.dissection if not f.children]
    for start in range(0, len(leaves), _LEAVES_AT_ONCE):
        batch = leaves[start:start + _LEAVES_AT_ONCE]
        k = _element_matrices(mesh, gamma, np.concatenate(batch))
        if start + _LEAVES_AT_ONCE >= len(leaves):
            del gamma
        yield from np.split(k, np.cumsum([len(t) for t in batch[:-1]]))
        del k


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


def _mode_form(matrix: np.ndarray, thetas: np.ndarray, modes: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """P+^T (P^T B P) and P+ for a nodal operator matrix B, whose product
    is Q^T B Q: the operator measured with the trigonometric current patterns
    exp(i n theta), |n| <= modes, where Q = P P+ projects node values onto
    them by least squares, with P the (nodes, 2 modes + 1) mode matrix at the
    node angles ``thetas``.

    Formed with products of P only, the last left to the caller.  Its
    quadratic form on a trace f is that of the modes' matrix P^T B P on the
    coefficients c = P+ f, because conj(P+) = J P+ with J the mode reversal."""
    check_band_limit(modes, len(thetas))
    p = np.exp(1j * np.outer(thetas, np.arange(-modes, modes + 1)))
    # the singular-value cutoff of lstsq(rcond=None); pinv's default is 1e-15
    pinv = np.linalg.pinv(p, rcond=max(p.shape) * np.finfo(float).eps)
    return pinv.T @ (p.T @ (matrix @ p)), pinv


def assemble_dtn_matrix(mesh: Mesh, field: AdmittivityField, modes: int = 0,
                        out=None) -> DtNMatrix:
    """B[j, k] = <L phi_j, phi_k> = phi_k^T S phi_j over the nodal basis, read
    off the boundary operator S: S^T, in S's own arithmetic, or for
    modes >= 1 its complex band limit Q^T S^T Q (``_mode_form``).  Given
    ``out``, a writable buffer of at least n^2 complex128 for n boundary
    nodes, B is written into its first bytes and is a view of them.

    S is formed by ``_operator`` from the field's coefficient: the field
    goes once the coefficient is formed, and the coefficient, checked by a
    ``DirichletSystem``, once the last leaf's element matrices are formed.
    S goes before the band limit's last product, which writes B."""
    basis, omega, n = nodal_basis_for_mesh(mesh), field.omega, len(mesh.boundary_loop)
    leaves = _leaf_elements(mesh, DirichletSystem(mesh, complex_admittivity(field)).gamma)
    del field
    s = _operator(mesh, leaves, out)

    def matrix(dtype):          # B's memory: the first bytes of out, or new
        if out is None:
            return np.empty((n, n), dtype)
        return np.frombuffer(out, dtype, n * n).reshape(n, n)

    if modes:
        a, pinv = _mode_form(s.T, basis.thetas, modes)
        del s
        b = np.matmul(a, pinv, out=matrix(complex))
    else:
        b = matrix(s.dtype)
        # an inner root forms S in out, where it is B, exactly symmetric; S is
        # copied without out, or when the dissection is one front, whose root
        # is a leaf and forms S in its own front
        if not np.shares_memory(b, s):
            b[...] = s.T
    return DtNMatrix(basis=basis, omega=omega, matrix=b, mesh_h=mesh.h, modes=modes)


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


def quadratic_gap(gap: DtNMatrix, coef: np.ndarray) -> np.ndarray:
    """Re <(L1 - L0) f, conj(f)> from the operator gap and the (size, k)
    expansion coefficients of k traces f, one column each: one value per
    column.  A form whose products pass double range is inf."""
    c = np.asarray(coef, dtype=complex)
    cc = np.conj(c)
    g = gap.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        if np.iscomplexobj(g):
            w = g @ cc
        else:
            # one real product on the stacked parts, not a complex copy of the gap
            k = cc.shape[1]
            w = g @ np.hstack([cc.real, cc.imag])
            w = w[:, :k] + 1j * w[:, k:]
        vals = np.real(np.sum(c * w, axis=0))
    return np.where(np.isfinite(vals), vals, np.inf)


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
    complex128 as assembled.  The bytes are those of ``np.savez``, and
    depend only on these values: zip entries carry a fixed timestamp.  Each
    entry is written from its array's own memory, where ``np.savez`` writes
    a copy of a whole matrix."""
    import zipfile

    b1, b0 = pair
    basis = b1.basis
    lines = np.array([f"{key}: {val}" for key, val in (provenance or {}).items()], dtype=str)
    entries = {"format": DTN_FORMAT, "provenance": lines, "modes": np.int64(b1.modes),
               "n_nodes": np.int64(basis.size), "omega": np.float64(b1.omega),
               "h": np.float64(b1.mesh_h), "radius": np.float64(basis.radius),
               "thetas": basis.thetas, "perturbed": b1.matrix, "background": b0.matrix}
    # as np.savez writes them: zip64 entries, stored, each a .npy file
    with open(path, "wb") as f, zipfile.ZipFile(f, "w", allowZip64=True) as z:
        for name, val in entries.items():
            val = np.require(val, requirements="C")
            with z.open(f"{name}.npy", "w", force_zip64=True) as entry:
                np.lib.format.write_array_header_1_0(
                    entry, np.lib.format.header_data_from_array_1_0(val))
                entry.write(memoryview(val).cast("B"))


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
