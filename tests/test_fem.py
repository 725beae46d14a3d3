import io
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from enclosure2d import fem
from enclosure2d.admittivity import AdmittivityField, complex_admittivity
from enclosure2d.fem import (DTN_FORMAT, BoundaryBasis, DirichletSystem, DtNMatrix,
                             SolverError, assemble_dtn_matrix, gap_matrix,
                             nodal_basis_for_mesh, quadratic_gap, read_dtn, write_dtn)
from enclosure2d.mesh import BACKGROUND, INCLUSION, Mesh, ShapeSpec, build_disk_mesh
from enclosure2d.probes import rot90, cgo_trace, ml_probe_trace, ProbeSpec
from builders import background
from dtn_archive import CORRUPTIONS, MATRICES, entries, rewrite
from oracles import (ReferenceSystem, analytic_two_layer_dtn, boundary_operator,
                     fourier_trace, original_admittivity, prop21_check, stiffness)


@pytest.fixture(scope="module")
def two_layer():
    mesh = build_disk_mesh(1.0, 0.05, ShapeSpec.disk((0.0, 0.0), 0.5))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=0.0, omega=0.0)
    return mesh, field


def _homogeneous(h=0.05):
    mesh = build_disk_mesh(1.0, h, None)
    return mesh, background(mesh)


def dtn_pairing(mesh, field, f_trace, g_trace):
    """<L f, g> for boundary-node traces f and g, from a direct solve."""
    sys_ = ReferenceSystem(mesh, complex_admittivity(field))
    return sys_.pairing(sys_.solve(np.asarray(f_trace, dtype=complex)).u, g_trace)


def energy_gap_direct(mesh, field, f):
    """Re <(L_{sigma,eps} - L_{1,0}) f, conj(f)> for boundary-node values f,
    with both operators applied by direct solves."""
    f = np.asarray(f, dtype=complex)
    v1 = dtn_pairing(mesh, field, f, np.conj(f))
    v0 = dtn_pairing(mesh, background(mesh, field.omega), f, np.conj(f))
    return float(np.real(v1 - v0))


def energy_gap(pair, coef):
    """The same form from an assembled (perturbed, background) pair and the
    (size, 1) expansion coefficients of f."""
    return quadratic_gap(gap_matrix(pair), coef)[0]


def _mode_matrix(thetas, n_modes):
    """(nodes, 2N + 1) values of exp(i n theta), n = -N..N, at the node angles."""
    return np.exp(1j * np.outer(thetas, np.arange(-n_modes, n_modes + 1)))


def _band_limited(matrix, thetas, modes):
    """Q^T B Q, the band limit assemble_dtn_matrix writes: fem._mode_form's
    two factors and their last product."""
    a, pinv = fem._mode_form(matrix, thetas, modes)
    return a @ pinv


def test_p1_reproduces_linear_harmonics():
    mesh, field = _homogeneous(0.1)
    trace = mesh.boundary_points[:, 0].astype(complex)
    res = ReferenceSystem(mesh, complex_admittivity(field)).solve(trace)
    assert np.allclose(res.u, mesh.vertices[:, 0], atol=1e-10)
    assert res.residual < 1e-10


def test_constant_trace_gives_constant_solution():
    mesh, field = _homogeneous(0.1)
    trace = np.ones(len(mesh.boundary_loop), dtype=complex)
    res = ReferenceSystem(mesh, complex_admittivity(field)).solve(trace)
    assert np.allclose(res.u, 1.0, atol=1e-12)


def test_two_layer_radial_profile():
    # separated solution: A r inside, B r + C / r outside, mode n = 1
    mesh = build_disk_mesh(1.0, 0.04, ShapeSpec.disk((0.0, 0.0), 0.5))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=0.0, omega=0.0)  # k = 2
    trace = fourier_trace(mesh, 1)
    res = ReferenceSystem(mesh, complex_admittivity(field)).solve(trace)
    rho, k = 0.5, 2.0
    mu = (1 - k) / (1 + k)
    # normalize B + C = 1 at r = 1 with C = mu rho^2 B
    b_c = 1.0 / (1 + mu * rho ** 2)
    c_c = mu * rho ** 2 * b_c
    a_c = b_c + c_c / rho ** 2
    pts = mesh.vertices
    r = np.hypot(pts[:, 0], pts[:, 1])
    theta = np.arctan2(pts[:, 1], pts[:, 0])
    exact = np.where(r <= rho, a_c * r, b_c * r + np.divide(c_c, np.maximum(r, 1e-12))) \
        * np.exp(1j * theta)
    sel = r > 1e-6
    err = np.abs(res.u[sel] - exact[sel])
    assert err.max() < 0.05 * np.abs(exact[sel]).max()


def test_dtn_pairing_homogeneous_modes():
    mesh, field = _homogeneous()
    f = fourier_trace(mesh, 1)
    same = dtn_pairing(mesh, field, f, f)
    assert abs(same) < 1e-8
    opposite = dtn_pairing(mesh, field, f, fourier_trace(mesh, -1))
    assert opposite == pytest.approx(2 * math.pi, rel=2e-3)


def test_dtn_pairing_two_layer_mode_one(two_layer):
    mesh, field = two_layer
    val = dtn_pairing(mesh, field, fourier_trace(mesh, 1), fourier_trace(mesh, -1))
    assert val == pytest.approx(2 * math.pi * 13 / 11, rel=5e-3)


def test_analytic_two_layer_values():
    assert analytic_two_layer_dtn(0.5, 1.0, 3) == pytest.approx(3.0)
    assert analytic_two_layer_dtn(0.5, 2.0, 0) == 0.0
    assert analytic_two_layer_dtn(0.5, 2.0, 1) == pytest.approx(13 / 11)
    with pytest.raises(ValueError):
        analytic_two_layer_dtn(1.5, 2.0, 1)
    with pytest.raises(ValueError):
        analytic_two_layer_dtn(0.5, -1.0, 1)


def test_assembled_fourier_matrix_structure():
    # the band-limited operator keeps the modes' matrix P^T S^T P, which is
    # diagonal in n + m = 0 with the eigenvalues |n| of the homogeneous disk,
    # and takes no current from a mode past the band
    mesh, field = _homogeneous()
    dtn = assemble_dtn_matrix(mesh, field, 4)
    thetas = dtn.basis.thetas
    p = _mode_matrix(thetas, 4)
    matrix = p.T @ dtn.matrix @ p
    modes = np.arange(-4, 5)
    for j, n in enumerate(modes):
        for k, mm in enumerate(modes):
            val = matrix[j, k] / (2 * math.pi)
            if n + mm == 0:
                assert val.real == pytest.approx(abs(n), abs=5e-3)
            else:
                assert abs(val) < 5e-3
    assert np.linalg.norm(dtn.matrix - dtn.matrix.T) < 1e-8 * np.linalg.norm(dtn.matrix)
    assert np.abs(dtn.matrix @ np.exp(5j * thetas)).max() < 1e-10 * np.abs(dtn.matrix).max()


def test_empty_inclusion_gap_vanishes():
    mesh, field = _homogeneous()
    b1 = assemble_dtn_matrix(mesh, field, 4)
    b0 = assemble_dtn_matrix(mesh, background(mesh), 4)
    gap = gap_matrix((b1, b0))
    assert np.abs(gap.matrix).max() < 1e-10 * np.abs(b1.matrix).max()


def test_extension_independence(two_layer):
    mesh, field = two_layer
    sys_ = ReferenceSystem(mesh, complex_admittivity(field))
    f = fourier_trace(mesh, 2)
    g = fourier_trace(mesh, -2)
    u = sys_.solve(f).u
    zero_ext = sys_.pairing(u, g)
    # harmonic-extension lift of g instead of the zero extension
    v = sys_.solve(g).u
    r = sys_.apply(u)
    harm_ext = complex(np.dot(v, r))
    assert abs(zero_ext - harm_ext) <= 1e-8 * abs(zero_ext)


def test_nonpositive_definite_field_rejected():
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.0, 0.0), 0.5))
    gamma = np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2)).copy().astype(complex)
    gamma[mesh.labels == INCLUSION] = -2.0 * np.eye(2)
    with pytest.raises(SolverError):
        DirichletSystem(mesh, gamma)


def test_energy_gap_signs():
    mesh = build_disk_mesh(1.0, 0.06, ShapeSpec.disk((0.0, 0.0), 0.5))
    f = fourier_trace(mesh, 1) + 0.5 * fourier_trace(mesh, -2)
    pos = AdmittivityField.from_scalars(mesh, a=1.0, b=0.0, omega=0.0)
    assert energy_gap_direct(mesh, pos, f) > -1e-10
    neg = AdmittivityField.from_scalars(mesh, a=-0.5, b=0.0, omega=0.0)
    th = np.array([1.0, 0.0])
    spec = ProbeSpec(kind="cgo", theta=tuple(th), theta_perp=tuple(rot90(th)), t=0.5, tau=[8.0])
    probe = cgo_trace(spec, mesh.boundary_points)[0]
    assert energy_gap_direct(mesh, neg, probe) < 1e-12


def test_energy_gap_from_matrices_matches_fields():
    mesh = build_disk_mesh(1.0, 0.08, ShapeSpec.disk((0.0, 0.0), 0.5))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=0.5, omega=1.0)
    pair = (assemble_dtn_matrix(mesh, field),
            assemble_dtn_matrix(mesh, background(mesh, 1.0)))
    f = fourier_trace(mesh, 1) + 0.3 * fourier_trace(mesh, 3)
    coef = pair[0].basis.expand(f[:, None])
    via_matrices = energy_gap(pair, coef)
    direct = energy_gap_direct(mesh, field, f)
    assert via_matrices == pytest.approx(direct, rel=1e-8)


def test_energy_gap_perp_flip_invariance():
    mesh = build_disk_mesh(1.0, 0.06, ShapeSpec.disk((0.0, 0.0), 0.5))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=0.5, omega=1.0)
    pair = (assemble_dtn_matrix(mesh, field),
            assemble_dtn_matrix(mesh, background(mesh, 1.0)))
    basis = pair[0].basis
    th = np.array([0.6, 0.8])
    pts = basis.points
    for sign in (1.0, -1.0):
        spec = ProbeSpec(kind="cgo", theta=tuple(th), theta_perp=tuple(sign * rot90(th)),
                         t=0.2, tau=[4.0])
        coef = basis.expand(cgo_trace(spec, pts).T)
        val = energy_gap(pair, coef)
        if sign == 1.0:
            ref = val
    assert val == pytest.approx(ref, abs=1e-10 * max(abs(ref), 1.0))


def test_reduction_scaling_of_operators():
    from enclosure2d.admittivity import reduce_background
    mesh = build_disk_mesh(1.0, 0.08, ShapeSpec.disk((0.0, 0.0), 0.5))
    inc = (mesh.labels == INCLUSION).astype(float)[:, None, None]
    eye = np.eye(2)
    s0, e0, w = 1.0, 1.0, 1.0
    alpha, beta = inc * 1.0 * eye, inc * 0.5 * eye
    reduced = reduce_background(mesh, alpha, beta, w, sigma0=s0, epsilon0=e0)
    s_orig = boundary_operator(DirichletSystem(
        mesh, original_admittivity(mesh, alpha, beta, w, s0, e0)))
    b_red = assemble_dtn_matrix(mesh, reduced, 4)
    b_orig = _band_limited(s_orig.T, b_red.basis.thetas, 4)   # as assemble_dtn_matrix forms it
    scale = s0 - 1j * w * e0
    defect = np.linalg.norm(b_orig - scale * b_red.matrix)
    assert defect <= 1e-8 * np.linalg.norm(b_orig)


def test_prop21_identical_fields_all_zero():
    # the three quantities collapse to zero for identical pairs with no
    # imaginary coefficient part; with omega*eps != 0 the bounds stay a
    # symmetric bracket around the zero gap instead
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.0, 0.0), 0.5))
    field = AdmittivityField.from_scalars(mesh, a=0.8, b=0.0, omega=1.0)
    rep = prop21_check(field, field, 1.0, fourier_trace(mesh, 1))
    assert rep.passed
    assert abs(rep.lhs) < 1e-9 and abs(rep.gap) < 1e-9 and abs(rep.rhs) < 1e-9
    lossy = AdmittivityField.from_scalars(mesh, a=0.8, b=0.3, omega=1.0)
    rep2 = prop21_check(lossy, lossy, 1.0, fourier_trace(mesh, 1))
    assert rep2.passed
    assert rep2.lhs <= 0.0 <= rep2.rhs
    assert abs(rep2.gap) < 1e-9
    assert rep2.lhs == pytest.approx(-rep2.rhs, rel=1e-9)


def test_prop21_zero_frequency_scalar_case():
    mesh = build_disk_mesh(1.0, 0.08, ShapeSpec.disk((0.0, 0.0), 0.5))
    f1 = background(mesh)
    f2 = AdmittivityField.from_scalars(mesh, a=1.5, b=0.0, omega=0.0)
    rep = prop21_check(f1, f2, 0.0, fourier_trace(mesh, 1))
    assert rep.passed
    assert rep.lhs <= rep.gap <= rep.rhs
    assert rep.lhs > 0  # (1 - sigma^-1) weight is positive for sigma > 1


def test_prop21_randomized_pairs():
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.0, 0.0), 0.5))
    rng = np.random.default_rng(23)
    inc = (mesh.labels == INCLUSION).astype(float)[:, None, None]

    def sample_field(omega):
        phi = rng.uniform(0, math.pi)
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        sigma = rot @ np.diag(rng.uniform(0.3, 3.0, size=2)) @ rot.T
        q = rng.normal(size=(2, 2)) * 0.4
        return AdmittivityField(mesh=mesh, a=inc * (sigma - np.eye(2)),
                                b=inc * (q + q.T) / 2, omega=omega)

    for _ in range(6):
        fa, fb = sample_field(1.0), sample_field(1.0)
        sa = ReferenceSystem(mesh, complex_admittivity(fa))
        sb = ReferenceSystem(mesh, complex_admittivity(fb))
        for _ in range(3):
            coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
            f = sum(c * fourier_trace(mesh, n) for c, n in zip(coeffs, range(-4, 5)))
            rep = prop21_check(fa, fb, 1.0, f, systems=(sa, sb))
            assert rep.passed, rep


def test_fourier_alias_limit():
    mesh, field = _homogeneous(0.2)
    nb = len(mesh.boundary_loop)
    for modes in (nb // 2, nb // 8 + 1, -1):
        with pytest.raises(ValueError, match="aliasing limit"):
            assemble_dtn_matrix(mesh, field, modes)
    assert assemble_dtn_matrix(mesh, field, nb // 8).modes == nb // 8


def test_dtn_file_roundtrip(tmp_path, two_layer):
    mesh, field = two_layer
    pair = (assemble_dtn_matrix(mesh, field, 3), assemble_dtn_matrix(mesh, background(mesh), 3))
    path = tmp_path / "dtn.npz"
    write_dtn(pair, path, provenance={"config": "abc", "version": "1.0"})
    assert entries(path)["format"] == DTN_FORMAT
    assert entries(path)["provenance"].tolist() == ["config: abc", "version: 1.0"]
    for back, dtn in zip(read_dtn(path), pair, strict=True):
        assert back.modes == 3
        assert back.matrix.shape == (len(mesh.boundary_loop),) * 2
        assert back.omega == dtn.omega
        assert back.basis.radius == 1.0
        assert np.array_equal(back.matrix, dtn.matrix)
        assert np.array_equal(back.basis.thetas, dtn.basis.thetas)


def test_dtn_file_keeps_each_operators_arithmetic(tmp_path):
    # the full operators of a real coefficient are float64; a complex
    # coefficient's is complex128, and so is every band-limited operator
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4))
    path = tmp_path / "dtn.npz"
    for b, modes, dtypes in ((0.0, 0, ("float64", "float64")),
                             (0.5, 0, ("complex128", "float64")),
                             (0.0, 2, ("complex128", "complex128"))):
        field = AdmittivityField.from_scalars(mesh, a=1.0, b=b, omega=1.0)
        write_dtn((assemble_dtn_matrix(mesh, field, modes),
                   assemble_dtn_matrix(mesh, background(mesh, 1.0), modes)), path)
        assert tuple(str(entries(path)[name].dtype) for name in MATRICES) == dtypes
        assert tuple(str(back.matrix.dtype) for back in read_dtn(path)) == dtypes


def test_truncated_dtn_file_rejected(tmp_path, two_layer):
    mesh, field = two_layer
    dtn = assemble_dtn_matrix(mesh, field, 3)
    path = tmp_path / "dtn.npz"
    write_dtn((dtn, dtn), path)
    raw = path.read_bytes()
    for keep in (len(raw) - 1, len(raw) // 2, 10):
        path.write_bytes(raw[:keep])
        with pytest.raises(SolverError, match="corrupt operator file"):
            read_dtn(path)


@pytest.mark.parametrize("damage", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_damaged_dtn_file_rejected(tmp_path, damage):
    # a complex perturbed and a real background matrix, each damaged in turn;
    # 24 nodes: each matrix entry past zipfile's 4 KB read-ahead, so that its
    # array header is parsed before the entry's CRC-32 is checked
    basis = BoundaryBasis(thetas=np.linspace(-math.pi, math.pi, 24, endpoint=False))
    matrix = np.arange(576.0).reshape(24, 24)
    pair = tuple(DtNMatrix(basis=basis, omega=0.5, mesh_h=0.1, matrix=m)
                 for m in (matrix + 1j, matrix))
    path = tmp_path / "dtn.npz"
    for name in MATRICES:
        write_dtn(pair, path)
        damage(path, name)
        with pytest.raises(SolverError, match="corrupt operator file"):
            read_dtn(path)


def test_flipped_bytes_read_back_unchanged_or_are_rejected(tmp_path):
    # a flip in a zip field that the loader does not check leaves every value
    # as written, and any other flip is a SolverError; every ninth byte
    basis = BoundaryBasis(thetas=[0.0, 2.0])
    matrix = np.array([[1.0, -1.0], [-1.0, 1.0]])
    pair = tuple(DtNMatrix(basis=basis, omega=0.5, mesh_h=0.1, matrix=m)
                 for m in (matrix * (1 + 2j), matrix))
    path = tmp_path / "dtn.npz"
    write_dtn(pair, path, provenance={"config": "abc"})
    raw = path.read_bytes()
    rejected = 0
    for i in range(0, len(raw), 9):
        path.write_bytes(raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:])
        try:
            back = read_dtn(path)
        except SolverError as exc:
            assert str(exc).startswith("corrupt operator file")
            rejected += 1
            continue
        for b, dtn in zip(back, pair, strict=True):
            assert np.array_equal(b.matrix, dtn.matrix) and b.matrix.dtype == dtn.matrix.dtype
            assert b.omega == dtn.omega and np.array_equal(b.basis.thetas, basis.thetas)
    assert rejected > len(raw) // 18


def test_dtn_file_above_alias_limit_rejected(tmp_path):
    # assemble_dtn_matrix allows N <= nb // 8; a file may not claim more
    basis = BoundaryBasis(thetas=np.linspace(-math.pi, math.pi, 40, endpoint=False))
    path = tmp_path / "dtn.npz"
    for n in (5, 6):
        dtn = DtNMatrix(basis=basis, omega=0.0, mesh_h=0.1, matrix=np.eye(40, dtype=complex),
                        modes=n)
        write_dtn((dtn, dtn), path)
        if n == 5:
            assert [b.modes for b in read_dtn(path)] == [5, 5]
    with pytest.raises(SolverError, match="corrupt operator file: band limit N = 6 is "
                                          "negative or exceeds the aliasing limit 5"):
        read_dtn(path)


def test_dtn_file_with_non_finite_or_inconsistent_fields_rejected(tmp_path):
    thetas = np.linspace(-math.pi, math.pi, 8, endpoint=False)
    basis = BoundaryBasis(thetas=thetas)
    path = tmp_path / "dtn.npz"
    pair = tuple(DtNMatrix(basis=basis, omega=0.5, mesh_h=0.1, matrix=m, modes=1)
                 for m in (np.eye(8, dtype=complex), np.eye(8)))
    write_dtn(pair, path)
    good = entries(path)
    assert [b.basis.size for b in read_dtn(path)] == [8, 8]
    angle = good["thetas"].copy()
    angle[0] = np.inf
    corrupt = {"angle": {"thetas": angle},
               "node count": {"n_nodes": np.int64(5)},
               "no nodes": {"modes": np.int64(0), "n_nodes": np.int64(0),
                            "thetas": np.zeros(0), "perturbed": np.zeros((0, 0), complex),
                            "background": np.zeros((0, 0))},
               "negative modes": {"modes": np.int64(-1)},
               "float modes": {"modes": np.float64(1.0)}}
    for name, bad in zip(MATRICES, (complex(0.0, np.nan), np.inf)):
        entry = good[name].copy()
        entry[0, 0] = bad
        corrupt[f"{name} entry"] = {name: entry}
    for name in ("omega", "h", "radius"):
        corrupt[name] = {name: np.float64(np.nan)}
    for name, changes in corrupt.items():
        rewrite(path, **(good | changes))
        with pytest.raises(SolverError, match="corrupt operator file"):
            read_dtn(path)


def _band_limit_cases():
    """(node angles, band limit) on a mesh's boundary and on non-uniform angles."""
    mesh, _ = _homogeneous(0.1)
    rng = np.random.default_rng(5)
    nb = 80
    jittered = np.sort(rng.uniform(-math.pi, math.pi, nb)
                       + rng.uniform(-0.02, 0.02, nb))       # non-uniform angles
    return {"mesh": (nodal_basis_for_mesh(mesh).thetas, 7), "jittered": (jittered, nb // 8)}


@pytest.mark.parametrize("which", ["mesh", "jittered"])
def test_fourier_expand_matches_lstsq(which):
    # the band limit of the identity is Q^T Q = Q, the least-squares
    # projection P lstsq(P, f) of a trace onto the modes
    thetas, n = _band_limit_cases()[which]
    p = _mode_matrix(thetas, n)
    q = _band_limited(np.eye(len(thetas)), thetas, n)
    rng = np.random.default_rng(11)
    size = 2 * n + 1
    outside = np.exp(1j * (n + 1) * thetas)               # first mode outside the span
    traces = [p @ (rng.normal(size=size) + 1j * rng.normal(size=size)),
              np.exp(3.0 * np.cos(thetas - 0.4)) * np.exp(3j * np.sin(thetas - 0.4)),
              rng.normal(size=len(thetas)) + 1j * rng.normal(size=len(thetas)),
              outside]
    for v in traces:
        ref, *_ = np.linalg.lstsq(p, v, rcond=None)
        assert np.linalg.norm(q @ v - p @ ref) <= 1e-13 * np.linalg.norm(v)
    assert np.linalg.norm(q @ traces[0] - traces[0]) <= 1e-13 * np.linalg.norm(traces[0])
    assert np.linalg.norm(q @ outside - outside) > 0.5 * np.linalg.norm(outside)


def test_basis_keeps_a_read_only_copy_of_thetas():
    thetas = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, -3.0, -2.0, -1.0]
    basis = BoundaryBasis(thetas=thetas)
    assert isinstance(basis.thetas, np.ndarray) and basis.thetas.dtype == float
    assert not basis.thetas.flags.writeable
    coef = basis.expand(np.cos(np.array(thetas)))
    thetas[0] = 0.5                                     # the caller's list is not the basis's
    with pytest.raises(ValueError):
        basis.thetas[0] = 0.5
    assert basis.thetas[0] == 0.0
    assert np.array_equal(basis.expand(np.cos(basis.thetas)), coef)


def _small_mesh():
    """The three inner rings of a coarse mesh, 54 triangles: a dissection of
    depth 0, one front that eliminates every interior vertex."""
    mesh = build_disk_mesh(1.0, 0.2, None)
    keep = np.all(mesh.triangles < 37, axis=1)
    inside = np.hypot(*mesh.centroids()[keep].T) < 0.3
    return Mesh(vertices=mesh.vertices[:37], triangles=mesh.triangles[keep],
                labels=np.where(inside, INCLUSION, BACKGROUND), boundary_loop=np.arange(19, 37),
                h=0.2, domain_radius=0.6)


def _corrupt_fronts(monkeypatch, x_error):
    """Scale the X of every front by 1 + ``x_error`` inside the condensation,
    before the front's update and condensed load are formed from it."""
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + x_error))


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_bad_fronts_raise_from_assembly(two_layer, b, monkeypatch):
    # every X off by 1e-3 inside the pass, in either arithmetic: S leaks
    mesh, _ = two_layer
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=b, omega=1.0)
    assert assemble_dtn_matrix(mesh, field).matrix.dtype.kind == ("c" if b else "f")
    _corrupt_fronts(monkeypatch, 1e-3)
    with pytest.raises(SolverError, match="leaks current"):
        assemble_dtn_matrix(mesh, field)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_a_singular_front_raises(b):
    # a coefficient zeroed after the system has checked it gives zero
    # element matrices, which leave every leaf's front singular
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=b, omega=1.0)
    sys_ = DirichletSystem(mesh, complex_admittivity(field))
    sys_.gamma[:] = 0.0
    with pytest.raises(SolverError, match="singular front"):
        boundary_operator(sys_)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_solve_matches_dense_solve(b):
    # the reference solve: u_b = f exactly, and u_i = -K_ii^-1 K_ib f as a
    # dense solve gives it
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=b, omega=1.0)
    sys_ = ReferenceSystem(mesh, complex_admittivity(field))
    k = sys_.k.toarray()
    i, bd = sys_.interior, sys_.boundary
    rng = np.random.default_rng(8)
    f = rng.normal(size=len(bd)) + 1j * rng.normal(size=len(bd))
    u = sys_.solve(f).u
    assert np.array_equal(u[bd], f)
    ref = -np.linalg.solve(k[np.ix_(i, i)], k[np.ix_(i, bd)] @ f)
    assert np.abs(u[i] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("check", ["leaks current", "symmetry defect", "checksum",
                                   "exactly once"])
def test_operator_self_checks_reject_a_corrupted_factor(check, monkeypatch):
    # each corruption keeps what the earlier checks test, so only the named
    # check can raise
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4))
    gamma = complex_admittivity(AdmittivityField.from_scalars(mesh, a=1.0, b=0.5, omega=1.0))
    if check == "symmetry defect":                   # an antisymmetric part, which K inherits
        gamma = gamma + np.array([[0.0, 0.1j], [-0.1j, 0.0]])
    if check == "exactly once":
        # an interior vertex never eliminated, a boundary vertex eliminated,
        # and an interior vertex eliminated twice
        fronts = mesh.dissection
        leaf, root = fronts[0], fronts[-1]
        for eliminated in (leaf.eliminated[:-1],
                           np.append(leaf.eliminated, root.kept[0]),
                           np.append(leaf.eliminated, root.eliminated[0])):
            vars(mesh)["dissection"] = (replace(leaf, eliminated=eliminated),) + fronts[1:]
            with pytest.raises(SolverError, match=check):
                DirichletSystem(mesh, gamma)
        return
    if check == "leaks current":
        _corrupt_fronts(monkeypatch, 2e-7)
    if check == "checksum":
        # two of a child's extend-add positions swapped, in its update and its
        # load alike: S stays symmetric with S 1 = 0, but is not K's
        fronts = mesh.dissection
        root = fronts[-1]
        (c, pos), *others = root.children
        pos = pos.copy()
        pos[[0, 1]] = pos[[1, 0]]
        vars(mesh)["dissection"] = fronts[:-1] + (replace(root, children=((c, pos), *others)),)
    with pytest.raises(SolverError, match=check):
        boundary_operator(DirichletSystem(mesh, gamma))


@pytest.mark.parametrize("b, bound", [(0.0, 1.3), (0.5, 0.95)], ids=["0.0", "0.5"])
def test_operator_keeps_no_x(b, bound, monkeypatch):
    # S and its checksum come from one pass that drops each X once used:
    # every earlier front's X is gone when a front solves, and so is the
    # last once S is formed; S, read-only, has the bits of the one-shot pass
    # that keeps every X; and the traced peak is below that pass's by
    # ``bound`` times the X's bytes.  Measured 1.80 (real) and 1.41
    # (complex); 0.88 and 0.50 when the pass keeps every X as well
    mesh = build_disk_mesh(1.0, 0.05, ShapeSpec.disk((0.2, 0.0), 0.4))
    gamma = complex_admittivity(AdmittivityField.from_scalars(mesh, a=1.0, b=b, omega=1.0))

    def peak(read):
        tracemalloc.start()
        try:
            return read(DirichletSystem(mesh, gamma)), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (xs, ref_s), keeping = peak(lambda sys_: _one_shot_condense(
        fem._leaf_elements(mesh, sys_.gamma), mesh.dissection))
    s, single = peak(boundary_operator)
    assert np.array_equal(s, ref_s)
    assert not s.flags.writeable
    assert single <= keeping - bound * sum(x.nbytes for x in xs)

    solve, refs, alive = np.linalg.solve, [], []

    def tracked(a, b):
        alive.append(sum(r() is not None for r in refs))
        x = solve(a, b)
        refs.append(weakref.ref(x))
        return x

    monkeypatch.setattr(np.linalg, "solve", tracked)
    boundary_operator(DirichletSystem(mesh, gamma))
    assert alive == [0] * len(mesh.dissection)
    assert all(r() is None for r in refs)


@pytest.mark.parametrize("b, bound", [(0.0, 3.5), (0.5, 2.6)])
def test_system_construction_makes_no_second_element_array(b, bound):
    # the system keeps the coefficient and forms no element matrices: its
    # construction makes no (nt, 3, 3) array at all.  Measured 0.45 (real)
    # and 0.22 (complex) times the elements' bytes; 3.02 and 2.18 when it
    # formed them, and 4.02 and 3.18 with a second array
    mesh = build_disk_mesh(1.0, 0.05, ShapeSpec.disk((0.2, 0.0), 0.4))
    mesh.dissection
    gamma = complex_admittivity(AdmittivityField.from_scalars(mesh, a=1.0, b=b, omega=1.0))
    elements = fem._element_matrices(mesh, gamma if b else gamma.real)
    tracemalloc.start()
    try:
        DirichletSystem(mesh, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * elements.nbytes
    assert peak < elements.nbytes


def test_symmetry_defect_is_the_relative_antisymmetric_norm():
    # |K_e - K_e^T| / |K_e| over all elements, as the message reports it
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4))
    gamma = complex_admittivity(AdmittivityField.from_scalars(mesh, a=1.0, b=0.5, omega=1.0))
    gamma = gamma + np.array([[0.0, 0.1j], [-0.1j, 0.0]])
    k = fem._element_matrices(mesh, gamma)
    defect = np.linalg.norm(k - k.transpose(0, 2, 1)) / np.linalg.norm(k)
    with pytest.raises(SolverError, match=f"symmetry defect {defect:.3g}$"):
        boundary_operator(DirichletSystem(mesh, gamma))


def _one_shot_condense(leaves, fronts, x=None, out=None):
    """``fem._condense`` with each front assembled whole, each child's update
    extend-added through one np.ix_ gather of it, and each update also held
    as ``u`` until the next front's product is made: the reference for the
    blocked pass.  It forms nothing in ``out``.  Without x it carries no
    load and gives the X of every front, in the fronts' order, in place of
    the condensed load."""
    assert out is None
    updates, loads, xs = [None] * len(fronts), [None] * len(fronts), []
    for k, front in enumerate(fronts):
        ne = len(front.eliminated)
        m = ne + len(front.kept)
        if front.children:
            f = np.zeros((m, m), dtype=updates[front.children[0][0]].dtype)
            l = np.zeros(m, dtype=f.dtype)
            for c, pos in front.children:
                f[np.ix_(pos, pos)] += updates[c]
                updates[c] = None
                if x is not None:
                    l[pos] += loads[c]
                    loads[c] = None
        else:
            loc = front.local
            f = fem._bincount((loc[:, :, None] * m + loc[:, None, :]).ravel(),
                              next(leaves).ravel(), m * m).reshape(m, m)
            if x is not None:
                l = f @ x[np.concatenate([front.eliminated, front.kept])]
        xf = np.linalg.solve(f[:ne, :ne], f[:ne, ne:])
        u = f[ne:, :ne] @ xf
        np.subtract(f[ne:, ne:], u, out=u)
        del f
        u += u.T
        u *= 0.5
        updates[k] = u
        if x is None:
            xs.append(xf)
        else:
            loads[k] = l[ne:] - xf.T @ l[:ne]
        del xf
    return (xs if x is None else loads[-1]), updates[-1]


def _whole_array_leaves(mesh, gamma):
    """The leaves' element matrices as rows of one (nt, 3, 3) array."""
    k = fem._element_matrices(mesh, gamma)
    return (k[f.triangles] for f in mesh.dissection if not f.children)


@pytest.mark.parametrize("budget", [None, 4096, 1])
@pytest.mark.parametrize("b", [0.0, 0.5])
def test_blocked_extend_add_adds_what_one_gather_adds(b, budget, monkeypatch):
    # row blocks of any byte budget, down to one row each, add the same
    # numbers into an inner front's three blocks as one gather of each
    # child's update adds into the whole front, and F_ke^T X is F_ek X:
    # S and the condensed load keep their bits
    if budget is not None:
        monkeypatch.setattr(fem, "_EXTEND_ADD_BYTES", budget)
    mesh = build_disk_mesh(1.0, 0.05, ShapeSpec.disk((0.2, 0.0), 0.4))
    gamma = complex_admittivity(AdmittivityField.from_scalars(mesh, a=1.0, b=b, omega=1.0))
    sys_ = DirichletSystem(mesh, gamma)
    fronts = mesh.dissection
    x = np.random.default_rng(3).standard_normal(mesh.n_vertices)
    condensed, s = fem._condense(fem._leaf_elements(mesh, sys_.gamma), fronts, x)
    ref_condensed, ref_s = _one_shot_condense(fem._leaf_elements(mesh, sys_.gamma), fronts, x)
    assert s.dtype.kind == ("c" if b else "f")
    assert s.tobytes() == ref_s.tobytes() and condensed.tobytes() == ref_condensed.tobytes()


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_leaf_element_matrices_keep_the_bits_of_one_element_array(b):
    # each leaf's element matrices, formed as the pass assembles the leaf,
    # are the rows of the whole (nt, 3, 3) array bit for bit, so S is the
    # one-shot reference's over the whole array
    mesh = build_disk_mesh(1.0, 0.05, ShapeSpec.disk((0.2, 0.0), 0.4))
    gamma = complex_admittivity(AdmittivityField.from_scalars(mesh, a=1.0, b=b, omega=1.0))
    sys_ = DirichletSystem(mesh, gamma)
    pairs = list(zip(fem._leaf_elements(mesh, sys_.gamma), _whole_array_leaves(mesh, sys_.gamma),
                     strict=True))
    assert len(pairs) == sum(not f.children for f in mesh.dissection)
    assert all(k.tobytes() == ref.tobytes() for k, ref in pairs)
    _, ref_s = _one_shot_condense(_whole_array_leaves(mesh, sys_.gamma), mesh.dissection)
    assert boundary_operator(sys_).tobytes() == ref_s.tobytes()


@pytest.mark.parametrize("at_once", [1, 3])
def test_leaves_let_go_of_the_coefficient_once_the_last_is_formed(at_once, monkeypatch):
    # the leaves' element matrices, formed a few leaves at a time, hold the
    # coefficient until the last are formed, and no longer
    monkeypatch.setattr(fem, "_LEAVES_AT_ONCE", at_once)
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4))
    gamma = complex_admittivity(AdmittivityField.from_scalars(mesh, a=1.0, b=0.5, omega=1.0))
    held = weakref.ref(gamma)
    leaves = fem._leaf_elements(mesh, gamma)
    del gamma
    n = sum(not f.children for f in mesh.dissection)
    last = (n - 1) // at_once * at_once             # the first leaf of the last batch
    assert 0 < last < n - 1 or at_once == 1
    for i in range(n):
        next(leaves)
        assert (held() is None) == (i >= last)
    assert next(leaves, None) is None


def test_dtn_matrix_holds_no_element_array():
    # the operator path forms each leaf's element matrices as it assembles
    # the leaf: its traced peak stays below 3.4 times the bytes of the
    # (nt, 3, 3) array (measured 2.73), which a pass that holds that array
    # exceeds (4.05)
    mesh = build_disk_mesh(1.0, 0.05, ShapeSpec.disk((0.2, 0.0), 0.4))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=0.5, omega=1.0)
    assemble_dtn_matrix(mesh, field)              # the dissection, and any lazy import
    elements = fem._element_matrices(mesh, complex_admittivity(field))
    tracemalloc.start()
    try:
        assemble_dtn_matrix(mesh, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.4 * elements.nbytes


@pytest.mark.parametrize("shape, b, modes", [("disk", 0.0, 0), ("disk", 0.5, 0), ("disk", 0.0, 4),
                                             ("disk", 0.5, 4), ("depth 0", 0.5, 0)])
def test_operator_written_into_a_buffer_keeps_its_bits(shape, b, modes):
    # B written into the first bytes of a buffer, whatever it held, in its
    # own dtype: the bits of B in new memory; the root's update is formed in
    # the buffer, except at a root that is a leaf
    mesh = (build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4)) if shape == "disk"
            else _small_mesh())
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=b, omega=1.0)
    ref = assemble_dtn_matrix(mesh, field, modes).matrix
    n = len(mesh.boundary_loop)
    buf = bytearray(b"\xff" * (n * n * 16))
    dtn = assemble_dtn_matrix(mesh, field, modes, out=buf)
    assert dtn.matrix.dtype == ref.dtype and dtn.matrix.tobytes() == ref.tobytes()
    assert np.shares_memory(dtn.matrix, np.frombuffer(buf, np.uint8))


def test_operator_peak_drops_the_gather_of_a_root_child(monkeypatch):
    # the root's children are extend-added in row blocks, and each front's
    # update is dropped before the next front's product is made: the
    # operator's traced peak above the element matrices falls below that of
    # one-shot gathers by at least half the root's largest child update
    # (measured 6.12 -> 5.34 MB, against an update of 1.04 MB)
    mesh = build_disk_mesh(1.0, 0.02, ShapeSpec.disk((0.2, 0.0), 0.4))
    gamma = complex_admittivity(AdmittivityField.from_scalars(mesh, a=1.0, b=0.5, omega=1.0))
    boundary_operator(DirichletSystem(mesh, gamma))     # the dissection, and any lazy import

    def operator_peak():
        sys_ = DirichletSystem(mesh, gamma)
        tracemalloc.start()
        try:
            return boundary_operator(sys_), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    s, blocked = operator_peak()
    monkeypatch.setattr(fem, "_condense", _one_shot_condense)
    ref_s, one_shot = operator_peak()
    assert s.tobytes() == ref_s.tobytes()
    update = max(len(pos) for _, pos in mesh.dissection[-1].children) ** 2 * s.itemsize
    assert blocked <= one_shot - 0.5 * update


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_checksum_roundoff_at_contrast_1e6(b):
    # the checksum's mismatch at the contrast where roundoff is worst, two
    # decades inside the operator's 1e-8 bound (measured 1.7e-11 and 8.2e-11);
    # carrying the load leaves S as the one-shot pass without it gives it
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4))
    gamma = complex_admittivity(AdmittivityField.from_scalars(mesh, a=1e6, b=b, omega=1.0))
    sys_ = DirichletSystem(mesh, gamma)
    x = np.random.default_rng(0).standard_normal(mesh.n_vertices)
    load, s = fem._condense(fem._leaf_elements(mesh, sys_.gamma), mesh.dissection, x)
    assert np.array_equal(s, boundary_operator(sys_))
    assert np.array_equal(s, _one_shot_condense(fem._leaf_elements(mesh, sys_.gamma),
                                                mesh.dissection)[1])
    sx = s @ x[sys_.boundary]
    assert np.linalg.norm(load - sx) <= 1e-9 * np.linalg.norm(sx)


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_factor_stops_at_the_interior_rows(b, monkeypatch):
    # the condensation eliminates every interior vertex once and no boundary
    # vertex: the root keeps the boundary loop, and each front's X, as the
    # pass forms it, is (eliminated x kept), in the coefficient's arithmetic
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4))
    gamma = complex_admittivity(AdmittivityField.from_scalars(mesh, a=1.0, b=b, omega=1.0))
    sys_ = DirichletSystem(mesh, gamma)
    fronts = mesh.dissection
    eliminated = np.concatenate([f.eliminated for f in fronts])
    assert np.array_equal(np.sort(eliminated), sys_.interior)
    assert not np.isin(eliminated, sys_.boundary).any()
    assert np.array_equal(fronts[-1].kept, sys_.boundary)
    solve, xs = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: xs.append(solve(a, b)) or xs[-1])
    s = boundary_operator(sys_)
    assert [x.shape for x in xs] == [(len(f.eliminated), len(f.kept)) for f in fronts]
    assert {x.dtype.kind for x in xs} == {s.dtype.kind} == {"c" if b else "f"}


_SCHUR_CASES = {"0.0-nodal": ("disk", 1.0, 0.0, 0), "0.0-fourier": ("disk", 1.0, 0.0, 4),
                "0.5-nodal": ("disk", 1.0, 0.5, 0), "0.5-fourier": ("disk", 1.0, 0.5, 4),
                "contrast-1e6-0.0-nodal": ("disk", 1e6, 0.0, 0),
                "contrast-1e6-0.5-nodal": ("disk", 1e6, 0.5, 0),
                "no-inclusion-nodal": ("none", 1.0, 0.5, 0),
                "depth-0-0.0-nodal": ("depth 0", 1.0, 0.0, 0),
                "depth-0-0.5-nodal": ("depth 0", 1.0, 0.5, 0)}


@pytest.mark.parametrize("shape, a, b, modes", _SCHUR_CASES.values(), ids=_SCHUR_CASES.keys())
def test_operator_matches_dense_schur_complement(shape, a, b, modes):
    # real coefficient: real fronts; complex coefficient: complex fronts
    mesh = {"disk": lambda: build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4)),
            "none": lambda: build_disk_mesh(1.0, 0.1, None), "depth 0": _small_mesh}[shape]()
    assert (len(mesh.dissection) == 1) == (shape == "depth 0")
    field = AdmittivityField.from_scalars(mesh, a=a, b=b, omega=1.0)
    sys_ = DirichletSystem(mesh, complex_admittivity(field))
    s = boundary_operator(sys_)
    assert (s.dtype.kind == "c") == (b != 0.0 and shape != "none")
    # each update matrix is symmetrized, the root's too: S is exactly symmetric
    assert np.array_equal(s, s.T)
    dtn = assemble_dtn_matrix(mesh, field, modes)
    k = stiffness(mesh, sys_.gamma).toarray()
    i, bd = sys_.interior, sys_.boundary
    schur = k[np.ix_(bd, bd)] - k[np.ix_(bd, i)] @ np.linalg.solve(k[np.ix_(i, i)],
                                                                  k[np.ix_(i, bd)])
    # the band limit as defined, Q^T S^T Q with Q = P P+ (the identity when full)
    p = _mode_matrix(dtn.basis.thetas, modes)
    q = p @ np.linalg.pinv(p) if modes else np.eye(len(bd))
    ref = q.T @ schur.T @ q
    # the condensation and the dense solve each err by about eps times the
    # condition of K_ii, which grows with the contrast
    tol = 1e-11 if a > 1.0 else 1e-12
    assert np.abs(dtn.matrix - ref).max() <= tol * np.abs(ref).max()


def test_dtn_archive_has_the_bytes_of_np_savez(tmp_path):
    # written from each array's own memory, the archive keeps the bytes that
    # np.savez gives the same entries
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.2, 0.0), 0.4))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=0.5, omega=1.0)
    for provenance in (None, {"config": "a.cfg", "note": "ünïcode"}):
        pair = (assemble_dtn_matrix(mesh, field, 3), assemble_dtn_matrix(mesh, background(mesh), 3))
        write_dtn(pair, tmp_path / "dtn.npz", provenance)
        lines = np.array([f"{k}: {v}" for k, v in (provenance or {}).items()], dtype=str)
        ref = io.BytesIO()
        np.savez(ref, format=DTN_FORMAT, provenance=lines, modes=np.int64(3),
                 n_nodes=np.int64(pair[0].basis.size), omega=np.float64(1.0),
                 h=np.float64(mesh.h), radius=np.float64(mesh.domain_radius),
                 thetas=pair[0].basis.thetas, perturbed=pair[0].matrix,
                 background=pair[1].matrix)
        assert (tmp_path / "dtn.npz").read_bytes() == ref.getvalue()


def test_dtn_file_roundtrip_is_bit_exact(tmp_path):
    # reading a written file back restores every bit, signed zeros and
    # subnormals included
    vals = np.array([-0.0, 5e-324, 1e308, -1e308, 0.1, -1.0 / 3.0, 2.5, -7e-300,
                     123456789.123456789, -0.0, 1.0, -5e-324, 1e-5, -2.0 ** 0.5, 3.0, 0.0,
                     6.02e23, -1.602e-19, 0.5, -0.25])
    rng = np.random.default_rng(3)
    m = np.concatenate([vals, rng.normal(size=12) * 10.0 ** rng.integers(-20, 20, 12)])
    matrix = np.empty((4, 4), dtype=complex)
    matrix.real, matrix.imag = m[:16].reshape(4, 4), m[16:].reshape(4, 4)
    basis = BoundaryBasis(thetas=np.array([-0.0, 1.0 / 3.0, -3.0, 5e-324]))
    real = m[:16].reshape(4, 4)
    pair = tuple(DtNMatrix(basis=basis, omega=0.25, matrix=a, mesh_h=0.1)
                 for a in (matrix, real))
    path = tmp_path / "dtn.npz"
    write_dtn(pair, path)
    for back, a in zip(read_dtn(path), (matrix, real), strict=True):
        assert np.array_equal(back.matrix.view(np.uint64), a.view(np.uint64))
        assert np.array_equal(back.basis.thetas.view(np.uint64), basis.thetas.view(np.uint64))


@pytest.mark.parametrize("kind", ["cgo", "mittag_leffler"])
def test_probe_discrete_harmonicity_first_order(kind):
    # interpolated probe values leave a stiffness residual whose discrete dual
    # norm, relative to the probe energy, decays at first order in h
    th = np.array([1.0, 0.0])
    if kind == "cgo":
        spec = ProbeSpec(kind="cgo", theta=(1.0, 0.0), theta_perp=tuple(rot90(th)),
                         t=0.0, tau=[2.0])
    else:
        spec = ProbeSpec(kind="mittag_leffler", theta=(1.0, 0.0),
                         theta_perp=tuple(rot90(th)), t=-0.5, tau=[2.0],
                         y=(3.0, 0.0), alpha=0.5)
    rels = []
    for h in (0.1, 0.05):
        mesh = build_disk_mesh(1.0, h, None)
        sys_ = ReferenceSystem(mesh, np.broadcast_to(
            np.eye(2, dtype=complex), (mesh.n_triangles, 2, 2)).copy())
        v = (cgo_trace if kind == "cgo" else ml_probe_trace)(spec, mesh.vertices)[0]
        r = sys_.apply(v)
        r_i = r[sys_.interior]
        k_ii = sys_.k[sys_.interior][:, sys_.interior].tocsc()
        dual = math.sqrt(abs(np.vdot(r_i, spla.spsolve(k_ii, r_i)).real))
        energy = math.sqrt(abs(np.vdot(v, r).real))
        rels.append(dual / energy)
    assert rels[0] / rels[1] > 1.7


def test_conjugate_coefficients_fourier():
    # the mode coefficients of conj(f) are the mode-reversed conjugates of
    # those of f, conj(P+) = J P+, so the band-limited operator's nodal form
    # on f equals the form of the modes' matrix on c = P+ f and J conj(c)
    mesh, _ = _homogeneous(0.15)
    thetas = nodal_basis_for_mesh(mesh).thetas
    nb = len(thetas)
    p = _mode_matrix(thetas, 2)
    pinv = np.linalg.pinv(p)
    assert np.abs(np.conj(pinv) - pinv[::-1]).max() <= 1e-15
    rng = np.random.default_rng(0)
    a = rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb))
    b = a + a.T                                           # complex symmetric
    f = rng.normal(size=nb) + 1j * rng.normal(size=nb)
    c = pinv @ f
    modal = c @ (p.T @ b @ p) @ np.conj(c[::-1])
    nodal = f @ _band_limited(b, thetas, 2) @ np.conj(f)
    assert abs(nodal - modal) <= 1e-12 * abs(modal)


@pytest.mark.parametrize("kind", ["nodal", "fourier"])
def test_quadratic_gap_real_gap_and_coefficient_columns(two_layer, kind):
    # a real full pair gives a real gap, whose stacked real product agrees
    # with the complex one (band-limited operators are complex, through the
    # complex mode projector); (size, k) coefficients give one value per
    # column, each within roundoff of its own (size, 1) block's
    mesh, field = two_layer
    modes = 8 if kind == "fourier" else 0
    pair = (assemble_dtn_matrix(mesh, field, modes),
            assemble_dtn_matrix(mesh, background(mesh), modes))
    gap = gap_matrix(pair)
    assert np.iscomplexobj(gap.matrix) == (kind == "fourier")
    g = gap.matrix.astype(complex)
    size = gap.basis.size
    rng = np.random.default_rng(4)
    coef = rng.normal(size=(size, 5)) + 1j * rng.normal(size=(size, 5))
    cols = quadratic_gap(gap, coef)
    assert cols.shape == (5,)
    for j in range(5):
        one = quadratic_gap(gap, coef[:, j:j + 1])[0]
        ref = float(np.real(np.dot(coef[:, j], g @ np.conj(coef[:, j]))))
        scale = np.abs(coef[:, j]) @ np.abs(g) @ np.abs(coef[:, j])
        assert abs(one - ref) <= 1e-13 * scale
        assert abs(cols[j] - one) <= 1e-13 * scale


def test_expand_columns_match_single_traces():
    # a ladder's traces arrive as the columns of a transposed (tau, nodes)
    # array; their coefficients are the node values, complex and C-ordered
    mesh, _ = _homogeneous(0.1)
    basis = nodal_basis_for_mesh(mesh)
    traces = np.stack([np.exp(1j * basis.thetas), np.cos(3 * basis.thetas) ** 3])
    coef = basis.expand(traces.T)
    assert coef.shape == (basis.size, 2) and coef.dtype == complex
    assert coef.flags.c_contiguous
    np.testing.assert_array_equal(coef, traces.T)
    for j in range(2):
        np.testing.assert_array_equal(basis.expand(traces[j]), coef[:, j])
