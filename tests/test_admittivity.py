import math

import numpy as np
import pytest

from enclosure2d.admittivity import (AdmittivityField, FieldError, complex_admittivity,
                                     reduce_background, sym_eig_bounds)
from enclosure2d.mesh import INCLUSION, ShapeSpec, build_disk_mesh
from builders import random_invertible
from oracles import jump_analysis, original_admittivity


@pytest.fixture(scope="module")
def mesh():
    return build_disk_mesh(1.0, 0.08, ShapeSpec.disk((0.0, 0.0), 0.5))


def _scalar_jumps(mesh, alpha, beta):
    """The jumps alpha*I and beta*I on the inclusion, zero elsewhere."""
    inc = (mesh.labels == INCLUSION).astype(float)[:, None, None]
    eye = np.eye(2)
    return inc * alpha * eye, inc * beta * eye


def test_identity_background_passthrough(mesh):
    alpha, beta = _scalar_jumps(mesh, 0.7, 0.3)
    # sigma0 = 1, epsilon0 = 0: the reduced jumps equal the original ones
    field = reduce_background(mesh, alpha, beta, 0.0, sigma0=1.0, epsilon0=0.0)
    inc = mesh.labels == INCLUSION
    assert (field.a[inc] == 0.7 * np.eye(2)).all()
    assert np.array_equal(field.a, alpha) and np.array_equal(field.b, beta)


def test_zero_sigma0_jump_proportional_to_permittivity(mesh):
    # with sigma0 = 0 the reduced conductivity jump is (eps - eps0) / eps0
    field = reduce_background(mesh, *_scalar_jumps(mesh, 0.0, 0.8), 1.0, sigma0=0.0,
                              epsilon0=2.0)
    inc = mesh.labels == INCLUSION
    assert np.allclose(field.a[inc], (0.8 / 2.0) * np.eye(2), atol=1e-12)


def test_scalar_reduction_example(mesh):
    # sigma0 = eps0 = omega = 1, sigma = 3, eps = 2 on the inclusion
    field = reduce_background(mesh, *_scalar_jumps(mesh, 2.0, 1.0), 1.0, sigma0=1.0,
                              epsilon0=1.0)
    inc = mesh.labels == INCLUSION
    sigma_t = np.eye(2) + field.a[inc][0]
    eps_t = field.b[inc][0]
    assert sigma_t[0, 0] == pytest.approx(2.5)
    assert eps_t[0, 0] == pytest.approx(-0.5)
    # factorization (sigma0 - i w eps0)(sigma~ - i w eps~) = sigma - i w eps
    lhs = (1 - 1j) * (sigma_t - 1j * eps_t)
    assert np.allclose(lhs, 3 * np.eye(2) - 2j * np.eye(2), atol=1e-14)


def test_factorization_holds_elementwise(mesh):
    rng = np.random.default_rng(7)
    inc = (mesh.labels == INCLUSION).astype(float)[:, None, None]
    q = rng.normal(size=(2, 2))
    alpha = inc * (q + q.T)
    q2 = rng.normal(size=(2, 2)) * 0.5
    beta = inc * (q2 + q2.T)
    s0, e0, w = 1.3, 0.8, 1.7
    field = reduce_background(mesh, alpha, beta, w, sigma0=s0, epsilon0=e0)
    gamma_orig = original_admittivity(mesh, alpha, beta, w, s0, e0)
    gamma_red = complex_admittivity(field)
    scale = s0 - 1j * w * e0
    assert np.allclose(gamma_orig, scale * gamma_red, atol=1e-12)


def test_reduction_roundtrip(mesh):
    s0, e0, w = 1.4, 0.9, 2.0
    jumps = _scalar_jumps(mesh, 0.6, -0.2)
    field = reduce_background(mesh, *jumps, w, sigma0=s0, epsilon0=e0)
    # the inverse of the reduction map recovers (alpha, beta) from (a, b)
    alpha = s0 * field.a - w ** 2 * e0 * field.b
    beta = e0 * field.a + s0 * field.b
    assert np.allclose(alpha, jumps[0], atol=1e-12)
    assert np.allclose(beta, jumps[1], atol=1e-12)


def test_degenerate_background_rejected(mesh):
    jumps = _scalar_jumps(mesh, 0.5, 0.5)
    with pytest.raises(FieldError, match="sigma0 must be nonnegative"):
        reduce_background(mesh, *jumps, 0.0, sigma0=-0.1, epsilon0=1.0)
    with pytest.raises(FieldError, match="epsilon0 must be nonnegative"):
        reduce_background(mesh, *jumps, 1.0, sigma0=1.0, epsilon0=-0.1)
    with pytest.raises(FieldError):
        reduce_background(mesh, *jumps, 0.0, sigma0=0.0, epsilon0=1.0)


def test_complex_admittivity_values(mesh):
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=1.0, omega=2.0)
    gamma = complex_admittivity(field)
    inc = mesh.labels == INCLUSION
    assert np.allclose(gamma[~inc], np.eye(2))
    assert np.allclose(gamma[inc], 2 * np.eye(2) - 2j * np.eye(2))
    field0 = AdmittivityField.from_scalars(mesh, a=1.0, b=1.0, omega=0.0)
    assert np.allclose(complex_admittivity(field0).imag, 0.0)


def test_field_requires_positive_definite_sigma(mesh):
    with pytest.raises(FieldError):
        AdmittivityField.from_scalars(mesh, a=-1.0, b=0.0, omega=0.0)


def test_jump_analysis_positive_constant(mesh):
    field = AdmittivityField.from_scalars(mesh, a=2.0, b=0.0, omega=0.0)
    rep = jump_analysis(field, (1.0, 0.0), 0.2)
    assert rep.sign == "positive"
    assert rep.c_theta == pytest.approx(2.0, abs=1e-6)
    assert rep.omega_max == math.inf


def test_jump_analysis_negative_with_frequency_bound(mesh):
    field = AdmittivityField.from_scalars(mesh, a=-0.5, b=1.0, omega=0.0)
    rep = jump_analysis(field, (0.0, 1.0), 0.2)
    assert rep.sign == "negative"
    assert rep.c_theta == pytest.approx(0.5, abs=1e-6)
    assert rep.m == pytest.approx(0.5, abs=1e-9)
    assert rep.big_m == pytest.approx(1.0, abs=1e-9)
    assert rep.omega_max == pytest.approx(0.5, abs=1e-6)


def test_jump_analysis_is_directional(mesh):
    # field indefinite over all of D but constant +I on the right contact slab
    cents = mesh.centroids()
    inc = mesh.labels == INCLUSION
    a = np.zeros((mesh.n_triangles, 2, 2))
    sign = np.where(cents[:, 0] > 0.2, 1.0, -0.5)
    a[inc] = sign[inc, None, None] * np.eye(2)
    field = AdmittivityField(mesh=mesh, a=a, b=np.zeros_like(a), omega=0.0)
    rep = jump_analysis(field, (1.0, 0.0), 0.2)
    assert rep.sign == "positive"
    rep_all = jump_analysis(field, (1.0, 0.0), 1.0)
    assert rep_all.sign == "indefinite"


def test_jump_analysis_empty_slab_rejected(mesh):
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=0.0, omega=0.0)
    with pytest.raises(FieldError):
        jump_analysis(field, (1.0, 0.0), -0.1)


def test_inverse_difference_matrix_identity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        a = random_invertible(rng)
        b = random_invertible(rng)
        lhs = np.linalg.inv(a) - np.linalg.inv(b)
        bi = np.linalg.inv(b)
        rhs = bi @ (b - a) @ bi + bi @ (b - a) @ np.linalg.inv(a) @ (b - a) @ bi
        denom = max(np.linalg.norm(lhs), 1e-30)
        worst = max(worst, np.linalg.norm(lhs - rhs) / denom)
    assert worst < 1e-10


def test_sym_eig_bounds_closed_form():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(40, 2, 2))
    mats = (q + np.swapaxes(q, 1, 2)) / 2
    lo, hi = sym_eig_bounds(mats)
    ref = np.linalg.eigvalsh(mats)
    assert np.allclose(lo, ref[:, 0], atol=1e-12)
    assert np.allclose(hi, ref[:, 1], atol=1e-12)
