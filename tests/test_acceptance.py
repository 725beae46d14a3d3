"""Acceptance suite: one test per criterion, each printing a PASS line with the
measured margins (run with ``pytest tests/test_acceptance.py -v -s``).

Everything here is deterministic: fixed seeds, fixed grids, and a structured
mesher, so the printed numbers reproduce bit for bit.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from enclosure2d import indicator
from enclosure2d.admittivity import AdmittivityField, complex_admittivity, reduce_background
from enclosure2d.cli import ExperimentConfig
from enclosure2d.fem import (DirichletSystem, assemble_dtn_matrix, gap_matrix,
                             nodal_basis_for_mesh)
from enclosure2d.indicator import (cone_carving, convex_hull_estimate,
                                   cones_avoid_shape, fit_support_directions,
                                   hull_contains_shape, indicator_cgo, j_oracle,
                                   transition_search_ml)
from enclosure2d.mesh import INCLUSION, ShapeSpec, build_disk_mesh
from enclosure2d.mittag import MLParams, ml_eval
from enclosure2d.probes import (ProbeSpec, critical_cone_offset,
                                ml_probe_trace, rot90)
from builders import background, cgo_spec, random_invertible
from ml_oracle import criterion6_points, load
from oracles import (ReferenceSystem, analytic_two_layer_dtn, boundary_operator,
                     fourier_trace, original_admittivity, prop21_check)


DEFAULT_H = 0.02


def _gap(mesh, field):
    """The operator gap of the field against the unit background."""
    return gap_matrix((assemble_dtn_matrix(mesh, field),
                       assemble_dtn_matrix(mesh, background(mesh, field.omega))))


def _mode_matrix(mesh, system, n_modes):
    """The mode numbers n = -N..N and P^T S^T P, the system's boundary
    operator in the modes exp(i n theta) of the boundary nodes."""
    modes = np.arange(-n_modes, n_modes + 1)
    p = np.exp(1j * np.outer(nodal_basis_for_mesh(mesh).thetas, modes))
    return modes, p.T @ (boundary_operator(system).T @ p)


# ---------------------------------------------------------------------------
# shared benchmark assemblies


@pytest.fixture(scope="module")
def positive_jump_bench():
    """Centered disk rho=0.5, a=I, b=0.5I, omega=1 at the default mesh size."""
    mesh = build_disk_mesh(1.0, DEFAULT_H, ShapeSpec.disk((0.0, 0.0), 0.5))
    return mesh, _gap(mesh, AdmittivityField.from_scalars(mesh, a=1.0, b=0.5, omega=1.0))


@pytest.fixture(scope="module")
def cone_pair():
    """Off-center disk (0.3, 0), rho=0.3, contrast a=I: the (perturbed,
    background) operators of the cone benchmark."""
    mesh = build_disk_mesh(1.0, 0.0102, ShapeSpec.disk((0.3, 0.0), 0.3))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=0.0, omega=0.0)
    return mesh, (assemble_dtn_matrix(mesh, field),
                  assemble_dtn_matrix(mesh, background(mesh, 0.0)))


@pytest.fixture(scope="module")
def cone_bench(cone_pair):
    """The cone benchmark's operator gap, with the probing data for the
    radius-3 vertex ring at order alpha=1/2."""
    mesh, pair = cone_pair
    return mesh, gap_matrix(pair)


def _cone_probe_geometry():
    """16 (vertex, direction) pairs on the radius-3 ring: vertices spread over
    the arc facing the probed region, each sweeping obliquely across it."""
    shape = ShapeSpec.disk((0.3, 0.0), 0.3)
    psi = math.pi * 0.25
    pairs = []
    for phid in np.linspace(-112.5, 112.5, 16):
        phi = math.radians(phid)
        y = 3.0 * np.array([math.cos(phi), math.sin(phi)])
        sgn = -1.0 if phid >= 0 else 1.0
        ang = phi + sgn * math.radians(70.0)
        th = np.array([math.cos(ang), math.sin(ang)])
        h_true = critical_cone_offset(y, th, psi, shape, -6.0, -0.05)
        pairs.append((y, th, h_true))
    return pairs


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_two_layer_convergence():
    """FEM-assembled boundary operator vs the separated-variables oracle:
    <= 2% at every resolution and first-order ratios in [1.6, 2.6]."""
    refs = {n: analytic_two_layer_dtn(0.5, 2.0 - 1.0j, n) for n in range(1, 9)}
    errors = {}
    for h in (0.04, 0.02, 0.01):
        mesh = build_disk_mesh(1.0, h, ShapeSpec.disk((0.0, 0.0), 0.5))
        field = AdmittivityField.from_scalars(mesh, a=1.0, b=1.0, omega=1.0)
        modes, matrix = _mode_matrix(mesh, DirichletSystem(mesh, complex_admittivity(field)), 8)
        errs = []
        for n in range(1, 9):
            j = int(np.flatnonzero(modes == n)[0])
            k = int(np.flatnonzero(modes == -n)[0])
            lam = matrix[j, k] / (2 * math.pi)
            errs.append(abs(lam - refs[n]) / abs(refs[n]))
        errors[h] = max(errs)
        assert errors[h] <= 0.02, f"h={h}: worst relative error {errors[h]:.4f}"
    r1 = errors[0.04] / errors[0.02]
    r2 = errors[0.02] / errors[0.01]
    assert 1.6 <= r1 <= 2.6, f"ratio 0.04->0.02 is {r1:.2f}"
    assert 1.6 <= r2 <= 2.6, f"ratio 0.02->0.01 is {r2:.2f}"
    print(f"\nACCEPTANCE 1 PASS: errors "
          + " ".join(f"h={h}:{errors[h]:.4%}" for h in (0.04, 0.02, 0.01))
          + f", halving ratios {r1:.2f}, {r2:.2f}")


def test_criterion_2_reduction_identity():
    """Operator assembled from the original pair equals (sigma0 - i w eps0)
    times the reduced-field operator, to 1e-8 relative Frobenius."""
    mesh = build_disk_mesh(1.0, 0.05, ShapeSpec.disk((0.0, 0.0), 0.5))
    inc = (mesh.labels == INCLUSION).astype(float)[:, None, None]
    eye = np.eye(2)
    s0, e0, w = 1.0, 1.0, 1.0
    alpha, beta = inc * 1.0 * eye, inc * 0.5 * eye
    reduced = reduce_background(mesh, alpha, beta, w, sigma0=s0, epsilon0=e0)
    gamma_orig = original_admittivity(mesh, alpha, beta, w, s0, e0)
    _, b_orig = _mode_matrix(mesh, DirichletSystem(mesh, gamma_orig), 6)
    _, b_red = _mode_matrix(mesh, DirichletSystem(mesh, complex_admittivity(reduced)), 6)
    scale = s0 - 1j * w * e0
    defect = np.linalg.norm(b_orig - scale * b_red) / np.linalg.norm(b_orig)
    assert defect <= 1e-8
    print(f"\nACCEPTANCE 2 PASS: relative Frobenius defect {defect:.2e}")


def test_criterion_3_integral_inequalities_suite():
    """20 randomized coefficient pairs x 20 random traces: the two-sided bound
    holds with the stated slack, zero failures; plus the inverse-difference
    identity on 100 random matrix pairs at 1e-10."""
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.0, 0.0), 0.5))
    rng = np.random.default_rng(2026)
    inc = (mesh.labels == INCLUSION).astype(float)[:, None, None]

    def sample_field():
        phi = rng.uniform(0, math.pi)
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        sigma = rot @ np.diag(rng.uniform(0.3, 3.0, size=2)) @ rot.T
        q = rng.normal(size=(2, 2)) * 0.4
        return AdmittivityField(mesh=mesh, a=inc * (sigma - np.eye(2)),
                                b=inc * (q + q.T) / 2, omega=1.0)

    failures = 0
    margin = math.inf
    for _ in range(20):
        f1, f2 = sample_field(), sample_field()
        s1 = ReferenceSystem(mesh, complex_admittivity(f1))
        s2 = ReferenceSystem(mesh, complex_admittivity(f2))
        for _ in range(20):
            coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
            tr = sum(c * fourier_trace(mesh, n) for c, n in zip(coeffs, range(-4, 5)))
            rep = prop21_check(f1, f2, 1.0, tr, systems=(s1, s2))
            if not rep.passed:
                failures += 1
            margin = min(margin, rep.gap - rep.lhs, rep.rhs - rep.gap)
    assert failures == 0, f"{failures} inequality failures"

    worst = 0.0
    for _ in range(100):
        a = random_invertible(rng)
        b = random_invertible(rng)
        lhs = np.linalg.inv(a) - np.linalg.inv(b)
        bi = np.linalg.inv(b)
        rhs = bi @ (b - a) @ bi + bi @ (b - a) @ np.linalg.inv(a) @ (b - a) @ bi
        worst = max(worst, np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-30))
    assert worst < 1e-10
    print(f"\nACCEPTANCE 3 PASS: 400/400 inequality checks "
          f"(worst margin {margin:.2e}), identity defect {worst:.2e}")


def test_criterion_4_support_recovery(positive_jump_bench):
    """Log-slope support fits at 16 angles all land in [0.45, 0.55] and the
    resulting hull contains the true disk."""
    mesh, gap = positive_jump_bench
    ang = 2 * math.pi * np.arange(16) / 16
    thetas = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    taus = np.geomspace(1.0, 0.3 / DEFAULT_H, 12)
    probes = [cgo_spec(th, 0.0, taus) for th in thetas]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fits = fit_support_directions(gap, probes)
    hs = np.array([f.h_est for f in fits])
    assert np.all(hs >= 0.45) and np.all(hs <= 0.55), hs
    region = convex_hull_estimate(fits, 1.0)
    true_disk = ShapeSpec.disk((0.0, 0.0), 0.5)
    assert hull_contains_shape(fits, true_disk)
    print(f"\nACCEPTANCE 4 PASS: support estimates in [{hs.min():.4f}, {hs.max():.4f}], "
          f"hull area {region.area():.4f} contains the true disk")


def test_criterion_5_negative_jump_sign():
    """Negative-jump benchmark: the indicator at the support depth is negative
    over the trailing half of the ladder, at omega = 0.25 and omega = 0."""
    mesh = build_disk_mesh(1.0, DEFAULT_H, ShapeSpec.disk((0.0, 0.0), 0.5))
    taus = np.geomspace(1.0, 0.3 / DEFAULT_H, 12)
    ang = 2 * math.pi * np.arange(16) / 16
    worst = {}
    for omega in (0.25, 0.0):
        gap = _gap(mesh, AdmittivityField.from_scalars(mesh, a=-0.5, b=1.0, omega=omega))
        w = -math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for a in ang:
                th = np.array([math.cos(a), math.sin(a)])
                vals = [indicator_cgo(gap, cgo_spec(th, 0.5, t))[0] for t in taus[:, None]]
                w = max(w, max(vals[len(vals) // 2:]))
        worst[omega] = w
        assert w < 0, f"omega={omega}: trailing indicator max {w:.3e} not negative"
    print(f"\nACCEPTANCE 5 PASS: trailing indicator maxima "
          f"omega=0.25: {worst[0.25]:.3e}, omega=0: {worst[0.0]:.3e}")


def test_criterion_6_ml_accuracy_and_sectors():
    """<= 1e-9 relative against the extended-precision series on a 200-point
    grid with |z| <= 5 (stored 220-digit values, tests/ml_oracle.py), and
    sector-asymptote deviations shrinking from |z| = 50 to |z| = 200 on growth
    and decay rays."""
    points = criterion6_points()
    worst = {}
    for alpha in (0.3, 0.5, 0.8, 1.0):
        params = MLParams(alpha=alpha)
        zs, oracle = load("criterion6", alpha)
        np.testing.assert_array_equal(points[alpha], zs)
        errs = []
        for z, o in zip(zs, oracle):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                v = ml_eval(params, z)
            errs.append(abs(v - o) / abs(o))
        worst[alpha] = max(errs)
        assert worst[alpha] <= 1e-9, f"alpha={alpha}: worst {worst[alpha]:.2e}"

    for alpha in (0.3, 0.5, 0.8):
        params = MLParams(alpha=alpha)
        ray = math.pi * alpha / 2 * (1 - 1e-6)
        dev_g = {}
        dev_d = {}
        from scipy.special import gamma as gamma_fn
        for r in (50.0, 200.0):
            zg = r * np.exp(1j * ray)
            asym = (1 / alpha) * np.exp(np.exp(np.log(zg) / alpha))
            dev_g[r] = abs(ml_eval(params, zg) / asym - 1)
            zd = complex(-r)
            dev_d[r] = abs(zd * ml_eval(params, zd) * gamma_fn(1 - alpha) / (-1.0) - 1)
        assert dev_g[200.0] < dev_g[50.0], f"alpha={alpha} growth ray"
        assert dev_d[200.0] < dev_d[50.0], f"alpha={alpha} decay ray"
    print("\nACCEPTANCE 6 PASS: worst grid errors "
          + " ".join(f"a={a}:{worst[a]:.1e}" for a in (0.3, 0.5, 0.8, 1.0))
          + "; sector deviations shrink on both rays")


def test_criterion_7_cone_transitions(cone_bench):
    """Transition offsets within 0.05 of the exact tangency for >= 14 of the
    16 ring probes; the carved region always contains the true disk."""
    mesh, gap = cone_bench
    shape = ShapeSpec.disk((0.3, 0.0), 0.3)
    taus = np.geomspace(0.35, 2.4, 16)
    hits = 0
    ests = []
    errs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for y, th, h_true in _cone_probe_geometry():
            probe = ProbeSpec(kind="mittag_leffler", theta=tuple(th),
                              theta_perp=tuple(rot90(th)), t=-0.2, tau=taus, y=tuple(y),
                              alpha=0.5)
            est = transition_search_ml(gap, probe, (-6.0, -0.2))
            ests.append(est)
            assert est.status == "ok"
            err = abs(est.h_est - h_true)
            errs.append(err)
            hits += err <= 0.05
    region = cone_carving(ests, 1.0)
    assert cones_avoid_shape(region, shape), "a carved cone cuts the true disk"
    assert hits >= 14, f"only {hits}/16 within 0.05 (errors {np.round(errs, 3)})"
    print(f"\nACCEPTANCE 7 PASS: {hits}/16 within 0.05 "
          f"(median error {np.median(errs):.3f}), containment holds, "
          f"carved away {1 - region.area() / math.pi:.0%} of the domain")


def test_cone_estimates_are_stable_under_operator_roundoff(cone_pair, monkeypatch):
    """The benchmark's 8 cone probes (radius-3 ring, 70 degree offset, t in
    (-6, -0.2)) on operators perturbed by 5e-16 max|B| (E + E^T) / 2, E
    standard normal, for three seeds: every carved cone stays sound and
    within one bisection step of its estimate on the unperturbed operators."""
    mesh, pair = cone_pair
    shape = ShapeSpec.disk((0.3, 0.0), 0.3)
    cfg = ExperimentConfig(inclusion=shape, probe_family="mittag_leffler",
                           t_value=-0.7, tau_min=0.35, tau_max=2.4, tau_points=16,
                           vertex_count=8, t_search=(-6.0, -0.2))
    probes = cfg.probes(mesh.h)
    # a probe's traces do not depend on the operators: compute each once
    traces, trace = {}, indicator.ml_probe_trace

    def cached_trace(spec, points):
        key = (spec.y, spec.theta, spec.t)
        if key not in traces:
            traces[key] = trace(spec, points)
        return traces[key]

    monkeypatch.setattr(indicator, "ml_probe_trace", cached_trace)

    def carve(b1, b0):
        gap = gap_matrix((b1, b0))
        ests = [transition_search_ml(gap, p, cfg.t_search) for p in probes]
        assert all(e.status == "ok" for e in ests)
        assert cones_avoid_shape(cone_carving(ests, 1.0), shape)
        return ests

    base = carve(*pair)
    moved = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        perturbed = []
        for b in pair:
            e = rng.standard_normal(b.matrix.shape)
            perturbed.append(replace(b, matrix=b.matrix + 5e-16 * b.scale * (e + e.T) / 2,
                                     scale=None))
        for e0, e in zip(base, carve(*perturbed)):
            step = e0.bracket[1] - e0.bracket[0]
            assert abs(e.h_est - e0.h_est) <= step * (1 + 1e-9)
            moved.append(e.h_est != e0.h_est)
    print(f"\nroundoff stability: {sum(moved)} of {len(moved)} estimates moved, "
          "each by at most one bisection step")


def test_criterion_8_sandwich_band(cone_bench):
    """|indicator| / (probe energy on the inclusion) stays within two decades
    over the tau ladder at t = h_alpha - 0.1."""
    mesh, gap = cone_bench
    pts = gap.basis.points
    taus = np.geomspace(0.35, 1.6, 12)
    band_lo, band_hi = math.inf, 0.0
    for y, th, h_true in _cone_probe_geometry()[::5]:
        t = h_true - 0.1
        for tau in taus[:, None]:
            spec = ProbeSpec(kind="mittag_leffler", theta=tuple(th),
                             theta_perp=tuple(rot90(th)), t=t, tau=tau,
                             y=tuple(y), alpha=0.5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tr = ml_probe_trace(spec, pts)[0]
            ind = abs(float(np.real(np.dot(tr, gap.matrix @ np.conj(tr)))))
            j = j_oracle(mesh, spec)[0]
            ratio = ind / j
            band_lo = min(band_lo, ratio)
            band_hi = max(band_hi, ratio)
    assert band_hi / band_lo <= 100.0, (band_lo, band_hi)
    print(f"\nACCEPTANCE 8 PASS: sandwich ratios in [{band_lo:.3f}, {band_hi:.3f}] "
          f"(band factor {band_hi / band_lo:.2f})")


def test_criterion_9_perp_flip_invariance(positive_jump_bench):
    """Indicator values identical under the perpendicular sign flip to 1e-10
    across the full criterion-4 sweep."""
    mesh, gap = positive_jump_bench
    ang = 2 * math.pi * np.arange(16) / 16
    taus = np.geomspace(1.0, 0.3 / DEFAULT_H, 12)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a in ang:
            th = np.array([math.cos(a), math.sin(a)])
            for tau in taus[:, None]:
                v1 = indicator_cgo(gap, cgo_spec(th, 0.0, tau))[0]
                v2 = indicator_cgo(gap, cgo_spec(th, 0.0, tau, perp_sign=-1.0))[0]
                worst = max(worst, abs(v1 - v2) / max(abs(v1), 1.0))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 9 PASS: worst flip deviation {worst:.2e}")
