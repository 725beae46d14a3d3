import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from enclosure2d import indicator, probes
from enclosure2d.admittivity import AdmittivityField
from enclosure2d.fem import assemble_dtn_matrix, gap_matrix
from enclosure2d.indicator import (IndicatorError, SupportFit, classify_series,
                                   clip_polygon_halfplane, cone_carving,
                                   cones_avoid_shape, convex_hull_estimate,
                                   fit_support_directions, hull_contains_shape,
                                   indicator_cgo, indicator_ml,
                                   j_oracle, support_slope_fit,
                                   transition_search_ml, write_indicator_csv,
                                   write_region_svg)
from enclosure2d.mesh import ShapeSpec, build_disk_mesh
from enclosure2d.probes import ProbeError, ProbeSpec, ml_probe_trace, probe_gradient
from builders import background, cgo_spec, ml_spec
from indicator_csv import read_indicator_csv


@pytest.fixture(scope="module")
def empty_gap():
    mesh = build_disk_mesh(1.0, 0.08, None)
    b = assemble_dtn_matrix(mesh, background(mesh))
    return gap_matrix((b, b))


@pytest.fixture(scope="module")
def disk_gap():
    mesh = build_disk_mesh(1.0, 0.03, ShapeSpec.disk((0.0, 0.0), 0.5))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=0.5, omega=1.0)
    return mesh, gap_matrix((assemble_dtn_matrix(mesh, field),
                             assemble_dtn_matrix(mesh, background(mesh, 1.0))))


def test_indicator_zero_for_empty_inclusion(empty_gap):
    th = np.array([1.0, 0.0])
    for tau in (1.0, 4.0):
        val = indicator_cgo(empty_gap, cgo_spec(th, 0.3, [tau]))[0]
        assert abs(val) < 1e-10


def test_indicator_ml_zero_for_empty_inclusion(empty_gap):
    val = indicator_ml(empty_gap, ml_spec((3.0, 0.0), (1.0, 0.0), -0.5, [1.5]))[0]
    assert abs(val) < 1e-10


def test_indicator_ml_rejects_bad_cone(empty_gap):
    with pytest.raises(ProbeError):
        indicator_ml(empty_gap, ml_spec((3.0, 0.0), (-1.0, 0.0), -0.5, [1.5]))


def test_indicator_ml_perp_flip_invariance(disk_gap):
    _, gap = disk_gap
    th = np.array([0.8, 0.6])
    a = indicator_ml(gap, ml_spec((3.0, 1.0), th, -0.7, [2.0]))[0]
    b = indicator_ml(gap, ml_spec((3.0, 1.0), th, -0.7, [2.0], perp_sign=-1.0))[0]
    assert a == pytest.approx(b, abs=1e-10 * max(abs(a), 1.0))


def test_indicator_ml_near_one_reduces_to_cgo(disk_gap):
    # as the order approaches 1 the cone probe is the exponential probe times
    # a fixed scalar exp(tau(-y.theta - t)) exp(-i tau y.theta_perp), so the
    # indicators agree up to that scalar's squared modulus (cgo taken at t = 0)
    _, gap = disk_gap
    y = np.array([3.0, 0.0])
    th = np.array([1.0, 0.0])
    t, tau = -3.3, 2.0
    ml = indicator_ml(gap, ml_spec(y, th, t, [tau], alpha=1 - 1e-9))[0]
    scale = math.exp(2 * tau * (-(y @ th) - t))
    cgo = indicator_cgo(gap, cgo_spec(th, 0.0, [tau]))[0]
    assert ml == pytest.approx(scale * cgo, rel=1e-5)


def test_indicator_decays_beyond_support(disk_gap):
    _, gap = disk_gap
    th = np.array([1.0, 0.0])
    taus = np.geomspace(1.0, 0.3 / 0.03, 10)
    vals = np.abs([indicator_cgo(gap, cgo_spec(th, 0.7, t))[0] for t in taus[:, None]])
    tail = vals[taus >= 2.0]
    assert np.all(np.diff(tail) < 0)
    assert vals[-1] < 0.2 * vals[0]


def test_indicator_bounded_growth_at_support(disk_gap):
    # at the exact support depth the values stay within a fixed band / tau^2
    _, gap = disk_gap
    th = np.array([1.0, 0.0])
    taus = np.geomspace(1.0, 0.3 / 0.03, 10)
    vals = np.array([indicator_cgo(gap, cgo_spec(th, 0.5, t))[0] for t in taus[:, None]])
    assert np.all(vals > 0)
    assert np.all(vals / taus ** 2 < 10 * (vals[0] / taus[0] ** 2))


# -- slope fitting -------------------------------------------------------------


def _synthetic_series(taus, slope_vs_2tau, intercept, noise=0.0, rng=None):
    logs = 2 * taus * slope_vs_2tau + intercept
    if noise:
        logs = logs + noise * rng.standard_normal(len(taus))
    return cgo_spec((1.0, 0.0), 0.0, taus), np.exp(logs)


def test_slope_fit_exact_linear_data():
    taus = np.linspace(1, 12, 10)
    series = _synthetic_series(taus, 0.5, 1.0)
    fit = support_slope_fit(*series)
    assert fit.h_est == pytest.approx(0.5, abs=1e-12)
    assert not fit.low_confidence


def test_slope_fit_with_noise():
    rng = np.random.default_rng(4)
    taus = np.linspace(1, 12, 12)
    series = _synthetic_series(taus, 0.5, 1.0, noise=1e-3, rng=rng)
    fit = support_slope_fit(*series)
    assert fit.h_est == pytest.approx(0.5, abs=1e-2)


def test_slope_fit_needs_enough_samples():
    spec = cgo_spec((1.0, 0.0), 0.0, np.linspace(1, 5, 8))
    with pytest.raises(IndicatorError):
        support_slope_fit(spec, np.full(8, 1e-300))


def test_slope_fit_rejects_unordered_ladder_and_nonfinite_values():
    # a non-finite form (an overflowing exponential probe) is a numerical
    # failure, not a censored sample
    spec, values = _synthetic_series(np.linspace(1, 12, 10), 0.5, 1.0)
    with pytest.raises(IndicatorError, match="strictly increasing"):
        support_slope_fit(cgo_spec((1.0, 0.0), 0.0, spec.tau[::-1]), values)
    for bad in (np.inf, np.nan):
        values[-1] = bad
        with pytest.raises(IndicatorError, match="finite"):
            support_slope_fit(spec, values)


def test_slope_fit_full_pipeline_two_layer(disk_gap):
    _, gap = disk_gap
    taus = np.geomspace(1.0, 0.5 / 0.03, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fits = fit_support_directions(gap, [cgo_spec((1.0, 0.0), 0.0, taus)])
    assert 0.45 <= fits[0].h_est <= 0.55


# -- transition classification --------------------------------------------------


def test_classifier_on_synthetic_exponentials():
    taus = np.geomspace(0.5, 4.0, 10)
    for gamma in (0.1, 0.5, 2.0):
        grow = np.exp(gamma * taus)
        decay = np.exp(-gamma * taus)
        assert classify_series(grow, np.zeros(10))[0] == "growth"
        assert classify_series(decay, np.zeros(10))[0] == "decay"


def test_classifier_censors_explosive_tail():
    taus = np.geomspace(0.5, 4.0, 10)
    vals = np.exp(-0.5 * taus)
    vals[-2:] *= np.array([1e4, 1e12])   # leakage signature
    label, _ = classify_series(vals, np.zeros(10))
    assert label == "decay"


def test_classifier_ties_flag_low_confidence():
    label, tie = classify_series(np.ones(10), np.zeros(10))
    assert label == "growth" and tie


def test_transition_search_no_transition_on_empty(empty_gap):
    taus = np.geomspace(0.5, 2.0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = transition_search_ml(empty_gap, ml_spec((3.0, 0.0), (1.0, 0.0), -0.3, taus),
                                   (-4.0, -0.3))
    assert est.status == "no_transition"
    assert est.h_est is None


def test_tau_ladder_matches_one_tau_ladders(disk_gap):
    # one call per ladder gives the values of one-entry ladders; the ML traces
    # at the last two taus overflow, and their samples are inf either way
    _, gap = disk_gap
    th = np.array([1.0, 0.0])
    taus = np.array([0.5, 0.75, 1.0, 1.25, 1.5, 10.0, 12.0])
    ladder = indicator_ml(gap, ml_spec((3.0, 0.0), th, -6.0, taus))
    singles = np.array([indicator_ml(gap, ml_spec((3.0, 0.0), th, -6.0, t))[0]
                        for t in taus[:, None]])
    assert np.isinf(ladder[-2:]).all() and np.isinf(singles[-2:]).all()
    # a ladder's forms come from one matrix-matrix product, a one-entry
    # ladder's from a product with one column, whose sums run in other
    # orders (pairwise along a contiguous axis): they agree within
    # the noise floor u s m max|c|^2 of transition_search_ml's error model, the
    # level below which the search cannot tell samples apart (at tau = 1.5 the
    # form cancels by 1.2e5, so 1e-12 relative is past its own roundoff)
    coef = ml_probe_trace(ml_spec((3.0, 0.0), th, -6.0, taus[:-2]), gap.basis.points)
    floor = 1e-16 * gap.scale * gap.matrix.shape[0] * np.abs(coef).max(axis=1) ** 2
    assert (np.abs(ladder[:-2] - singles[:-2]) <= floor).all()
    taus = np.geomspace(1.0, 10.0, 8)
    ladder = indicator_cgo(gap, cgo_spec(th, 0.3, taus))
    singles = [indicator_cgo(gap, cgo_spec(th, 0.3, t))[0] for t in taus[:, None]]
    np.testing.assert_allclose(ladder, singles, rtol=1e-12, atol=0)


def test_cgo_ladder_keeps_per_tau_checks():
    # a ladder past the mesh-resolution advisory evaluates without a warning
    # (the config warns, once per command), and the overflow guard rejects
    # the whole ladder; the band-limited operators take the same path
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.0, 0.0), 0.5))
    field = AdmittivityField.from_scalars(mesh, a=1.0, b=0.0, omega=0.0)
    gap = gap_matrix((assemble_dtn_matrix(mesh, field, 4),
                      assemble_dtn_matrix(mesh, background(mesh), 4)))
    th = np.array([1.0, 0.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        indicator_cgo(gap, cgo_spec(th, 0.0, np.array([0.0, 4.0, 6.0, 10.0])))
    assert caught == []
    with pytest.raises(ProbeError), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        indicator_cgo(gap, cgo_spec(th, 0.0, np.array([1.0, 800.0])))


def test_transition_search_estimate_is_unchanged(disk_gap):
    # the bisection's decisions are discrete, so any change to how a sample is
    # formed or floored shows here as a moved estimate.  Recorded with the noise
    # floor at the operators' own roundoff; the true tangency is -3.138, on
    # the far side of the bracket (a sound cone)
    _, gap = disk_gap
    ang = math.radians(70.0)
    probe = ml_spec((3.0, 0.0), (math.cos(ang), math.sin(ang)), -0.2, np.geomspace(0.35, 2.4, 16))
    est = transition_search_ml(gap, probe, (-6.0, -0.2))
    assert est.status == "ok"
    assert est.h_est == -3.1056640625
    assert est.bracket == (-3.111328125, -3.1)
    assert est.low_confidence_steps == 2


def test_transition_search_interval_validation(empty_gap):
    with pytest.raises(IndicatorError):
        transition_search_ml(empty_gap, ml_spec((3.0, 0.0), (1.0, 0.0), -0.5,
                                            np.geomspace(0.5, 2.0, 8)), (-1.0, 0.5))


def test_transition_search_checks_the_cone_against_the_operators(empty_gap):
    # a probe carries no domain: a cone that meets the operators' domain is
    # rejected by the search itself
    probe = ml_spec((3.0, 0.0), (-1.0, 0.0), -0.5, np.geomspace(0.5, 2.0, 8))
    with pytest.raises(ProbeError, match="vertex cone"):
        transition_search_ml(empty_gap, probe, (-4.0, -0.3))


def test_transition_search_checks_the_domain_once(disk_gap, monkeypatch):
    # the base cone does not move with t, so one search checks it once, not
    # once per classification: the 2 endpoints and the 9 bisection steps
    _, gap = disk_gap
    checks, classified = [], []
    avoids, classify = probes.cone_avoids_shape, indicator.classify_series
    monkeypatch.setattr(probes, "cone_avoids_shape",
                        lambda *args: checks.append(args) or avoids(*args))
    monkeypatch.setattr(indicator, "classify_series",
                        lambda *args: classified.append(args) or classify(*args))
    ang = math.radians(70.0)
    probe = ml_spec((3.0, 0.0), (math.cos(ang), math.sin(ang)), -0.2,
                    np.geomspace(0.35, 2.4, 16))
    assert transition_search_ml(gap, probe, (-6.0, -0.2)).status == "ok"
    assert (len(checks), len(classified)) == (1, 11)


# -- ground-truth energy oracle -------------------------------------------------


def test_j_oracle_zero_cases():
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.0, 0.0), 0.5))
    spec = ProbeSpec(kind="cgo", theta=(1.0, 0.0), theta_perp=(0.0, 1.0), t=0.3, tau=[0.0])
    assert j_oracle(mesh, spec).tolist() == [0.0]
    empty = build_disk_mesh(1.0, 0.1, None)
    spec2 = ProbeSpec(kind="cgo", theta=(1.0, 0.0), theta_perp=(0.0, 1.0), t=0.3, tau=[2.0])
    assert j_oracle(empty, spec2).tolist() == [0.0]
    ladder = ProbeSpec(kind="cgo", theta=(1.0, 0.0), theta_perp=(0.0, 1.0), t=0.3,
                       tau=np.array([0.0, 2.0]))
    assert j_oracle(empty, ladder).tolist() == [0.0, 0.0]
    assert j_oracle(empty, ml_spec((3.0, 0.0), (1.0, 0.0), -0.5, ladder.tau)).tolist() == [0.0, 0.0]


def test_j_oracle_matches_dense_quadrature():
    # 2 tau^2 integral of exp(2 tau (x.theta - t)) over the centered disk,
    # by dense midpoint sampling of the true disk
    mesh = build_disk_mesh(1.0, 0.025, ShapeSpec.disk((0.0, 0.0), 0.5))
    tau, t = 3.0, 0.6
    spec = ProbeSpec(kind="cgo", theta=(1.0, 0.0), theta_perp=(0.0, 1.0), t=t, tau=[tau])
    val = j_oracle(mesh, spec)[0]
    n = 1200
    xs = np.linspace(-0.5, 0.5, n, endpoint=False) + 0.5 / n
    gx, gy = np.meshgrid(xs, xs)
    inside = gx ** 2 + gy ** 2 <= 0.25
    cell = (1.0 / n) ** 2
    ref = 2 * tau ** 2 * np.sum(np.exp(2 * tau * (gx[inside] - t))) * cell
    assert val == pytest.approx(ref, rel=2e-2)


@pytest.mark.parametrize("family", ["cgo", "mittag_leffler"])
def test_ladder_gradients_and_j_equal_single_tau(family):
    # one call per ladder gives each tau's gradients and probe energy bit for
    # bit, so indicate's J column is the one-entry ladder's oracle
    mesh = build_disk_mesh(1.0, 0.1, ShapeSpec.disk((0.1, 0.0), 0.5))
    taus = np.geomspace(0.35, 6.0, 7)
    if family == "cgo":
        probe = cgo_spec((0.6, 0.8), 0.2, taus)
    else:
        probe = ml_spec((3.0, 0.0), (math.cos(1.2), math.sin(1.2)), -0.7, taus)
    pts = mesh.centroids()
    grads = probe_gradient(probe, pts)
    js = j_oracle(mesh, probe)
    assert grads.shape == (len(taus), len(pts), 2) and js.shape == taus.shape
    for k, tau in enumerate(taus[:, None]):
        single = replace(probe, tau=tau)
        np.testing.assert_array_equal(grads[k], probe_gradient(single, pts)[0])
        assert js[k] == j_oracle(mesh, single)[0]


# -- region assembly -------------------------------------------------------------


def _estimate_from_values(directions, h_values):
    return tuple(SupportFit(theta=(d[0], d[1]), t=0.0, h_est=h, rms_residual=0.0,
                            window=(0, 5), low_confidence=False)
                 for d, h in zip(directions, h_values))


def test_hull_four_directions_square():
    dirs = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    est = _estimate_from_values(dirs, [0.5] * 4)
    region = convex_hull_estimate(est, 1.0)
    assert region.area() == pytest.approx(1.0, rel=1e-9)
    xs, ys = region.polygon[:, 0], region.polygon[:, 1]
    assert xs.max() == pytest.approx(0.5) and xs.min() == pytest.approx(-0.5)
    assert ys.max() == pytest.approx(0.5) and ys.min() == pytest.approx(-0.5)


def test_hull_many_directions_circumscribes_disk():
    ang = 2 * math.pi * np.arange(32) / 32
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    est = _estimate_from_values(dirs, [0.5] * 32)
    region = convex_hull_estimate(est, 1.0)
    assert region.area() == pytest.approx(math.pi * 0.25, rel=2e-2)
    assert region.area() >= math.pi * 0.25


def test_hull_empty_intersection_reported():
    dirs = np.array([[1, 0], [-1, 0], [0, 1]], dtype=float)
    est = _estimate_from_values(dirs, [-0.4, -0.4, 0.5])
    with pytest.raises(IndicatorError):
        convex_hull_estimate(est, 1.0)


def test_clip_halfplane_keeps_interior():
    square = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    clipped = clip_polygon_halfplane(square, np.array([1.0, 0.0]), 0.0)
    assert clipped[:, 0].max() <= 1e-12
    assert len(clipped) == 4


def test_cone_carving_no_estimates_keeps_domain():
    region = cone_carving([], 1.0)
    assert region.cones == ()
    assert region.area() == pytest.approx(math.pi, rel=2e-2)


def test_cone_carving_single_far_cone_keeps_shape():
    from enclosure2d.indicator import TransitionEstimate
    est = TransitionEstimate(y=(3.0, 0.0), theta=(1.0, 0.0), alpha=0.5,
                             h_est=-0.5, bracket=(-0.52, -0.48), status="ok")
    region = cone_carving([est], 1.0)
    d = ShapeSpec.disk((0.0, 0.0), 0.4)
    assert cones_avoid_shape(region, d)
    assert region.area() < math.pi  # something was carved


def test_hull_containment_helper():
    dirs = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    est = _estimate_from_values(dirs, [0.5] * 4)
    assert hull_contains_shape(est, ShapeSpec.disk((0.0, 0.0), 0.45))
    assert not hull_contains_shape(est, ShapeSpec.disk((0.2, 0.0), 0.45))


# -- files ------------------------------------------------------------------------


def test_indicator_csv_roundtrip(tmp_path):
    rows = [{"family": "cgo", "alpha": None, "theta_x": 1.0, "theta_y": 0.0,
             "y_x": None, "y_y": None, "t": 0.2, "tau": 1.5, "I": -0.25,
             "logabsI": math.log(0.25), "J": 0.5},
            {"family": "mittag_leffler", "alpha": 0.5, "theta_x": 0.0, "theta_y": 1.0,
             "y_x": 3.0, "y_y": 0.0, "t": -0.7, "tau": 2.0, "I": 1e-8,
             "logabsI": math.log(1e-8), "J": None}]
    path = tmp_path / "ind.csv"
    write_indicator_csv(path, rows, provenance={"config": "xyz"})
    back = read_indicator_csv(path)
    assert len(back) == 2
    assert back[0]["family"] == "cgo"
    assert back[0]["I"] == pytest.approx(-0.25)
    assert back[1]["alpha"] == pytest.approx(0.5)
    assert back[1]["J"] is None
    text = path.read_text()
    assert text.startswith("# config: xyz")


def test_region_svg_written(tmp_path):
    ang = 2 * math.pi * np.arange(8) / 8
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    est = _estimate_from_values(dirs, [0.5] * 8)
    region = convex_hull_estimate(est, 1.0)
    path = tmp_path / "overlay.svg"
    write_region_svg(path, region, true_shape=ShapeSpec.disk((0.0, 0.0), 0.4))
    text = path.read_text()
    assert text.startswith("<svg") and "</svg>" in text
    assert "circle" in text and "path" in text


def test_overflowing_form_is_inf_not_nan(disk_gap):
    # at tau = 5.9 the cone probe's trace is finite but its quadratic form
    # passes double range; the form is inf, as from an overflowing trace on
    _, gap = disk_gap
    assert indicator_ml(gap, ml_spec((3.0, 0.0), (1.0, 0.0), -6.0, [5.9])).tolist() == [np.inf]
    ladder = indicator_ml(gap, ml_spec((3.0, 0.0), (1.0, 0.0), -6.0, np.array([1.0, 5.9])))
    assert np.isfinite(ladder[0]) and ladder[1] == np.inf
