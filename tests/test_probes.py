import math

import numpy as np
import pytest

from enclosure2d.mesh import ShapeSpec
from enclosure2d.mittag import MLParams, ml_deriv_many
from enclosure2d.probes import (ConeSpec, ProbeError, ProbeSpec, cgo_trace,
                                cone_avoids_shape, cone_contains_many,
                                critical_cone_offset, ml_probe_trace, probe_gradient,
                                rot90)
from builders import cgo_spec, ml_spec


def test_cgo_trace_at_zero_tau_is_one():
    pts = np.array([[0.3, -0.2], [0.9, 0.1]])
    assert np.allclose(cgo_trace(cgo_spec(tau=[0.0]), pts), 1.0)


def test_cgo_trace_unit_modulus_on_level_line():
    spec = cgo_spec(t=0.4, tau=[3.0])
    pts = np.array([[0.4, y] for y in (-0.5, 0.0, 0.7)])
    assert np.allclose(np.abs(cgo_trace(spec, pts)), 1.0)


def test_cgo_trace_depth_decay():
    spec = cgo_spec(t=0.5, tau=[2.0])
    val = cgo_trace(spec, np.array([[0.0, 0.0]]))[0, 0]
    assert abs(val) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_cgo_overflow_guard():
    with pytest.raises(ProbeError):
        cgo_trace(cgo_spec(t=-1.0, tau=[500.0]), np.array([[1.0, 0.0]]))


def test_cgo_gradient_structure():
    spec = cgo_spec(tau=[1.0])
    pts = np.array([[0.0, 0.0]])
    g = probe_gradient(spec, pts)[0, 0]
    assert np.allclose(g, np.array([1.0, 0.0]) + 1j * np.array([0.0, 1.0]))


def test_cgo_gradient_modulus_sqrt2_tau():
    spec = cgo_spec(t=0.1, tau=[2.5])
    pts = np.array([[0.2, 0.4], [-0.3, 0.1]])
    vals = cgo_trace(spec, pts)
    grads = probe_gradient(spec, pts)
    mods = np.sqrt((np.abs(grads) ** 2).sum(axis=-1))
    assert np.allclose(mods, math.sqrt(2) * 2.5 * np.abs(vals), rtol=1e-12)


def test_cgo_gradient_finite_difference():
    spec = cgo_spec(theta=(0.6, 0.8), t=0.2, tau=[1.7])
    p = np.array([0.31, -0.12])
    h = 1e-6
    g = probe_gradient(spec, p[None, :])[0, 0]
    for i in range(2):
        dp = np.zeros(2)
        dp[i] = h
        fd = (cgo_trace(spec, (p + dp)[None, :])[0, 0]
              - cgo_trace(spec, (p - dp)[None, :])[0, 0]) / (2 * h)
        assert abs(fd - g[i]) <= 1e-6 * abs(g[i])


def test_cgo_scaling_identity():
    # depth-shifted pairing equals exp(-2 tau t) times the unshifted one
    th = np.array([1.0, 0.0])
    pts = np.array([[0.2, 0.5], [-0.4, 0.1], [0.9, -0.3]])
    tau, t = 1.3, 0.45
    shifted = cgo_trace(cgo_spec(t=t, tau=[tau]), pts)
    plain = cgo_trace(cgo_spec(t=0.0, tau=[tau]), pts)
    q_shifted = np.sum(shifted * np.conj(shifted))
    q_plain = np.sum(plain * np.conj(plain))
    assert abs(q_shifted - math.exp(-2 * tau * t) * q_plain) <= 1e-12 * abs(q_shifted)


def test_perp_flip_conjugates_values():
    th = np.array([0.6, 0.8])
    tp = rot90(th)
    pts = np.array([[0.3, -0.7], [0.1, 0.2]])
    a = cgo_trace(ProbeSpec(kind="cgo", theta=tuple(th), theta_perp=tuple(tp), t=0.1, tau=[2.0]), pts)
    b = cgo_trace(ProbeSpec(kind="cgo", theta=tuple(th), theta_perp=tuple(-tp), t=0.1, tau=[2.0]), pts)
    assert np.allclose(np.conj(a), b, rtol=1e-14)


# -- Mittag-Leffler probes ----------------------------------------------------


def test_ml_probe_at_zero_tau():
    pts = np.array([[0.1, 0.1], [-0.5, 0.4]])
    assert np.allclose(ml_probe_trace(ml_spec(tau=[0.0]), pts), 1.0)


def test_ml_probe_alpha_one_limit_is_exponential():
    # alpha -> 1 reduces to exp of the shifted coordinate exactly at alpha = 1;
    # ProbeSpec restricts to alpha < 1, so compare against exp directly
    spec = ml_spec(alpha=0.999999)
    pts = np.array([[0.2, 0.3], [0.5, -0.1]])
    w = spec.ml_argument(pts)
    vals = ml_probe_trace(spec, pts)
    assert np.allclose(vals, np.exp(w), rtol=1e-4)


def test_ml_probe_decay_sector_small_at_large_tau():
    # point well inside the decay cone complement
    spec = ml_spec(y=(3.0, 0.0), theta=(1.0, 0.0), t=-0.5, tau=[100.0])
    pts = np.array([[0.0, 0.0]])  # behind the vertex, decay region
    val = ml_probe_trace(spec, pts)[0, 0]
    assert abs(val) < 0.05


def test_ml_gradient_zero_at_zero_tau():
    pts = np.array([[0.3, 0.2]])
    g = probe_gradient(ml_spec(tau=[0.0]), pts)
    assert np.allclose(g, 0.0)


def test_ml_gradient_modulus_relation():
    spec = ml_spec(tau=[2.0], t=-1.0)
    pts = np.array([[0.4, 0.3]])
    w = spec.ml_argument(pts)
    g = probe_gradient(spec, pts)[0, 0]
    mod = math.sqrt(float((np.abs(g) ** 2).sum()))
    expected = math.sqrt(2) * 2.0 * abs(ml_deriv_many(MLParams(alpha=0.5), w)[0, 0])
    assert mod == pytest.approx(expected, rel=1e-10)


def test_ml_gradient_finite_difference():
    spec = ml_spec(t=-0.8, tau=[1.5])
    p = np.array([0.25, -0.15])
    h = 2e-6
    g = probe_gradient(spec, p[None, :])[0, 0]
    for i in range(2):
        dp = np.zeros(2)
        dp[i] = h
        fd = (ml_probe_trace(spec, (p + dp)[None, :])[0, 0]
              - ml_probe_trace(spec, (p - dp)[None, :])[0, 0]) / (2 * h)
        assert abs(fd - g[i]) <= 1e-5 * max(abs(g[i]), 1e-12)


def test_ml_probe_requires_exterior_vertex_and_clear_cone():
    with pytest.raises(ProbeError, match="vertex must lie outside"):
        ml_spec(y=(0.5, 0.0)).check_domain(1.0)                   # vertex inside the domain
    with pytest.raises(ProbeError, match="vertex cone must avoid"):
        ml_spec(y=(3.0, 0.0), theta=(-1.0, 0.0)).check_domain(1.0)  # cone swallows the domain


def test_ml_probe_valid_cone_accepted():
    spec = ml_spec(y=(3.0, 0.0), theta=(1.0, 0.0))
    spec.check_domain(1.0)
    assert spec.base_cone().vertex == (3.0, 0.0)


# -- cones ---------------------------------------------------------------------


def test_cone_contains_axis_and_behind():
    cone = ConeSpec(vertex=(0.0, 0.0), axis=(1.0, 0.0), half_aperture=math.pi / 4)
    inside = cone_contains_many(cone, np.array([(2.0, 0.0), (-1.0, 0.0),
                                                (1.0, 0.999),      # just inside the edge
                                                (1.0, 1.01)]))
    assert inside.tolist() == [True, False, True, False]


def _tangent_scene(kind: str, side: float, turn: float):
    """A shape below the line y = 1 (above y = -1 when side = -1) that touches
    it, seen from the vertex (0, side) on that line, the whole scene turned by
    ``turn`` about the origin."""
    c, s = math.cos(turn), math.sin(turn)

    def place(x, y):
        return (c * x - s * side * y, s * x + c * side * y)

    if kind == "disk":
        shape = ShapeSpec.disk(place(2.0, 0.5), 0.5)
    elif kind == "ellipse":
        shape = ShapeSpec.ellipse(place(2.0, 0.6), (0.8, 0.4), turn)
    else:
        square = [place(x, y) for x, y in [(1.5, 0.0), (2.5, 0.0), (2.5, 1.0), (1.5, 1.0)]]
        shape = ShapeSpec.polygon(square if side > 0 else square[::-1])
    return shape, place(0.0, 1.0)


@pytest.mark.parametrize("kind", ["disk", "ellipse", "polygon"])
def test_cone_avoids_tangent_shape(kind):
    # one cone edge runs along the line y = side the shape touches (along the
    # polygon's top edge); the cone opens away from the shape
    psi = 0.4
    for side in (1.0, -1.0):
        for turn in (0.0, 0.7, -2.3):
            shape, vertex = _tangent_scene(kind, side, turn)

            def cone(tilt):
                a = turn + side * (psi - tilt)
                return ConeSpec(vertex=vertex, axis=(math.cos(a), math.sin(a)),
                                half_aperture=psi)

            assert cone_avoids_shape(cone(0.0), shape), (side, turn)
            assert not cone_avoids_shape(cone(1e-6), shape), (side, turn)


def test_cone_from_an_ellipse_boundary_point():
    # a vertex exactly on the ellipse, on a boundary sample (t = 0) or between
    # samples: cones along the outward normal avoid it, cones turned inward
    # past their half-aperture meet it
    ellipse = ShapeSpec.ellipse((0.0, 0.0), (0.4, 0.2))
    psi = 0.3
    for t in [0.0, math.pi / 512] + list(np.linspace(0.0123, 2 * math.pi, 37)):
        vertex = (0.4 * math.cos(t), 0.2 * math.sin(t))
        normal = math.atan2(math.sin(t) / 0.2, math.cos(t) / 0.4)
        for turn, avoids in [(0.0, True), (0.5, True), (-0.5, True),
                             (math.pi / 2 - psi - 1e-3, True),
                             (math.pi / 2 - psi + 1e-3, False),
                             (-(math.pi / 2 - psi + 1e-3), False), (math.pi, False)]:
            a = normal + turn
            cone = ConeSpec(vertex=vertex, axis=(math.cos(a), math.sin(a)), half_aperture=psi)
            assert cone_avoids_shape(cone, ellipse) == avoids, (t, turn)


def _random_convex_shape(rng, kind):
    center = rng.uniform(-0.5, 0.5, 2)
    if kind == "disk":
        return ShapeSpec.disk(center, rng.uniform(0.2, 0.8))
    if kind == "ellipse":
        return ShapeSpec.ellipse(center, rng.uniform(0.15, 0.8, 2), rng.uniform(-math.pi, math.pi))
    ang = np.sort(rng.choice(np.linspace(0.0, 2 * math.pi, 24, endpoint=False),
                             rng.integers(3, 8), replace=False))
    r = rng.uniform(0.3, 0.8)
    return ShapeSpec.polygon(center + r * np.stack([np.cos(ang), np.sin(ang)], axis=1))


def _point_on_boundary(rng, shape):
    if shape.kind == "polygon":
        v = shape.vertices
        i = rng.integers(len(v))
        s = 0.0 if rng.random() < 0.25 else rng.uniform(0.1, 0.9)   # a corner or an edge
        return tuple(v[i] + s * (v[(i + 1) % len(v)] - v[i]))
    t = rng.uniform(0.0, 2 * math.pi)
    a, b = shape.semi_axes
    c, s = math.cos(shape.rotation), math.sin(shape.rotation)
    x, y = a * math.cos(t), b * math.sin(t)
    return (shape.center[0] + c * x - s * y, shape.center[1] + s * x + c * y)


@pytest.mark.parametrize("kind", ["disk", "ellipse", "polygon"])
def test_cone_avoids_shape_matches_sampled_oracle(kind):
    # the oracle samples the shape densely (its boundary and an interior grid):
    # a sample strictly inside the cone narrowed by `margin` proves overlap;
    # none inside the cone widened by `margin` proves avoidance; cases between
    # the two lie within `margin` of tangency and are skipped
    rng = np.random.default_rng(18)
    margin = 0.02
    grid = np.stack(np.meshgrid(np.linspace(-1.4, 1.4, 141), np.linspace(-1.4, 1.4, 141)),
                    axis=-1).reshape(-1, 2)
    counts = {}
    for _ in range(60):
        shape = _random_convex_shape(rng, kind)
        samples = np.vstack([shape.boundary_points(4096), grid[shape.contains(grid)]])
        rim = np.asarray(_point_on_boundary(rng, shape))
        vertices = {"outside": tuple(rng.uniform(-2.0, 2.0, 2)),
                    "boundary": _point_on_boundary(rng, shape),
                    "inside": tuple(shape.center + rng.uniform(0.0, 0.9) * (rim - shape.center))}
        for where, vertex in vertices.items():
            away = samples[np.hypot(*(samples - vertex).T) > 1e-9]
            for _ in range(4):
                a, psi = rng.uniform(-math.pi, math.pi), rng.uniform(0.1, 1.4)
                axis = (math.cos(a), math.sin(a))
                narrow = ConeSpec(vertex=vertex, axis=axis, half_aperture=psi - margin)
                wide = ConeSpec(vertex=vertex, axis=axis, half_aperture=psi + margin)
                meets = bool(cone_contains_many(narrow, away).any())
                if not meets and cone_contains_many(wide, away).any():
                    continue
                cone = ConeSpec(vertex=vertex, axis=axis, half_aperture=psi)
                assert cone_avoids_shape(cone, shape) == (not meets), (shape, cone)
                counts[where, meets] = counts.get((where, meets), 0) + 1
    # every placement is decided many times, with both outcomes off the shape
    assert counts.get(("outside", True), 0) > 20 and counts.get(("outside", False), 0) > 20
    assert counts.get(("boundary", True), 0) > 20 and counts.get(("boundary", False), 0) > 20
    assert counts.get(("inside", True), 0) > 20 and ("inside", False) not in counts


def test_cone_avoids_polygon_and_ellipse():
    cone = ConeSpec(vertex=(3.0, 0.0), axis=(1.0, 0.0), half_aperture=0.6)
    assert cone_avoids_shape(cone, ShapeSpec.polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]))
    assert cone_avoids_shape(cone, ShapeSpec.ellipse((0.0, 0.0), (0.6, 0.3), 0.4))
    back = ConeSpec(vertex=(3.0, 0.0), axis=(-1.0, 0.0), half_aperture=0.6)
    assert not cone_avoids_shape(back, ShapeSpec.polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]))
    assert not cone_avoids_shape(back, ShapeSpec.ellipse((0.0, 0.0), (0.6, 0.3), 0.4))


def test_critical_offset_matches_hand_geometry():
    # head-on probing of a centered disk: contact when the vertex reaches the rim
    d = ShapeSpec.disk((0.3, 0.0), 0.3)
    y = np.array([3.0, 0.0])
    th = np.array([1.0, 0.0])
    t = critical_cone_offset(y, th, math.pi / 4, d, -6.0, -0.05)
    assert t == pytest.approx(-(2.7 - 0.3), abs=1e-8)


def test_critical_offset_requires_bracketing():
    d = ShapeSpec.disk((0.3, 0.0), 0.3)
    with pytest.raises(ProbeError):
        critical_cone_offset(np.array([3.0, 0.0]), np.array([1.0, 0.0]),
                             math.pi / 4, d, -0.4, -0.05)


def test_probe_spec_validation():
    with pytest.raises(ProbeError):
        ProbeSpec(kind="cgo", theta=(1.0, 0.1), theta_perp=(0.0, 1.0), t=0.0, tau=[1.0])
    with pytest.raises(ProbeError):
        ProbeSpec(kind="cgo", theta=(1.0, 0.0), theta_perp=(1.0, 0.0), t=0.0, tau=[1.0])
    with pytest.raises(ProbeError):
        ProbeSpec(kind="mittag_leffler", theta=(1.0, 0.0), theta_perp=(0.0, 1.0),
                  t=0.0, tau=[1.0])  # missing vertex and order


def test_probe_spec_tau_is_a_non_empty_ladder():
    # a probe is evaluated over a tau ladder, a 1-D array with at least one
    # entry: one tau is a one-entry ladder, kept as a float array
    for tau in (2.0, [[1.0, 2.0]], []):
        with pytest.raises(ProbeError, match="ladder"):
            cgo_spec(tau=tau)
    ladder = cgo_spec(tau=[2]).tau
    assert ladder.dtype == float and ladder.tolist() == [2.0]
