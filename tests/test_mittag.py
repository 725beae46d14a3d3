import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import wofz

import enclosure2d.mittag as mittag
from enclosure2d.mittag import (MLAccuracyWarning, MLError, MLParams, ml_deriv_many,
                                ml_eval, ml_eval_many, sectors)
from ml_oracle import (band08_points, erfc_oracle, erfc_points, far_points, load,
                       series9_points, series42_points)


def test_exponential_special_case():
    p = MLParams(alpha=1.0)
    assert ml_eval(p, 1.0) == pytest.approx(math.e, rel=1e-12)
    assert ml_eval(p, 2.3 - 0.7j) == pytest.approx(np.exp(2.3 - 0.7j), rel=1e-12)


def test_value_at_origin_is_one():
    for alpha in (0.3, 0.5, 0.8, 1.0):
        assert ml_eval(MLParams(alpha=alpha), 0.0) == 1.0


def test_half_order_at_one():
    # equals exp(z^2) erfc(-z) at z = 1
    val = ml_eval(MLParams(alpha=0.5), 1.0)
    ref = math.e * float(mp.erfc(-1))
    assert val.real == pytest.approx(5.00898, abs=5e-6)
    assert val == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_accuracy_against_series_oracle(alpha):
    # 25 seeded points with |z| <= 5 against the stored 220-digit series
    zs, oracle = load("series42", alpha)
    np.testing.assert_array_equal(series42_points(alpha), zs)
    p = MLParams(alpha=alpha)
    for z, o in zip(zs, oracle):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = ml_eval(p, z)
        assert abs(v - o) <= 1e-9 * abs(o)


def test_deriv_at_origin():
    assert ml_deriv_many(MLParams(alpha=1.0), np.array([0.0]))[0] == 1.0
    # first series coefficient 1 / Gamma(1 + alpha), from 1 / Gamma(alpha) / alpha
    for alpha in (0.3, 0.5, 0.8):
        ref = float(1 / mp.gamma(1 + mp.mpf(alpha)))
        v = ml_deriv_many(MLParams(alpha=alpha), np.array([0.0]))[0]
        assert v.imag == 0.0 and abs(v.real - ref) <= math.ulp(ref)


def test_deriv_matches_finite_difference():
    p = MLParams(alpha=0.5)
    z = 2.0 + 1.0j
    h = 1e-5
    fd = (ml_eval(p, z + h) - ml_eval(p, z - h)) / (2 * h)
    assert ml_deriv_many(p, np.array([z]))[0] == pytest.approx(fd, rel=1e-6)


def test_deriv_against_series_oracle():
    # seeded points with 0.1 <= |z| <= 4, and tiny ones down to a subnormal
    # |z| = 1e-320, where the contour rule meets z without a pole, against the
    # stored 220-digit series of E_{alpha,alpha}
    for alpha, points in series9_points().items():
        zs, oracle = load("series9_deriv", alpha)
        np.testing.assert_array_equal(points, zs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = ml_deriv_many(MLParams(alpha=alpha), zs)
        o = oracle / alpha
        assert (np.abs(v - o) <= 1e-10 * np.abs(o)).all()


def test_growth_sector_classification():
    assert sectors(0.5, np.array([1.0, -1.0, 0.0])).tolist() == [
        "exponential_growth", "algebraic_decay", "origin"]
    assert sectors(1.0, np.array([1j]))[0] == "boundary"


def test_growth_ray_asymptotic_ratio_decreases():
    for alpha in (0.3, 0.5, 0.8):
        p = MLParams(alpha=alpha)
        ang = math.pi * alpha / 2 * (1 - 1e-6)
        devs = []
        for r in (50.0, 100.0, 200.0):
            z = r * np.exp(1j * ang)
            v = ml_eval(p, z)
            asym = (1 / alpha) * np.exp(np.exp(np.log(z) / alpha))
            devs.append(abs(v / asym - 1))
        assert devs[0] > devs[1] >= devs[2]


def test_decay_ray_approaches_leading_term():
    from scipy.special import gamma
    for alpha in (0.3, 0.5, 0.8):
        p = MLParams(alpha=alpha)
        devs = []
        for r in (50.0, 100.0, 200.0):
            z = complex(-r)
            devs.append(abs(z * ml_eval(p, z) + 1 / gamma(1 - alpha)))
        assert devs[0] > devs[1] > devs[2]


def test_conjugation_symmetry():
    rng = np.random.default_rng(17)
    for alpha in (0.3, 0.5, 0.8):
        p = MLParams(alpha=alpha)
        for _ in range(20):
            z = rng.uniform(0.1, 25.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                a = ml_eval(p, z)
                b = ml_eval(p, np.conj(z))
            if not (np.isfinite(a) and np.isfinite(b)):
                continue  # genuine double-range overflow; nothing to compare
            assert np.conj(a) == b


def test_parameter_validation():
    with pytest.raises(MLError):
        MLParams(alpha=0.0)
    with pytest.raises(MLError):
        MLParams(alpha=1.2)
    # the order is the only settable value
    for extra in ({"accuracy": 1e-12}, {"r_large": 40.0}):
        with pytest.raises(TypeError):
            MLParams(alpha=0.5, **extra)
    assert (MLParams(alpha=0.5).r_small, MLParams(alpha=0.5).r_large) == (5.0, 30.0)


def test_vectorized_matches_scalar():
    p = MLParams(alpha=0.5)
    zs = np.array([0.3 + 0.1j, -2.0, 4.0 + 3.0j, 1e-3j, 40.0 * np.exp(2.9j)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = ml_eval_many(p, zs)
        singles = np.array([ml_eval(p, z) for z in zs])
    assert np.allclose(batch, singles, rtol=1e-13, atol=0)


@pytest.mark.parametrize("z", [26.56, 32 + 17.92j, 32 - 17.92j])
def test_values_near_double_overflow_stay_finite(z):
    # E_1/2(z) = exp(z^2) erfc(-z) stays finite until Re z^2 reaches
    # log(DBL_MAX) ~ 709.78; at z = 32 +- 17.92i the contour rule adds a
    # residue just below that
    ref = wofz(-1j * z)
    val = ml_eval(MLParams(alpha=0.5), z)
    assert np.isfinite(val)
    assert abs(val - ref) <= 1e-10 * abs(ref)


def _mixed_batch(alpha):
    """Points of every evaluation path: zero; and the contour rule at small
    |z|, with and without a pole (12 + 5j and -8 + 3j for alpha = 1/2), just
    past |z| = 5, at a decaying |z| = 4, on and near the sector edge
    |arg z| = pi*alpha, and past r_large at |z| = 40."""
    edge = math.pi * alpha
    return np.array([0.0, 0.3 + 0.1j, -2.0, 1e-3j,
                     12 + 5j, -8 + 3j, 20 - 3j, 26.56,
                     5.1 * np.exp(0.3j), 5.2 * np.exp(-2.9j), 4.0 * np.exp(2.5j),
                     4.3 * np.exp(1j * edge), 4.45 * np.exp(-1j * (edge - 5e-4)),
                     4.8 * np.exp(1j * edge), 40 * np.exp(2.9j)])


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_batch_matches_per_point_on_every_path(alpha):
    p = MLParams(alpha=alpha)
    zs = _mixed_batch(alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for many in (ml_eval_many, ml_deriv_many):
            batch = many(p, zs)
            singles = np.array([many(p, np.array([z]))[0] for z in zs])
            np.testing.assert_array_equal(batch, singles)
            assert many(p, zs[:0]).shape == (0,)
            np.testing.assert_array_equal(many(p, zs[4:5]), singles[4:5])


@pytest.mark.parametrize("alpha, z", [(0.5, 40.0), (0.3, 20.0)])
def test_deriv_overflow_is_infinite_not_nan(alpha, z):
    # E_{alpha,alpha} overflows to inf+0j there; dividing by alpha must not
    # turn it into inf+nanj
    p = MLParams(alpha=alpha)
    zs = np.array([z, z * np.exp(0.1j), -z, 2.0])
    d = ml_deriv_many(p, zs)
    assert not np.isnan(d).any()
    np.testing.assert_array_equal(np.isfinite(d), np.isfinite(ml_eval_many(p, zs)))
    assert not np.isfinite(d[0])


def test_deriv_overflowing_in_the_division_is_inf():
    # E_{1/2,1/2}(26.56) is finite, about 1.2e308, and twice it passes double
    # range
    p = MLParams(alpha=0.5)
    assert np.isfinite(ml_eval(p, 26.56))
    assert ml_deriv_many(p, np.array([26.56]))[0] == complex(np.inf, 0.0)


def test_kernel_band_matches_oracle():
    # E_1/2(z) = wofz(-iz) for 5 <= |z| <= 30; the sample avoids double
    # overflow
    rng = np.random.default_rng(5)
    z = rng.uniform(5.0, 30.0, 300) * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))
    ref = wofz(-1j * z)
    keep = np.isfinite(ref)
    val = ml_eval_many(MLParams(alpha=0.5), z[keep])
    assert keep.sum() > 250
    assert np.all(np.abs(val - ref[keep]) <= 1e-10 * np.abs(ref[keep]))


def test_series_band_matches_wofz():
    # the |z| <= 5 points of the mlgrid benchmark grid (spacing 0.32), which
    # the contour rule serves like every nonzero |z| below r_large
    g = np.linspace(-32, 32, 201)
    z = (g[None, :] + 1j * g[:, None]).ravel()
    z = z[np.abs(z) <= 5.0]
    ref = wofz(-1j * z)
    val = ml_eval_many(MLParams(alpha=0.5), z)
    assert np.all(np.abs(val - ref) <= 1e-10 * np.abs(ref))


def test_sector_edge_matches_wofz():
    # on and within 1e-3 rad of |arg z| = pi/2, where the pole s* = z^2 meets
    # the branch cut, for alpha = 1/2
    r = np.linspace(3.5, 4.9, 15)[:, None]
    ang = math.pi / 2 + np.array([-1e-3, -5e-4, -1e-5, 0.0, 1e-5, 5e-4, 1e-3])
    z = (r * np.exp(1j * np.concatenate([ang, -ang]))).ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("error", MLAccuracyWarning)
        val = ml_eval_many(MLParams(alpha=0.5), z)
    ref = wofz(-1j * z)
    assert np.all(np.abs(val - ref) <= 1e-10 * np.abs(ref))


def test_alpha_08_band_matches_series():
    # 12 < |z| < 17 near |arg z| = 0.55 pi, against the stored 220-digit series
    zs, oracle = load("band08", 0.8)
    np.testing.assert_array_equal(band08_points(), zs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MLAccuracyWarning)
        val = ml_eval_many(MLParams(alpha=0.8), zs)
    assert np.all(np.abs(val - oracle) <= 1e-10 * np.abs(oracle))


def test_one_warning_per_uncertified_point(monkeypatch):
    # below the smallest node count every contour point hits the cap and runs
    # at a coarser tolerance, so each is uncertified; zero is not
    monkeypatch.setattr(mittag, "_MAX_NODES", 10)
    p = MLParams(alpha=0.5)
    zs = _mixed_batch(0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ml_eval_many(p, zs)
    batch = [w for w in caught if issubclass(w.category, MLAccuracyWarning)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for z in zs:
            ml_eval(p, z)
    singles = [w for w in caught if issubclass(w.category, MLAccuracyWarning)]
    assert len(batch) == len(singles) == 14    # the 14 contour points


def _assert_certified(many, alpha, zs, oracle):
    """many(zs) within 1e-10 of oracle, with no MLAccuracyWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", MLAccuracyWarning)
        val = many(MLParams(alpha=alpha), zs)
    assert np.all(np.abs(val - oracle) <= 1e-10 * np.abs(oracle))


@pytest.mark.parametrize("alpha", [0.7, 0.8])
def test_far_band_matches_series(alpha):
    # 30 <= |z| <= 45 at every argument, against the stored 220-digit series
    zs, oracle = load("far", alpha)
    np.testing.assert_array_equal(far_points(alpha), zs)
    _assert_certified(ml_eval_many, alpha, zs, oracle)


@pytest.mark.parametrize("alpha", [0.7, 0.8])
def test_far_band_deriv_matches_series(alpha):
    # the same points for E_alpha' = E_{alpha,alpha} / alpha
    zs, oracle = load("far_deriv", alpha)
    np.testing.assert_array_equal(far_points(alpha), zs)
    _assert_certified(ml_deriv_many, alpha, zs, oracle / alpha)


def test_half_order_deriv_matches_erfc():
    # 5 <= |z| <= 30 against the closed form of E_{1/2,1/2}; where it decays
    # it is about |z| times smaller than the contour rule's integrand
    zs, oracle = load("erfc_deriv", 0.5)
    np.testing.assert_array_equal(erfc_points(), zs)
    _assert_certified(ml_deriv_many, 0.5, zs, oracle / 0.5)


def test_deriv_uncertified_beyond_deriv_radius():
    # E_{alpha,alpha} is certified up to |z| = 1,000, and meets the target
    # there; a point beyond raises one warning, and E_alpha there none
    p = MLParams(alpha=0.5)
    near, far = 900.0 * np.exp(2.5j), 2000.0 * np.exp(2.5j)
    for z, many, expected in ((near, ml_deriv_many, 0), (far, ml_deriv_many, 1),
                              (far, ml_eval_many, 0)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            many(p, np.array([z]))
        assert sum(issubclass(w.category, MLAccuracyWarning) for w in caught) == expected
    o = erfc_oracle(near) / 0.5
    assert abs(ml_deriv_many(p, np.array([near]))[0] - o) <= 1e-10 * abs(o)


def test_grid_levels_bracket_the_pole_level():
    # the region below the pole is laid out for the level at or below phi and
    # the region beyond it for the level at or above; on a level, and one ulp
    # either side of it
    k = np.arange(-60, 61)
    level = mittag._level(k)
    phi = np.concatenate([level, np.nextafter(level, 0), np.nextafter(level, np.inf)])
    lo, hi = mittag._grid_indices(phi)
    assert np.all(mittag._level(lo) <= phi) and np.all(phi <= mittag._level(hi))
    np.testing.assert_array_equal(hi - lo, (mittag._level(lo) != phi).astype(float))
    np.testing.assert_array_equal(lo[:k.size], k)
    # so the contour lies at least as far from the pole as the one laid out
    # for that level: below the pole for lo, beyond it for hi
    lo, hi = mittag._level(lo), mittag._level(hi)
    log_eps = math.log(1e-12)
    mu, _, _, left = mittag._contour_params(lo, hi, np.ones(phi.size, dtype=bool), log_eps)
    assert 0 < left.sum() < left.size
    np.testing.assert_array_equal(mu[left], mittag._region_below(lo[left], log_eps)[0])
    np.testing.assert_array_equal(mu[~left], mittag._region_above(hi[~left], True, log_eps)[0])


def _level_points(alpha):
    """Points whose pole level phi lies on a contour level, and just below
    and just above one, found among ulp steps of z; and points on and near
    the sector edge |arg z| = pi*alpha."""
    steps = 1.0 + 2.0 ** -52 * np.arange(-16, 17)
    pts = []
    for k in range(-7, 22, 4):
        found = set()
        for u in (0.8, 2.0):
            z0 = np.exp(alpha * np.log(mittag._level(k) * (1 + 1j * u) ** 2))
            cand = (z0.real * steps[:, None] + 1j * z0.imag * steps).ravel()
            key = mittag._contour_key(cand, alpha)
            for c in (2 * k - 1, 2 * k, 2 * k + 1):     # below, on, above the level
                hit = np.flatnonzero(key == c)
                if hit.size:
                    found.add(c)
                    pts.append(cand[hit[0]])
        assert found == {2 * k - 1, 2 * k, 2 * k + 1}
    for r in (2.5, 4.0):
        for d in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3):
            pts += [r * np.exp(1j * (math.pi * alpha + d)), r * np.exp(-1j * (math.pi * alpha + d))]
    return np.array(pts)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_shared_contours_match_per_point_values(alpha):
    # beta = 1 and beta = alpha; at alpha = 1/2 against E = wofz(-iz) and
    # E' = 2zE + 2/sqrt(pi)
    zs = _level_points(alpha)
    p = MLParams(alpha=alpha)
    for many in (ml_eval_many, ml_deriv_many):
        np.testing.assert_array_equal(many(p, zs), [many(p, np.array([z]))[0] for z in zs])
    if alpha == 0.5:
        e = wofz(-1j * zs)
        assert np.all(np.abs(ml_eval_many(p, zs) - e) <= 1e-10 * np.abs(e))
        d = 2 * zs * e + 2 / math.sqrt(math.pi)
        assert np.all(np.abs(ml_deriv_many(p, zs) - d) <= 1e-10 * np.abs(d))


def _cone_ladder():
    """A tau ladder shaped like the cone benchmark's: 16 taus from 0.35 to
    2.4 times the probe argument at 594 boundary points, for the vertex
    (3, 0) probing at 70 degrees with t = -0.7."""
    ang = 2 * math.pi * np.arange(594) / 594
    th = np.array([math.cos(math.radians(70)), math.sin(math.radians(70))])
    d = np.stack([np.cos(ang), np.sin(ang)], axis=1) - [3.0, 0.0]
    w = (d @ th + 0.7) + 1j * (d @ [-th[1], th[0]])
    return np.multiply.outer(np.geomspace(0.35, 2.4, 16), w).ravel()


@pytest.mark.parametrize("alpha, ladder, batch, chunk", [
    (0.5, False, 1, 1), (0.8, False, 4, 7), (0.5, True, 1000, 1)])
def test_values_do_not_depend_on_slices_or_chunks(monkeypatch, alpha, ladder, batch, chunk):
    zs = _cone_ladder() if ladder else _mixed_batch(alpha)
    p = MLParams(alpha=alpha)
    ref = [ml_eval_many(p, zs), ml_deriv_many(p, zs)]
    monkeypatch.setattr(mittag, "_BATCH", batch)
    monkeypatch.setattr(mittag, "_CHUNK", chunk)
    np.testing.assert_array_equal(ml_eval_many(p, zs), ref[0])
    np.testing.assert_array_equal(ml_deriv_many(p, zs), ref[1])


@pytest.mark.parametrize("z", [1e300, -1e300, 1e300j, 1e-300j])
def test_huge_and_tiny_arguments_evaluate_without_warnings(z):
    # E_1/2 = wofz(-iz), which overflows at z = 1e300 just as E does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = ml_eval(MLParams(alpha=0.5), z)
    ref = wofz(-1j * z)
    if np.isfinite(ref):
        assert abs(val - ref) <= 1e-10 * abs(ref)
    else:
        assert val == complex(np.inf, 0.0)


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(1.0, np.nan)])
def test_non_finite_argument_raises(z):
    for alpha in (0.5, 1.0):
        with pytest.raises(MLError):
            ml_eval(MLParams(alpha=alpha), z)
        with pytest.raises(MLError):
            ml_deriv_many(MLParams(alpha=alpha), np.array([1.0, z]))
