import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import wofz

from enclosure2d.mittag import (MLAccuracyWarning, MLError, MLParams, growth_sector,
                                ml_deriv, ml_deriv_many, ml_eval, ml_eval_many)
from ml_oracle import band08_points, load, series42_points, series_oracle


def test_exponential_special_case():
    p = MLParams(alpha=1.0)
    assert ml_eval(p, 1.0) == pytest.approx(math.e, rel=1e-12)
    assert ml_eval(p, 2.3 - 0.7j) == pytest.approx(np.exp(2.3 - 0.7j), rel=1e-12)


def test_value_at_origin_is_one():
    for alpha in (0.3, 0.5, 0.8, 1.0):
        assert ml_eval(MLParams(alpha=alpha), 0.0) == pytest.approx(1.0)


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
    assert ml_deriv(MLParams(alpha=1.0), 0.0) == pytest.approx(1.0)
    # first series coefficient: 1 / Gamma(1 + alpha)
    assert ml_deriv(MLParams(alpha=0.5), 0.0) == pytest.approx(2 / math.sqrt(math.pi), rel=1e-12)


def test_deriv_matches_finite_difference():
    p = MLParams(alpha=0.5)
    z = 2.0 + 1.0j
    h = 1e-5
    fd = (ml_eval(p, z + h) - ml_eval(p, z - h)) / (2 * h)
    assert ml_deriv(p, z) == pytest.approx(fd, rel=1e-6)


def test_deriv_against_series_oracle():
    # seeded points with 0.1 <= |z| <= 4, and tiny ones down to a subnormal
    # |z| = 1e-320, where the contour rule meets z without a pole
    rng = np.random.default_rng(9)
    for alpha in (0.3, 0.5, 0.8):
        p = MLParams(alpha=alpha)
        tiny = [1e-12, 1e-12 * np.exp(2.0j), 1e-320, -1e-320j]
        for z in [rng.uniform(0.1, 4.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
                  for _ in range(10)] + tiny:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                v = ml_deriv(p, z)
            o = series_oracle(alpha, z, beta=alpha) / alpha
            assert abs(v - o) <= 2e-9 * abs(o)


def test_growth_sector_classification():
    assert growth_sector(0.5, 1.0) == "exponential_growth"
    assert growth_sector(0.5, -1.0) == "algebraic_decay"
    assert growth_sector(1.0, 1j) == "boundary"
    with pytest.raises(MLError):
        growth_sector(0.5, 0.0)


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
            assert abs(np.conj(a) - b) <= 1e-12 * max(abs(a), 1e-300)


def test_regime_stitching_continuity():
    # the contour rule hands off to the sector expansion at r_large; both
    # agree there within 10x accuracy
    from enclosure2d.mittag import _asymptotic, _contour
    for alpha in (0.5, 0.8):
        p = MLParams(alpha=alpha)
        z = np.array([p.r_large * np.exp(1j * 2.5)])
        cv = _contour(p, z, alpha, 1.0)[0]
        av = _asymptotic(p, z, alpha, 1.0)[0]
        assert abs(cv - av) <= 10 * p.accuracy * abs(av)


def test_parameter_validation():
    with pytest.raises(MLError):
        MLParams(alpha=0.0)
    with pytest.raises(MLError):
        MLParams(alpha=1.2)
    with pytest.raises(MLError):
        MLParams(alpha=0.5, accuracy=0.5)
    # the order and the accuracy are the only settable values
    with pytest.raises(TypeError):
        MLParams(alpha=0.5, r_large=40.0)
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
    # log(DBL_MAX) ~ 709.78; z = 26.56 takes the contour rule and
    # z = 32 +- 17.92i the sector expansion
    ref = wofz(-1j * z)
    val = ml_eval(MLParams(alpha=0.5), z)
    assert np.isfinite(val)
    assert abs(val - ref) <= 1e-10 * abs(ref)


def _mixed_batch(alpha):
    """Points of every evaluation path: zero; the contour rule at small |z|,
    with and without a pole (12 + 5j and -8 + 3j for alpha = 1/2), just past
    |z| = 5, at a decaying |z| = 4, and on and near the sector edge
    |arg z| = pi*alpha; and the sector expansion."""
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
        for many, one in ((ml_eval_many, ml_eval), (ml_deriv_many, ml_deriv)):
            batch = many(p, zs)
            singles = np.array([one(p, z) for z in zs])
            np.testing.assert_allclose(batch, singles, rtol=1e-14, atol=0)
            assert many(p, zs[:0]).shape == (0,)
            np.testing.assert_allclose(many(p, zs[4:5]), singles[4:5], rtol=1e-14, atol=0)


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


def test_asymptotic_tail_stops_per_point():
    # each point's algebraic tail stops on its own increments, so its value is
    # the same alone and inside a batch
    p = MLParams(alpha=0.5)
    zs = np.concatenate([[35 + 2j], 31.0 * np.exp(1j * np.linspace(-3.0, 3.0, 14))])
    assert np.all(np.abs(zs) >= p.r_large)
    batch = ml_eval_many(p, zs)
    assert batch[0] == ml_eval(p, 35 + 2j)
    assert np.array_equal(batch, [ml_eval(p, z) for z in zs])


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
    # at a coarser tolerance, so each is uncertified; zero and the
    # sector-expansion point are not
    import enclosure2d.mittag as mittag
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
    assert len(batch) == len(singles) == 13    # the 13 contour points


def test_high_accuracy_batch_matches_per_point_and_oracle():
    # accuracy 1e-14 asks for a contour tolerance below double precision:
    # each point runs at the finest one without raising and is flagged once,
    # alone and in the batch; near the sector edge it still meets wofz
    k = np.arange(48)
    z = (5.3 + 1.5 * k / 48) * np.exp(1j * (-1) ** k * (math.pi / 2 - 1.05e-3 - 6e-5 * (k % 7)))
    p = MLParams(alpha=0.5, accuracy=1e-14)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = ml_eval_many(p, z)
        singles = np.array([ml_eval(p, x) for x in z])
    assert sum(issubclass(w.category, MLAccuracyWarning) for w in caught) == 2 * z.size
    np.testing.assert_allclose(batch, singles, rtol=1e-14, atol=0)
    np.testing.assert_allclose(batch, wofz(-1j * z), rtol=1e-12, atol=0)
