import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import wofz

from enclosure2d.mittag import (MLError, MLParams, growth_sector, ml_deriv,
                                ml_eval, ml_eval_many)

mp.mp.dps = 220


def series_oracle(alpha, z, beta=1.0):
    """Extended-precision truncated series.  The order parameter is kept as the
    exact binary double throughout: the sum is violently sensitive to per-term
    rounding of the gamma arguments in the cancelling regime."""
    al = mp.mpf(alpha)
    be = mp.mpf(beta)
    zc = mp.mpc(complex(z).real, complex(z).imag)
    s = mp.mpc(0)
    for n in range(0, 12000):
        t = zc ** n / mp.gamma(al * n + be)
        s += t
        if n > 10 and abs(t) < mp.mpf(10) ** (-140) * max(abs(s), mp.mpf(1)):
            break
    return complex(s)


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
    rng = np.random.default_rng(42)
    p = MLParams(alpha=alpha)
    for _ in range(25):
        z = rng.uniform(0.05, 5.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = ml_eval(p, z)
        o = series_oracle(alpha, z)
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
    rng = np.random.default_rng(9)
    for alpha in (0.3, 0.5, 0.8):
        p = MLParams(alpha=alpha)
        for _ in range(10):
            z = rng.uniform(0.1, 4.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
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
    # same argument evaluated by adjacent methods agrees within 10x accuracy
    # wherever the series certifies itself (the dispatcher's switch points)
    from enclosure2d.mittag import _asymptotic, _contour_point, _taylor
    for alpha in (0.5, 0.8):
        p = MLParams(alpha=alpha)
        checked = 0
        for ang in (0.1, 0.3, 2.5, 3.0):
            z = np.array([p.r_small * np.exp(1j * ang)])
            tv, cert = _taylor(p, z, alpha, 1.0)
            if not cert[0]:
                continue
            cv = _contour_point(p, complex(z[0]), alpha, 1.0)
            assert abs(tv[0] - cv) <= 10 * p.accuracy * abs(cv)
            checked += 1
        assert checked >= 1
        z = complex(p.r_large * np.exp(1j * 2.5))
        cv = _contour_point(p, z, alpha, 1.0)
        av = _asymptotic(p, np.array([z]), alpha, 1.0)[0]
        assert abs(cv - av) <= 10 * p.accuracy * abs(av)


def test_parameter_validation():
    with pytest.raises(MLError):
        MLParams(alpha=0.0)
    with pytest.raises(MLError):
        MLParams(alpha=1.2)
    with pytest.raises(MLError):
        MLParams(alpha=0.5, accuracy=0.5)
    with pytest.raises(MLError):
        MLParams(alpha=0.5, r_small=40.0, r_large=30.0)


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
    # log(DBL_MAX) ~ 709.78; z = 26.56 takes the kernel path and
    # z = 32 +- 17.92i the sector expansion
    ref = wofz(-1j * z)
    val = ml_eval(MLParams(alpha=0.5), z)
    assert np.isfinite(val)
    assert abs(val - ref) <= 1e-10 * abs(ref)
