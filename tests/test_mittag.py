import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import wofz

from enclosure2d.mittag import (MLAccuracyWarning, MLError, MLParams, growth_sector,
                                ml_deriv, ml_deriv_many, ml_eval, ml_eval_many)

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
    from enclosure2d.mittag import _asymptotic, _kernel, _taylor
    for alpha in (0.5, 0.8):
        p = MLParams(alpha=alpha)
        checked = 0
        for ang in (0.1, 0.3, 2.5, 3.0):
            z = np.array([p.r_small * np.exp(1j * ang)])
            tv, cert = _taylor(p, z, alpha, 1.0)
            if not cert[0]:
                continue
            cv = _kernel(p, z, alpha, 1.0)[0]
            assert abs(tv[0] - cv) <= 10 * p.accuracy * abs(cv)
            checked += 1
        assert checked >= 1
        z = np.array([p.r_large * np.exp(1j * 2.5)])
        cv = _kernel(p, z, alpha, 1.0)[0]
        av = _asymptotic(p, z, alpha, 1.0)[0]
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


def _mixed_batch(alpha):
    """Points of every evaluation path: zero, certified series, kernel on the
    shared cut radius, kernel with its own cut radius (5 < |z| < 5.3 for
    alpha = 1/2, and a decaying |z| = 4 the series cannot certify), the
    sector-edge arc (for alpha = 1/2 the last of the three is past the arc's
    exponent cap), and the sector expansion."""
    edge = math.pi * alpha
    return np.array([0.0, 0.3 + 0.1j, -2.0, 1e-3j,
                     12 + 5j, -8 + 3j, 20 - 3j, 26.56,
                     5.1 * np.exp(0.3j), 5.2 * np.exp(-2.9j), 4.0 * np.exp(2.5j),
                     4.3 * np.exp(1j * edge), 4.45 * np.exp(-1j * (edge - 5e-4)),
                     4.8 * np.exp(1j * edge), 40 * np.exp(2.9j)])


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_batch_matches_per_point_on_every_path(alpha):
    from enclosure2d.mittag import _kernel_cut_radius, _near_edge
    p = MLParams(alpha=alpha)
    zs = _mixed_batch(alpha)
    assert _near_edge(p, zs[11:14], alpha).all()
    if alpha == 0.5:
        radii = _kernel_cut_radius(p.accuracy, alpha, np.abs(zs[4:11]))
        assert len(np.unique(radii)) == 4      # one shared radius, three own
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for many, one in ((ml_eval_many, ml_eval), (ml_deriv_many, ml_deriv)):
            batch = many(p, zs)
            singles = np.array([one(p, z) for z in zs])
            np.testing.assert_allclose(batch, singles, rtol=1e-14, atol=0)
            assert many(p, zs[:0]).shape == (0,)
            np.testing.assert_allclose(many(p, zs[4:5]), singles[4:5], rtol=1e-14, atol=0)


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
    # E_1/2(z) = wofz(-iz); the sample avoids the arc band and double overflow
    rng = np.random.default_rng(5)
    z = rng.uniform(5.0, 30.0, 300) * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))
    ref = wofz(-1j * z)
    keep = np.isfinite(ref)
    val = ml_eval_many(MLParams(alpha=0.5), z[keep])
    assert keep.sum() > 250
    assert np.all(np.abs(val - ref[keep]) <= 1e-10 * np.abs(ref[keep]))


def test_one_warning_per_uncertified_point(monkeypatch):
    # with a single panel level nothing can be compared, so every kernel and
    # arc point is uncertified; series and sector-expansion points are not
    import enclosure2d.mittag as mittag
    monkeypatch.setattr(mittag, "_MAX_PANELS", 8)
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
    assert len(batch) == len(singles) == 10    # 7 kernel + 3 arc points


def test_high_panel_batch_is_chunked_and_matches_per_point(monkeypatch):
    # near the sector edge the kernel pole sits just off the cut, so at
    # accuracy 1e-14 points double up to thousands of panels; a small chunk
    # bound splits those levels
    import enclosure2d.mittag as mittag
    monkeypatch.setattr(mittag, "_CHUNK", 1 << 13)
    calls = []
    kernel_sums = mittag._kernel_sums

    def spy(z, r, *args):
        calls.append((len(z), r.shape[-1]))
        return kernel_sums(z, r, *args)

    monkeypatch.setattr(mittag, "_kernel_sums", spy)
    k = np.arange(48)
    z = (5.3 + 1.5 * k / 48) * np.exp(1j * (-1) ** k * (math.pi / 2 - 1.05e-3 - 6e-5 * (k % 7)))
    p = MLParams(alpha=0.5, accuracy=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = ml_eval_many(p, z)
        n_batch = len(calls)
        singles = np.array([ml_eval(p, x) for x in z])
    np.testing.assert_allclose(batch, singles, rtol=1e-14, atol=0)
    np.testing.assert_allclose(batch, wofz(-1j * z), rtol=1e-12, atol=0)
    batch_calls = calls[:n_batch]
    assert max(nodes for _, nodes in batch_calls) >= 16384
    assert all(points * nodes <= max(mittag._CHUNK, nodes) for points, nodes in batch_calls)
    assert any(points * nodes == mittag._CHUNK for points, nodes in batch_calls)
