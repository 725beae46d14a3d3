"""Mittag-Leffler function E_a(z) and its derivative for complex arguments.

Evaluation switches between three methods: the defining power series for
small |z| (with a running cancellation guard), a real-line kernel integral of
Gorenflo-Loutchko-Luchko type at intermediate |z|, and the sector expansion
(exponential part plus an algebraic tail) at large |z|.  E_a grows like
exp(z^(1/a)) for |arg z| <= pi*a/2 and decays algebraically outside; the
principal branch of z^(1/a) is used throughout, so the growth region matches
the sector classifier exactly.

E_a'(z) is evaluated as E_{a,a}(z)/a; both the series and the integral kernels
are implemented for the two second parameters needed (beta = 1 and beta = a).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, rgamma

_GROWTH = "exponential_growth"
_DECAY = "algebraic_decay"
_BOUNDARY = "boundary"

_SECTOR_BAND = 1e-9          # radians; classification dead band
_CONTOUR_BAND = 1e-3         # |arg z| this close to pi*a goes through the arc path
_ARC_EXP_CAP = 25.0          # largest exponent the arc path can integrate accurately
_MAX_PANELS = 4096
_TINY = 1e-300
_EXP_MAX = math.log(np.finfo(float).max)   # largest real part exp() keeps finite


class MLError(ValueError):
    """Invalid Mittag-Leffler parameters or argument."""


class MLAccuracyWarning(UserWarning):
    """Requested accuracy could not be certified; best value returned."""


@dataclass(frozen=True)
class MLParams:
    """Evaluation parameters: order alpha in (0, 1], target relative accuracy,
    series truncation cap, and the method hand-off radii."""

    alpha: float
    accuracy: float = 1e-10
    max_terms: int = 600
    r_small: float = 5.0
    r_large: float = 30.0

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise MLError("alpha must lie in (0, 1]")
        if not (1e-15 < self.accuracy < 1e-2):
            raise MLError("accuracy must lie in (1e-15, 1e-2)")
        if not (0 < self.r_small < self.r_large):
            raise MLError("need 0 < r_small < r_large")
        if self.max_terms < 50:
            raise MLError("series truncation cap too small")


def growth_sector(alpha: float, z: complex) -> str:
    """Classify z against the growth sector |arg z| <= pi*alpha/2."""
    if not (0 < alpha <= 1):
        raise MLError("alpha must lie in (0, 1]")
    if z == 0:
        raise MLError("sector of z = 0 is undefined")
    gap = abs(abs(np.angle(complex(z))) - math.pi * alpha / 2)
    if gap <= _SECTOR_BAND:
        return _BOUNDARY
    return _GROWTH if abs(np.angle(complex(z))) < math.pi * alpha / 2 else _DECAY


def ml_eval(params: MLParams, z: complex) -> complex:
    """E_alpha(z) to the target relative accuracy."""
    return complex(ml_eval_many(params, np.array([z]))[0])


def ml_deriv(params: MLParams, z: complex) -> complex:
    """E_alpha'(z) = E_{alpha,alpha}(z) / alpha."""
    return complex(ml_deriv_many(params, np.array([z]))[0])


def ml_eval_many(params: MLParams, z) -> np.ndarray:
    return _eval_batch(params, np.asarray(z, dtype=complex), params.alpha, 1.0)


def ml_deriv_many(params: MLParams, z) -> np.ndarray:
    a = params.alpha
    if a == 1.0:
        return np.exp(np.asarray(z, dtype=complex))
    return _eval_batch(params, np.asarray(z, dtype=complex), a, a) / a


# ---------------------------------------------------------------------------
# dispatcher


def _eval_batch(params: MLParams, z: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    shape = z.shape
    zf = z.ravel()
    out = np.empty(zf.shape, dtype=complex)

    if alpha == 1.0 and beta == 1.0:
        return np.exp(zf).reshape(shape)

    zero = zf == 0
    out[zero] = rgamma(beta)

    small = (~zero) & (np.abs(zf) <= params.r_small)
    ok = np.zeros(zf.shape, dtype=bool)
    if small.any():
        vals, good = _taylor(params, zf[small], alpha, beta)
        idx = np.flatnonzero(small)
        out[idx[good]] = vals[good]
        ok[idx[good]] = True

    big = (~zero) & (~ok) & (np.abs(zf) >= params.r_large)
    if big.any():
        out[big] = _asymptotic(params, zf[big], alpha, beta)

    rest = (~zero) & (~ok) & (~big)
    for i in np.flatnonzero(rest):
        out[i] = _contour_point(params, complex(zf[i]), alpha, beta)
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# power series with cancellation guard


@lru_cache(maxsize=32)
def _term_ratios(alpha: float, beta: float, n: int) -> np.ndarray:
    """ratios[k] = Gamma(alpha(k-1)+beta) / Gamma(alpha k + beta), k = 1..n,
    computed in log space so the series recurrence never overflows early."""
    k = np.arange(n + 1)
    lg = gammaln(alpha * k + beta)
    return np.exp(lg[:-1] - lg[1:])


# Effective epsilon for the cancellation guard.  Rounding of the gamma-function
# arguments is amplified by psi(alpha*n + beta) * alpha * n, so the usable
# precision in a heavily cancelling sum is well below machine epsilon.
_GUARD_EPS = 1e-13


def _taylor(params: MLParams, z: np.ndarray, alpha: float, beta: float):
    """Vectorized truncated series.  Returns (values, certified) where
    ``certified`` is False for points whose running cancellation would eat the
    accuracy target; those are rerouted to the kernel integral."""
    ratios = _term_ratios(alpha, beta, params.max_terms)
    s = np.full(z.shape, complex(rgamma(beta)), dtype=complex)
    term = s.copy()
    peak = np.abs(s)
    active = np.ones(z.shape, dtype=bool)
    tol = params.accuracy
    for n in range(1, params.max_terms + 1):
        term = term * z * ratios[n - 1]
        s = np.where(active, s + term, s)
        mag = np.abs(term)
        peak = np.maximum(peak, np.where(active, mag, 0.0))
        # stop once terms are past their hump and negligible
        done = active & (mag <= tol * np.maximum(np.abs(s), _TINY)) & (mag <= peak * 1e-6)
        active &= ~done
        if not active.any():
            break
    converged = (~active) & np.isfinite(s)
    certified = converged & (peak * _GUARD_EPS <= tol * np.maximum(np.abs(s), _TINY))
    return s, certified


# ---------------------------------------------------------------------------
# sector expansion


def _asymptotic(params: MLParams, z: np.ndarray, alpha: float, beta: float,
                max_alg: int = 10) -> np.ndarray:
    """Exponential part (inside |arg z| <= pi*alpha) plus the algebraic tail,
    carried until the increment drops below the accuracy target."""
    out = np.zeros(z.shape, dtype=complex)
    arg = np.angle(z)
    inside = np.abs(arg) <= math.pi * alpha
    if inside.any():
        w = np.exp(np.log(z[inside]) / alpha)     # principal branch of z^(1/alpha)
        pre = np.exp(np.log(z[inside]) * ((1 - beta) / alpha)) if beta != 1.0 else 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            val = (1.0 / alpha) * pre * np.exp(np.where(w.real > _EXP_MAX, 0.0, w))
        # values past double range are reported as a clean complex infinity
        out[inside] = np.where((w.real > _EXP_MAX) | ~np.isfinite(val),
                               complex(np.inf, 0.0), val)
    tail = np.zeros(z.shape, dtype=complex)
    zinv = 1.0 / z
    p = np.ones(z.shape, dtype=complex)
    small_runs = 0
    for k in range(1, max_alg + 1):
        p = p * zinv
        inc = p * rgamma(beta - alpha * k)
        tail -= inc
        # a reciprocal-gamma pole gives a spurious zero increment, so require
        # two consecutive increments below target before stopping
        if np.all(np.abs(inc) <= params.accuracy * np.maximum(np.abs(out + tail), _TINY)):
            small_runs += 1
            if small_runs >= 2:
                break
        else:
            small_runs = 0
    return out + tail


# ---------------------------------------------------------------------------
# kernel integral (intermediate |z|)


@lru_cache(maxsize=4)
def _gauss_rule(n: int = 16):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _composite_gauss(f, a: float, b: float, tol: float):
    """Composite Gauss-Legendre with panel doubling until stable."""
    x0, w0 = _gauss_rule()
    prev = None
    n = 8
    while n <= _MAX_PANELS:
        edges = np.linspace(a, b, n + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1] - edges[0])
        pts = (mid + half * x0[None, :]).ravel()
        vals = f(pts).reshape(n, -1)
        total = half * np.sum(vals @ w0)
        if prev is not None and abs(total - prev) <= tol * max(abs(total), _TINY):
            return total, True
        prev = total
        n *= 2
    return prev, False


def _kernel_cut_radius(accuracy: float, alpha: float, absz: float) -> float:
    rc = (-2.0 * math.log(accuracy * math.pi / 6.0)) ** alpha
    if absz ** (1.0 / alpha) > -math.log(accuracy) + 5.0:
        # kernel pole at r = |z| is exponentially suppressed; no need to
        # stretch the cut past the decay scale
        return max(1.0, rc)
    return max(1.0, 2.0 * absz, rc)


def _contour_point(params: MLParams, z: complex, alpha: float, beta: float) -> complex:
    """E_{alpha,beta}(z) by the branch-cut kernel integral, plus the residue
    term inside the sector |arg z| < pi*alpha; an origin-circle path handles
    arguments too close to the sector edge."""
    absz, arg = abs(z), np.angle(z)
    tol = 0.1 * params.accuracy
    r0 = _kernel_cut_radius(params.accuracy, alpha, absz)
    gap = abs(abs(arg) - math.pi * alpha)
    pole_weight = math.exp(-absz ** (1.0 / alpha))   # kernel size near its pole

    use_arc = gap < _CONTOUR_BAND and pole_weight > tol
    if use_arc:
        eps = absz + 0.5
        if eps ** (1.0 / alpha) <= _ARC_EXP_CAP:
            k_val, ok1 = _composite_gauss(
                lambda r: _kernel_k(r, z, alpha, beta), eps, r0, tol)
            p_val, ok2 = _composite_gauss(
                lambda phi: _kernel_p(phi, z, alpha, beta, eps),
                -math.pi * alpha, math.pi * alpha, tol)
            if not (ok1 and ok2):
                warnings.warn("kernel integral did not stabilize; best value returned",
                              MLAccuracyWarning)
            return k_val + p_val
        # arc would overflow: the sector expansion is the best available value
        val = _asymptotic(params, np.array([z]), alpha, beta)[0]
        if absz < 10.0:
            warnings.warn("argument near the sector edge outside certified range; "
                          "sector-expansion value returned", MLAccuracyWarning)
        return complex(val)

    k_val, ok = _composite_gauss(lambda r: _kernel_k(r, z, alpha, beta), 0.0, r0, tol)
    if not ok:
        warnings.warn("kernel integral did not stabilize; best value returned",
                      MLAccuracyWarning)
    if abs(arg) < math.pi * alpha:
        w = np.exp(np.log(z) / alpha)
        if w.real > _EXP_MAX:
            return complex(np.inf, 0.0)
        pre = np.exp(np.log(z) * ((1 - beta) / alpha)) if beta != 1.0 else 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            k_val = k_val + (1.0 / alpha) * pre * np.exp(w)
        if not np.isfinite(k_val):
            return complex(np.inf, 0.0)
    return complex(k_val)


def _kernel_k(r: np.ndarray, z: complex, alpha: float, beta: float) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    num = r * math.sin(math.pi * (1 - beta)) - z * math.sin(math.pi * (1 - beta + alpha))
    den = r * r - 2.0 * r * z * math.cos(math.pi * alpha) + z * z
    with np.errstate(over="ignore"):
        damp = np.exp(-np.power(r, 1.0 / alpha))
    if beta != 1.0:
        scale = np.power(r, (1 - beta) / alpha, where=r > 0, out=np.zeros_like(r))
    else:
        scale = 1.0
    return scale * damp * num / (math.pi * alpha * den)


def _kernel_p(phi: np.ndarray, z: complex, alpha: float, beta: float, eps: float) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    e_pow = eps ** (1.0 / alpha)
    w = e_pow * np.sin(phi / alpha) + phi * (1 + (1 - beta) / alpha)
    num = np.exp(e_pow * np.cos(phi / alpha)) * (np.cos(w) + 1j * np.sin(w))
    den = eps * np.exp(1j * phi) - z
    return eps ** (1 + (1 - beta) / alpha) / (2 * math.pi * alpha) * num / den
