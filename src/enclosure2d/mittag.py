"""Mittag-Leffler function E_a(z) and its derivative for complex arguments.

Evaluation switches between three methods: the defining power series for
small |z| (with a running cancellation guard), a real-line kernel integral of
Gorenflo-Loutchko-Luchko type at intermediate |z|, and the sector expansion
(exponential part plus an algebraic tail) at large |z|.  E_a grows like
exp(z^(1/a)) for |arg z| <= pi*a/2 and decays algebraically outside; the
principal branch of z^(1/a) is used throughout, so the growth region matches
the sector classifier exactly.

Every method works on whole batches.  In the kernel integral only a rational
factor depends on z, so points that share a cut radius share one composite
Gauss-Legendre node set, built once per panel count and cached; each panel
level is one (points x nodes) evaluation, and only points whose value has not
yet stabilized go on to the doubled panel count.  Points within _CONTOUR_BAND
of the sector edge |arg z| = pi*a, where the kernel pole sits on the cut, are
the only ones evaluated one at a time, on a path that detours around the pole
along an arc.  The sector expansion stops each point's algebraic tail on that
point's own increments, so no value depends on the rest of its batch.

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
_CHUNK = 1 << 20             # largest (points x nodes) array one quadrature step builds
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

    rest = np.flatnonzero((~zero) & (~ok) & (~big))
    if rest.size:
        edge = _near_edge(params, zf[rest], alpha)
        for i in rest[edge]:
            out[i] = _contour_point(params, complex(zf[i]), alpha, beta)
        if not edge.all():
            out[rest[~edge]] = _kernel(params, zf[rest[~edge]], alpha, beta)
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


def _residue(z: np.ndarray, alpha: float, beta: float):
    """(1/alpha) z^((1-beta)/alpha) exp(z^(1/alpha)) on the principal branch.
    Returns (values, overflowed); a value past double range is reported as a
    clean complex infinity."""
    w = np.exp(np.log(z) / alpha)
    pre = np.exp(np.log(z) * ((1 - beta) / alpha)) if beta != 1.0 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        val = (1.0 / alpha) * pre * np.exp(np.where(w.real > _EXP_MAX, 0.0, w))
    over = (w.real > _EXP_MAX) | ~np.isfinite(val)
    return np.where(over, complex(np.inf, 0.0), val), over


def _asymptotic(params: MLParams, z: np.ndarray, alpha: float, beta: float,
                max_alg: int = 10) -> np.ndarray:
    """Exponential part (inside |arg z| <= pi*alpha) plus the algebraic tail,
    carried for each point until its increment drops below the accuracy
    target, so a point's value does not depend on the rest of its batch."""
    out = np.zeros(z.shape, dtype=complex)
    inside = np.abs(np.angle(z)) <= math.pi * alpha
    if inside.any():
        out[inside] = _residue(z[inside], alpha, beta)[0]
    zinv = 1.0 / z
    p = np.ones(z.shape, dtype=complex)
    tail = np.zeros(z.shape, dtype=complex)
    incs, tails = [], []
    for k in range(1, max_alg + 1):
        p = p * zinv
        inc = p * rgamma(beta - alpha * k)
        tail = tail - inc
        incs.append(inc)
        tails.append(tail)
    inc, tail = np.array(incs), np.array(tails)           # (max_alg, n)
    small = np.abs(inc) <= params.accuracy * np.maximum(np.abs(out + tail), _TINY)
    # a reciprocal-gamma pole gives a spurious zero increment, so a point stops
    # at the second of two consecutive increments below target
    two = small[1:] & small[:-1]
    stop = np.where(two.any(axis=0), two.argmax(axis=0) + 1, max_alg - 1)
    return out + tail[stop, np.arange(z.size)]


# ---------------------------------------------------------------------------
# kernel integral (intermediate |z|)
#
# E_{a,b}(z) = int_0^inf K(r, z) dr (+ residue inside |arg z| < pi*a), with
# K(r, z) = g(r) (r s1 - z s2) / (r^2 - 2 r z cos(pi a) + z^2), where
# g(r) = r^((1-b)/a) exp(-r^(1/a)) / (pi a), s1 = sin(pi(1-b)) and
# s2 = sin(pi(1-b+a)).  Only the rational factor depends on z, so the nodes of
# a rule on the cut [0, r0], with the Gauss weights folded into g, are shared
# by every point with the same cut radius.


@lru_cache(maxsize=4)
def _gauss_rule(n: int = 16):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _panel_rule(alpha: float, beta: float, a, b, n: int):
    """Nodes r and weight pairs (w, r w), w = Gauss weight * half-width * g(r),
    of the n-panel composite Gauss-Legendre rule on [a, b].  ``a`` and ``b``
    are arrays of interval ends, one row of nodes per interval."""
    x0, w0 = _gauss_rule()
    edges = np.linspace(a, b, n + 1, axis=-1)
    half = 0.5 * (edges[:, 1] - edges[:, 0])
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    r = (mid[:, :, None] + half[:, None, None] * x0).reshape(len(edges), -1)
    with np.errstate(over="ignore"):
        g = np.exp(-np.power(r, 1.0 / alpha)) / (math.pi * alpha)
    if beta != 1.0:
        g *= np.power(r, (1 - beta) / alpha)
    w = np.tile(w0, n) * half[:, None] * g
    return r, np.stack([w, r * w], axis=-1)


@lru_cache(maxsize=64)
def _shared_rule(alpha: float, beta: float, a: float, b: float, n: int):
    """_panel_rule for one interval, built once per panel count."""
    r, rw = (v[0] for v in _panel_rule(alpha, beta, np.array([a]), np.array([b]), n))
    r.setflags(write=False)
    rw.setflags(write=False)
    return r, rw


def _kernel_sums(z: np.ndarray, r: np.ndarray, rw: np.ndarray,
                 alpha: float, beta: float) -> np.ndarray:
    """sum_j w_j (r_j s1 - z s2) / (r_j^2 - 2 r_j z cos(pi alpha) + z^2) per
    point, for nodes shared by the batch (r of shape (N,)) or per point
    (P, N): one reciprocal per (point, node) and a contraction with the
    weight pairs (w, r w)."""
    zc = z[:, None]
    inv = 1.0 / ((r * r + zc * zc) - (2.0 * math.cos(math.pi * alpha) * r) * zc)
    # einsum sums each row in a fixed order, so a point's value does not
    # depend on the rest of its batch
    s = np.einsum("pn,nk->pk" if r.ndim == 1 else "pn,pnk->pk", inv, rw)
    return (math.sin(math.pi * (1 - beta)) * s[:, 1]
            - math.sin(math.pi * (1 - beta + alpha)) * z * s[:, 0])


def _kernel_integral(z: np.ndarray, a, b, alpha: float, beta: float, tol: float):
    """int_a^b K(r, z) dr for a batch, by composite Gauss-Legendre with
    batch-wide panel doubling (8, 16, ... _MAX_PANELS panels of 16 nodes).

    ``a`` and ``b`` are one interval shared by the batch (floats; its rules
    are cached) or arrays with one interval per point.  A point is done at
    the first panel count whose value moved by at most ``tol`` relative to the
    previous one; only unfinished points go on, in chunks of at most _CHUNK
    (points x nodes) entries.  Returns (values, uncertified) where the
    uncertified points carry their _MAX_PANELS value."""
    shared = np.isscalar(b)
    value = np.empty_like(z)
    prev = np.empty_like(z)
    todo = np.arange(z.size)
    n = 8
    while todo.size and n <= _MAX_PANELS:
        step = max(1, _CHUNK // (16 * n))
        cur = np.empty(todo.size, dtype=complex)
        for start in range(0, todo.size, step):
            idx = todo[start:start + step]
            rule = (_shared_rule(alpha, beta, a, b, n) if shared
                    else _panel_rule(alpha, beta, a[idx], b[idx], n))
            cur[start:start + step] = _kernel_sums(z[idx], *rule, alpha, beta)
        done = np.zeros(todo.size, dtype=bool)
        if n > 8:
            done = np.abs(cur - prev[todo]) <= tol * np.maximum(np.abs(cur), _TINY)
            value[todo[done]] = cur[done]
        prev[todo] = cur
        todo = todo[~done]
        n *= 2
    value[todo] = prev[todo]
    return value, todo


def _shared_cut_radius(accuracy: float, alpha: float) -> float:
    return max(1.0, (-2.0 * math.log(accuracy * math.pi / 6.0)) ** alpha)


def _kernel_cut_radius(accuracy: float, alpha: float, absz: np.ndarray) -> np.ndarray:
    # past the decay scale the kernel pole at r = |z| is exponentially
    # suppressed and every point shares one cut; nearer in it reaches 2|z|
    rc = _shared_cut_radius(accuracy, alpha)
    near = absz ** (1.0 / alpha) <= -math.log(accuracy) + 5.0
    return np.where(near, np.maximum(rc, 2.0 * absz), rc)


def _kernel(params: MLParams, z: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """E_{alpha,beta}(z) by the kernel integral over the cut [0, r0] plus the
    residue term inside the sector |arg z| < pi*alpha, for a batch.  Points
    on the shared cut radius use cached rules, the rest per-point nodes; each
    uncertified point raises one MLAccuracyWarning."""
    tol = 0.1 * params.accuracy
    rc = _shared_cut_radius(params.accuracy, alpha)
    r0 = _kernel_cut_radius(params.accuracy, alpha, np.abs(z))
    own = r0 != rc
    out = np.empty_like(z)
    uncertified = 0
    if not own.all():
        out[~own], bad = _kernel_integral(z[~own], 0.0, rc, alpha, beta, tol)
        uncertified += bad.size
    if own.any():
        out[own], bad = _kernel_integral(z[own], np.zeros(own.sum()), r0[own],
                                         alpha, beta, tol)
        uncertified += bad.size
    for _ in range(uncertified):
        warnings.warn("kernel integral did not stabilize; best value returned",
                      MLAccuracyWarning)
    inside = np.abs(np.angle(z)) < math.pi * alpha
    if inside.any():
        res, over = _residue(z[inside], alpha, beta)
        out[inside] = np.where(over, res, out[inside] + res)
    return out


def _near_edge(params: MLParams, z: np.ndarray, alpha: float) -> np.ndarray:
    """Points so close to the sector edge |arg z| = pi*alpha that the kernel
    pole at r = |z| sits on the cut with a weight above the target."""
    gap = np.abs(np.abs(np.angle(z)) - math.pi * alpha)
    return (gap < _CONTOUR_BAND) & (np.exp(-np.abs(z) ** (1.0 / alpha)) > 0.1 * params.accuracy)


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


def _contour_point(params: MLParams, z: complex, alpha: float, beta: float) -> complex:
    """E_{alpha,beta}(z) for a point near the sector edge (see _near_edge):
    the cut integral starts past the pole at eps = |z| + 1/2 and an arc of
    radius eps about the origin closes the path."""
    absz = abs(z)
    tol = 0.1 * params.accuracy
    eps = absz + 0.5
    if eps ** (1.0 / alpha) <= _ARC_EXP_CAP:
        r0 = _kernel_cut_radius(params.accuracy, alpha, np.array([absz]))
        k_val, bad = _kernel_integral(np.array([z]), np.array([eps]), r0, alpha, beta, tol)
        p_val, ok = _composite_gauss(
            lambda phi: _kernel_p(phi, z, alpha, beta, eps),
            -math.pi * alpha, math.pi * alpha, tol)
        if bad.size or not ok:
            warnings.warn("kernel integral did not stabilize; best value returned",
                          MLAccuracyWarning)
        return complex(k_val[0] + p_val)
    # arc would overflow: the sector expansion is the best available value
    val = _asymptotic(params, np.array([z]), alpha, beta)[0]
    if absz < 10.0:
        warnings.warn("argument near the sector edge outside certified range; "
                      "sector-expansion value returned", MLAccuracyWarning)
    return complex(val)


def _kernel_p(phi: np.ndarray, z: complex, alpha: float, beta: float, eps: float) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    e_pow = eps ** (1.0 / alpha)
    w = e_pow * np.sin(phi / alpha) + phi * (1 + (1 - beta) / alpha)
    num = np.exp(e_pow * np.cos(phi / alpha)) * (np.cos(w) + 1j * np.sin(w))
    den = eps * np.exp(1j * phi) - z
    return eps ** (1 + (1 - beta) / alpha) / (2 * math.pi * alpha) * num / den
