"""Mittag-Leffler function E_a(z) and its derivative for complex arguments.

Evaluation uses two methods: the trapezoid rule on an optimal parabolic
contour for the inverse Laplace transform at every nonzero |z| below
r_large, and the sector expansion (exponential part plus an algebraic tail)
at |z| >= r_large; z = 0 gives 1 / Gamma(beta).  E_a grows like
exp(z^(1/a)) for |arg z| <= pi*a/2 and decays algebraically outside; the
principal branch of z^(1/a) is used throughout, so the growth region matches
the sector classifier exactly.

Both methods work on whole batches, and no value depends on the rest of its
batch.  The contour rule chooses each point's contour and node count from
closed formulas, with no adaptive refinement and no per-point path; points
with the same node count are summed together, each over its own nodes in a
fixed order.  The sector expansion stops each point's algebraic tail on that
point's own increments.

E_a'(z) is evaluated as E_{a,a}(z)/a; every method takes the second
parameter, and the two needed are beta = 1 and beta = a.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy.special import rgamma

_GROWTH = "exponential_growth"
_DECAY = "algebraic_decay"
_BOUNDARY = "boundary"

_SECTOR_BAND = 1e-9          # radians; classification dead band
_LOG_EPS = math.log(np.finfo(float).eps)   # round-off floor of the contour rule
_FINEST = 1e-15              # finest contour tolerance (Garrappa's default)
_MAX_NODES = 200             # a contour needing more runs at a coarser tolerance
_TINY = 1e-300
_MAX_ALG = 10                # most algebraic-tail terms of the sector expansion
_EXP_MAX = math.log(np.finfo(float).max)   # largest real part exp() keeps finite


class MLError(ValueError):
    """Invalid Mittag-Leffler parameters or argument."""


class MLAccuracyWarning(UserWarning):
    """Requested accuracy could not be certified; best value returned."""


@dataclass(frozen=True)
class MLParams:
    """Evaluation parameters: order alpha in (0, 1] and the target relative
    accuracy, at which the sector expansion stops; the contour rule's
    tolerance is accuracy / 100.  The sector expansion serves |z| >= r_large
    and the contour rule every other nonzero z."""

    alpha: float
    accuracy: float = 1e-10
    r_large: ClassVar[float] = 30.0   # hand-off to the sector expansion
    # evaluation does not use r_small: only the benchmark's regime counters
    # (perfbench/tracing.py) read it, to count the points with |z| <= 5
    r_small: ClassVar[float] = 5.0

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise MLError("alpha must lie in (0, 1]")
        if not (1e-15 < self.accuracy < 1e-2):
            raise MLError("accuracy must lie in (1e-15, 1e-2)")


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
    out = _eval_batch(params, np.asarray(z, dtype=complex), a, a)
    # each part on its own: a complex division would turn an overflowed
    # inf+0j into inf+nanj
    out.real /= a
    out.imag /= a
    return out


# ---------------------------------------------------------------------------
# dispatcher


def _eval_batch(params: MLParams, z: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    shape = z.shape
    zf = z.ravel()
    if alpha == 1.0 and beta == 1.0:
        return np.exp(zf).reshape(shape)
    out = np.empty(zf.shape, dtype=complex)
    zero = zf == 0
    out[zero] = rgamma(beta)
    big = np.abs(zf) >= params.r_large
    if big.any():
        out[big] = _asymptotic(params, zf[big], alpha, beta)
    rest = ~(zero | big)
    if rest.any():
        out[rest] = _contour(params, zf[rest], alpha, beta)
    return out.reshape(shape)


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


def _asymptotic(params: MLParams, z: np.ndarray, alpha: float, beta: float) -> np.ndarray:
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
    for k in range(1, _MAX_ALG + 1):
        p = p * zinv
        inc = p * rgamma(beta - alpha * k)
        tail = tail - inc
        incs.append(inc)
        tails.append(tail)
    inc, tail = np.array(incs), np.array(tails)           # (_MAX_ALG, n)
    small = np.abs(inc) <= params.accuracy * np.maximum(np.abs(out + tail), _TINY)
    # a reciprocal-gamma pole gives a spurious zero increment, so a point stops
    # at the second of two consecutive increments below target
    two = small[1:] & small[:-1]
    stop = np.where(two.any(axis=0), two.argmax(axis=0) + 1, _MAX_ALG - 1)
    return out + tail[stop, np.arange(z.size)]


# ---------------------------------------------------------------------------
# trapezoid rule on a parabolic contour (0 < |z| < r_large)
#
# E_{a,b}(z) is the inverse Laplace transform at t = 1 of s^(a-b) / (s^a - z):
# the integral of exp(s) s^(a-b) / (s^a - z) / (2 pi i) along a contour that
# wraps the branch cut s <= 0, plus the residue at the pole s* = z^(1/a) if
# the contour passes left of it.  For 0 < a < 1 that pole is the only one,
# and it lies off the cut only for |arg z| < pi*a.  On the parabola
# s(u) = mu (1 + iu)^2 the trapezoid rule u_k = k h, |k| <= N, converges
# geometrically.  (mu, h, N) follow Garrappa (SIAM J. Numer. Anal. 53, 2015),
# after Weideman & Trefethen (Math. Comp. 76, 2007), for the contour between
# the origin and the pole or the one beyond the pole, whichever needs fewer
# nodes.  A region is measured by phi(s) = (Re s + |s|) / 2, the parameter of
# the parabola through s.


def _region_below(phi: np.ndarray, log_eps: float):
    """(mu, h, N) of Garrappa's OptimalParam_RB for the region between the
    branch point (strength 0) and a simple pole at level phi.  The region is
    admissible for every tolerance at or above _FINEST."""
    f_max = math.exp(log_eps - _LOG_EPS)
    f_bar = 1.01 + 1.01 / f_max * (f_max - 1.01)
    sq_bar = (2.0 / (2.0 + 1.0 / f_bar)) * np.minimum(np.sqrt(phi), 2.0 * math.sqrt(log_eps - _LOG_EPS))
    log_eps -= math.log(f_bar)
    mu = (sq_bar / (2.0 - sq_bar * sq_bar / log_eps)) ** 2
    h = -2.0 * math.pi / log_eps
    return mu, h, np.ceil(np.sqrt(1.0 - log_eps / mu) * (1.0 / h))


def _region_above(phi: np.ndarray, pole: bool, log_eps: float):
    """(mu, h, N) of Garrappa's OptimalParam_RU for the region beyond a simple
    pole at level phi, or beyond the branch point (phi = 0, no pole).  N is
    inf where round-off leaves no contour."""
    sq_phi = np.sqrt(phi)
    sq_bar = np.sqrt(1.01 * phi if pole else np.full(phi.shape, 0.01))
    again = np.ones(phi.shape, dtype=bool)
    while again.any():
        # move the contour until the pole's factor sq_mu / (sq_bar - sq_phi)
        # lies in (1, 10); a point that is done recomputes the same values
        bar = sq_bar * sq_bar
        n = np.ceil((bar - 1.5 * log_eps + np.sqrt(bar * (bar - 2.0 * log_eps))) / math.pi)
        a = (math.pi * n) / bar
        sq_mu = sq_bar * np.abs(4.0 - a) / np.abs(7.0 - np.sqrt(12.0 * a + 1.0))
        f = sq_mu / (sq_bar - sq_phi)
        again = pole & ((f <= 1.0) | (f >= 10.0))
        sq_bar = np.where(again, 0.2 * sq_mu + sq_phi, sq_bar)
    mu = sq_mu * sq_mu
    h = (2.0 * np.sqrt(12.0 * a + 1.0) - 3.0 * a - 2.0) / ((4.0 - a) * n)
    # a contour reaching past the round-off bound is pulled back onto it,
    # if the pole leaves room
    bound = log_eps - _LOG_EPS
    pull = mu > bound
    q = (0.2 * sq_mu + sq_phi) ** 2 if pole else phi
    w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_eps))
    # q < bound keeps the denominator negative where n_pull is used
    n_pull = np.ceil((w * log_eps / (2 * math.pi)) / (np.sqrt(q / -_LOG_EPS) * w - 1))
    n = np.where(pull, np.where(q < bound, n_pull, np.inf), n)
    h = np.where(pull, w / n, h)
    return np.where(pull, bound, mu), h, n


@lru_cache(maxsize=16)
def _branch_params(log_eps: float):
    """(mu, h, N) for a point with no pole: the region beyond the branch
    point, the same for every such point."""
    mu, h, n = _region_above(np.zeros(1), False, log_eps)
    return mu[0], h[0], n[0]


def _contour_params(phi: np.ndarray, pole: np.ndarray, log_eps: float):
    """(mu, h, N, left) of the region needing fewer nodes; ``left`` marks the
    points whose contour passes left of the pole.  The region beyond the pole
    is a candidate only while phi is below the round-off bound."""
    mu, h, n = (np.where(pole, np.inf, v) for v in _branch_params(log_eps))
    near = np.flatnonzero(pole & (phi < log_eps - _LOG_EPS))
    if near.size:
        mu[near], h[near], n[near] = _region_above(phi[near], True, log_eps)
    left = np.zeros(phi.shape, dtype=bool)
    below = np.flatnonzero(pole)
    if below.size:
        mu_b, h_b, n_b = _region_below(phi[below], log_eps)
        fewer = n_b < n[below]
        take = below[fewer]
        left[take] = True
        mu[take], h[take], n[take] = mu_b[fewer], h_b, n_b[fewer]
    return mu, h, n, left


def _contour(params: MLParams, z: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """E_{alpha,beta}(z) for a batch by the trapezoid rule on each point's
    optimal parabolic contour, plus the residue where the contour passes left
    of the pole.

    The rule's tolerance is params.accuracy / 100, which met the accuracy
    target on every point measured, but no finer than _FINEST.  A point whose
    contour needs more than _MAX_NODES nodes runs at a tolerance ten times
    coarser, as often as needed.  Each point that ran coarser than its
    tolerance raises one MLAccuracyWarning.  Points with the same N are summed
    together, each over its own 2N + 1 nodes in a fixed order, so a value does
    not depend on the rest of its batch."""
    target = math.log(params.accuracy / 100)
    log_z = np.log(z)
    star = np.exp(log_z / alpha)
    phi = 0.5 * (star.real + np.abs(star))
    # a pole on the cut (phi = 0 up to rounding) is dropped, as Garrappa does
    pole = (np.abs(log_z.imag) < math.pi * alpha) & (phi > 1e-15)
    phi = np.where(pole, phi, 0.0)
    log_eps = max(target, math.log(_FINEST))
    mu, h, n, left = _contour_params(phi, pole, log_eps)
    over = np.flatnonzero(n > _MAX_NODES)
    uncertified = z.size if log_eps > target else over.size
    while over.size:
        log_eps += math.log(10.0)
        mu[over], h[over], n[over], left[over] = _contour_params(phi[over], pole[over], log_eps)
        over = over[n[over] > _MAX_NODES]
    for _ in range(uncertified):
        warnings.warn("contour rule ran above its tolerance; best value returned",
                      MLAccuracyWarning)
    # s = mu t^2 with t = 1 + iu, so ds/du = 2i mu t and the rule's factor
    # h / (2 pi i) ds/du is h mu t / pi.  Node -k is the conjugate of node k,
    # so the z-free factors are computed for k >= 0 only.
    out = np.empty_like(z)
    for m in set(n.tolist()):
        g = np.flatnonzero(n == m)
        t = 1.0 + 1j * (h[g, None] * np.arange(int(m) + 1))
        s = mu[g, None] * (t * t)
        log_s = np.log(s)
        num = np.exp(s + (alpha - beta) * log_s) * t
        s_a = np.exp(alpha * log_s)
        zg = z[g, None]
        up = num / (s_a - zg)
        down = num[:, 1:].conj() / (s_a[:, 1:].conj() - zg)
        # cumsum adds each row's nodes in order, whatever the group's size;
        # adding the two halves last keeps E(conj z) = conj E(z) exact
        total = up[:, 0] + (np.cumsum(up[:, 1:], axis=1)[:, -1]
                            + np.cumsum(down, axis=1)[:, -1])
        out[g] = (h[g] * mu[g] / math.pi) * total
    if left.any():
        res, inf = _residue(z[left], alpha, beta)
        out[left] = np.where(inf, res, out[left] + res)
    return out
