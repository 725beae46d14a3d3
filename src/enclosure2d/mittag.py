"""Mittag-Leffler function E_a(z) and its derivative for complex arguments.

Every nonzero z takes one method, the trapezoid rule on an optimal parabolic
contour for the inverse Laplace transform; z = 0 gives 1 / Gamma(beta),
computed as 1.0 / math.gamma(beta) so that the module needs no scipy, and
a = beta = 1 gives exp(z).  E_a grows like exp(z^(1/a)) for
|arg z| <= pi*a/2 and decays algebraically outside; the principal branch of
z^(1/a) is used throughout, so the growth region matches the sector
classifier exactly.

The rule works on whole batches, and no value depends on the rest of its
batch.  Contours and node counts come from closed formulas, with nothing
adaptive and no per-point path, and each pole level is rounded onto a fixed
geometric grid, so a batch needs only a few contours, each shared by many
points.  A contour's weights and node powers are computed once, and each
node of each point then costs one subtraction and one division.  Contours
and residues are found for slices of _BATCH points, and a contour's points
are summed in chunks of at most _CHUNK (point, node) entries, so that beyond
its values a batch holds only a contour key and its place in key order per
point.  A call
has a fixed cost that large batches share: the probe indicators pass a whole
tau ladder per call and ``mleval`` its whole grid.  A z that is not finite
raises MLError.

E_a'(z) is evaluated as E_{a,a}(z)/a, so the rule takes the second parameter,
and the two needed are beta = 1 and beta = a.  Where E_{a,a} decays it is
about |z| times smaller than the integrand it is summed from, so the rule runs
a hundred times finer for beta != 1, and a beta != 1 point with |z| above
_DERIV_R_MAX, where even that falls short, is counted as uncertified.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

_SECTOR_NAMES = np.array(["algebraic_decay", "exponential_growth", "boundary", "origin"],
                         dtype=object)

_SECTOR_BAND = 1e-9          # radians; classification dead band
_LOG_EPS = math.log(np.finfo(float).eps)   # round-off floor of the contour rule
_ACCURACY = 1e-10            # target relative accuracy of every value
_MAX_NODES = 200             # a contour needing more runs at a coarser tolerance
_DERIV_R_MAX = 1e3           # largest |z| certified for beta != 1
_EXP_MAX = math.log(np.finfo(float).max)   # largest real part exp() keeps finite
_LEVELS = 4                  # pole levels per octave; points share a level's contour
_LOG_STAR_MAX = 700.0        # cap on log|s*|, far past the last level that moves a contour
_NO_POLE = np.iinfo(np.int64).min   # contour key of the points without a pole,
_ZERO = _NO_POLE + 1         # and of z = 0; every pole's key is larger
_BATCH = 1 << 12             # points whose contours and residues are found at a time
_CHUNK = 1 << 14             # (point, node) entries summed at a time


class MLError(ValueError):
    """Invalid Mittag-Leffler parameters or argument."""


class MLAccuracyWarning(UserWarning):
    """The accuracy target could not be certified; best value returned."""


@dataclass(frozen=True)
class MLParams:
    """Evaluation parameters: the order alpha in (0, 1].  Every value targets
    the relative accuracy _ACCURACY; the contour rule runs at tolerance
    _ACCURACY / 100 for E_alpha and _ACCURACY / 1e4 for E_{alpha,alpha}, the
    derivative's function."""

    alpha: float
    # evaluation uses neither radius: only the benchmark's regime counters
    # (perfbench/tracing.py) read them, to count the points with |z| <= 5
    # and with |z| >= 30
    r_small: ClassVar[float] = 5.0
    r_large: ClassVar[float] = 30.0

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise MLError("alpha must lie in (0, 1]")


def sectors(alpha: float, z: np.ndarray) -> np.ndarray:
    """Each point of an array against the growth sector |arg z| <= pi*alpha/2:
    "exponential_growth" inside, "algebraic_decay" outside, "boundary" within
    a dead band of its edge, and "origin" where z = 0."""
    arg = np.abs(np.angle(z))
    edge = math.pi * alpha / 2
    return _SECTOR_NAMES[np.select([z == 0, np.abs(arg - edge) <= _SECTOR_BAND, arg < edge],
                              [3, 2, 1], 0)]


def ml_eval(params: MLParams, z: complex) -> complex:
    """E_alpha(z) to the relative accuracy _ACCURACY."""
    return complex(ml_eval_many(params, np.array([z]))[0])


def ml_eval_many(params: MLParams, z) -> np.ndarray:
    return _eval_batch(np.asarray(z, dtype=complex), params.alpha, 1.0)


def ml_deriv_many(params: MLParams, z) -> np.ndarray:
    """E_alpha'(z) = E_{alpha,alpha}(z) / alpha at each point of an array."""
    a = params.alpha
    out = _eval_batch(np.asarray(z, dtype=complex), a, a)
    # each part on its own: a complex division would turn an overflowed
    # inf+0j into inf+nanj; a value that overflows in the division is inf too
    with np.errstate(over="ignore"):
        out.real /= a
        out.imag /= a
    return out


# ---------------------------------------------------------------------------
# dispatcher


def _eval_batch(z: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    shape = z.shape
    zf = z.ravel()
    if not np.isfinite(zf).all():
        raise MLError("z must be finite")
    if alpha == 1.0 and beta == 1.0:
        # an overflow gives inf, as on the contour, and warns of nothing
        with np.errstate(over="ignore"):
            return np.exp(zf).reshape(shape)
    return _contour(zf, alpha, beta).reshape(shape)


# ---------------------------------------------------------------------------
# trapezoid rule on a parabolic contour
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
    admissible for every tolerance at or above 1e-15, Garrappa's finest; the
    rule's tolerances are 1e-12 and 1e-14, or coarser."""
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


def _level(k):
    """The pole level 2^(k / _LEVELS) of grid index k."""
    return np.exp2(k / _LEVELS)


def _grid_indices(phi: np.ndarray):
    """Grid indices (k_lo, k_hi) of the levels at or below and at or above
    each phi > 0; they are equal where phi lies on a level."""
    k = np.floor(_LEVELS * np.log2(phi))
    # log2 may round across a level; the level itself decides
    k -= _level(k) > phi
    k += _level(k + 1) <= phi
    return k, k + (_level(k) < phi)


def _contour_params(lo: np.ndarray, hi: np.ndarray, pole: np.ndarray, log_eps: float):
    """(mu, h, N, left) of the region needing fewer nodes, for a pole between
    the levels lo <= hi; ``left`` marks the contours passing left of the pole.
    The region below the pole is laid out for a pole at lo and the region
    beyond it for a pole at hi, and the latter is a candidate only while hi is
    below the round-off bound."""
    mu, h, n = (np.where(pole, np.inf, v) for v in _branch_params(log_eps))
    near = np.flatnonzero(pole & (hi < log_eps - _LOG_EPS))
    if near.size:
        mu[near], h[near], n[near] = _region_above(hi[near], True, log_eps)
    left = np.zeros(lo.shape, dtype=bool)
    below = np.flatnonzero(pole)
    if below.size:
        mu_b, h_b, n_b = _region_below(lo[below], log_eps)
        fewer = n_b < n[below]
        take = below[fewer]
        left[take] = True
        mu[take], h[take], n[take] = mu_b[fewer], h_b, n_b[fewer]
    return mu, h, n, left


def _residue(z: np.ndarray, alpha: float, beta: float):
    """(1/alpha) z^((1-beta)/alpha) exp(z^(1/alpha)) on the principal branch,
    as (1/alpha) exp(w + (1-beta) log w) with w = z^(1/alpha).  Returns
    (values, overflowed); a value past double range is reported as a clean
    complex infinity, and one below it is zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        log_w = np.log(z) / alpha
        arg = np.exp(log_w) + (1 - beta) * log_w
        over = arg.real > _EXP_MAX
        val = (1.0 / alpha) * np.exp(np.where(over, 0.0, arg))
    over |= ~np.isfinite(val)
    return np.where(over, complex(np.inf, 0.0), val), over


def _contour_key(z: np.ndarray, alpha: float) -> np.ndarray:
    """Each point's contour: k_lo + k_hi of the levels around its pole level
    phi = (Re s* + |s*|) / 2, _NO_POLE without a pole, and _ZERO at z = 0."""
    zero = z == 0
    log_z = np.log(np.where(zero, 1.0, z))
    # capping |s*| at exp(_LOG_STAR_MAX) keeps phi finite; so large a phi
    # moves no contour, and the residue is computed from z itself
    log_star = log_z / alpha
    np.minimum(log_star.real, _LOG_STAR_MAX, out=log_star.real)
    star = np.exp(log_star)
    phi = 0.5 * (star.real + np.abs(star))
    # a pole on the cut (phi = 0 up to rounding) is dropped, as Garrappa does
    pole = (np.abs(log_z.imag) < math.pi * alpha) & (phi > 1e-15)
    key = np.full(z.shape, _NO_POLE, dtype=np.int64)
    key[pole] = sum(_grid_indices(phi[pole]))
    key[zero] = _ZERO
    return key


def _contour(z: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """E_{alpha,beta}(z) for a batch by the trapezoid rule on a parabolic
    contour shared by many points, plus the residue where the contour passes
    left of the pole.

    Each pole level phi is rounded onto the geometric grid 2^(k/_LEVELS): the
    region below the pole takes the level at or below phi, and the region
    beyond it the level at or above, whichever needs fewer nodes.  Either way
    the true pole lies at least as far from the contour as the level it was
    laid out for.  In the node variable w = u + iv of s = mu (1 + iw)^2, the
    pole lies on the line v = 1 - sqrt(phi / mu), and the rule's
    discretization error decays with its distance |v| from the real axis.
    The region beyond the pole has phi < mu, and there v falls as phi
    grows; the region below has phi > mu, and there |v| grows with phi.
    Rounding phi down below the pole, or up beyond it, therefore moves the
    pole that the contour is laid out for towards the contour, and the true
    pole lies at least as far off: the rule's error bound holds for it.  Its
    other error terms, from the strip's other side and from truncating at N
    nodes, depend on the contour alone.  Points with no pole share one
    contour.

    The rule's tolerance is _ACCURACY / 100 for beta = 1 and _ACCURACY / 1e4
    otherwise, which met the accuracy target on every point measured (for
    beta != 1, up to |z| = _DERIV_R_MAX).  A contour needing more than
    _MAX_NODES nodes runs at a tolerance ten times coarser, as often as
    needed.  Each point whose contour ran coarser than its tolerance, and
    each beta != 1 point beyond _DERIV_R_MAX, raises one MLAccuracyWarning.
    The points of one contour are summed in chunks of at most _CHUNK (point,
    node) entries, each over the nodes in a fixed order, so a value does not
    depend on the rest of its batch."""
    log_eps = math.log(_ACCURACY / (100 if beta == 1.0 else 1e4))
    key = np.empty(z.shape, dtype=np.int64)
    for c in range(0, z.size, _BATCH):
        key[c:c + _BATCH] = _contour_key(z[c:c + _BATCH], alpha)
    keys, counts = np.unique(key, return_counts=True)
    has_pole = keys > _ZERO
    k = np.where(has_pole, keys, 0)
    lo, hi = _level(k // 2), _level(k - k // 2)
    mu, h, n, left = _contour_params(lo, hi, has_pole, log_eps)
    over = np.flatnonzero(n > _MAX_NODES)
    uncertified = (n > _MAX_NODES) & (keys != _ZERO)
    while over.size:
        log_eps += math.log(10.0)
        mu[over], h[over], n[over], left[over] = _contour_params(
            lo[over], hi[over], has_pole[over], log_eps)
        over = over[n[over] > _MAX_NODES]
    count = counts[uncertified].sum()
    if beta != 1.0:
        count += np.count_nonzero(~np.isin(key[np.abs(z) > _DERIV_R_MAX], keys[uncertified]))
    for _ in range(count):
        warnings.warn("contour rule could not certify the accuracy target; "
                      "best value returned", MLAccuracyWarning)
    # s = mu t^2 with t = 1 + iu, so ds/du = 2i mu t and the rule's factor
    # h / (2 pi i) ds/du is h mu t / pi.  Node -k is the conjugate of node k,
    # so a contour's weights h mu t exp(s) s^(a-b) / pi and its s^a are
    # computed for k >= 0 only, and each node of each point costs one
    # subtraction and one division.
    out = np.empty_like(z)
    # the points grouped by contour, each group in input order
    order, ends = np.argsort(key, kind="stable"), np.cumsum(counts)
    for i, kv in enumerate(keys.tolist()):
        g = order[ends[i] - counts[i]:ends[i]]
        if kv == _ZERO:
            out[g] = 1.0 / math.gamma(beta)
            continue
        m = int(n[i])
        t = 1.0 + 1j * (h[i] * np.arange(m + 1))
        s = mu[i] * (t * t)
        log_s = np.log(s)
        w = (h[i] * mu[i] / math.pi) * t * np.exp(s) * np.exp((alpha - beta) * log_s)
        s_a = np.exp(alpha * log_s)
        w_c, s_ac = w[1:].conj(), s_a[1:].conj()
        rows = max(1, _CHUNK // (m + 1))
        w, s_a, w_c, s_ac = w[:, None], s_a[:, None], w_c[:, None], s_ac[:, None]
        for c in range(0, g.size, rows):
            j = g[c:c + rows]
            # a lone point as a pair, whose column numpy would sum pairwise
            zj = z[np.resize(j, max(j.size, 2))]
            up = w / (s_a - zj)
            down = w_c / (s_ac - zj)
            # a sum down the node axis adds each point's nodes in order,
            # whatever the chunk's size; adding the two halves last keeps
            # E(conj z) = conj E(z)
            out[j] = (up[0] + (up[1:].sum(axis=0) + down.sum(axis=0)))[:j.size]
    lefts = np.flatnonzero(left[np.searchsorted(keys, key)])
    for c in range(0, lefts.size, _BATCH):
        j = lefts[c:c + _BATCH]
        res, inf = _residue(z[j], alpha, beta)
        out[j] = np.where(inf, res, out[j] + res)
    return out
