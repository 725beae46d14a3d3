"""Stored 220-digit series values of E_alpha at the seeded points of the
Mittag-Leffler oracle tests, so the tests need no extended-precision sums.

Each set regenerates its points from its seed here, and the tests assert that
those equal the stored points before comparing values.  Regenerate the
fixture after changing a set (about a minute)::

    python tests/ml_oracle.py
"""

import math
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).with_name("ml_oracle.csv")


def criterion6_points():
    """Criterion 6: 50 points with 0.05 <= |z| <= 5 per order, one stream."""
    rng = np.random.default_rng(0)
    out = {}
    for alpha in (0.3, 0.5, 0.8, 1.0):
        out[alpha] = np.array([rng.uniform(0.05, 5.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
                               for _ in range(50)])
    return out


def series42_points(alpha):
    """test_accuracy_against_series_oracle: 25 points, 0.05 <= |z| <= 5."""
    rng = np.random.default_rng(42)
    return np.array([rng.uniform(0.05, 5.0) * np.exp(1j * rng.uniform(-math.pi, math.pi))
                     for _ in range(25)])


def band08_points():
    """alpha = 0.8, 12 < |z| < 17, |arg z| within 0.05 pi of 0.55 pi."""
    rng = np.random.default_rng(2)
    n = 40
    return rng.uniform(12, 17, n) * np.exp(
        1j * math.pi * rng.choice([-1, 1], n) * rng.uniform(0.5, 0.6, n))


def all_points():
    """(set name, alpha, points) for every stored set, in file order."""
    sets = [("criterion6", a, z) for a, z in criterion6_points().items()]
    sets += [("series42", a, series42_points(a)) for a in (0.3, 0.5, 0.8)]
    sets.append(("band08", 0.8, band08_points()))
    return sets


def load(name, alpha):
    """(z, E) of one stored set, each as a complex array."""
    rows = [line.split(",") for line in FIXTURE.read_text().splitlines()[1:]]
    sel = [r for r in rows if r[0] == name and float(r[1]) == alpha]
    if not sel:
        raise KeyError(f"no stored set {name} at alpha = {alpha}")
    data = np.array([[float(x) for x in r[2:]] for r in sel])
    return data[:, 0] + 1j * data[:, 1], data[:, 2] + 1j * data[:, 3]


def series_oracle(alpha, z, beta=1.0):
    """220-digit truncated series.  The order parameter is kept as the exact
    binary double throughout: the sum is violently sensitive to per-term
    rounding of the gamma arguments in the cancelling regime."""
    import mpmath as mp

    with mp.workdps(220):
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


def main():
    lines = ["set,alpha,re_z,im_z,re_E,im_E"]
    for name, alpha, zs in all_points():
        for z in zs:
            e = series_oracle(alpha, z)
            lines.append(",".join([name] + [repr(float(x)) for x in
                                            (alpha, z.real, z.imag, e.real, e.imag)]))
    FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} values to {FIXTURE}")


if __name__ == "__main__":
    main()
