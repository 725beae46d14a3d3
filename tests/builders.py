"""Small objects that several test modules build: the unit background field,
probe specs and random invertible matrices."""

import numpy as np

from enclosure2d.admittivity import AdmittivityField
from enclosure2d.probes import ProbeSpec, rot90


def background(mesh, omega=0.0):
    """The unit background on the mesh: no contrast, at frequency omega."""
    return AdmittivityField.from_scalars(mesh, 0.0, 0.0, omega)


def cgo_spec(theta=(1.0, 0.0), t=0.0, tau=(1.0,), perp_sign=1.0):
    """An exponential probe in direction theta, theta_perp = perp_sign * rot90(theta),
    over the tau ladder tau."""
    th = np.asarray(theta, dtype=float)
    return ProbeSpec(kind="cgo", theta=tuple(th), theta_perp=tuple(perp_sign * rot90(th)),
                     t=t, tau=tau)


def ml_spec(y=(3.0, 0.0), theta=(-1.0, 0.0), t=-0.5, tau=(1.0,), alpha=0.5, perp_sign=1.0):
    """A cone probe with vertex y over the tau ladder tau."""
    th = np.asarray(theta, dtype=float)
    return ProbeSpec(kind="mittag_leffler", theta=tuple(th),
                     theta_perp=tuple(perp_sign * rot90(th)), t=t, tau=tau, y=tuple(y),
                     alpha=alpha)


def random_invertible(rng):
    """A random symmetric 2 x 2 matrix with |det| > 0.1."""
    while True:
        q = rng.normal(size=(2, 2))
        m = (q + q.T) / 2
        if abs(np.linalg.det(m)) > 0.1:
            return m
