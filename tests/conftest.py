"""Shared fixtures: a scalar-advection toy model and random state factories."""

import numpy as np
import pytest

from pccu.errors import check_admissible
from pccu.multifluid import Multifluid, conservative_state


class ScalarAdvection:
    """d=1 toy model: F(U) = U, unit speed, identity eigensystem.

    With a single field the characteristic decomposition is trivial, so the
    pccu and lcd variants must produce identical tendencies and both must
    reduce to exact upwinding.
    """

    reconstruction = "conservative"
    d = 1
    dimension = 1
    noncons_rows = slice(0, 1)

    def momentum_index(self, direction):
        return 0

    def admissible(self, state):
        return np.isfinite(state).all(axis=-1)

    def validate(self, state, where="state"):
        check_admissible(self, state, where)

    def flux(self, state, direction):
        return state.copy()

    def eigenvalues(self, state, direction):
        return np.ones(state.shape[:-1] + (1,))

    def noncons_increment(self, state_a, state_b, direction):
        return np.zeros_like(state_a)

    def lcd_matrices(self, cells, direction):
        return [{0: None}], [{0: None}]


def _dense(rows, shape):
    """Dense (..., d, d) matrix from sparse {slot: coef} rows."""
    mat = np.zeros(shape + (len(rows), len(rows)))
    for i, row in enumerate(rows):
        for j, coef in row.items():
            mat[..., i, j] = 1.0 if coef is None else coef
    return mat


def face_vectors(model, left, right, direction):
    """model.lcd_matrices at the faces between paired states (..., d), the
    rows of R^-1 and of R: each pair is a two-cell line, whose one face
    axis each coefficient array loses."""
    return tuple(
        [{j: c[..., 0] if isinstance(c, np.ndarray) else c
          for j, c in row.items()} for row in rows]
        for rows in model.lcd_matrices(np.stack([left, right], axis=-2),
                                       direction))


def dense_eigensystem(model, left, right, direction):
    """(R, R^-1) at each face, dense, from the model's sparse rows."""
    inv_rows, rows = face_vectors(model, left, right, direction)
    return _dense(rows, left.shape[:-1]), _dense(inv_rows, left.shape[:-1])


def extremal_weights(a_lo, a_hi, n, eps0):
    """Weights giving all n speeds the extremal ones a_lo/a_hi.

    Feeding these through characteristic_flux reproduces the classical
    central-upwind flux (the R / R^-1 factors cancel).
    """
    agap = a_hi - a_lo
    ok = (agap > eps0)[..., None]
    safe = np.where(ok, agap[..., None], 1.0)
    shape = a_hi.shape + (n,)
    p = np.broadcast_to(np.where(ok, a_hi[..., None] / safe, 0.5), shape)
    m = np.broadcast_to(np.where(ok, -a_lo[..., None] / safe, 0.5), shape)
    q = np.broadcast_to(np.where(ok, (a_hi * a_lo)[..., None] / safe, 0.0),
                        shape)
    return p, m, q


def expand_fields(speeds, d):
    """Per-field values (..., d) from the distinct speeds' (..., 1 or 3):
    every field between the two acoustic ones takes the middle value."""
    if speeds.shape[-1] == 1:
        return speeds
    return np.concatenate([speeds[..., :1]]
                          + [speeds[..., 1:2]] * (d - 2)
                          + [speeds[..., 2:]], axis=-1)


@pytest.fixture
def scalar_model():
    return ScalarAdvection()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_multifluid_states(rng, n, dimension):
    """Admissible random states spanning both EOS regimes used in the runs."""
    rho = rng.uniform(0.1, 10.0, n)
    u = rng.uniform(-3.0, 3.0, n)
    v = rng.uniform(-3.0, 3.0, n) if dimension == 2 else 0.0
    p = rng.uniform(0.1, 10.0, n)
    gamma = rng.uniform(1.1, 4.4, n)
    pi_inf = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 50.0, n))
    return conservative_state(rho, u, v, p, gamma, pi_inf, dimension)


def random_trsw_states(rng, n):
    h = rng.uniform(0.1, 10.0, n)
    u = rng.uniform(-2.0, 2.0, n)
    v = rng.uniform(-2.0, 2.0, n)
    b = rng.uniform(0.1, 10.0, n)
    return np.stack([h, h * u, h * v, h * b], axis=-1)


@pytest.fixture
def mf1():
    return Multifluid(1)


@pytest.fixture
def mf2():
    return Multifluid(2)
