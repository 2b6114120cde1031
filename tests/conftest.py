"""Shared fixtures: a scalar-advection toy model and random state factories."""

import numpy as np
import pytest

from pccu.errors import AdmissibilityError
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

    def momentum_index(self, direction):
        return 0

    def admissible(self, state):
        return np.isfinite(state).all(axis=-1)

    def validate(self, state, where="state"):
        if not np.all(self.admissible(state)):
            raise AdmissibilityError("non-finite %s" % where)

    def flux(self, state, direction):
        return state.copy()

    def eigenvalues(self, state, direction):
        return np.ones(state.shape[:-1] + (1,))

    def noncons_increment(self, state_a, state_b, direction):
        return np.zeros_like(state_a)

    def lcd_matrices(self, avg_left, avg_right, direction):
        shape = avg_left.shape[:-1]
        r = np.ones(shape + (1, 1))
        return r, r.copy(), np.ones(shape + (1,))


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
