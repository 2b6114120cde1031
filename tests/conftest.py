"""Shared fixtures: a scalar-advection toy model, random state factories,
catalog sweep lines, the quasilinear-matrix oracle and the y-sweep
helper's CSV replies."""

import numpy as np
import pytest

from pccu import driver, ysweep
from pccu.catalog import EXAMPLES, make_config
from pccu.driver import line_geometry
from pccu.errors import check_admissible
from pccu.grid import GHOST, fill_ghosts, init_from_function
from pccu.multifluid import Multifluid, conservative_state
from pccu.trsw import ThermalShallowWater


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


def quasilinear_matrix(model, state, direction):
    """Full Jacobian-plus-B matrix A of a model's quasilinear form, the
    oracle of the eigensystem tests."""
    if isinstance(model, ThermalShallowWater):
        return _trsw_quasilinear_matrix(model, state, direction)
    rho, u, v, p, gamma, pi_inf = model.primitives(state)
    w, t = (u, v) if direction == "x" else (v, u)
    ia, it = model._indices(direction)
    ie, ig, ip = model.ie, model.ig, model.ip
    c2 = gamma * (p + pi_inf) / rho
    mat = np.zeros(state.shape[:-1] + (model.d, model.d))
    g1 = gamma - 1.0
    q2 = w * w + t * t
    mat[..., 0, ia] = 1.0
    mat[..., ia, 0] = 0.5 * (gamma - 3.0) * w * w + 0.5 * g1 * t * t
    mat[..., ia, ia] = (3.0 - gamma) * w
    mat[..., ia, ie] = g1
    mat[..., ia, ig] = -g1 * p
    mat[..., ia, ip] = -g1
    mat[..., ie, 0] = -w * c2 / g1 + (0.5 * gamma - 1.0) * w * q2
    mat[..., ie, ia] = c2 / g1 + (1.5 - gamma) * w * w + 0.5 * t * t
    mat[..., ie, ie] = gamma * w
    mat[..., ie, ig] = -g1 * p * w
    mat[..., ie, ip] = -g1 * w
    mat[..., ig, ig] = w
    mat[..., ip, ip] = w
    if it is not None:
        mat[..., ia, it] = -g1 * t
        mat[..., it, 0] = -w * t
        mat[..., it, ia] = t
        mat[..., it, it] = w
        mat[..., ie, it] = -g1 * w * t
    return mat


def _trsw_quasilinear_matrix(model, state, direction):
    ia, it = model._indices(direction)
    h = state[..., 0]
    w = state[..., ia] / h
    t = state[..., it] / h
    b = state[..., 3] / h
    mat = np.zeros(state.shape[:-1] + (4, 4))
    mat[..., 0, ia] = 1.0
    mat[..., ia, 0] = 0.5 * b * h - w * w
    mat[..., ia, ia] = 2.0 * w
    mat[..., ia, 3] = 0.5 * h
    mat[..., it, 0] = -w * t
    mat[..., it, ia] = t
    mat[..., it, it] = w
    mat[..., 3, 0] = -b * w
    mat[..., 3, ia] = b
    mat[..., 3, 3] = w
    return mat


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


def catalog_lines(name, direction):
    """(model, lines, geom) of one sweep of a catalog example's initial
    data on a small grid, the lines viewed as spatial_rhs hands them on
    and geom as a run builds it."""
    grid_size = {} if EXAMPLES[name]["dimension"] == 1 else dict(nx=20,
                                                                 ny=20)
    config = make_config(name, **grid_size)
    model, grid = config.model, config.grid
    fld = init_from_function(grid, model.d, config.ic)
    fill_ghosts(fld, config.bc, model)
    geom = line_geometry(model, grid, direction)
    if grid.dimension == 1:
        return model, fld.data[None], geom
    if direction == "x":
        return model, fld.data[GHOST:-GHOST], geom
    return model, np.swapaxes(fld.data[:, GHOST:-GHOST], 0, 1), geom


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


@pytest.fixture
def helper_replies(monkeypatch):
    """The block texts the y-sweep helper formats, once a small 2-D run has
    forked it."""
    if ysweep._usable_cpus() < 2:
        pytest.skip("the helper needs two CPUs and Linux")
    driver.run(make_config("ex4", nx=24, ny=8, t_final=0.001, snapshots=()))
    assert ysweep._helper.usable()
    replies = []
    formatted = ysweep.SweepHelper.formatted

    def kept(self):
        replies.append(formatted(self))
        return replies[-1]

    monkeypatch.setattr(ysweep.SweepHelper, "formatted", kept)
    return replies
