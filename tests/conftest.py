"""Shared fixtures: a scalar-advection toy model, random state factories,
catalog sweep lines, the eigensystem and quasilinear-matrix oracles and
the y-sweep helper's CSV replies."""

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
        return ({0: 1.0}, {0: 1.0}, {}), {0: (None, None)}


def _at_face(coef):
    """A hook coefficient of a two-cell line without its one face axis."""
    return coef[..., 0] if isinstance(coef, np.ndarray) else coef


def face_vectors(model, left, right, direction):
    """model.lcd_matrices at the faces between paired states (..., d):
    ((left row, right row, shared entries), columns), each pair a two-cell
    line whose one face axis each coefficient array loses."""
    (lo, hi, shared), columns = model.lcd_matrices(
        np.stack([left, right], axis=-2), direction)
    rows = tuple({j: _at_face(c) for j, c in row.items()}
                 for row in (lo, hi, shared))
    return rows, {i: tuple(_at_face(c) for c in pair)
                  for i, pair in columns.items()}


def acoustic_pair(model, left, right, direction):
    """The hook's acoustic pair, dense: its two rows of R^-1, (2, ..., d),
    and its two columns of R, (..., d, 2)."""
    (lo, hi, shared), columns = face_vectors(model, left, right, direction)
    shape = left.shape[:-1]
    rows = np.zeros((2,) + shape + (model.d,))
    for row, own in zip(rows, (lo, hi)):
        for j, coef in {**own, **shared}.items():
            row[..., j] = coef
    cols = np.zeros(shape + (model.d, 2))
    for i, pair in columns.items():
        for k, coef in enumerate(pair):
            cols[..., i, k] = 1.0 if coef is None else coef
    return rows, cols


def acoustic_pair_checks(model, left, right, direction, r_mat, r_inv,
                         a_mat, w):
    """(whether the hook's acoustic pair is the oracle's first and last
    rows of R^-1 and columns of R, bitwise; the largest |A P - w P|), with
    A the quasilinear matrix and w the middle speed at the faces' averaged
    state.  P = I - r_- l_- - r_+ l_+, built from the hook's pair, projects
    onto the middle fields, which all move with w."""
    rows, cols = acoustic_pair(model, left, right, direction)
    same = all(np.ascontiguousarray(got).tobytes()
               == np.ascontiguousarray(want).tobytes()
               for got, want in ((rows[0], r_inv[..., 0, :]),
                                 (rows[1], r_inv[..., -1, :]),
                                 (cols, r_mat[..., [0, -1]])))
    proj = np.eye(model.d) - sum(cols[..., :, k, None] * rows[k][..., None, :]
                                 for k in range(2))
    resid = np.einsum('...ij,...jk->...ik', a_mat, proj) \
        - w[..., None, None] * proj
    return same, np.abs(resid).max()


def dense_eigensystem(model, left, right, direction):
    """Oracle (R, R^-1) at each face between paired states (..., d), dense
    and complete, from the means of the two states' primitives: every
    field's eigenvector, where model.lcd_matrices returns only the acoustic
    pair.  Its acoustic entries use the hooks' arithmetic, so they match
    the hooks bitwise."""
    if isinstance(model, ThermalShallowWater):
        return _trsw_eigensystem(model, left, right, direction)
    rho, u, v, p, gamma, pi_inf = (
        0.5 * (a + b)
        for a, b in zip(model.primitives(left), model.primitives(right)))
    w, t = (u, v) if direction == "x" else (v, u)
    ia, it = model._indices(direction)
    ie, ig, ip, d = model.ie, model.ig, model.ip, model.d
    g = gamma - 1.0
    c = np.sqrt(gamma * (p + pi_inf) / rho)
    c2 = c * c
    inv2c2 = 0.5 / c2
    kin = 0.5 * (w * w + t * t)
    gi = g * inv2c2
    gp = g * p * inv2c2
    gt = g * t * inv2c2
    enth = c2 / g + kin
    r_inv = np.zeros(w.shape + (d, d))
    r_mat = np.zeros(w.shape + (d, d))
    # the fields: w - c, contact, (2-D) shear, G and P materials, w + c
    kc, kg, kp, kr = 1, d - 3, d - 2, d - 1
    for k in (0, kr):
        r_inv[..., k, ie] = gi
        r_inv[..., k, ig] = -gp
        r_inv[..., k, ip] = -gi
    r_inv[..., 0, 0] = (g * kin + w * c) * inv2c2
    r_inv[..., 0, ia] = (-c - g * w) * inv2c2
    r_inv[..., kr, 0] = (g * kin - w * c) * inv2c2
    r_inv[..., kr, ia] = (c - g * w) * inv2c2
    r_inv[..., kc, 0] = (2.0 * c2 - 2.0 * g * kin) * inv2c2
    r_inv[..., kc, ia] = 2.0 * g * w * inv2c2
    r_inv[..., kc, ie] = -2.0 * gi
    r_inv[..., kc, ig] = 2.0 * gp
    r_inv[..., kc, ip] = 2.0 * gi
    r_inv[..., kg, ig] = 1.0
    r_inv[..., kg, ip] = 1.0 / p
    r_inv[..., kp, ip] = -1.0 / p
    r_mat[..., 0, (0, kc, kr)] = 1.0
    r_mat[..., ia, 0] = w - c
    r_mat[..., ia, kc] = w
    r_mat[..., ia, kr] = w + c
    r_mat[..., ie, 0] = enth - w * c
    r_mat[..., ie, kc] = kin
    r_mat[..., ie, kg] = p
    r_mat[..., ie, kr] = enth + w * c
    r_mat[..., ig, (kg, kp)] = 1.0
    r_mat[..., ip, kp] = -p
    if it is not None:
        for k in (0, kr):
            r_inv[..., k, it] = -gt
        r_inv[..., kc, it] = 2.0 * gt
        r_inv[..., 2, 0] = -t
        r_inv[..., 2, it] = 1.0
        for k in (0, kc, kr):
            r_mat[..., it, k] = t
        r_mat[..., it, 2] = 1.0
        r_mat[..., ie, 2] = t
    return r_mat, r_inv


def _trsw_eigensystem(model, left, right, direction):
    ia, it = model._indices(direction)

    def prim(state):
        h = state[..., 0]
        return h, state[..., ia] / h, state[..., it] / h, state[..., 3] / h

    h, w, t, b = (0.5 * (a + z) for a, z in zip(prim(left), prim(right)))
    kap = np.sqrt(b / h)
    s = np.sqrt(b * h)
    inv_b = 1.0 / b
    r_inv = np.zeros(h.shape + (4, 4))
    r_mat = np.zeros(h.shape + (4, 4))
    # the fields: w - s, buoyancy and shear materials, w + s
    r_inv[..., 0, 0] = 0.25 * (b + 2.0 * w * kap)
    r_inv[..., 0, ia] = -0.5 * kap
    r_inv[..., 3, 0] = 0.25 * (b - 2.0 * w * kap)
    r_inv[..., 3, ia] = 0.5 * kap
    r_inv[..., (0, 3), 3] = 0.25
    r_inv[..., 1, 0] = -0.5 * b
    r_inv[..., 1, 3] = 0.5
    r_inv[..., 2, 0] = -0.5 * t
    r_inv[..., 2, it] = 1.0
    r_inv[..., 2, 3] = -0.5 * t * inv_b
    for k in (0, 3):
        r_mat[..., 0, k] = inv_b
        r_mat[..., it, k] = t * inv_b
    r_mat[..., 0, 1] = -inv_b
    r_mat[..., ia, 0] = (w - s) * inv_b
    r_mat[..., ia, 1] = -w * inv_b
    r_mat[..., ia, 3] = (w + s) * inv_b
    r_mat[..., it, 2] = 1.0
    r_mat[..., 3, (0, 1, 3)] = 1.0
    return r_mat, r_inv


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


def catalog_lines(name, direction, nx=20, ny=20):
    """(model, lines, geom) of one sweep of a catalog example's initial
    data, in 2-D on an nx by ny grid, the lines viewed as spatial_rhs
    hands them on and geom as a run builds it."""
    grid_size = {} if EXAMPLES[name]["dimension"] == 1 else dict(nx=nx,
                                                                 ny=ny)
    config = make_config(name, **grid_size)
    model, grid = config.model, config.grid
    fld = init_from_function(grid, model.d, config.ic)
    fill_ghosts(fld, config.bc, model)
    geom = line_geometry(model, grid, config.bc, direction)
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
