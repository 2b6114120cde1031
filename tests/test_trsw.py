"""Thermal shallow water model: fluxes, eigensystem, equilibrium inversion."""

import dataclasses

import numpy as np
import pytest

from pccu.errors import AdmissibilityError, ReconstructionError
from pccu.catalog import TOPOGRAPHIES, make_config
from pccu.globalflux import interleave_cell_halves
from pccu.grid import GHOST, Grid, BoundaryCondition, Field, fill_ghosts, \
    init_from_function
from pccu.trsw import H_MIN, ThermalShallowWater, invert_momentum_flux
from pccu.driver import RunConfig, line_geometry, run, spatial_rhs
from conftest import random_trsw_states, acoustic_pair_checks, \
    dense_eigensystem, expand_fields, quasilinear_matrix


# ---- fluxes -------------------------------------------------------------------

def test_flux_resting_column_oracle():
    # h=2, b=1 at rest: the only nonzero flux entry is b h^2 / 2 = 2 on the
    # momentum row of the sweep direction
    model = ThermalShallowWater(1)
    state = np.array([2.0, 0.0, 0.0, 2.0])
    f = model.flux(state, "x")
    ia = model.momentum_index("x")
    assert f[ia] == pytest.approx(2.0, rel=1e-15)
    assert np.all(np.delete(f, ia) == 0.0)


def test_flux_moving_column():
    model = ThermalShallowWater(2)
    state = np.array([2.0, 1.0, 3.0, 4.0])    # h=2, u=.5, v=1.5, b=2
    f = model.flux(state, "x")
    assert np.allclose(f, [1.0, 1.0 * 0.5 + 0.5 * 4.0 * 2.0, 3.0 * 0.5,
                           4.0 * 0.5], rtol=1e-14)
    g = model.flux(state, "y")
    assert g[0] == 3.0
    assert g[2] == pytest.approx(3.0 * 1.5 + 0.5 * 4.0 * 2.0, rel=1e-14)


def test_eigenvalues_unit_column():
    model = ThermalShallowWater(1)
    state = np.array([[1.0, 0.0, 0.0, 1.0]])
    lam = model.eigenvalues(state, "x")
    assert np.array_equal(lam[0], [-1.0, 0.0, 1.0])


def test_eigenvalues_raise_on_negative_buoyancy():
    model = ThermalShallowWater(1)
    state = np.array([[1.0, 0.0, 0.0, -1.0]])
    with pytest.raises(AdmissibilityError):
        model.eigenvalues(state, "x")


@pytest.mark.parametrize("state", [[0.5 * H_MIN, 0.0, 0.0, 1.0],
                                   [1.0, 0.0, 0.0, 0.0],
                                   [np.nan, 0.0, 0.0, 1.0]],
                         ids=["h_below_h_min", "hb_zero", "h_nan"])
def test_eigenvalues_reject_what_admissible_rejects(state):
    model = ThermalShallowWater(1)
    state = np.array([state])
    assert not model.admissible(state).any()
    with pytest.raises(AdmissibilityError, match="wave-speed evaluation"):
        model.eigenvalues(state, "x")


def test_lcd_matrices_raise_on_nonpositive_face_means():
    model = ThermalShallowWater(1)
    good = [1.0, 0.0, 0.0, 1.0]
    # face means b = 0 and h = -0.5 (with b = 1)
    for bad in ([1.0, 0.0, 0.0, -1.0], [-2.0, 0.0, 0.0, -2.0]):
        cells = np.array([[good, bad]])
        with pytest.raises(AdmissibilityError,
                           match="characteristic decomposition"):
            model.lcd_matrices(cells, "x")


def test_validate_rejects_bad_states():
    model = ThermalShallowWater(2)
    good = [1.0, 0.1, 0.0, 2.0]
    model.validate(np.array(good))
    for bad in ([0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                [1.0, np.inf, 0.0, 1.0]):
        states = np.array([[good, good], [good, bad]])
        with pytest.raises(AdmissibilityError) as info:
            model.validate(states, "initial data")
        # the first bad cell, (k, j), and its state
        assert info.value.where == (1, 1)
        message = str(info.value)
        assert "initial data" in message and "cell (1, 1)" in message
        assert str(bad) in message


@pytest.mark.parametrize("rotation", [dict(f0=1.0), dict(beta=0.5)],
                         ids=["f0", "beta"])
def test_rotation_in_1d_is_refused_when_built_in_code(rotation):
    # one rule in the constructor: a 1-D config built in code cannot
    # reach the sweep, where f(y) has no transverse coordinate
    with pytest.raises(ValueError, match="2-D grid"):
        dataclasses.replace(make_config("ex6"), model=ThermalShallowWater(
            1, topography=TOPOGRAPHIES["two_bumps_1d"], **rotation))


def test_a_third_dimension_is_refused():
    with pytest.raises(ValueError, match="^dimension must be 1 or 2$"):
        ThermalShallowWater(3)


def test_coriolis_affine():
    model = ThermalShallowWater(2, f0=2.0, beta=0.5)
    y = np.array([-1.0, 0.0, 4.0])
    assert np.array_equal(model.coriolis(y), [1.5, 2.0, 4.0])


@pytest.mark.parametrize("dimension,direction",
                         [(2, "x"), (2, "y"), (1, "x")],
                         ids=["x", "y", "1d"])
def test_eigen_identities_against_quasilinear_matrix(rng, dimension,
                                                     direction):
    model = ThermalShallowWater(dimension)
    left = random_trsw_states(rng, 300)[None]
    right = random_trsw_states(rng, 300)[None]
    r_mat, r_inv = dense_eigensystem(model, left, right, direction)
    prim = lambda s: np.stack([s[..., 0], s[..., 1] / s[..., 0],
                               s[..., 2] / s[..., 0],
                               s[..., 3] / s[..., 0]], axis=-1)
    hat = 0.5 * (prim(left) + prim(right))
    hat_state = np.stack([hat[..., 0], hat[..., 0] * hat[..., 1],
                          hat[..., 0] * hat[..., 2],
                          hat[..., 0] * hat[..., 3]], axis=-1)
    speeds = model.eigenvalues(hat_state, direction)
    lam = expand_fields(speeds, model.d)
    a_mat = quasilinear_matrix(model, hat_state, direction)
    resid = np.einsum('...ij,...jk->...ik', a_mat, r_mat) \
        - r_mat * lam[..., None, :]
    assert np.abs(resid).max() <= 1e-11
    eye = np.einsum('...ij,...jk->...ik', r_mat, r_inv)
    assert np.abs(eye - np.eye(4)).max() <= 1e-11
    same, worst = acoustic_pair_checks(model, left, right, direction, r_mat,
                                       r_inv, a_mat, speeds[..., 1])
    assert same
    assert worst <= 1e-11


# ---- equilibrium map and its inverse -------------------------------------------

def test_invert_momentum_flux_at_rest_closed_form():
    h = invert_momentum_flux(np.zeros(1), np.array([2.0]), np.ones(1),
                             np.array([1.5]))
    assert h[0] == pytest.approx(2.0, abs=1e-14)
    assert invert_momentum_flux(0.0, 2.0, 1.0, 1.5).shape == ()


def test_invert_momentum_flux_no_root_at_rest_names_its_value():
    # phi <= 0 at rest has no positive root; the error indexes the value,
    # so reconstruct_equilibrium can name its face and line
    model = ThermalShallowWater(2)
    e = np.zeros((4, 3, 5, 4))
    e[..., 1] = 2.0
    e[..., 2] = 1.0
    e[1, 2, 3, 1] = -0.5
    with pytest.raises(ReconstructionError, match="phi=-0.5") as info:
        model.equilibrium_invert(e, np.zeros((3, 5)), np.ones((4, 3, 5)),
                                 "x")
    assert info.value.where == (1, 2, 3)


def test_invert_momentum_flux_rejects_a_negative_guess_at_rest():
    # at m = 0 a negative guess (an inadmissible average) picks the lower
    # root h = 0, whose residual is 0/0: the NaN must not pass the check
    with pytest.raises(ReconstructionError, match="residual nan"):
        invert_momentum_flux(np.zeros(3), np.full(3, 2.0), np.ones(3),
                             np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ReconstructionError, match="residual nan"):
        invert_momentum_flux(0.0, 2.0, 1.0, -1e-3)
    # a zero guess takes the upper root, the at-rest thickness
    assert invert_momentum_flux(0.0, 2.0, 1.0, 0.0) == pytest.approx(
        2.0, abs=1e-14)


def test_invert_momentum_flux_near_critical_and_extreme_froude(rng):
    # phi from just above psi_min to 1e12 times it, guesses on either
    # branch up to 1e6 times off h_crit, |m| from 1e-30 to 1e3, and |m|
    # small enough that m^2 underflows; the worst relative residual
    # measured is about 1.1e-15
    n = 20000
    m = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30.0, 3.0, n)
    b = 10.0 ** rng.uniform(-1.0, 1.0, n)
    h_crit = np.cbrt(m * m / b)
    psi_min = 1.5 * b * h_crit * h_crit
    phi = psi_min * (1.0 + 10.0 ** rng.uniform(-13.0, 12.0, n))
    guess = h_crit * 10.0 ** rng.uniform(-6.0, 6.0, n)
    m_tiny = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(
        -200.0, -162.0, 1000)
    assert np.any(m_tiny * m_tiny == 0.0)
    m = np.concatenate([m, m_tiny])
    b = np.concatenate([b, rng.uniform(0.1, 10.0, 1000)])
    phi = np.concatenate([phi, rng.uniform(0.1, 10.0, 1000)])
    guess = np.concatenate([guess, rng.uniform(0.1, 10.0, 1000)])
    h = invert_momentum_flux(m, phi, b, guess)
    assert np.all(h > 0.0)
    residual = np.abs(m * m / h + 0.5 * b * h * h - phi) / phi
    assert residual.max() <= 1e-14


def _away_from_critical(h, m, b, margin=0.15):
    """Mask of states whose thickness sits clear of the critical point.

    At h_crit the two positive roots of m^2/h + b h^2/2 = phi coalesce:
    root selection is ambiguous there and a rounding-level residual maps
    to an O(sqrt(eps)) thickness error, so the exact round-trip property
    only holds on the two proper branches."""
    h_crit = np.cbrt(m * m / b)
    return np.abs(h - h_crit) > margin * np.maximum(h, h_crit)


def test_invert_momentum_flux_round_trip(rng):
    n = 1000
    h = rng.uniform(0.1, 10.0, n)
    b = rng.uniform(0.1, 10.0, n)
    m = rng.uniform(-2.0, 2.0, n) * h
    keep = _away_from_critical(h, m, b)
    h, b, m = h[keep], b[keep], m[keep]
    assert keep.sum() > 800                 # the filter keeps the bulk
    # supercritical (lower-branch) states, Froude numbers 1.6 to 1e6
    h_sup = rng.uniform(0.01, 1.0, n)
    b_sup = rng.uniform(0.1, 10.0, n)
    froude = 10.0 ** rng.uniform(np.log10(1.6), 6.0, n)
    m_sup = rng.choice([-1.0, 1.0], n) * froude * np.sqrt(b_sup * h_sup) * h_sup
    # deep states, phi up to about 1e5
    h_deep = rng.uniform(50.0, 100.0, n)
    b_deep = rng.uniform(5.0, 20.0, n)
    m_deep = rng.uniform(-2.0, 2.0, n) * h_deep
    # ex8's near-rest cells: m^2 about 8e-58, phi about 6, b about 3
    h_rest = rng.uniform(1.9, 2.1, n)
    b_rest = rng.uniform(2.9, 3.1, n)
    m_rest = rng.uniform(-1.0, 1.0, n) * 2.8e-29
    h = np.concatenate([h, h_sup, h_deep, h_rest])
    b = np.concatenate([b, b_sup, b_deep, b_rest])
    m = np.concatenate([m, m_sup, m_deep, m_rest])
    phi = m * m / h + 0.5 * b * h * h
    guess = h * rng.uniform(0.95, 1.05, h.size)
    out = invert_momentum_flux(m, phi, b, guess)
    assert np.all(np.abs(out - h) <= 1e-12 * h)


def test_equilibrium_map_round_trip(rng):
    model = ThermalShallowWater(1)
    states = random_trsw_states(rng, 500)
    keep = _away_from_critical(states[..., 0], states[..., 2],
                               states[..., 3] / states[..., 0])
    states = states[keep][None]
    assert states.shape[1] > 400
    r_vals = rng.normal(size=states.shape[:-1]) * 0.3
    e = model.equilibrium_values(states, r_vals, "x")
    h = states[..., 0]
    guess = h * rng.uniform(0.98, 1.02, h.shape)
    back = model.equilibrium_invert(e, r_vals, guess, "x")
    err = np.abs(back - states) / np.maximum(np.abs(states), 1.0)
    assert err.max() <= 1e-12


def test_equilibrium_values_layout():
    model = ThermalShallowWater(1)
    state = np.array([[[2.0, 0.6, 1.0, 4.0]]])   # h=2, u_t=0.3, q=1, b=2
    e = model.equilibrium_values(state, np.zeros((1, 1)), "x")
    # (q, q^2/h + b h^2/2 + R, b, transverse velocity)
    assert np.allclose(e[0, 0], [1.0, 0.5 + 4.0, 2.0, 0.3], rtol=1e-14)


# ---- buoyancy transport through the full scheme ---------------------------------

@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
def test_uniform_buoyancy_is_preserved(scheme):
    # with b identically constant the buoyancy equation degenerates to the
    # continuity equation: the evolved hb/h must stay constant to round-off
    model = ThermalShallowWater(1)
    grid = Grid(0.0, 1.0, 64)

    def ic(x):
        h = 1.0 + 0.2 * np.sin(2 * np.pi * x)
        u = 0.1 * np.cos(2 * np.pi * x)
        out = np.zeros(x.shape + (4,))
        out[..., 0] = h
        out[..., 2] = h * u
        out[..., 3] = 2.0 * h
        return out

    config = RunConfig(model=model, grid=grid,
                       bc=BoundaryCondition("periodic", "periodic"),
                       ic=ic, scheme=scheme, t_final=0.05)
    report = run(config)
    final = report.states[-1]
    b = final[:, 3] / final[:, 0]
    assert np.abs(b - 2.0).max() <= 1e-12


# ---- lake at rest over topography -------------------------------------------------

def _lake_tendency(model, grid, level, scheme):
    """Largest initial tendency of h + Z = level, u = v = 0, b = 1."""
    def ic(*xy):
        h = level - model.topography(*xy)
        return np.stack([h, 0 * h, 0 * h, h], axis=-1)
    fld = init_from_function(grid, model.d, ic)
    bc = BoundaryCondition.from_spec("free", grid.dimension)
    tend, _, _ = spatial_rhs(fld, model, bc, scheme, 1.3, 1e-18)
    return np.abs(tend).max()


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
@pytest.mark.parametrize("nx", [100, 200, 400])
def test_lake_at_rest_over_two_bumps_is_steady(scheme, nx):
    model = ThermalShallowWater(1, topography=TOPOGRAPHIES["two_bumps_1d"])
    assert _lake_tendency(model, Grid(-1.0, 1.0, nx), 3.0, scheme) <= 1e-11


def _compact_bump(x, y):
    # zero outside radius 0.4, so the free-boundary ghost cells see flat
    # bottom and the lake is exact up to the edges
    r = np.hypot(x - 0.1, y + 0.05)
    return np.where(r < 0.4, 0.6 * np.cos(0.5 * np.pi * r / 0.4) ** 2, 0.0)


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
def test_lake_at_rest_over_compact_bump_2d_is_steady(scheme):
    model = ThermalShallowWater(2, topography=_compact_bump)
    grid = Grid(-1.0, 1.0, 40, -1.0, 1.0, 30)
    assert _lake_tendency(model, grid, 2.0, scheme) <= 1e-11


# ---- moving-water and geostrophic steady states ---------------------------------

def _centre_r(model, fld, bc, geom, lines_of):
    """R = -W at the interior cell centres of a ghost-filled field, chained
    by the sweep's own half-cell source rule along geom's direction."""
    fill_ghosts(fld, bc, model)
    w_center, _ = interleave_cell_halves(
        *model.source_half_increments(lines_of(fld.data), geom))
    return -w_center[:, GHOST:-GHOST, 0]


def _cos_bump(x):
    return np.where(np.abs(x) < 0.5, 0.3 * np.cos(np.pi * x) ** 2, 0.0)


def _moving_water(nx, m=0.5, b=1.0, h_far=2.0):
    """Discrete moving water over a compact bump: m and b constant and
    m^2/h + b h^2/2 + R constant, with R from the cells' own hb, found by
    repeating the inversion until h stops changing."""
    model = ThermalShallowWater(1, topography=_cos_bump)
    grid = Grid(-1.0, 1.0, nx)
    bc = BoundaryCondition.from_spec("free", 1)
    geom = line_geometry(model, grid, bc, "x")
    fld = Field(grid, model.d)
    level = m * m / h_far + 0.5 * b * h_far ** 2
    h = np.full(nx, h_far)
    for _ in range(50):
        fld.interior[...] = np.stack([h, 0.0 * h, m + 0.0 * h, b * h], -1)
        r = _centre_r(model, fld, bc, geom, lambda data: data[None])[0]
        new = invert_momentum_flux(np.full(nx, m), level - r,
                                   np.full(nx, b), h)
        if np.array_equal(new, h):
            return model, fld, bc
        h = new
    raise AssertionError("the discrete moving-water state did not settle")


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
@pytest.mark.parametrize("nx", [100, 200, 400])
def test_moving_water_over_compact_bump_is_steady(scheme, nx):
    model, fld, bc = _moving_water(nx)
    tend, _, _ = spatial_rhs(fld, model, bc, scheme, 1.3, 1e-18)
    assert np.abs(tend).max() <= 1e-12


def _geostrophic_jet(n, b=1.0, h_far=1.0):
    """Discrete jet hu = 0.3 sech^2(2y), v = 0, b constant on the plane
    f = 1 + 0.5 y: b h^2/2 + R constant across y, with R from the y-sweep's
    Coriolis rule.  The jet has decayed to round-off at y = +-8, so the
    free y-boundaries see no source."""
    model = ThermalShallowWater(2, f0=1.0, beta=0.5)
    grid = Grid(0.0, 1.0, 8, -8.0, 8.0, n)
    bc = BoundaryCondition("periodic", "periodic", "free", "free")
    geom = line_geometry(model, grid, bc, "y")
    fld = Field(grid, model.d)
    y = grid.y_centers()[:, None]
    fld.interior[..., 0] = h_far
    fld.interior[..., 1] = 0.3 / np.cosh(2.0 * y) ** 2
    r = _centre_r(model, fld, bc, geom,
                  lambda data: np.swapaxes(data[:, GHOST:-GHOST], 0, 1)).T
    h = np.sqrt(2.0 * (0.5 * b * h_far ** 2 + r.max() - r) / b)
    fld.interior[..., 0] = h
    fld.interior[..., 3] = b * h
    return model, fld, bc


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
@pytest.mark.parametrize("n", [20, 40, 80])
def test_geostrophic_jet_keeps_h_hv_and_hb_steady(scheme, n):
    # the hu row is not steady: Q dU_breve sees the one-sided transverse
    # velocities (ROADMAP item 6), so it is not asserted here
    model, fld, bc = _geostrophic_jet(n)
    tend, _, _ = spatial_rhs(fld, model, bc, scheme, 1.3, 1e-18)
    for row in (0, 2, 3):
        assert np.abs(tend[..., row]).max() <= 1e-12
