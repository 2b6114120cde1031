"""Accumulation of the global flux terms W along sweep lines."""

import numpy as np
import pytest
from scipy.integrate import quad

from pccu.grid import GHOST
from pccu.globalflux import interleave_cell_halves, interleave_jumps_cells
from pccu.reconstruct import interface_values
from pccu.fluxes import central_upwind_flux, characteristic_flux, \
    split_weights, local_speeds
from pccu.multifluid import Multifluid, conservative_state
from pccu.trsw import ThermalShallowWater
from pccu.driver import LineGeometry


# ---- interleaved accumulators ----------------------------------------------

def test_jump_cell_interleave_recursion(rng):
    # W-|0 = 0; W+|f = W-|f + jump_f; W-|f+1 = W+|f + cell_f
    jump = rng.normal(size=(3, 7, 2))
    cell = rng.normal(size=(3, 6, 2))
    w_minus, w_plus = interleave_jumps_cells(jump, cell)
    assert np.all(w_minus[:, 0] == 0.0)
    assert np.allclose(w_plus, w_minus + jump, rtol=0, atol=1e-15)
    assert np.allclose(w_minus[:, 1:], w_plus[:, :-1] + cell,
                       rtol=0, atol=1e-14)
    # telescoping: the rightmost value is the sum of all increments
    total = jump.sum(axis=1) + cell.sum(axis=1)
    assert np.allclose(w_plus[:, -1], total, rtol=1e-13, atol=1e-13)


def test_cell_halves_interleave_recursion(rng):
    half_l = rng.normal(size=(2, 9, 3))
    half_r = rng.normal(size=(2, 9, 3))
    w_center, w_face = interleave_cell_halves(half_l, half_r)
    # center of cell i accumulates all earlier halves plus its own left half
    both = half_l + half_r
    for i in range(9):
        expect = both[:, :i].sum(axis=1) + half_l[:, i]
        assert np.allclose(w_center[:, i], expect, rtol=1e-13, atol=1e-13)
    # face f sits at the right edge of padded cell f+1
    nf = w_face.shape[1]
    assert nf == 9 - 2 * GHOST + 1
    for f in range(nf):
        expect = both[:, :f + 2].sum(axis=1)
        assert np.allclose(w_face[:, f], expect, rtol=1e-13, atol=1e-13)


# ---- path increments, multifluid -------------------------------------------

def _rows(model, inc):
    """All d rows of a path increment given on model.noncons_rows; the
    other rows of B are zero."""
    full = np.zeros(inc.shape[:-1] + (model.d,))
    full[..., model.noncons_rows] = inc
    return full


def test_noncons_increment_zero_for_equal_states(mf1, rng):
    from conftest import random_multifluid_states
    states = random_multifluid_states(rng, 50, 1)
    inc = mf1.noncons_increment(states, states, "x")
    assert inc.shape == (50, 2)
    assert np.all(inc == 0.0)


def test_noncons_increment_gamma_jump_oracle(mf1):
    # two states sharing rho, u, p but with different EOS parameters: the
    # only increments are -u * dGamma and -u * dPi on the material rows
    left = conservative_state(2.0, 1.5, 0.0, 3.0, 1.4, 0.0, 1)
    right = conservative_state(2.0, 1.5, 0.0, 3.0, 4.4, 6000.0, 1)
    # every other row of B is zero: the increment covers noncons_rows only
    assert mf1.noncons_rows == slice(mf1.ig, mf1.ip + 1)
    inc = _rows(mf1, mf1.noncons_increment(left, right, "x"))
    d_gamma = right[mf1.ig] - left[mf1.ig]
    d_pi = right[mf1.ip] - left[mf1.ip]
    assert inc[mf1.ig] == pytest.approx(-1.5 * d_gamma, rel=1e-14)
    assert inc[mf1.ip] == pytest.approx(-1.5 * d_pi, rel=1e-14)
    assert np.all(inc[:mf1.ig] == 0.0)


def test_noncons_increment_uses_midpoint_velocity(mf1):
    left = conservative_state(1.0, 2.0, 0.0, 1.0, 1.4, 0.0, 1)
    right = conservative_state(3.0, 0.0, 0.0, 1.0, 1.6, 0.0, 1)
    inc = _rows(mf1, mf1.noncons_increment(left, right, "x"))
    u_mid = (left[1] + right[1]) / (left[0] + right[0])   # mean state velocity
    d_gamma = right[mf1.ig] - left[mf1.ig]
    assert inc[mf1.ig] == pytest.approx(-u_mid * d_gamma, rel=1e-14)


def test_accumulated_w_converges_to_exact_path_integral(mf1):
    # smooth single-velocity profile with varying EOS parameters: the W
    # accumulated from interface x=0 up to interface x=0.4 approximates
    #   int_0^0.4 -u(x) Gamma'(x) dx
    # to second order (compare against adaptive quadrature)
    u_fn = lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x)
    gamma_fn = lambda x: 1.4 + 0.2 * np.cos(2 * np.pi * x) ** 2
    dgamma_fn = lambda x: -0.4 * np.pi * np.sin(4 * np.pi * x)

    def partial_w(n):
        dx = 1.0 / n
        x = (np.arange(-GHOST, n + GHOST) + 0.5) * dx
        lines = conservative_state(1.0, u_fn(x), 0.0, 1.0,
                                   gamma_fn(x), 0.0, 1)[None]
        (um, up), half = interface_values(lines, 1.3)
        jump = mf1.noncons_increment(um, up, "x")
        inner = lines[:, GHOST:-GHOST, :]
        cell = mf1.noncons_increment(inner - half[:, 1:-1, :],
                                     inner + half[:, 1:-1, :], "x")
        w_minus, w_plus = interleave_jumps_cells(jump, cell)
        f = (2 * n) // 5                 # the interface at x = 0.4 exactly
        w_plus = _rows(mf1, w_plus)
        return w_plus[0, f, mf1.ig] - w_plus[0, 0, mf1.ig]

    # Gamma = 1/(gamma - 1)  =>  Gamma' = -gamma' / (gamma - 1)^2
    dg = lambda x: -dgamma_fn(x) / (gamma_fn(x) - 1.0) ** 2
    exact, _ = quad(lambda x: -u_fn(x) * dg(x), 0.0, 0.4, limit=200)
    errs = [abs(partial_w(n) - exact) for n in (40, 80)]
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 1.9, f"quadrature rate {rate:.2f}, errors {errs}"


# ---- source integrals, thermal shallow water ---------------------------------

def _const_trsw_lines(n, h, b):
    state = np.array([h, 0.0, 0.0, h * b])
    return np.tile(state, (1, n + 2 * GHOST, 1))


def test_source_increments_vanish_on_flat_bottom_no_rotation():
    model = ThermalShallowWater(1, topography=None)
    lines = _const_trsw_lines(6, 2.0, 1.0)
    geom = LineGeometry("x", 0.1, (np.arange(-GHOST, 6 + GHOST) + 0.5) * 0.1)
    geom.sources = model.source_geometry(geom)
    half_l, half_r = model.source_half_increments(lines, geom)
    assert np.all(half_l == 0.0)
    assert np.all(half_r == 0.0)


def test_topography_cell_increment_oracle():
    # h=1, b=1 over Z(x) = 0.1 x with dx=1: each cell contributes
    # -<hb> dZ = -0.1 to W, whose one row is the momentum along x
    model = ThermalShallowWater(1, topography=lambda x: 0.1 * x)
    n, dx = 5, 1.0
    lines = _const_trsw_lines(n, 1.0, 1.0)
    geom = LineGeometry("x", dx, (np.arange(-GHOST, n + GHOST) + 0.5) * dx)
    geom.sources = model.source_geometry(geom)
    half_l, half_r = model.source_half_increments(lines, geom)
    assert half_l.shape == half_r.shape == (1, n + 2 * GHOST, 1)
    cell_total = half_l[0, :, 0] + half_r[0, :, 0]
    assert np.allclose(cell_total, -0.1, rtol=0, atol=1e-14)


def test_coriolis_y_sweep_increment_oracle():
    # S^y momentum row is -f(y) h u; constant state h=1, u=0.5, f = 2 + y
    # integrated exactly over each cell for affine f
    model = ThermalShallowWater(2, topography=None, f0=2.0, beta=1.0)
    n, dy = 4, 0.25
    state = np.array([1.0, 0.5, 0.0, 1.0])    # (h, hu, hv, hb)
    lines = np.tile(state, (3, n + 2 * GHOST, 1))
    coords = (np.arange(-GHOST, n + GHOST) + 0.5) * dy
    geom = LineGeometry("y", dy, coords, transverse=np.zeros(3))
    geom.sources = model.source_geometry(geom)
    half_l, half_r = model.source_half_increments(lines, geom)
    # one row: the hv momentum of the y-sweep
    assert half_l.shape == half_r.shape == (3, n + 2 * GHOST, 1)
    cell_total = half_l[0, :, 0] + half_r[0, :, 0]
    f_cell = 2.0 + coords                # affine f sampled at cell centers
    expect = -f_cell * 1.0 * 0.5 * dy    # -f h u per unit length
    assert np.allclose(cell_total, expect, rtol=1e-13, atol=1e-15)


# ---- anchor invariance -------------------------------------------------------

def test_flux_shift_equivariance_makes_anchor_immaterial(rng, mf1):
    # moving the W anchor adds one constant vector c to every K+-; both
    # assemblies map K+c to flux+c, so flux differences are anchor-invariant
    from conftest import face_vectors, random_multifluid_states
    left = random_multifluid_states(rng, 64, 1)[None]
    right = random_multifluid_states(rng, 64, 1)[None]
    lam = mf1.eigenvalues(np.stack([left, right]), "x")
    a_lo, a_hi = local_speeds(lam)
    k_minus, k_plus = mf1.flux(left, "x"), mf1.flux(right, "x")
    du = right - left
    c = rng.normal(size=(1, 1, 5))

    base = central_upwind_flux(a_lo, a_hi, k_minus, k_plus, du, 1e-18)
    shifted = central_upwind_flux(a_lo, a_hi, k_minus + c, k_plus + c, du,
                                  1e-18)
    assert np.allclose(shifted - base, c, rtol=0,
                       atol=1e-12 * np.abs(base).max())

    vectors = face_vectors(mf1, left, right, "x")
    p, m, q = split_weights(lam, a_lo, a_hi, 1e-18)
    base = characteristic_flux(vectors, p, m, q, k_minus, k_plus, du)
    shifted = characteristic_flux(vectors, p, m, q, k_minus + c,
                                  k_plus + c, du)
    assert np.allclose(shifted - base, c, rtol=0,
                       atol=1e-11 * max(np.abs(base).max(), 1.0))
