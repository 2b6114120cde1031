"""Stiffened-gas multifluid model: EOS, fluxes, eigensystem."""

import numpy as np
import pytest

from pccu.errors import AdmissibilityError
from pccu.multifluid import Multifluid, conservative_state, material_coeffs
from conftest import random_multifluid_states


# ---- EOS and primitive recovery ---------------------------------------------

def test_material_coeffs_ideal_gas():
    g, p = material_coeffs(5.0 / 3.0, 0.0)
    assert g == pytest.approx(1.5, abs=1e-15)
    assert p == 0.0


def test_pressure_ideal_gas(mf1):
    # gamma=1.4, rho=1, u=0, E=2.5  ->  p = (1.4-1)*2.5 = 1
    state = np.array([1.0, 0.0, 2.5, *material_coeffs(1.4, 0.0)])
    assert mf1.pressure(state) == pytest.approx(1.0, rel=1e-14)


def test_pressure_stiffened_water(mf1):
    # gamma=4.4, pi_inf=6000: E = (p + gamma pi_inf)/(gamma-1) = 7765 at p=1
    state = np.array([1.0, 0.0, 7765.0, *material_coeffs(4.4, 6000.0)])
    assert mf1.pressure(state) == pytest.approx(1.0, rel=1e-12)


def test_sound_speed_air(mf1):
    state = conservative_state(1.0, 0.0, 0.0, 1.0, 1.4, 0.0, 1)
    assert mf1.sound_speed(state) == pytest.approx(np.sqrt(1.4), rel=1e-14)


def test_sound_speed_stiffened_water(mf1):
    # c^2 = 4.4*(1 + 6000)/1 = 26404.4
    state = conservative_state(1.0, 0.0, 0.0, 1.0, 4.4, 6000.0, 1)
    assert mf1.sound_speed(state) == pytest.approx(np.sqrt(26404.4),
                                                   rel=1e-14)


def test_primitive_conservative_round_trip(rng, mf2):
    states = random_multifluid_states(rng, 1000, 2)
    rho, u, v, p, gamma, pi_inf = mf2.primitives(states)
    rebuilt = conservative_state(rho, u, v, p, gamma, pi_inf, 2)
    err = np.abs(rebuilt - states) / np.maximum(np.abs(states), 1.0)
    assert err.max() <= 1e-14


def test_validate_rejects_bad_states(mf1):
    good = conservative_state(1.0, 0.0, 0.0, 1.0, 1.4, 0.0, 1)
    mf1.validate(good)
    bad_rho = good.copy()
    bad_rho[0] = -1.0
    with pytest.raises(AdmissibilityError):
        mf1.validate(bad_rho)
    bad_energy = good.copy()
    bad_energy[2] = -10.0            # drives p + pi_inf negative
    with pytest.raises(AdmissibilityError):
        mf1.validate(bad_energy)
    bad_finite = good.copy()
    bad_finite[1] = np.nan
    with pytest.raises(AdmissibilityError):
        mf1.validate(bad_finite)


# ---- fluxes ------------------------------------------------------------------

def test_flux_resting_state_is_pure_pressure(mf1):
    state = conservative_state(2.0, 0.0, 0.0, 3.0, 1.4, 0.0, 1)
    f = mf1.flux(state, "x")
    assert np.allclose(f, [0.0, 3.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-14)


def test_flux_2d_oracle(mf2):
    # rho=1, u=1, v=0, p=1, gamma=1.4 -> E=3; F = (1, 2, 0, 4, 0, 0)
    state = conservative_state(1.0, 1.0, 0.0, 1.0, 1.4, 0.0, 2)
    assert state[3] == pytest.approx(3.0, rel=1e-15)
    f = mf2.flux(state, "x")
    assert np.allclose(f, [1.0, 2.0, 0.0, 4.0, 0.0, 0.0], rtol=0, atol=1e-14)


def test_flux_y_direction_swaps_momenta(mf2):
    state = conservative_state(1.0, 0.3, 1.0, 1.0, 1.4, 0.0, 2)
    f = mf2.flux(state, "y")
    # advection at w = v = 1 plus pressure on the hv row and work on E
    assert f[0] == pytest.approx(1.0, rel=1e-14)
    assert f[2] == pytest.approx(1.0 * 1.0 + 1.0, rel=1e-14)
    assert f[1] == pytest.approx(0.3, rel=1e-14)
    assert np.all(f[4:] == 0.0)


def test_material_rows_have_zero_conservative_flux(rng, mf1):
    states = random_multifluid_states(rng, 100, 1)
    f = mf1.flux(states, "x")
    assert np.all(f[..., mf1.ig] == 0.0)
    assert np.all(f[..., mf1.ip] == 0.0)


# ---- eigenstructure -----------------------------------------------------------

def test_eigenvalues_sorted_acoustic_fan(rng, mf1):
    states = random_multifluid_states(rng, 200, 1)
    lam = mf1.eigenvalues(states, "x")
    assert np.all(np.diff(lam, axis=-1) >= 0.0)
    rho, u, _, p, gamma, pi_inf = mf1.primitives(states)
    c = np.sqrt(gamma * (p + pi_inf) / rho)
    assert np.allclose(lam[..., 0], u - c, rtol=1e-13, atol=1e-13)
    assert np.allclose(lam[..., -1], u + c, rtol=1e-13, atol=1e-13)
    assert np.allclose(lam[..., 2], u, rtol=1e-13, atol=1e-13)


def test_eigenvalues_raise_on_inadmissible_input(mf1):
    state = conservative_state(1.0, 0.0, 0.0, 1.0, 1.4, 0.0, 1)
    state[2] = -5.0                   # negative p + pi_inf
    with pytest.raises(AdmissibilityError):
        mf1.eigenvalues(state[None, None], "x")


@pytest.mark.parametrize("dimension,direction",
                         [(1, "x"), (2, "x"), (2, "y")])
def test_eigen_identities_against_quasilinear_matrix(rng, dimension,
                                                     direction):
    model = Multifluid(dimension)
    left = random_multifluid_states(rng, 300, dimension)[None]
    right = random_multifluid_states(rng, 300, dimension)[None]
    r_mat, r_inv, lam = model.lcd_matrices(left, right, direction)
    # the decomposition is built from averaged primitives, so rebuild the
    # matching hatted state before forming the quasilinear matrix
    prim_l = model.primitives(left)
    prim_r = model.primitives(right)
    hat = [0.5 * (a + b) for a, b in zip(prim_l, prim_r)]
    hat_state = conservative_state(hat[0], hat[1], hat[2], hat[3],
                                   hat[4], hat[5], dimension)
    a_mat = model.quasilinear_matrix(hat_state, direction)
    resid = np.einsum('...ij,...jk->...ik', a_mat, r_mat) \
        - r_mat * lam[..., None, :]
    assert np.abs(resid).max() <= 1e-11
    eye = np.einsum('...ij,...jk->...ik', r_mat, r_inv)
    ident = np.eye(model.d)
    assert np.abs(eye - ident).max() <= 1e-11


def test_1d_eigensystem_is_the_2d_one_without_shear(rng, mf1, mf2):
    left = random_multifluid_states(rng, 300, 1)[None]
    right = random_multifluid_states(rng, 300, 1)[None]
    # the same states in 2-D with v = 0
    embed = lambda s: np.insert(s, 2, 0.0, axis=-1)
    drop = lambda mat: np.delete(np.delete(mat, 2, axis=-1), 2, axis=-2)
    r1, r1_inv, lam1 = mf1.lcd_matrices(left, right, "x")
    r2, r2_inv, lam2 = mf2.lcd_matrices(embed(left), embed(right), "x")
    assert np.array_equal(r1, drop(r2))
    assert np.array_equal(r1_inv, drop(r2_inv))
    assert np.array_equal(lam1, np.delete(lam2, 2, axis=-1))
    a1 = mf1.quasilinear_matrix(left, "x")
    a2 = mf2.quasilinear_matrix(embed(left), "x")
    assert np.array_equal(a1, drop(a2))
