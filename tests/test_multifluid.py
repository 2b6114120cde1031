"""Stiffened-gas multifluid model: EOS, fluxes, eigensystem."""

import numpy as np
import pytest

from pccu.driver import RunConfig, run
from pccu.errors import AdmissibilityError
from pccu.grid import BoundaryCondition, Grid
from pccu.multifluid import Multifluid, conservative_state, material_coeffs
from conftest import random_multifluid_states, acoustic_pair, \
    acoustic_pair_checks, dense_eigensystem, expand_fields, quasilinear_matrix


# ---- EOS and primitive recovery ---------------------------------------------

def test_material_coeffs_ideal_gas():
    g, p = material_coeffs(5.0 / 3.0, 0.0)
    assert g == pytest.approx(1.5, abs=1e-15)
    assert p == 0.0


def test_pressure_ideal_gas(mf1):
    # gamma=1.4, rho=1, u=0, E=2.5  ->  p = (1.4-1)*2.5 = 1
    state = np.array([1.0, 0.0, 2.5, *material_coeffs(1.4, 0.0)])
    assert mf1.primitives(state)[3] == pytest.approx(1.0, rel=1e-14)


def test_pressure_stiffened_water(mf1):
    # gamma=4.4, pi_inf=6000: E = (p + gamma pi_inf)/(gamma-1) = 7765 at p=1
    state = np.array([1.0, 0.0, 7765.0, *material_coeffs(4.4, 6000.0)])
    assert mf1.primitives(state)[3] == pytest.approx(1.0, rel=1e-12)


def test_sound_speed_air(mf1):
    # at rest (w = 0) the w + c speed is c
    state = conservative_state(1.0, 0.0, 0.0, 1.0, 1.4, 0.0, 1)
    c = mf1.eigenvalues(state, "x")[2]
    assert c == pytest.approx(np.sqrt(1.4), rel=1e-14)


def test_sound_speed_stiffened_water(mf1):
    # c^2 = 4.4*(1 + 6000)/1 = 26404.4, the w + c speed at rest
    state = conservative_state(1.0, 0.0, 0.0, 1.0, 4.4, 6000.0, 1)
    c = mf1.eigenvalues(state, "x")[2]
    assert c == pytest.approx(np.sqrt(26404.4), rel=1e-14)


def test_primitive_conservative_round_trip(rng, mf2):
    states = random_multifluid_states(rng, 1000, 2)
    rho, u, v, p, gamma, pi_inf = mf2.primitives(states)
    rebuilt = conservative_state(rho, u, v, p, gamma, pi_inf, 2)
    err = np.abs(rebuilt - states) / np.maximum(np.abs(states), 1.0)
    assert err.max() <= 1e-14


def test_validate_rejects_bad_states(mf1):
    good = conservative_state(1.0, 0.0, 0.0, 1.0, 1.4, 0.0, 1)
    mf1.validate(good)
    for slot, value in [(0, -1.0),      # negative density
                        (2, -10.0),     # drives p + pi_inf negative
                        (1, np.nan)]:
        states = np.stack([good] * 3)
        states[1:, slot] = value
        with pytest.raises(AdmissibilityError) as info:
            mf1.validate(states, "initial data")
        # the first bad cell and its state
        assert info.value.where == (1,)
        message = str(info.value)
        assert "initial data" in message and "cell (1,)" in message
        assert str(states[1].tolist()) in message


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
    assert np.allclose(lam[..., 1], u, rtol=1e-13, atol=1e-13)


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
    r_mat, r_inv = dense_eigensystem(model, left, right, direction)
    # the decomposition is built from averaged primitives, so rebuild the
    # matching hatted state before forming the quasilinear matrix
    prim_l = model.primitives(left)
    prim_r = model.primitives(right)
    hat = [0.5 * (a + b) for a, b in zip(prim_l, prim_r)]
    hat_state = conservative_state(hat[0], hat[1], hat[2], hat[3],
                                   hat[4], hat[5], dimension)
    speeds = model.eigenvalues(hat_state, direction)
    lam = expand_fields(speeds, model.d)
    a_mat = quasilinear_matrix(model, hat_state, direction)
    resid = np.einsum('...ij,...jk->...ik', a_mat, r_mat) \
        - r_mat * lam[..., None, :]
    assert np.abs(resid).max() <= 1e-11
    eye = np.einsum('...ij,...jk->...ik', r_mat, r_inv)
    ident = np.eye(model.d)
    assert np.abs(eye - ident).max() <= 1e-11
    # the hook returns exactly the oracle's acoustic pair, and its
    # projector onto the middle fields is what characteristic_flux folds
    same, worst = acoustic_pair_checks(model, left, right, direction, r_mat,
                                       r_inv, a_mat, speeds[..., 1])
    assert same
    assert worst <= 1e-11


def test_1d_eigensystem_is_the_2d_one_without_shear(rng, mf1, mf2):
    left = random_multifluid_states(rng, 300, 1)[None]
    right = random_multifluid_states(rng, 300, 1)[None]
    # the same states in 2-D with v = 0
    embed = lambda s: np.insert(s, 2, 0.0, axis=-1)
    drop = lambda mat: np.delete(np.delete(mat, 2, axis=-1), 2, axis=-2)
    r1, r1_inv = dense_eigensystem(mf1, left, right, "x")
    r2, r2_inv = dense_eigensystem(mf2, embed(left), embed(right), "x")
    assert np.array_equal(r1, drop(r2))
    assert np.array_equal(r1_inv, drop(r2_inv))
    # the hooks: the 1-D pair leaves out the all-zero transverse terms
    rows1, cols1 = acoustic_pair(mf1, left, right, "x")
    rows2, cols2 = acoustic_pair(mf2, embed(left), embed(right), "x")
    assert np.array_equal(rows1, np.delete(rows2, 2, axis=-1))
    assert np.array_equal(cols1, np.delete(cols2, 2, axis=-2))
    a1 = quasilinear_matrix(mf1, left, "x")
    a2 = quasilinear_matrix(mf2, embed(left), "x")
    assert np.array_equal(a1, drop(a2))


# Abgrall's criterion: uniform velocity and pressure stay uniform across a
# material interface.  theta = 1.3 amplifies round-off there to about 1e-2
# by t = 0.5 and is left out.
@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
@pytest.mark.parametrize("theta", [1.0, 2.0])
@pytest.mark.parametrize("rho_slab, gamma_slab", [(10.0, 1.4), (3.1538, 1.249)],
                         ids=["contact", "r22"])
def test_material_interface_keeps_u_and_p_uniform(rho_slab, gamma_slab,
                                                  theta, scheme, mf1):
    def ic(x):
        slab = (x > 0.3) & (x < 0.6)
        return conservative_state(np.where(slab, rho_slab, 1.0), 1.0, 0.0,
                                  1.0, np.where(slab, gamma_slab, 1.4), 0.0,
                                  1)

    report = run(RunConfig(model=mf1, grid=Grid(0.0, 1.0, 200),
                           bc=BoundaryCondition("periodic", "periodic"),
                           ic=ic, scheme=scheme, theta=theta, t_final=0.5))
    _, u, _, p, _, _ = mf1.primitives(report.states[-1])
    assert np.abs(u - 1.0).max() <= 1e-10
    assert np.abs(p - 1.0).max() <= 1e-10
