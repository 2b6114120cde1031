"""Generalized-minmod reconstruction in conservative and equilibrium variables."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pccu.grid import GHOST
from pccu.reconstruct import minmod, limited_slopes, interface_values, \
    reconstruct_equilibrium
from pccu.trsw import ThermalShallowWater


# ---- scalar minmod ---------------------------------------------------------

def test_minmod_all_positive_takes_min():
    assert minmod([2.0, 1.0, 3.0]) == 1.0


def test_minmod_all_negative_takes_max():
    assert minmod([-2.0, -0.5, -1.0]) == -0.5


def test_minmod_mixed_signs_is_zero():
    assert minmod([1.0, -1.0, 2.0]) == 0.0


def test_minmod_empty_rejected():
    with pytest.raises(ValueError):
        minmod([])


@given(st.floats(min_value=-1e12, max_value=1e12,
                 allow_nan=False, allow_infinity=False))
def test_minmod_of_equal_args_is_identity(z):
    assert minmod([z, z, z]) == z


# ---- limited slopes --------------------------------------------------------

def _slope_of(triple, theta, dx=1.0):
    line = np.asarray(triple, dtype=float).reshape(1, 3, 1)
    return limited_slopes(line, dx, theta)[0, 0, 0]


@pytest.mark.parametrize("theta", [1.0, 1.3, 2.0])
def test_slope_of_linear_triple(theta):
    assert _slope_of((0.0, 1.0, 2.0), theta) == 1.0


def test_slope_clipped_at_extremum():
    assert _slope_of((0.0, 1.0, 0.0), 1.3) == 0.0


def test_slope_theta_weighted_one_sided():
    # minmod(1.3*1, (1+3)/2, 1.3*3) = minmod(1.3, 2, 3.9) = 1.3
    assert _slope_of((0.0, 1.0, 3.0), 1.3) == pytest.approx(1.3, abs=1e-15)


@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False), min_size=3, max_size=3),
       st.floats(min_value=1.0, max_value=2.0))
def test_slope_of_monotone_triple_bounded_by_central(vals, theta):
    vals = sorted(vals)
    central = 0.5 * (vals[2] - vals[0])
    s = _slope_of(vals, theta)
    assert 0.0 <= s <= central + 1e-12 * abs(central)


# ---- conservative interface values -----------------------------------------

def test_interface_values_constant_field():
    lines = np.full((2, 9, 3), 4.5)
    um, up, half = interface_values(lines, 0.1, 1.3)
    assert um.shape == up.shape == (2, 9 - 2 * GHOST + 1, 3)
    assert np.all(um == 4.5)
    assert np.all(up == 4.5)
    assert np.all(half == 0.0)


def test_interface_values_linear_exact():
    # a globally linear profile is reproduced exactly at every interface
    n, dx = 6, 0.25
    centers = (np.arange(-GHOST, n + GHOST) + 0.5) * dx
    lines = (2.0 + 3.0 * centers)[None, :, None]
    um, up, _ = interface_values(lines, dx, 1.3)
    faces = np.arange(0, n + 1) * dx
    exact = 2.0 + 3.0 * faces
    assert np.allclose(um[0, :, 0], exact, rtol=0, atol=1e-14)
    assert np.allclose(up[0, :, 0], exact, rtol=0, atol=1e-14)


def test_interface_values_at_extremum_cell():
    # padded line [0,0,0,1,0,0,0] (free ghosts around data 0,1,0): both
    # neighbors of the spike have zero limited slope, the spike is clipped
    lines = np.array([0.0, 0, 0, 1, 0, 0, 0]).reshape(1, 7, 1)
    um, up, _ = interface_values(lines, 1.0, 1.3)
    # interface between interior cells 0 and 1
    assert um[0, 1, 0] == 0.0
    assert up[0, 1, 0] == 1.0


# ---- equilibrium-variable reconstruction ------------------------------------

def _padded_trsw_line(model, n, dx, x0, h_fn, u_fn, b_fn, w_fn):
    x = x0 + (np.arange(-GHOST, n + GHOST) + 0.5) * dx
    h = h_fn(x)
    line = np.stack([h, h * w_fn(x), h * u_fn(x), h * b_fn(x)], axis=-1)
    return x, line[None]


def test_equilibrium_reconstruction_constant_state():
    model = ThermalShallowWater(1)
    n = 6
    lines = np.tile(np.array([2.0, 0.0, 0.0, 2.0]), (1, n + 2 * GHOST, 1))
    r_center = np.zeros(lines.shape[:2])
    r_face = np.zeros((1, n + 1))
    um, up, ubm, ubp = reconstruct_equilibrium(
        lines, model, "x", 0.1, 1.3, r_center, r_face)
    for arr in (um, up, ubm, ubp):
        assert np.allclose(arr, [2.0, 0.0, 0.0, 2.0], rtol=0, atol=1e-13)


def test_equilibrium_reconstruction_steady_dam_gives_single_valued_breve():
    # steady data across a jump (h=2,b=1 left; h=1 right), flat bottom: the
    # discharge m and m^2/h + b h^2/2 are equal on both sides, at rest (m=0,
    # b=4 right, level 2) and moving (m=0.5, b=3.75 right, level 2.125).
    # The equilibrium variables are then constant across the jump, so the
    # modified states must coincide bitwise at every interface.
    model = ThermalShallowWater(1)
    n = 8
    h = np.where(np.arange(n + 2 * GHOST) < (n + 2 * GHOST) // 2, 2.0, 1.0)
    for m, b_right, level in ((0.0, 4.0, 2.0), (0.5, 3.75, 2.125)):
        b = np.where(h == 2.0, 1.0, b_right)
        lines = np.stack([h, 0 * h, m + 0 * h, h * b], axis=-1)[None]
        r_center = np.zeros(lines.shape[:2])
        r_face = np.zeros((1, n + 1))
        um, up, ubm, ubp = reconstruct_equilibrium(
            lines, model, "x", 0.1, 1.3, r_center, r_face)
        assert np.array_equal(ubm, ubp)
        # and the one-sided states sit on the same equilibrium values
        for u in (um, up):
            k2 = u[..., 2] ** 2 / u[..., 0] + 0.5 * u[..., 3] * u[..., 0]
            assert np.allclose(k2, level, rtol=0, atol=1e-12)


def test_equilibrium_reconstruction_round_trips_e_values():
    # E evaluated on the recovered interface states matches the linearly
    # reconstructed E values to solver tolerance
    model = ThermalShallowWater(1)
    n, dx = 16, 1.0 / 16
    x, lines = _padded_trsw_line(
        model, n, dx, 0.0,
        lambda x: 1.0 + 0.1 * np.sin(2 * np.pi * x),
        lambda x: 0.2 * np.cos(2 * np.pi * x),
        lambda x: 2.0 + 0.3 * np.sin(2 * np.pi * x + 0.4),
        lambda x: 0.1 * np.sin(2 * np.pi * x))
    r_center = np.zeros(lines.shape[:2])
    r_face = np.zeros((1, n + 1))
    um, up, _, _ = reconstruct_equilibrium(
        lines, model, "x", dx, 1.3, r_center, r_face)

    e_cells = model.equilibrium_values(lines, r_center, "x")
    half = 0.5 * dx * limited_slopes(e_cells, dx, 1.3)
    e_minus = e_cells[:, GHOST - 1:-GHOST, :] + half[:, :-1, :]
    e_plus = e_cells[:, GHOST:-GHOST + 1, :] - half[:, 1:, :]
    for u, e in ((um, e_minus), (up, e_plus)):
        h, q, hb = u[..., 0], u[..., 2], u[..., 3]
        assert np.allclose(q, e[..., 0], rtol=0, atol=1e-12)
        assert np.allclose(q * q / h + 0.5 * hb * h, e[..., 1],
                           rtol=0, atol=1e-11)
        assert np.allclose(hb / h, e[..., 2], rtol=0, atol=1e-12)
        assert np.allclose(u[..., 1] / h, e[..., 3], rtol=0, atol=1e-12)


def test_breve_states_second_order_close_to_one_sided():
    # on smooth data the modified states differ from the one-sided states
    # by O(dx^2): the gap must shrink at rate >= 1.9 under refinement
    model = ThermalShallowWater(1)
    gaps = []
    for n in (32, 64):
        dx = 1.0 / n
        _, lines = _padded_trsw_line(
            model, n, dx, 0.0,
            lambda x: 1.0 + 0.1 * np.sin(2 * np.pi * x),
            lambda x: 0.2 * np.cos(2 * np.pi * x),
            lambda x: 2.0 + 0.3 * np.cos(2 * np.pi * x),
            lambda x: 0.1 * np.sin(2 * np.pi * x))
        r_center = np.zeros(lines.shape[:2])
        r_face = np.zeros((1, n + 1))
        um, up, ubm, ubp = reconstruct_equilibrium(
            lines, model, "x", dx, 1.3, r_center, r_face)
        gaps.append(max(np.abs(ubm - um).max(), np.abs(ubp - up).max()))
    rate = np.log2(gaps[0] / gaps[1])
    assert rate >= 1.9, f"breve gap rate {rate:.2f}, gaps {gaps}"


def test_momentum_flux_inversion_closed_form():
    # q=0, b=1, K2=2  ->  h = sqrt(2*2/1) = 2
    model = ThermalShallowWater(1)
    e = np.array([[0.0, 2.0, 1.0, 0.0]])
    state = model.equilibrium_invert(e, np.zeros(1), np.full(1, 1.5), "x")
    assert state[0, 0] == pytest.approx(2.0, abs=1e-13)
    assert np.allclose(state[0], [2.0, 0.0, 0.0, 2.0], rtol=0, atol=1e-12)
