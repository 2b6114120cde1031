"""Generalized-minmod reconstruction in conservative and equilibrium variables."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pccu.grid import GHOST
from pccu.errors import AdmissibilityError, ReconstructionError
from pccu.grid import Grid, Field, BoundaryCondition
from pccu.driver import spatial_rhs
from pccu.multifluid import Multifluid
from pccu.reconstruct import limited_half_slopes, interface_values, \
    reconstruct_equilibrium, drop_inadmissible_slopes, _minmod3
from pccu.trsw import ThermalShallowWater


# ---- limited slopes --------------------------------------------------------

def _half_slope_of(triple, theta):
    # (dx/2) * slope of the middle cell: half the slope at dx = 1
    line = np.asarray(triple, dtype=float).reshape(1, 3, 1)
    return limited_half_slopes(line, theta)[0, 0, 0]


def test_minmod_all_positive_takes_min():
    # minmod(2*2, (2+1)/2, 2*1) / 2 = minmod(4, 1.5, 2) / 2 = 0.75
    assert _half_slope_of((0.0, 2.0, 3.0), 2.0) == 0.75


def test_minmod_all_negative_takes_max():
    # minmod(-4, -1.5, -2) / 2 = -0.75
    assert _half_slope_of((3.0, 1.0, 0.0), 2.0) == -0.75


def test_minmod_mixed_signs_is_zero():
    # minmod(1.3, -0.5, -2.6) = 0
    assert _half_slope_of((0.0, 1.0, -1.0), 1.3) == 0.0


@given(st.floats(min_value=-1e12, max_value=1e12,
                 allow_nan=False, allow_infinity=False))
def test_minmod_of_equal_args_is_identity(z):
    # equal one-sided differences z: minmod(1.3 z, z, 1.3 z) = z, halved
    # with one rounding (a subnormal z may round to 0)
    assert _half_slope_of((0.0, z, 2.0 * z), 1.3) == 0.5 * z


def _sign_test_minmod(a, b, c):
    """The textbook form: min if all three are positive, max if all are
    negative, 0 otherwise."""
    pos = (a > 0.0) & (b > 0.0) & (c > 0.0)
    neg = (a < 0.0) & (b < 0.0) & (c < 0.0)
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    return np.where(pos, lo, np.where(neg, hi, 0.0))


def test_minmod_matches_the_sign_test_form():
    special = [np.inf, -np.inf, 2.0, -2.0, 1e-300, -1e-300, 0.0, -0.0,
               np.nan]
    triples = np.array(list(itertools.product(special, repeat=3)))
    rng = np.random.default_rng(3)
    drawn = rng.choice(special + list(rng.normal(size=8)), size=(4000, 3))
    # numpy's SIMD and scalar loops may treat a signed zero differently,
    # so every triple also fills arrays of 1 to 17 elements
    cases = [triples, triples[::-1], drawn, drawn[5:]]
    cases += [np.repeat(t[None], n, axis=0) for t in triples
              for n in range(1, 18)]
    for case in cases:
        a, b, c = (np.ascontiguousarray(case[:, i]) for i in range(3))
        want = _sign_test_minmod(a, b, c)
        got = _minmod3(a, b, c)
        assert got.tobytes() == want.tobytes(), case[got.view(np.int64)
                                                     != want.view(np.int64)]


@pytest.mark.parametrize("theta", [1.0, 1.3, 2.0])
def test_slope_of_linear_triple(theta):
    assert _half_slope_of((0.0, 1.0, 2.0), theta) == 0.5


def test_slope_clipped_at_extremum():
    assert _half_slope_of((0.0, 1.0, 0.0), 1.3) == 0.0


def test_slope_theta_weighted_one_sided():
    # minmod(1.3*1, (1+3)/2, 1.3*3) / 2 = minmod(1.3, 2, 3.9) / 2 = 0.65
    assert _half_slope_of((0.0, 1.0, 3.0), 1.3) == pytest.approx(0.65,
                                                                 abs=1e-15)


@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False), min_size=3, max_size=3),
       st.floats(min_value=1.0, max_value=2.0))
def test_slope_of_monotone_triple_bounded_by_central(vals, theta):
    vals = sorted(vals)
    central = 0.25 * (vals[2] - vals[0])     # the central half slope
    s = _half_slope_of(vals, theta)
    assert 0.0 <= s <= central + 1e-12 * abs(central)


# ---- conservative interface values -----------------------------------------

def test_interface_values_constant_field():
    lines = np.full((2, 9, 3), 4.5)
    (um, up), half = interface_values(lines, 1.3)
    assert um.shape == up.shape == (2, 9 - 2 * GHOST + 1, 3)
    assert np.all(um == 4.5)
    assert np.all(up == 4.5)
    assert np.all(half == 0.0)


def test_interface_values_linear_exact():
    # a globally linear profile is reproduced exactly at every interface
    n, dx = 6, 0.25
    centers = (np.arange(-GHOST, n + GHOST) + 0.5) * dx
    lines = (2.0 + 3.0 * centers)[None, :, None]
    (um, up), _ = interface_values(lines, 1.3)
    faces = np.arange(0, n + 1) * dx
    exact = 2.0 + 3.0 * faces
    assert np.allclose(um[0, :, 0], exact, rtol=0, atol=1e-14)
    assert np.allclose(up[0, :, 0], exact, rtol=0, atol=1e-14)


def test_interface_values_at_extremum_cell():
    # padded line [0,0,0,1,0,0,0] (free ghosts around data 0,1,0): both
    # neighbors of the spike have zero limited slope, the spike is clipped
    lines = np.array([0.0, 0, 0, 1, 0, 0, 0]).reshape(1, 7, 1)
    (um, up), _ = interface_values(lines, 1.3)
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
        lines, model, "x", 1.3, r_center, r_face)
    for arr in (um, up, ubm, ubp):
        assert np.allclose(arr, [2.0, 0.0, 0.0, 2.0], rtol=0, atol=1e-13)


def test_no_root_error_names_state_face_and_line():
    # m = 0.5 and h = 1 on both sides of face 4, b = 1 left and 2 right:
    # flat cells give E- and E+ the two sides' values, phi = E2 - R.  R =
    # 0.3 at face 4 of line 1 leaves phi below psi_min = 1.5 (b m^4)^(1/3)
    # for U- (0.45 < 0.595) and for U_breve-, whose shared b = 1.5 gives
    # the larger psi_min (0.681); U+ and U_breve+ keep phi = 0.95.
    model = ThermalShallowWater(1)
    n, face = 8, 4
    b = np.where(np.arange(n + 2 * GHOST) < face + 2, 1.0, 2.0)
    line = np.stack([1.0 + 0 * b, 0 * b, 0.5 + 0 * b, b], axis=-1)
    lines = np.tile(line, (3, 1, 1))
    r_center = np.zeros(lines.shape[:2])
    r_face = np.zeros((3, n + 1))
    r_face[1, face] = 0.3
    with pytest.raises(ReconstructionError) as info:
        reconstruct_equilibrium(lines, model, "x", 1.3, r_center,
                                r_face)
    msg = str(info.value)
    assert "at 2 of 108 interface values" in msg
    assert "m=0.5 phi=0.45 b=1.5 psi_min=0.681" in msg
    assert msg.endswith("at U_breve- of face 4 on line 1")


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
            lines, model, "x", 1.3, r_center, r_face)
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
        lines, model, "x", 1.3, r_center, r_face)

    e_cells = model.equilibrium_values(lines, r_center, "x")
    half = limited_half_slopes(e_cells, 1.3)
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
            lines, model, "x", 1.3, r_center, r_face)
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


# ---- admissible interface values ----------------------------------------------

# ex2 under lcd (dx = 0.1, theta = 1.3), cells 87-92 of the stage that
# started at t = 0.007579: air, a mixed cell (gamma 1.406, pi_inf 36.4,
# p = -31.6), water.  Every average is admissible, but the limited linear
# reconstruction puts p + pi_inf < 0 on an edge of the mixed cell.
EX2_CELLS = np.array([
    [0.04995353684501241, 0.00023788872743793634, 2.4969084072037107,
     2.5000000000000004, -4.9381080023703245e-28],
    [0.04950361452422834, 0.007850026402482495, 2.091136717771882,
     2.5000000000000004, 2.6900579974906436e-13],
    [0.056000512440482465, 1.0942403690796205, 58.79454076360492,
     2.464214800078816, 125.96390372256143],
    [0.9916121152480722, -2.667537682071923, 7687.657157418183,
     0.33706975245166515, 7613.5144713701375],
    [1.0782015823402409, -14.163584078240659, 8640.435401166978,
     0.2941197779636469, 7764.69838156796],
    [1.2367689981771917, -59.27218043152983, 12721.224894104842,
     0.2941176470588235, 7764.7058823529405],
])


def test_dropped_slopes_make_every_interface_value_admissible():
    model = Multifluid(1)
    lines = EX2_CELLS[None]
    assert np.all(model.admissible(lines))
    (u_minus, u_plus), half = interface_values(lines, 1.3)
    _, _, _, p, _, pi_inf = model.primitives(np.stack([u_minus, u_plus]))
    assert (p + pi_inf).min() < 0.0

    (fixed_minus, fixed_plus), fixed_half, dropped = \
        drop_inadmissible_slopes(lines, half, model.admissible)
    assert np.all(model.admissible(fixed_minus))
    assert np.all(model.admissible(fixed_plus))
    # half covers padded cells 1..4; a cell both of whose edge values were
    # admissible keeps its slope, the others lose all of it
    cells = lines[:, 1:-1]
    edges_ok = model.admissible(cells - half) & model.admissible(cells + half)
    assert np.array_equal(fixed_half[edges_ok], half[edges_ok])
    changed = np.any(fixed_half != half, axis=-1)
    assert np.all(fixed_half[changed] == 0.0)
    assert dropped == np.count_nonzero(changed) >= 1


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
def test_spatial_rhs_survives_an_inadmissible_reconstruction(scheme):
    model = Multifluid(1)
    fld = Field(Grid(0.0, 0.6, 6), 5)
    fld.interior[...] = EX2_CELLS
    stats = {"slope_drops": 0}
    tend, _, _ = spatial_rhs(fld, model, BoundaryCondition("free", "free"),
                             scheme, 1.3, 1e-18, stats=stats)
    assert np.all(np.isfinite(tend))
    assert stats["slope_drops"] >= 1


def test_inadmissible_averages_still_raise():
    model = Multifluid(1)
    fld = Field(Grid(0.0, 0.6, 6), 5)
    fld.interior[...] = EX2_CELLS
    fld.interior[2, 2] = 0.0                # energy far below p + pi_inf = 0
    with pytest.raises(AdmissibilityError):
        spatial_rhs(fld, model, BoundaryCondition("free", "free"), "lcd",
                    1.3, 1e-18)
