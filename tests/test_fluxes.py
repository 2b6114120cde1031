"""Upwinding weights, local speeds, and the two flux assemblies."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pccu.fluxes import field_speeds, local_speeds, split_weights, \
    characteristic_flux, central_upwind_flux
from pccu.multifluid import Multifluid, conservative_state
from pccu.trsw import ThermalShallowWater
from conftest import dense_eigensystem, expand_fields, extremal_weights, \
    face_vectors, random_multifluid_states, random_trsw_states

EPS0 = 1e-18


# ---- local speeds -----------------------------------------------------------

def _pair(state):
    """Stack one state as both sides of a single interface: (2, 1, 1, d)."""
    return np.stack([state.reshape(1, 1, -1)] * 2)


def test_local_speeds_acoustic_rest_state(mf1):
    # rho=1.4, p=1, gamma=1.4, u=0  =>  c^2 = 1.4*1/1.4 = 1
    state = conservative_state(1.4, 0.0, 0.0, 1.0, 1.4, 0.0, 1)
    lam = mf1.eigenvalues(_pair(state), "x")
    (lam_lo, lam_hi), (a_lo, a_hi) = field_speeds(lam), local_speeds(lam)
    assert np.allclose(lam_hi[0, 0], [0, 0, 1], rtol=0, atol=1e-14)
    assert np.allclose(lam_lo[0, 0], [-1, 0, 0], rtol=0, atol=1e-14)
    assert a_hi[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert a_lo[0, 0] == pytest.approx(-1.0, abs=1e-14)


def test_local_speeds_supersonic_clamps_left(mf1):
    # u=2, c=1: every eigenvalue positive, so the one-sided minima clamp to 0
    state = conservative_state(1.4, 2.0, 0.0, 1.0, 1.4, 0.0, 1)
    lam = mf1.eigenvalues(_pair(state), "x")
    (lam_lo, lam_hi), (a_lo, a_hi) = field_speeds(lam), local_speeds(lam)
    assert np.allclose(lam_hi[0, 0], [1, 2, 3], rtol=0, atol=1e-13)
    assert np.all(lam_lo == 0.0)
    assert a_lo[0, 0] == 0.0
    assert a_hi[0, 0] == pytest.approx(3.0, abs=1e-13)


def test_local_speeds_trsw_unit_cell():
    model = ThermalShallowWater(1)
    state = np.array([1.0, 0.0, 0.0, 1.0])     # h=1, b=1, at rest
    lam = model.eigenvalues(_pair(state), "x")
    (lam_lo, lam_hi), (a_lo, a_hi) = field_speeds(lam), local_speeds(lam)
    assert np.array_equal(lam_hi[0, 0], [0, 0, 1])
    assert np.array_equal(lam_lo[0, 0], [-1, 0, 0])
    assert (a_lo[0, 0], a_hi[0, 0]) == (-1.0, 1.0)


def test_local_speeds_take_envelope_of_both_sides(mf1):
    sl = conservative_state(1.4, 0.5, 0.0, 1.0, 1.4, 0.0, 1)
    sr = conservative_state(1.4, -0.5, 0.0, 1.0, 1.4, 0.0, 1)
    lam = mf1.eigenvalues(np.stack([sl.reshape(1, 1, -1),
                                    sr.reshape(1, 1, -1)]), "x")
    lam_lo, lam_hi = field_speeds(lam)
    assert lam_hi[0, 0, -1] == pytest.approx(1.5, abs=1e-13)
    assert lam_lo[0, 0, 0] == pytest.approx(-1.5, abs=1e-13)
    # the middle speed straddles zero across the two sides
    assert lam_hi[0, 0, 1] == pytest.approx(0.5, abs=1e-13)
    assert lam_lo[0, 0, 1] == pytest.approx(-0.5, abs=1e-13)


# ---- per-field weights ------------------------------------------------------

def _weights(lam_lo, lam_hi, a_lo, a_hi):
    shape = (2, 1, 1, len(lam_lo))
    p, m, q = split_weights(np.reshape([lam_lo, lam_hi], shape),
                            np.full((1, 1), a_lo), np.full((1, 1), a_hi),
                            EPS0)
    return p[0, 0], m[0, 0], q[0, 0]


def test_weights_symmetric_fan():
    p, m, q = _weights([-1.0], [1.0], -1.0, 1.0)
    assert (p[0], m[0], q[0]) == (0.5, 0.5, -0.5)


def test_weights_pure_left_upwind():
    p, m, q = _weights([0.0], [2.0], 2.0, 0.0)
    assert (p[0], m[0], q[0]) == (1.0, 0.0, 0.0)


def test_weights_degenerate_field_falls_back_to_global():
    # field fan collapsed, global fan (a-=-1, a+=3) takes over
    p, m, q = _weights([0.0], [0.0], -1.0, 3.0)
    assert (p[0], m[0], q[0]) == (0.75, 0.25, -0.75)


def test_weights_fully_degenerate_averages():
    p, m, q = _weights([0.0], [0.0], 0.0, 0.0)
    assert (p[0], m[0], q[0]) == (0.5, 0.5, 0.0)


def test_weights_mixed_fields_choose_branch_per_field():
    p, m, q = _weights([-1.0, 0.0], [1.0, 0.0], -1.0, 1.0)
    assert np.array_equal(p, [0.5, 0.5])
    assert np.array_equal(q, [-0.5, -0.5])


@given(st.lists(st.floats(min_value=0, max_value=50, allow_nan=False),
                min_size=3, max_size=3),
       st.lists(st.floats(min_value=-50, max_value=0, allow_nan=False),
                min_size=3, max_size=3))
def test_weights_partition_of_unity_and_negative_q(his, los):
    lam_hi = np.array(his).reshape(1, 1, 3)
    lam_lo = np.array(los).reshape(1, 1, 3)
    p, m, q = split_weights(np.stack([lam_lo, lam_hi]), lam_lo[..., 0],
                            lam_hi[..., -1], EPS0)
    assert np.all(np.abs(p + m - 1.0) <= 1e-15)
    assert np.all(q <= 0.0)


def test_extremal_weights_match_global_branch():
    p, m, q = extremal_weights(np.full((1, 1), -1.0), np.full((1, 1), 3.0),
                               4, EPS0)
    assert np.all(p == 0.75)
    assert np.all(m == 0.25)
    assert np.all(q == -0.75)
    p, m, q = extremal_weights(np.zeros((1, 1)), np.zeros((1, 1)), 4, EPS0)
    assert np.all(p == 0.5) and np.all(m == 0.5) and np.all(q == 0.0)


# ---- flux assemblies --------------------------------------------------------

def _random_interfaces(rng, model, n):
    left = random_multifluid_states(rng, n, model.dimension)
    right = random_multifluid_states(rng, n, model.dimension)
    return left[None], right[None]       # one line of n interfaces


def test_characteristic_assembly_reduces_to_central_upwind(rng, mf1):
    # with every field forced to the extremal speeds, the eigenvector
    # conjugation cancels and the assembly equals the classical formula
    left, right = _random_interfaces(rng, mf1, 1000)
    vectors = face_vectors(mf1, left, right, "x")
    lam = mf1.eigenvalues(np.stack([left, right]), "x")
    a_lo, a_hi = local_speeds(lam)
    k_minus = mf1.flux(left, "x") + rng.normal(size=left.shape)
    k_plus = mf1.flux(right, "x") + rng.normal(size=left.shape)
    du = right - left
    p, m, q = extremal_weights(a_lo, a_hi, 3, EPS0)
    via_lcd = characteristic_flux(vectors, p, m, q, k_minus, k_plus, du)
    classic = central_upwind_flux(a_lo, a_hi, k_minus, k_plus, du, EPS0)
    scale = np.abs(classic).max()
    assert np.abs(via_lcd - classic).max() <= 1e-12 * max(scale, 1.0)


def _scaled(vectors, dscale):
    """The acoustic pair with each acoustic column of R times its
    dscale[..., k] and its row of R^-1 divided by it; the rows then share
    no entry."""
    (left, right, shared), columns = vectors
    value = lambda coef: 1.0 if coef is None else coef
    rows = tuple({j: value(c) / scale for j, c in {**row, **shared}.items()}
                 for row, scale in zip((left, right), dscale))
    return rows + ({},), {i: tuple(value(c) * scale
                                   for c, scale in zip(pair, dscale))
                          for i, pair in columns.items()}


def test_assembly_invariant_under_eigenvector_scaling(rng, mf1):
    left, right = _random_interfaces(rng, mf1, 200)
    vectors = face_vectors(mf1, left, right, "x")
    lam = mf1.eigenvalues(np.stack([left, right]), "x")
    a_lo, a_hi = local_speeds(lam)
    p, m, q = split_weights(lam, a_lo, a_hi, EPS0)
    k_minus, k_plus = mf1.flux(left, "x"), mf1.flux(right, "x")
    du = right - left
    base = characteristic_flux(vectors, p, m, q, k_minus, k_plus, du)
    # rescale the two acoustic eigenvectors by random positive factors
    dscale = rng.uniform(0.2, 5.0, size=(2,) + left.shape[:-1])
    scaled = characteristic_flux(_scaled(vectors, dscale), p, m, q,
                                 k_minus, k_plus, du)
    assert np.abs(scaled - base).max() <= 1e-11 * max(np.abs(base).max(), 1.0)


def test_assembly_consistency_at_equal_states(rng, mf1):
    states = random_multifluid_states(rng, 1000, 1)[None]
    flux = mf1.flux(states, "x")
    vectors = face_vectors(mf1, states, states, "x")
    lam = mf1.eigenvalues(np.stack([states, states]), "x")
    a_lo, a_hi = local_speeds(lam)
    du = np.zeros_like(states)
    p, m, q = split_weights(lam, a_lo, a_hi, EPS0)
    assembled = characteristic_flux(vectors, p, m, q, flux, flux, du)
    classic = central_upwind_flux(a_lo, a_hi, flux, flux, du, EPS0)
    scale = np.abs(flux).max()
    assert np.abs(assembled - flux).max() <= 1e-12 * scale
    assert np.abs(classic - flux).max() <= 1e-12 * scale


def test_assembly_passes_through_steady_flux(rng, mf1):
    # equal one-sided global fluxes and equal breve states: the interface
    # flux must be that shared value regardless of the weights
    left, right = _random_interfaces(rng, mf1, 100)
    vectors = face_vectors(mf1, left, right, "x")
    lam = mf1.eigenvalues(np.stack([left, right]), "x")
    a_lo, a_hi = local_speeds(lam)
    p, m, q = split_weights(lam, a_lo, a_hi, EPS0)
    k_hat = rng.normal(size=left.shape)
    du = np.zeros_like(left)
    assembled = characteristic_flux(vectors, p, m, q, k_hat, k_hat, du)
    assert np.abs(assembled - k_hat).max() <= 1e-12 * np.abs(k_hat).max()


@pytest.mark.parametrize("case", ["mf-1d", "mf-2d-x", "mf-2d-y",
                                  "trsw-x", "trsw-y"])
def test_flux_matches_the_dense_characteristic_product(rng, case):
    # the two-wave assembly against R [P R^-1 K^- + M R^-1 K^+ + Q R^-1 du]
    # with dense R and R^-1 and the weights of every one of the d fields
    kind, *rest = case.split("-")
    direction = rest[-1] if rest[-1] in "xy" else "x"
    n = 400
    if kind == "mf":
        model = Multifluid(1 if rest[0] == "1d" else 2)
        left, right = (random_multifluid_states(rng, n, model.dimension)
                       for _ in range(2))
    else:
        model = ThermalShallowWater(2)
        left, right = random_trsw_states(rng, n), random_trsw_states(rng, n)
    # a quarter of the faces hold fluid at rest with equal neighbours
    rest_faces = slice(3 * n // 4, None)
    momenta = slice(1, 3 if kind == "trsw" else 1 + model.dimension)
    left[rest_faces, momenta] = 0.0
    right[rest_faces] = left[rest_faces]
    left, right = left[None], right[None]
    lam = model.eigenvalues(np.stack([left, right]), direction)
    p, m, q = split_weights(lam, *local_speeds(lam), EPS0)
    k_minus = model.flux(left, direction) + rng.normal(size=left.shape)
    k_plus = model.flux(right, direction) + rng.normal(size=left.shape)
    du = right - left
    vectors = face_vectors(model, left, right, direction)
    got = characteristic_flux(vectors, p, m, q, k_minus, k_plus, du)

    r_mat, r_inv = dense_eigensystem(model, left, right, direction)
    project = lambda v: np.einsum('...ij,...j->...i', r_inv, v)
    ch = sum(expand_fields(w, model.d) * project(v)
             for w, v in zip((p, m, q), (k_minus, k_plus, du)))
    want = np.einsum('...ij,...j->...i', r_mat, ch)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_central_upwind_degenerate_speeds_average():
    k_minus = np.array([[[1.0, 3.0]]])
    k_plus = np.array([[[3.0, 5.0]]])
    zero = np.zeros((1, 1))
    out = central_upwind_flux(zero, zero, k_minus, k_plus,
                              np.ones_like(k_minus), EPS0)
    assert np.array_equal(out, [[[2.0, 4.0]]])
