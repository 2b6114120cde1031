"""The sweep's layers compute in place only in arrays they form themselves.

Every kernel runs here on read-only inputs, so a write into an input
raises; and the arrays the sweep hands from layer to layer stay
component-major (the last axis outermost in memory), which the in-place
steps must not lose: a C-order result is bitwise equal but makes every
later pass stride across the components.
"""

import numpy as np
import pytest

from pccu.catalog import make_config
from pccu.driver import _face_states, _sweep, spatial_rhs
from pccu.fluxes import central_upwind_flux, characteristic_flux, \
    local_speeds, split_weights
from pccu.globalflux import interleave_cell_halves, interleave_jumps_cells
from pccu.grid import GHOST, Field, init_from_function
from pccu.reconstruct import interface_values, limited_half_slopes, \
    reconstruct_equilibrium
from pccu.timestepping import finite_stage_check, ssprk3_step
from pccu.trsw import invert_momentum_flux
from conftest import catalog_lines, random_trsw_states

THETA, EPS0 = 1.3, 1e-18

# 1-D and 2-D lines of both models, both sweep directions; ex7 and ex8
# have topography, ex10 the beta-plane Coriolis term
CASES = [("ex1", "x"), ("ex4", "x"), ("ex4", "y"), ("ex7", "x"),
         ("ex8", "x"), ("ex8", "y"), ("ex10", "x"), ("ex10", "y")]


def _frozen(obj):
    """A read-only copy of obj, with the arrays inside tuples, lists and
    dicts copied too, each laid out as before."""
    if isinstance(obj, np.ndarray):
        copy = obj.copy(order="K")
        copy.flags.writeable = False
        return copy
    if isinstance(obj, dict):
        return {key: _frozen(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_frozen(value) for value in obj)
    return obj


def _call(fn, *args):
    """fn on read-only copies of args; its result is returned writeable,
    as the caller receives it."""
    return fn(*_frozen(args))


def _sweep_lines(name, direction):
    """(model, lines, geom) as _sweep sees them: the lines copied
    component-major.  The trsw lines get a uniform discharge along the
    sweep, so the moving-water root runs."""
    model, lines, geom = catalog_lines(name, direction)
    lines = np.ascontiguousarray(lines.transpose(2, 0, 1)).transpose(1, 2, 0)
    if model.reconstruction == "equilibrium":
        lines[..., model.momentum_index(direction)] += 0.05 * lines[..., 0]
    return model, lines, geom


@pytest.mark.parametrize("name, direction", CASES)
def test_sweep_kernels_leave_their_inputs_untouched(name, direction):
    model, lines, geom = _sweep_lines(name, direction)
    _call(limited_half_slopes, lines, THETA)
    if model.reconstruction == "equilibrium":
        half_l, half_r = _call(model.source_half_increments, lines, geom)
        w_center, w_face = _call(interleave_cell_halves, half_l, half_r)
        r_center, r_face = -w_center[..., 0], -w_face[..., 0]
        _call(model.equilibrium_values, lines, r_center, direction)
        states = _call(reconstruct_equilibrium, lines, model, direction,
                       THETA, r_center, r_face)
        # the inversion alone, on E of the states it returned
        pair = states[:2]
        targets = model.equilibrium_values(pair, r_face, direction)
        _call(model.equilibrium_invert, targets, r_face, pair[..., 0],
              direction)
        du = states[3] - states[2]
    else:
        pair, _ = _call(interface_values, lines, THETA)
        jump = _call(model.noncons_increment, pair[0], pair[1], direction)
        cell = _call(model.noncons_increment, pair[1][:, :-1],
                     pair[0][:, 1:], direction)
        _call(interleave_jumps_cells, jump, cell)
        _call(model.primitives, pair)
        du = pair[1] - pair[0]
    assert _call(model.admissible, pair).all()
    lam = _call(model.eigenvalues, pair, direction)
    k = _call(model.flux, pair, direction)
    a_lo, a_hi = _call(local_speeds, lam)
    p, m, q = _call(split_weights, lam, a_lo, a_hi, EPS0)
    vectors = _call(model.lcd_matrices, lines[:, GHOST - 1:-GHOST + 1],
                    direction)
    _call(characteristic_flux, vectors, p, m, q, k[0], k[1], du)
    _call(central_upwind_flux, a_lo, a_hi, k[0], k[1], du, EPS0)


def test_thickness_inversion_leaves_its_inputs_untouched(rng):
    # moving water on both branches of psi(h) = phi, and water at rest
    states = random_trsw_states(rng, 400)
    h, m, b = states[:, 0], states[:, 1], states[:, 3] / states[:, 0]
    m[:50] = 0.0
    phi = m * m / h + 0.5 * b * h * h
    got = _call(invert_momentum_flux, m, phi, b, h)
    assert np.allclose(got, h, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("name, nx, ny", [("ex1", 60, None),
                                          ("ex4", 24, 12),
                                          ("ex8", 16, 16)])
@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
def test_stage_update_leaves_its_inputs_untouched(name, nx, ny, scheme):
    config = make_config(name, nx=nx, ny=ny, scheme=scheme)
    model, grid = config.model, config.grid
    work = Field(grid, model.d)

    def rhs(values, robust=None):
        work.interior[...] = values
        return _frozen(spatial_rhs(work, model, config.bc, scheme,
                                   config.theta, config.eps0, robust)[0])

    u = _frozen(init_from_function(grid, model.d, config.ic).interior)
    rhs0 = rhs(u)
    admissible = model.admissible if scheme == "lcd" else None
    got = ssprk3_step(u, 1e-3, rhs, rhs0=rhs0,
                      stage_check=finite_stage_check(0.0),
                      admissible=admissible)
    want = ssprk3_step(u.copy(), 1e-3, rhs, rhs0=rhs0.copy(),
                       admissible=admissible)
    assert got.tobytes() == want.tobytes()
    assert np.any(got != u)


def _component_major(a):
    """Whether a (..., d) array has its last axis outermost in memory."""
    return np.moveaxis(a, -1, 0).flags.c_contiguous


@pytest.mark.parametrize("name, direction", [
    ("ex1", "x"), ("ex4", "x"), ("ex4", "y"), ("ex7", "x"), ("ex8", "x"),
    ("ex8", "y")])
@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
def test_sweep_layers_stay_component_major(name, direction, scheme):
    model, lines, geom = _sweep_lines(name, direction)
    assert _component_major(limited_half_slopes(lines, THETA))
    k, du, lam = _face_states(model, lines, geom, THETA, None)
    # each side's K is component-major; the speeds of both sides share
    # one buffer whose speed axis is outermost
    for a in (k[0], k[1], du, lam):
        assert _component_major(a)
    diff, _ = _sweep(model, lines, geom, scheme, THETA, EPS0)
    assert _component_major(diff)
