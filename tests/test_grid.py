"""Grids, fields, ghost filling, and cell-average initialization."""

import numpy as np
import pytest

from pccu.grid import GHOST, Grid, Field, BoundaryCondition, fill_ghosts, \
    init_from_function
from pccu.errors import ConfigError
from pccu.multifluid import Multifluid
from pccu.catalog import make_config


def test_grid_centers_and_spacing():
    g = Grid(0.0, 1.0, 4)
    assert g.dx == 0.25
    assert np.array_equal(g.x_centers(), [0.125, 0.375, 0.625, 0.875])


def test_grid_2d_shapes():
    g = Grid(0.0, 2.0, 8, -1.0, 1.0, 4)
    assert g.dimension == 2
    assert g.dy == 0.5
    f = Field(g, 3)
    assert f.data.shape == (4 + 2 * GHOST, 8 + 2 * GHOST, 3)
    assert f.interior.shape == (4, 8, 3)


def test_grid_rejects_bad_extents():
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, 2)              # too few cells
    with pytest.raises(ConfigError):
        Grid(1.0, 0.0, 10)             # empty extent
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, 10, 0.0, 1.0)   # 2-D without ny


def test_field_shape_validation():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(ConfigError):
        Field(g, 2, data=np.zeros((5, 2)))


def test_init_midpoint_rule_linear_exact():
    # midpoint rule integrates linear functions exactly, so the cell
    # averages of f(x) = a + b x are just f at the centers
    g = Grid(0.0, 1.0, 4)
    f = init_from_function(g, 1, lambda x: (2.0 - 3.0 * x)[:, None])
    assert np.array_equal(f.interior[:, 0], 2.0 - 3.0 * g.x_centers())


def test_init_constant_state():
    g = Grid(-1.0, 1.0, 10)
    u0 = np.array([1.0, 2.0, 3.0])
    f = init_from_function(g, 3, lambda x: np.tile(u0, (x.size, 1)))
    assert np.all(f.interior == u0)


def test_init_2d_index_order():
    # interior[k, j] must hold f at (x_j, y_k)
    g = Grid(0.0, 1.0, 5, 0.0, 2.0, 4)
    f = init_from_function(g, 1, lambda x, y: (x + 10.0 * y)[..., None])
    xc, yc = g.x_centers(), g.y_centers()
    assert f.interior[2, 3, 0] == xc[3] + 10.0 * yc[2]


def test_init_rejects_nonfinite():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(ConfigError):
        init_from_function(g, 1, lambda x: np.full((x.size, 1), np.inf))


def test_init_rejects_wrong_shape():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(ConfigError):
        init_from_function(g, 2, lambda x: x[:, None])


def _filled(vals, bc, model):
    g = Grid(0.0, 1.0, len(vals))
    f = Field(g, model.d)
    f.interior[...] = vals
    fill_ghosts(f, bc, model)
    return f


def test_free_ghosts_copy_edge_cells(mf1):
    vals = np.arange(1, 6 * mf1.d + 1, dtype=float).reshape(6, mf1.d) + 1.0
    f = _filled(vals, BoundaryCondition("free", "free"), mf1)
    assert np.array_equal(f.data[0], vals[0])
    assert np.array_equal(f.data[1], vals[0])
    assert np.array_equal(f.data[-1], vals[-1])
    assert np.array_equal(f.data[-2], vals[-1])


def test_periodic_ghosts_wrap(mf1):
    vals = np.arange(1, 6 * mf1.d + 1, dtype=float).reshape(6, mf1.d) + 1.0
    f = _filled(vals, BoundaryCondition("periodic", "periodic"), mf1)
    g = GHOST
    assert np.array_equal(f.data[0:g], vals[-g:])
    assert np.array_equal(f.data[-g:], vals[:g])


def test_solid_wall_mirrors_and_negates_normal_momentum(mf1):
    vals = np.abs(np.random.default_rng(7).normal(size=(6, 5))) + 1.0
    f = _filled(vals, BoundaryCondition("solid_wall", "solid_wall"), mf1)
    iw = mf1.momentum_index("x")
    flip = np.ones(5)
    flip[iw] = -1.0
    # ghost layer g-1-k mirrors interior cell k with the momentum negated
    assert np.array_equal(f.data[1], vals[0] * flip)
    assert np.array_equal(f.data[0], vals[1] * flip)
    assert np.array_equal(f.data[-2], vals[-1] * flip)
    assert np.array_equal(f.data[-1], vals[-2] * flip)
    # involution: reflecting the ghost back reproduces the interior state
    assert np.array_equal(f.data[1] * flip, vals[0])


@pytest.mark.parametrize("kind", ["free", "solid_wall", "periodic"])
def test_fill_ghosts_idempotent(kind, mf1):
    vals = np.random.default_rng(11).uniform(1.0, 2.0, size=(8, 5))
    bc = BoundaryCondition(kind, kind)
    f = _filled(vals, bc, mf1)
    once = f.data.copy()
    fill_ghosts(f, bc, mf1)
    assert np.array_equal(f.data, once)


def test_fill_ghosts_2d_both_axes():
    model = Multifluid(2)
    g = Grid(0.0, 1.0, 5, 0.0, 1.0, 4)
    f = Field(g, 6)
    f.interior[...] = np.random.default_rng(3).uniform(1, 2, size=(4, 5, 6))
    fill_ghosts(f, BoundaryCondition("periodic", "periodic",
                                     "free", "free"), model)
    gh = GHOST
    inner = f.data[gh:-gh]
    assert np.array_equal(inner[:, 0:gh], inner[:, -2 * gh:-gh])
    assert np.array_equal(f.data[0], f.data[gh])


def test_bc_periodic_must_pair():
    with pytest.raises(ConfigError):
        BoundaryCondition("periodic", "free")
    with pytest.raises(ConfigError):
        BoundaryCondition("free", "free", "periodic", "free")


def test_bc_from_string_broadcasts():
    bc = BoundaryCondition.from_spec("periodic", 2)
    assert bc.as_dict(2) == {"left": "periodic", "right": "periodic",
                             "bottom": "periodic", "top": "periodic"}


def test_bc_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        BoundaryCondition("reflecting", "free")


def test_bc_unknown_side_rejected():
    # a misspelled side, and the y-sides of a 1-D grid, are named, not
    # dropped; a side left out is free
    with pytest.raises(ConfigError, match="'lft'"):
        BoundaryCondition.from_spec({"lft": "periodic"}, 1)
    with pytest.raises(ConfigError, match="'bottom', 'top'"):
        BoundaryCondition.from_spec({"bottom": "free", "top": "free"}, 1)
    bc = BoundaryCondition.from_spec({"bottom": "solid_wall"}, 2)
    assert bc.as_dict(2) == {"left": "free", "right": "free",
                             "bottom": "solid_wall", "top": "free"}
    assert BoundaryCondition.from_spec("periodic", 1).as_dict(1) == {
        "left": "periodic", "right": "periodic"}


def test_buoyancy_jump_ic_cells_straddling_interface():
    # dam-break style data on [-5,5] with dx = 1/20: the cells on either
    # side of x=0 pick up the left state (h,v,b)=(2,0,1) and the right
    # state (1,0,4); state layout is (h, hu, hv, hb)
    config = make_config("ex6")
    f = init_from_function(config.grid, 4, config.ic)
    xc = config.grid.x_centers()
    j_left = np.argmin(np.abs(xc + 0.025))
    j_right = np.argmin(np.abs(xc - 0.025))
    assert np.array_equal(f.interior[j_left], [2.0, 0.0, 0.0, 2.0])
    assert np.array_equal(f.interior[j_right], [1.0, 0.0, 0.0, 4.0])
