"""Uniform 1-D/2-D grids, multi-component cell-average fields, ghost cells.

Storage convention: 1-D fields are (nx + 2*GHOST, d) arrays; 2-D fields are
(ny + 2*GHOST, nx + 2*GHOST, d), row-major over (k, j) with the component
axis innermost.  Interior cell (j, k) lives at data[k + GHOST, j + GHOST].
A sweep copies its lines out of a field into its own layout (sweep_empty).
"""

import numpy as np

from .errors import ConfigError

# Ghost layers per side: piecewise-linear reconstruction needs one neighbor
# plus one spare so the first interior cell gets a limited slope.
GHOST = 2

BC_KINDS = ("free", "solid_wall", "periodic")
_SIDES = ("left", "right", "bottom", "top")    # x-sides, then y-sides


def sweep_empty(lead, tail):
    """An empty array of shape lead + tail, two tuples, whose tail axes
    (at most three) lie in memory in reverse order: the layout a sweep
    keeps its (..., L, n, d) and (..., L, n) arrays in.  Each component
    is then one block of faces with the lines innermost, so a slice along
    the faces is one contiguous run per component; ufunc outputs keep
    their inputs' memory order, so every array derived from such an
    array keeps the layout."""
    return np.empty(lead + tail[::-1]).swapaxes(-1, -len(tail))


class Grid:
    """Uniform Cartesian grid.  dx is computed once and reused everywhere."""

    def __init__(self, x_min, x_max, nx, y_min=None, y_max=None, ny=None):
        if nx < 4:
            raise ConfigError(f"nx must be >= 4, got {nx}")
        if not x_max > x_min:
            raise ConfigError(f"empty x-extent [{x_min}, {x_max}]")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.nx = int(nx)
        self.dx = (self.x_max - self.x_min) / self.nx
        if y_min is None:
            if y_max is not None or ny is not None:
                raise ConfigError("a 1-D grid takes no y_max or ny")
            self.dimension = 1
            self.y_min = self.y_max = None
            self.ny = None
            self.dy = None
        else:
            if ny is None or y_max is None:
                raise ConfigError("2-D grid needs y_min, y_max and ny")
            if ny < 4:
                raise ConfigError(f"ny must be >= 4, got {ny}")
            if not y_max > y_min:
                raise ConfigError(f"empty y-extent [{y_min}, {y_max}]")
            self.dimension = 2
            self.y_min = float(y_min)
            self.y_max = float(y_max)
            self.ny = int(ny)
            self.dy = (self.y_max - self.y_min) / self.ny

    def x_centers(self):
        return self.x_min + (np.arange(self.nx) + 0.5) * self.dx

    def y_centers(self):
        return self.y_min + (np.arange(self.ny) + 0.5) * self.dy

    def __repr__(self):
        if self.dimension == 1:
            return f"Grid([{self.x_min}, {self.x_max}], nx={self.nx})"
        return (f"Grid([{self.x_min}, {self.x_max}]x[{self.y_min}, {self.y_max}], "
                f"nx={self.nx}, ny={self.ny})")


class Field:
    """Cell-average values of a d-component state, ghost layers included.

    data, an array of the field's shape, holds the values in place of a
    new array of zeros."""

    def __init__(self, grid, d, data=None):
        self.grid = grid
        self.d = int(d)
        if data is not None:
            self.data = data
            return
        if grid.dimension == 1:
            shape = (grid.nx + 2 * GHOST, d)
        else:
            shape = (grid.ny + 2 * GHOST, grid.nx + 2 * GHOST, d)
        try:
            self.data = np.zeros(shape)
        except (MemoryError, ValueError) as exc:  # ValueError: too big
            cells = grid.nx * (grid.ny if grid.dimension == 2 else 1)
            raise ConfigError(f"cannot allocate a field of {cells} "
                              f"cells: {exc}") from exc

    @property
    def interior(self):
        """Writable view of the interior cells."""
        if self.grid.dimension == 1:
            return self.data[GHOST:-GHOST]
        return self.data[GHOST:-GHOST, GHOST:-GHOST]


class BoundaryCondition:
    """Per-side boundary kinds: 'free' | 'solid_wall' | 'periodic'."""

    def __init__(self, left="free", right="free", bottom=None, top=None):
        self.left = left
        self.right = right
        self.bottom = bottom
        self.top = top
        for side in (left, right, bottom, top):
            if side is not None and side not in BC_KINDS:
                raise ConfigError(f"unknown boundary kind {side!r}")
        if (left == "periodic") != (right == "periodic"):
            raise ConfigError("periodic BC must be set on both x-sides or neither")
        if (bottom == "periodic") != (top == "periodic"):
            raise ConfigError("periodic BC must be set on both y-sides or neither")

    @classmethod
    def from_spec(cls, spec, dimension):
        if isinstance(spec, BoundaryCondition):
            return spec
        sides = _SIDES[:2 * dimension]
        if isinstance(spec, str):
            spec = dict.fromkeys(sides, spec)
        if not isinstance(spec, dict):
            raise ConfigError(f"bc must be a kind or a per-side object, "
                              f"got {spec!r}")
        unknown = [k for k in spec if k not in sides]
        if unknown:
            raise ConfigError(f"unknown side(s) in a {dimension}-D 'bc': "
                              f"{', '.join(map(repr, unknown))}")
        return cls(**{side: spec.get(side, "free") for side in sides})

    def as_dict(self, dimension):
        return {side: getattr(self, side) for side in _SIDES[:2 * dimension]}


def _fill_axis(data, n, lo_kind, hi_kind, wall_comp):
    """Fill the two ghost layers on both ends of axis 0 of `data`.

    data has shape (n + 2*GHOST, ..., d); `wall_comp` is the component index
    to negate under solid-wall mirroring.
    """
    g = GHOST
    if lo_kind == "periodic":
        data[0:g] = data[n:n + g]
        data[n + g:n + 2 * g] = data[g:2 * g]
        return
    # left
    if lo_kind == "free":
        data[0] = data[g]
        data[1] = data[g]
    elif lo_kind == "solid_wall":
        data[1] = data[g]
        data[0] = data[g + 1]
        data[0:g, ..., wall_comp] *= -1.0
    # right
    if hi_kind == "free":
        data[n + g] = data[n + g - 1]
        data[n + g + 1] = data[n + g - 1]
    elif hi_kind == "solid_wall":
        data[n + g] = data[n + g - 1]
        data[n + g + 1] = data[n + g - 2]
        data[n + g:n + 2 * g, ..., wall_comp] *= -1.0


def fill_ghosts(field, bc, model):
    """Populate ghost layers in place (x-sides first, then y-sides)."""
    grid = field.grid
    if field.d != model.d:
        raise ConfigError(f"field has {field.d} components, model expects {model.d}")
    if grid.dimension == 1:
        _fill_axis(field.data, grid.nx, bc.left, bc.right,
                   model.momentum_index("x"))
        return field
    # x-sides act along axis 1: operate on the transposed view
    xview = np.swapaxes(field.data, 0, 1)
    _fill_axis(xview, grid.nx, bc.left, bc.right, model.momentum_index("x"))
    _fill_axis(field.data, grid.ny, bc.bottom, bc.top, model.momentum_index("y"))
    return field


def init_from_function(grid, d, f):
    """Field with interior cells set to f at cell centers (midpoint rule).

    f receives center-coordinate arrays (x in 1-D, meshgrid X, Y in 2-D) and
    must return an (..., d) array of states.
    """
    field = Field(grid, d)
    if grid.dimension == 1:
        vals = np.asarray(f(grid.x_centers()), dtype=np.float64)
    else:
        X, Y = np.meshgrid(grid.x_centers(), grid.y_centers())
        vals = np.asarray(f(X, Y), dtype=np.float64)
    if vals.shape != field.interior.shape:
        raise ConfigError(f"initial data shape {vals.shape} != {field.interior.shape}")
    if not np.all(np.isfinite(vals)):
        raise ConfigError("initial data contains non-finite values")
    field.interior[...] = vals
    return field
