"""Uniform 1-D/2-D grids, multi-component cell-average fields, ghost cells.

Storage convention: 1-D fields are (nx + 2*GHOST, d) arrays; 2-D fields are
(ny + 2*GHOST, nx + 2*GHOST, d), row-major over (k, j) with the component
axis innermost.  Interior cell (j, k) lives at data[k + GHOST, j + GHOST].
A sweep copies its lines out of a field into its own layout (sweep_empty).
"""

import math

import numpy as np

from .errors import ConfigError

# Ghost layers per side: piecewise-linear reconstruction needs one neighbor
# plus one spare so the first interior cell gets a limited slope.
GHOST = 2
_INNER = slice(GHOST, -GHOST)                  # interior cells of one axis

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


def centers(lo, n, step, pad=0):
    """Centres of the n cells of width step from lo, and of pad more cells
    on each side."""
    return lo + (np.arange(-pad, n + pad) + 0.5) * step


def _axis(name, lo, hi, n):
    """(lo, hi, n, step) of a checked grid axis."""
    if n < 4:
        raise ConfigError(f"n{name} must be >= 4, got {n}")
    if not hi > lo:
        raise ConfigError(f"empty {name}-extent [{lo}, {hi}]")
    lo, hi, n = float(lo), float(hi), int(n)
    return lo, hi, n, (hi - lo) / n


class Grid:
    """Uniform Cartesian grid.  dx is computed once and reused everywhere.

    shape is (nx,) in 1-D and (ny, nx) in 2-D, the grid order of a field's
    cells; cell_volume is dx, or dx dy."""

    def __init__(self, x_min, x_max, nx, y_min=None, y_max=None, ny=None):
        self.x_min, self.x_max, self.nx, self.dx = _axis("x", x_min, x_max,
                                                         nx)
        if y_min is None:
            if y_max is not None or ny is not None:
                raise ConfigError("a 1-D grid takes no y_max or ny")
            self.y_min = self.y_max = self.ny = self.dy = None
            self.dimension = 1
            self.shape = (self.nx,)
            self.cell_volume = self.dx
        else:
            if ny is None or y_max is None:
                raise ConfigError("2-D grid needs y_min, y_max and ny")
            self.y_min, self.y_max, self.ny, self.dy = _axis("y", y_min,
                                                             y_max, ny)
            self.dimension = 2
            self.shape = (self.ny, self.nx)
            self.cell_volume = self.dx * self.dy

    def x_centers(self):
        return centers(self.x_min, self.nx, self.dx)

    def y_centers(self):
        return centers(self.y_min, self.ny, self.dy)

    def mesh(self):
        """Cell centres in grid order: [x], or np.meshgrid's [X, Y]."""
        if self.dimension == 1:
            return [self.x_centers()]
        return np.meshgrid(self.x_centers(), self.y_centers())

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
        try:
            self.data = np.zeros(tuple(n + 2 * GHOST for n in grid.shape)
                                 + (d,))
        except (MemoryError, ValueError) as exc:  # ValueError: too big
            raise ConfigError(f"cannot allocate a field of "
                              f"{math.prod(grid.shape)} cells: {exc}") from exc

    @property
    def interior(self):
        """Writable view of the interior cells."""
        return self.data[(_INNER,) * len(self.grid.shape)]


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
    # the x-sides act along the last grid axis: fill them on a view that
    # puts it first
    _fill_axis(field.data.swapaxes(0, grid.dimension - 1), grid.nx,
               bc.left, bc.right, model.momentum_index("x"))
    if grid.dimension == 2:
        _fill_axis(field.data, grid.ny, bc.bottom, bc.top,
                   model.momentum_index("y"))
    return field


def init_from_function(grid, d, f):
    """Field with interior cells set to f at cell centers (midpoint rule).

    f receives the center coordinates grid.mesh() (x in 1-D, meshgrid X, Y
    in 2-D) and must return an (..., d) array of states.
    """
    field = Field(grid, d)
    vals = np.asarray(f(*grid.mesh()), dtype=np.float64)
    if vals.shape != field.interior.shape:
        raise ConfigError(f"initial data shape {vals.shape} != {field.interior.shape}")
    if not np.all(np.isfinite(vals)):
        raise ConfigError("initial data contains non-finite values")
    field.interior[...] = vals
    return field
