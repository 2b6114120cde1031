"""Semi-discretization and time loop.

The spatial operator runs dimension-by-dimension on "stacked lines": in 2-D
the x-sweep sees the field as (ny, nx + 2g, d) and the y-sweep as the
transposed (nx, ny + 2g, d), so both reuse the same 1-D kernel.  Interface
f = 0..n of a line sits between padded cells f+1 and f+2.  A sweep keeps
these logical shapes but lays its arrays out as (component, face, line) in
memory (grid.sweep_empty), so a slice along the faces is one contiguous
block per component however short the lines are.

The two sweeps of a 2-D stage read the same ghost-filled averages and
write separate differences, so a 2-D run hands each stage's y-sweep to
a helper process (pccu.ysweep) while this process runs the x-sweep;
every number is the same as with both sweeps here.  Once the run is
over, the same helper formats every other block of its large CSV tables
(pccu.output).
"""

import contextlib
import ctypes
import functools
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigError, AdmissibilityError, NumericalError, \
    ReconstructionError, check_admissible
from .grid import GHOST, Grid, Field, BoundaryCondition, centers, \
    fill_ghosts, init_from_function, sweep_empty
from .reconstruct import interface_values, reconstruct_equilibrium, \
    drop_inadmissible_slopes
from .fluxes import local_speeds, split_weights, characteristic_flux, \
    central_upwind_flux
from .globalflux import interleave_cell_halves, interleave_jumps_cells
from .timestepping import cfl_dt, ssprk3_step, finite_stage_check
from .output import check_outputs

SCHEMES = ("pccu", "lcd")


@dataclass
class LineGeometry:
    """Per-sweep geometry: padded center coordinates along the sweep axis,
    the (fixed) transverse coordinate of each line, whether the sweep's
    boundaries are periodic and, for an equilibrium model, the source data
    its source_half_increments reads (see
    ThermalShallowWater.source_geometry)."""
    direction: str
    dx: float
    coords: np.ndarray
    transverse: np.ndarray | None = None
    periodic: bool = False
    sources: tuple | None = None


def line_geometry(model, grid, bc, direction):
    """The LineGeometry of one sweep direction of a run; a run builds each
    direction's once."""
    if direction == "x":
        geom = LineGeometry("x", grid.dx,
                            centers(grid.x_min, grid.nx, grid.dx, pad=GHOST),
                            grid.y_centers() if grid.dimension == 2 else None,
                            bc.left == "periodic")
    else:
        geom = LineGeometry("y", grid.dy,
                            centers(grid.y_min, grid.ny, grid.dy, pad=GHOST),
                            grid.x_centers(), bc.bottom == "periodic")
    if model.reconstruction == "equilibrium":
        geom.sources = model.source_geometry(geom)
    return geom


def _face_states(model, lines, geom, theta, stats):
    """Face data of stacked lines, in the sweep's layout, for the flux
    assembly.

    Returns (k, du, lam): k stacks K- and K+ = F - W at faces 0..n as one
    (2, L, n+1, d) array, du = Ŭ+ - Ŭ- and lam is model.eigenvalues of
    the pair (U-, U+).  The reconstruction, its slopes and the W chain
    are locals here, so they are freed before the flux is assembled.
    stats["slope_drops"] counts the cells whose slope was zeroed to keep
    their interface values admissible.  An AdmissibilityError leaves
    when an average is out, for _field_sweep to name its cell.
    """
    direction = geom.direction
    if model.reconstruction == "equilibrium":
        w_center, w_face = interleave_cell_halves(
            *model.source_half_increments(lines, geom))
        ia = model.momentum_index(direction)
        states = reconstruct_equilibrium(
            lines, model, direction, theta, -w_center[..., 0], -w_face[..., 0])
        pair, breve = states[:2], states[2:]
        lam = model.eigenvalues(pair, direction)
        rows, w_minus, w_plus = slice(ia, ia + 1), w_face, w_face
    else:
        pair, half = interface_values(lines, theta)
        try:
            lam = model.eigenvalues(pair, direction)
        except AdmissibilityError:
            # the limited slopes pushed an edge value out of the set:
            # drop them there, and raise again if the averages are out too
            pair, half, dropped = drop_inadmissible_slopes(
                lines, half, model.admissible)
            lam = model.eigenvalues(pair, direction)
            if stats is not None:
                stats["slope_drops"] += dropped
        u_minus, u_plus = breve = pair
        # W is nonzero only on the model's nonconservative rows; an
        # interior cell runs from the U+ of its left face to the U- of
        # its right one
        w_minus, w_plus = interleave_jumps_cells(
            model.noncons_increment(u_minus, u_plus, direction),
            model.noncons_increment(u_plus[:, :-1], u_minus[:, 1:], direction))
        rows = model.noncons_rows
    # K = F - W on both sides; the rows outside W would subtract +0.0
    k = model.flux(pair, direction)
    k[0][..., rows] -= w_minus
    k[1][..., rows] -= w_plus
    return k, breve[1] - breve[0], lam


def _sweep(model, lines, geom, scheme, theta, eps0, robust=None, stats=None):
    """Flux differences for stacked lines.

    lines: (L, n + 2g, d) cell averages with ghosts filled.  Returns
    (diff, speed) with diff = (flux_{f} - flux_{f-1}) / dx over the n
    interior cells, shape (L, n, d), and the largest wave speed seen.
    robust, an (L, n+1) face mask, puts the central-upwind flux on those
    faces under lcd.  stats as for _face_states.

    The lines are copied once into the sweep's layout, (component, face,
    line) in memory (grid.sweep_empty), and ufunc outputs keep their
    inputs' memory order, so every array derived from them has each
    component as one block of faces with the lines innermost; the logical
    shapes stay (..., L, n, d).  The face states come first
    (_face_states), then the flux is assembled from them; the speeds go
    as soon as the weights exist.
    """
    lines, source = sweep_empty((), lines.shape), lines
    lines[...] = source
    g = GHOST
    (k_minus, k_plus), du, lam = _face_states(model, lines, geom, theta,
                                              stats)
    a_lo, a_hi = local_speeds(lam)
    if scheme == "lcd":
        p, m, q = split_weights(lam, a_lo, a_hi, eps0)
        del lam
        vectors = model.lcd_matrices(lines[:, g - 1:-g + 1, :],
                                     geom.direction)
        del lines
        flux = characteristic_flux(vectors, p, m, q, k_minus, k_plus, du)
        if robust is not None:
            flux[robust] = central_upwind_flux(
                a_lo[robust], a_hi[robust], k_minus[robust], k_plus[robust],
                du[robust], eps0)
    else:
        del lam, lines
        flux = central_upwind_flux(a_lo, a_hi, k_minus, k_plus, du, eps0)
    speed = float(max(a_hi.max(), -a_lo.min()))
    diff = np.subtract(flux[:, 1:, :], flux[:, :-1, :])
    diff /= geom.dx
    return diff, speed


def _face_flags(cells, periodic):
    """Faces 0..n of stacked lines (L, n) that touch a flagged cell.

    Across a periodic boundary the wrapped-around cell counts, so the two
    copies of that face agree.
    """
    padded = np.pad(cells, ((0, 0), (1, 1)),
                    mode="wrap" if periodic else "edge")
    return padded[:, :-1] | padded[:, 1:]


def _field_sweep(data, model, geom, scheme, theta, eps0, robust, stats):
    """_sweep of geometry geom over a ghost-filled field's data, and the
    one map between the field's grid order and the sweep's lines; robust,
    a mask over the interior cells or None, puts the robust flux on the
    faces of the flagged cells.  Returns (diff, speed), diff in grid order:
    (n, d) in 1-D, (ny, nx, d) in 2-D (along y a view of the sweep's
    (nx, ny, d) result, which lies in memory as (d, ny, nx)).  An
    AdmissibilityError or ReconstructionError first names the first
    inadmissible cell average, if any; an error raised in the sweep
    leaves with its direction set."""
    g = GHOST
    if data.ndim == 2:                  # 1-D: one line
        lines, cells = data[None], None if robust is None else robust[None]
    elif geom.direction == "x":
        lines, cells = data[g:-g], robust
    else:
        lines = np.swapaxes(data[:, g:-g], 0, 1)
        cells = None if robust is None else robust.T
    faces = None if cells is None else _face_flags(cells, geom.periodic)
    try:
        try:
            diff, speed = _sweep(model, lines, geom, scheme, theta, eps0,
                                 faces, stats)
        except (AdmissibilityError, ReconstructionError):
            # an average may be out: name it
            check_admissible(model, data[(slice(g, -g),) * (data.ndim - 1)],
                             "cell average")
            raise
    except (AdmissibilityError, ReconstructionError, NumericalError) as exc:
        exc.direction = geom.direction
        raise
    if data.ndim == 2:
        return diff[0], speed
    return diff if geom.direction == "x" else diff.swapaxes(0, 1), speed


def spatial_rhs(fld, model, bc, scheme, theta, eps0, robust=None,
                stats=None, helper=None, geoms=None):
    """Tendency -d/dx K - d/dy L on the interior; returns (tendency, sx, sy).

    robust, a boolean mask over the interior cells, makes lcd use the
    central-upwind flux on every face of those cells.  stats, a dict with
    a "slope_drops" count, accumulates the cells whose reconstruction
    slope was zeroed for admissibility.  An AdmissibilityError,
    ReconstructionError or NumericalError raised in a sweep leaves with
    its direction ("x" or "y") set; one for an inadmissible cell average
    names the first such cell in grid order, (k, j) or (j,), and its state.
    helper, a ysweep.SweepHelper set up for this model, geoms[1], scheme,
    theta and eps0, runs a 2-D y-sweep while this process runs the
    x-sweep; when both sweeps fail, the x-sweep's error is raised, as
    without it.  geoms holds the line_geometry of each direction of the
    grid, x first; a run passes the ones it built, else they are built
    here.
    """
    fill_ghosts(fld, bc, model)
    grid = fld.grid
    if geoms is None:
        geoms = [line_geometry(model, grid, bc, direction)
                 for direction in "xy"[:grid.dimension]]
    rest = (scheme, theta, eps0, robust, stats)
    if helper is not None:
        helper.start(fld.data, robust)
    try:
        diff_x, sx = _field_sweep(fld.data, model, geoms[0], *rest)
    except BaseException:
        if helper is not None:
            helper.wait()
        raise
    if grid.dimension == 1:
        return -diff_x, sx, 0.0
    if helper is not None:
        diff_y, sy = helper.finish(stats)
    else:
        diff_y, sy = _field_sweep(fld.data, model, geoms[1], *rest)
    return -(diff_x + diff_y), sx, sy


@dataclass
class RunConfig:
    model: object
    grid: Grid
    bc: BoundaryCondition
    ic: object                      # f(x) / f(X, Y) -> (..., d) states
    scheme: str = "pccu"
    theta: float = 1.3
    cfl: float = 0.45
    eps0: float = 1e-18
    t_final: float = 0.0
    snapshots: tuple = ()
    label: str = "custom"
    outputs: tuple = ("csv",)
    echo: dict = dataclass_field(default_factory=dict)

    def validate(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not 1.0 <= self.theta <= 2.0:
            raise ConfigError("theta must lie in [1, 2]")
        if not 0.0 < self.cfl < 1.0:
            raise ConfigError("cfl must lie in (0, 1)")
        if not 0.0 <= self.t_final < np.inf:
            raise ConfigError("t_final must be finite and non-negative")
        if not 0.0 < self.eps0 < np.inf:
            raise ConfigError("eps0 must be finite and positive")
        for s in self.snapshots:
            if not 0.0 <= s <= self.t_final:
                raise ConfigError(f"snapshot time {s} outside [0, {self.t_final}]")
        if self.grid.dimension != self.model.dimension:
            raise ConfigError("grid and model dimensions differ")
        check_outputs(self.outputs, self.grid)


@dataclass
class RunReport:
    config: RunConfig
    times: list
    states: list
    steps: int
    wall_time: float
    dt_min: float
    dt_max: float
    speed_max: float
    conservation: dict
    slope_drops: int = 0            # cells, summed over all sweeps
    stage_recomputes: int = 0       # lcd stage tendencies redone


def _y_helper(config, geoms):
    """ysweep.claim(config, geoms[1]) for a 2-D run, which loads the
    helper's module on first use; else a context that gives None."""
    if config.grid.dimension == 2:
        from . import ysweep
        return ysweep.claim(config, geoms[1])
    return contextlib.nullcontext()


@functools.cache
def fix_malloc_thresholds():
    """Fix glibc's adaptive mmap and trim thresholds, under which the
    temporaries faulted in fresh pages depending on allocation history
    (see the README); a no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)           # M_MMAP_THRESHOLD in glibc's malloc.h
    mallopt(-1, 64 << 20)           # M_TRIM_THRESHOLD


def run(config):
    """Advance the configured problem to t_final.

    Returns a RunReport whose states list holds interior snapshots at the
    requested times plus the final time (always last).
    The first call fixes glibc's malloc thresholds for the whole process
    (fix_malloc_thresholds): up to 64 MiB of freed heap may stay resident.
    """
    fix_malloc_thresholds()
    config.validate()
    model, grid = config.model, config.grid
    fld = init_from_function(grid, model.d, config.ic)
    try:
        model.validate(fld.interior, "initial data")
    except AdmissibilityError as exc:
        raise ConfigError(str(exc)) from exc

    sums0 = fld.interior.reshape(-1, model.d).sum(axis=0) * grid.cell_volume

    # + 0.0 turns -0.0 into 0.0, the time a snapshot at -0.0 is recorded at
    events = sorted({float(s) + 0.0
                     for s in (*config.snapshots, config.t_final)})
    # ssprk3_step returns a new array and never writes into its input,
    # so every snapshot is the state array itself
    cur = fld.interior.copy()
    times, states = [], []

    speeds = []
    stats = {"slope_drops": 0, "stage_recomputes": 0}
    # lcd falls back to the central-upwind flux around the cells its stage
    # candidates push out of the admissible set
    admissible = model.admissible if config.scheme == "lcd" else None

    geoms = [line_geometry(model, grid, config.bc, direction)
             for direction in "xy"[:grid.dimension]]
    with _y_helper(config, geoms) as helper:
        # with a helper, the ghost-filled field is the memory both
        # processes map, so no stage copies it
        work = Field(grid, model.d, None if helper is None else helper.data)

        def rhs(values, robust=None):
            work.interior[...] = values
            if robust is not None:
                stats["stage_recomputes"] += 1
            tendency, sx, sy = spatial_rhs(
                work, model, config.bc, config.scheme, config.theta,
                config.eps0, robust, stats, helper, geoms)
            speeds.append((sx, sy))
            return tendency

        t, steps, dts, speed_max = 0.0, 0, [], 0.0
        t_start = time.perf_counter()
        for target in events:
            while t < target:
                speeds.clear()
                try:
                    k0 = rhs(cur)
                    sx, sy = speeds[0]
                    dt = cfl_dt(sx, sy, grid.dx, grid.dy, config.cfl)
                    remaining = target - t
                    if dt * (1.0 + 1e-12) >= remaining:
                        dt = remaining
                        t_next = target
                    else:
                        t_next = t + dt
                    if dt <= 1e-14 * max(config.t_final, 1.0):
                        raise NumericalError("time step collapsed", t=t)
                    cur = ssprk3_step(cur, dt, rhs, rhs0=k0,
                                      stage_check=finite_stage_check(t),
                                      admissible=admissible)
                except (AdmissibilityError, ReconstructionError) as exc:
                    exc.t = t           # start of the step being taken
                    exc.stage = exc.stage or 1  # k0 is stage 1's tendency
                    raise
                t = t_next
                steps += 1
                dts.append(dt)
                speed_max = max(speed_max, max(max(s) for s in speeds))
            times.append(target)
            states.append(cur)
    wall = time.perf_counter() - t_start

    sums1 = cur.reshape(-1, model.d).sum(axis=0) * grid.cell_volume
    return RunReport(
        config=config, times=times, states=states, steps=steps,
        wall_time=wall, dt_min=min(dts) if dts else 0.0,
        dt_max=max(dts) if dts else 0.0, speed_max=speed_max,
        conservation={"initial": sums0.tolist(), "final": sums1.tolist()},
        slope_drops=stats["slope_drops"],
        stage_recomputes=stats["stage_recomputes"])
