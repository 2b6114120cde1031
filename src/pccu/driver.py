"""Semi-discretization and time loop.

The spatial operator runs dimension-by-dimension on "stacked lines": in 2-D
the x-sweep sees the field as (ny, nx + 2g, d) and the y-sweep as the
transposed (nx, ny + 2g, d), so both reuse the same 1-D kernel.  Interface
f = 0..n of a line sits between padded cells f+1 and f+2.
"""

import ctypes
import functools
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConfigError, AdmissibilityError, NumericalError, \
    ReconstructionError
from .grid import GHOST, Grid, Field, BoundaryCondition, fill_ghosts, \
    init_from_function
from .reconstruct import interface_values, reconstruct_equilibrium, \
    drop_inadmissible_slopes
from .fluxes import local_speeds, split_weights, characteristic_flux, \
    central_upwind_flux
from .globalflux import interleave_cell_halves, interleave_jumps_cells
from .timestepping import cfl_dt, ssprk3_step, finite_stage_check

SCHEMES = ("pccu", "lcd")


@dataclass
class LineGeometry:
    """Per-sweep geometry: padded center coordinates along the sweep axis
    and the (fixed) transverse coordinate of each line."""
    direction: str
    dx: float
    coords: np.ndarray
    transverse: np.ndarray | None = None


def _sweep(model, lines, geom, scheme, theta, eps0, robust=None, stats=None):
    """Flux differences for stacked lines.

    lines: (L, n + 2g, d) cell averages with ghosts filled.  Returns
    (diff, speed) with diff = (flux_{f} - flux_{f-1}) / dx over the n
    interior cells, shape (L, n, d), and the largest wave speed seen.
    robust, an (L, n+1) face mask, puts the central-upwind flux on those
    faces under lcd.  stats["slope_drops"] counts the cells whose slope
    was zeroed to keep their interface values admissible.
    """
    g = GHOST
    direction = geom.direction
    if model.reconstruction == "equilibrium":
        half_l, half_r = model.source_half_increments(lines, geom)
        w_center, w_face = interleave_cell_halves(half_l, half_r)
        ia = model.momentum_index(direction)
        u_minus, u_plus, ub_minus, ub_plus = reconstruct_equilibrium(
            lines, model, direction, geom.dx, theta,
            -w_center[..., ia], -w_face[..., ia])
        lam = model.eigenvalues(np.stack([u_minus, u_plus]), direction)
        k_minus = model.flux(u_minus, direction) - w_face
        k_plus = model.flux(u_plus, direction) - w_face
    else:
        u_minus, u_plus, half = interface_values(lines, geom.dx, theta)
        try:
            lam = model.eigenvalues(np.stack([u_minus, u_plus]), direction)
        except AdmissibilityError:
            # the limited slopes pushed an edge value out of the set:
            # drop them there, and raise if the averages are out too
            u_minus, u_plus, half, dropped = drop_inadmissible_slopes(
                lines, half, model.admissible)
            lam = model.eigenvalues(np.stack([u_minus, u_plus]), direction)
            if stats is not None:
                stats["slope_drops"] += dropped
        ub_minus, ub_plus = u_minus, u_plus
        jump = model.noncons_increment(u_minus, u_plus, direction)
        inner = lines[:, g:-g, :]
        cell = model.noncons_increment(inner - half[:, 1:-1, :],
                                       inner + half[:, 1:-1, :], direction)
        w_minus, w_plus = interleave_jumps_cells(jump, cell)
        k_minus = model.flux(u_minus, direction) - w_minus
        k_plus = model.flux(u_plus, direction) - w_plus

    lam_lo, lam_hi, a_lo, a_hi = local_speeds(lam[0], lam[1])
    du = ub_plus - ub_minus
    if scheme == "lcd":
        face = model.lcd_matrices(
            lines[:, g - 1:-g, :], lines[:, g:-g + 1, :], direction)
        p, m, q = split_weights(lam_lo, lam_hi, a_lo, a_hi, eps0)
        flux = characteristic_flux(model, face, p, m, q, k_minus, k_plus, du)
        if robust is not None:
            flux[robust] = central_upwind_flux(
                a_lo[robust], a_hi[robust], k_minus[robust], k_plus[robust],
                du[robust], eps0)
    else:
        flux = central_upwind_flux(a_lo, a_hi, k_minus, k_plus, du, eps0)
    speed = float(max(a_hi.max(), -a_lo.min()))
    return (flux[:, 1:, :] - flux[:, :-1, :]) / geom.dx, speed


def _face_flags(cells, periodic):
    """Faces 0..n of stacked lines (L, n) that touch a flagged cell.

    Across a periodic boundary the wrapped-around cell counts, so the two
    copies of that face agree.
    """
    padded = np.pad(cells, ((0, 0), (1, 1)),
                    mode="wrap" if periodic else "edge")
    return padded[:, :-1] | padded[:, 1:]


def _padded_centers(lo, n, step):
    return lo + (np.arange(-GHOST, n + GHOST) + 0.5) * step


def spatial_rhs(fld, model, bc, scheme, theta, eps0, robust=None,
                stats=None):
    """Tendency -d/dx K - d/dy L on the interior; returns (tendency, sx, sy).

    robust, a boolean mask over the interior cells, makes lcd use the
    central-upwind flux on every face of those cells.  stats, a dict with
    a "slope_drops" count, accumulates the cells whose reconstruction
    slope was zeroed for admissibility.
    """
    fill_ghosts(fld, bc, model)
    grid = fld.grid
    g = GHOST
    x_coords = _padded_centers(grid.x_min, grid.nx, grid.dx)
    x_periodic = bc.left == "periodic"
    if grid.dimension == 1:
        geom = LineGeometry("x", grid.dx, x_coords)
        faces = None if robust is None else _face_flags(robust[None],
                                                        x_periodic)
        diff, sx = _sweep(model, fld.data[None], geom, scheme, theta, eps0,
                          faces, stats)
        return -diff[0], sx, 0.0
    geom_x = LineGeometry("x", grid.dx, x_coords, grid.y_centers())
    faces = None if robust is None else _face_flags(robust, x_periodic)
    diff_x, sx = _sweep(model, fld.data[g:-g], geom_x, scheme, theta, eps0,
                        faces, stats)
    y_coords = _padded_centers(grid.y_min, grid.ny, grid.dy)
    geom_y = LineGeometry("y", grid.dy, y_coords, grid.x_centers())
    lines_y = np.swapaxes(fld.data[:, g:-g], 0, 1)
    faces = None if robust is None else _face_flags(robust.T,
                                                    bc.bottom == "periodic")
    diff_y, sy = _sweep(model, lines_y, geom_y, scheme, theta, eps0,
                        faces, stats)
    return -(diff_x + np.swapaxes(diff_y, 0, 1)), sx, sy


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
        raise ConfigError(f"inadmissible initial data: {exc}") from exc

    cellvol = grid.dx * (grid.dy if grid.dimension == 2 else 1.0)
    sums0 = fld.interior.reshape(-1, model.d).sum(axis=0) * cellvol

    events = sorted(set(float(s) for s in config.snapshots) | {config.t_final})
    times, states = [], []
    if events and events[0] == 0.0:
        times.append(0.0)
        states.append(fld.interior.copy())
        events = events[1:]

    work = Field(grid, model.d)
    speeds = []
    stats = {"slope_drops": 0, "stage_recomputes": 0}
    # lcd falls back to the central-upwind flux around the cells its stage
    # candidates push out of the admissible set
    admissible = model.admissible if config.scheme == "lcd" else None

    def rhs(values, robust=None):
        work.interior[...] = values
        if robust is not None:
            stats["stage_recomputes"] += 1
        tendency, sx, sy = spatial_rhs(work, model, config.bc, config.scheme,
                                       config.theta, config.eps0, robust,
                                       stats)
        speeds.append((sx, sy))
        return tendency

    cur = fld.interior.copy()
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
                exc.t = t               # start of the step being taken
                raise
            t = t_next
            steps += 1
            dts.append(dt)
            speed_max = max(speed_max, max(max(s) for s in speeds))
        times.append(target)
        states.append(cur.copy())
    wall = time.perf_counter() - t_start

    sums1 = cur.reshape(-1, model.d).sum(axis=0) * cellvol
    return RunReport(
        config=config, times=times, states=states, steps=steps,
        wall_time=wall, dt_min=min(dts) if dts else 0.0,
        dt_max=max(dts) if dts else 0.0, speed_max=speed_max,
        conservation={"initial": sums0.tolist(), "final": sums1.tolist()},
        slope_drops=stats["slope_drops"],
        stage_recomputes=stats["stage_recomputes"])
