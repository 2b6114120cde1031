"""Output products: CSV fields, schlieren images, slices, run metadata.

All writers are deterministic: fixed field order, %.17g formatting (full
round-trip precision for doubles), LF line endings, no timestamps.
"""

import json
import os

import numpy as np

from .errors import ConfigError


# product name -> grid dimension it needs (None: any)
PRODUCTS = {"csv": None, "schlieren": 2, "slice_diag": 2, "slice_y0": 2}


def check_outputs(outputs, grid):
    """ConfigError for a product that is unknown or does not fit the grid."""
    for name in outputs:
        if name not in PRODUCTS:
            raise ConfigError(f"unknown output {name!r} "
                              f"(available: {', '.join(sorted(PRODUCTS))})")
        need = PRODUCTS[name]
        if need is not None and grid.dimension != need:
            raise ConfigError(f"output {name!r} needs a {need}-D grid")
        if name == "slice_diag" and grid.nx != grid.ny:
            raise ConfigError("diagonal slice needs a square 2-D grid")


def _write_table(path, header, columns):
    table = np.column_stack(columns)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline="\n")


def write_field_csv(path, grid, interior):
    """Cell-center coordinates and all state components, one row per cell."""
    d = interior.shape[-1]
    comp_names = ["comp_%d" % c for c in range(d)]
    if grid.dimension == 1:
        cols = [grid.x_centers()] + [interior[:, c] for c in range(d)]
        _write_table(path, ["x"] + comp_names, cols)
    else:
        xg, yg = np.meshgrid(grid.x_centers(), grid.y_centers())
        cols = [xg.ravel(), yg.ravel()]
        cols += [interior[..., c].ravel() for c in range(d)]
        _write_table(path, ["x", "y"] + comp_names, cols)


def write_diagonal_slice_csv(path, grid, interior):
    """Values along the y = x diagonal (needs a square grid)."""
    if grid.dimension != 2 or grid.nx != grid.ny:
        raise ConfigError("diagonal slice needs a square 2-D grid")
    idx = np.arange(grid.nx)
    d = interior.shape[-1]
    cols = [grid.x_centers(), grid.y_centers()]
    cols += [interior[idx, idx, c] for c in range(d)]
    header = ["x", "y"] + ["comp_%d" % c for c in range(d)]
    _write_table(path, header, cols)


def write_y0_slice_csv(path, grid, interior):
    """Values along the grid line nearest y = 0."""
    if grid.dimension != 2:
        raise ConfigError("y-slice needs a 2-D grid")
    k = int(np.argmin(np.abs(grid.y_centers())))
    d = interior.shape[-1]
    y = np.full(grid.nx, grid.y_centers()[k])
    cols = [grid.x_centers(), y]
    cols += [interior[k, :, c] for c in range(d)]
    header = ["x", "y"] + ["comp_%d" % c for c in range(d)]
    _write_table(path, header, cols)


def schlieren_shade(density, dx, dy):
    """exp(-80 |grad rho| / max |grad rho|), ones for a constant field.

    Gradients use central differences inside and one-sided differences on
    the boundary ring.
    """
    gy, gx = np.gradient(density, dy, dx)
    mag = np.sqrt(gx * gx + gy * gy)
    peak = mag.max()
    if peak == 0.0:
        return np.ones_like(density)
    return np.exp(-80.0 * mag / peak)


def write_pgm(path, shade):
    """16-bit binary PGM of a shade field in [0, 1]; row 0 is the top row."""
    levels = np.round(65535.0 * np.clip(shade, 0.0, 1.0)).astype(">u2")
    flipped = levels[::-1, :]    # image rows run top to bottom
    ny, nx = flipped.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n65535\n" % (nx, ny))
        fh.write(flipped.tobytes())


def write_run_json(path, echo, report):
    snap_files = {"field_%03d.csv" % i: t for i, t in enumerate(report.times)}
    payload = {
        "config": echo,
        "snapshot_times": {k: snap_files[k] for k in sorted(snap_files)},
        "diagnostics": {
            "steps": report.steps,
            "wall_time_s": report.wall_time,
            "dt_min": report.dt_min,
            "dt_max": report.dt_max,
            "max_wave_speed": report.speed_max,
            "conservation": report.conservation,
            "slope_drops": report.slope_drops,
            "stage_recomputes": report.stage_recomputes,
        },
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_outputs(report, out_dir):
    """Write every configured product for a finished run; returns out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    config = report.config
    grid, outputs = config.grid, config.outputs
    for i, (t, state) in enumerate(zip(report.times, report.states)):
        tag = "%03d" % i
        if "csv" in outputs:
            write_field_csv(os.path.join(out_dir, "field_%s.csv" % tag),
                            grid, state)
        if "schlieren" in outputs:
            shade = schlieren_shade(state[..., 0], grid.dx, grid.dy)
            write_pgm(os.path.join(out_dir, "schlieren_%s.pgm" % tag), shade)
        if "slice_diag" in outputs:
            write_diagonal_slice_csv(
                os.path.join(out_dir, "slice_diag_%s.csv" % tag), grid, state)
        if "slice_y0" in outputs:
            write_y0_slice_csv(
                os.path.join(out_dir, "slice_y0_%s.csv" % tag), grid, state)
    write_run_json(os.path.join(out_dir, "run.json"), config.echo, report)
    return out_dir


def difference_norms(report_a, report_b):
    """Per-snapshot, per-component L1 and Linf distances of two runs."""
    grid = report_a.config.grid
    vol = grid.dx * (grid.dy if grid.dimension == 2 else 1.0)
    out = []
    for t, sa, sb in zip(report_a.times, report_a.states, report_b.states):
        diff = np.abs(sa - sb)
        flat = diff.reshape(-1, diff.shape[-1])
        out.append({
            "t": t,
            "l1": (flat.sum(axis=0) * vol).tolist(),
            "linf": flat.max(axis=0).tolist(),
        })
    return out
