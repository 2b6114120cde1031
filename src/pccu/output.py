"""Output products: CSV fields, schlieren images, slices, run metadata.

All writers are deterministic: fixed field order, %.17g formatting (full
round-trip precision for doubles), LF line endings, no timestamps.  A CSV
table holds the bytes of np.savetxt(fmt="%.17g", delimiter=","); its x and
y columns repeat a few cell centres on every row, so each distinct
coordinate is formatted once and its text reused on every row that holds it.
Rows are formatted in blocks; in a process that has run a 2-D problem, the
idle y-sweep helper (pccu.ysweep) formats every other block of a table
while this process formats the rest, and the file's bytes stay the same.
"""

import contextlib
import json
import os
import sys

import numpy as np

from .errors import ConfigError


# rows formatted by one `%`: bounds the text held at once
_BLOCK_ROWS = 1024


class _CoordinateText(dict):
    """%.17g text of float64 values, each followed by a comma, keyed by their
    bits so that -0.0 and +0.0 keep their own text; a value is formatted at
    its first lookup.  The text holds no '%', so it can stand in a format
    string."""

    def __missing__(self, bits):
        text = self[bits] = "%.17g," % float(np.int64(bits).view(np.float64))
        return text


def _format_block(text, coord_bits, values):
    """CSV rows of a block: per row the coordinate text (from text, a
    _CoordinateText) of the int64 views coord_bits of its coordinate
    columns, then the row of values (rows, d) in %.17g."""
    rows, d = values.shape
    nc = len(coord_bits)
    # the block's format: per row the coordinate text, then a %.17g for
    # each value
    parts = [",".join(["%.17g"] * d) + "\n"] * ((nc + 1) * rows)
    for c, bits in enumerate(coord_bits):
        parts[c::nc + 1] = map(text.__getitem__, bits.tolist())
    return "".join(parts) % tuple(values.ravel().tolist())


def _idle_helper(blocks):
    """The y-sweep helper (pccu.ysweep) while it is idle, for a table of
    more than one block; else a context that gives None.  Only a process
    that has run a 2-D problem has loaded that module."""
    ysweep = sys.modules.get(__package__ + ".ysweep")
    if blocks < 2 or ysweep is None:
        return contextlib.nullcontext()
    return ysweep.idle()


def _write_table(path, coords, values):
    """CSV of columns x[, y] and a (rows, d) table of values under a header
    line, in the bytes of np.savetxt(fmt="%.17g", delimiter=",").

    With an idle y-sweep helper, the helper formats every other block of
    _BLOCK_ROWS rows while this process formats the others; the blocks are
    written in order, so the bytes are the same.  At most one block is
    with the helper at a time, and this process reads its reply before it
    sends the next.  Should the helper fail, the blocks left are formatted
    here.
    """
    rows, d = values.shape
    header = ["x", "y"][:len(coords)] + ["comp_%d" % c for c in range(d)]
    coord_bits = [np.asarray(col, dtype=np.float64).view(np.int64)
                  for col in coords]
    text = _CoordinateText()

    def block(i):
        span = slice(i * _BLOCK_ROWS, (i + 1) * _BLOCK_ROWS)
        return [bits[span] for bits in coord_bits], values[span]

    blocks = -(-rows // _BLOCK_ROWS)
    with open(path, "w", encoding="ascii", newline="\n") as fh, \
            _idle_helper(blocks) as helper:
        fh.write(",".join(header) + "\n")
        for i in range(0, blocks, 2):
            if helper is not None and i + 1 < blocks:
                helper.format_block(i == 0, *block(i + 1))
            fh.write(_format_block(text, *block(i)))
            if i + 1 < blocks:
                part = None if helper is None else helper.formatted()
                if part is None:            # the helper ended or failed
                    helper = None
                    part = _format_block(text, *block(i + 1))
                fh.write(part)


def write_field_csv(path, grid, interior):
    """Cell-center coordinates and all state components, one row per cell;
    in 2-D row-major over (k, j), so x varies fastest."""
    _write_table(path, [c.ravel() for c in grid.mesh()],
                 interior.reshape(-1, interior.shape[-1]))


def _diagonal_cells(grid, state):
    """Selector: the coordinate columns and values of the cells (j, j) on
    the y = x diagonal of a square grid."""
    j = np.arange(grid.nx)
    return [grid.x_centers(), grid.y_centers()], state[j, j]


def _y0_cells(grid, state):
    """The row of cells whose centers are nearest y = 0."""
    k = int(np.argmin(np.abs(grid.y_centers())))
    return [grid.x_centers(), np.full(grid.nx, grid.y_centers()[k])], state[k]


def _slice_csv(select):
    return lambda path, grid, state: _write_table(path, *select(grid, state))


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


def _write_schlieren(path, grid, state):
    write_pgm(path, schlieren_shade(state[..., 0], grid.dx, grid.dy))


# product name -> (grid dimension it needs or None, file name pattern over
# the snapshot index, writer(path, grid, state))
PRODUCTS = {
    "csv": (None, "field_%03d.csv", write_field_csv),
    "schlieren": (2, "schlieren_%03d.pgm", _write_schlieren),
    "slice_diag": (2, "slice_diag_%03d.csv", _slice_csv(_diagonal_cells)),
    "slice_y0": (2, "slice_y0_%03d.csv", _slice_csv(_y0_cells)),
}


def check_outputs(outputs, grid):
    """ConfigError for a product that is unknown, named twice or does not
    fit the grid."""
    for i, name in enumerate(outputs):
        if name in outputs[:i]:
            raise ConfigError(f"output {name!r} is named twice")
        if name not in PRODUCTS:
            raise ConfigError(f"unknown output {name!r} "
                              f"(available: {', '.join(sorted(PRODUCTS))})")
        need = PRODUCTS[name][0]
        if need is not None and grid.dimension != need:
            raise ConfigError(f"output {name!r} needs a {need}-D grid")
        if name == "slice_diag" and grid.nx != grid.ny:
            raise ConfigError("diagonal slice needs a square 2-D grid")


def write_outputs(report, out_dir):
    """Write every configured product for a finished run, then run.json
    (config echo, each written file's time, diagnostics); returns out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    config = report.config
    files = {}
    for i, (t, state) in enumerate(zip(report.times, report.states)):
        for name in config.outputs:
            _, pattern, writer = PRODUCTS[name]
            writer(os.path.join(out_dir, pattern % i), config.grid, state)
            files[pattern % i] = t
    payload = {
        "config": config.echo,
        "snapshot_times": files,
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
    with open(os.path.join(out_dir, "run.json"), "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def difference_norms(report_a, report_b):
    """Per-snapshot, per-component L1 and Linf distances of two runs."""
    vol = report_a.config.grid.cell_volume
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
