"""Output writers: CSV fields, slices, schlieren shading, PGM, run manifest."""

import io
import json

import numpy as np
import pytest

from pccu.errors import ConfigError
from pccu.grid import Grid
from pccu.output import PRODUCTS, _write_table, check_outputs, \
    write_field_csv, schlieren_shade, write_pgm, write_outputs, \
    difference_norms
from pccu.driver import run
from pccu.catalog import make_config


# ---- CSV ------------------------------------------------------------------------

def test_field_csv_round_trip_1d(tmp_path, rng):
    grid = Grid(-2.0, 3.0, 7)
    interior = rng.normal(size=(7, 3)) * np.pi
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, interior)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,comp_0,comp_1,comp_2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (7, 4)
    assert np.array_equal(data[:, 0], grid.x_centers())
    assert np.array_equal(data[:, 1:], interior)   # %.17g round trips exactly


def test_field_csv_round_trip_2d(tmp_path, rng):
    grid = Grid(0.0, 1.0, 5, 0.0, 1.0, 4)
    interior = rng.normal(size=(4, 5, 2))
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, interior)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (20, 4)
    # row-major over (k, j): x varies fastest
    assert np.array_equal(data[:5, 0], grid.x_centers())
    assert np.array_equal(data[:, 2], interior[..., 0].ravel())


# values that stress %.17g: signed zero, the smallest subnormal, the
# extremes, integral floats and a repeating fraction
_HARD = [-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 3.0, -42.0,
         1.0 / 3.0, 2.0 ** 53, 0.1]


@pytest.mark.parametrize("rows", [1, 1024, 1025])
def test_write_table_matches_savetxt(tmp_path, rng, rows):
    # 1024 rows fill one formatting block exactly, 1025 spill into a second
    values = rng.choice(_HARD, size=(rows, 3)) * rng.choice([1.0, 1.0 / 7],
                                                             size=(rows, 3))
    values[0] = _HARD[:3]
    x, y = rng.normal(size=rows), rng.choice(_HARD, size=rows)
    path = tmp_path / "table.csv"
    _write_table(path, [x, y], values)
    oracle = io.BytesIO()
    np.savetxt(oracle, np.column_stack([x, y, values]), fmt="%.17g",
               delimiter=",", newline="\n")
    assert path.read_bytes() == (b"x,y,comp_0,comp_1,comp_2\n"
                                 + oracle.getvalue())


def _read_product(name, tmp_path, grid, interior):
    path = tmp_path / (name + ".csv")
    PRODUCTS[name][2](path, grid, interior)
    assert path.read_text().splitlines()[0] == "x,y,comp_0,comp_1"
    return np.loadtxt(path, delimiter=",", skiprows=1)


def test_diagonal_slice_picks_matching_cells(tmp_path, rng):
    grid = Grid(-1.0, 1.0, 6, -1.0, 1.0, 6)
    interior = rng.normal(size=(6, 6, 2))
    data = _read_product("slice_diag", tmp_path, grid, interior)
    idx = np.arange(6)
    assert np.array_equal(data[:, 2:], interior[idx, idx])
    assert np.array_equal(data[:, 0], grid.x_centers())
    assert np.array_equal(data[:, 1], grid.y_centers())


def test_diagonal_slice_requires_square_grid():
    grid = Grid(0.0, 1.0, 6, 0.0, 1.0, 4)
    with pytest.raises(ConfigError, match="square"):
        check_outputs(("csv", "slice_diag"), grid)
    # the catalog's ex9 writes slice_diag; RunConfig.validate rejects it
    with pytest.raises(ConfigError, match="square"):
        make_config("ex9", nx=16, ny=8)


def test_y0_slice_picks_row_nearest_zero(tmp_path, rng):
    grid = Grid(0.0, 1.0, 5, -1.0, 1.0, 8)
    interior = rng.normal(size=(8, 5, 2))
    data = _read_product("slice_y0", tmp_path, grid, interior)
    k = np.argmin(np.abs(grid.y_centers()))
    assert np.array_equal(data[:, 2:], interior[k])
    assert np.array_equal(data[:, 0], grid.x_centers())
    assert np.all(data[:, 1] == grid.y_centers()[k])


# ---- schlieren ---------------------------------------------------------------------

def test_schlieren_constant_field_is_all_ones():
    shade = schlieren_shade(np.full((6, 7), 2.5), 0.1, 0.1)
    assert np.all(shade == 1.0)


def test_schlieren_linear_field_is_uniform_floor():
    x = np.linspace(0.0, 1.0, 9)
    y = np.linspace(0.0, 2.0, 7)
    rho = 1.0 + 3.0 * x[None, :] + 0.0 * y[:, None]
    shade = schlieren_shade(rho, x[1] - x[0], y[1] - y[0])
    assert np.allclose(shade, np.exp(-80.0), rtol=1e-12, atol=0)


def test_schlieren_scale_invariant():
    rng = np.random.default_rng(3)
    rho = rng.uniform(1.0, 2.0, size=(10, 12))
    a = schlieren_shade(rho, 0.1, 0.2)
    b = schlieren_shade(4.0 * rho, 0.1, 0.2)   # power-of-two: exact ratios
    assert np.array_equal(a, b)


def test_schlieren_matches_stencil_oracle():
    # independent central/one-sided difference implementation
    nx, ny, dx, dy = 12, 9, 0.05, 0.08
    x = (np.arange(nx) + 0.5) * dx
    y = (np.arange(ny) + 0.5) * dy
    rho = np.exp(-((x[None, :] - 0.3) ** 2 + (y[:, None] - 0.35) ** 2)
                 / 0.02)
    gx = np.empty_like(rho)
    gx[:, 1:-1] = (rho[:, 2:] - rho[:, :-2]) / (2 * dx)
    gx[:, 0] = (rho[:, 1] - rho[:, 0]) / dx
    gx[:, -1] = (rho[:, -1] - rho[:, -2]) / dx
    gy = np.empty_like(rho)
    gy[1:-1, :] = (rho[2:, :] - rho[:-2, :]) / (2 * dy)
    gy[0, :] = (rho[1, :] - rho[0, :]) / dy
    gy[-1, :] = (rho[-1, :] - rho[-2, :]) / dy
    mag = np.hypot(gx, gy)
    expect = np.exp(-80.0 * mag / mag.max())
    assert np.abs(schlieren_shade(rho, dx, dy) - expect).max() <= 1e-14


# ---- PGM ------------------------------------------------------------------------------

def test_pgm_header_and_values(tmp_path):
    shade = np.array([[0.0, 0.5, 1.0],
                      [1.0, 0.25, 0.0]])
    path = tmp_path / "img.pgm"
    write_pgm(path, shade)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n3 2\n65535\n")
    pixels = np.frombuffer(blob[len(b"P5\n3 2\n65535\n"):], dtype=">u2")
    # row 0 of the array is the bottom of the image
    expect = np.round(65535.0 * shade[::-1]).astype(np.uint16).ravel()
    assert np.array_equal(pixels, expect)


def test_pgm_clips_out_of_range(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[1.5, -0.5]]))
    pixels = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=">u2")
    assert list(pixels) == [65535, 0]


# ---- bundled writers --------------------------------------------------------------------

def test_write_outputs_produces_manifest_and_fields(tmp_path):
    config = make_config("ex6", t_final=0.01, snapshots=(0.0,))
    report = run(config)
    out = write_outputs(report, str(tmp_path / "run"))
    files = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert files == ["field_000.csv", "field_001.csv", "run.json"]
    manifest = json.loads((tmp_path / "run" / "run.json").read_text())
    assert manifest["config"]["label"] == "ex6"
    assert manifest["config"]["nx"] == 200
    assert manifest["diagnostics"]["steps"] == report.steps
    assert manifest["snapshot_times"] == {"field_000.csv": 0.0,
                                          "field_001.csv": 0.01}
    assert out.endswith("run")

    # run.json maps the files that were written, whatever the products
    config = make_config("ex9", nx=16, ny=16, t_final=0.005,
                         snapshots=(0.0,), outputs=("slice_y0",))
    write_outputs(run(config), str(tmp_path / "y0"))
    files = sorted(p.name for p in (tmp_path / "y0").iterdir())
    assert files == ["run.json", "slice_y0_000.csv", "slice_y0_001.csv"]
    manifest = json.loads((tmp_path / "y0" / "run.json").read_text())
    assert manifest["snapshot_times"] == {"slice_y0_000.csv": 0.0,
                                          "slice_y0_001.csv": 0.005}


def test_difference_norms_of_identical_runs_vanish():
    config = make_config("ex6", t_final=0.01, snapshots=())
    rep_a = run(config)
    rep_b = run(make_config("ex6", t_final=0.01, snapshots=()))
    norms = difference_norms(rep_a, rep_b)
    assert len(norms) == 1
    for key, value in norms[0].items():
        if key == "t":
            continue
        assert np.all(np.asarray(value) == 0.0)
