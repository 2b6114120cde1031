"""Semi-discrete operator and the run loop."""

import ctypes
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import pccu.driver as driver
from pccu.errors import AdmissibilityError, ConfigError
from pccu.grid import GHOST, Grid, Field, BoundaryCondition, fill_ghosts, \
    init_from_function
from pccu.driver import RunConfig, line_geometry, run, spatial_rhs, _sweep
from pccu.multifluid import Multifluid, conservative_state
from pccu.catalog import EXAMPLES, make_config
from pccu.output import write_outputs
from pccu.timestepping import ssprk3_step
from conftest import catalog_lines


def _scalar_field(values):
    grid = Grid(0.0, 1.0, len(values))
    fld = Field(grid, 1)
    fld.interior[:, 0] = values
    return fld


# ---- tendencies ---------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
def test_constant_state_gives_exactly_zero_tendency(scheme):
    model = Multifluid(1)
    grid = Grid(-1.0, 1.0, 20)
    fld = Field(grid, 5)
    fld.interior[...] = conservative_state(1.2, 0.7, 0.0, 2.0, 1.4, 0.0, 1)
    bc = BoundaryCondition("free", "free")
    tend, sx, sy = spatial_rhs(fld, model, bc, scheme, 1.3, 1e-18)
    assert np.all(tend == 0.0)
    assert sx > 0.0 and sy == 0.0


def _upwind_oracle(values, dx, theta):
    """Hand-rolled first-order-in-space upwind tendency for unit advection
    with free boundaries and the same limited linear reconstruction."""
    pad = np.concatenate([[values[0], values[0]], values,
                          [values[-1], values[-1]]])
    dl = pad[1:-1] - pad[:-2]
    dr = pad[2:] - pad[1:-1]
    three = np.stack([theta * dl, 0.5 * (dl + dr), theta * dr])
    pos = np.all(three > 0, axis=0)
    neg = np.all(three < 0, axis=0)
    slope = np.where(pos, three.min(axis=0),
                     np.where(neg, three.max(axis=0), 0.0)) / dx
    # unit speed upwinds from the left: interface f takes the right-edge
    # value of the cell on its left
    edge = pad[1:-1] + 0.5 * dx * slope            # right edge per cell
    flux = edge[:-1]                               # interfaces 0..n
    return -(flux[1:] - flux[:-1]) / dx


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
def test_scalar_advection_reduces_to_exact_upwind(scalar_model, scheme):
    rng = np.random.default_rng(42)
    values = rng.uniform(0.5, 2.0, 10)
    fld = _scalar_field(values)
    bc = BoundaryCondition("free", "free")
    tend, _, _ = spatial_rhs(fld, scalar_model, bc, scheme, 1.3, 1e-18)
    oracle = _upwind_oracle(values, fld.grid.dx, 1.3)
    assert np.abs(tend[:, 0] - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_scalar_variants_coincide(scalar_model):
    # with a one-field model the characteristic decomposition is the
    # identity and the two variants must match to round-off
    rng = np.random.default_rng(9)
    values = rng.uniform(0.5, 2.0, 50)
    fld = _scalar_field(values)
    bc = BoundaryCondition("periodic", "periodic")
    t_pccu, _, _ = spatial_rhs(fld, scalar_model, bc, "pccu", 1.3, 1e-18)
    t_lcd, _, _ = spatial_rhs(fld, scalar_model, bc, "lcd", 1.3, 1e-18)
    assert np.abs(t_pccu - t_lcd).max() <= 1e-12 * np.abs(t_pccu).max()


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
@pytest.mark.parametrize("name, direction", [
    ("ex1", "x"), ("ex4", "x"), ("ex4", "y"), ("ex8", "x"), ("ex8", "y")])
def test_sweep_is_bitwise_blind_to_memory_layout(name, direction, scheme):
    # _sweep copies its lines into its own layout, so C-order lines, a
    # swapped view of them and a Fortran-order copy give the same bytes
    model, lines, geom = catalog_lines(name, direction)
    c_order = np.ascontiguousarray(lines)
    layouts = [c_order,
               np.swapaxes(np.ascontiguousarray(np.swapaxes(c_order, 0, 1)),
                           0, 1),
               np.asfortranarray(c_order)]
    results = [_sweep(model, v, geom, scheme, 1.3, 1e-18) for v in layouts]
    diff, speed = results[0]
    assert np.any(diff != 0.0)
    for other, other_speed in results[1:]:
        assert other.tobytes() == diff.tobytes()
        assert other_speed == speed


@pytest.mark.parametrize("name, nx, ny, scheme, bound", [
    ("ex4", 192, 48, "lcd", 495), ("ex4", 192, 48, "pccu", 480),
    ("ex8", 80, 80, "pccu", 465), ("ex10", 225, 38, "pccu", 460)])
def test_x_sweep_working_set_per_cell(name, nx, ny, scheme, bound):
    # tracemalloc peak of one x-sweep a few steps in, in bytes per cell:
    # 451, 436, 424 and 419 with numpy 2.4; each bound leaves about 10%
    # above its measured peak.  ex8 and ex10 read 502 and 484 while the
    # thickness inversion gathered its moving values apart from those at
    # rest and polished their root by a Newton step.  Face states kept
    # alive through the flux assembly, or the whole thickness inversion
    # alive at its scatter, read 887, 605 and 867; ex10 read 714 with E's
    # cells, slopes and pair alive through the inversion and a new array
    # for every step of the root.  The lcd flux assembly peaked at 581
    # while the hook built every eigenvector row and each projection term
    # was a new array.
    config = make_config(name, nx=nx, ny=ny, snapshots=(), scheme=scheme,
                         t_final=0.3 if name == "ex10" else 0.01)
    report = run(config)
    assert report.steps >= 3
    model, grid = config.model, config.grid
    fld = Field(grid, model.d)
    fld.interior[...] = report.states[-1]
    fill_ghosts(fld, config.bc, model)
    geom = line_geometry(model, grid, config.bc, "x")
    lines = fld.data[GHOST:-GHOST]
    _sweep(model, lines, geom, scheme, config.theta, config.eps0)  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _sweep(model, lines, geom, scheme, config.theta, config.eps0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (nx * ny) <= bound


def test_inadmissible_average_names_its_sweep():
    model = Multifluid(2)
    fld = Field(Grid(0.0, 1.0, 8, 0.0, 1.0, 6), model.d)
    fld.interior[...] = conservative_state(1.0, 0.5, -0.2, 1.0, 1.4, 0.0, 2)
    fld.interior[3, 4, 0] = -1.0           # one negative density average
    bc = BoundaryCondition("free", "free", "free", "free")
    with pytest.raises(AdmissibilityError) as info:
        spatial_rhs(fld, model, bc, "pccu", 1.3, 1e-18)
    assert info.value.direction == "x"
    # the cell in grid order, (k, j), and its state
    assert info.value.where == (3, 4)
    assert str(fld.interior[3, 4].tolist()) in str(info.value)


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
def test_trsw_inadmissible_average_names_its_cell(scheme):
    # h = -1 with b = hb / h = 1 fails the thickness inversion (the lower
    # root h = 0 at rest); the abort names the average, not the root
    config = make_config("ex8", scheme=scheme, nx=10, ny=10, snapshots=())
    fld = init_from_function(config.grid, config.model.d, config.ic)
    fld.interior[3, 4] = [-1.0, 0.0, 0.0, -1.0]
    with pytest.raises(AdmissibilityError) as info:
        spatial_rhs(fld, config.model, config.bc, scheme, config.theta,
                    config.eps0)
    assert info.value.direction == "x" and info.value.where == (3, 4)
    assert str(fld.interior[3, 4].tolist()) in str(info.value)


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
@pytest.mark.parametrize("name, nx, ny", [
    ("ex1", 300, None), ("ex4", 24, 12), ("ex10", 40, 10)])
def test_field_sweep_returns_grid_order(name, nx, ny, scheme):
    # the differences come back shaped like the interior in every
    # direction; along y as a swapped view of the sweep's own result
    grid_size = dict(nx=nx) if ny is None else dict(nx=nx, ny=ny)
    config = make_config(name, scheme=scheme, snapshots=(), **grid_size)
    model, grid = config.model, config.grid
    fld = init_from_function(grid, model.d, config.ic)
    fill_ghosts(fld, config.bc, model)
    for direction in "xy"[:grid.dimension]:
        geom = line_geometry(model, grid, config.bc, direction)
        diff, speed = driver._field_sweep(fld.data, model, geom, scheme,
                                          config.theta, config.eps0, None,
                                          None)
        assert diff.shape == fld.interior.shape
    if grid.dimension == 2:             # diff and geom are the y-sweep's
        lines = np.swapaxes(fld.data[:, GHOST:-GHOST], 0, 1)
        want, want_speed = _sweep(model, lines, geom, scheme, config.theta,
                                  config.eps0)
        want = np.swapaxes(want, 0, 1)
        assert diff.strides == want.strides
        assert diff.tobytes() == want.tobytes() and speed == want_speed


def _counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
@pytest.mark.parametrize("name", ["ex1", "ex8"])
def test_each_sweep_calls_the_face_hooks_once(name, scheme, monkeypatch):
    # the hooks see the stacked (U-, U+) pair, not one side at a time, and
    # only lcd forms the fieldwise speed bounds of split_weights
    grid_size = {} if EXAMPLES[name]["dimension"] == 1 else dict(nx=12,
                                                                 ny=12)
    config = make_config(name, scheme=scheme, **grid_size)
    model = config.model
    calls = dict.fromkeys(("eigenvalues", "flux", "split_weights"), 0)
    for hook in ("eigenvalues", "flux"):
        monkeypatch.setattr(type(model), hook,
                            _counted(calls, hook, vars(type(model))[hook]))
    monkeypatch.setattr(driver, "split_weights", _counted(
        calls, "split_weights", driver.split_weights))
    fld = init_from_function(config.grid, model.d, config.ic)
    spatial_rhs(fld, model, config.bc, scheme, config.theta, config.eps0)
    sweeps = config.grid.dimension
    assert calls == {"eigenvalues": sweeps, "flux": sweeps,
                     "split_weights": sweeps if scheme == "lcd" else 0}


def test_pccu_run_never_calls_split_weights(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("split_weights called under pccu")

    monkeypatch.setattr(driver, "split_weights", refuse)
    report = run(make_config("ex1", nx=40, t_final=0.05))
    assert report.steps >= 2


# ---- per-cell fallback from lcd to the central-upwind flux -------------------

# ex2 under lcd (dx = 0.1), cells 86-91 at the start of a step: air, the
# mixed cell, water.  With this time step the lcd forward-Euler candidate
# leaves the mixed cell (index 3) at p + pi_inf < 0; the central-upwind
# flux keeps it admissible.
EX2_STAGE_CELLS = np.array([
    [0.04999949946863601, 2.6468311451887643e-06, 2.4999649771142245,
     2.5000000000000004, -3.004149212316298e-28],
    [0.0498963348155472, 0.000519110605368794, 2.4933226823555072,
     2.5000000000000004, -4.938207047857677e-28],
    [0.0491191967565635, 0.011888508391029085, 1.8261794120381403,
     2.499973966947081, 0.09163634627649349],
    [0.08395716193899674, 3.5067201421879584, 286.9491825102067,
     2.357845526345947, 500.38374726225965],
    [0.9892144670397226, -14.496950107350045, 7754.668998316303,
     0.45446975639517495, 7200.266457488979],
    [1.2036155140009297, -46.06176626618542, 11488.023223692211,
     0.29411951801098485, 7764.6992966013295],
])
EX2_STAGE_DT = 0.00012458481171316135


def _periodic_lcd_rhs(model, n):
    fld = Field(Grid(0.0, 0.1 * n, n), model.d)
    bc = BoundaryCondition("periodic", "periodic")

    def rhs(values, robust=None):
        fld.interior[...] = values
        return spatial_rhs(fld, model, bc, "lcd", 1.3, 1e-18, robust)[0]
    return rhs


@pytest.mark.parametrize("shift", [0, 3])
def test_fallback_makes_the_lcd_stage_admissible_and_conservative(shift):
    # shift 3 puts the mixed cell first, so its left face is the one the
    # periodic boundary shares with the last cell
    model = Multifluid(1)
    u = np.roll(EX2_STAGE_CELLS, -shift, axis=0)
    rhs = _periodic_lcd_rhs(model, len(u))
    plain = u + EX2_STAGE_DT * rhs(u)
    assert np.flatnonzero(~model.admissible(plain)).tolist() == [3 - shift]

    seen = []
    ssprk3_step(u, EX2_STAGE_DT, rhs, admissible=model.admissible,
                stage_check=lambda cand, stage: seen.append(cand))
    first = seen[0]
    assert np.all(model.admissible(first))
    assert not np.array_equal(first[3 - shift], plain[3 - shift])
    # mass, momentum and energy: one flux per face, periodic line
    sums0, sums1 = u[:, :3].sum(axis=0), first[:, :3].sum(axis=0)
    scale = np.abs(u[:, :3]).sum(axis=0)
    assert np.all(np.abs(sums1 - sums0) <= 1e-14 * scale)
    assert all(np.all(model.admissible(cand)) for cand in seen)


def test_fallback_names_the_stage_and_cell_it_cannot_rescue():
    model = Multifluid(1)
    u = EX2_STAGE_CELLS
    rhs = _periodic_lcd_rhs(model, len(u))
    dt = 10.0 * EX2_STAGE_DT
    with pytest.raises(AdmissibilityError) as info:
        ssprk3_step(u, dt, rhs, admissible=model.admissible)
    err = info.value
    assert err.stage == 1
    assert "stage 1" in str(err) and "cell %s" % (err.where,) in str(err)
    # the named cell fails with the central-upwind flux on every face too
    everywhere = np.ones(len(u), dtype=bool)
    robust = u + dt * rhs(u, everywhere)
    assert not model.admissible(robust)[err.where]


def test_ex1_lcd_needs_no_repair_and_reports_it(tmp_path):
    # criterion 7 compares lcd with pccu on this run; it must be the
    # unrepaired lcd scheme
    report = run(make_config("ex1", scheme="lcd", snapshots=()))
    assert report.slope_drops == 0 and report.stage_recomputes == 0
    write_outputs(report, str(tmp_path))
    diag = json.loads((tmp_path / "run.json").read_text())["diagnostics"]
    assert diag["slope_drops"] == 0 and diag["stage_recomputes"] == 0


def test_ex2_lcd_reports_its_repairs():
    # at the catalog's theta ex2/lcd needs no repair; the steepest limiter
    # still pushes edge values and one stage out of the admissible set
    report = run(make_config("ex2", scheme="lcd", theta=2.0, snapshots=()))
    assert report.slope_drops > 0 and report.stage_recomputes > 0


# ---- lcd at rest is well-posed at round-off ------------------------------------

def test_one_ulp_of_density_barely_moves_ex1_lcd():
    # ex1 starts mostly at rest, where speeds of round-off size used to
    # flip fields between the fallback and the one-sided weights
    config = make_config("ex1", scheme="lcd", snapshots=())

    def nudged(x):
        state = config.ic(x)
        state[..., 0] = np.nextafter(state[..., 0], np.inf)
        return state

    rho = run(config).states[-1][:, 0]
    rho_nudged = run(dataclasses.replace(config, ic=nudged)).states[-1][:, 0]
    assert np.abs(rho_nudged - rho).max() <= 1e-10 * np.abs(rho).max()


def test_ex4_lcd_keeps_its_mirror_symmetry():
    config = make_config("ex4", scheme="lcd", nx=192, ny=48, theta=1.3,
                         t_final=0.03, snapshots=())
    final = run(config).states[-1]
    flipped = final[::-1]           # mirror about the middle row, y -> -y
    even = [0, 1, 3, 4, 5]
    defect = max(np.abs(final[..., even] - flipped[..., even]).max(),
                 np.abs(final[..., 2] + flipped[..., 2]).max())
    assert defect <= 1e-12 * np.abs(final).max()


# ---- run loop ------------------------------------------------------------------

def test_run_zero_final_time_returns_initial_snapshot():
    config = make_config("ex6", t_final=0.0)
    report = run(config)
    assert report.times == [0.0]
    assert len(report.states) == 1
    assert report.steps == 0


def test_run_lands_snapshots_exactly():
    config = make_config("ex6", t_final=0.02, snapshots=(0.0, 0.01))
    report = run(config)
    assert report.times == [0.0, 0.01, 0.02]
    assert len(report.states) == 3


def test_snapshot_at_negative_zero_is_recorded_at_zero():
    report = run(make_config("ex6", t_final=0.02, snapshots=(-0.0,)))
    assert report.times == [0.0, 0.02]
    assert math.copysign(1.0, report.times[0]) == 1.0


def test_snapshots_share_no_memory_and_match_runs_that_stop_there():
    # each snapshot is the stepped array itself, so no later step may
    # write into an earlier one
    snapshots = (0.0, 0.005, 0.01)
    report = run(make_config("ex6", t_final=0.02, snapshots=snapshots))
    states = report.states
    assert len(states) == 4
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(states) for b in states[i + 1:])
    for k, t in enumerate(report.times):
        alone = run(make_config("ex6", t_final=t, snapshots=snapshots[:k]))
        assert alone.states[-1].tobytes() == states[k].tobytes()


def test_run_is_deterministic():
    finals = []
    for _ in range(2):
        config = make_config("ex7", nx=50, t_final=0.02, snapshots=())
        finals.append(run(config).states[-1])
    assert np.array_equal(finals[0], finals[1])


def _has_mallopt():
    # CDLL(None) raises on platforms without a process-wide symbol table
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (AttributeError, OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_repeated_run_reuses_memory_without_page_faults():
    # with fixed malloc thresholds the second run's temporaries come from
    # the heap the first one left; glibc's adaptive ones cost ~120K faults
    resource = pytest.importorskip("resource")

    def faults():
        config = make_config("ex4", scheme="lcd", nx=192, ny=48,
                             t_final=0.03, snapshots=())
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(config)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults()
    assert faults() < 2000


def test_run_rejects_inadmissible_initial_data():
    config = make_config("ex1", t_final=0.1)
    grid = config.grid

    def bad_ic(x):
        out = np.asarray(config.ic(x), dtype=float).copy()
        out[5, 0] = -1.0                 # negative density cell
        return out

    bad = RunConfig(model=config.model, grid=grid, bc=config.bc, ic=bad_ic,
                    t_final=0.1)
    with pytest.raises(ConfigError, match=r"initial data .* cell \(5,\)"):
        run(bad)


def test_run_reports_conservation_and_diagnostics():
    config = make_config("ex6", t_final=0.05, snapshots=())
    report = run(config)
    assert report.steps > 0
    assert 0.0 < report.dt_min <= report.dt_max
    assert report.speed_max > 0.0
    cons = report.conservation
    assert len(cons["initial"]) == 4 and len(cons["final"]) == 4
    # mass is exactly conserved here (free BCs but nothing reaches them)
    assert cons["final"][0] == pytest.approx(cons["initial"][0], rel=1e-13)


# ---- config validation -----------------------------------------------------------

def test_config_validation_catches_bad_fields():
    base = make_config("ex6", t_final=1.0)
    for attr, value in [("scheme", "weno"), ("theta", 2.5), ("theta", 0.5),
                        ("cfl", 0.0), ("cfl", 1.0), ("t_final", -1.0),
                        ("eps0", 0.0), ("snapshots", (2.0,)),
                        ("t_final", np.nan), ("t_final", np.inf),
                        ("eps0", np.nan), ("eps0", np.inf),
                        ("outputs", ("vtk",)),
                        ("outputs", ("schlieren",))]:     # ex6 is 1-D
        config = make_config("ex6", t_final=1.0)
        setattr(config, attr, value)
        with pytest.raises(ConfigError):
            config.validate()
    base.validate()                       # the unmodified config is fine


def test_config_dimension_mismatch_rejected():
    config = make_config("ex6", t_final=1.0)
    config.model = Multifluid(2)
    with pytest.raises(ConfigError):
        config.validate()
