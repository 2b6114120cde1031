"""The y-sweep helper process: bitwise equal to serial, located errors,
fallbacks and the helper's lifetime."""

import contextlib
import dataclasses
import errno
import hashlib
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import pccu.cli as cli
from pccu import driver, output, ysweep
from pccu.catalog import make_config
from pccu.errors import AdmissibilityError, ReconstructionError
from pccu.grid import Field, Grid, BoundaryCondition
from pccu.multifluid import Multifluid, conservative_state
from pccu.trsw import ThermalShallowWater

pytestmark = pytest.mark.skipif(
    ysweep._usable_cpus() < 2, reason="the helper needs two CPUs and Linux")

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fingerprint(report):
    return ([hashlib.sha256(np.ascontiguousarray(s).tobytes()).hexdigest()
             for s in report.states],
            report.steps, report.slope_drops, report.stage_recomputes,
            report.conservation)


def _serial(monkeypatch):
    """Keep driver.run's 2-D runs off the helper."""
    monkeypatch.setattr(driver, "_y_helper",
                        lambda config, geoms: contextlib.nullcontext())


def _run_both(monkeypatch, config_of):
    """Fingerprints of the serial run and of the helper run."""
    with monkeypatch.context() as patch:
        _serial(patch)
        serial = _fingerprint(driver.run(config_of()))
    return [serial, _fingerprint(driver.run(config_of()))]


def _alive(pid):
    """Whether pid names a process that has not exited (zombies have)."""
    try:
        with open("/proc/%d/stat" % pid, encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in "ZX"


def _wait_gone(pid, seconds):
    deadline = time.monotonic() + seconds
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return not _alive(pid)


CASES = [("ex4", dict(nx=192, ny=48, t_final=0.03)),
         ("ex8", dict(nx=80, ny=80, t_final=0.015)),
         ("ex10", dict(nx=150, ny=38, t_final=1.2)),
         # theta = 2 drops slopes in both sweeps: 4982 cells under pccu
         # and 3942 under lcd on this build
         ("ex5", dict(nx=100, ny=60, theta=2.0))]


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
@pytest.mark.parametrize("name, overrides", CASES, ids=[c[0] for c in CASES])
def test_helper_is_bitwise_equal_to_serial(name, overrides, scheme,
                                           monkeypatch):
    serial, helped = _run_both(monkeypatch, lambda: make_config(
        name, scheme=scheme, snapshots=(), **overrides))
    assert helped == serial
    assert ysweep._helper.usable()
    if name == "ex5":
        assert serial[2] > 1000


def _stage_fixture(scheme):
    """An ex5 field at its initial state, and its config."""
    config = make_config("ex5", scheme=scheme, nx=100, ny=60, theta=2.0,
                         snapshots=())
    fld = Field(config.grid, config.model.d)
    fld.interior[...] = driver.init_from_function(
        config.grid, config.model.d, config.ic).interior
    return config, fld


def _geom_y(config):
    return driver.line_geometry(config.model, config.grid, config.bc, "y")


def _rhs(config, fld, robust, helper):
    stats = {"slope_drops": 0}
    tendency, sx, sy = driver.spatial_rhs(
        fld, config.model, config.bc, config.scheme, config.theta,
        config.eps0, robust, stats, helper)
    return tendency.tobytes(), sx, sy, stats


def test_robust_mask_stage_matches_serial():
    # the lcd stage-recompute path: the robust flux around flagged cells
    config, fld = _stage_fixture("lcd")
    robust = np.random.default_rng(7).random(fld.interior.shape[:2]) < 0.05
    serial = _rhs(config, fld, robust, None)
    with ysweep.claim(config, _geom_y(config)) as helper:
        assert helper is not None
        assert _rhs(config, fld, robust, helper) == serial
        # the next stage without a mask must not see this one's
        assert _rhs(config, fld, None, helper) == _rhs(config, fld, None,
                                                       None)


def test_source_geometry_is_formed_once_per_run_and_direction(monkeypatch,
                                                              tmp_path):
    # every call, in whichever process, appends that process's pid
    log = tmp_path / "calls"
    log.touch()
    original = ThermalShallowWater.source_geometry

    def counted(self, geom):
        with open(log, "a", encoding="ascii") as fh:
            fh.write("%d\n" % os.getpid())
        return original(self, geom)

    monkeypatch.setattr(ThermalShallowWater, "source_geometry", counted)
    monkeypatch.setattr(ysweep, "_helper", None)    # fork one that counts
    try:
        report = driver.run(make_config("ex8", nx=20, ny=20, t_final=0.02,
                                        snapshots=()))
        assert ysweep._helper.usable()
    finally:
        if ysweep._helper is not None:
            ysweep._helper.close()
    assert report.steps >= 3
    assert log.read_text().split() == [str(os.getpid())] * 2
    log.write_text("")
    report = driver.run(make_config("ex7", nx=50, t_final=0.03,
                                    snapshots=()))
    assert report.steps >= 3
    assert log.read_text().split() == [str(os.getpid())]


def test_x_error_wins_when_both_sweeps_fail():
    model = Multifluid(2)
    grid = Grid(0.0, 1.0, 40, 0.0, 1.0, 30)
    config = driver.RunConfig(model=model, grid=grid,
                              bc=BoundaryCondition("free", "free", "free",
                                                   "free"), ic=None)
    fld = Field(grid, model.d)
    fld.interior[...] = conservative_state(1.0, 0.5, -0.2, 1.0, 1.4, 0.0, 2)
    fld.interior[13, 24, 0] = -1.0        # out in both sweeps' lines
    with ysweep.claim(config, _geom_y(config)) as helper:
        with pytest.raises(AdmissibilityError) as info:
            driver.spatial_rhs(fld, model, config.bc, "pccu", 1.3, 1e-18,
                               helper=helper)
        assert info.value.direction == "x" and info.value.where == (13, 24)
        # the y reply was read: the next stage gets its own
        fld.interior[13, 24, 0] = 1.0
        assert helper.usable()
        good = _rhs(config, fld, None, helper)
    assert good == _rhs(config, fld, None, None)


@pytest.mark.parametrize("scheme", ["pccu", "lcd"])
def test_trsw_inadmissible_average_through_the_helper(scheme):
    # h = -1 with b = hb / h = 1 fails both sweeps' wave speeds; the
    # helper's error names the same cell as the serial one, and the x
    # one wins
    config = make_config("ex8", scheme=scheme, nx=10, ny=10, snapshots=())
    fld = Field(config.grid, config.model.d)
    fld.interior[...] = driver.init_from_function(
        config.grid, config.model.d, config.ic).interior
    fld.interior[3, 4] = [-1.0, 0.0, 0.0, -1.0]
    errors = []
    with ysweep.claim(config, _geom_y(config)) as helper:
        assert helper is not None
        for used in (None, helper):
            with pytest.raises(AdmissibilityError) as info:
                _rhs(config, fld, None, used)
            errors.append((str(info.value), info.value.where,
                           info.value.direction))
        assert helper.usable()
    assert errors[0] == errors[1]
    assert errors[0][1:] == ((3, 4), "x")
    assert str(fld.interior[3, 4].tolist()) in errors[0][0]


def test_located_errors_pickle_with_their_location():
    exc = ReconstructionError("no root", t=1.5, stage=2, where=(3, 4),
                              direction="y")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is ReconstructionError and str(back) == "no root"
    assert (back.t, back.stage, back.where, back.direction) == (
        1.5, 2, (3, 4), "y")


def _ex10_abort(capsys, out):
    code = cli.main(["run", "ex10", "--nx", "40", "--ny", "10",
                     "--tfinal", "2.5", "--snapshots", "1.0",
                     "--out", str(out)])
    return code, capsys.readouterr().err


def test_located_abort_through_the_helper(monkeypatch, capsys, tmp_path):
    with monkeypatch.context() as patch:
        _serial(patch)
        serial = _ex10_abort(capsys, tmp_path / "serial")
    helped = _ex10_abort(capsys, tmp_path / "helper")
    assert helped == serial
    assert helped[0] == 3
    assert "at U+ of face 0 on line 13 (t=1.94417, stage 2, sweep y)" \
        in helped[1]
    # the same helper serves the next run, in step
    pid = ysweep._helper.process.pid
    after = _run_both(monkeypatch, lambda: make_config(
        "ex8", nx=40, ny=40, t_final=0.01, snapshots=()))
    assert after[1] == after[0]
    assert ysweep._helper.process.pid == pid


def test_dead_helper_raises_and_the_next_run_forks_a_new_one(monkeypatch):
    config = lambda: make_config("ex8", nx=40, ny=40, t_final=0.01,
                                 snapshots=())
    expected = _run_both(monkeypatch, config)[0]
    original = ysweep.SweepHelper.start
    calls = []

    def start_after_killing(self, data, robust):
        calls.append(1)
        if len(calls) == 3:
            os.kill(self.process.pid, signal.SIGKILL)
            self.process.join(10)
        return original(self, data, robust)

    monkeypatch.setattr(ysweep.SweepHelper, "start", start_after_killing)
    old = ysweep._helper.process
    with pytest.raises(RuntimeError, match="ended unexpectedly"):
        driver.run(config())
    assert not old.is_alive()
    monkeypatch.setattr(ysweep.SweepHelper, "start", original)
    assert _fingerprint(driver.run(config())) == expected
    assert ysweep._helper.process.pid != old.pid


def _never(*args):
    raise AssertionError("the run used the helper")


def test_unpicklable_topography_runs_serially(monkeypatch):
    base = make_config("ex8", nx=40, ny=40, t_final=0.01, snapshots=())
    topo = base.model.topography
    direct = dataclasses.replace(base, model=ThermalShallowWater(
        2, topography=lambda x, y: topo(x, y), f0=base.model.f0,
        beta=base.model.beta))
    expected = _run_both(monkeypatch, lambda: base)[0]
    monkeypatch.setattr(ysweep.SweepHelper, "start", _never)
    assert _fingerprint(driver.run(direct)) == expected


def test_one_cpu_runs_serially(monkeypatch):
    config = lambda: make_config("ex4", nx=40, ny=20, t_final=0.01,
                                 snapshots=())
    expected = _run_both(monkeypatch, config)[0]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(ysweep.SweepHelper, "start", _never)
    assert _fingerprint(driver.run(config())) == expected


def _ex8_fingerprint():
    return _fingerprint(driver.run(make_config(
        "ex8", nx=40, ny=40, t_final=0.01, snapshots=())))


def test_pool_worker_runs_serially(monkeypatch):
    # a Pool's workers are daemonic, and daemonic processes may not fork
    expected = _run_both(monkeypatch, lambda: make_config(
        "ex8", nx=40, ny=40, t_final=0.01, snapshots=()))[0]
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(_ex8_fingerprint) == expected


def test_no_fork_while_other_threads_run(monkeypatch):
    config = lambda: make_config("ex4", nx=40, ny=20, t_final=0.01,
                                 snapshots=())
    with monkeypatch.context() as patch:
        _serial(patch)
        expected = _fingerprint(driver.run(config()))
    monkeypatch.setattr(ysweep, "_helper", None)
    monkeypatch.setattr(ysweep, "SweepHelper", _never)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert _fingerprint(driver.run(config())) == expected
    finally:
        stop.set()
        waiter.join(10)
    assert not waiter.is_alive()


# ---- CSV blocks of a finished run -------------------------------------------

def _ex8():
    return make_config("ex8", nx=40, ny=40, t_final=0.01, snapshots=())


def _table():
    """A 5-block table: the helper gets blocks 1 and 3."""
    rng = np.random.default_rng(11)
    values = rng.normal(size=(5000, 4))
    values[0] = [-0.0, 0.0, 5e-324, -5e-324]
    x, y = np.meshgrid(np.linspace(-1.0, 1.0, 100), np.linspace(0.0, 3.0, 50))
    return [x.ravel(), y.ravel()], values


def _serial_bytes(path, coords, values):
    with ysweep._helper_lock:       # held as by a run: no helper for it
        output._write_table(path, coords, values)
    return path.read_bytes()


def test_outputs_through_the_helper_match_serial(tmp_path, monkeypatch,
                                                 helper_replies):
    # 64x32 cells: two blocks per field CSV
    report = driver.run(make_config("ex4", nx=64, ny=32, t_final=0.003,
                                    snapshots=(0.0,)))
    pid = ysweep._helper.process.pid
    with ysweep._helper_lock:
        output.write_outputs(report, str(tmp_path / "serial"))
    output.write_outputs(report, str(tmp_path / "helper"))
    files = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert files == ["field_000.csv", "field_001.csv", "run.json",
                     "schlieren_000.pgm", "schlieren_001.pgm"]
    for name in files:
        assert ((tmp_path / "helper" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes())
    assert len(helper_replies) == 2 and None not in helper_replies
    assert ysweep._helper.usable() and ysweep._helper.process.pid == pid
    after = _run_both(monkeypatch, _ex8)
    assert after[1] == after[0]


def test_helper_killed_mid_table_leaves_the_whole_file(tmp_path,
                                                       monkeypatch):
    expected = _run_both(monkeypatch, _ex8)[0]
    coords, values = _table()
    serial = _serial_bytes(tmp_path / "serial.csv", coords, values)
    old = ysweep._helper.process
    original = ysweep.SweepHelper.format_block
    sent = []

    def kill_before_the_second(self, *block):
        sent.append(1)
        if len(sent) == 2:
            os.kill(self.process.pid, signal.SIGKILL)
            self.process.join(10)
        return original(self, *block)

    monkeypatch.setattr(ysweep.SweepHelper, "format_block",
                        kill_before_the_second)
    output._write_table(tmp_path / "helper.csv", coords, values)
    assert (tmp_path / "helper.csv").read_bytes() == serial
    assert len(sent) == 2 and not old.is_alive()
    assert _fingerprint(driver.run(_ex8())) == expected
    assert ysweep._helper.process.pid != old.pid
    assert ysweep._helper.usable()


class _FullDisk:
    """A text file whose fourth write fails as on a full disk: the header,
    block 0 and the helper's block 1 are written, block 3 is with the
    helper."""

    def __init__(self, *args, **kwargs):
        self._fh = open(*args, **kwargs)
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes == 4:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._fh.write(text)


def test_write_error_mid_table_replaces_the_helper(tmp_path, monkeypatch):
    expected = _run_both(monkeypatch, _ex8)[0]
    coords, values = _table()
    old = ysweep._helper
    with monkeypatch.context() as patch:
        patch.setattr(output, "open", _FullDisk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            output._write_table(tmp_path / "t.csv", coords, values)
    # block 3's reply is unread: the next run must not take it for its
    # first stage's
    assert not old.usable()
    assert _fingerprint(driver.run(_ex8())) == expected
    assert ysweep._helper is not old and ysweep._helper.usable()


# ---- the helper's lifetime ------------------------------------------------

CHILD = textwrap.dedent("""
    import sys
    sys.path.insert(0, {src!r})
    from pccu import driver, ysweep
    from pccu.catalog import make_config
    driver.run(make_config("ex8", nx=24, ny=24, t_final=0.01, snapshots=()))
    print(ysweep._helper.process.pid, flush=True)
    if {long!r}:
        driver.run(make_config("ex8", nx=80, ny=80, t_final=100.0,
                               snapshots=()))
""")


def _child(long):
    return subprocess.Popen(
        [sys.executable, "-c", CHILD.format(src=SRC, long=long)],
        stdout=subprocess.PIPE, text=True)


def test_helper_ends_with_its_process():
    with _child(long=False) as proc:
        pid = int(proc.stdout.readline())
        assert proc.wait(60) == 0
    assert _wait_gone(pid, 5)


def test_helper_ends_when_its_process_is_killed_mid_run():
    with _child(long=True) as proc:
        try:
            pid = int(proc.stdout.readline())
            time.sleep(0.5)             # into the long run
            assert _alive(pid)
        finally:
            proc.kill()
            proc.wait(10)
    assert _wait_gone(pid, 5)


ONE_D = textwrap.dedent("""
    import sys, tempfile
    sys.path.insert(0, {src!r})
    from pccu import driver, output
    from pccu.catalog import make_config
    # 2100 cells: a three-block table
    report = driver.run(make_config("ex1", nx=2100, t_final=0.0005,
                                    snapshots=(0.0,)))
    with tempfile.TemporaryDirectory() as out:
        output.write_outputs(report, out)
    print("pccu.ysweep" in sys.modules)
""")


def test_a_1d_process_never_loads_the_helper():
    done = subprocess.run([sys.executable, "-c", ONE_D.format(src=SRC)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n")
