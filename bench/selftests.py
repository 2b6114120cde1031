"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftests.py

* the span recorder's self-time arithmetic on synthetic nested calls with a
  scripted clock, and that instrumenting the solver changes no result;
* every correctness check passes on real solver output (the pccu legs of
  each workload at the default seed) and rejects a deliberately perturbed
  copy of it, so no check that cannot fail ships.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench_run          # noqa: E402
import workloads                 # noqa: E402
from speed import SpeedProbe     # noqa: E402
from tracer import (Instrumentation, SpanRecorder, TRACED,  # noqa: E402
                    array_bytes, resolve)


# ---- span recorder ------------------------------------------------------------

def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 8.0, 11.0, 20.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    leaf = rec.wrap("leaf", lambda a: a)
    inner = rec.wrap("inner", lambda a: (leaf(a), leaf(a)))
    outer = rec.wrap("outer", lambda a: inner(a))
    arr = np.zeros(10)                       # 80 bytes
    outer(arr)

    totals = rec.totals()
    # outer [0, 20] holds inner [1, 11], which holds leaves [3, 4], [6, 8].
    assert totals["outer"] == {"calls": 1, "self_s": 10.0, "bytes": 80 + 160}
    assert totals["inner"] == {"calls": 1, "self_s": 7.0, "bytes": 80 + 160}
    assert totals["leaf"] == {"calls": 2, "self_s": 3.0, "bytes": 4 * 80}
    assert rec.root_seconds() == 20.0
    assert sum(v["self_s"] for v in totals.values()) == rec.root_seconds()
    assert rec.parents == [-1, 0, 1, 1]


def test_span_closed_on_exception():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")
    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.totals()["boom"]["calls"] == 1
    assert not rec._stack


def test_array_bytes_counts_containers():
    a = np.zeros((3, 4))
    field = type("F", (), {"data": np.zeros(5)})()
    report = type("R", (), {"states": [a, a]})()
    assert array_bytes((a, [a, 1.0], "s")) == 2 * 96
    assert array_bytes(field) == 40
    assert array_bytes(report) == 2 * 96


def test_instrumentation_restores_and_changes_no_result(tmp_path):
    pccu, _ = bench_run.import_pccu()
    before = {(path, attr): vars(resolve(pccu, path))[attr]
              for _, path, attr in TRACED}
    leg = workloads.Leg("ex1", "lcd", workloads._catalog(
        "ex1", "lcd", nx=60, t_final=0.05), workloads.check_ex1)
    plain = workloads.run_round(pccu, [leg], tmp_path, SpeedProbe())
    rec = SpanRecorder()
    with Instrumentation(pccu, rec):
        assert pccu.driver.spatial_rhs is not before[("driver", "spatial_rhs")]
        traced = workloads.run_round(pccu, [leg], tmp_path, SpeedProbe())
    after = {(path, attr): vars(resolve(pccu, path))[attr]
             for _, path, attr in TRACED}
    assert all(after[k] is before[k] for k in before)
    assert bench_run.bit_identical(plain, traced) == []
    names = set(rec.totals())
    assert {"driver.run", "driver.spatial_rhs", "multifluid.lcd_matrices",
            "timestepping.stage_check", "output.write_outputs"} <= names


# ---- correctness checks ---------------------------------------------------------

def _pccu_results(workload, tmp_path_factory):
    pccu, _ = bench_run.import_pccu()
    legs = [leg for leg in workloads.legs(workload, workloads.DEFAULT_SEED)
            if leg.scheme == "pccu"]
    out = tmp_path_factory.mktemp(workload)
    return {res.leg.problem: res
            for res in workloads.run_round(pccu, legs, out, SpeedProbe())}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = {}
    for workload in workloads.WORKLOADS:
        out.update(_pccu_results(workload, tmp_path_factory))
    return out


def _failing(res):
    return {c.name.split(".", 1)[1] for c in res.leg.check(res) if not c.ok}


def _with_final(res, change):
    """Copy of res whose final state went through change(state copy)."""
    states = [s.copy() for s in res.report.states]
    change(states[-1])
    return dataclasses.replace(
        res, report=dataclasses.replace(res.report, states=states))


@pytest.mark.parametrize("problem", ["ex1", "ex4", "ex8", "ex10"])
def test_checks_pass_on_solver_output(results, problem):
    assert _failing(results[problem]) == set()


def test_lake_at_rest_leg_shows_the_known_fault(results):
    assert _failing(results["lake"]) == {"max_momentum"}
    at_rest = _with_final(results["lake"], lambda s: s.__setitem__(
        (Ellipsis, slice(1, 3)), 0.0))
    assert not [n for n in _failing(at_rest) if n == "max_momentum"]


def _bump(comp, amount, where=(5, 7)):
    def change(state):
        state[where + (comp,)] += amount
    return change


@pytest.mark.parametrize("problem, change, expected", [
    ("ex1", _bump(0, 1e-6, (500,)), "drift_rho"),
    ("ex1", _bump(2, 1e-6, (500,)), "drift_E"),
    ("ex1", lambda s: s.__setitem__(slice(None), np.roll(s, 4, axis=0)),
     "shock_error_cells_t%.4f"),
    ("ex1", _bump(0, -5.0, (10,)), "min_rho"),
    ("ex1", _bump(2, -5.0, (10,)), "min_p_plus_pi_inf"),
    ("ex4", _bump(0, 1e-3), "mass_budget_error_t%.4f"),
    ("ex4", _bump(3, 1e-3), "energy_budget_error_t%.4f"),
    ("ex4", _bump(2, 1e-9), "mirror_defect"),
    ("ex4", _bump(0, -5.0), "min_rho"),
    ("ex4", _bump(3, -5.0), "min_p_plus_pi_inf"),
    ("ex8", _bump(0, 1e-5), "drift_h"),
    ("ex8", _bump(3, 1e-5), "drift_hb"),
    ("ex8", _bump(0, -5.0), "min_h"),
    ("ex8", _bump(3, -100.0), "min_hb"),
    ("ex10", _bump(2, 1e-9), "mirror_defect"),
    ("ex10", lambda s: s.__setitem__((Ellipsis, 2), np.abs(s[..., 2])),
     "mirror_defect"),
    ("ex10", _bump(0, 1e-6), "drift_h"),
    ("ex10", _bump(3, 1e-6), "drift_hb"),
    ("ex10", _bump(0, -5.0), "min_h"),
    ("ex10", _bump(3, -5.0), "min_hb"),
])
def test_check_rejects_perturbed_state(results, problem, change, expected):
    res = results[problem]
    if "%" in expected:
        expected = expected % res.report.times[-1]
    assert expected in _failing(_with_final(res, change))


def test_csv_check_rejects_changed_file(results):
    res = results["ex4"]
    path = Path(res.out_dir) / "field_001.csv"
    lines = path.read_text().splitlines()
    cells = lines[7].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-15))    # density
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert "field_001.csv_roundtrip_mismatches" in _failing(res)
    path.unlink()
    assert "field_001.csv_roundtrip_mismatches" in _failing(res)
