"""Command-line entry point: exit codes, outputs, config files."""

import json

import numpy as np
import pytest

import pccu.cli as cli
from pccu.catalog import piecewise_multifluid_ic, piecewise_trsw_ic
from pccu.errors import ConfigError, NumericalError


def test_list_names_all_examples(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("ex1", "ex2", "ex6", "ex7", "ex9", "ex10"):
        assert name in out


def test_unknown_target_exits_2(capsys):
    assert cli.main(["run", "ex99"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_override_exits_2(capsys):
    assert cli.main(["run", "ex6", "--theta", "9"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_snapshots_value_exits_2(capsys):
    assert cli.main(["run", "ex6", "--snapshots", "a,b"]) == 2


def test_numerical_failure_exits_3(monkeypatch, capsys, tmp_path):
    def blow_up(config):
        raise NumericalError("state went non-finite", t=0.125, stage=2,
                             where=(3, 4))

    monkeypatch.setattr(cli, "run", blow_up)
    code = cli.main(["run", "ex6", "--tfinal", "0.01",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "t=0.125" in err and "stage 2" in err and "cell (3, 4)" in err


def test_run_example_writes_outputs(tmp_path, capsys):
    out = tmp_path / "ex6run"
    code = cli.main(["run", "ex6", "--nx", "50", "--tfinal", "0.01",
                     "--out", str(out)])
    assert code == 0
    assert (out / "field_000.csv").exists()
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["config"]["nx"] == 50
    assert manifest["config"]["scheme"] == "pccu"
    assert "steps" in manifest["diagnostics"]


def test_run_config_file_with_inline_regions(tmp_path):
    config = {
        "label": "tiny-dam",
        "model": "trsw",
        "dimension": 1,
        "domain": [-1.0, 1.0],
        "nx": 40,
        "t_final": 0.01,
        "bc": "free",
        "ic": {"regions": [
            {"where": {"kind": "halfplane", "axis": "x",
                       "op": "<", "value": 0.0},
             "state": {"h": 2.0, "b": 1.0}},
            {"state": {"h": 1.0, "b": 4.0}},
        ]},
    }
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    data = np.loadtxt(out / "field_000.csv", delimiter=",", skiprows=1)
    assert data.shape == (40, 5)


def test_run_config_file_referencing_catalog_ic(tmp_path):
    config = {
        "model": "trsw",
        "dimension": 1,
        "domain": [-5.0, 5.0],
        "nx": 40,
        "t_final": 0.005,
        "ic": "ex6",
    }
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 0


def test_config_file_missing_keys_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"model": "trsw"}))
    assert cli.main(["run", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_compare_mode_writes_both_schemes_and_norms(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = cli.main(["run", "ex9", "--nx", "24", "--ny", "24",
                     "--tfinal", "0.01", "--out", str(out)] + ["--compare"])
    assert code == 0
    assert (out / "pccu" / "field_000.csv").exists()
    assert (out / "lcd" / "field_000.csv").exists()
    compare = json.loads((out / "compare.json").read_text())
    snaps = compare["snapshots"]
    assert len(snaps) >= 1
    assert all(len(s["l1"]) == 4 for s in snaps)


def test_inversion_failure_names_the_time(tmp_path, capsys):
    # on this coarse grid ex10 meets an interface with no positive
    # thickness root near t=1.9; the message must say when
    code = cli.main(["run", "ex10", "--nx", "40", "--ny", "10",
                     "--tfinal", "2.5", "--snapshots", "1.0",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "below critical" in err and "t=" in err
    assert "psi_min=" in err


_TINY_DAM = {
    "model": "trsw", "dimension": 1, "domain": [-1.0, 1.0], "nx": 40,
    "t_final": 0.01,
    "ic": {"regions": [
        {"where": {"kind": "halfplane", "axis": "x", "op": "<",
                   "value": 0.0},
         "state": {"h": 2.0, "b": 1.0}},
        {"state": {"h": 1.0, "b": 4.0}},
    ]},
}


def _without_b(config):
    del config["ic"]["regions"][1]["state"]["b"]


def _text_b(config):
    config["ic"]["regions"][1]["state"]["b"] = "x"


def _halfplane_axis_z(config):
    config["ic"]["regions"][0]["where"]["axis"] = "z"


@pytest.mark.parametrize("spoil", [
    _without_b,
    lambda config: config.update(outputs=["schlieren"]),
    lambda config: config.update(dimension="x"),
    lambda config: config.update(outputs=["csv", "vtk"]),
    _text_b,
    lambda config: config.update(ny="x"),
    lambda config: config.update(snapshots="abc"),
    lambda config: config.update(bc=5),
    _halfplane_axis_z,
], ids=["region_without_b", "schlieren_in_1d", "dimension_x",
        "unknown_output", "text_b", "ny_x", "snapshots_abc", "bc_5",
        "halfplane_axis_z"])
def test_malformed_config_exits_2_before_running(spoil, monkeypatch,
                                                 tmp_path, capsys):
    config = json.loads(json.dumps(_TINY_DAM))
    spoil(config)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))

    def must_not_run(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", must_not_run)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "configuration error:" in capsys.readouterr().err


_GAS = {"rho": 1.0, "p": 1.0, "gamma": 1.4}
_LAYER = {"h": 1.0, "b": 1.0}


@pytest.mark.parametrize("build, state", [
    (lambda regions: piecewise_multifluid_ic(regions, 1), _GAS),
    (lambda regions: piecewise_trsw_ic(regions), _LAYER),
], ids=["multifluid", "trsw"])
def test_piecewise_ic_called_directly_rejects_bad_regions(build, state):
    half = {"kind": "halfplane", "axis": "x", "op": ">=", "value": 0.0}
    ic = build([{"where": half, "state": state}, {"state": state}])
    with pytest.raises(ConfigError, match="op"):
        ic(np.linspace(-1.0, 1.0, 5))
    half["op"] = "<"
    with pytest.raises(ConfigError, match="only the last region"):
        build([{"where": half, "state": state}, {"state": state},
               {"where": half, "state": state}])
