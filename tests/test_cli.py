"""Command-line entry point: exit codes, outputs, config files."""

import json

import numpy as np
import pytest

import pccu.cli as cli
from pccu.errors import NumericalError


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
        raise NumericalError("state went non-finite", t=0.125, stage=2)

    monkeypatch.setattr(cli, "run", blow_up)
    code = cli.main(["run", "ex6", "--tfinal", "0.01",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "t=0.125" in err and "stage 2" in err


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
