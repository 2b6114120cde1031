"""Command-line entry point: exit codes, outputs, config files."""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pccu.cli as cli
import pccu.driver as driver
from pccu.catalog import EXAMPLES, config_from_dict, make_config, \
    piecewise_multifluid_ic, piecewise_trsw_ic
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
    for flags in (["--theta", "9"], ["--nx", "0"], ["--ny", "7"]):
        assert cli.main(["run", "ex6"] + flags) == 2, flags
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("nx", [10**15, 2**62], ids=["memory", "too-big"])
def test_grid_too_large_to_allocate_exits_2(nx, capsys, tmp_path):
    # numpy refuses both at once, with MemoryError and with ValueError
    code = cli.main(["run", "ex6", "--nx", str(nx), "--tfinal", "0.001",
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"field of {nx} cells" in capsys.readouterr().err


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


def test_collapsed_time_step_exits_3(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(driver, "cfl_dt", lambda *args: 1e-300)
    code = cli.main(["run", "ex6", "--nx", "40", "--tfinal", "0.01",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: time step collapsed" in err and "t=0" in err


def test_unknown_example_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown example 'ex99'"):
        make_config("ex99")


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


def test_default_out_strips_only_a_trailing_json(tmp_path, capsys):
    folder = tmp_path / "old.json.d"
    folder.mkdir()
    path = folder / "case.json"
    path.write_text(json.dumps({
        "model": "trsw", "dimension": 1, "domain": [-5.0, 5.0], "nx": 20,
        "t_final": 0.001, "ic": "ex6"}))
    assert cli.main(["run", str(path)]) == 0
    assert (folder / "case_out" / "run.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json.d"]
    assert str(folder / "case_out") in capsys.readouterr().out


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


@pytest.mark.parametrize("compare", [[], ["--compare"]],
                         ids=["single", "compare"])
@pytest.mark.parametrize("below", [False, True],
                         ids=["existing-file", "below-a-file"])
def test_unusable_out_exits_2_before_running(below, compare, monkeypatch,
                                             tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")

    def must_not_run(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", must_not_run)
    out = blocker / "o" if below else blocker
    code = cli.main(["run", "ex6", "--nx", "8", "--tfinal", "0.001",
                     "--out", str(out)] + compare)
    assert code == 2
    assert "cannot create output directory" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"


def test_inversion_failure_names_the_time(tmp_path, capsys):
    # on this coarse grid ex10 meets an interface with no positive
    # thickness root near t=1.9, in the y-sweep; the message must say
    # when, in which RK stage and sweep, and at which face
    code = cli.main(["run", "ex10", "--nx", "40", "--ny", "10",
                     "--tfinal", "2.5", "--snapshots", "1.0",
                     "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "below critical" in err and "t=" in err
    assert "psi_min=" in err
    assert "t=1.94417" in err and "sweep y" in err
    assert re.search(r"stage [123]", err)
    # and where: the state, the face along the sweep and the line.  Its
    # mirror image about y = 0, U- of face 10 on this line, is as bad to
    # rounding; the last bits of the run pick which of the two is named.
    assert "at U+ of face 0 on line 13" in err


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


def _kind_list(config):
    config["ic"]["regions"][0]["where"]["kind"] = []


def _misspelled_state_key(config):
    config["ic"]["regions"][1]["state"]["bb"] = 4.0


def _extra_where_key(config):
    config["ic"]["regions"][0]["where"]["radius"] = 1.0


def _gas_v_in_1d(config):
    # a valid 1-D multifluid config but for v, which only a 2-D gas has
    config["model"] = "multifluid"
    for region in config["ic"]["regions"]:
        region["state"] = {"rho": 1.0, "v": 5.0, "p": 1.0, "gamma": 1.4}


def _state_not_an_object(config):
    config["ic"]["regions"][1]["state"] = 2.0


def _two_d(**keys):
    """The same dam break on a 2-D grid, spoiled by keys."""
    def spoil(config):
        config.update(dimension=2, domain=[-1.0, 1.0, -1.0, 1.0], ny=40)
        config.update(keys)
    return spoil


def _gas_with(**keys):
    """A valid 1-D multifluid config but for keys, which only trsw takes."""
    def spoil(config):
        config.update(model="multifluid", **keys)
        for region in config["ic"]["regions"]:
            region["state"] = {"rho": 1.0, "p": 1.0, "gamma": 1.4}
    return spoil


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
    lambda config: config.update(outputs=5),
    lambda config: config.update(outputs=[[]]),
    lambda config: config.update(topography=[]),
    lambda config: config.update(topography={}),
    _kind_list,
    lambda config: config.update(nx=1e400),
    lambda config: config.update(t_final=math.nan),
    lambda config: config.update(t_final=math.inf),
    lambda config: config.update(eps0=math.nan),
    lambda config: config["ic"]["regions"][0].update(where=None),
    lambda config: config.update(tfinal=0.5),
    _misspelled_state_key,
    _extra_where_key,
    lambda config: config.update(bc={"lft": "periodic"}),
    lambda config: config.update(ny=7),
    _gas_v_in_1d,
    lambda config: config.update(outputs=["csv", "csv"]),
    lambda config: config.update(label=5),
    lambda config: config.update(label=None),
    lambda config: config.update(note=[1]),
    lambda config: config.update(topography=None),
    lambda config: config.update(refine=0),
    _gas_with(topography="two_bumps_1d"),
    _gas_with(f0=1.0),
    lambda config: config.update(domain=[1.0, -1.0]),
    lambda config: config.update(bc={"left": "periodic"}),
    lambda config: config.update(snapshots=[0.02]),
    lambda config: config.update(f0=1.0),
    lambda config: config.update(beta=0.5),
    lambda config: config["ic"].update(regions=[]),
    _state_not_an_object,
    lambda config: config.update(topography="bumps"),
    lambda config: config.update(model="euler"),
    _two_d(ny=3),
    _two_d(domain=[-1.0, 1.0, 1.0, -1.0]),
], ids=["region_without_b", "schlieren_in_1d", "dimension_x",
        "unknown_output", "text_b", "ny_x", "snapshots_abc", "bc_5",
        "halfplane_axis_z", "outputs_5", "outputs_nested_list",
        "topography_list", "topography_dict", "region_kind_list",
        "nx_1e400", "t_final_nan", "t_final_inf", "eps0_nan",
        "region_where_null", "tfinal", "misspelled_state_key",
        "extra_where_key", "bc_unknown_side", "ny_in_1d", "gas_v_in_1d",
        "outputs_repeated", "label_number", "label_null", "note_list",
        "topography_null", "refine_0",
        "multifluid_topography", "multifluid_f0", "domain_reversed",
        "bc_periodic_one_side", "snapshot_after_t_final", "trsw_f0_in_1d",
        "trsw_beta_in_1d", "regions_empty", "state_not_an_object",
        "topography_unknown", "model_unknown", "ny_3_in_2d",
        "y_domain_reversed"])
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


@pytest.mark.parametrize("key", ["model", "scheme", "label", "topography",
                                 "note", "outputs"])
def test_text_keys_take_only_strings(key):
    # not str() of any JSON value: 5 is no label "5" and no scheme "5"
    value = [5] if key == "outputs" else 5
    with pytest.raises(ConfigError, match="expected a string, got 5"):
        config_from_dict({**_TINY_DAM, key: value})


@pytest.mark.parametrize("text", ['{"model": "trsw",', '[1, 2]'],
                         ids=["not_json", "json_list"])
def test_config_file_that_is_not_an_object_exits_2(text, monkeypatch,
                                                   tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    monkeypatch.setattr(cli, "run", None)        # never reached
    assert cli.main(["run", str(path)]) == 2
    assert "configuration error:" in capsys.readouterr().err


class _Reached(Exception):
    """Raised by the stubbed run once the config has passed validation."""


def _validate_and_stop(config):
    config.validate()
    raise _Reached


# Any JSON value: what a config file can put under a key.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
    | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)

# (where in _TINY_DAM, key): present keys, optional ones and one unknown
# key at the top and in the state
_SLOTS = ([("top", k) for k in ("model", "dimension", "domain", "nx", "ny",
                                "t_final", "snapshots", "theta", "cfl",
                                "eps0", "f0", "beta", "refine", "scheme",
                                "label", "bc", "topography", "outputs",
                                "ic", "note", "tfinal")]
          + [("state", k) for k in ("h", "b", "u", "v", "surface", "bb")]
          + [("where", k) for k in ("kind", "axis", "op", "value",
                                    "center", "radius")])


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@settings(max_examples=200, deadline=None)
@given(slot=st.sampled_from(_SLOTS), value=_JSON)
def test_any_json_value_exits_2_or_passes_validation(slot, value,
                                                     config_dir):
    config = json.loads(json.dumps(_TINY_DAM))
    where, key = slot
    {"top": config,
     "state": config["ic"]["regions"][1]["state"],
     "where": config["ic"]["regions"][0]["where"]}[where][key] = value
    path = config_dir / "any.json"
    path.write_text(json.dumps(config))
    with mock.patch.object(cli, "run", _validate_and_stop):
        try:
            code = cli.main(["run", str(path)])
        except _Reached:
            return
    assert code == 2


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_catalog_entry_is_a_config_file(name):
    as_file = json.loads(json.dumps({**EXAMPLES[name], "label": name}))
    assert config_from_dict(as_file).echo == make_config(name).echo


def test_refine_is_a_config_key_that_the_flag_overrides(tmp_path):
    assert config_from_dict({**_TINY_DAM, "refine": 2}).grid.nx == 80
    path = tmp_path / "refined.json"
    path.write_text(json.dumps({**_TINY_DAM, "refine": 2}))
    seen = []

    def stop(config):
        seen.append(config)
        raise _Reached

    with mock.patch.object(cli, "run", stop), pytest.raises(_Reached):
        cli.main(["run", str(path), "--refine", "3"])
    assert seen[0].echo["refine"] == 3 and seen[0].grid.nx == 120


_GAS = {"rho": 1.0, "p": 1.0, "gamma": 1.4}
_LAYER = {"h": 1.0, "b": 1.0}


@pytest.mark.parametrize("build, state, required", [
    (lambda regions: piecewise_multifluid_ic(regions, 1), _GAS, "p"),
    (lambda regions: piecewise_trsw_ic(regions, 1), _LAYER, "h"),
], ids=["multifluid", "trsw"])
def test_piecewise_ic_called_directly_rejects_bad_regions(build, state,
                                                          required):
    # each is a ConfigError when the callable is built, before it is used
    half = {"kind": "halfplane", "axis": "x", "op": ">=", "value": 0.0}
    with pytest.raises(ConfigError, match="op"):
        build([{"where": half, "state": state}, {"state": state}])
    half["op"] = "<"
    with pytest.raises(ConfigError, match="only the last region"):
        build([{"where": half, "state": state}, {"state": state},
               {"where": half, "state": state}])
    with pytest.raises(ConfigError, match="axis"):     # a 1-D grid has no y
        build([{"where": {**half, "axis": "y"}, "state": state},
               {"state": state}])
    missing = {k: v for k, v in state.items() if k != required}
    with pytest.raises(ConfigError, match=repr(required)):
        build([{"state": missing}])
    with pytest.raises(ConfigError, match="not a number"):
        build([{"state": {**state, required: "1.0"}}])
    ic = build([{"where": half, "state": state}, {"state": state}])
    assert ic(np.linspace(-1.0, 1.0, 5)).shape[0] == 5
