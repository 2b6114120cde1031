"""The benchmark must find every solver function it calls or wraps.

bench/tracer.py lists in TRACED the (span name, owner path, attribute) of
every function it wraps on the pccu package.  A refactor that renames or
drops one of them breaks ``bench/run.py --trace``; this test reads the
list without importing the harness and checks each entry resolves.  The
setup timing of bench/run.py and its workloads call a few more names,
which the last test checks by signature.  A name that resolves but that
the program no longer looks up there would read zero calls in a trace;
one test wraps every entry with a call counter and runs both models under
both schemes to show that each one is reached.
"""

import ast
import functools
import inspect
from pathlib import Path

import pytest

import pccu

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED")


TRACED = _traced()


def _owner(path):
    owner = pccu
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("name, path, attr", TRACED,
                         ids=[name for name, _, _ in TRACED])
def test_traced_function_resolves_on_the_package(name, path, attr):
    owner = _owner(path)
    assert callable(getattr(owner, attr))
    if isinstance(owner, type):
        # the tracer saves and restores the class's own attribute
        assert attr in vars(owner)


def test_untraced_names_the_benchmark_calls_resolve():
    # bench/run.py times config validation, the initial fill and the
    # initial-data check; bench/workloads.py builds catalog legs with
    # these overrides and catches the four error classes
    config = pccu.catalog.make_config("ex6", nx=8, t_final=0.01)
    inspect.signature(pccu.driver.RunConfig.validate).bind(config)
    fld = pccu.grid.init_from_function(config.grid, config.model.d, config.ic)
    for model, state in ((pccu.multifluid.Multifluid(1),
                          pccu.multifluid.conservative_state(
                              1.0, 0.0, 0.0, 1.0, 1.4, 0.0, 1)),
                         (pccu.trsw.ThermalShallowWater(1), fld.interior)):
        inspect.signature(model.validate).bind(state, "initial data")
        model.validate(state, "initial data")
    inspect.signature(pccu.grid.init_from_function).bind(
        config.grid, config.model.d, config.ic)
    inspect.signature(pccu.catalog.make_config).bind(
        "ex1", scheme="lcd", nx=10, ny=None, theta=1.5, t_final=0.1)
    for name in ("ConfigError", "AdmissibilityError", "ReconstructionError",
                 "NumericalError"):
        assert issubclass(getattr(pccu.errors, name), Exception)


def test_every_traced_function_is_called(monkeypatch, tmp_path):
    # wrapped by attribute, as the tracer does: a call that bypasses the
    # looked-up name (a module-qualified call, a local alias) counts none
    calls = dict.fromkeys((name for name, _, _ in TRACED), 0)

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, path, attr in TRACED:
        owner = _owner(path)
        original = (vars(owner)[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        monkeypatch.setattr(owner, attr, counted(name, original))
    for scheme in pccu.driver.SCHEMES:
        for example, grid in (("ex1", {"nx": 16, "t_final": 0.1}),
                              ("ex8", {"nx": 16, "ny": 16, "t_final": 0.02})):
            config = pccu.catalog.make_config(example, scheme=scheme, **grid)
            report = pccu.driver.run(config)
            assert report.steps >= 2
            pccu.output.write_outputs(report, str(tmp_path / example / scheme))
    assert [name for name, count in calls.items() if count == 0] == []
