"""The benchmark's tracer must find every solver function it wraps.

bench/tracer.py lists in TRACED the (span name, owner path, attribute) of
every function it wraps on the pccu package.  A refactor that renames or
drops one of them breaks ``bench/run.py --trace``; this test reads the
list without importing the harness and checks each entry resolves.
"""

import ast
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


@pytest.mark.parametrize("name, path, attr", TRACED,
                         ids=[name for name, _, _ in TRACED])
def test_traced_function_resolves_on_the_package(name, path, attr):
    owner = pccu
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr))
    if isinstance(owner, type):
        # the tracer saves and restores the class's own attribute
        assert attr in vars(owner)
