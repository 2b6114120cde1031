"""The face hooks act elementwise over any leading axes.

The sweep evaluates model.eigenvalues and model.flux once on the stacked
(U-, U+) pair, (2, L, n+1, d) in the sweep's layout, instead of once per
side; that is bitwise equal only while every hook treats each state on
its own.
"""

import numpy as np
import pytest

from pccu.grid import sweep_empty
from pccu.multifluid import Multifluid
from pccu.trsw import ThermalShallowWater
from conftest import random_multifluid_states, random_trsw_states

CASES = [("mf-1d", "x"), ("mf-2d", "x"), ("mf-2d", "y"),
         ("trsw-1d", "x"), ("trsw-2d", "x"), ("trsw-2d", "y")]


def _model_and_states(rng, name, n):
    kind, dim = name.split("-")
    dimension = int(dim[0])
    if kind == "mf":
        return Multifluid(dimension), random_multifluid_states(rng, n,
                                                               dimension)
    return ThermalShallowWater(dimension), random_trsw_states(rng, n)


def _component_major(pair):
    """A (2, L, n, d) pair copied into the sweep's layout: each side
    (component, face, line) in memory."""
    out = sweep_empty(pair.shape[:1], pair.shape[1:])
    out[...] = pair
    return out


@pytest.mark.parametrize("layout", ["component-major", "C"])
@pytest.mark.parametrize("name, direction", CASES,
                         ids=["-".join(c) for c in CASES])
def test_hooks_on_the_pair_equal_hooks_per_side(rng, name, direction,
                                                layout):
    model, states = _model_and_states(rng, name, 2 * 3 * 40)
    pair = states.reshape(2, 3, 40, model.d)
    if layout == "component-major":
        pair = _component_major(pair)
    lam = model.eigenvalues(pair, direction)
    flux = model.flux(pair, direction)
    assert lam.shape == (2, 3, 40, 3)
    assert flux.shape == pair.shape
    for i in range(2):
        assert (lam[i].tobytes()
                == model.eigenvalues(pair[i], direction).tobytes())
        assert flux[i].tobytes() == model.flux(pair[i], direction).tobytes()


@pytest.mark.parametrize("name, direction", CASES,
                         ids=["-".join(c) for c in CASES])
def test_hooks_take_a_single_state(rng, name, direction):
    model, states = _model_and_states(rng, name, 1)
    state = states[0]
    lam = model.eigenvalues(state, direction)
    flux = model.flux(state, direction)
    assert lam.shape == (3,) and flux.shape == (model.d,)
    assert lam.tobytes() == model.eigenvalues(states, direction)[0].tobytes()
    assert flux.tobytes() == model.flux(states, direction)[0].tobytes()
