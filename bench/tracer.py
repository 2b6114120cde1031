"""Outside-in span recorder for the pccu solver.

The recorder wraps public functions of the ``pccu`` modules at the
attributes the program looks them up through, so no solver source changes:

* names the driver imports with ``from .x import name`` are wrapped on
  ``pccu.driver`` (that is where ``run`` and ``spatial_rhs`` find them);
* ``invert_momentum_flux`` is wrapped on ``pccu.trsw``, where
  ``ThermalShallowWater.equilibrium_invert`` looks it up;
* model hooks are wrapped on the ``Multifluid`` and
  ``ThermalShallowWater`` classes;
* the entry points the benchmark itself calls (``driver.run``,
  ``catalog.make_config``, ``catalog.config_from_dict``,
  ``output.write_outputs``) are wrapped on their own modules.

Each call becomes one span (name, start, end, parent) kept in memory.  Per
name the recorder derives ``calls``, ``self_s`` (span duration minus the
time covered by its direct children) and ``bytes`` (total ``nbytes`` of
the array arguments and results, computed rather than measured).
"""

import functools
import json
import time

import numpy as np

# (span name, owner attribute path, attribute) for every wrapped function.
# The span name is ``<module>.<function>`` of the function's definition.
TRACED = (
    ("driver.run", "driver", "run"),
    ("driver.spatial_rhs", "driver", "spatial_rhs"),
    ("grid.fill_ghosts", "driver", "fill_ghosts"),
    ("grid.init_from_function", "driver", "init_from_function"),
    ("catalog.make_config", "catalog", "make_config"),
    ("catalog.config_from_dict", "catalog", "config_from_dict"),
    ("reconstruct.interface_values", "driver", "interface_values"),
    ("reconstruct.reconstruct_equilibrium", "driver", "reconstruct_equilibrium"),
    ("globalflux.interleave_jumps_cells", "driver", "interleave_jumps_cells"),
    ("globalflux.interleave_cell_halves", "driver", "interleave_cell_halves"),
    ("multifluid.flux", "multifluid.Multifluid", "flux"),
    ("multifluid.eigenvalues", "multifluid.Multifluid", "eigenvalues"),
    ("multifluid.noncons_increment", "multifluid.Multifluid",
     "noncons_increment"),
    ("multifluid.lcd_matrices", "multifluid.Multifluid", "lcd_matrices"),
    ("trsw.flux", "trsw.ThermalShallowWater", "flux"),
    ("trsw.eigenvalues", "trsw.ThermalShallowWater", "eigenvalues"),
    ("trsw.source_half_increments", "trsw.ThermalShallowWater",
     "source_half_increments"),
    ("trsw.equilibrium_values", "trsw.ThermalShallowWater",
     "equilibrium_values"),
    ("trsw.equilibrium_invert", "trsw.ThermalShallowWater",
     "equilibrium_invert"),
    ("trsw.invert_momentum_flux", "trsw", "invert_momentum_flux"),
    ("trsw.lcd_matrices", "trsw.ThermalShallowWater", "lcd_matrices"),
    ("fluxes.local_speeds", "driver", "local_speeds"),
    ("fluxes.split_weights", "driver", "split_weights"),
    ("fluxes.characteristic_flux", "driver", "characteristic_flux"),
    ("fluxes.central_upwind_flux", "driver", "central_upwind_flux"),
    ("timestepping.ssprk3_step", "driver", "ssprk3_step"),
    ("timestepping.cfl_dt", "driver", "cfl_dt"),
    ("output.write_outputs", "output", "write_outputs"),
)

# The stage check is a closure made per step by finite_stage_check; the
# factory on pccu.driver is replaced by one whose closures are wrapped.
STAGE_CHECK = "timestepping.stage_check"

SPAN_NAMES = tuple(name for name, _, _ in TRACED) + (STAGE_CHECK,)


def array_bytes(obj):
    """Total nbytes of the arrays in obj.

    Counts a bare ndarray, the arrays inside a tuple or list, a field's
    ``data`` array and a run report's stored ``states``.
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item) for item in obj)
    data = getattr(obj, "data", None)
    if isinstance(data, np.ndarray):
        return data.nbytes
    states = getattr(obj, "states", None)
    if isinstance(states, list):
        return array_bytes(states)
    return 0


class SpanRecorder:
    """Spans kept in parallel lists; index -1 as parent means a root span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.nbytes = []
        self._stack = []

    def clear(self):
        for seq in (self.names, self.starts, self.ends, self.parents,
                    self.nbytes, self._stack):
            seq.clear()

    def open(self, name, nbytes=0):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.nbytes.append(nbytes)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx):
        self.ends[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("span %r closed out of order" % self.names[idx])

    def wrap(self, name, fn):
        """fn with every call recorded as a span called name."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name, array_bytes(args)
                           + array_bytes(tuple(kwargs.values())))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            rec.nbytes[idx] += array_bytes(result)
            return result
        return traced

    def totals(self):
        """{name: {"calls", "self_s", "bytes"}} over all recorded spans."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "bytes": 0})
            entry["calls"] += 1
            entry["self_s"] += (self.ends[i] - self.starts[i]) - child[i]
            entry["bytes"] += self.nbytes[i]
        return out

    def dump(self, path):
        """Write the spans as JSON: one [name, start, end, parent] each."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump([list(span) for span in zip(
                self.names, self.starts, self.ends, self.parents)], fh)

    def root_seconds(self):
        """Summed duration of the root spans."""
        return sum(self.ends[i] - self.starts[i]
                   for i, parent in enumerate(self.parents) if parent < 0)


def resolve(pccu, path):
    """The object at a dotted attribute path below the pccu package."""
    obj = pccu
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Instrumentation:
    """Installs the wrappers of TRACED on an imported pccu package.

    Use as a context manager; leaving it restores every original attribute,
    so runs outside the block execute unwrapped code.
    """

    def __init__(self, pccu, recorder):
        self.pccu = pccu
        self.recorder = recorder
        self._saved = []

    def __enter__(self):
        rec = self.recorder
        for name, path, attr in TRACED:
            self._patch(resolve(self.pccu, path), attr,
                        lambda fn, name=name: rec.wrap(name, fn))
        self._patch(self.pccu.driver, "finite_stage_check",
                    lambda factory: functools.wraps(factory)(
                        lambda t: rec.wrap(STAGE_CHECK, factory(t))))
        return self

    def _patch(self, owner, attr, make):
        # Class attributes are read from __dict__ so that a plain function
        # is saved and restored, not a bound method.
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
