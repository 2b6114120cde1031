"""Golden outputs: every catalog example under both schemes, short runs.

tests/golden.json stores, per leg, the SHA-256 of the final state bytes,
the per-component L1 norms of the final state, the step count, the two
repair counters and the SHA-256 of the config echo.  A refactor that is
meant to change no result must leave every entry equal.

The state hash is exact only for one numpy build on one CPU, so the file
also records the build that wrote it: numpy's version, the CPU
architecture and the SIMD features numpy dispatches on.  On that build
every hash must match.  On another one the norms are compared at 1e-12
relative instead of the hash.

Under REFERENCE the file also stores criterion 7's reference
(test_acceptance.py): ex1 at nx=3000 under pccu, its final density
averaged onto the nx=300 cells, at full precision.  The ex1/pccu hash
guards it: a scheme change fails that hash, and the one regeneration
refreshes both.

Regenerate with ``python tests/test_golden.py``, which prints the legs
whose entry changed and whether the reference moved, and only in a
change that says in CHANGES.md which entries moved and why.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from pccu.catalog import EXAMPLES, make_config
from pccu.driver import run

GOLDEN = Path(__file__).with_name("golden.json")
SCHEMES = ("pccu", "lcd")
NORM_RTOL = 1e-12
GRID_2D = 32
REFERENCE = "ex1_nx3000_density_means_300"

# Final times: a few steps each.  ex2 runs 65 steps, into the shock-bubble
# interaction; neither scheme needs a repair there (the lcd repairs are
# covered by test_ex2_lcd_reports_its_repairs at theta = 2).
T_FINAL = {"ex1": 0.05, "ex2": 0.008, "ex3": 0.02, "ex4": 0.04,
           "ex5": 0.002, "ex6": 0.05, "ex6p": 0.05, "ex7": 0.01,
           "ex8": 0.02, "ex9": 0.03, "ex10": 0.5}

LEGS = [(name, scheme) for name in sorted(EXAMPLES) for scheme in SCHEMES]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def leg_record(name, scheme):
    """The golden entry of one leg, computed by the code under test."""
    grid = {} if EXAMPLES[name]["dimension"] == 1 else dict(nx=GRID_2D,
                                                             ny=GRID_2D)
    config = make_config(name, scheme=scheme, t_final=T_FINAL[name],
                         snapshots=(), **grid)
    report = run(config)
    final = np.ascontiguousarray(report.states[-1], dtype=np.float64)
    cell = config.grid.dx * (config.grid.dy if config.grid.dimension == 2
                             else 1.0)
    comps = final.reshape(-1, final.shape[-1])
    return {
        "state_sha256": _sha256(final.tobytes()),
        "l1": [float(v) for v in cell * np.abs(comps).sum(axis=0)],
        "steps": report.steps,
        "slope_drops": report.slope_drops,
        "stage_recomputes": report.stage_recomputes,
        "echo_sha256": _sha256(json.dumps(config.echo, sort_keys=True)
                               .encode("utf-8")),
    }


def reference_means():
    """Criterion 7's reference, computed by the code under test."""
    ref = run(make_config("ex1", nx=3000, snapshots=())).states[-1][:, 0]
    return [float(v) for v in ref.reshape(300, 10).mean(axis=1)]


def build_signature():
    """What decides a run's bits besides the code and its inputs."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_features": sorted(k for k, on in __cpu_features__.items()
                                   if on)}


def _key(name, scheme):
    return f"{name}/{scheme}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_leg(golden):
    assert sorted(golden["legs"]) == sorted(_key(n, s) for n, s in LEGS)


@pytest.mark.parametrize("name, scheme", LEGS,
                         ids=[_key(n, s) for n, s in LEGS])
def test_golden_leg(name, scheme, golden):
    want = golden["legs"][_key(name, scheme)]
    got = leg_record(name, scheme)
    for key in ("steps", "slope_drops", "stage_recomputes", "echo_sha256"):
        assert got[key] == want[key], key
    if golden["build"] == build_signature():
        assert got["state_sha256"] == want["state_sha256"]
    else:
        np.testing.assert_allclose(got["l1"], want["l1"], rtol=NORM_RTOL,
                                   atol=0.0)


def main():
    """Rewrite the golden file and print the legs whose entry changed and
    whether the reference moved."""
    old = (json.loads(GOLDEN.read_text(encoding="utf-8"))
           if GOLDEN.exists() else {"legs": {}})
    legs = {_key(n, s): leg_record(n, s) for n, s in LEGS}
    golden = {"build": build_signature(), "legs": legs,
              REFERENCE: reference_means()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    changed = sorted(k for k in legs.keys() | old["legs"].keys()
                     if legs.get(k) != old["legs"].get(k))
    print(f"wrote {len(legs)} legs to {GOLDEN}")
    print("changed: " + (", ".join(changed) if changed else "none"))
    moved = golden[REFERENCE] != old.get(REFERENCE)
    print("reference: " + ("moved" if moved else "unchanged"))


if __name__ == "__main__":
    main()
