"""The benchmark's workloads: which runs each one makes, and their checks.

A workload is a fixed list of legs; a leg is one catalog problem (or the
lake at rest) under one flux variant.  Every problem runs under both
``pccu`` and ``lcd``, so the two per-variant cost metrics see the same
problems.  The seed perturbs the limiter parameter and the final time
slightly (see perturbation); every check holds for any seed.

Leg builders receive the imported ``pccu`` package and look the config
factories up on it at call time, so the tracer's wrappers see the calls.
"""

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck

WORKLOADS = ("mf1d", "mf2d", "trsw2d")
SCHEMES = ("pccu", "lcd")
DEFAULT_SEED = 1

# ---- setup constants, restated from the published problem definitions -----

# ex1: pre-shock air at rest, post-shock state to the right of x = 0.75.
EX1_RHO_PRE = 1.0
EX1_RHO_POST, EX1_U_POST = 1.3333, -0.3535
EX1_SHOCK_X0 = 0.75
# Mass Rankine-Hugoniot condition s (rho1 - rho0) = rho1 u1 - rho0 u0.
EX1_SHOCK_SPEED = EX1_RHO_POST * EX1_U_POST / (EX1_RHO_POST - EX1_RHO_PRE)
# The shock reaches the bubble (right edge x = 0.25) at t = 0.354.
EX1_SHOCK_FREE_UNTIL = (0.25 - EX1_SHOCK_X0) / EX1_SHOCK_SPEED

# ex4: post-shock air entering through the free right boundary x = 1.
EX4_RHO1, EX4_U1, EX4_P1, EX4_GAMMA1 = 4.0 / 3.0, -0.3535, 1.5, 1.4
EX4_HEIGHT = 1.0
EX4_MASS_RATE = EX4_RHO1 * -EX4_U1 * EX4_HEIGHT
EX4_ENERGY_RATE = (EX4_P1 / (EX4_GAMMA1 - 1.0) + 0.5 * EX4_RHO1 * EX4_U1 ** 2
                   + EX4_P1) * -EX4_U1 * EX4_HEIGHT

# Lake at rest over the two Gaussian bumps (bottom peaks 0.5 and 0.6).
LAKE = {
    "model": "trsw", "dimension": 2, "domain": [-1.0, 1.0, -1.0, 1.0],
    "nx": 40, "ny": 40, "t_final": 0.05, "snapshots": [0.0], "bc": "free",
    "topography": "two_gaussians_2d", "label": "lake_at_rest",
    "ic": {"regions": [{"state": {"surface": 2.0, "u": 0.0, "v": 0.0,
                                  "b": 1.0}}]},
}

# ---- tolerances ------------------------------------------------------------------

CONSERVATION_TOL = 1e-11      # relative drift of a conserved total
SYMMETRY_TOL = 1e-11          # mirror defect relative to the field's scale
BUDGET_TOL = 1e-8             # relative error of the boundary-flux budget
SHOCK_TOL_CELLS = 2.0         # shock position error, in cells
ROUNDOFF_MOMENTUM = 1e-10     # |h u|, |h v| of a state that should stay at rest


@dataclass(frozen=True)
class Leg:
    problem: str
    scheme: str
    build: Callable            # pccu package -> RunConfig
    check: Callable            # LegResult -> list of Check
    known_fault: bool = False
    figures: Callable = None   # LegResult -> {name: value}, printed only

    @property
    def tag(self):
        return "%s-%s" % (self.problem, self.scheme)


@dataclass
class LegResult:
    leg: Leg
    config: object
    report: object             # None when the solve raised
    output_s: float
    out_dir: str
    probe_s: float             # mean speed-probe time before and after solve


def run_round(pccu, legs, out_root, probe):
    """Every leg once: build, solve, write outputs.  A leg whose solve
    raises one of the solver's errors gets report None.  probe (see
    speed.py) is timed right before and right after each solve."""
    errors = (pccu.errors.ConfigError, pccu.errors.AdmissibilityError,
              pccu.errors.ReconstructionError, pccu.errors.NumericalError)
    results = []
    for leg in legs:
        cfg = leg.build(pccu)
        out_dir = str(out_root / leg.tag)
        before = probe()
        try:
            report = pccu.driver.run(cfg)
        except errors as exc:
            print("leg %s failed: %s: %s" % (leg.tag, type(exc).__name__, exc))
            results.append(LegResult(leg, cfg, None, 0.0, out_dir, before))
            continue
        probe_s = 0.5 * (before + probe())
        t0 = time.perf_counter()
        pccu.output.write_outputs(report, out_dir)
        results.append(LegResult(leg, cfg, report, time.perf_counter() - t0,
                                 out_dir, probe_s))
    return results


def _catalog(name, scheme, **overrides):
    return lambda pccu: pccu.catalog.make_config(name, scheme=scheme,
                                                 **overrides)


def _lake(scheme):
    return lambda pccu: pccu.catalog.config_from_dict(LAKE, scheme=scheme)


# ---- per-problem checks -----------------------------------------------------------

def check_ex1(res):
    tag, grid = res.leg.tag, res.config.grid
    states, times = res.report.states, res.report.times
    out = [ck.at_most("%s.drift_%s" % (tag, name),
                      ck.relative_drift(states[0], states[-1], c),
                      CONSERVATION_TOL)
           for name, c in (("rho", 0), ("E", 2))]
    x = grid.x_centers()
    for t, state in zip(times, states):
        if 0.0 < t < EX1_SHOCK_FREE_UNTIL:
            exact = EX1_SHOCK_X0 + EX1_SHOCK_SPEED * t
            found = ck.shock_position(x, state[:, 0], 0.25, 1.0,
                                      EX1_RHO_PRE, EX1_RHO_POST)
            out.append(ck.at_most("%s.shock_error_cells_t%.4f" % (tag, t),
                                  abs(found - exact) / grid.dx,
                                  SHOCK_TOL_CELLS))
    for state in states:
        out += ck.multifluid_admissible(tag, state, 1)
    return out + ck.csv_checks(tag, res.out_dir, states)


def check_ex4(res):
    tag, grid = res.leg.tag, res.config.grid
    states, times = res.report.states, res.report.times
    area = grid.dx * grid.dy
    out = []
    for t, state in zip(times[1:], states[1:]):
        for name, c, rate in (("mass", 0, EX4_MASS_RATE),
                              ("energy", 3, EX4_ENERGY_RATE)):
            gained = (state[..., c].sum() - states[0][..., c].sum()) * area
            out.append(ck.at_most(
                "%s.%s_budget_error_t%.4f" % (tag, name, t),
                abs(gained - rate * t) / (rate * t), BUDGET_TOL))
    for state in states:
        out += ck.multifluid_admissible(tag, state, 2)
    if res.leg.scheme == "pccu":
        out.append(ck.at_most(tag + ".mirror_defect",
                              ck.mirror_defect(states[-1], (0, 1, 3, 4, 5),
                                               (2,)),
                              SYMMETRY_TOL))
    return out + ck.csv_checks(tag, res.out_dir, states)


def figures_ex4(res):
    return {"mirror_defect": ck.mirror_defect(res.report.states[-1],
                                              (0, 1, 3, 4, 5), (2,))}


def _trsw_conservation(res):
    states = res.report.states
    return [ck.at_most("%s.drift_%s" % (res.leg.tag, name),
                       ck.relative_drift(states[0], states[-1], c),
                       CONSERVATION_TOL)
            for name, c in (("h", 0), ("hb", 3))]


def check_ex8(res):
    out = _trsw_conservation(res)
    for state in res.report.states:
        out += ck.trsw_admissible(res.leg.tag, state)
    return out + ck.csv_checks(res.leg.tag, res.out_dir, res.report.states)


def check_ex10(res):
    out = _trsw_conservation(res)
    out.append(ck.at_most(res.leg.tag + ".mirror_defect",
                          ck.mirror_defect(res.report.states[-1], (0, 1, 3),
                                           (2,)),
                          SYMMETRY_TOL))
    for state in res.report.states:
        out += ck.trsw_admissible(res.leg.tag, state)
    return out + ck.csv_checks(res.leg.tag, res.out_dir, res.report.states)


def check_lake(res):
    out = [ck.at_most(res.leg.tag + ".max_momentum",
                      ck.max_momentum(res.report.states[-1]),
                      ROUNDOFF_MOMENTUM)]
    for state in res.report.states:
        out += ck.trsw_admissible(res.leg.tag, state)
    return out + ck.csv_checks(res.leg.tag, res.out_dir, res.report.states)


# ---- workload make-up ---------------------------------------------------------------

def perturbation(seed):
    """(limiter theta in [1.2, 1.4], final-time factor in [0.999, 1.001]).

    Neither changes the work of a run by more than a step or two, so the
    seed moves the inputs without moving the timings.
    """
    rng = np.random.default_rng(seed)
    return float(rng.uniform(1.2, 1.4)), 1.0 + float(rng.uniform(-1e-3, 1e-3))


def legs(workload, seed):
    """The legs of a workload, in run order."""
    theta, stretch = perturbation(seed)
    if workload == "mf1d":
        t_end = 0.15 * stretch
        return [Leg("ex1", s, _catalog("ex1", s, nx=1000, theta=theta,
                                       t_final=t_end,
                                       snapshots=(0.0, 0.5 * t_end)),
                    check_ex1) for s in SCHEMES]
    if workload == "mf2d":
        t_end = 0.03 * stretch
        return [Leg("ex4", s, _catalog("ex4", s, nx=192, ny=48, theta=theta,
                                       t_final=t_end,
                                       snapshots=(0.0, 0.5 * t_end)),
                    check_ex4, figures=figures_ex4) for s in SCHEMES]
    if workload == "trsw2d":
        out = [Leg("ex8", s, _catalog("ex8", s, nx=80, ny=80, theta=theta,
                                      t_final=0.015 * stretch,
                                      snapshots=(0.0,)),
                   check_ex8) for s in SCHEMES]
        out += [Leg("ex10", s, _catalog("ex10", s, nx=150, ny=38, theta=theta,
                                        t_final=1.2 * stretch,
                                        snapshots=(0.0,)),
                    check_ex10) for s in SCHEMES]
        # Inputs of the known-fault leg do not depend on the seed.
        out += [Leg("lake", s, _lake(s), check_lake, known_fault=True)
                for s in SCHEMES]
        return out
    raise ValueError("unknown workload %r (choose from %s)"
                     % (workload, ", ".join(WORKLOADS)))
