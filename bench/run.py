"""Solver benchmark for pccu.

    python3 bench/run.py                      # all workloads, one process each
    python3 bench/run.py --workload mf2d --seed 3 --seconds 30 --trace 0

Run from anywhere; the solver is imported from ``src/`` of the checkout
that holds this file, so nothing needs installing.  A run repeats whole
rounds of its workload (every leg of bench/workloads.py once) until the
next round would end after ``--seconds``, with at least MIN_ROUNDS rounds,
checks every leg's output in every round, and reports per-leg medians over
rounds of timings scaled to a reference machine speed (see speed.py).

``--trace 0`` reports the end-to-end metrics; nothing is wrapped.
``--trace 1`` alternates untraced and traced rounds and reports per-layer
calls, self time and bytes of the traced rounds, plus the tracing overhead
(traced minus untraced wall_s); the spans of the last traced round are
written to .bench_out/spans-<workload>-<seed>.json.  A traced round whose final states are not
bit-identical to the untraced round before it fails the run's checks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means
the run completed; 2 means it could not start (no solver source found).
"""

import os

# One thread per process; BLAS libraries read these when numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse                                            # noqa: E402
import importlib                                           # noqa: E402
import json                                                # noqa: E402
import resource                                            # noqa: E402
import shutil                                              # noqa: E402
import statistics                                          # noqa: E402
import subprocess                                          # noqa: E402
import sys                                                 # noqa: E402
import time                                                # noqa: E402
from pathlib import Path                                   # noqa: E402

import checks                                              # noqa: E402
import workloads                                           # noqa: E402
from speed import SpeedProbe, scaled                       # noqa: E402
from tracer import Instrumentation, SpanRecorder, SPAN_NAMES  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3            # untraced rounds per --trace 0 run
MIN_PAIRS = 2             # untraced/traced round pairs per --trace 1 run
SETUP_REPEATS = 9         # set-up samples per run; setup_s is their median


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="mf1d, mf2d, trsw2d or all (default)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---- solver import and set-up ------------------------------------------------

def import_pccu():
    """Fresh import of pccu from SRC; returns (package, seconds)."""
    for name in [m for m in sys.modules if m == "pccu" or m.startswith("pccu.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    pccu = importlib.import_module("pccu")
    seconds = time.perf_counter() - t0
    if Path(pccu.__file__).resolve().parent != (SRC / "pccu").resolve():
        raise ImportError("pccu imported from %s, not %s" % (pccu.__file__, SRC))
    return pccu, seconds


def measure_setup(legs, probe):
    """Median over SETUP_REPEATS of: pccu import, then per leg config
    build, config validation, initial-data fill and initial validation,
    each sample scaled by speed probes taken just before and after it.
    Returns ((scaled, raw) median seconds, the last imported package)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        pccu, total = import_pccu()
        t0 = time.perf_counter()
        for leg in legs:
            cfg = leg.build(pccu)
            cfg.validate()
            fld = pccu.grid.init_from_function(cfg.grid, cfg.model.d, cfg.ic)
            cfg.model.validate(fld.interior, "initial data")
        total += time.perf_counter() - t0
        samples.append((total, 0.5 * (before + probe())))
    return (statistics.median(scaled(s, p) for s, p in samples),
            statistics.median(s for s, _ in samples)), pccu


# ---- rounds --------------------------------------------------------------------

def leg_times(results):
    """{leg tag: (scheme, solver-loop s, output s, cell-stages, probe s)}
    of a round; legs whose solve raised are left out."""
    out = {}
    for res in results:
        if res.report is not None:
            grid = res.config.grid
            cells = grid.nx * (grid.ny if grid.dimension == 2 else 1)
            out[res.leg.tag] = (res.leg.scheme, res.report.wall_time,
                                res.output_s, cells * res.report.steps * 3,
                                res.probe_s)
    return out


def summarize(rounds, raw=False):
    """wall_s and us_per_cell_stage.<scheme> from per-leg medians.

    Each leg's time is scaled by its speed probe (unless raw) and the median
    over rounds is taken; wall_s sums solver loop and output writing over
    the legs, us_per_cell_stage divides a variant's summed loop time by its
    summed cell-stages.
    """
    wall = 0.0
    loop = {"pccu": 0.0, "lcd": 0.0}
    work = {"pccu": 0, "lcd": 0}
    for tag in rounds[0]:
        samples = [r[tag] for r in rounds if tag in r]
        scheme, cell_stages = samples[0][0], samples[0][3]
        factor = [1.0 if raw else scaled(1.0, s[4]) for s in samples]
        wall += statistics.median((s[1] + s[2]) * f
                                  for s, f in zip(samples, factor))
        loop[scheme] += statistics.median(s[1] * f
                                          for s, f in zip(samples, factor))
        work[scheme] += cell_stages
    out = {"wall_s": wall}
    for scheme in loop:
        out["us_per_cell_stage." + scheme] = (
            1e6 * loop[scheme] / work[scheme] if work[scheme] else float("nan"))
    return out


def evaluate(results):
    """(failed operations, failing checks of operations that did not fail).

    An operation is one leg.  It fails when its solve raised, or when it is
    the known-fault leg and one of its checks fails.
    """
    failed, wrong = 0, []
    for res in results:
        if res.report is None:
            failed += 1
            continue
        bad = [c for c in res.leg.check(res) if not c.ok]
        if res.leg.known_fault:
            failed += bool(bad)
            if not bad:
                print("note: known-fault leg %s passed its checks"
                      % res.leg.tag)
        else:
            wrong += bad
    return failed, wrong


def bit_identical(untraced, traced):
    """Names of legs whose traced states differ in any bit."""
    differ = []
    for a, b in zip(untraced, traced):
        if a.report is None or b.report is None:
            continue
        same = len(a.report.states) == len(b.report.states) and all(
            x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in zip(a.report.states, b.report.states))
        if not same:
            differ.append(a.leg.tag)
    return differ


def print_figures(results):
    for res in results:
        if res.report is not None and res.leg.figures is not None:
            for name, value in res.leg.figures(res).items():
                print("figure %s.%s = %.6g (not a gate)"
                      % (res.leg.tag, name, value))


def print_round(kind, times):
    print("round %-8s raw " % kind + "  ".join(
        "%s %.4g" % item for item in summarize([times], raw=True).items()),
        flush=True)


def print_wrong(wrong):
    for c in wrong:
        print("CHECK FAILED %s: %r vs limit %r" % (c.name, c.value, c.limit))


# ---- one workload in this process ----------------------------------------------

def run_workload(args):
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    legs = workloads.legs(args.workload, seed)
    probe = SpeedProbe()
    (setup_s, setup_raw), pccu = measure_setup(legs, probe)
    out_root = OUT / ("%s-%d" % (args.workload, os.getpid()))
    attempted, failed, wrong = 0, 0, []
    untraced_t, traced_t, layer_rounds = [], [], []
    recorder = SpanRecorder()
    start = last = time.perf_counter()
    try:
        while True:
            # Stop before a round (or pair) that would end past --seconds,
            # as predicted from the one before it.
            now = time.perf_counter()
            enough = len(untraced_t) >= (MIN_PAIRS if args.trace else MIN_ROUNDS)
            if enough and 2 * now - last - start > args.seconds:
                break
            last = now
            plain = workloads.run_round(pccu, legs, out_root, probe)
            untraced_t.append(leg_times(plain))
            print_round("untraced", untraced_t[-1])
            f, w = evaluate(plain)
            attempted, failed, wrong = attempted + len(plain), failed + f, \
                wrong + w
            if not args.trace:
                continue
            recorder.clear()
            with Instrumentation(pccu, recorder):
                root = recorder.open("bench.round")
                traced = workloads.run_round(pccu, legs, out_root, probe)
                recorder.close(root)
            traced_t.append(leg_times(traced))
            print_round("traced", traced_t[-1])
            f, w = evaluate(traced)
            attempted, failed, wrong = attempted + len(traced), failed + f, \
                wrong + w
            for tag in bit_identical(plain, traced):
                wrong.append(checks.at_most(
                    tag + ".traced_states_differ", 1, 0))
            totals, root_s = recorder.totals(), recorder.root_seconds()
            self_sum = sum(v["self_s"] for v in totals.values())
            if abs(self_sum - root_s) > 1e-9 * root_s:
                wrong.append(checks.at_most(
                    "trace.self_time_sum_minus_root_s", abs(self_sum - root_s),
                    1e-9 * root_s))
            layer_rounds.append((totals, root_s))
        print_figures(plain)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    if args.trace:
        spans = OUT / ("spans-%s-%d.json" % (args.workload, seed))
        recorder.dump(spans)
        print("spans of the last traced round written to %s" % spans)
    else:
        try:
            OUT.rmdir()
        except OSError:
            pass

    metrics = {}
    if args.trace:
        final = layer_rounds[-1][0]
        zero = {"calls": 0, "self_s": 0.0, "bytes": 0}
        for name in SPAN_NAMES:
            metrics[name + ".calls"] = (final.get(name, zero)["calls"], "count")
            metrics[name + ".self_s"] = (statistics.median(
                t.get(name, zero)["self_s"] for t, _ in layer_rounds), "s")
            metrics[name + ".bytes"] = (final.get(name, zero)["bytes"], "B")
        metrics["trace.root_s"] = (statistics.median(
            r for _, r in layer_rounds), "s")
        metrics["trace.overhead_s"] = (summarize(traced_t)["wall_s"]
                                       - summarize(untraced_t)["wall_s"], "s")
    else:
        units = {"wall_s": "s", "us_per_cell_stage.pccu": "us",
                 "us_per_cell_stage.lcd": "us"}
        for key, value in summarize(untraced_t).items():
            metrics[key] = (value, units[key])
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    print("workload %s seed %d: %d rounds, %d operations, %d failed"
          % (args.workload, seed, len(untraced_t) + len(traced_t), attempted,
             failed))
    for name, (value, unit) in metrics.items():
        print("  %-44s %.6g %s" % (name, value, unit))
    if not args.trace:
        print("  unscaled: " + "  ".join(
            "%s %.6g" % item for item in summarize(untraced_t, raw=True).items())
            + "  setup_s %.6g" % setup_raw)
    print_wrong(wrong)
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


# ---- all workloads, one child process each ------------------------------------

def run_all(args, names):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("workload %s exited with code %d" % (name, proc.returncode))
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][name + "." + key] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pccu" / "__init__.py").is_file():
        print("bench: no solver source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print("bench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
