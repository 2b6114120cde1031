"""Single-run reference figures quoted in bench/README.md.

    python3 bench/reference.py             # solver cases, about 4 minutes
    python3 bench/reference.py --tier1     # also time the repository's test suite

Each case runs once, in its own single-threaded process, so its peak RSS is
its own.  These are reference figures, not gates: the benchmark proper is
bench/run.py.  Prints a markdown table.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (case id, example, overrides); both flux variants run for every case.
CASES = (
    ("ex1_3000", "ex1", dict(nx=3000, t_final=0.3)),
    ("ex4_400x100", "ex4", dict(nx=400, ny=100, t_final=0.1, snapshots=())),
    ("ex8_100x100", "ex8", dict(nx=100, ny=100, t_final=0.12)),
    ("ex10_225x38", "ex10", dict(nx=225, ny=38, t_final=5.0, snapshots=())),
    ("ex9_200x200", "ex9", dict(nx=200, ny=200, t_final=0.02)),
)
# lcd's mirror asymmetry on ex4 and its dependence on eps0.
MIRROR = ("ex4", dict(nx=200, ny=50, t_final=0.3, snapshots=()))


def child(case, scheme, eps0):
    sys.path.insert(0, str(ROOT / "src"))
    from pccu.catalog import make_config
    from pccu.driver import run

    if case == "mirror":
        name, overrides = MIRROR
    else:
        name, overrides = {c: (n, o) for c, n, o in CASES}[case]
    cfg = make_config(name, scheme=scheme, **overrides)
    if eps0 is not None:
        cfg.eps0 = eps0
    report = run(cfg)
    grid = cfg.grid
    cells = grid.nx * (grid.ny if grid.dimension == 2 else 1)
    out = {"steps": report.steps, "loop_s": report.wall_time,
           "us_per_cell_stage": 1e6 * report.wall_time
           / (cells * report.steps * 3),
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if case == "mirror":
        out["rho_mirror_defect"] = float(
            abs(report.states[-1][..., 0]
                - report.states[-1][::-1, :, 0]).max())
    print(json.dumps(out))


def spawn(case, scheme, eps0=None):
    cmd = [sys.executable, __file__, "--child", case, "--scheme", scheme]
    if eps0 is not None:
        cmd += ["--eps0", repr(eps0)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          env=env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true",
                        help="also time the repository's pytest suite")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--scheme", default="pccu", help=argparse.SUPPRESS)
    parser.add_argument("--eps0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.scheme, args.eps0)
        return 0

    print("| case | scheme | steps | loop s | us/cell/stage | peak RSS MiB |")
    print("|---|---|---|---|---|---|")
    for case, _, _ in CASES:
        for scheme in ("pccu", "lcd"):
            r = spawn(case, scheme)
            print("| %s | %s | %d | %.2f | %.2f | %.0f |"
                  % (case, scheme, r["steps"], r["loop_s"],
                     r["us_per_cell_stage"], r["peak_rss_mb"]), flush=True)
    print()
    print("| ex4 200x50 t=0.3 | eps0 | max rho mirror defect |")
    print("|---|---|---|")
    for scheme, eps0 in (("pccu", None), ("lcd", None), ("lcd", 1e-8)):
        r = spawn("mirror", scheme, eps0)
        print("| %s | %s | %.2g |" % (scheme, "1e-18 (default)"
                                     if eps0 is None else "%g" % eps0,
                                     r["rho_mirror_defect"]), flush=True)
    if args.tier1:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH="src"),
            check=False)
        summary = proc.stdout.strip().splitlines()[-1]
        print("\nTier-1 suite: %.0f s wall (%s)"
              % (time.perf_counter() - t0, summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
