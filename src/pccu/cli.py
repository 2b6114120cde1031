"""Command-line front end.

    pccu run ex7 --scheme lcd --out results/ex7
    pccu run my_setup.json --nx 400 --snapshots 0.05,0.1
    pccu run ex9 --compare --refine 2
    pccu list

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import json
import os
import sys

from .catalog import config_from_dict, example_names, EXAMPLES
from .driver import run
from .errors import ConfigError, AdmissibilityError, ReconstructionError, \
    NumericalError
from .output import write_outputs, difference_norms


def _parse_snapshots(text):
    if not text:
        return None
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --snapshots value {text!r}") from exc


def _load_config(target, args):
    if target in EXAMPLES:
        raw = {**EXAMPLES[target], "label": target}
    elif os.path.exists(target):
        try:
            with open(target, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {target!r}: {exc}") \
                from exc
    else:
        raise ConfigError(f"{target!r} is neither a known example nor a "
                          f"config file (examples: "
                          f"{', '.join(example_names())})")
    return config_from_dict(
        raw, scheme=args.scheme, nx=args.nx, ny=args.ny, theta=args.theta,
        cfl=args.cfl, t_final=args.tfinal,
        snapshots=_parse_snapshots(args.snapshots), refine=args.refine)


def _make_dirs(*paths):
    """Create the output directories, so an unusable --out exits 2 before
    the run instead of failing after it."""
    for path in paths:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path!r}: "
                              f"{exc}") from exc


def _cmd_run(args):
    out_dir = args.out or args.target.removesuffix(".json") + "_out"
    if args.compare:
        configs = []
        for scheme in ("pccu", "lcd"):
            args.scheme = scheme
            configs.append(_load_config(args.target, args))
        _make_dirs(*(os.path.join(out_dir, c.scheme) for c in configs))
        reports = []
        for config in configs:
            report = run(config)
            write_outputs(report, os.path.join(out_dir, config.scheme))
            reports.append(report)
        norms = difference_norms(reports[0], reports[1])
        with open(os.path.join(out_dir, "compare.json"), "w",
                  encoding="ascii") as fh:
            json.dump({"snapshots": norms}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out_dir}/pccu, {out_dir}/lcd and compare.json")
        return 0
    config = _load_config(args.target, args)
    _make_dirs(out_dir)
    report = run(config)
    write_outputs(report, out_dir)
    print(f"{config.label}: {report.steps} steps to t={config.t_final:g} "
          f"in {report.wall_time:.2f}s -> {out_dir}")
    return 0


def _cmd_list(_args):
    for name in example_names():
        spec = EXAMPLES[name]
        dims = f"{spec['nx']}" + (f"x{spec['ny']}" if "ny" in spec else "")
        print(f"{name:6s} {spec['model']:10s} {spec['dimension']}-D "
              f"{dims:>9s}  t={spec['t_final']:<6g} {spec['note']}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pccu",
        description="Well-balanced path-conservative central-upwind solver")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an example or a JSON config")
    runp.add_argument("target", help="example id (see `pccu list`) or "
                                     "path to a JSON config file")
    runp.add_argument("--scheme", choices=["pccu", "lcd"], default=None,
                      help="flux variant (default pccu)")
    runp.add_argument("--nx", type=int, default=None)
    runp.add_argument("--ny", type=int, default=None)
    runp.add_argument("--theta", type=float, default=None,
                      help="minmod limiter parameter in [1, 2]")
    runp.add_argument("--cfl", type=float, default=None)
    runp.add_argument("--tfinal", type=float, default=None)
    runp.add_argument("--snapshots", default=None,
                      help="comma-separated output times")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--compare", action="store_true",
                      help="run both schemes and write difference norms")
    runp.add_argument("--refine", type=int, default=None,
                      help="multiply the grid resolution by this factor")
    runp.set_defaults(func=_cmd_run)

    listp = sub.add_parser("list", help="list the built-in examples")
    listp.set_defaults(func=_cmd_list)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (AdmissibilityError, ReconstructionError, NumericalError) as exc:
        detail = []
        if exc.t is not None:
            detail.append(f"t={exc.t:g}")
        if exc.stage is not None:
            detail.append(f"stage {exc.stage}")
        if exc.direction is not None:
            detail.append(f"sweep {exc.direction}")
        if exc.where is not None:
            detail.append(f"cell ({', '.join(map(str, exc.where))})")
        suffix = f" ({', '.join(detail)})" if detail else ""
        print(f"numerical failure: {exc}{suffix}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
