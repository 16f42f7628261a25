"""
Command-line front end: `simulate` runs the particle model and writes its
mass paths, forests, contours and point processes; `verify` runs named
verification suites; `convert` moves between forest, contour and
point-process files.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource
overflow.  All randomness flows from the mandatory --seed, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from .contour import Excursion, contour_from_forest, tree_from_excursion
from .errors import InputError, PopulationCapError
from .forest import FamilyForest
from .harness import SUITES, reports_to_json, run_suites
from .particle import (SimConfig, simulate_joint, stopping_time,
                       GALTON_WATSON, BIRTH_DEATH)
from .points import point_process_at_level

EXIT_OK = 0
EXIT_TEST_FAILURE = 1
EXIT_INPUT = 2
EXIT_OVERFLOW = 3


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# the model's keys, each a config-file key and a simulate flag
_CONFIG_CASTS = {"b1": float, "b2": float, "n": int, "delta": float,
                 "t_max": float, "seed": int, "representation": str,
                 "initial_catalyst_mass": float, "initial_reactant_mass": float}


def _build_sim_config(args) -> SimConfig:
    """The file's values, every one converted, overridden by the flags."""
    kwargs = {}
    if args.config:
        fields = _read_config_file(args.config)
        unknown = sorted(set(fields) - set(_CONFIG_CASTS))
        if unknown:
            raise InputError(f"unknown config key(s) {', '.join(unknown)}; "
                             f"known: {', '.join(_CONFIG_CASTS)}")
        for key, val in fields.items():
            try:
                kwargs[key] = _CONFIG_CASTS[key](val)
            except ValueError:
                raise InputError(f"config key {key}: bad value {val!r}") from None
    for key in _CONFIG_CASTS:
        val = getattr(args, key, None)
        if val is not None:
            kwargs[key] = val
    if "seed" not in kwargs:
        raise InputError("--seed is required (no wall-clock default)")
    return SimConfig(**kwargs)


def _out_dir(args) -> str:
    root = args.out or os.environ.get("CATBRANCH_OUT", ".")
    os.makedirs(root, exist_ok=True)
    return root


def _run_replica(payload):
    cfg_kwargs, replica = payload
    cfg = SimConfig(**cfg_kwargs)
    cfg.seed = cfg.seed + replica
    (cm, cf), (rm, rf) = simulate_joint(cfg)
    return replica, (cm, cf), (rm, rf)


def cmd_simulate(args) -> int:
    if args.replicas < 1 or args.jobs < 1:
        raise InputError("--replicas and --jobs must be >= 1")
    if args.level is not None and not 0.0 < args.level < math.inf:
        raise InputError("--level must be finite and > 0")
    cfg = _build_sim_config(args)
    cfg_kwargs = dataclasses.asdict(cfg)
    payloads = [(cfg_kwargs, r) for r in range(args.replicas)]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_replica, payloads))
    else:
        results = [_run_replica(p) for p in payloads]
    results.sort(key=lambda item: item[0])
    # made only now, so a run that stops in the engine leaves no directory
    out = _out_dir(args)

    summary = {"config": {**cfg_kwargs}, "replicas": []}
    for replica, (cm, cf), (rm, rf) in results:
        tag = f"r{replica:04d}"
        for prefix, mass, forest in (("catalyst", cm, cf), ("reactant", rm, rf)):
            with open(os.path.join(out, f"{tag}_{prefix}_mass.csv"), "w") as fh:
                mass.write(fh)
            with open(os.path.join(out, f"{tag}_{prefix}_forest.txt"), "w") as fh:
                forest.write(fh)
            if args.contours:
                exc = contour_from_forest(forest, 2.0 * cfg.n)
                with open(os.path.join(out, f"{tag}_{prefix}_contour.txt"), "w") as fh:
                    exc.write(fh, speed=2.0 * cfg.n)
            if args.level is not None:
                pp = point_process_at_level(forest,
                                            min(args.level, forest.height_cap
                                                if forest.height_cap is not None
                                                else args.level),
                                            1.0 / cfg.n)
                with open(os.path.join(out, f"{tag}_{prefix}_points.csv"), "w") as fh:
                    pp.write(fh)
        summary["replicas"].append({
            "replica": replica,
            "catalyst_extinction": stopping_time(cm, 0.0),
            "reactant_extinction": stopping_time(rm, 0.0),
            "catalyst_nodes": len(cf),
            "reactant_nodes": len(rf),
        })
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # data-only plotting: a gnuplot script over the emitted CSVs
    with open(os.path.join(out, "plot.gnuplot"), "w") as fh:
        fh.write("set datafile separator ','\n")
        fh.write("set key outside\n")
        fh.write("set xlabel 't'\nset ylabel 'total mass'\n")
        pieces = []
        for replica, _, _ in results:
            tag = f"r{replica:04d}"
            pieces.append(f"'{tag}_catalyst_mass.csv' using 1:2 skip 2 "
                          f"with steps title '{tag} catalyst'")
            pieces.append(f"'{tag}_reactant_mass.csv' using 1:2 skip 2 "
                          f"with steps title '{tag} reactant'")
        fh.write("plot " + ", \\\n     ".join(pieces) + "\n")
    print(f"wrote {args.replicas} replica(s) to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    import inspect

    if args.replicas is not None and args.replicas < 1:
        raise InputError("--replicas must be >= 1")
    if args.seed is not None and args.seed < 0:
        raise InputError("--seed must be >= 0")
    names = list(SUITES) if args.suite == ["all"] else args.suite
    overrides: dict[str, dict] = {}
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {name!r}")
        accepted = inspect.signature(SUITES[name]).parameters
        kw = {}
        for key in ("replicas", "count"):
            if args.replicas is not None and key in accepted:
                kw[key] = args.replicas
        if args.seed is not None and "seed" in accepted:
            kw["seed"] = args.seed
        overrides[name] = kw
    reports, all_pass = run_suites(names, overrides)
    out = _out_dir(args)
    with open(os.path.join(out, "verify_report.json"), "w") as fh:
        fh.write(reports_to_json(reports))
        fh.write("\n")
    print(f"{'ALL PASS' if all_pass else 'FAILURES PRESENT'} "
          f"({sum(r.passed for r in reports)}/{len(reports)})")
    return EXIT_OK if all_pass else EXIT_TEST_FAILURE


def cmd_convert(args) -> int:
    src, dst = args.input, args.output
    what = args.to
    if what == "contour":
        with open(src) as fh:
            forest = FamilyForest.read(fh)
        exc = contour_from_forest(forest, args.speed)
        with open(dst, "w") as fh:
            exc.write(fh, speed=args.speed)
    elif what == "forest":
        with open(src) as fh:
            exc, _speed = Excursion.read(fh)
        forest = tree_from_excursion(exc)
        with open(dst, "w") as fh:
            forest.write(fh)
    elif what == "points":
        if args.level is None:
            raise InputError("convert --to points needs --level")
        with open(src) as fh:
            forest = FamilyForest.read(fh)
        pp = point_process_at_level(forest, args.level, args.spacing)
        with open(dst, "w") as fh:
            pp.write(fh)
    else:
        raise InputError(f"unknown conversion target {what!r}")
    print(f"wrote {dst}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="catbranch",
                                 description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the two-type particle model")
    sim.add_argument("--config", help="flat key=value config file")
    for key, cast in _CONFIG_CASTS.items():
        sim.add_argument("--" + key.replace("_", "-"), type=cast,
                         choices=([GALTON_WATSON, BIRTH_DEATH]
                                  if key == "representation" else None))
    sim.add_argument("--replicas", type=int, default=1)
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--contours", action="store_true",
                     help="also write contour files")
    sim.add_argument("--level", type=float,
                     help="also write level point processes")
    sim.add_argument("--out", help="output directory (or $CATBRANCH_OUT)")

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", nargs="+", default=["all"],
                     help=f"suite names or 'all'; known: {', '.join(SUITES)}")
    ver.add_argument("--replicas", type=int,
                     help="override replica count (forest count for codec, points)")
    ver.add_argument("--seed", type=int, help="override suite seed")
    ver.add_argument("--out", help="report directory (or $CATBRANCH_OUT)")

    con = sub.add_parser("convert", help="convert between representations")
    con.add_argument("input")
    con.add_argument("output")
    con.add_argument("--to", required=True,
                     choices=["contour", "forest", "points"])
    con.add_argument("--speed", type=float, default=2.0)
    con.add_argument("--level", type=float)
    con.add_argument("--spacing", type=float, default=1.0)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse fills a new
    namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a rebinding of a `cmd_*` name takes effect
    command = {"simulate": cmd_simulate, "verify": cmd_verify,
               "convert": cmd_convert}[args.command]
    try:
        return command(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PopulationCapError as exc:
        print(f"resource overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
