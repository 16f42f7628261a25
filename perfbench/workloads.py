"""Workloads of the benchmark: their stated sizes and one pass of each.

A pass runs one workload once at its stated size.  Pass `j` of a run at
benchmark seed `s` offsets every suite seed and the `simulate --seed` by
`pass_offset(s, j)`, so the inputs of each pass depend on `(s, j)` only and
successive passes of a run see fresh inputs.  Runs at one seed repeat the
same passes in the same order.

Three workloads go through `harness.run_suites`, the path `catbranch verify`
takes; an operation there is one suite call.  `simulate_io` goes through
`cli.main`; an operation there is one CLI call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field

# Suites seed replica i with `seed + i` and their second samples with
# `seed + 500_000 + i`, and their default seeds lie below 15 million, a
# million apart.  Passes sit 1e8 seeds apart, above every suite's range, so
# no two suite calls of a run share a seed; a stride of a million would make
# one suite's pass j rerun the seeds of another suite's pass j+1, and the
# passes of a run would not be independent.
SEED_STRIDE = 100_000_000
PASSES_PER_SEED = 1_000
SEED_RANGE = 1_000_000
SIMULATE_BASE_SEED = 7

# Reports whose check is exact at any size: one of them failing is a failed
# operation.  The other reports are statistical; at reduced size they may
# miss their targets, so they are counted beside the metrics instead.
EXACT_REPORTS = frozenset({"codec", "points", "qv_dichotomy[monotone]"})

# Stated sizes of one pass.  Keys are suite names and their keyword
# overrides; every argument not named here (n, t, horizons, steps,
# checkpoints) keeps the suite's default.  Replica counts are high enough
# that a suite call fails with negligible probability at any seed:
# reactant_intensity and limit_intensity raise when every replica's level
# mass is zero, and qv_dichotomy when one of its two conditional groups is
# empty.  "tiny" is for the smoke check only.
VERIFY_SIZES = {
    # The four suites that spend the gate's time in the particle engine,
    # truncate, level sets and point processes (n=40 and n=50 forests of
    # thousands of nodes), and the two exact checks of the contour codec
    # and the point-process reconstruction, on random binary forests.
    # reactant_intensity runs without its n=100 documentation replicas: one
    # such forest per pass made up a third of the variance of the pass time
    # while it gates nothing.
    "forest_gate": {
        "full": {
            "tree_count": {"replicas": 10},
            "stretching": {"replicas": 2},
            "comparison": {"replicas": 4},
            "reactant_intensity": {"replicas": 12, "document_replicas": 0},
            "codec": {"count": 150},
            "points": {"count": 150},
        },
        "tiny": {
            "tree_count": {"replicas": 3},
            "stretching": {"replicas": 2},
            "comparison": {"replicas": 2, "z_replicas": 200},
            "reactant_intensity": {"replicas": 12, "n": 5, "document_replicas": 0},
            "codec": {"count": 10},
            "points": {"count": 10},
        },
    },
    # SDE integrators, limit-contour stepping, bridge depth censuses and
    # Monte Carlo Poisson tests; the particle engine never runs here.  The
    # SDE and limit-contour steps are coarser than the gate's (10x, and 100x
    # for qv_dichotomy): the same code runs on fewer steps.  At the gate's
    # step, qv_dichotomy's longest contours take seconds and gigabytes each,
    # so single replicas would decide a pass's time and the run's memory.
    "diffusion_gate": {
        "full": {
            "hitting_prob": {"replicas": 1_000, "step": 1e-3},
            "limit_intensity": {"replicas": 60, "theta_step": 1e-4},
            "qv_dichotomy": {"replicas": 30, "theta_step": 1e-3},
        },
        "tiny": {
            "hitting_prob": {"replicas": 50, "step": 1e-2},
            "limit_intensity": {"replicas": 15, "theta_step": 1e-4},
            "qv_dichotomy": {"replicas": 30, "theta_step": 1e-3},
        },
    },
}

# `catbranch simulate` at n=20, then every forest file converted to a
# contour and back and to points.  This is the only workload that writes and
# validates files and runs the contour codec on particle forests.
SIMULATE_IO_SIZES = {
    "full": {"n": 20, "t_max": 0.5, "replicas": 20, "level": 0.25},
    "tiny": {"n": 4, "t_max": 0.5, "replicas": 2, "level": 0.25},
}

WORKLOADS = (*VERIFY_SIZES, "simulate_io")
# Every suite some workload runs; the traced run reports the time of each.
SUITES = tuple(name for sizes in VERIFY_SIZES.values() for name in sizes["full"])

# Seconds the reference loop is taken to last; times are reported at this
# speed.  It is about the loop's time on a 2.1 GHz Xeon with CPython 3.11.
REFERENCE_S = 0.1
REFERENCE_ITERS = 1_200_000


def reference_loop() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python loop that allocates
    nothing and does not touch catbranch: a probe of the host's speed."""
    w0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(REFERENCE_ITERS):
        acc += i * i
    return time.perf_counter() - w0, time.process_time() - c0


def at_reference(seconds: float, loop_s: float) -> float:
    """`seconds` on a host where the reference loop takes `REFERENCE_S`,
    from the loop's time `loop_s` on this host at about the same time."""
    return REFERENCE_S * seconds / loop_s


# Mean engine events of one pass of each workload that runs the particle
# engine, over the passes of runs at seeds 1000-1004.  A pass's time is
# scaled to this much work; diffusion_gate runs no engine and is not scaled.
REFERENCE_EVENTS = {"forest_gate": 218_881, "simulate_io": 16_313}

ENGINE_FUNCTIONS = ("simulate_catalyst", "simulate_reactant_quenched", "simulate_joint")


class EngineEvents:
    """Counts the particle engine's events: the jumps of every total-mass
    path that a `simulate_*` call returns.

    The passes of a workload draw forests whose sizes are heavy-tailed, so
    the work of a pass varies with its seed far more than the host's speed
    does; the count lets a pass's time be scaled to `REFERENCE_EVENTS`.  The
    count depends only on the random process drawn, not on how the engine
    stores it.  `install` wraps each engine function wherever catbranch
    binds it, as `tracer.py` does; a traced run does not use this.
    """

    def __init__(self) -> None:
        self.count = 0

    def install(self) -> None:
        from catbranch import particle
        modules = [m for name, m in sys.modules.items()
                   if name == "catbranch" or name.startswith("catbranch.")]
        for name in ENGINE_FUNCTIONS:
            fn = getattr(particle, name)
            counted = self._wrap(fn)
            for mod in modules:
                if getattr(mod, name, None) is fn:
                    setattr(mod, name, counted)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            pops = result if isinstance(result[0], tuple) else (result,)
            self.count += sum(mass.times.size - 1 for mass, _ in pops)
            return result
        return counted


def at_reference_work(workload: str, seconds: float, events: int) -> float:
    """`seconds` of a pass scaled from the engine events it ran to the
    workload's `REFERENCE_EVENTS`; unchanged for a workload without them."""
    ref = REFERENCE_EVENTS.get(workload)
    return seconds if ref is None or events <= 0 else seconds * ref / events


def pass_offset(seed: int, j: int) -> int:
    """Seed offset of pass `j` of a run at benchmark seed `seed`."""
    return SEED_STRIDE * ((seed % SEED_RANGE) * PASSES_PER_SEED + j)


def stated_size(workload: str, size: str) -> dict:
    """The size of one pass, as recorded in the run record."""
    offset = f"{SEED_STRIDE} * ((seed % {SEED_RANGE}) * {PASSES_PER_SEED} + pass)"
    if workload == "simulate_io":
        return dict(SIMULATE_IO_SIZES[size], base_seed=SIMULATE_BASE_SEED,
                    seed_offset=offset)
    return {"suites": VERIFY_SIZES[workload][size], "seed_offset": offset}


@dataclass
class PassResult:
    """What one pass did: operations attempted and failed, a digest of its
    outputs, and counts recorded beside the metrics."""

    attempted: int = 0
    failed: int = 0
    digest: str = ""
    errors: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def suite_seeds(harness, suites) -> dict:
    """Default seed of each suite, read from its signature."""
    import inspect
    return {name: inspect.signature(harness.SUITES[name]).parameters["seed"].default
            for name in suites}


def verify_pass(harness, suites: dict, base_seeds: dict, offset: int) -> PassResult:
    """Run each suite once through `harness.run_suites`.

    A suite call fails if it raises or if one of its exact reports fails.
    The digest is the sha256 of `harness.reports_to_json` over all reports.
    """
    res = PassResult()
    reports = []
    for name, kwargs in suites.items():
        res.attempted += 1
        kw = dict(kwargs, seed=base_seeds[name] + offset)
        try:
            got, _ = harness.run_suites([name], {name: kw}, echo=False)
        except Exception as exc:  # a suite that raises is a failed operation
            res.failed += 1
            res.errors.append(f"{name}: {exc!r}")
            continue
        bad_exact = [r.name for r in got if r.name in EXACT_REPORTS and not r.passed]
        if bad_exact:
            res.failed += 1
            res.errors.append(f"{name}: exact report failed: {bad_exact}")
        reports.extend(got)
    res.digest = hashlib.sha256(harness.reports_to_json(reports).encode()).hexdigest()
    res.stats = {"reports": len(reports),
                 "reports_passed": sum(bool(r.passed) for r in reports),
                 "reports_failed": sorted(r.name for r in reports if not r.passed)}
    return res


class CliOps:
    """Calls `cli.main` one operation at a time and counts failures.

    An operation fails on a non-zero exit code or on any exception that
    escapes `cli.main`; the benchmark records it and carries on.
    """

    def __init__(self, cli, res: PassResult) -> None:
        self.cli = cli
        self.res = res

    def call(self, argv: list) -> bool:
        self.res.attempted += 1
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed operation
            code = repr(exc)
        if code != 0:
            self.fail(f"{argv[0]} {os.path.basename(argv[1])}: exit {code} "
                      f"{sink.getvalue().strip()[:200]}")
            return False
        return True

    def fail(self, message: str) -> None:
        self.res.failed += 1
        self.res.errors.append(message)


def _read_forest(FamilyForest, path: str):
    with open(path) as fh:
        return FamilyForest.read(fh)


def convert_round_trip(ops: CliOps, FamilyForest, src: str, work: str,
                       speed: float, level: float, spacing: float) -> None:
    """Convert one forest file to a contour and back, and to points.

    The round trip must reproduce the source's `canonical_shape()`.
    """
    stem = os.path.join(work, os.path.basename(src)[:-len("_forest.txt")])
    contour, back, points = stem + "_contour.txt", stem + "_back.txt", stem + "_points.csv"
    source = _read_forest(FamilyForest, src)
    if ops.call(["convert", src, contour, "--to", "contour", "--speed", repr(speed)]):
        if ops.call(["convert", contour, back, "--to", "forest"]):
            if _read_forest(FamilyForest, back).canonical_shape() != source.canonical_shape():
                ops.fail(f"round trip changed the shape of {os.path.basename(src)}")
    cap = source.height_cap
    at = level if cap is None else min(level, cap)
    ops.call(["convert", src, points, "--to", "points", "--level", repr(at),
              "--spacing", repr(spacing)])


def _digest_tree(root: str) -> tuple[str, int, int]:
    """sha256 over relative names and contents, plus file and byte counts."""
    h = hashlib.sha256()
    files = nbytes = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
            files += 1
            nbytes += len(data)
    return h.hexdigest(), files, nbytes


def simulate_io_pass(cli, FamilyForest, size: dict, offset: int,
                     scratch: str) -> PassResult:
    """`catbranch simulate` then, for every forest file it wrote, the
    forest -> contour -> forest round trip and the forest -> points
    conversion, all in a temporary directory under `scratch`."""
    res = PassResult()
    ops = CliOps(cli, res)
    n = size["n"]
    top = tempfile.mkdtemp(dir=scratch)
    try:
        sim, work = os.path.join(top, "sim"), os.path.join(top, "convert")
        os.makedirs(work)
        ok = ops.call(["simulate", "--n", str(n), "--b1", "1", "--b2", "1",
                       "--t-max", repr(size["t_max"]),
                       "--seed", str(SIMULATE_BASE_SEED + offset),
                       "--replicas", str(size["replicas"]), "--jobs", "1",
                       "--contours", "--level", repr(size["level"]),
                       "--out", sim])
        if ok:
            for name in sorted(os.listdir(sim)):
                if name.endswith("_forest.txt"):
                    convert_round_trip(ops, FamilyForest, os.path.join(sim, name),
                                       work, 2.0 * n, size["level"], 1.0 / n)
        res.digest, files, nbytes = _digest_tree(top)
        res.stats = {"files_written": files, "bytes_written": nbytes}
    finally:
        shutil.rmtree(top, ignore_errors=True)
    return res
