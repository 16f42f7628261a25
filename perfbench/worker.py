"""One benchmark run in a fresh process.

`run.py` starts this script; it is not meant to be run by hand.  It imports
catbranch, makes one tiny warm-up call per layer and prints `@ready`.  With
`--setup-only` it stops there.  Otherwise it runs passes of the workload for
`--seconds` seconds, at least `MIN_PASSES`, pass j on the inputs of
`workloads.pass_offset(seed, j)`, and prints one `@result <json>` line with
the metrics, the operation counts and the run record.  With `--trace 1` it
runs pass 0 three times: a warm-up, the untraced baseline and the traced
pass.

The speed of a shared host drifts by tens of percent over minutes, so the
worker also times `workloads.reference_loop`, a fixed pure-Python loop that
does not touch catbranch: `SET_UP_LOOPS` times right after `@ready`, whose
median it prints as `@reference <seconds>`, and in a measured run once more
after every pass.  The passes of a workload draw heavy-tailed forests, so
each pass's time is also scaled to the workload's reference work
(`workloads.at_reference_work`, by the engine events the pass ran).
`wall_s` and `cpu_s` are the median over passes of the scaled time, taken at
the reference speed (`workloads.at_reference`) by the median loop time of the
run.  The raw seconds, events and loop times stay in the record.
"""

import os

# pinned before numpy is imported, so BLAS and OpenMP stay on one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench", "tmp")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (after the path set-up above)

MIN_PASSES = 3
SET_UP_LOOPS = 3


def set_up():
    """Import catbranch and warm every layer with a tiny call, so lazy
    imports and first-call costs land in set-up, not in the passes."""
    import numpy as np
    from catbranch import cli, contour, diffusion, forest, harness, oracles, particle, points

    (_, cat), (_, rea) = particle.simulate_joint(particle.SimConfig(n=2, t_max=0.3, seed=1))
    rea.level_set(min(0.1, rea.height_cap))
    rea.tree_index()
    pp = points.point_process_at_level(cat, 0.1, 0.5)
    points.reconstruct_distance_matrix(pp)
    points.pairwise_level_distances(cat, 0.1)
    small = forest.random_binary_forest(np.random.default_rng(0))
    contour.tree_from_excursion(contour.contour_from_forest(small, 2.0))
    forest.FamilyForest.from_text(small.to_text())
    diffusion.hitting_race(8, diffusion.SDEConfig(seed=1, step=1e-2),
                           epoch_horizon=0.1, max_epochs=1)
    z = diffusion.simulate_limit_contour(harness._x_identity_path(horizon=0.5), 0.5,
                                         0.01, seed=1, theta_step=1e-4)
    diffusion.bridge_refined_depths(z.brownian, 0.01, 1e-4, np.random.default_rng(1))
    oracles.ks_test([0.2, 0.5, 0.7], lambda x: x)
    oracles.two_sample_ks([0.1, 0.4], [0.2, 0.3])
    oracles.two_sample_counts_chi2([0, 1, 2] * 10, [1, 2, 0] * 10)
    oracles.poisson_count_test([1.0, 2.0], 1.5, n_sim=10)
    harness.reports_to_json(harness.run_codec(count=1))
    cli.build_parser()
    return harness, cli, forest.FamilyForest


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def make_pass(workload: str, size: str, seed: int, harness, cli, FamilyForest):
    """Return `one_pass(j)`, which runs pass `j` of the workload."""
    if workload == "simulate_io":
        dims = workloads.SIMULATE_IO_SIZES[size]
        os.makedirs(SCRATCH, exist_ok=True)
        return lambda j: workloads.simulate_io_pass(
            cli, FamilyForest, dims, workloads.pass_offset(seed, j), SCRATCH)
    suites = workloads.VERIFY_SIZES[workload][size]
    seeds = workloads.suite_seeds(harness, suites)
    return lambda j: workloads.verify_pass(harness, suites, seeds,
                                           workloads.pass_offset(seed, j))


def timed(one_pass, j: int) -> tuple[float, float, workloads.PassResult]:
    w0, c0 = time.perf_counter(), cpu_seconds()
    res = one_pass(j)
    return time.perf_counter() - w0, cpu_seconds() - c0, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    harness, cli, FamilyForest = set_up()
    print("@ready", flush=True)
    loops = [workloads.reference_loop() for _ in range(SET_UP_LOOPS)]
    print(f"@reference {statistics.median(lp[0] for lp in loops)!r}", flush=True)
    if args.setup_only:
        return 0

    one_pass = make_pass(args.workload, args.size, args.seed, harness, cli, FamilyForest)
    events = []  # engine events of each measured pass
    if args.trace:
        # pass 0 three times: a warm-up, the untraced baseline, the traced pass
        runs = [timed(one_pass, 0), timed(one_pass, 0)]
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        runs.append(timed(one_pass, 0))
        metrics = tracer.layer_metrics(runs[2][0], runs[1][0], workloads.SUITES,
                                       runs[2][2].stats)
    else:
        engine = workloads.EngineEvents()
        engine.install()
        runs = []
        begin = time.perf_counter()
        while len(runs) < MIN_PASSES or (time.perf_counter() - begin
                                         + statistics.mean(r[0] for r in runs)
                                         <= args.seconds):
            before = engine.count
            runs.append(timed(one_pass, len(runs)))
            events.append(engine.count - before)
            loops.append(workloads.reference_loop())
            if len(runs) == MIN_PASSES:
                # later passes only run when time allows, so the peak is
                # taken over the same inputs at any speed
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_s, cpu_s = (
            workloads.at_reference(
                statistics.median(workloads.at_reference_work(args.workload, r[k], e)
                                  for r, e in zip(runs, events)),
                statistics.median(lp[k] for lp in loops))
            for k in (0, 1))
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    results = [r[2] for r in runs]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    # in a traced run all three passes ran pass 0 and must agree
    repeatable = not args.trace or len({r.digest for r in results}) == 1
    import numpy
    import scipy
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": workloads.stated_size(args.workload, args.size),
        "passes": len(runs),
        "pass_wall_s": [r[0] for r in runs],
        "pass_cpu_s": [r[1] for r in runs],
        "reference_loop_wall_s": [lp[0] for lp in loops],
        "reference_loop_cpu_s": [lp[1] for lp in loops],
        "reference_s": workloads.REFERENCE_S,
        "pass_events": events,
        "reference_events": workloads.REFERENCE_EVENTS.get(args.workload),
        "digest": results[0].digest,
        "pass_digests": [r.digest for r in results],
        "failed_frac": failed / attempted,
        "errors": [e for r in results for e in r.errors][:10],
        "pass_stats": [r.stats for r in results],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    out = {"correct": failed == 0 and repeatable,
           "attempted": attempted, "failed": failed,
           "metrics": metrics, "record": record}
    print("@result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
