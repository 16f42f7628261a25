"""Benchmark of catbranch: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (sizes in `workloads.py`, reasons in BENCHMARK.json):
  forest_gate     tree_count, comparison, stretching, reactant_intensity,
                  codec, points
  diffusion_gate  hitting_prob, limit_intensity, qv_dichotomy
  simulate_io     `catbranch simulate`, then convert every forest file

The run starts `worker.py` in a fresh process, so memory is per workload,
with BLAS and OpenMP pinned to one thread.  The worker runs passes one after
another for `--seconds` seconds (at least three); pass j draws its inputs from
(seed, j).  Before it, `SETUP_PROBES` more processes only set up, and
`setup_s` is the median over them and the worker of the time from starting
the process to its `@ready` line.

With `--trace 0` the metrics are the end-to-end ones.  The three times are
taken at a reference speed: the host's speed drifts by tens of percent over
minutes, so each is scaled by the time of a fixed pure-Python loop run in
the same process (`workloads.at_reference`; see `worker.py`).  The pass
times of forest_gate and simulate_io are also scaled to the workload's
reference work, by the particle-engine events each pass ran
(`workloads.at_reference_work`), because the forests a pass draws have
heavy-tailed sizes.
  wall_s       median seconds of one pass
  cpu_s        median user + system CPU seconds of one pass, children too
  setup_s      median seconds from process start to ready (imports and one
               tiny warm-up call per layer)
  peak_rss_mb  peak resident memory of the worker over set-up and the first
               three passes, which every run makes
With `--trace 1` they are the per-layer ones of one traced pass (`tracer.py`).

The operation counts are `attempted` and `failed`; `failed_frac` is printed
and kept in the run record.  The record (stated size, per-pass times, report
digest, pass counts of the statistical reports, machine and versions) is
printed and written to `.perfbench/runs/`.  The last line of standard output
is the JSON result.  `--size tiny` is for the smoke check (`smoke.py`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUNS = os.path.join(ROOT, ".perfbench", "runs")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(), "platform": platform.platform()}


def run_worker(args: list, deadline: float) -> tuple[float, float, list]:
    """Start the worker, return the seconds from its start to `@ready`, the
    reference loop's seconds it printed, and its other stdout lines.  The
    worker is always waited for; past the deadline it is killed first."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    ready_s = loop_s = None
    lines = []
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                if not sel.select(timeout=max(deadline - time.monotonic(), 0.0)):
                    raise WorkerError("worker ran past the deadline")
                line = proc.stdout.readline()
                if not line:
                    break
                if line.strip() == "@ready" and ready_s is None:
                    ready_s = time.perf_counter() - start
                elif line.startswith("@reference ") and loop_s is None:
                    loop_s = float(line.split()[1])
                else:
                    lines.append(line.rstrip("\n"))
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise WorkerError("worker did not exit before the deadline") from exc
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None or loop_s is None:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return ready_s, loop_s, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "catbranch", "__init__.py")):
        print("perfbench: no catbranch source under src/", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    for var in THREAD_VARS:
        os.environ[var] = "1"

    load_before = os.getloadavg()
    probes = 1 if args.size == "tiny" else SETUP_PROBES
    try:
        setups = [run_worker(["--workload", args.workload, "--setup-only"], deadline)[:2]
                  for _ in range(probes)]
        ready_s, loop_s, lines = run_worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--size", args.size], deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    results = [ln for ln in lines if ln.startswith("@result ")]
    if len(results) != 1:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    out = json.loads(results[0][len("@result "):])
    setups.append((ready_s, loop_s))
    record = out.pop("record")
    record.update(setup_s=[s for s, _ in setups], setup_loop_s=[lp for _, lp in setups],
                  machine=dict(machine(), **record.pop("versions")),
                  loadavg_before=load_before, loadavg_after=os.getloadavg())
    if not args.trace:
        # each loop time was taken right after its set-up, in the same process
        setup_s = workloads.at_reference(statistics.median(s for s, _ in setups),
                                         statistics.median(lp for _, lp in setups))
        out["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}

    os.makedirs(RUNS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(os.path.join(RUNS, name), "w") as fh:
        json.dump(dict(out, record=record), fh, indent=1)
        fh.write("\n")
    for key, m in out["metrics"].items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {record['failed_frac']:.6g} "
          f"({out['failed']} of {out['attempted']} operations)")
    print("record " + json.dumps(record))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
