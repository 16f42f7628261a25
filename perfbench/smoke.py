"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that:
  * every workload, traced and untraced, emits each metric BENCHMARK.json
    names, with its unit, and reports `correct` with no failed operation;
  * the report digest repeats at one seed and changes with the seed;
  * a corrupted contour file fed to `convert` counts as one failed
    operation instead of crashing the benchmark;
  * without the catbranch sources the benchmark exits non-zero and prints
    no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench", "tmp")

sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402  (after the path set-up above)


def run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def parse(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record "))
    return json.loads(lines[-1]), record


def check_metrics(problems: list, spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(workload, 1, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
                continue
            out, _ = parse(proc)
            got = out["metrics"]
            for m in spec[key]:
                if m["name"] not in got:
                    problems.append(f"{workload} trace={trace}: no metric {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} unit "
                                    f"{got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{workload} trace={trace}: unlisted metrics {sorted(extra)}")
            if out["failed"] != 0 or not out["correct"] or out["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: correct={out['correct']} "
                                f"failed={out['failed']} of {out['attempted']}")
            if workload == "diffusion_gate" and trace and got["particle.calls"]["value"] != 0:
                problems.append("diffusion_gate ran the particle engine")


def check_digests(problems: list) -> None:
    for workload in ("forest_gate", "simulate_io"):
        digests = [parse(run(workload, seed, 0))[1]["digest"] for seed in (1, 1, 2)]
        if digests[0] != digests[1]:
            problems.append(f"{workload}: digest differs between runs at one seed")
        if digests[0] == digests[2]:
            problems.append(f"{workload}: digest does not change with the seed")


def check_corrupt_contour(problems: list) -> None:
    from catbranch import cli
    os.makedirs(SCRATCH, exist_ok=True)
    work = tempfile.mkdtemp(dir=SCRATCH)
    try:
        bad = os.path.join(work, "bad_contour.txt")
        with open(bad, "w") as fh:
            fh.write("# speed=2.0\n0.0 0.0\n0.5 0.5 junk\n1.0 0.0\n")
        res = workloads.PassResult()
        ok = workloads.CliOps(cli, res).call(
            ["convert", bad, os.path.join(work, "out.txt"), "--to", "forest"])
        if ok or (res.attempted, res.failed) != (1, 1):
            problems.append(f"corrupted contour: ok={ok} attempted={res.attempted} "
                            f"failed={res.failed}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_without_sources(problems: list) -> None:
    os.makedirs(SCRATCH, exist_ok=True)
    bare = tempfile.mkdtemp(dir=SCRATCH)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("simulate_io", 1, 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark without sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems: list[str] = []
    check_metrics(problems, spec)
    check_digests(problems)
    check_corrupt_contour(problems)
    check_without_sources(problems)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
