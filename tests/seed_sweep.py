"""
False-fail rate of the acceptance suites over seed offsets.

Runs the named suites at their default sizes at K seed offsets: offset j
runs every suite at its default seed + j * 100 000 000, far above every
suite's replica seed range (as the benchmark's passes are), so no two runs
share a seed.  The reports of one offset are one family.  Prints, per
report, how many offsets it passed, the range of its statistic and its
lowest p-value (for the reports that have one), then the family-wise
false-fail rate: the share of offsets at which some report failed or some
suite raised.  A suite that raises is named with its error on the
offset's line, its traceback goes to standard error, and the sweep goes
on.  Next to the rate stands the Bonferroni bound m * alpha for the m
reports at alpha = 0.01, which holds when each report alone fails the
right model with chance at most alpha.  Holm's step-down procedure
(Holm, Scand. J. Statist. 6, 1979) keeps the family-wise rate under alpha
with the p-valued reports alone; the count of offsets at which it rejects
one of them at 0.01 is printed too.  Each offset runs the suites whole:
about 10 s for comparison and criticality together on a 2-CPU Xeon.

    python tests/seed_sweep.py comparison criticality [--offsets 5]

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from catbranch import harness  # noqa: E402

ALPHA = 0.01
SEED_STRIDE = 100_000_000


def holm_rejects(p_values: list[float], alpha: float) -> bool:
    """Whether Holm's step-down procedure at family level `alpha` rejects
    at least one hypothesis: it does iff the smallest p-value is at most
    alpha / m."""
    return bool(p_values) and min(p_values) <= alpha / len(p_values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("suites", nargs="+", choices=sorted(harness.SUITES))
    ap.add_argument("--offsets", type=int, default=5)
    args = ap.parse_args(argv)
    if args.offsets < 1:
        ap.error("--offsets must be >= 1")

    seeds = {name: inspect.signature(harness.SUITES[name]).parameters["seed"].default
             for name in args.suites}
    print(f"suites {', '.join(args.suites)}; {args.offsets} seed offsets "
          f"(default seed + j * {SEED_STRIDE}); alpha {ALPHA}")
    passed: dict[str, int] = {}
    stats: dict[str, list[float]] = {}
    lowest_p: dict[str, float] = {}
    families_failed = holm_families = 0
    for j in range(args.offsets):
        t0 = time.perf_counter()
        reports, errors = [], []
        for name in args.suites:
            try:
                reports += harness.run_suites(
                    [name], {name: {"seed": seeds[name] + j * SEED_STRIDE}},
                    echo=False)[0]
            except Exception as exc:  # fails the family; the sweep goes on
                traceback.print_exc()
                errors.append(f"{name} raised {type(exc).__name__}: {exc}")
        for r in reports:
            passed[r.name] = passed.get(r.name, 0) + bool(r.passed)
            stats.setdefault(r.name, []).append(float(r.statistic))
            if r.p_value is not None:
                lowest_p[r.name] = min(lowest_p.get(r.name, 1.0), r.p_value)
        p_values = [r.p_value for r in reports if r.p_value is not None]
        failing = [r.name for r in reports if not r.passed] + errors
        families_failed += bool(failing)
        holm_families += holm_rejects(p_values, ALPHA)
        print(f"offset {j}: {time.perf_counter() - t0:6.1f} s, failing: "
              f"{', '.join(failing) or 'none'}", flush=True)

    width = max(map(len, passed), default=0)
    print(f"\n{'report':<{width}}  passed  {'statistic range':<21}  lowest p")
    for name, count in passed.items():
        p = f"{lowest_p[name]:.4g}" if name in lowest_p else "-"
        span = f"{min(stats[name]):.4g} .. {max(stats[name]):.4g}"
        print(f"{name:<{width}}  {f'{count}/{args.offsets}':<6}  {span:<21}  {p}")
    m = len(passed)
    print(f"\nfamily-wise false-fail rate: {families_failed}/{args.offsets} offsets "
          f"with a failing report or a raise "
          f"({families_failed / args.offsets:.2f}); "
          f"Bonferroni bound for {m} reports at alpha {ALPHA}: "
          f"{min(1.0, m * ALPHA):.2f}")
    if lowest_p:
        print(f"Holm step-down at {ALPHA} over the {len(lowest_p)} p-valued "
              f"reports: rejects at {holm_families}/{args.offsets} offsets")
    else:
        print("Holm step-down: no report of these suites has a p-value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
