"""Per-layer tracing of catbranch from outside the package.

`Tracer.install()` wraps, in place, the public module-level functions of
each catbranch module, the public bulk methods of `FamilyForest`, and the
private `diffusion._limit_contour_from_scale` that `qv_dichotomy` calls.  A
wrapper is installed wherever a caller looks the name up: in the defining
module, in every catbranch module (and the package) that imported the name,
and in `harness.SUITES`.

Each wrapped call is a span.  A span's self time is its duration minus the
time spent in the spans it called, and self times are summed per module, so
they add up to the time covered by top-level spans; `remainder_s` is the rest
of the traced pass (the benchmark's own code and the tracer's bookkeeping,
which is taken out of the spans).

Per-element accessors (`FamilyForest.death_height`, `genealogical_distance`
and the like), generator methods, `ForestBuilder` and the methods of the
small data classes (`MassPath`, `Excursion`, ...) are not wrapped: they run
in the inner loops of other layers, and their time counts to the caller.
The engine's self time is therefore the `simulate_*` spans minus their
`truncate` children.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

MODULES = ("particle", "forest", "points", "contour", "diffusion", "oracles",
           "harness", "cli")

EXTRA_PRIVATE = {"diffusion": ("_limit_contour_from_scale",)}

FOREST_ACCESSORS = frozenset({
    "point_height", "death_height", "edge_length", "mrca_height",
    "genealogical_distance", "dfs_order"})

# qualified name -> metric group; a group's time is the summed duration of
# its outermost calls
GROUPS = {
    "particle.simulate_catalyst": "particle.simulate",
    "particle.simulate_reactant_quenched": "particle.simulate",
    "particle.simulate_joint": "particle.simulate",
    "forest.FamilyForest.truncate": "forest.truncate",
    "forest.FamilyForest.level_set": "forest.level_set",
    "forest.FamilyForest.tree_index": "forest.tree_index",
    "forest.FamilyForest.read": "forest.read",
    "forest.FamilyForest.write": "forest.write",
    "points.point_process_at_level": "points.point_process",
    "points.reconstruct_distance_matrix": "points.reconstruct",
    "points.pairwise_level_distances": "points.pairwise",
    "contour.contour_from_forest": "contour.encode",
    "contour.tree_from_excursion": "contour.decode",
    "diffusion.hitting_race": "diffusion.hitting_race",
    "diffusion.simulate_limit_contour": "diffusion.limit_contour",
    "diffusion._limit_contour_from_scale": "diffusion.limit_contour",
    "diffusion.bridge_refined_depths": "diffusion.bridge_depths",
    "diffusion.scale_function": "diffusion.scale_function",
    "diffusion.scale_function_from_mass_path": "diffusion.scale_function",
    "cli.cmd_simulate": "cli.simulate",
    "cli.cmd_convert": "cli.convert",
}


def _forests(obj, FamilyForest):
    """Forests inside a (nested tuple) return value."""
    if isinstance(obj, FamilyForest):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _forests(item, FamilyForest)


def _tell(fh) -> int:
    try:
        return fh.tell()
    except (OSError, ValueError):
        return 0


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [module, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.group_calls: dict[str, int] = defaultdict(int)
        self.group_depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.unread: set[int] = set()  # ids of engine forests not yet read
        self.groups = dict(GROUPS)
        self.FamilyForest = None

    # -- installation -------------------------------------------------- #

    def install(self) -> None:
        mods = {name: sys.modules[f"catbranch.{name}"] for name in MODULES}
        FamilyForest = mods["forest"].FamilyForest
        self.FamilyForest = FamilyForest
        suites = mods["harness"].SUITES
        for key, fn in suites.items():
            self.groups[f"harness.{fn.__name__}"] = f"harness.{key}"
        swap: dict[int, object] = {}
        for name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA_PRIVATE.get(name, ()):
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                swap[id(fn)] = self._wrap(fn, name, f"{name}.{attr}")
        for attr, raw in list(vars(FamilyForest).items()):
            if attr.startswith("_") or attr in FOREST_ACCESSORS:
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            wrapped = self._wrap(fn, "forest", f"forest.FamilyForest.{attr}")
            setattr(FamilyForest, attr,
                    classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
        self._hook_forest_init(FamilyForest)
        # rebind every name that points at a wrapped function
        for key, mod in list(sys.modules.items()):
            if key == "catbranch" or key.startswith("catbranch."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and id(value) in swap:
                        setattr(mod, attr, swap[id(value)])
        for key, fn in list(suites.items()):
            suites[key] = swap.get(id(fn), fn)

    def _hook_forest_init(self, FamilyForest) -> None:
        """A new forest whose id is still registered means the registered
        engine forest died unread; forget the stale id."""
        init = FamilyForest.__init__
        unread = self.unread

        def __init__(obj, *args, **kwargs):
            unread.discard(id(obj))
            init(obj, *args, **kwargs)

        FamilyForest.__init__ = __init__

    def _wrap(self, fn, module: str, qual: str):
        stack = self.stack
        self_s = self.self_s
        group_depth = self.group_depth
        group_s = self.group_s
        group_calls = self.group_calls
        unread = self.unread
        counts = self.counts
        FamilyForest = self.FamilyForest
        clock = time.perf_counter
        after = self._after
        group = self.groups.get(qual, "oracles" if module == "oracles" else None)
        is_write = qual == "forest.FamilyForest.write"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = clock()
            if unread:
                for a in args:
                    if type(a) is FamilyForest and id(a) in unread:
                        unread.discard(id(a))
                        counts["particle.forests_read"] += 1
            outer = group is not None and group_depth[group] == 0
            if group is not None:
                group_depth[group] += 1
            before = _tell(args[1]) if is_write else 0
            frame = [module, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_s[module] += (end - start) - frame[1]
                if group is not None:
                    group_depth[group] -= 1
                    if outer:
                        group_s[group] += end - start
                        group_calls[group] += 1
                if stack:
                    stack[-1][1] += end - enter
            if outer:
                after(group, args, result, before)
            if stack:
                stack[-1][1] += clock() - end
            return result

        return wrapper

    def _after(self, group: str, args, result, before: int) -> None:
        c = self.counts
        if group == "particle.simulate":
            for forest in _forests(result, self.FamilyForest):
                c["particle.nodes"] += len(forest)
                c["particle.forests"] += 1
                self.unread.add(id(forest))
            pops = result if isinstance(result[0], tuple) else (result,)
            for mass, _forest in pops:
                c["particle.events"] += mass.times.size - 1
        elif group == "forest.truncate":
            forest, t = args[0], args[1]
            c["forest.truncate.nodes"] += len(forest)
            finite = [d for d in forest.death if d != math.inf]
            if t >= max(finite, default=0.0):
                c["forest.truncate.at_horizon"] += 1
        elif group in ("forest.level_set", "points.point_process", "contour.encode"):
            c[f"{group}.nodes"] += len(args[0])
        elif group == "forest.read":
            c["forest.read.nodes"] += len(result)
        elif group == "forest.write":
            c["forest.write.bytes"] += max(_tell(args[1]) - before, 0)
        elif group == "contour.decode":
            c["contour.decode.breakpoints"] += len(args[0].u)
        elif group == "diffusion.limit_contour":
            c["diffusion.limit_contour.steps"] += result.values.size

    # -- results --------------------------------------------------------- #

    def layer_metrics(self, wall: float, untraced_wall: float, suites,
                      io_stats: dict) -> dict:
        """Every per-layer metric of the traced pass, as name -> {value, unit}.

        `suites` are the suites of every workload, so one the workload does
        not run reads 0; `io_stats` holds the files and bytes the pass wrote.
        """
        g, calls, c, own = self.group_s, self.group_calls, self.counts, self.self_s
        out: dict = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        def rate(n, t):
            return n / t if t > 0 else 0.0

        put("particle.calls", calls["particle.simulate"], "count")
        put("particle.self_s", own["particle"], "s")
        put("particle.events", c["particle.events"], "count")
        put("particle.events_per_s", rate(c["particle.events"], own["particle"]), "1/s")
        put("particle.nodes", c["particle.nodes"], "count")
        put("particle.forest_read_ratio",
            rate(c["particle.forests_read"], c["particle.forests"]), "ratio")
        put("forest.self_s", own["forest"], "s")
        put("forest.truncate.calls", calls["forest.truncate"], "count")
        for name in ("truncate", "level_set"):
            put(f"forest.{name}.s", g[f"forest.{name}"], "s")
            put(f"forest.{name}.nodes_per_s",
                rate(c[f"forest.{name}.nodes"], g[f"forest.{name}"]), "1/s")
        put("forest.truncate.at_horizon_ratio",
            rate(c["forest.truncate.at_horizon"], calls["forest.truncate"]), "ratio")
        put("forest.tree_index.s", g["forest.tree_index"], "s")
        put("forest.read.s", g["forest.read"], "s")
        put("forest.read.nodes_per_s", rate(c["forest.read.nodes"], g["forest.read"]), "1/s")
        put("forest.write.s", g["forest.write"], "s")
        put("forest.write.bytes", c["forest.write.bytes"], "B")
        put("points.self_s", own["points"], "s")
        put("points.point_process.calls", calls["points.point_process"], "count")
        put("points.point_process.s", g["points.point_process"], "s")
        put("points.point_process.nodes_per_s",
            rate(c["points.point_process.nodes"], g["points.point_process"]), "1/s")
        put("points.reconstruct.s", g["points.reconstruct"], "s")
        put("points.pairwise.s", g["points.pairwise"], "s")
        put("contour.self_s", own["contour"], "s")
        put("contour.encode.s", g["contour.encode"], "s")
        put("contour.encode.nodes_per_s",
            rate(c["contour.encode.nodes"], g["contour.encode"]), "1/s")
        put("contour.decode.s", g["contour.decode"], "s")
        put("contour.decode.breakpoints_per_s",
            rate(c["contour.decode.breakpoints"], g["contour.decode"]), "1/s")
        put("diffusion.self_s", own["diffusion"], "s")
        for name in ("hitting_race", "limit_contour", "bridge_depths", "scale_function"):
            put(f"diffusion.{name}.s", g[f"diffusion.{name}"], "s")
        put("diffusion.limit_contour.steps_per_s",
            rate(c["diffusion.limit_contour.steps"], g["diffusion.limit_contour"]), "1/s")
        put("oracles.self_s", own["oracles"], "s")
        put("oracles.calls", calls["oracles"], "count")
        put("oracles.s", g["oracles"], "s")
        put("harness.self_s", own["harness"], "s")
        for suite in suites:
            put(f"harness.{suite}.s", g[f"harness.{suite}"], "s")
        put("cli.self_s", own["cli"], "s")
        put("cli.simulate.s", g["cli.simulate"], "s")
        put("cli.convert.s", g["cli.convert"], "s")
        put("cli.files_written", io_stats.get("files_written", 0), "count")
        put("cli.bytes_written", io_stats.get("bytes_written", 0), "B")
        put("trace.wall_s", wall, "s")
        put("trace.overhead_s", wall - untraced_wall, "s")
        put("trace.remainder_s", wall - sum(own[m] for m in MODULES), "s")
        return out
