import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from catbranch import harness
from catbranch.errors import InputError
from catbranch.forest import FamilyForest
from catbranch.oracles import OracleReport


def _benchmark_workloads():
    """`perfbench/workloads.py`, which states the suite arguments of the
    benchmark, loaded without putting `perfbench/` on the import path."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _benchmark_workloads()


class TestTracerHooks:
    def test_extra_private_names_are_functions_of_their_modules(self):
        # the tracer wraps these private functions by name; a rename in the
        # package would silently drop them from the per-layer metrics
        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.EXTRA_PRIVATE
        for module, names in tracer.EXTRA_PRIVATE.items():
            mod = importlib.import_module(f"catbranch.{module}")
            for name in names:
                fn = getattr(mod, name, None)
                assert inspect.isfunction(fn), f"{module}.{name}"
                assert fn.__module__ == mod.__name__, f"{module}.{name}"


class TestHelpers:
    def test_single_tree_probability_zero(self, cherry):
        sizes = np.bincount(harness._level_trees(cherry, 1.0)[1]).tolist()
        assert sizes == [2]
        assert harness._different_tree_prob(sizes) == 0.0

    def test_singletons_probability(self):
        # k singleton trees: two uniform picks differ with chance 1 - 1/k
        for k in (2, 5, 8):
            p = harness._different_tree_prob([1] * k)
            assert p == pytest.approx(1.0 - 1.0 / k)

    def test_empty_level_nan(self):
        assert math.isnan(harness._different_tree_prob([]))

    def test_capped_forest_reads_at_cap(self):
        f = FamilyForest.from_children([-1], [0.0], [1.0], [[]], [0],
                                       height_cap=1.0)
        assert np.bincount(harness._level_trees(f, 3.0)[1]).tolist() == [1]


class TestRegistry:
    def test_all_criteria_covered(self):
        assert set(harness.SUITES) == {
            "hitting_prob", "extinction", "mrca", "codec", "points",
            "representation", "random_evolution", "limit_intensity",
            "reactant_intensity", "tree_count", "stretching", "comparison",
            "qv_dichotomy", "criticality"}

    def test_suites_take_only_the_arguments_some_caller_sets(self):
        # laws, sizes, tolerances and levels are constants in each suite
        # body; the CLI sets seed and replicas (or count), the benchmark and
        # the tests set the rest
        assert {name: tuple(inspect.signature(fn).parameters)
                for name, fn in harness.SUITES.items()} == {
            "hitting_prob": ("seed", "replicas", "step"),
            "extinction": ("seed", "replicas"),
            "mrca": ("seed", "replicas"),
            "codec": ("seed", "count"),
            "points": ("seed", "count"),
            "representation": ("seed", "replicas"),
            "random_evolution": ("seed", "replicas"),
            "limit_intensity": ("seed", "replicas", "theta_step"),
            "reactant_intensity": ("seed", "replicas", "n", "document_replicas"),
            "tree_count": ("seed", "replicas"),
            "stretching": ("seed", "replicas"),
            "comparison": ("seed", "replicas", "z_replicas"),
            "qv_dichotomy": ("seed", "replicas", "theta_step"),
            "criticality": ("seed", "replicas", "n", "sde_replicas")}

    def test_unknown_suite_rejected(self):
        with pytest.raises(InputError):
            harness.run_suites(["nope"], echo=False)

    def test_run_and_serialize(self, capsys):
        reports, ok = harness.run_suites(["codec"], {"codec": {"count": 50}})
        assert ok and len(reports) == 1
        out = capsys.readouterr().out
        assert "[PASS] codec" in out
        parsed = json.loads(harness.reports_to_json(reports))
        assert parsed[0]["name"] == "codec"
        assert parsed[0]["passed"] is True

    def test_report_line_format(self):
        r = OracleReport(name="x", law="why", statistic=1.25, target=1.0,
                         test="z", p_value=0.5, alpha_or_tol=0.01, passed=True)
        assert r.line().startswith("[PASS] x:")


class TestBenchmarkArguments:
    @pytest.mark.parametrize("workload, size",
                             [(w, size) for w in workloads.VERIFY_SIZES
                              for size in ("full", "tiny")])
    def test_every_keyword_binds_to_its_suite(self, workload, size):
        # a suite that drops a keyword the benchmark passes would turn every
        # benchmark or smoke call into a failed operation
        for suite, kwargs in workloads.VERIFY_SIZES[workload][size].items():
            inspect.signature(harness.SUITES[suite]).bind_partial(**kwargs)


class TestBenchmarkWorkScaling:
    def test_every_engine_call_is_counted(self, monkeypatch):
        # the benchmark scales a pass's time by the events it counts at the
        # public `simulate_*` names; an engine call that bypassed them would
        # leave the time of one side of a comparison unscaled
        from catbranch import particle
        core = particle._simulate_population
        events = []

        def counted_core(*args, **kwargs):
            mass, forest = core(*args, **kwargs)
            events.append(mass.times.size - 1)
            return mass, forest

        bound = [(mod, name, getattr(mod, name))
                 for key, mod in list(sys.modules.items())
                 if key == "catbranch" or key.startswith("catbranch.")
                 for name in workloads.ENGINE_FUNCTIONS if hasattr(mod, name)]
        with monkeypatch.context() as patch:
            for mod, name, fn in bound:  # undone when the context exits
                patch.setattr(mod, name, fn)
            patch.setattr(particle, "_simulate_population", counted_core)
            counter = workloads.EngineEvents()
            counter.install()
            suites = workloads.VERIFY_SIZES["forest_gate"]["tiny"]
            res = workloads.verify_pass(harness, suites,
                                        workloads.suite_seeds(harness, suites),
                                        workloads.pass_offset(1, 0))
        assert res.failed == 0, res.errors
        assert events and counter.count == sum(events)
        assert particle._simulate_population is core
        assert all(getattr(mod, name) is fn for mod, name, fn in bound)


class TestBenchmarkSetUp:
    def test_worker_set_up_runs(self):
        # the worker's warm-up calls names and options of the package (the
        # limit contour, `_x_identity_path`, `poisson_count_test(n_sim=)`);
        # removing one would fail every benchmark run before its first pass
        worker = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                              "worker.py")
        got = subprocess.run(
            [sys.executable, worker, "--workload", "forest_gate", "--setup-only"],
            capture_output=True, text=True, timeout=120)
        assert got.returncode == 0, got.stderr
        assert "@ready" in got.stdout.splitlines()


class TestComparison:
    def test_euler_estimate_agrees_with_the_closed_form(self):
        reports = harness.run_comparison(replicas=2, z_replicas=6_000)
        assert len(reports) == 2
        for d in (r.details for r in reports):
            assert abs(d["z_euler"] - d["z"]) <= 4.0 * d["z_euler_se"]

    def test_no_euler_estimate_by_default(self):
        reports = harness.run_comparison(replicas=2)
        assert [r.details["z"] for r in reports] == pytest.approx(
            [1.5, 2.2758474084])
        assert [r.details["matched_initial_mass"] for r in reports] == [1.5, 2.275]
        assert all("z_euler" not in r.details for r in reports)


class TestQuenchedRuns:
    @pytest.mark.parametrize("consumer", [
        lambda: harness._reactant_level_sizes(40, 12_000_000, 40, 0.5, 0.75),
        lambda: harness._joint_masses(40, 14_000_000, 20, (0.25, 0.5, 1.0))],
        ids=["reactant_level_sizes", "joint_masses"])
    def test_last_reactant_forest_is_freed_before_the_next_catalyst(
            self, monkeypatch, consumer):
        catalyst = harness.simulate_catalyst
        reactant = harness.simulate_reactant_quenched
        refs, alive = [], []

        def counting_catalyst(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            return catalyst(*args, **kwargs)

        def recording_reactant(*args, **kwargs):
            out = reactant(*args, **kwargs)
            refs.append(weakref.ref(out[1].birth))  # forests take no weakref
            return out

        monkeypatch.setattr(harness, "simulate_catalyst", counting_catalyst)
        monkeypatch.setattr(harness, "simulate_reactant_quenched", recording_reactant)
        consumer()
        assert len(alive) > 1 and alive == [0] * len(alive)


class TestHittingProbMutant:
    """The `hitting_prob` gate fails on a wrong reactant rate.

    The mutant runs the race with b2 x 1.25 behind the suite's back, which
    moves the law from 0.4472 to 0.4880; the suite still compares with the
    b2 = 1 target.  At 4000 replicas and step 1e-3 (SE about 0.008), on
    the race's first epoch of 0.25 time units, the mutant fell outside the
    0.015 tolerance at all of seeds 0-19 (+0.027 ... +0.052), and the right
    model inside it at 19 of them (seed 6 read +0.0225).  Seed 101 is the
    gate's: the right model read +0.0103 there, the mutant +0.0408."""

    @staticmethod
    def run():
        return harness.run_hitting_prob(seed=101, replicas=4_000, step=1e-3)[0]

    def test_right_model_passes(self):
        report = self.run()
        assert report.passed
        assert report.target == pytest.approx(1.0 / math.sqrt(5.0))

    def test_faster_reactant_fails(self, monkeypatch):
        race = harness.dfn.hitting_race

        def mutant(n, cfg, *args, **kwargs):
            return race(n, dataclasses.replace(cfg, b2=1.25 * cfg.b2),
                        *args, **kwargs)

        monkeypatch.setattr(harness.dfn, "hitting_race", mutant)
        report = self.run()
        assert not report.passed
        assert report.statistic > report.target + report.alpha_or_tol


class TestExtinctionMutant:
    """The `extinction` gate fails on the undoubled clock.

    The mutant halves the engine's rate behind the suite's back: every
    inverse cumulative hazard is built at half the rate scale, so an
    individual branches at rate n b medium instead of 2 n b medium, and
    the extinction law moves from I/(1+I) to (I/2)/(1+I/2).  At the suite's
    default seed and 20 000 replicas the mutant read 0.2008, 0.3331 and
    0.5008 at t = 0.5, 1 and 2 against 1/3, 1/2 and 2/3 (tolerance 0.015),
    and the right model 0.3338, 0.5007 and 0.6681 (`test_acceptance.py`
    checks that it passes)."""

    def test_undoubled_clock_fails(self, monkeypatch):
        from catbranch import particle
        time_of_hazard = particle._time_of_hazard
        monkeypatch.setattr(
            particle, "_time_of_hazard",
            lambda medium, rate_scale, horizon:
                time_of_hazard(medium, 0.5 * rate_scale, horizon))
        reports = harness.run_extinction()
        assert [r.name for r in reports] == [
            "extinction[t=0.5]", "extinction[t=1.0]", "extinction[t=2.0]"]
        for r in reports:
            assert not r.passed, r.line()
            assert r.statistic < r.target - r.alpha_or_tol


class _BiasedCoin:
    """A generator whose uniforms fall below 0.5 with chance 0.53, so that
    the engine's 0-or-2 offspring coin (galton_watson recording) splits
    with chance 0.53: a supercritical population."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size=None):
        return self._rng.random(size) * (0.5 / 0.53)


class TestCriticalityMutant:
    """The particle half of `criticality` fails on a split coin of 0.53.

    The mutant wraps the engine's generators behind the suite's back.  At
    n = 5 and 1000 replicas the catalyst mean at t = 1 moves by about 12 SE
    and the reactant's by about 9; over seeds 14_000_000-14_000_005 the
    mutant failed both reports at all six seeds, and the right model passed
    both at five (the sixth read 3.8 SE on the reactant).  A smaller n keeps
    the supercritical populations small: at the gate's n = 20 the reactant
    grows by a factor of about e^10."""

    @staticmethod
    def run():
        return harness.run_criticality(replicas=1_000, n=5, sde_replicas=1_000)[:2]

    def test_right_model_passes(self):
        assert all(r.passed for r in self.run())

    def test_biased_coin_fails(self, monkeypatch):
        from catbranch import particle
        stream = particle._stream
        monkeypatch.setattr(particle, "_stream",
                            lambda seed, which: _BiasedCoin(stream(seed, which)))
        reports = self.run()
        assert [r.name for r in reports] == ["criticality[catalyst]",
                                             "criticality[reactant]"]
        assert not any(r.passed for r in reports)


class TestEmptySamples:
    def test_random_evolution_reports_an_empty_sample(self, monkeypatch):
        # no valid size empties its samples, so the particle side is emptied
        monkeypatch.setattr(harness, "_tree_heights_and_leaves",
                            lambda *a, **k: (np.array([]), np.array([], dtype=int)))
        reports = harness.run_random_evolution(replicas=5)
        assert [r.passed for r in reports] == [False, False]
        assert [r.details["empty_samples"] for r in reports] == [["particle"]] * 2
        json.loads(harness.reports_to_json(reports),
                   parse_constant=lambda c: pytest.fail(c))

    def test_non_finite_values_still_raise(self):
        with pytest.raises(InputError, match="finite"):
            harness._ks_or_empty(harness.orc.two_sample_ks, a=np.array([math.nan]),
                                 b=np.array([1.0]))


class TestReactantIntensity:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_documentation_report_without_replicas(self):
        reports = harness.run_reactant_intensity(replicas=12,
                                                 document_replicas=0)
        assert [r.name for r in reports] == ["reactant_intensity[n=50]"]
        # NaN or Infinity in the JSON fails the test
        json.loads(harness.reports_to_json(reports),
                   parse_constant=lambda c: pytest.fail(c))


class TestLimitIntensity:
    def test_maps_only_the_band_of_each_contour(self, monkeypatch):
        inverse = harness.dfn.ScaleFunction.inverse
        contour = harness.dfn._limit_contour_from_scale
        mapped, contours = [], []

        def counting_inverse(self, w):
            mapped.append(np.size(w))
            return inverse(self, w)

        def recording_contour(*args, **kwargs):
            contours.append(contour(*args, **kwargs))
            return contours[-1]

        monkeypatch.setattr(harness.dfn.ScaleFunction, "inverse", counting_inverse)
        monkeypatch.setattr(harness.dfn, "_limit_contour_from_scale", recording_contour)
        harness.run_limit_intensity(replicas=6, theta_step=1e-4)
        held = sum(z.brownian.size for z in contours)
        assert len(contours) == 6 and 0 < sum(mapped) < held / 4
        assert all("values" not in vars(z) for z in contours)


class TestQvDichotomy:
    def test_empty_group_is_an_input_error(self):
        with pytest.raises(InputError, match="group is empty"):
            harness.run_qv_dichotomy(replicas=1, theta_step=1e-3)

    def test_a_capped_contour_fails_the_monotone_report(self, monkeypatch):
        contour = harness.dfn._limit_contour_from_scale
        calls = []

        def cap_the_first(*args, **kwargs):
            calls.append(kwargs["seed"])
            if len(calls) == 1:
                kwargs["max_steps"] = 0
            return contour(*args, **kwargs)

        monkeypatch.setattr(harness.dfn, "_limit_contour_from_scale", cap_the_first)
        monotone, *groups = harness.run_qv_dichotomy(replicas=20, theta_step=1e-3)
        assert len(calls) > 1 and len(groups) == 2
        assert monotone.name == "qv_dichotomy[monotone]"
        assert not monotone.passed and monotone.statistic == 0.0
        assert monotone.details == {"kept": len(calls), "capped": 1}
        # the capped replica is in neither group
        assert sum(g.details["n"] for g in groups) == len(calls) - 1
