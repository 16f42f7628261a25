import json
import math

import pytest

from catbranch import harness
from catbranch.errors import InputError
from catbranch.forest import ForestBuilder
from catbranch.oracles import OracleReport


class TestHelpers:
    def test_single_tree_probability_zero(self, cherry):
        sizes = harness._level_tree_sizes(cherry, 1.0)
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
        b = ForestBuilder()
        r = b.add_root(0.0)
        b.set_death(r, 1.0)
        f = b.freeze(height_cap=1.0)
        assert harness._level_tree_sizes(f, 3.0) == [1]


class TestRegistry:
    def test_all_criteria_covered(self):
        assert set(harness.SUITES) == {
            "hitting_prob", "extinction", "mrca", "codec", "points",
            "representation", "random_evolution", "limit_intensity",
            "reactant_intensity", "tree_count", "stretching", "comparison",
            "qv_dichotomy", "criticality"}

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


class TestReactantIntensity:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_documentation_report_without_replicas(self):
        reports = harness.run_reactant_intensity(replicas=12,
                                                 document_replicas=0)
        assert [r.name for r in reports] == ["reactant_intensity[n=50]"]
        # NaN or Infinity in the JSON fails the test
        json.loads(harness.reports_to_json(reports),
                   parse_constant=lambda c: pytest.fail(c))
