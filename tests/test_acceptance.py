"""
Acceptance criteria, one test per criterion, at frozen seeds and sizes.

 1. hitting probability of the mass pair vs the closed form, +-0.015
 2. particle extinction law vs I/(1+I) at t in {0.5, 1, 2}, +-0.015 each
 3. neighbor MRCA height law vs its CDF, KS at alpha=0.01
 4. forest <-> contour codec exactness on 1000 random forests
 5. point-process reconstruction equals direct distances on 1000 forests
 6. recording equivalence (branch-event vs birth-death), two-sample KS
 7. particle contour law vs flip-clock contour law, two-sample tests
 8. limit-contour depth intensity in pinned bins, Poisson at alpha=0.01
 9. rescaled-particle depth counts vs limit intensity, chi-square;
    doubled-rescaling bias documented
10. zero-mark counts vs Poisson dispersion
11. metric stretching between quenched and constant-rate forests, KS
12. different-tree probability inequality with matched tree counts
13. quadratic-variation growth dichotomy across thresholds
14. martingale means for all four mass processes (smoke)

Every test prints one PASS/FAIL line per report so a suite run reads as a
checklist; sizes are the defaults frozen in `catbranch.harness`.  Each test
also pins the sha256 of its suite's JSON report: a change that keeps the
random streams must leave the report byte-identical.
"""

import hashlib

from catbranch import harness


def _check(reports, digest, allow_documentation=False):
    for r in reports:
        print(r.line())
    for r in reports:
        if allow_documentation and r.test == "documentation only":
            continue
        assert r.passed, r.line()
    got = hashlib.sha256(harness.reports_to_json(reports).encode()).hexdigest()
    assert got == digest


class TestAcceptance:
    def test_01_hitting_probability(self):
        # recorded after the race's first epoch became 0.25 time units
        # instead of 1 (and its epoch cap 22 instead of 20), a change of
        # this suite's stream only
        _check(harness.run_hitting_prob(),
               "46211117952a19b5eadaf9e135687309cd299a079c2737608c92e71fc1c5a186")

    def test_02_extinction_law(self):
        _check(harness.run_extinction(),
               "ad1fafd3c82480add648935d2d63f36a7fcdf6df6f642917ebe48af56e6bde1e")

    def test_03_mrca_law(self):
        _check(harness.run_mrca(),
               "2e7abef0e42e6fb602d3334f6dc4658f248b9f4bdfb23615c0f52c81eea2393c")

    def test_04_codec_exactness(self):
        _check(harness.run_codec(),
               "d87ed16fbc800261f4ad88cf26ef16a1c1957b4ae7f190ff0b7e6e3673a4f342")

    def test_05_point_process_consistency(self):
        _check(harness.run_points(),
               "33645208d153f3280599b328529fa524fabdb539d2c1cb11b9c1ec2abdf83901")

    def test_06_representation_equivalence(self):
        _check(harness.run_representation(),
               "0ee65d178f9961edd16376476e2fb521fd84a3ca8312a09ddef8e37e584ff514")

    def test_07_random_evolution_equivalence(self):
        # recorded after the leaf-count chi-square took its p-value from the
        # closed-form tail at whole degrees of freedom instead of a port of
        # `scipy.special.chdtrc`: the same draws, a p-value 8e-16 higher
        _check(harness.run_random_evolution(),
               "51cb012e5ab0973a86018f3770558ddb4752afce3e400c98d2f7d240907f0ce9")

    def test_08_limit_contour_intensity(self):
        _check(harness.run_limit_intensity(),
               "2e663c3781a8b71c22de2cefdd146c9c9d12793f01e9803bdc9dd1ff395b5102")

    def test_09_reactant_intensity_finite_rescaling(self):
        _check(harness.run_reactant_intensity(),
               "dad623c574478ec18d377cf0e618e5700014dc9fb98acb5561573f06df4fa698",
               allow_documentation=True)

    def test_10_tree_count_poisson(self):
        _check(harness.run_tree_count(),
               "6d50b5643d106c3e794a4b31f0bad75b62c23817a7cf71f93e83770423773e5c")

    def test_11_stretching(self):
        _check(harness.run_stretching(),
               "2c2d206ffdbd8e356cb5fed3098bbb23d15f1c9f73872a3905c2ce36c7d6a356")

    def test_12_comparison_inequality(self):
        _check(harness.run_comparison(),
               "eed810f442fa9a31b85b0ad1482246f4ec33187b56a74fe468124a188c727983")

    def test_13_qv_dichotomy(self):
        _check(harness.run_qv_dichotomy(),
               "60c2e9d3e9e5c2acb5050973adad0ed6e442a823dba2c8064e3ffb097928ec2d")

    def test_14_criticality_martingale(self):
        _check(harness.run_criticality(),
               "456e5a9bcebc1b8c9e99195017261a08c5822b42d6a496f41055bf9710861c55")
