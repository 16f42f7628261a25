"""The seed sweep goes on past a suite that raises, and counts its offset
as a failed family."""

import seed_sweep
from catbranch import harness
from catbranch.errors import InputError
from catbranch.oracles import OracleReport


def _fake(seed: int = 0) -> list[OracleReport]:
    if seed == 2 * seed_sweep.SEED_STRIDE:
        raise InputError("no contour")
    return [OracleReport(name="fake", law="-", statistic=float(seed), target=0.0,
                         test="-", p_value=0.5, alpha_or_tol=0.01, passed=True)]


def test_a_raising_offset_is_a_failed_family(monkeypatch, capsys):
    monkeypatch.setitem(harness.SUITES, "fake", _fake)
    assert seed_sweep.main(["fake", "--offsets", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    offsets = [line for line in lines if line.startswith("offset")]
    assert len(offsets) == 4
    assert offsets[2].endswith("failing: fake raised InputError: no contour")
    assert all(line.endswith("failing: none") for line in offsets[:2] + offsets[3:])
    # the summary: the report passed at the three offsets that ran it
    assert any(line.split()[:2] == ["fake", "3/4"] for line in lines)
    assert any("false-fail rate: 1/4 offsets" in line for line in lines)


def test_every_offset_raising_still_prints_the_summary(monkeypatch, capsys):
    def broken(seed: int = 0):
        raise InputError("no contour")

    monkeypatch.setitem(harness.SUITES, "broken", broken)
    assert seed_sweep.main(["broken", "--offsets", "2"]) == 0
    out = capsys.readouterr().out
    assert "false-fail rate: 2/2 offsets" in out
    assert "no report of these suites has a p-value" in out
