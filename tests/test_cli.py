import json
import os

import pytest

from catbranch.cli import main
from catbranch.forest import FamilyForest


def read(path):
    with open(path) as fh:
        return fh.read()


class TestSimulate:
    def test_requires_seed(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--b1", "--b2", "--delta", "--t-max"])
    def test_rejects_nan_parameter(self, tmp_path, capsys, flag):
        rc = main(["simulate", "--seed", "1", "--t-max", "1", flag, "nan",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "input error" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("args", [
        ["--seed", "-1"],
        ["--seed", "1", "--replicas", "-3"],
        ["--seed", "1", "--replicas", "0"],
        ["--seed", "1", "--jobs", "0"],
    ], ids=["negative-seed", "negative-replicas", "zero-replicas", "zero-jobs"])
    def test_rejects_bad_counts_and_seed(self, tmp_path, capsys, args):
        rc = main(["simulate", "--t-max", "1", *args, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and err.count("\n") == 1
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("level", ["0", "-0.5", "nan", "inf"])
    def test_rejects_bad_level_before_writing(self, tmp_path, capsys, level):
        out = tmp_path / "o"
        rc = main(["simulate", "--seed", "1", "--t-max", "1", "--level", level,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and err.count("\n") == 1
        assert not out.exists() or not os.listdir(out)

    def test_jobs_do_not_change_output(self, tmp_path):
        args = ["simulate", "--n", "2", "--seed", "11", "--t-max", "1.0",
                "--replicas", "3", "--contours", "--level", "0.5"]
        serial, parallel = tmp_path / "j1", tmp_path / "j2"
        assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
        names = sorted(os.listdir(serial))
        assert names == sorted(os.listdir(parallel))
        assert len(names) == 3 * 8 + 2
        for name in names:
            assert read(serial / name) == read(parallel / name)

    def test_deterministic_rerun(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["simulate", "--n", "2", "--b1", "1", "--b2", "1",
                "--seed", "7", "--t-max", "2.0", "--replicas", "2",
                "--contours", "--level", "0.5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            assert read(out1 / name) == read(out2 / name)
        assert "summary.json" in names

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=1\nb1=1.0\nb2=1.0\nt_max=1.0\nseed=5\n")
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--seed", "9",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads(read(out / "summary.json"))
        assert summary["config"]["seed"] == 9

    def test_outputs_parse_back(self, tmp_path):
        out = tmp_path / "o"
        main(["simulate", "--n", "1", "--seed", "3", "--t-max", "2.0",
              "--out", str(out)])
        with open(out / "r0000_catalyst_forest.txt") as fh:
            forest = FamilyForest.read(fh)
        assert len(forest) >= 1
        assert (out / "plot.gnuplot").exists()

    def test_delta_truncates_reactant(self, tmp_path):
        from catbranch.particle import MassPath, stopping_time
        out = tmp_path / "d"
        main(["simulate", "--n", "2", "--seed", "31", "--t-max", "6.0",
              "--delta", "0.5", "--out", str(out)])
        with open(out / "r0000_catalyst_mass.csv") as fh:
            cat = MassPath.read(fh)
        with open(out / "r0000_reactant_forest.txt") as fh:
            rf = FamilyForest.read(fh)
        cut = min(stopping_time(cat, 0.5), 6.0)
        assert rf.height_cap == pytest.approx(cut)


class TestConvert:
    def test_forest_contour_round_trip(self, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--n", "1", "--seed", "12", "--t-max", "3.0",
              "--out", str(out)])
        src = out / "r0000_catalyst_forest.txt"
        contour = tmp_path / "c.txt"
        back = tmp_path / "f.txt"
        assert main(["convert", str(src), str(contour), "--to", "contour",
                     "--speed", "2.0"]) == 0
        assert main(["convert", str(contour), str(back), "--to", "forest"]) == 0
        f1 = FamilyForest.from_text(read(src))
        f2 = FamilyForest.from_text(read(back))
        assert f1.canonical_shape() == f2.canonical_shape()

    def test_points_extraction_matches_library(self, tmp_path):
        from catbranch.points import GenealogicalPointProcess, point_process_at_level
        out = tmp_path / "sim"
        main(["simulate", "--n", "1", "--seed", "4", "--t-max", "3.0",
              "--out", str(out)])
        src = out / "r0000_catalyst_forest.txt"
        dst = tmp_path / "p.csv"
        assert main(["convert", str(src), str(dst), "--to", "points",
                     "--level", "0.4", "--spacing", "1.0"]) == 0
        with open(src) as fh:
            forest = FamilyForest.read(fh)
        with open(dst) as fh:
            got = GenealogicalPointProcess.read(fh)
        want = point_process_at_level(forest, 0.4, 1.0)
        assert got.heights == want.heights

    def test_bad_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        rc = main(["convert", str(bad), str(tmp_path / "x"), "--to", "contour"])
        assert rc == 2

    def test_corrupted_contour_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad_contour.txt"
        bad.write_text("# speed=2.0\n0.0 0.0\n0.5 0.5 junk\n1.0 0.0\n")
        rc = main(["convert", str(bad), str(tmp_path / "x"), "--to", "forest"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: malformed contour")
        assert "Traceback" not in err

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["convert", str(tmp_path / "nope"), str(tmp_path / "x"),
                   "--to", "contour"])
        assert rc == 2


class TestVerify:
    def test_small_suite_passes(self, tmp_path):
        rc = main(["verify", "--suite", "codec", "points",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(read(tmp_path / "verify_report.json"))
        assert all(entry["passed"] for entry in report)

    @pytest.mark.parametrize("args", [["--replicas", "0"], ["--seed", "-1"]],
                             ids=["zero-replicas", "negative-seed"])
    def test_rejects_bad_override(self, tmp_path, capsys, args):
        rc = main(["verify", "--suite", "extinction", *args,
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and err.count("\n") == 1
        assert not os.listdir(tmp_path)

    def test_unknown_suite(self, tmp_path):
        rc = main(["verify", "--suite", "nonsense", "--out", str(tmp_path)])
        assert rc == 2

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        import catbranch.harness as hz
        from catbranch.oracles import OracleReport

        def fake(**kw):
            return [OracleReport(name="x", law="y", statistic=0.0,
                                 target=1.0, test="t", p_value=0.0,
                                 alpha_or_tol=0.01, passed=False)]

        monkeypatch.setitem(hz.SUITES, "codec", fake)
        rc = main(["verify", "--suite", "codec", "--out", str(tmp_path)])
        assert rc == 1

    def test_overflow_exit_code(self, tmp_path, monkeypatch):
        import catbranch.cli as cli_mod
        from catbranch.errors import PopulationCapError

        def boom(payload):
            raise PopulationCapError("cap")

        monkeypatch.setattr(cli_mod, "_run_replica", boom)
        rc = main(["simulate", "--n", "1", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 3
