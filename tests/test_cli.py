import hashlib
import json
import os

import pytest

from catbranch.cli import main
from catbranch.forest import FamilyForest


def read(path):
    with open(path) as fh:
        return fh.read()


def tree_digest(root) -> str:
    """sha256 over the relative names and bytes of every file under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                h.update(os.path.relpath(path, root).encode() + b"\0" + fh.read())
    return h.hexdigest()


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

    @pytest.mark.parametrize("line", ["b1=abc", "n=2.5"])
    def test_config_file_bad_value_exit_code(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"t_max=1.0\n{line}\n")
        rc = main(["simulate", "--config", str(cfg), "--seed", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and err.count("\n") == 1

    @pytest.mark.parametrize("line", ["seed=x", "b1=abc"])
    def test_config_file_bad_value_under_a_flag_exit_code(self, tmp_path,
                                                          capsys, line):
        # the flag overrides the key, but the file is checked whole first
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"t_max=1.0\n{line}\n")
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--seed", "1",
                   "--b1", "1.0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and err.count("\n") == 1
        assert line.split("=")[0] in err
        assert not out.exists()

    def test_config_file_unknown_key_exit_code(self, tmp_path, capsys):
        # a misspelt key used to be dropped, and the run went on without it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tmax=1\n")
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--seed", "1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and "tmax" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("mass", ["1e300", "1e8"])
    def test_root_count_above_the_cap_exits_3(self, tmp_path, capsys, mass):
        # 2e300 roots used to die in the roots' permutation with a traceback
        rc = main(["simulate", "--seed", "1", "--n", "2",
                   "--initial-reactant-mass", mass, "--t-max", "1",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == \
            "resource overflow: node budget exceeded: more than 30000000 nodes\n"

    def test_failed_run_leaves_no_out_directory(self, tmp_path, capsys):
        # the directory used to be made before the replicas ran
        out = tmp_path / "d"
        rc = main(["simulate", "--seed", "1", "--initial-catalyst-mass", "1e300",
                   "--t-max", "1", "--out", str(out)])
        assert rc == 3
        assert "node budget exceeded" in capsys.readouterr().err
        assert not out.exists()


class TestOutputBytes:
    def test_simulate_and_convert_bytes_are_pinned(self, tmp_path):
        # every file format's writer, with the engine's and the codec's
        # floats; the digest is of the files as first written
        sim, conv = tmp_path / "sim", tmp_path / "conv"
        conv.mkdir()
        assert main(["simulate", "--n", "3", "--t-max", "0.5", "--seed", "7",
                     "--replicas", "2", "--contours", "--level", "0.25",
                     "--out", str(sim)]) == 0
        for name in sorted(os.listdir(sim)):
            if name.endswith("_forest.txt"):
                src = str(sim / name)
                stem = str(conv / name[:-len("_forest.txt")])
                assert main(["convert", src, stem + "_c.txt", "--to", "contour",
                             "--speed", "6.0"]) == 0
                assert main(["convert", stem + "_c.txt", stem + "_f.txt",
                             "--to", "forest"]) == 0
                assert main(["convert", src, stem + "_p.csv", "--to", "points",
                             "--level", "0.25", "--spacing", repr(1 / 3)]) == 0
        assert len(os.listdir(sim)) == 18 and len(os.listdir(conv)) == 12
        assert tree_digest(tmp_path) == (
            "2e442b6c25874cf3211e8134b898844b552ee6ff0c7afe4dc13f6b99cb768b21")


class TestConvert:
    def test_parser_keeps_no_state_between_calls(self, tmp_path, capsys, cherry):
        src, dst = tmp_path / "cherry.txt", tmp_path / "p.csv"
        src.write_text(cherry.to_text())
        assert main(["convert", str(src), str(dst), "--to", "points",
                     "--level", "0.5"]) == 0
        dst.unlink()
        capsys.readouterr()
        # the same command without --level: no level left from the first call
        assert main(["convert", str(src), str(dst), "--to", "points"]) == 2
        assert "needs --level" in capsys.readouterr().err
        assert not dst.exists()

    def test_root_born_above_zero_exit_code(self, tmp_path, capsys):
        src, dst = tmp_path / "late_root.txt", tmp_path / "c.txt"
        src.write_text("# roots=0 height_cap=none\n0 -1 0.5 1.0\n")
        rc = main(["convert", str(src), str(dst), "--to", "contour"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and "born at 0.5" in err
        assert not dst.exists()

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

    @pytest.mark.parametrize("args", [
        ["--to", "points", "--level", "nan"],
        ["--to", "points", "--level", "inf"],
        ["--to", "points", "--level", "0.75", "--spacing", "nan"],
        ["--to", "points", "--level", "0.75", "--spacing", "inf"],
        ["--to", "contour", "--speed", "nan"],
        ["--to", "contour", "--speed", "inf"],
    ], ids=["nan-level", "inf-level", "nan-spacing", "inf-spacing",
            "nan-speed", "inf-speed"])
    def test_rejects_non_finite_option(self, tmp_path, capsys, cherry, args):
        src = tmp_path / "cherry.txt"  # uncapped, so no cap catches inf
        src.write_text(cherry.to_text())
        dst = tmp_path / "out"
        rc = main(["convert", str(src), str(dst), *args])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and err.count("\n") == 1
        assert args[-2].lstrip("-") in err
        assert not dst.exists()

    def test_unreached_nodes_exit_code(self, tmp_path, capsys):
        src = tmp_path / "cycle.txt"
        src.write_text("# roots=0 height_cap=none\n0 -1 0.0 1.0\n"
                       "1 2 0.5 0.5 2\n2 1 0.5 0.5 1\n")
        dst = tmp_path / "c.txt"
        rc = main(["convert", str(src), str(dst), "--to", "contour"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and "not reached" in err
        assert not dst.exists()

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

    def test_replicas_sets_forest_count(self, tmp_path):
        rc = main(["verify", "--suite", "codec", "--replicas", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads(read(tmp_path / "verify_report.json"))
        assert report[0]["details"]["forests"] == 3

    def test_empty_qv_group_exit_code(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "qv_dichotomy", "--replicas", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("input error") and err.count("\n") == 1
        assert "group is empty" in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("suite, empty", [
        ("representation", ["gw", "bd"]), ("stretching", ["reactant"]),
        ("mrca", ["pooled"])])
    def test_empty_sample_fails_its_report(self, tmp_path, suite, empty):
        # one replica leaves a sample empty: a failed report (exit 1) with
        # no NaN and the sample named, not an input error
        rc = main(["verify", "--suite", suite, "--replicas", "1",
                   "--out", str(tmp_path)])
        assert rc == 1
        report = json.loads(read(tmp_path / "verify_report.json"),
                            parse_constant=lambda c: pytest.fail(c))
        failed = [e for e in report if not e["passed"]]
        assert [e["details"]["empty_samples"] for e in failed] == [empty]
        assert failed[0]["p_value"] is None

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
