"""Command-line surface: exit codes, output shapes, environment seed."""

import csv
import json
import shutil
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssat
from ssat import build_with_solutions, parse_rows_file, write_rows_file
from ssat.bench import SOLVERS
from ssat.cli import main

WORKED_TEXT = "ssat 3 7\n000\n001\n010\n011\n101\n110\n111\n"


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.rows"
    path.write_text(WORKED_TEXT)
    return str(path)


@pytest.fixture
def blocked_file(tmp_path):
    path = tmp_path / "blocked.rows"
    write_rows_file(path, build_with_solutions(3, set()))
    return str(path)


def last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


class TestSolve:
    def test_inner_witness_on_worked_instance(self, worked_file, capsys):
        code = main(["solve", "--input", worked_file, "--algorithm", "inner-witness"])
        report = last_json(capsys)
        assert code == 10
        assert report["verdict"] == "SAT"
        assert report["witness_bits"] == "011"

    def test_outer_random_on_blocked_board(self, blocked_file, capsys):
        code = main(["solve", "--input", blocked_file, "--algorithm", "outer-random",
                     "--seed", "7"])
        report = last_json(capsys)
        assert code == 20
        assert report["verdict"] == "UNSAT"
        assert report["iterations"] == 4

    def test_binary_search_unsorted_exits_one(self, tmp_path, capsys):
        path = tmp_path / "unsorted.rows"
        path.write_text("ssat 2 3\n01\n00\n11\n")
        code = main(["solve", "--input", str(path), "--algorithm", "binary-search"])
        assert code == 1
        assert "PreconditionError" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["inner-witness", "inner-board"])
    def test_inner_past_the_table_cap_exits_one(self, tmp_path, capsys, algorithm):
        path = tmp_path / "wide.rows"
        path.write_text("ssat 31 2\n" + "0" * 31 + "\n" + "1" * 31 + "\n")
        code = main(["solve", "--input", str(path), "--algorithm", algorithm])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: PreconditionError: ")
        assert "MAX_TABLE_WIDTH = 30, got n = 31" in err
        assert "outer-random and quick still apply" in err
        # and they do
        assert main(["solve", "--input", str(path), "--algorithm", "quick"]) == 10

    def test_quick_below_threshold(self, worked_file, capsys):
        code = main(["solve", "--input", worked_file, "--algorithm", "quick"])
        report = last_json(capsys)
        assert code == 10
        assert report["verdict"] == "SAT_EXISTS"
        assert report["iterations"] == 0

    def test_quick_undetermined(self, blocked_file, capsys):
        # the CLI prints the solver table's report as it prints any other
        code = main(["solve", "--input", blocked_file, "--algorithm", "quick"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == json.dumps({"algorithm": "quick", "verdict": "UNDETERMINED",
                                  "iterations": 0, "evaluations": 0}) + "\n"
        assert "cannot decide m >= 2^n" in err

    def test_quick_with_witness_flag_escalates(self, blocked_file, capsys):
        code = main(["solve", "--input", blocked_file, "--algorithm", "quick",
                     "--witness"])
        report = last_json(capsys)
        assert code == 20
        assert report["algorithm"] == "inner-witness"

    def test_witness_flag_on_satisfiable(self, worked_file, capsys):
        code = main(["solve", "--input", worked_file, "--algorithm", "quick",
                     "--witness"])
        report = last_json(capsys)
        assert code == 10
        assert report["witness_bits"] == "011"

    def test_dump_board(self, worked_file, tmp_path, capsys):
        dump = tmp_path / "board.txt"
        code = main(["solve", "--input", worked_file, "--algorithm", "inner-witness",
                     "--dump-board", str(dump)])
        assert code == 10
        assert len(dump.read_text().splitlines()) == 8

    def test_dump_board_needs_inner_run(self, worked_file, tmp_path, capsys):
        code = main(["solve", "--input", worked_file, "--algorithm", "outer-random",
                     "--dump-board", str(tmp_path / "b.txt")])
        assert code == 1

    def test_witness_needs_a_witnessing_algorithm(self, worked_file, capsys):
        for name, solver in SOLVERS.items():
            code = main(["solve", "--input", worked_file, "--algorithm", name, "--witness"])
            captured = capsys.readouterr()
            if name == "quick" or solver.witnesses:
                assert code == 10, name
                assert "witness" in json.loads(captured.out), name
            else:
                assert code == 1, name
                assert captured.out == ""
                assert captured.err.startswith("error: --witness"), name

    def test_seed_needs_a_seeded_algorithm(self, worked_file, capsys, monkeypatch):
        monkeypatch.setenv("SSAT_SEED", "3")  # the default seed stays silent
        for name, solver in SOLVERS.items():
            assert main(["solve", "--input", worked_file, "--algorithm", name]) == 10
            capsys.readouterr()
            code = main(["solve", "--input", worked_file, "--algorithm", name,
                         "--seed", "7"])
            captured = capsys.readouterr()
            if solver.seeded:
                assert code == 10, name
                assert json.loads(captured.out)["seed"] == 7
            else:
                assert code == 1, name
                assert captured.out == ""
                assert captured.err.startswith("error: --seed"), name

    def test_cnf_input(self, tmp_path, capsys):
        path = tmp_path / "inst.cnf"
        path.write_text("p cnf 2 2\n-2 1 0\n2 1 0\n")
        code = main(["solve", "--input", str(path), "--format", "cnf",
                     "--algorithm", "inner-witness"])
        report = last_json(capsys)
        assert code == 10
        assert report["witness_bits"] == "01"

    def test_seed_env_default(self, blocked_file, capsys, monkeypatch):
        monkeypatch.setenv("SSAT_SEED", "42")
        code = main(["solve", "--input", blocked_file, "--algorithm", "outer-random"])
        report = last_json(capsys)
        assert code == 20
        assert report["seed"] == 42

    def test_seed_env_read_only_by_seeded_algorithms(self, worked_file, monkeypatch):
        monkeypatch.setenv("SSAT_SEED", "not-a-number")
        for name, solver in SOLVERS.items():
            code = main(["solve", "--input", worked_file, "--algorithm", name])
            assert code == (1 if solver.seeded else 10), name

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.rows"
        path.write_text("ssat 3 1\n012\n")
        code = main(["solve", "--input", str(path), "--algorithm", "quick"])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        code = main(["solve", "--input", "/no/such/file", "--algorithm", "quick"])
        assert code == 1

    def test_usage_error_exits_one(self, worked_file):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--input", worked_file, "--algorithm", "nosuch"])
        assert err.value.code == 1


class TestParserReuse:
    def test_calls_in_a_row_share_no_state(self, blocked_file, tmp_path, capsys, monkeypatch):
        # main parses with one parser a process; no option of one call
        # may reach the next
        monkeypatch.setenv("SSAT_SEED", "42")
        solve = ["solve", "--input", blocked_file, "--algorithm", "outer-random"]
        assert main(solve + ["--seed", "5"]) == 20
        assert last_json(capsys)["seed"] == 5
        assert main(solve) == 20
        assert last_json(capsys)["seed"] == 42
        out = tmp_path / "again.rows"
        assert main(["gen", "--n", "3", "--solutions", "none", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == Path(blocked_file).read_bytes()


class TestGen:
    def test_worked_instance_bytes(self, tmp_path, capsys):
        out = tmp_path / "gen.rows"
        code = main(["gen", "--n", "3", "--solutions", "3", "--out", str(out)])
        assert code == 0
        assert out.read_text() == WORKED_TEXT

    def test_blocked_board(self, tmp_path):
        out = tmp_path / "blocked.rows"
        assert main(["gen", "--n", "4", "--solutions", "none", "--out", str(out)]) == 0
        assert parse_rows_file(out).m == 16

    def test_duplicates_and_shuffle(self, tmp_path):
        out = tmp_path / "fat.rows"
        code = main(["gen", "--n", "3", "--solutions", "3", "--duplicates", "9",
                     "--shuffle-seed", "1", "--out", str(out)])
        assert code == 0
        inst = parse_rows_file(out)
        assert inst.m == 16
        from ssat import brute_force_solution_set
        assert brute_force_solution_set(inst) == {3}

    def test_duplicates_without_seed(self, tmp_path, capsys):
        code = main(["gen", "--n", "3", "--solutions", "3", "--duplicates", "2",
                     "--out", str(tmp_path / "x.rows")])
        assert code == 1
        assert "shuffle-seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed_args", [[], ["--shuffle-seed", "1"]])
    def test_negative_duplicates(self, tmp_path, capsys, seed_args):
        out = tmp_path / "x.rows"
        code = main(["gen", "--n", "3", "--solutions", "3", "--duplicates", "-5",
                     *seed_args, "--out", str(out)])
        assert code == 1
        assert "--duplicates" in capsys.readouterr().err
        assert not out.exists()

    def test_reveal(self, tmp_path, capsys):
        out = tmp_path / "g.rows"
        main(["gen", "--n", "3", "--solutions", "1,5", "--out", str(out), "--reveal"])
        err = capsys.readouterr().err
        assert "m=6" in err
        assert "[1, 5]" in err

    def test_bad_solutions_value(self, tmp_path, capsys):
        code = main(["gen", "--n", "3", "--solutions", "1;2",
                     "--out", str(tmp_path / "y.rows")])
        assert code == 1


class TestBenchCommand:
    def test_csv_written(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--n", "6", "--trials", "4", "--scenario", "unique",
                     "--algorithms", "outer-random,quick", "--seed-base", "9",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(list(csv.DictReader(data))) == 8
        assert any(l.startswith("# summary") for l in lines)

    def test_unknown_algorithm_exits_one(self, tmp_path, capsys):
        code = main(["bench", "--n", "4", "--trials", "1", "--scenario", "none",
                     "--algorithms", "nosuch", "--out", str(tmp_path / "b.csv")])
        assert code == 1


class TestProbCommand:
    def test_inner_single_row(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["prob", "--n", "10", "--mode", "inner", "--f-max", "0",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        assert float(rows[0]["probability"]) == 2.0 ** -20

    def test_outer_full_domain_increasing(self, tmp_path):
        out = tmp_path / "p.csv"
        main(["prob", "--n", "10", "--mode", "outer", "--f-max", "1023",
              "--out", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1024
        values = [float(r["probability"]) for r in rows]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_out_of_domain_rows_warned_and_skipped(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = main(["prob", "--n", "4", "--mode", "inner", "--f-max", "10",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 8  # f in 0..7 valid for n=4
        assert "skipped 3" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["inner", "outer"])
    def test_past_the_float_range(self, tmp_path, capsys, mode):
        out = tmp_path / "p.csv"
        code = main(["prob", "--n", "600", "--mode", mode, "--f-max", "2",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(r["f"], r["probability"]) for r in rows] == [
            ("0", "0.0"), ("1", "0.0"), ("2", "0.0")]
        assert capsys.readouterr().err == ""

    def test_poly_table(self, tmp_path):
        out = tmp_path / "p.csv"
        main(["prob", "--n", "4", "--mode", "poly", "--f-max", "3", "--out", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["k"] for r in rows] == ["1", "2", "3"]
        assert float(rows[0]["prob_in_c"]) == 4 / 16
        assert float(rows[0]["prob_s_c"]) == 4 / 256


@pytest.mark.skipif(shutil.which("ssat") is None, reason="console script not installed")
def test_console_script_round_trip(tmp_path):
    out = tmp_path / "inst.rows"
    gen = subprocess.run(
        ["ssat", "gen", "--n", "3", "--solutions", "3", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert gen.returncode == 0
    solve = subprocess.run(
        ["ssat", "solve", "--input", str(out), "--algorithm", "binary-search"],
        capture_output=True, text=True,
    )
    assert solve.returncode == 10
    assert json.loads(solve.stdout)["witness_bits"] == "011"


def test_python_dash_m_round_trip(tmp_path):
    # python -m ssat runs the CLI out of process, whether or not the
    # console script is installed
    env = dict(os.environ)
    src = str(Path(ssat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def ssat_cli(*args):
        return subprocess.run([sys.executable, "-m", "ssat", *args],
                              capture_output=True, text=True, env=env)

    sat, blocked = tmp_path / "sat.rows", tmp_path / "blocked.rows"
    assert ssat_cli("gen", "--n", "3", "--solutions", "3", "--out", str(sat)).returncode == 0
    assert ssat_cli("gen", "--n", "3", "--solutions", "none", "--duplicates", "4",
                    "--shuffle-seed", "1", "--out", str(blocked)).returncode == 0

    solve = ssat_cli("solve", "--input", str(sat), "--algorithm", "inner-witness")
    assert solve.returncode == 10
    assert json.loads(solve.stdout) == {
        "algorithm": "inner-witness", "verdict": "SAT", "witness": 3,
        "witness_bits": "011", "evidence": "row-hit", "iterations": 4,
        "evaluations": 4, "pair_insertions": 3}

    solve = ssat_cli("solve", "--input", str(blocked), "--algorithm", "inner-witness")
    assert solve.returncode == 20
    report = json.loads(solve.stdout)
    assert (report["verdict"], report["evidence"], report["pair_insertions"]) == (
        "UNSAT", "blocked-board", 4)
