"""Benchmark harness and solver table: records, determinism, CSV output,
and the flags and module attributes callers rely on."""

import argparse
import csv

import pytest

import ssat
import ssat.bench
import ssat.cli
import ssat.solvers
from ssat import SolverReport, build_with_solutions, run_bench, summarize
from ssat.bench import SOLVERS, UNDETERMINED, write_csv
from test_golden import RUNS

# The solver functions perfbench/tracing.py swaps for traced wrappers on
# ssat.cli and ssat.bench, and the top-level names perfbench reads.
TRACED_SOLVERS = ("quick_existence", "inner_board_solve", "inner_witness_solve",
                  "outer_random_solve", "binary_search_solve")
PERFBENCH_NAMES = ("ExtremeSpec", "PairTable", "build_with_solutions", "complement",
                   "evaluate", "extreme_instance", "outer_random_solve",
                   "parse_rows_file", "write_rows_file")


def index_built(inst) -> bool:
    # the lazily built membership index lives in the instance's __dict__
    return "_index" in vars(inst)


class TestRunBench:
    def test_record_count_and_order(self):
        records = run_bench(4, trials=3, scenario="unique",
                            algorithms=["quick", "outer-random"], seed_base=10)
        assert len(records) == 6
        assert [r.algorithm for r in records] == ["quick", "outer-random"] * 3
        assert [r.seed for r in records] == [10, 10, 11, 11, 12, 12]

    def test_no_solution_outer_always_full_walk(self):
        records = run_bench(10, trials=5, scenario="none",
                            algorithms=["outer-random"], seed_base=0)
        for rec in records:
            assert rec.verdict == "UNSAT"
            assert rec.iterations == 512

    def test_quick_on_each_scenario(self):
        unique = run_bench(6, 2, "unique", ["quick"], seed_base=1)
        assert all(r.verdict == "SAT_EXISTS" and r.iterations == 0 for r in unique)
        none = run_bench(6, 2, "none", ["quick"], seed_base=1)
        assert all(r.verdict == UNDETERMINED for r in none)

    def test_quick_undetermined_record(self):
        # m >= 2^n: the table's one UNDETERMINED report, both counters 0
        (rec,) = run_bench(5, 1, "none", ["quick"], seed_base=3)
        assert (rec.verdict, rec.iterations, rec.evaluations) == (UNDETERMINED, 0, 0)
        inst = build_with_solutions(5, ())
        report = SOLVERS["quick"].run(inst, None, None)
        assert report == SolverReport(algorithm="quick", verdict=UNDETERMINED,
                                      iterations=0, evaluations=0)
        assert ssat.bench.UNDETERMINED is ssat.solvers.UNDETERMINED

    def test_duplicates_enter_m(self):
        records = run_bench(5, 2, "unique", ["inner-witness"], duplicates=100,
                            seed_base=3)
        for rec in records:
            assert rec.m == (1 << 5) - 1 + 100
            assert rec.r == 100

    def test_binary_search_uses_sorted_base(self):
        records = run_bench(6, 3, "unique", ["binary-search"], seed_base=2)
        for rec in records:
            assert rec.verdict == "SAT"
            assert rec.m == (1 << 6) - 1
            assert rec.r == 0
            assert rec.iterations <= 6 + 2

    def test_binary_search_guardrails(self):
        with pytest.raises(ValueError):
            run_bench(4, 1, "none", ["binary-search"])
        with pytest.raises(ValueError):
            run_bench(4, 1, "unique", ["binary-search"], duplicates=2)

    def test_deterministic_except_wall_time(self):
        a = run_bench(6, 4, "unique", ["outer-random", "inner-witness"], seed_base=7)
        b = run_bench(6, 4, "unique", ["outer-random", "inner-witness"], seed_base=7)
        strip = lambda recs: [
            (r.algorithm, r.n, r.m, r.r, r.seed, r.verdict, r.iterations, r.evaluations)
            for r in recs
        ]
        assert strip(a) == strip(b)

    def test_index_built_before_the_clock(self, monkeypatch):
        # the first evaluating solver of a trial must not pay for the lazy
        # membership index inside its wall_ns; a solver is called right
        # after its clock starts, so the index must exist on entry
        seen = []

        def spy(name):
            solver = getattr(ssat.bench, name)

            def timed(inst, *args):
                seen.append((name, index_built(inst)))
                return solver(inst, *args)

            monkeypatch.setattr(ssat.bench, name, timed)

        for name in ("inner_board_solve", "outer_random_solve",
                     "inner_witness_solve", "binary_search_solve"):
            spy(name)
        run_bench(6, 2, "unique", ["inner-board", "outer-random", "inner-witness"],
                  duplicates=8, seed_base=5)
        run_bench(6, 1, "unique", ["binary-search"], seed_base=5)
        assert [name for name, _ in seen] == [
            "inner_board_solve", "outer_random_solve", "inner_witness_solve"] * 2 + [
            "binary_search_solve"]
        assert all(built for name, built in seen if name != "inner_board_solve")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_bench(4, 0, "unique", ["quick"])
        with pytest.raises(ValueError):
            run_bench(4, 1, "weird", ["quick"])
        with pytest.raises(ValueError):
            run_bench(4, 1, "unique", [])
        with pytest.raises(ValueError):
            run_bench(4, 1, "unique", ["nosuch"])


class TestSolverTable:
    @pytest.mark.parametrize("name", SOLVERS)
    def test_flags_match_the_run(self, name, tmp_path):
        solver = SOLVERS[name]
        # n=4, unique solution, sorted: every solver accepts it and quick decides
        inst = build_with_solutions(4, {9})
        dump = tmp_path / "board.txt"
        report = solver.run(inst, 12345, dump if solver.dumps_board else None)
        assert index_built(inst) == solver.evaluates
        assert (report.seed == 12345) == solver.seeded
        assert (report.witness is not None) == solver.witnesses
        assert dump.exists() == solver.dumps_board

    def test_cli_choices_are_the_table(self):
        parser = ssat.cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        algorithm = next(a for a in sub.choices["solve"]._actions if a.dest == "algorithm")
        assert tuple(algorithm.choices) == tuple(SOLVERS) == ssat.ALGORITHMS

    def test_golden_runs_cover_the_table(self):
        pinned = {argv[argv.index("--algorithm") + 1] for argv in RUNS.values()}
        assert pinned == set(SOLVERS)

    @pytest.mark.parametrize("module", [ssat.cli, ssat.bench])
    def test_traced_solver_attributes(self, module):
        for name in TRACED_SOLVERS:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"

    def test_perfbench_top_level_names(self):
        for name in PERFBENCH_NAMES:
            assert hasattr(ssat, name), name
        for module in (ssat.cli, ssat.generators):
            assert hasattr(module, "build_with_solutions")
            assert hasattr(module, "duplicate_and_shuffle")
        assert hasattr(ssat.cli, "parse_rows_file") and hasattr(ssat.cli, "write_rows_file")
        assert hasattr(ssat.bench, "extreme_instance") and hasattr(ssat.board.PairTable, "dump")


class TestSummary:
    def test_min_avg_max_ordering(self):
        records = run_bench(8, 20, "unique",
                            ["outer-random", "inner-witness", "quick"], seed_base=0)
        for name, lo, avg, hi in summarize(records):
            assert lo <= avg <= hi

    def test_groups_all_algorithms(self):
        records = run_bench(4, 2, "unique", ["quick", "outer-random"], seed_base=0)
        assert [row[0] for row in summarize(records)] == ["quick", "outer-random"]


class TestWriteCsv:
    def test_file_shape(self, tmp_path):
        records = run_bench(5, 3, "unique", ["outer-random"], seed_base=4)
        path = tmp_path / "bench.csv"
        write_csv(path, records)
        lines = path.read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")]
        comments = [line for line in lines if line.startswith("#")]
        reader = list(csv.DictReader(data))
        assert len(reader) == 3
        assert set(reader[0]) == {"algorithm", "n", "m", "r", "seed", "verdict",
                                  "iterations", "evaluations", "wall_ns"}
        assert int(reader[0]["n"]) == 5
        assert len(comments) == 2
        assert comments[1].startswith("# outer-random,")

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_csv(path, run_bench(4, 1, "unique", ["quick"], seed_base=0))
        header = path.read_bytes().split(b"\n", 1)[0]
        assert header == b"algorithm,n,m,r,seed,verdict,iterations,evaluations,wall_ns\r"
