"""Benchmark harness: records, determinism, CSV output."""

import csv

import pytest

import ssat.bench
from ssat import run_bench, summarize, write_csv
from ssat.bench import UNDETERMINED


def index_built(inst) -> bool:
    # the lazily built membership index lives in the instance's __dict__
    return "_member_present" in vars(inst) or "_member_sorted" in vars(inst)


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
