"""Solver behavior: verdicts, witnesses, counters, determinism."""

import random

import pytest

from ssat import (
    EMPTY,
    PreconditionError,
    SAT,
    SAT_EXISTS,
    SsatInstance,
    UNSAT,
    binary_search_solve,
    brute_force_solution_set,
    build_with_solutions,
    complement,
    counted_existence,
    evaluate,
    inner_board_solve,
    inner_witness_solve,
    outer_random_solve,
    quick_existence,
)
from ssat.solvers import random_permutation

WORKED = SsatInstance(3, [0, 1, 2, 3, 5, 6, 7])


def blocked_board(n):
    return SsatInstance(n, list(range(1 << n)))


class TestQuickExistence:
    def test_fires_below_threshold(self):
        rep = quick_existence(3, 7)
        assert rep.verdict == SAT_EXISTS
        assert rep.iterations == 0
        assert rep.evaluations == 0

    def test_boundary_undetermined(self):
        assert quick_existence(3, 8) is None

    def test_single_row(self):
        assert quick_existence(10, 1).verdict == SAT_EXISTS

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            quick_existence(3, 0)


class TestCountedExistence:
    def test_duplicate_discount(self):
        rep = counted_existence(3, 8, 0, 1)
        assert rep.verdict == SAT_EXISTS
        assert rep.iterations == 1

    def test_boundary(self):
        assert counted_existence(3, 8, 0, 0) is None

    def test_cross_check_with_oracle(self):
        # five rows of which two are repeats: only three distinct rows,
        # so the discounted count proves a solution exists
        rep = counted_existence(2, 5, 0, 2)
        assert rep.verdict == SAT_EXISTS
        inst = SsatInstance(2, [0b00, 0b01, 0b10, 0b00, 0b01])
        assert brute_force_solution_set(inst)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            counted_existence(3, 8, -1, 0)


class TestInnerBoard:
    def test_blocked_board(self):
        rep = inner_board_solve(blocked_board(3))
        assert rep.verdict == UNSAT
        assert rep.iterations == 8
        assert rep.evaluations == 0

    def test_worked_instance(self):
        rep = inner_board_solve(WORKED)
        assert rep.verdict == SAT_EXISTS
        assert rep.iterations == 7

    def test_small_instance(self):
        assert inner_board_solve(SsatInstance(2, [0b01, 0b11])).verdict == SAT_EXISTS

    def test_never_evaluates(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(1, 6)
            rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 2 << n))]
            assert inner_board_solve(SsatInstance(n, rows)).evaluations == 0

    def test_duplicates_do_not_inflate_count(self):
        rep = inner_board_solve(SsatInstance(2, [1, 1, 1, 1, 1]))
        assert rep.verdict == SAT_EXISTS
        assert rep.iterations == 5


class TestInnerWitness:
    def test_blocked_two_variables(self):
        rep = inner_witness_solve(SsatInstance(2, [0b00, 0b11, 0b01, 0b10]))
        assert rep.verdict == UNSAT
        assert rep.pair_insertions == 2
        assert rep.iterations == 3

    def test_worked_instance(self):
        rep = inner_witness_solve(WORKED)
        assert rep.verdict == SAT
        assert rep.witness == 0b011
        assert rep.iterations == 4

    def test_first_row_hits(self):
        rep = inner_witness_solve(SsatInstance(2, [0b01, 0b11]))
        assert rep.verdict == SAT
        assert rep.witness == 0b01
        assert rep.iterations == 1

    def test_gap_fallback(self):
        # both rows fail as candidates (each complements the other), so
        # the witness must come out of the leftover table gap
        rep = inner_witness_solve(SsatInstance(2, [0b00, 0b11]))
        assert rep.verdict == SAT
        assert rep.evidence == "table-gap"
        assert rep.witness == 0b01
        assert evaluate(SsatInstance(2, [0b00, 0b11]), rep.witness) == 1

    def test_elimination_is_two_per_failure(self, tmp_path):
        rng = random.Random(13)
        for i in range(20):
            n = rng.randint(1, 6)
            rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 2 << n))]
            path = tmp_path / f"board{i}.txt"
            rep = inner_witness_solve(SsatInstance(n, rows), dump_board=path)
            filled = sum(
                1 for line in path.read_text().splitlines()
                if int(line.split()[1]) != EMPTY
            )
            assert filled == 2 * rep.pair_insertions


class TestRandomPermutation:
    def test_smallest_case_is_forced(self):
        for seed in range(10):
            assert random_permutation(1, seed) == [1, 0]

    def test_no_early_fixed_points(self):
        for seed in range(25):
            table = random_permutation(3, seed)
            assert sorted(table) == [0, 1, 2, 3]
            assert all(table[i] != i for i in range(3))

    def test_multiset_equality(self):
        for mi in (3, 100, 1023):
            table = random_permutation(mi, seed=mi)
            assert sorted(table) == list(range(mi + 1))

    def test_determinism(self):
        assert random_permutation(50, 7) == random_permutation(50, 7)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            random_permutation(0, 1)


class TestOuterRandom:
    def test_blocked_board_is_exhausted(self):
        for seed in (0, 1, 7, 99):
            rep = outer_random_solve(blocked_board(3), seed)
            assert rep.verdict == UNSAT
            assert rep.iterations == 4
            assert rep.evaluations == 8

    def test_worked_instance_any_seed(self):
        for seed in range(25):
            rep = outer_random_solve(WORKED, seed)
            assert rep.verdict == SAT
            assert rep.witness == 0b011

    def test_witness_from_either_half(self):
        for seed in range(10):
            rep = outer_random_solve(SsatInstance(2, [0b01, 0b11]), seed)
            assert rep.verdict == SAT
            assert rep.witness in (0b01, 0b11)

    def test_iteration_bound(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(1, 7)
            rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 2 << n))]
            inst = SsatInstance(n, rows)
            rep = outer_random_solve(inst, rng.randrange(1 << 30))
            assert rep.iterations <= 1 << (n - 1)
            if rep.verdict == UNSAT:
                assert rep.iterations == 1 << (n - 1)

    def test_determinism(self):
        a = outer_random_solve(WORKED, 12345)
        b = outer_random_solve(WORKED, 12345)
        assert a == b

    def test_single_variable(self):
        rep = outer_random_solve(SsatInstance(1, [1]), 0)
        assert rep.verdict == SAT
        assert rep.iterations == 1


class TestBinarySearch:
    def test_worked_instance(self):
        rep = binary_search_solve(WORKED)
        assert rep.verdict == SAT
        assert rep.witness == 0b011
        assert rep.evidence == "gap 4"
        assert rep.iterations <= 5

    def test_gap_at_bottom(self):
        for n in (2, 5, 9):
            inst = SsatInstance(n, list(range(1, 1 << n)))
            rep = binary_search_solve(inst)
            assert rep.witness == (1 << n) - 1
            assert evaluate(inst, rep.witness) == 1

    def test_gap_at_top(self):
        for n in (2, 5, 9):
            inst = SsatInstance(n, list(range((1 << n) - 1)))
            rep = binary_search_solve(inst)
            assert rep.witness == 0
            assert evaluate(inst, rep.witness) == 1

    def test_all_gap_positions_exhaustive(self):
        for n in (1, 2, 3, 6, 8):
            for gap in range(1 << n):
                inst = build_with_solutions(n, {complement(gap, n)})
                rep = binary_search_solve(inst)
                assert rep.witness == complement(gap, n)
                assert rep.iterations <= n + 2

    def test_rejects_unsorted(self):
        rows = WORKED.rows.tolist()
        rows[0], rows[1] = rows[1], rows[0]
        with pytest.raises(PreconditionError):
            binary_search_solve(SsatInstance(3, rows))

    def test_rejects_wrong_length(self):
        with pytest.raises(PreconditionError):
            binary_search_solve(SsatInstance(3, [0, 1, 2]))

    def test_rejects_duplicates(self):
        with pytest.raises(PreconditionError):
            binary_search_solve(SsatInstance(2, [0, 1, 1]))


class TestOracleAgreement:
    def test_random_sweep(self):
        rng = random.Random(31)
        for trial in range(60):
            n = rng.randint(1, 8)
            rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 3 << n))]
            inst = SsatInstance(n, rows)
            satisfiable = bool(brute_force_solution_set(inst))
            reports = [
                inner_board_solve(inst),
                inner_witness_solve(inst),
                outer_random_solve(inst, trial),
            ]
            quick = quick_existence(n, inst.m)
            if quick is not None:
                reports.append(quick)
            for rep in reports:
                assert (rep.verdict != UNSAT) == satisfiable
                if rep.witness is not None:
                    assert evaluate(inst, rep.witness) == 1
