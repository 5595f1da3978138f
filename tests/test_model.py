"""Core model: codes, translation, evaluation, ternary handling."""

import random

import numpy as np
import pytest

from ssat import (
    DuplicateVariableError,
    MissingVariableError,
    SatInstance,
    SsatInstance,
    WidthMismatchError,
    complement,
    evaluate,
    evaluate_by_matching,
    is_blocking_pair,
    translate_row,
    untranslate,
)
from ssat.errors import BlowupLimitError
from ssat.model import ABSENT, evaluate_many, expand_to_ssat, ternary_from_clause, ternary_row_code


def ref_eval(n, rows, x):
    # independent reference: every row, read as a disjunction, must agree
    # with x in at least one bit position
    return int(all(any((x >> i) & 1 == (r >> i) & 1 for i in range(n)) for r in rows))


def random_instance(rng, n, m):
    return SsatInstance(n, [rng.randrange(1 << n) for _ in range(m)])


class TestTranslateRow:
    def test_two_variable_example(self):
        assert translate_row([-2, 1], 2) == 0b01

    def test_all_negated_six(self):
        assert translate_row([-6, -5, -4, -3, -2, -1], 6) == 0b000000

    def test_mixed_three(self):
        assert translate_row([-3, 2, 1], 3) == 0b011

    def test_order_does_not_matter(self):
        assert translate_row([1, -3, 2], 3) == 0b011

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            translate_row([2, 1], 3)

    def test_duplicate_variable(self):
        with pytest.raises(DuplicateVariableError):
            translate_row([2, 1, -1], 2)

    def test_literal_out_of_range(self):
        with pytest.raises(WidthMismatchError):
            translate_row([3, 1], 2)
        with pytest.raises(WidthMismatchError):
            translate_row([0, 1], 2)


class TestUntranslate:
    def test_two_variable_example(self):
        assert untranslate(0b01, 2) == [-2, 1]

    def test_all_positive(self):
        assert untranslate(0b111, 3) == [3, 2, 1]

    def test_all_negated_six(self):
        assert untranslate(0, 6) == [-6, -5, -4, -3, -2, -1]

    def test_round_trip_exhaustive(self):
        for n in range(1, 9):
            for code in range(1 << n):
                assert translate_row(untranslate(code, n), n) == code

    def test_code_out_of_range(self):
        with pytest.raises(WidthMismatchError):
            untranslate(4, 2)


class TestComplement:
    def test_examples(self):
        assert complement(0b000, 3) == 0b111
        assert complement(0b011, 3) == 0b100
        assert complement(0b01, 2) == 0b10

    def test_involution_and_no_fixed_point(self):
        for n in range(1, 13):
            for code in range(1 << n):
                c = complement(code, n)
                assert complement(c, n) == code
                assert c != code

    def test_blocking_pair(self):
        assert is_blocking_pair(0b000, 0b111, 3)
        assert is_blocking_pair(0b011, 0b100, 3)
        assert not is_blocking_pair(0b010, 0b010, 3)


class TestSsatInstance:
    def test_rows_kept_in_order_with_duplicates(self):
        inst = SsatInstance(2, [3, 0, 3, 1])
        assert inst.rows.tolist() == [3, 0, 3, 1]
        assert inst.m == 4

    def test_rows_immutable(self):
        inst = SsatInstance(2, [1, 2])
        with pytest.raises(ValueError):
            inst.rows[0] = 3

    def test_equality(self):
        assert SsatInstance(2, [1, 2]) == SsatInstance(2, [1, 2])
        assert SsatInstance(2, [1, 2]) != SsatInstance(2, [2, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SsatInstance(2, [])

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            SsatInstance(0, [0])

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(WidthMismatchError):
            SsatInstance(2, [4])
        with pytest.raises(WidthMismatchError):
            SsatInstance(2, [-1])

    @pytest.mark.parametrize("rows", [[1.5], ["3"], [None], [True], np.array([1.0])])
    def test_rejects_non_integer_rows(self, rows):
        # typed rejection, never a silent cast to some code
        with pytest.raises(ValueError, match="integer codes"):
            SsatInstance(3, rows)

    @pytest.mark.parametrize("rows", [[2**70], [1, 2**70], [-1, 2**63],
                                      np.array([2**63], dtype=np.uint64)])
    def test_rejects_rows_beyond_int64(self, rows):
        with pytest.raises(WidthMismatchError):
            SsatInstance(3, rows)

    def test_accepts_any_integer_dtype(self):
        for dtype in (np.int8, np.uint16, np.int32, np.uint64):
            inst = SsatInstance(3, np.array([7, 0, 5], dtype=dtype))
            assert inst.rows.dtype == np.int64
            assert inst.rows.tolist() == [7, 0, 5]

    def test_rows_are_a_private_copy(self):
        rows = np.array([1, 2], dtype=np.int64)
        inst = SsatInstance(2, rows)
        rows[0] = 3
        assert inst.rows.tolist() == [1, 2]

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    @pytest.mark.parametrize("bad", [-1, 1 << 3])
    def test_rejects_out_of_range_codes_of_any_dtype(self, dtype, bad):
        # an unsigned dtype wraps -1 to its all-ones code, out of range too
        rows = np.array([0, bad], dtype=np.int64).astype(dtype)
        with pytest.raises(WidthMismatchError):
            SsatInstance(3, rows)
        with pytest.raises(WidthMismatchError):
            SsatInstance._adopt(3, rows)

    def test_adopt_keeps_the_array_it_is_handed(self):
        rows = np.array([1, 2], dtype=np.int64)
        inst = SsatInstance._adopt(2, rows)
        assert inst.rows is rows
        assert not rows.flags.writeable
        assert inst == SsatInstance(2, [1, 2])

    @pytest.mark.parametrize("n, rows, error", [
        (0, np.array([0]), ValueError),
        (2, np.array([], dtype=np.int64), ValueError),
        (2, np.array([[1]]), ValueError),
        (2, np.array([1.0]), ValueError),
        (2, np.array([4]), WidthMismatchError),
    ])
    def test_adopt_checks_as_the_constructor_does(self, n, rows, error):
        with pytest.raises(error):
            SsatInstance._adopt(n, rows)

    def test_adopt_copies_a_non_int64_array(self):
        rows = np.array([3, 0], dtype=np.uint8)
        inst = SsatInstance._adopt(2, rows)
        assert inst.rows.dtype == np.int64 and inst.rows.tolist() == [3, 0]
        assert rows.flags.writeable

    def test_build_index_answers_like_lazy_lookup(self):
        for n in (3, 40):
            inst = SsatInstance(n, [5, 0, 5])
            inst.build_index()
            assert inst.has_row(5) and inst.has_row(0) and not inst.has_row(1)

    def test_membership_large_instance_sorted_path(self):
        # 2^16 + 2 rows at n=17; n is within MAX_TABLE_WIDTH, so despite the
        # name this reads the presence bitmap (test_membership_both_paths
        # covers the sorted path)
        n, m = 17, (1 << 16) + 2
        inst = SsatInstance(n, np.arange(m, dtype=np.int64))
        assert inst.has_row(0)
        assert inst.has_row(m - 1)
        assert not inst.has_row(m)

    def test_membership_large_unsorted(self):
        n, m = 17, (1 << 16) + 2
        rows = np.arange(m, dtype=np.int64)[::-1].copy()
        inst = SsatInstance(n, rows)
        assert inst.has_row(m - 1)
        assert not inst.has_row(m)

    @pytest.mark.parametrize("n", [3, 17, 40, 62])
    def test_membership_both_paths(self, n):
        # n <= 30 reads the presence bitmap; wider n binary-searches the
        # sorted rows. Rows are unsorted and include both end codes.
        top = (1 << n) - 1
        rows = [5, top, 0, top - 2, 1, 5]
        inst = SsatInstance(n, rows)
        for code in rows:
            assert inst.has_row(code)
        for code in (2, 4, top - 1, top - 3):
            assert not inst.has_row(code)
        assert evaluate(inst, top) == 0
        assert evaluate(inst, top ^ 2) == 1
        assert not inst.has_row(-1)
        assert not inst.has_row(1 << n)


class TestEvaluate:
    def test_scheme_six_variable(self):
        rows = [0b000000, 0b000001, 0b111110, 0b011011]
        inst = SsatInstance(6, rows)
        assert evaluate(inst, 0b000000) == 1

    def test_blocked_one_variable(self):
        inst = SsatInstance(1, [1, 0])
        assert evaluate(inst, 0) == 0
        assert evaluate(inst, 1) == 0

    def test_worked_three_variable(self):
        inst = SsatInstance(3, [0, 1, 2, 3, 5, 6, 7])
        assert evaluate(inst, 0b011) == 1

    def test_two_rows(self):
        inst = SsatInstance(2, [0b01, 0b11])
        assert evaluate(inst, 0b11) == 1

    def test_width_mismatch(self):
        inst = SsatInstance(2, [1])
        with pytest.raises(WidthMismatchError):
            evaluate(inst, 4)
        with pytest.raises(WidthMismatchError):
            evaluate(inst, -1)

    def test_blocking_law_exhaustive(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 6)
            inst = random_instance(rng, n, rng.randint(1, 3 << n))
            members = set(inst.rows.tolist())
            for x in range(1 << n):
                val = evaluate(inst, x)
                assert val == ref_eval(n, inst.rows.tolist(), x)
                assert (val == 0) == (complement(x, n) in members)


class TestEvaluateMany:
    @pytest.mark.parametrize("n", [3, 17, 40, 62])
    def test_matches_evaluate_on_both_paths(self, n):
        # n <= 30 reads the presence bitmap, wider n searches the sorted
        # rows; rows are unsorted and hold both end codes
        top = (1 << n) - 1
        inst = SsatInstance(n, [5, top, 0, top - 2, 1, 5])
        rng = random.Random(n)
        xs = [0, 1, 2, 4, 5, top, top - 1, top - 2, top - 3, top ^ 5]
        xs += [rng.randrange(1 << n) for _ in range(50)]
        got = evaluate_many(inst, xs)
        assert got.dtype == np.uint8
        assert got.tolist() == [evaluate(inst, x) for x in xs]
        assert evaluate_many(inst, np.array(xs[::-1])).tolist() == got.tolist()[::-1]

    def test_exhaustive_small_widths(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 6)
            inst = random_instance(rng, n, rng.randint(1, 3 << n))
            xs = list(range(1 << n))
            assert evaluate_many(inst, xs).tolist() == [evaluate(inst, x) for x in xs]

    @pytest.mark.parametrize("n", [3, 40])
    def test_empty_input(self, n):
        got = evaluate_many(SsatInstance(n, [1]), [])
        assert got.shape == (0,)
        assert got.dtype == np.uint8

    @pytest.mark.parametrize("n", [3, 17, 40, 62])
    @pytest.mark.parametrize("bad", ["below", "above"])
    def test_out_of_width_raises_like_evaluate(self, n, bad):
        inst = SsatInstance(n, [1])
        x = -1 if bad == "below" else 1 << n
        with pytest.raises(WidthMismatchError) as want:
            evaluate(inst, x)
        with pytest.raises(WidthMismatchError) as got:
            evaluate_many(inst, [0, x, 1])
        assert str(got.value) == str(want.value)

    def test_names_the_first_bad_assignment(self):
        inst = SsatInstance(3, [1])
        with pytest.raises(WidthMismatchError, match="assignment 9 does"):
            evaluate_many(inst, [1, 9, -1])
        with pytest.raises(WidthMismatchError, match=f"assignment {2**70} does"):
            evaluate_many(inst, [1, 2**70])


class TestEvaluateByMatching:
    def test_same_results_as_evaluate(self):
        inst = SsatInstance(6, [0b000000, 0b000001, 0b111110, 0b011011])
        assert evaluate_by_matching(inst, 0) == 1
        blocked = SsatInstance(1, [1, 0])
        assert evaluate_by_matching(blocked, 0) == 0
        assert evaluate_by_matching(blocked, 1) == 0
        worked = SsatInstance(3, [0, 1, 2, 3, 5, 6, 7])
        assert evaluate_by_matching(worked, 0b011) == 1

    def test_agreement_random_sweep(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 8)
            inst = random_instance(rng, n, rng.randint(1, 2 << n))
            for x in range(1 << n):
                assert evaluate_by_matching(inst, x) == evaluate(inst, x)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            evaluate_by_matching(SsatInstance(2, [1]), 5)


class TestTernary:
    def test_sparse_clause(self):
        # x3 or not-x0 over four variables
        assert ternary_from_clause([4, -1], 4) == (1, ABSENT, ABSENT, 0)

    def test_other_sparse_clause(self):
        assert ternary_from_clause([4, -3, 1], 4) == (1, 0, ABSENT, 1)

    def test_full_width_has_no_absent_digit(self):
        digits = ternary_from_clause([-3, 2, 1], 3)
        assert ABSENT not in digits
        assert ternary_row_code(digits) == 0b011

    def test_row_code_rejects_absent(self):
        with pytest.raises(MissingVariableError):
            ternary_row_code((1, ABSENT, 0))

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            ternary_from_clause([], 3)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateVariableError):
            ternary_from_clause([1, -1], 3)


class TestSatInstance:
    def test_validates_width(self):
        with pytest.raises(WidthMismatchError):
            SatInstance(3, ((1, 0),))

    def test_rejects_all_absent_clause(self):
        with pytest.raises(ValueError):
            SatInstance(2, ((ABSENT, ABSENT),))

    def test_rejects_bad_digit(self):
        with pytest.raises(ValueError):
            SatInstance(2, ((3, 1),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SatInstance(2, ())


def ref_sat_eval(n, clauses, x):
    # digit j speaks about x_{n-1-j}; 2 means the clause skips it
    for clause in clauses:
        ok = False
        for j, d in enumerate(clause):
            if d != ABSENT and (x >> (n - 1 - j)) & 1 == d:
                ok = True
        if not ok:
            return 0
    return 1


class TestExpandToSsat:
    def test_single_sparse_clause(self):
        sat = SatInstance.from_clauses(2, [[1]])
        assert set(expand_to_ssat(sat).rows.tolist()) == {0b11, 0b01}

    def test_contradictory_pair_covers_space(self):
        sat = SatInstance.from_clauses(2, [[1], [-1]])
        inst = expand_to_ssat(sat)
        assert inst.m == 4
        assert set(inst.rows.tolist()) == {0b00, 0b01, 0b10, 0b11}

    def test_full_width_clause_unchanged(self):
        sat = SatInstance.from_clauses(3, [[-3, 2, 1]])
        inst = expand_to_ssat(sat)
        assert inst.rows.tolist() == [0b011]

    def test_row_count_per_clause(self):
        sat = SatInstance.from_clauses(5, [[2], [5, -1], [3, 2, 1]])
        assert expand_to_ssat(sat).m == 16 + 8 + 4

    def test_blowup_cap(self):
        sat = SatInstance.from_clauses(20, [[1]])
        with pytest.raises(BlowupLimitError):
            expand_to_ssat(sat, row_cap=1000)

    def test_satisfying_sets_preserved(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 6)
            clauses = []
            for _ in range(rng.randint(1, 8)):
                vars_in = rng.sample(range(1, n + 1), rng.randint(1, n))
                clauses.append([v if rng.random() < 0.5 else -v for v in vars_in])
            sat = SatInstance.from_clauses(n, clauses)
            inst = expand_to_ssat(sat)
            for x in range(1 << n):
                assert evaluate(inst, x) == ref_sat_eval(n, sat.clauses, x)
