"""Generators: prescribed solution sets, extreme instances, oracle, probabilities."""

import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ssat import (
    DomainError,
    ExtremeSpec,
    OracleCapError,
    SsatInstance,
    brute_force_solution_set,
    build_with_solutions,
    complement,
    duplicate_and_shuffle,
    extreme_instance,
    prob_poly_subset,
    prob_ss_inner,
    prob_ss_outer,
)


class TestBuildWithSolutions:
    def test_worked_instance(self):
        inst = build_with_solutions(3, {3})
        assert inst.rows.tolist() == [0, 1, 2, 3, 5, 6, 7]
        assert inst.m == 7

    def test_empty_solution_set_is_blocked_board(self):
        for n in (1, 3, 5):
            inst = build_with_solutions(n, set())
            assert inst.rows.tolist() == list(range(1 << n))
            assert brute_force_solution_set(inst) == set()

    def test_two_variable_single_solution(self):
        inst = build_with_solutions(2, {1})
        assert set(inst.rows.tolist()) == {0b00, 0b01, 0b11}
        assert brute_force_solution_set(inst) == {1}

    def test_constructive_exactness(self):
        rng = random.Random(17)
        for _ in range(80):
            n = rng.randint(1, 8)
            size = 1 << n
            wanted = set(rng.sample(range(size), rng.randrange(size)))
            inst = build_with_solutions(n, wanted)
            assert inst.m == size - len(wanted)
            assert brute_force_solution_set(inst) == wanted

    def test_unique_solution_leaves_one_gap(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 8)
            x = rng.randrange(1 << n)
            inst = build_with_solutions(n, {x})
            assert inst.m == (1 << n) - 1
            missing = set(range(1 << n)) - set(inst.rows.tolist())
            assert missing == {complement(x, n)}

    def test_rejects_full_solution_set(self):
        with pytest.raises(ValueError):
            build_with_solutions(2, {0, 1, 2, 3})

    def test_rejects_out_of_range_solution(self):
        with pytest.raises(ValueError):
            build_with_solutions(2, {4})

    def test_rejects_oversized_width(self):
        with pytest.raises(ValueError):
            build_with_solutions(31, set())

    def test_rows_are_int64_and_ascending(self):
        inst = build_with_solutions(10, {0, 1023, 77})
        assert inst.rows.dtype == np.int64
        assert not inst.rows.flags.writeable
        assert bool(np.all(np.diff(inst.rows) > 0))
        assert inst.m == 1021

    def test_peak_per_code(self):
        # a bool keep-mask (1 byte a code) and the rows it yields (8), with
        # no range array and no copy of it
        tracemalloc.start()
        try:
            inst = build_with_solutions(20, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.m == 1 << 20
        assert peak / (1 << 20) <= 9.5


class TestDuplicateAndShuffle:
    def test_preserves_multiset_of_base(self):
        base = build_with_solutions(4, {6})
        out = duplicate_and_shuffle(base, 40, seed=5)
        assert out.m == base.m + 40
        base_counts = Counter(base.rows.tolist())
        out_counts = Counter(out.rows.tolist())
        assert set(out_counts) <= set(base_counts)
        for code, count in base_counts.items():
            assert out_counts[code] >= count

    def test_deterministic(self):
        base = build_with_solutions(4, {6})
        a = duplicate_and_shuffle(base, 10, seed=9)
        b = duplicate_and_shuffle(base, 10, seed=9)
        assert a == b

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            duplicate_and_shuffle(build_with_solutions(2, {1}), -1, seed=0)


class TestExtremeInstance:
    def test_plain_unique_solution_is_the_worked_instance(self):
        inst = extreme_instance(ExtremeSpec(3, solution=3))
        assert inst.rows.tolist() == [0, 1, 2, 3, 5, 6, 7]

    def test_no_solution_with_duplicates(self):
        inst = extreme_instance(ExtremeSpec(3, None, duplicates=8, shuffle_seed=1))
        assert inst.m == 16
        assert brute_force_solution_set(inst) == set()

    def test_duplication_invariance(self):
        lean = extreme_instance(ExtremeSpec(4, solution=11))
        fat = extreme_instance(ExtremeSpec(4, solution=11, duplicates=1000,
                                           shuffle_seed=3))
        assert fat.m == lean.m + 1000
        assert brute_force_solution_set(fat) == brute_force_solution_set(lean) == {11}

    def test_m_exceeds_space(self):
        spec = ExtremeSpec(3, solution=0, duplicates=100, shuffle_seed=2)
        inst = extreme_instance(spec)
        assert inst.m == 107 > 1 << 3
        assert brute_force_solution_set(inst) == {0}

    def test_solution_count(self):
        assert ExtremeSpec(3, None).solution_count == 0
        assert ExtremeSpec(3, 5).solution_count == 1

    def test_duplicates_need_a_seed(self):
        with pytest.raises(ValueError):
            ExtremeSpec(3, 1, duplicates=5)

    def test_solution_must_fit(self):
        with pytest.raises(ValueError):
            ExtremeSpec(3, 8)


class TestBruteForceOracle:
    def test_two_rows(self):
        assert brute_force_solution_set(SsatInstance(2, [0b01, 0b11])) == {0b01, 0b11}

    def test_blocked_one_variable(self):
        assert brute_force_solution_set(SsatInstance(1, [1, 0])) == set()

    def test_worked_instance(self):
        inst = SsatInstance(3, [0, 1, 2, 3, 5, 6, 7])
        assert brute_force_solution_set(inst) == {0b011}

    def test_cap(self):
        with pytest.raises(OracleCapError):
            brute_force_solution_set(SsatInstance(6, [1]), cap=5)


class TestProbabilities:
    def test_zero_failure_baseline(self):
        expected = 2.0 ** -20
        assert math.isclose(prob_ss_inner(10, 0), expected, rel_tol=1e-12)
        assert math.isclose(prob_ss_outer(10, 0), expected, rel_tol=1e-12)

    def test_inner_formula_value(self):
        # n=4, f=4: 1 / ((16 - 8) * 16)
        assert math.isclose(prob_ss_inner(4, 4), 1 / 128, rel_tol=1e-12)

    def test_outer_formula_value(self):
        assert math.isclose(prob_ss_outer(4, 8), 1 / 128, rel_tol=1e-12)

    def test_strictly_increasing(self):
        inner = [prob_ss_inner(6, f) for f in range(32)]
        outer = [prob_ss_outer(6, f) for f in range(64)]
        assert all(b > a for a, b in zip(inner, inner[1:]))
        assert all(b > a for a, b in zip(outer, outer[1:]))

    def test_domain_boundaries(self):
        prob_ss_inner(6, 31)
        with pytest.raises(DomainError):
            prob_ss_inner(6, 32)
        prob_ss_outer(6, 63)
        with pytest.raises(DomainError):
            prob_ss_outer(6, 64)
        with pytest.raises(DomainError):
            prob_ss_inner(6, -1)

    def test_inner_at_least_outer_for_equal_budget(self):
        for n in (4, 8, 12):
            for f in range(1 << (n - 1)):
                assert prob_ss_inner(n, f) >= prob_ss_outer(n, 2 * f)

    def test_past_the_float_range(self):
        # (2^n)^2 is beyond any float at n = 600; the exact quotient is
        # below the smallest one
        assert prob_ss_inner(600, 2) == 0.0
        assert prob_ss_outer(600, 2) == 0.0
        assert prob_ss_inner(2000, 0) == 0.0
        assert prob_ss_inner(511, 0) == 2.0 ** -1022

    def test_poly_values(self):
        in_c, s_c = prob_poly_subset(10, 1)
        assert math.isclose(in_c, 10 / 1024, rel_tol=1e-12)
        assert math.isclose(s_c, 10 / 1048576, rel_tol=1e-12)

    def test_poly_decays_in_n(self):
        assert prob_poly_subset(40, 3)[1] < prob_poly_subset(20, 3)[1]
        assert prob_poly_subset(40, 3)[0] < prob_poly_subset(20, 3)[0]

    def test_poly_needs_positive_k(self):
        with pytest.raises(DomainError):
            prob_poly_subset(10, 0)
