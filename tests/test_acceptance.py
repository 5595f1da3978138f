"""Acceptance suite: the ten behavioral criteria this package is pinned to.

One test per criterion, so `pytest -v tests/test_acceptance.py` emits one
pass/fail line for each. Stated time budgets are asserted alongside the
functional tolerances; counters are exact unless a tolerance says
otherwise.
"""

import random
import time

import numpy as np
import pytest

from ssat import (
    DomainError,
    SAT,
    SAT_EXISTS,
    SsatInstance,
    UNSAT,
    address_of,
    binary_search_solve,
    brute_force_solution_set,
    build_with_solutions,
    complement,
    counted_existence,
    duplicate_and_shuffle,
    evaluate,
    inner_board_solve,
    inner_witness_solve,
    inverse_address,
    outer_random_solve,
    prob_ss_inner,
    prob_ss_outer,
    quick_existence,
    run_bench,
)
from ssat.solvers import random_permutation


def test_criterion_01_worked_example_fidelity():
    # the 7-row width-3 instance with unique solution 011: every solver
    # agrees and every witness is exactly 011
    t0 = time.perf_counter()
    inst = build_with_solutions(3, {3})
    assert inst.rows.tolist() == [0, 1, 2, 3, 5, 6, 7]

    assert inner_board_solve(inst).verdict == SAT_EXISTS

    witness_run = inner_witness_solve(inst)
    assert witness_run.verdict == SAT
    assert witness_run.witness == 0b011

    for seed in range(20):
        rep = outer_random_solve(inst, seed)
        assert rep.verdict == SAT
        assert rep.witness == 0b011

    search = binary_search_solve(inst)
    assert search.verdict == SAT
    assert search.witness == 0b011

    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_blocked_board_fidelity():
    # all-rows boards: UNSAT everywhere, with the exact 2^{n-1} counts
    t0 = time.perf_counter()
    for n in (1, 2, 3, 8):
        half = 1 << (n - 1)
        inst = build_with_solutions(n, set())

        witness_run = inner_witness_solve(inst)
        assert witness_run.verdict == UNSAT
        assert witness_run.pair_insertions == half

        for seed in (0, 1, 2):
            rep = outer_random_solve(inst, seed)
            assert rep.verdict == UNSAT
            assert rep.iterations == half

        assert brute_force_solution_set(inst) == set()
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_oracle_equivalence_500_instances():
    # randomized duplicated shuffled instances: verdicts match the oracle
    # and witnesses satisfy, with no exceptions tolerated
    t0 = time.perf_counter()
    rng = random.Random(202608)
    for trial in range(500):
        n = rng.randint(1, 10)
        size = 1 << n
        wanted = set(rng.sample(range(size), rng.randrange(size)))
        base = build_with_solutions(n, wanted)
        extra = rng.randrange(4 * size + 1)
        inst = duplicate_and_shuffle(base, extra, seed=trial)

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
            assert (rep.verdict != UNSAT) == satisfiable, (trial, rep)
            if rep.witness is not None:
                assert evaluate(inst, rep.witness) == 1
    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_outer_average_reproduction():
    # unique-solution scenario at width 10: mean outer iterations lands
    # within 10% of 2^{n-2} = 256 and the 2^{n-1} = 512 cap always holds
    t0 = time.perf_counter()
    records = run_bench(10, trials=1000, scenario="unique",
                        algorithms=["outer-random"], seed_base=77_000)
    assert len(records) == 1000
    iterations = [rec.iterations for rec in records]
    assert all(it <= 512 for it in iterations)
    mean = sum(iterations) / len(iterations)
    assert 256 * 0.9 <= mean <= 256 * 1.1, mean
    assert time.perf_counter() - t0 < 30.0


def test_criterion_05_wide_vs_narrow():
    # 2^n copies of one hopeless row up front: the row-fed solver churns
    # past 2^n iterations while the outer walk stays inside 2^{n-1}
    t0 = time.perf_counter()
    n, solution = 8, 77
    base = build_with_solutions(n, {solution}).rows.tolist()
    hopeless = next(
        k for k in range(1 << n) if k not in (solution, complement(solution, n))
    )
    inst = SsatInstance(n, [hopeless] * (1 << n) + base)

    witness_run = inner_witness_solve(inst)
    assert witness_run.verdict == SAT
    assert witness_run.witness == solution
    assert witness_run.iterations > 1 << n

    for seed in range(50):
        rep = outer_random_solve(inst, seed)
        assert rep.verdict == SAT
        assert rep.witness == solution
        assert rep.iterations <= 1 << (n - 1)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_06_binary_search_cost():
    # sorted unique-gap instances at three widths, random plus edge gaps:
    # comparison count within ceil(log2(2^n - 1)) + 2 and witness correct
    t0 = time.perf_counter()
    rng = random.Random(8_128)
    for n in (10, 16, 20):
        size = 1 << n
        gaps = [0, size - 1] + [rng.randrange(size) for _ in range(98)]
        for gap in gaps:
            solution = complement(gap, n)
            inst = build_with_solutions(n, {solution})
            rep = binary_search_solve(inst)
            assert rep.iterations <= n + 2
            assert rep.witness == solution
            assert evaluate(inst, rep.witness) == 1
    assert time.perf_counter() - t0 < 5.0


def test_criterion_07_existence_shortcuts():
    # quick fires exactly when m < 2^n with a zero-iteration answer;
    # counted fires exactly when m - k2 < 2^n; positives oracle-checked
    rng = random.Random(5_150)
    for trial in range(1000):
        n = rng.randint(1, 12)
        size = 1 << n
        m = rng.randint(1, 2 * size)

        quick = quick_existence(n, m)
        assert (quick is not None) == (m < size)
        if quick is not None:
            assert quick.verdict == SAT_EXISTS
            assert quick.iterations == 0
            if n <= 10:
                rows = [rng.randrange(size) for _ in range(m)]
                assert brute_force_solution_set(SsatInstance(n, rows))

        k2 = rng.randint(0, m - 1)
        k1 = rng.randint(0, 5)
        counted = counted_existence(n, m, k1, k2)
        assert (counted is not None) == (m - k2 < size)
        if counted is not None:
            assert counted.verdict == SAT_EXISTS
            assert counted.iterations == k1 + k2
            if n <= 10:
                distinct = rng.sample(range(size), m - k2)
                rows = distinct + rng.choices(distinct, k=k2)
                assert brute_force_solution_set(SsatInstance(n, rows))


def test_criterion_08_permutation_contract():
    # permutations over four sizes and 100 seeds: multiset equality with
    # the identity and no fixed point before the final cell
    for mi in (1, 3, 1023, 65535):
        prefix = np.arange(mi)
        identity = np.arange(mi + 1)
        for seed in range(100):
            table = np.array(random_permutation(mi, seed))
            assert np.array_equal(np.sort(table), identity)
            assert not np.any(table[:mi] == prefix)


def test_criterion_09_probability_formulas():
    # equal baselines at f = 0, strict growth over the whole domain, and
    # the domain edge raising exactly at the first invalid f
    baseline = 2.0 ** -20
    inner0 = prob_ss_inner(10, 0)
    outer0 = prob_ss_outer(10, 0)
    assert abs(inner0 - baseline) <= 1e-12 * baseline
    assert abs(outer0 - baseline) <= 1e-12 * baseline

    inner = [prob_ss_inner(10, f) for f in range(512)]
    outer = [prob_ss_outer(10, f) for f in range(1024)]
    assert all(b > a for a, b in zip(inner, inner[1:]))
    assert all(b > a for a, b in zip(outer, outer[1:]))

    with pytest.raises(DomainError):
        prob_ss_inner(10, 512)
    with pytest.raises(DomainError):
        prob_ss_outer(10, 1024)


def test_criterion_10_address_map():
    # exhaustive over widths up to 16: bijection, complement adjacency,
    # and inverse round trip
    t0 = time.perf_counter()
    for n in range(1, 17):
        size = 1 << n
        seen = set()
        for k in range(size):
            a = address_of(k, n)
            seen.add(a)
            assert address_of(complement(k, n), n) == a ^ 1
            assert inverse_address(a, n) == k
        assert len(seen) == size
    assert time.perf_counter() - t0 < 5.0
