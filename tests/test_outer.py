"""The outer-random kernel against the scalar walk in tests/reference.py,
and its bulk draw decoder against random.Random.randint.

The kernel decodes the Fisher-Yates draws from bulk getrandbits output and
tests candidates in chunks; every field of its SolverReport must still be
the one the one-step-at-a-time walk reports, for the same seed."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssat.solvers
from reference import outer_random_reference, walk_reference
from ssat import (
    SsatInstance,
    WitnessVerificationError,
    build_with_solutions,
    complement,
    duplicate_and_shuffle,
    outer_random_solve,
)
from ssat.model import BLOCK_ROWS
from ssat.solvers import _randint_draws


def blocking_prefix(seed, n, steps, last):
    """Rows that make the first `steps` candidates and their complements
    fail, so the walk passes step `steps + 1` at the earliest. last picks
    what stops it there: "candidate" leaves that step's candidate free,
    "complement" blocks the candidate but leaves its complement free."""
    walk = list(islice(walk_reference(n, seed), steps + 1))
    rows = []
    for x in walk[:steps]:
        rows += [x, complement(x, n)]
    if last == "complement":
        rows.append(complement(walk[steps], n))
    return rows or [walk[0]]


seeds = st.one_of(st.integers(-2**70, 2**70), st.text(max_size=8))


@st.composite
def small_instances(draw):
    """n in 1..12: a planted solution set (possibly empty), duplicates
    and a shuffle, or a deep blocked prefix of the walk itself."""
    n = draw(st.integers(1, 12))
    seed = draw(seeds)
    size = 1 << n
    if draw(st.booleans()):
        solutions = draw(st.sets(st.integers(0, size - 1), max_size=min(size - 1, 4)))
        inst = build_with_solutions(n, solutions)
        duplicates = draw(st.integers(0, 2 * size))
        if duplicates or draw(st.booleans()):
            inst = duplicate_and_shuffle(inst, duplicates, draw(st.integers(0, 2**32)))
        return inst, seed
    steps = draw(st.integers(0, (1 << (n - 1)) - 1))
    last = draw(st.sampled_from(("candidate", "complement")))
    rows = blocking_prefix(seed, n, steps, last)
    random.Random(steps).shuffle(rows)
    return SsatInstance(n, rows), seed


class TestOuterRandomDifferential:
    @settings(max_examples=150, deadline=None)
    @given(small_instances())
    def test_matches_scalar_walk(self, case):
        inst, seed = case
        assert outer_random_solve(inst, seed) == outer_random_reference(inst, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((33, 40, 62)), seeds, st.integers(0, 300),
           st.sampled_from(("candidate", "complement")), st.integers(1, 40))
    def test_sparse_wide_instances(self, n, seed, steps, last, extra):
        # the sorted-rows membership path and two-word draws; the blocked
        # prefix carries the walk across the first chunk boundaries
        rng = random.Random(extra)
        rows = blocking_prefix(seed, n, steps, last)
        rows += [rng.randrange(1 << n) for _ in range(extra)]
        rng.shuffle(rows)
        inst = SsatInstance(n, rows)
        assert outer_random_solve(inst, seed) == outer_random_reference(inst, seed)

    @pytest.mark.parametrize("seed", [0, 7, "ssat", 2**64 + 3])
    def test_unsat_boards(self, seed):
        for n in (1, 2, 7, 13):
            inst = SsatInstance(n, list(range(1 << n)))
            got = outer_random_solve(inst, seed)
            assert got == outer_random_reference(inst, seed)
            assert (got.iterations, got.evaluations) == (1 << (n - 1), 1 << n)

    def test_hits_on_chunk_edges(self):
        # chunks hold 64, 128, 256, ... steps: a hit on either side of a
        # boundary must report the same step as the scalar walk
        n = 12
        for steps in (62, 63, 64, 191, 192, 193, 447, 448):
            for last in ("candidate", "complement"):
                inst = SsatInstance(n, blocking_prefix(5, n, steps, last))
                got = outer_random_solve(inst, 5)
                assert got.iterations == steps + 1
                assert got == outer_random_reference(inst, 5)

    def test_string_seed_is_not_reported(self):
        rep = outer_random_solve(SsatInstance(3, [0, 1, 2, 3, 5, 6, 7]), "seven")
        assert rep.seed is None
        assert rep == outer_random_reference(SsatInstance(3, [0, 1, 2, 3, 5, 6, 7]), "seven")

    def test_witness_is_rechecked(self, monkeypatch):
        # a batch test that passes a blocked assignment must not reach the
        # report: evaluate has the last word
        inst = SsatInstance(3, list(range(8)))
        monkeypatch.setattr(ssat.solvers, "evaluate_many",
                            lambda inst, xs: (xs >= 0).view("uint8"))
        with pytest.raises(WitnessVerificationError):
            outer_random_solve(inst, 1)


# Widths at and around the bit lengths where the decoder changes shape:
# 1 bit, the block size, the one-word/two-word edge, and n = 62.
PIN_WIDTHS = (1, 2, 3, 2**15, 2**15 + 1, 2**31 - 1, 2**31, 2**31 + 1,
              2**32, 2**32 + 1, 2**61)
PIN_SEEDS = (0, 1, 7, 2024, "ssat", 2**40 + 1)

# random.Random(7).randint(i, top - 1) for i = 0, 1, ..., on CPython 3.11
PINNED_SEED_7 = [21222, 31060, 4945, 12940, 21333]
PINNED_SEED_7_WIDE = [1820801989368220983, 111340922501047377, 1893729575939813173]

STREAM_CHANGED = (
    "random.Random.randint no longer follows the stream the outer-random "
    "kernel decodes; on this interpreter seeded outer-random runs would "
    "report other witnesses and counters than the scalar walk"
)


class TestDrawStream:
    @pytest.mark.parametrize("top", PIN_WIDTHS)
    @pytest.mark.parametrize("seed", PIN_SEEDS)
    def test_matches_randint(self, top, seed):
        count = min(top, 3 * BLOCK_ROWS // 2)
        rng = random.Random(seed)
        want = [rng.randint(i, top - 1) for i in range(count)]
        got = list(islice(_randint_draws(random.Random(seed), top), count))
        assert got == want, STREAM_CHANGED

    def test_whole_walks_of_small_widths(self):
        # every bit length change from top down to width 1
        for top in range(1, 200):
            rng = random.Random(top)
            want = [rng.randint(i, top - 1) for i in range(top)]
            assert list(_randint_draws(random.Random(top), top)) == want, STREAM_CHANGED

    def test_pinned_values(self):
        # the Mersenne Twister stream itself, not only its agreement with
        # randint on the running interpreter
        got = list(islice(_randint_draws(random.Random(7), 2**15), 5))
        assert got == PINNED_SEED_7, STREAM_CHANGED
        got = list(islice(_randint_draws(random.Random(7), 2**61), 3))
        assert got == PINNED_SEED_7_WIDE, STREAM_CHANGED
