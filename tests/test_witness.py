"""The inner-witness kernel against the one-row-at-a-time loop in
tests/reference.py.

The kernel tests the rows in chunks with evaluate_many and parks the
misses with PairTable.fill; every field of its SolverReport and the bytes
of its board dump must still be those of the scalar loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssat.solvers
from reference import inner_witness_reference
from ssat import (
    PreconditionError,
    SsatInstance,
    WitnessVerificationError,
    build_with_solutions,
    complement,
    duplicate_and_shuffle,
    inner_board_solve,
    inner_witness_solve,
)
from ssat.model import BLOCK_ROWS


def assert_matches_reference(inst, tmp_path):
    got = inner_witness_solve(inst, dump_board=tmp_path / "kernel.board")
    want = inner_witness_reference(inst, dump_board=tmp_path / "reference.board")
    assert got == want
    assert (tmp_path / "kernel.board").read_bytes() == (tmp_path / "reference.board").read_bytes()
    return got


@st.composite
def witness_cases(draw):
    """n in 1..12: rows drawn with replacement, or a planted set of 0-2
    solutions (0 is the blocked board), sorted or with shuffled
    duplicates."""
    n = draw(st.integers(1, 12))
    size = 1 << n
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        m = draw(st.integers(1, 4 * size))
        return SsatInstance(n, np.random.default_rng(seed).integers(0, size, m))
    solutions = draw(st.sets(st.integers(0, size - 1), max_size=min(size - 1, 2)))
    inst = build_with_solutions(n, solutions)
    duplicates = draw(st.integers(0, 2 * size))
    if duplicates or draw(st.booleans()):
        inst = duplicate_and_shuffle(inst, duplicates, seed)
    return inst


class TestInnerWitnessDifferential:
    @settings(max_examples=150, deadline=None)
    @given(witness_cases())
    def test_matches_scalar_loop(self, tmp_path_factory, inst):
        assert_matches_reference(inst, tmp_path_factory.mktemp("solve"))

    # chunks hold 64, 128, ... rows: a hit or the filling row on either
    # side of a chunk boundary must report the same row as the scalar loop
    EDGES = (0, 62, 63, 64, 191, 192, 193, 447, 448)

    @pytest.mark.parametrize("position", EDGES)
    def test_hit_on_chunk_edges(self, tmp_path, position):
        # every row but s misses, since only complement(s) is absent
        n, s = 12, 1234
        others = build_with_solutions(n, {s}).rows
        others = np.random.default_rng(position).permutation(others[others != s])
        inst = SsatInstance(n, np.insert(others, position, s))
        got = assert_matches_reference(inst, tmp_path)
        assert (got.evidence, got.witness, got.iterations) == ("row-hit", s, position + 1)

    @pytest.mark.parametrize("position", EDGES[1:])
    def test_fill_on_chunk_edges(self, tmp_path, position):
        # one row per complement pair, with the last new pair at position
        n = 6
        half = 1 << (n - 1)
        reps = np.random.default_rng(position).permutation(half)
        rows = np.concatenate([
            reps[:-1], np.full(position - (half - 1), reps[0]), reps[-1:],
            (1 << n) - 1 - reps,
        ])
        got = assert_matches_reference(SsatInstance(n, rows), tmp_path)
        assert (got.evidence, got.iterations, got.pair_insertions) == (
            "blocked-board", position + 1, half)


class TestPastTheChunkCap:
    """n = 16 runs longer than BLOCK_ROWS rows, so chunks reach the cap and
    fill's interleaved codes cross its block boundaries."""

    def test_shuffled_blocked_board(self, tmp_path):
        inst = duplicate_and_shuffle(build_with_solutions(16, ()), BLOCK_ROWS, 11)
        got = assert_matches_reference(inst, tmp_path)
        assert got.evidence == "blocked-board"
        assert got.iterations > BLOCK_ROWS and got.pair_insertions == 1 << 15

    def test_unique_solution_with_duplicates(self, tmp_path):
        s = 0xBEEF
        inst = duplicate_and_shuffle(build_with_solutions(16, {s}), 1 << 16, 12)
        got = assert_matches_reference(inst, tmp_path)
        assert (got.evidence, got.witness) == ("row-hit", s)

    def test_early_hit_in_a_long_instance(self, tmp_path):
        s = 0x1234
        inst = duplicate_and_shuffle(
            build_with_solutions(16, {s}), (1 << 17) - ((1 << 16) - 1), 13)
        rows = inst.rows.copy()
        first = int(np.flatnonzero(rows == s)[0])
        rows[[first, 40]] = rows[[40, first]]
        assert rows.size == 1 << 17
        got = assert_matches_reference(SsatInstance(16, rows), tmp_path)
        assert (got.evidence, got.witness) == ("row-hit", s)
        assert got.iterations <= 41


class TestInnerWitnessChecks:
    def test_witness_is_rechecked(self, monkeypatch):
        # a batch test that passes a blocked row must not reach the
        # report: evaluate has the last word
        inst = SsatInstance(3, list(range(8)))
        monkeypatch.setattr(ssat.solvers, "evaluate_many",
                            lambda inst, xs: (xs >= 0).view("uint8"))
        with pytest.raises(WitnessVerificationError):
            inner_witness_solve(inst)

    @pytest.mark.parametrize("solve", [inner_witness_solve, inner_board_solve])
    @pytest.mark.parametrize("n", [31, 62])
    def test_past_the_table_cap(self, monkeypatch, solve, n):
        # the width is refused before any table is allocated
        monkeypatch.setattr(ssat.solvers, "PairTable", None)
        inst = SsatInstance(n, [0, complement(0, n)])
        with pytest.raises(PreconditionError, match="MAX_TABLE_WIDTH = 30.*outer-random"):
            solve(inst)
