"""The numpy block kernels of the pair table against the scalar loops in
tests/reference.py: PairTable.fill, inner_board_solve and PairTable.dump
must agree with them on the consumed count, verdict, evidence, cells, ct
and dump bytes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import dump_reference, fill_reference, inner_board_reference
from ssat import PairTable, SsatInstance, WidthMismatchError, inner_board_solve
from ssat.model import BLOCK_ROWS


def make_codes(n, kind, m, seed):
    """m codes of width n. "uniform" draws with replacement, so short
    inputs stay below 2^n distinct codes and small n repeats codes within
    a block; "cover" shuffles every code in among m - 2^n repeats (at
    least all 2^n codes), so the table fills, late in the input."""
    rng = np.random.default_rng(seed)
    size = 1 << n
    if kind == "uniform":
        return rng.integers(0, size, m, dtype=np.int64)
    extra = rng.integers(0, size, max(m - size, 0), dtype=np.int64)
    return rng.permutation(np.concatenate([np.arange(size, dtype=np.int64), extra]))


def assert_same_tables(got, want):
    assert got.ct == want.ct
    assert np.array_equal(got.cells, want.cells)


def assert_same_dumps(got, want, tmp_path):
    got.dump(tmp_path / "kernel.board")
    dump_reference(want, tmp_path / "reference.board")
    assert (tmp_path / "kernel.board").read_bytes() == (tmp_path / "reference.board").read_bytes()


@st.composite
def fill_cases(draw):
    n = draw(st.sampled_from((1, 2, 10, 16)))
    kind = draw(st.sampled_from(("uniform", "cover")))
    m = draw(st.integers(0, 3 * BLOCK_ROWS if n == 16 else 4 << n))
    prefill = draw(st.integers(0, (1 << n) - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, make_codes(n, kind, m, seed), prefill, seed


class TestFillDifferential:
    @settings(max_examples=60, deadline=None)
    @given(fill_cases())
    def test_fill_matches_insert_loop(self, tmp_path_factory, case):
        n, codes, prefill, seed = case
        got, want = PairTable(n), PairTable(n)
        # a table that already holds some codes, the same in both
        for k in np.random.default_rng(seed + 1).integers(0, 1 << n, prefill).tolist():
            got.insert(k)
            want.insert(k)
        assert got.fill(codes) == fill_reference(want, codes.tolist())
        assert_same_tables(got, want)
        assert_same_dumps(got, want, tmp_path_factory.mktemp("dump"))

    @settings(max_examples=40, deadline=None)
    @given(fill_cases())
    def test_inner_board_matches_scalar_loop(self, tmp_path_factory, case):
        n, codes, _, _ = case
        if codes.size == 0:
            codes = np.zeros(1, dtype=np.int64)  # an instance needs a row
        inst = SsatInstance(n, codes)
        tmp = tmp_path_factory.mktemp("solve")
        got = inner_board_solve(inst, dump_board=tmp / "kernel.board")
        want = inner_board_reference(inst, dump_board=tmp / "reference.board")
        assert got == want
        assert (tmp / "kernel.board").read_bytes() == (tmp / "reference.board").read_bytes()


class TestFillPositions:
    """The table fills on an exact row; the count must stop right there."""

    @staticmethod
    def check(n, codes, expected, tmp_path):
        got, want = PairTable(n), PairTable(n)
        assert got.fill(codes) == expected == fill_reference(want, codes.tolist())
        assert got.is_full
        assert_same_tables(got, want)
        assert_same_dumps(got, want, tmp_path)

    def test_fill_on_last_row_of_first_block(self, tmp_path):
        # 2^15 distinct codes fill an n = 15 table at the block's last row
        codes = np.random.default_rng(1).permutation(BLOCK_ROWS)
        tail = np.arange(5, dtype=np.int64)
        self.check(15, np.concatenate([codes, tail]), BLOCK_ROWS, tmp_path)

    def test_fill_on_first_row_of_second_block(self, tmp_path):
        # a repeat takes one slot of the first block, so the last fresh
        # code is the second block's first row
        codes = np.random.default_rng(2).permutation(BLOCK_ROWS)
        codes = np.concatenate([codes[:1], codes[:1], codes[1:-1], codes[-1:], codes[:3]])
        self.check(15, codes, BLOCK_ROWS + 1, tmp_path)

    def test_fill_on_last_row_of_second_block(self, tmp_path):
        codes = np.random.default_rng(3).permutation(1 << 16)
        self.check(16, np.concatenate([codes, codes[:7]]), 1 << 16, tmp_path)

    def test_fill_in_third_block_with_repeats(self, tmp_path):
        codes = make_codes(16, "cover", 3 * BLOCK_ROWS, seed=4)
        expected = fill_reference(PairTable(16), codes.tolist())
        assert expected > 2 * BLOCK_ROWS
        self.check(16, codes, expected, tmp_path)


class TestFillEdges:
    def test_empty_input(self, tmp_path):
        for codes in ([], np.empty(0, dtype=np.int64)):
            t = PairTable(3)
            assert t.fill(codes) == 0
            assert t.ct == 0 and not t.cells.any()
        assert_same_dumps(t, PairTable(3), tmp_path)

    def test_full_table_consumes_nothing(self):
        t = PairTable(2)
        assert t.fill([0, 1, 2, 3, 0]) == 4
        assert t.fill([1, 2]) == 0
        assert t.ct == 4

    def test_repeats_inside_one_block(self):
        t = PairTable(3)
        assert t.fill([5, 5, 1, 5, 1]) == 5
        assert t.ct == 2

    @pytest.mark.parametrize("bad", [8, -1])
    def test_code_too_wide_raises_after_the_codes_before_it(self, bad):
        got, want = PairTable(3), PairTable(3)
        codes = [1, 2, 2, bad, 3]
        with pytest.raises(WidthMismatchError, match=f"code {bad} does not fit width 3"):
            got.fill(codes)
        with pytest.raises(WidthMismatchError):
            fill_reference(want, codes)
        assert_same_tables(got, want)

    def test_no_raise_when_the_table_fills_before_a_bad_code(self):
        t = PairTable(1)
        assert t.fill([0, 1, 2]) == 2
        assert t.is_full

    def test_bad_code_in_a_later_block(self):
        codes = np.zeros(BLOCK_ROWS + 3, dtype=np.int64)
        codes[BLOCK_ROWS + 1] = 1 << 10
        t = PairTable(10)
        with pytest.raises(WidthMismatchError):
            t.fill(codes)
        assert t.ct == 1
