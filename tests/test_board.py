"""Pair table: address map, insertion, gap finding."""

import random

import numpy as np
import pytest

from ssat import (
    PairTable,
    SsatInstance,
    WidthMismatchError,
    address_of,
    complement,
    evaluate,
    inverse_address,
)


def occupied_codes(t):
    """Codes held by the occupied cells, in address order."""
    return [inverse_address(a, t.n) for a in np.flatnonzero(t.cells).tolist()]


class TestAddressOf:
    def test_examples_three_variables(self):
        assert address_of(0b000, 3) == 0
        assert address_of(0b111, 3) == 1
        assert address_of(0b001, 3) == 2
        assert address_of(0b110, 3) == 3

    def test_examples_two_variables(self):
        assert [address_of(k, 2) for k in (0b00, 0b11, 0b01, 0b10)] == [0, 1, 2, 3]

    def test_bijection_and_adjacency(self):
        for n in (1, 2, 3, 8, 12):
            size = 1 << n
            seen = set()
            for k in range(size):
                a = address_of(k, n)
                assert 0 <= a < size
                seen.add(a)
                partner = address_of(complement(k, n), n)
                assert {a, partner} == {2 * (a // 2), 2 * (a // 2) + 1}
            assert len(seen) == size

    def test_out_of_range(self):
        with pytest.raises(WidthMismatchError):
            address_of(8, 3)
        with pytest.raises(WidthMismatchError):
            address_of(-1, 3)


class TestInverseAddress:
    def test_examples(self):
        assert inverse_address(0, 3) == 0b000
        assert inverse_address(1, 3) == 0b111

    def test_round_trip(self):
        for n in (1, 2, 3, 7, 12):
            for a in range(1 << n):
                assert address_of(inverse_address(a, n), n) == a

    def test_out_of_range(self):
        with pytest.raises(WidthMismatchError):
            inverse_address(8, 3)


class TestInsert:
    def test_fresh_insert(self):
        t = PairTable(3)
        assert t.insert(0b000) is True
        assert t.ct == 1

    def test_duplicate_is_skipped(self):
        t = PairTable(3)
        assert t.insert(0b000) is True
        assert t.insert(0b000) is False
        assert t.ct == 1

    def test_all_codes_fill_table(self):
        t = PairTable(3)
        for k in range(8):
            t.insert(k)
        assert t.ct == 8
        assert t.is_full

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            PairTable(3).insert(8)

    def test_cells_hold_codes_at_their_own_address(self):
        rng = random.Random(5)
        for n in (2, 4, 6):
            t = PairTable(n)
            inserted = set()
            for _ in range(3 << n):
                k = rng.randrange(1 << n)
                t.insert(k)
                inserted.add(k)
            codes = occupied_codes(t)
            assert len(codes) == len(set(codes)) == t.ct
            assert set(codes) == inserted
            for a in np.flatnonzero(t.cells).tolist():
                assert address_of(inverse_address(a, n), n) == a


class TestInsertPair:
    def test_fills_adjacent_cells(self):
        t = PairTable(3)
        assert t.insert_pair(0b001) is True
        assert np.flatnonzero(t.cells).tolist() == [2, 3]
        assert [inverse_address(a, 3) for a in (2, 3)] == [0b001, 0b110]
        assert t.ct == 2

    def test_complement_lands_in_same_pair(self):
        t = PairTable(3)
        assert t.insert_pair(0b001) is True
        assert t.insert_pair(0b110) is False
        assert t.ct == 2

    def test_half_fill_count(self):
        for n in (1, 2, 3, 6):
            t = PairTable(n)
            inserted = 0
            for k in range(1 << (n - 1)):
                inserted += t.insert_pair(k)
            assert inserted == 1 << (n - 1)
            assert t.ct == 1 << n
            assert t.is_full

    def test_mixed_with_insert_counts_only_new_cells(self):
        t = PairTable(2)
        t.insert(complement(0, 2))
        assert t.insert_pair(0) is True
        assert (t.ct, int(t.cells.sum())) == (2, 2)
        t.insert_pair(1)
        assert (t.ct, int(t.cells.sum())) == (4, 4)
        assert t.is_full and t.find_gap() is None
        rng = random.Random(4)
        for n in (1, 2, 3, 5):
            t = PairTable(n)
            while not t.is_full:
                k = rng.randrange(1 << n)
                (t.insert if rng.random() < 0.5 else t.insert_pair)(k)
                assert t.ct == int(t.cells.sum())
            assert t.cells.all() and t.find_gap() is None

    def test_ct_moves_in_steps_of_two(self):
        rng = random.Random(9)
        t = PairTable(4)
        for _ in range(64):
            before = t.ct
            t.insert_pair(rng.randrange(16))
            assert t.ct - before in (0, 2)


class TestFindGap:
    def test_full_table_has_no_gap(self):
        t = PairTable(2)
        t.insert_pair(0)
        t.insert_pair(1)
        assert t.find_gap() is None

    def test_fresh_table_gap_is_zero(self):
        assert PairTable(4).find_gap() == 0

    def test_worked_instance_gap_is_a_solution(self):
        # failing candidates of the 7-row instance, in solver order: the
        # run stops at row 3, so only 0, 1, 2 ever get pair-inserted
        inst = SsatInstance(3, [0, 1, 2, 3, 5, 6, 7])
        t = PairTable(3)
        for k in (0, 1, 2):
            assert t.insert_pair(k) is True
        gap = t.find_gap()
        assert gap is not None
        assert evaluate(inst, gap) == 1

    def test_gap_code_absent_under_pair_insertion(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(1, 6)
            t = PairTable(n)
            inserted = set()
            for _ in range(rng.randrange(1 << (n - 1))):
                k = rng.randrange(1 << n)
                if t.insert_pair(k):
                    inserted.update((k, complement(k, n)))
            gap = t.find_gap()
            assert gap not in inserted


class TestBlockedBoard:
    def test_full_table_codes_block_everything(self):
        for n in (1, 2, 4, 8):
            t = PairTable(n)
            for k in range(1 << n):
                t.insert(k)
            assert t.is_full
            inst = SsatInstance(n, occupied_codes(t))
            assert all(evaluate(inst, x) == 0 for x in range(1 << n))


class TestDump:
    def test_dump_format(self, tmp_path):
        t = PairTable(2)
        t.insert_pair(0b01)
        path = tmp_path / "board.txt"
        t.dump(path)
        lines = path.read_text().splitlines()
        assert lines == ["0 -1", "1 -1", "2 1", "3 2"]


class TestValidation:
    def test_width_bounds(self):
        with pytest.raises(ValueError):
            PairTable(0)
        with pytest.raises(ValueError):
            PairTable(31)

    def test_repr(self):
        assert "ct=0/4" in repr(PairTable(2))
