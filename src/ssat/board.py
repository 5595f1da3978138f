"""Pair table: a 2^n-cell board that keeps complements in adjacent cells.

The address map sends a code k with high bit 0 to cell 2*low(k), and a
code with high bit 1 to cell 2*(2^{n-1} - low(k)) - 1, where low(k) is k
with the high bit dropped. The map is a bijection on [0, 2^n - 1] and
places every code and its bitwise complement in an adjacent pair of cells
{2j, 2j+1}: cell 2j belongs to code j, cell 2j+1 to complement(j).

Since every cell belongs to exactly one code, the table stores only
whether each cell is occupied, one byte per cell. A full table (ct = 2^n)
certifies unsatisfiability: every assignment is then blocked by some
inserted row. The inner solvers build their evidence on this structure.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import WidthMismatchError
from .model import BLOCK_ROWS, MAX_TABLE_WIDTH

# What dumps write for an unoccupied cell; every valid code is nonnegative.
EMPTY = -1

# Bits that hold a position within a block in PairTable.fill's sort keys.
_POSITION_BITS = (BLOCK_ROWS - 1).bit_length()


def address_of(k: int, n: int) -> int:
    """Cell index of code k in a width-n table."""
    if not 0 <= k < (1 << n):
        raise WidthMismatchError(f"code {k} does not fit width {n}")
    low = k & ((1 << (n - 1)) - 1)
    if k >> (n - 1):
        return 2 * ((1 << (n - 1)) - low) - 1
    return 2 * low


def inverse_address(a: int, n: int) -> int:
    """The code whose cell is a; inverse of address_of."""
    if not 0 <= a < (1 << n):
        raise WidthMismatchError(f"address {a} is outside a width-{n} table")
    return _code_at(a, n)


def _code_at(a, n: int):
    # cell 2j holds code j and cell 2j+1 its complement; works elementwise
    # on an int64 array of addresses too
    return (a >> 1) ^ ((a & 1) * ((1 << n) - 1))


def _address_at(k: np.ndarray, n: int) -> np.ndarray:
    # address_of elementwise on an int64 array of valid codes, as the
    # inverse of _code_at: a code with high bit h goes to cell
    # 2 * (k, or its complement when h = 1) + h
    h = k >> (n - 1)
    return ((k ^ (h * ((1 << n) - 1))) << 1) | h


def _put_decimal(out: np.ndarray, x: np.ndarray) -> None:
    # nonnegative int32 x in ASCII decimal, right-aligned in the columns
    # of the uint8 grid out; columns left of a number's first digit get 0.
    # Floor division by a constant is far cheaper than % in numpy.
    last = out.shape[1] - 1
    rest = x
    for j in range(last, -1, -1):
        q = rest // 10
        digit = rest - 10 * q + ord("0")
        if j < last:
            digit *= rest > 0
        out[:, j] = digit
        rest = q


class PairTable:
    """Mutable 2^n-cell table. cells is a bool array: cell a is occupied
    exactly when inverse_address(a), the one code whose address it is, has
    been inserted. ct tracks the number of occupied cells."""

    __slots__ = ("n", "cells", "ct", "_cell")

    def __init__(self, n: int):
        if not 1 <= n <= MAX_TABLE_WIDTH:
            raise ValueError(f"table width must be in [1, {MAX_TABLE_WIDTH}], got {n}")
        self.n = n
        self.cells = np.zeros(1 << n, dtype=np.bool_)
        # the scalar reads and writes of insert and insert_pair: a
        # memoryview item costs less than numpy scalar indexing
        self._cell = memoryview(self.cells)
        self.ct = 0

    @property
    def size(self) -> int:
        return 1 << self.n

    @property
    def is_full(self) -> bool:
        return self.ct == self.size

    def insert(self, k: int) -> bool:
        """Occupy k's cell. False (and no change) if the cell is already
        occupied, which can only mean a duplicate row."""
        a = address_of(k, self.n)
        cell = self._cell
        if cell[a]:
            return False
        cell[a] = True
        self.ct += 1
        return True

    def insert_pair(self, k: int) -> bool:
        """Occupy the cells of k and its complement (the two cells are
        adjacent). False (and no change) if k's cell is occupied. ct counts
        only the cells newly set: 2 under insert_pair alone, 1 when insert
        has already occupied the complement's cell."""
        a = address_of(k, self.n)
        cell = self._cell
        if cell[a]:
            return False
        b = a ^ 1  # the other cell of the pair is complement(k)'s
        self.ct += 2 - cell[b]
        cell[a] = cell[b] = True
        return True

    def fill(self, codes) -> int:
        """Insert codes in order, exactly as repeated insert calls would,
        and stop right after the code that occupies the last empty cell.
        Returns how many codes were consumed: all of them unless the table
        filled first, and 0 if it was already full.

        Codes go through in blocks of BLOCK_ROWS, so temporaries stay
        bounded whatever len(codes) is, and a block step touches only the
        cells its own codes name. A code that does not fit the width raises
        WidthMismatchError after the codes before it are in, like insert.
        """
        codes = np.asarray(codes, dtype=np.int64)
        n, cells = self.n, self.cells
        consumed = 0
        for start in range(0, codes.size, BLOCK_ROWS):
            if self.is_full:
                break
            block = codes[start:start + BLOCK_ROWS]
            bad = np.flatnonzero(block >> n)  # negative or 2^n and above
            if bad.size:
                block = block[:bad[0]]
            addr = _address_at(block, n)
            fresh = np.flatnonzero(~cells[addr])  # block positions of empty cells
            # one sort of (cell, position) keys gives each empty cell hit
            # together with its first position in the block; np.unique and
            # a stable argsort are several times slower at this size
            keys = np.sort((addr[fresh] << _POSITION_BITS) | fresh)
            hit = keys >> _POSITION_BITS
            first = np.diff(hit, prepend=-1) != 0
            new = hit[first]
            if self.ct + new.size == self.size:
                # the table fills at the first occurrence of the last of
                # these cells to show up in the block
                stop = int((keys[first] & (BLOCK_ROWS - 1)).max()) + 1
                block = block[:stop]
            cells[new] = True
            self.ct += new.size
            consumed += block.size
            if bad.size and not self.is_full:
                k = int(codes[start + bad[0]])
                raise WidthMismatchError(f"code {k} does not fit width {n}")
        return consumed

    def find_gap(self) -> int | None:
        """Code owning the lowest-address empty cell, or None when full.

        Under pair insertion an empty cell at the address of code g means
        neither g nor complement(g) was ever inserted, so g is unblocked.
        """
        if self.is_full:
            return None
        a = int(np.argmax(~self.cells))
        return inverse_address(a, self.n)

    def dump(self, path: str | os.PathLike) -> None:
        """Write one "address value" line per cell: the code the cell
        holds, or -1 (EMPTY) for an unoccupied cell.

        Each block of BLOCK_ROWS cells becomes a uint8 grid, one row per
        line and one column per byte: address digits, a space, value
        digits, "\n". The zero bytes left of each number's first digit
        are deleted as the block is written.
        """
        n, size = self.n, self.size
        wa = len(str(size - 1))
        wv = max(wa, 2)  # room for "-1" even at n = 1
        with open(path, "wb") as fh:
            for start in range(0, size, BLOCK_ROWS):
                # codes and addresses are below 2^30, and int32 is faster
                addr = np.arange(start, min(start + BLOCK_ROWS, size), dtype=np.int32)
                empty = ~self.cells[start:start + BLOCK_ROWS]
                grid = np.empty((addr.size, wa + wv + 2), dtype=np.uint8)
                _put_decimal(grid[:, :wa], addr)
                grid[:, wa] = ord(" ")
                # an empty cell's value, EMPTY = -1, is written as 1 with a
                # "-" in the column before it
                _put_decimal(grid[:, wa + 1:-1], np.where(empty, 1, _code_at(addr, n)))
                grid[:, -3] = np.where(empty, ord("-"), grid[:, -3])
                grid[:, -1] = ord("\n")
                fh.write(grid.tobytes().translate(None, b"\0"))

    def __repr__(self) -> str:
        return f"PairTable(n={self.n}, ct={self.ct}/{self.size})"
