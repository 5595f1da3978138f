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
from .model import MAX_TABLE_WIDTH

# What dumps write for an unoccupied cell; every valid code is nonnegative.
EMPTY = -1


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


class PairTable:
    """Mutable 2^n-cell table. cells is a bool array: cell a is occupied
    exactly when inverse_address(a), the one code whose address it is, has
    been inserted. ct tracks the number of occupied cells."""

    __slots__ = ("n", "cells", "ct")

    def __init__(self, n: int):
        if not 1 <= n <= MAX_TABLE_WIDTH:
            raise ValueError(f"table width must be in [1, {MAX_TABLE_WIDTH}], got {n}")
        self.n = n
        self.cells = np.zeros(1 << n, dtype=np.bool_)
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
        if self.cells[a]:
            return False
        self.cells[a] = True
        self.ct += 1
        return True

    def insert_pair(self, k: int) -> bool:
        """Occupy the cells of k and its complement (the two cells are
        adjacent). False if k's cell is occupied; a cell pair is always
        filled or emptied as a unit, so ct moves in steps of 2."""
        a = address_of(k, self.n)
        if self.cells[a]:
            return False
        self.cells[a] = True
        self.cells[a ^ 1] = True  # the other cell of the pair is complement(k)'s
        self.ct += 2
        return True

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
        holds, or -1 (EMPTY) for an unoccupied cell."""
        codes = _code_at(np.arange(self.size, dtype=np.int64), self.n)
        values = np.where(self.cells, codes, EMPTY)
        with open(path, "w", encoding="ascii") as fh:
            for a, v in enumerate(values.tolist()):
                fh.write(f"{a} {v}\n")

    def __repr__(self) -> str:
        return f"PairTable(n={self.n}, ct={self.ct}/{self.size})"
