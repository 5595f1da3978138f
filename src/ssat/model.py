"""Fixed-width clause model: clauses as n-bit codes, instances, evaluation.

An instance over n Boolean variables x_{n-1}..x_0 is a conjunction of m
disjunctive rows in which every row mentions all n variables exactly once,
in the same order. Such a row is stored as an n-bit integer: bit i is 1
when x_i appears positively, 0 when it appears negated. Assignments are
the integers [0, 2^n - 1] under the same bit convention.

A full-width disjunction is false under exactly one assignment, the
bitwise complement of its code. Evaluating the whole conjunction therefore
reduces to a single membership test: the instance is false under x if and
only if the complement of x occurs among its rows.

Literals at the API boundary are signed 1-based indices (DIMACS style):
+v stands for x_{v-1}, -v for its negation. General clauses that skip
variables are carried as ternary digit vectors (digit 2 = variable absent,
written x_{n-1} first) and can be expanded into equivalent fixed-width
rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BlowupLimitError,
    DuplicateVariableError,
    MissingVariableError,
    WidthMismatchError,
)

# Rows live in an int64 array; wider codes would overflow it.
MAX_WIDTH = 62

# Ternary digit marking a variable that a clause does not mention.
ABSENT = 2

# Default cap on rows produced when expanding a general instance.
DEFAULT_EXPANSION_CAP = 1 << 20

# Widest n for which a 2^n-entry array (the membership bitmap, the pair
# table) is allocated; 2^30 bytes is 1 GiB.
MAX_TABLE_WIDTH = 30

# Rows per block wherever numpy walks rows or cells in blocks (the rows-file
# codec, PairTable.fill and dump), and the cap on the outer walk's chunks of
# candidates: small enough that a block's temporaries stay in cache and
# bounded whatever m or 2^n is.
BLOCK_ROWS = 1 << 15

TernaryClause = tuple[int, ...]


def complement(code: int, n: int) -> int:
    """Bitwise complement of an n-bit code."""
    return ((1 << n) - 1) ^ code


def is_blocking_pair(a: int, b: int, n: int) -> bool:
    """True when the two codes block each other, i.e. b is a's complement."""
    return b == complement(a, n)


def translate_row(clause: Iterable[int], n: int) -> int:
    """Encode a full-width clause, given as signed 1-based literals, as an
    n-bit row code (positive literal -> 1, negated -> 0)."""
    bits = 0
    seen = 0
    for lit in clause:
        v = abs(lit)
        if not 1 <= v <= n:
            raise WidthMismatchError(f"literal {lit} names no variable in x_0..x_{n - 1}")
        mask = 1 << (v - 1)
        if seen & mask:
            raise DuplicateVariableError(f"variable x_{v - 1} appears twice in the clause")
        seen |= mask
        if lit > 0:
            bits |= mask
    if seen != (1 << n) - 1:
        missing = next(i for i in range(n) if not (seen >> i) & 1)
        raise MissingVariableError(f"clause does not mention x_{missing}")
    return bits


def untranslate(code: int, n: int) -> list[int]:
    """Inverse of translate_row: the clause for a code, highest variable
    first, as signed 1-based literals."""
    if not 0 <= code < (1 << n):
        raise WidthMismatchError(f"code {code} does not fit width {n}")
    return [(i + 1) if (code >> i) & 1 else -(i + 1) for i in range(n - 1, -1, -1)]


def _checked_rows(n: int, rows) -> np.ndarray:
    """rows as an integer array, after every check an instance makes of
    its width and codes."""
    if not 1 <= n <= MAX_WIDTH:
        raise ValueError(f"variable count must be in [1, {MAX_WIDTH}], got {n}")
    given = rows
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise ValueError("rows must be a flat sequence of integer codes")
    if rows.size == 0:
        raise ValueError("an instance needs at least one row")
    if rows.dtype.kind not in "iu":
        # numpy stores Python ints that fit no 64-bit dtype as float or
        # object; only this rejection path reads the elements
        if rows.dtype.kind in "fO" and all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            for v in np.asarray(given, dtype=object)
        ):
            raise WidthMismatchError(f"rows must lie in [0, 2^{n} - 1]")
        raise ValueError(
            f"rows must be a flat sequence of integer codes, got dtype {rows.dtype}")
    # one pass: a code outside [0, 2^n - 1] sets a bit at n or above, and a
    # negative one the sign bit, so the or of all codes shifted right by n
    # is nonzero exactly when some code is out of range
    if int(np.bitwise_or.reduce(rows)) >> n:
        raise WidthMismatchError(f"rows must lie in [0, 2^{n} - 1]")
    return rows


@dataclass(frozen=True, eq=False, repr=False)
class SsatInstance:
    """An immutable conjunction of fixed-width rows.

    Rows are kept exactly as given: duplicates and arbitrary order are
    allowed and preserved, so m may exceed 2^n. The constructor keeps a
    read-only int64 copy of the codes, whatever array the caller holds.
    The package's own parsers and builders hand over the int64 array they
    have just made through _adopt, which makes the same checks but keeps
    that array instead of copying it.
    """

    n: int
    rows: np.ndarray

    def __post_init__(self):
        # a private copy, whatever the caller holds
        self._keep(_checked_rows(self.n, self.rows).astype(np.int64))

    @classmethod
    def _adopt(cls, n: int, rows: np.ndarray) -> "SsatInstance":
        """The instance over rows, an array the caller has just made and
        holds no other reference to: checked as the constructor checks,
        then frozen in place rather than copied when it is int64."""
        inst = cls.__new__(cls)
        object.__setattr__(inst, "n", n)
        inst._keep(_checked_rows(n, rows).astype(np.int64, copy=False))
        return inst

    def _keep(self, rows: np.ndarray) -> None:
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return self.rows.size

    def has_row(self, code: int) -> bool:
        """Membership of a code in the row multiset; False for any code
        outside [0, 2^n - 1]. Reads _index, built on first use."""
        n = self.n
        if code < 0 or code >> n:
            return False
        index = self._index
        if n <= MAX_TABLE_WIDTH:
            return index[code]
        i = int(np.searchsorted(index, code))
        return i < index.size and int(index[i]) == code

    def build_index(self) -> None:
        """Build the membership index has_row reads, if not built yet, so
        that a timed caller does not pay for it on its first lookup."""
        self._index

    @cached_property
    def _index(self) -> memoryview | np.ndarray:
        """The membership index: up to MAX_TABLE_WIDTH a 2^n-entry bool
        presence array, as a memoryview because an item read of one costs
        less than numpy scalar indexing; beyond it, where no such array
        fits, the rows in ascending order."""
        if self.n <= MAX_TABLE_WIDTH:
            present = np.zeros(1 << self.n, dtype=np.bool_)
            present[self.rows] = True
            return memoryview(present)
        rows = self.rows
        if rows.size > 1 and not bool(np.all(rows[1:] >= rows[:-1])):
            rows = np.sort(rows)
        return rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, SsatInstance):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.rows, other.rows)

    def __repr__(self) -> str:
        head = ", ".join(format(int(r), f"0{self.n}b") for r in self.rows[:4])
        tail = ", ..." if self.m > 4 else ""
        return f"SsatInstance(n={self.n}, m={self.m}, rows=[{head}{tail}])"


def _check_assignment(n: int, x: int) -> None:
    if not 0 <= x < (1 << n):
        raise WidthMismatchError(f"assignment {x} does not fit width {n}")


def evaluate(inst: SsatInstance, x: int) -> int:
    """Truth value (0 or 1) of the conjunction under assignment x.

    Whole-word test: x falsifies the instance exactly when its complement
    occurs as a row.
    """
    _check_assignment(inst.n, x)
    return 0 if inst.has_row(complement(x, inst.n)) else 1


def evaluate_many(inst: SsatInstance, xs) -> np.ndarray:
    """evaluate over a batch: a uint8 array holding evaluate(inst, x) for
    each x of xs, in order.

    Reads the index has_row reads: the presence bitmap as one gather,
    the sorted rows as one searchsorted. An assignment outside
    [0, 2^n - 1] raises evaluate's WidthMismatchError, for the first
    such x.
    """
    n = inst.n
    try:
        xs = np.asarray(xs, dtype=np.int64)
    except OverflowError:  # some x is beyond int64: let evaluate's check name it
        for x in xs:
            _check_assignment(n, int(x))
        raise
    outside = (xs < 0) | (xs >> n != 0)
    if outside.any():
        _check_assignment(n, int(xs[outside.argmax()]))
    codes = ((1 << n) - 1) ^ xs
    index = inst._index
    if n <= MAX_TABLE_WIDTH:
        blocked = np.frombuffer(index, dtype=np.bool_)[codes]
    else:
        at = np.searchsorted(index, codes).clip(max=index.size - 1)
        blocked = index[at] == codes
    return (~blocked).view(np.uint8)


def evaluate_by_matching(inst: SsatInstance, x: int) -> int:
    """Same truth value as evaluate, computed the slow way: every row must
    agree with x in at least one digit, checked over all m*n digit pairs."""
    _check_assignment(inst.n, x)
    n = inst.n
    result = 1
    for row in inst.rows.tolist():
        row_true = 0
        for i in range(n):
            if (x >> i) & 1 == (row >> i) & 1:
                row_true = 1
        if not row_true:
            result = 0
    return result


def ternary_from_clause(clause: Iterable[int], n: int) -> TernaryClause:
    """Digit vector for a general clause: 1 positive, 0 negated, 2 absent;
    x_{n-1} first."""
    digits = [ABSENT] * n
    used = False
    for lit in clause:
        v = abs(lit)
        if not 1 <= v <= n:
            raise WidthMismatchError(f"literal {lit} names no variable in x_0..x_{n - 1}")
        if digits[n - v] != ABSENT:
            raise DuplicateVariableError(f"variable x_{v - 1} appears twice in the clause")
        digits[n - v] = 1 if lit > 0 else 0
        used = True
    if not used:
        raise ValueError("empty clause")
    return tuple(digits)


def ternary_row_code(digits: Sequence[int]) -> int:
    """Row code of a full-width ternary vector (no absent digits)."""
    n = len(digits)
    code = 0
    for j, d in enumerate(digits):
        if d == ABSENT:
            raise MissingVariableError(f"variable x_{n - 1 - j} is absent; no single code exists")
        if d:
            code |= 1 << (n - 1 - j)
    return code


@dataclass(frozen=True)
class SatInstance:
    """A general conjunction whose clauses may skip variables, held as
    ternary digit vectors."""

    n: int
    clauses: tuple[TernaryClause, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_WIDTH:
            raise ValueError(f"variable count must be in [1, {MAX_WIDTH}], got {self.n}")
        if not self.clauses:
            raise ValueError("an instance needs at least one clause")
        for c in self.clauses:
            if len(c) != self.n:
                raise WidthMismatchError(f"clause {c} is not {self.n} digits wide")
            if any(d not in (0, 1, ABSENT) for d in c):
                raise ValueError(f"clause {c} has a digit outside {{0, 1, 2}}")
            if all(d == ABSENT for d in c):
                raise ValueError("a clause must mention at least one variable")

    @property
    def m(self) -> int:
        return len(self.clauses)

    @classmethod
    def from_clauses(cls, n: int, clauses: Iterable[Iterable[int]]) -> "SatInstance":
        """Build from clauses of signed 1-based literals."""
        return cls(n, tuple(ternary_from_clause(c, n) for c in clauses))


def expand_to_ssat(sat: SatInstance, row_cap: int = DEFAULT_EXPANSION_CAP) -> SsatInstance:
    """Rewrite every clause into full-width rows, both polarities of each
    absent variable; a clause missing k variables becomes 2^k rows.

    The satisfying set is unchanged. Raises BlowupLimitError before
    materializing more than row_cap rows.
    """
    total = 0
    for clause in sat.clauses:
        total += 1 << clause.count(ABSENT)
        if total > row_cap:
            raise BlowupLimitError(f"expansion needs more than {row_cap} rows")
    rows = []
    for clause in sat.clauses:
        absent = [j for j, d in enumerate(clause) if d == ABSENT]
        digits = list(clause)
        for pattern in range(1 << len(absent)):
            for t, j in enumerate(absent):
                digits[j] = (pattern >> (len(absent) - 1 - t)) & 1
            rows.append(ternary_row_code(digits))
    return SsatInstance._adopt(sat.n, np.array(rows, dtype=np.int64))
