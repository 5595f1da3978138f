"""Instance file formats.

Rows format (native): a header line "ssat n m", then m lines of exactly
n characters over {0,1}, leftmost character = x_{n-1}. One line per row,
duplicates and arbitrary order allowed.

CNF format: the usual DIMACS subset. Lines starting with "c" (after any
indent) are comments, the header is "p cnf n m", and each clause is a
whitespace separated run of signed 1-based variable numbers closed by 0
(clauses may span or share lines). A line holding only "%" ends the
clauses, as in SATLIB files. Variable v maps to x_{v-1}. Three ingestion
modes:

* strict-ssat: every clause must mention every variable exactly once;
  parses straight to fixed-width rows. A repeated literal or a clause
  holding both v and -v is a ParseError, and a clause that skips a
  variable a MissingVariableError, each naming the clause's first line.
* expand: clauses may skip variables; each one is rewritten into the
  equivalent set of fixed-width rows (2^k rows for k skipped variables).
* ternary: no rewriting; returns the general instance as ternary digit
  vectors (2 = variable absent).

expand and ternary drop repeated literals and whole tautological clauses,
neither of which changes the satisfying set.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import MissingVariableError, ParseError
from .model import (
    BLOCK_ROWS,
    DEFAULT_EXPANSION_CAP,
    MAX_WIDTH,
    SatInstance,
    SsatInstance,
    expand_to_ssat,
    ternary_from_clause,
    translate_row,
)

CNF_MODES = ("strict-ssat", "expand", "ternary")


def parse_rows_file(path: str | os.PathLike) -> SsatInstance:
    """Read a rows file. A strictly laid-out file (every line ends in
    "\n", every row is exactly n digits) is decoded with numpy, one pass
    per digit column over blocks of rows; any other file goes through the
    line loop, which accepts the tolerated layouts and names the line of
    any error."""
    with open(path, "rb") as fh:
        data = fh.read()
    inst = _parse_rows_strict(data)
    if inst is None:
        inst = _parse_rows_lines(data.decode("ascii"))
    return inst


def _parse_header(line: str) -> tuple[int, int]:
    """(n, m) from the header line; the one place headers are checked."""
    head = line.split()
    if len(head) != 3 or head[0] != "ssat":
        raise ParseError("header must be 'ssat n m'", 1)
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError("header must be 'ssat n m' with integer n and m", 1) from None
    if not 1 <= n <= MAX_WIDTH:
        raise ParseError(f"variable count must be in [1, {MAX_WIDTH}]", 1)
    if m < 1:
        raise ParseError("row count must be at least 1", 1)
    return n, m


def _parse_rows_strict(data: bytes) -> SsatInstance | None:
    """The instance of a file laid out exactly as write_rows_file writes
    it: a valid one-line header, then m lines of n characters over 0/1,
    each closed by "\n" and nothing after them. None for any other file,
    which the line loop then accepts or rejects."""
    end = data.find(b"\n")
    if end < 0 or not data[:end].isascii():
        return None
    text = data[:end].decode("ascii")
    # str.splitlines also breaks at \r, \v, \f and \x1c-\x1e; a header
    # holding one of those is a different first line for the line loop
    if text.splitlines() != [text]:
        return None
    try:
        n, m = _parse_header(text)
    except ParseError:
        return None  # the line loop raises it, after the same checks as always
    if len(data) - (end + 1) != m * (n + 1):
        return None
    grid = np.frombuffer(data, dtype=np.uint8, offset=end + 1).reshape(m, n + 1)
    codes = np.empty(m, dtype=np.int64)
    # blocks of rows keep each column pass inside the cache
    for start in range(0, m, BLOCK_ROWS):
        block = grid[start:start + BLOCK_ROWS]
        digits = block[:, :n]
        # "0" and "1" are the only bytes b with b | 1 == ord("1")
        if ((digits | 1) != ord("1")).any() or (block[:, n] != ord("\n")).any():
            return None
        # leftmost digit is the highest bit; bit 0 of the byte is the digit
        out = codes[start:start + BLOCK_ROWS]
        out[:] = digits[:, 0] & 1
        for j in range(1, n):
            out <<= 1
            out |= digits[:, j] & 1
    return SsatInstance(n, codes)


def _parse_rows_lines(text: str) -> SsatInstance:
    """Line-by-line parse of a rows file's text. Tolerates CRLF or other
    line breaks, blanks around a row and trailing blank lines, and names
    the line of the first error."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty file, expected 'ssat n m' header", 1)
    n, m = _parse_header(lines[0])
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} rows, file has {len(lines) - 1}", len(lines))

    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        digits = line.strip()
        if len(digits) != n or digits.strip("01"):
            raise ParseError(f"expected {n} characters over 0/1, got {line!r}", lineno)
        rows.append(int(digits, 2))
    return SsatInstance(n, np.array(rows, dtype=np.int64))


def write_rows_file(path: str | os.PathLike, inst: SsatInstance) -> None:
    """Inverse of parse_rows_file, bit-exact round trip. Each block of
    rows becomes a (rows, n + 1) byte grid: one pass per bit column, then
    a column of "\n"."""
    n = inst.n
    with open(path, "wb") as fh:
        fh.write(f"ssat {n} {inst.m}\n".encode("ascii"))
        for start in range(0, inst.m, BLOCK_ROWS):
            block = inst.rows[start:start + BLOCK_ROWS]
            grid = np.empty((block.size, n + 1), dtype=np.uint8)
            for j in range(n):
                grid[:, j] = (block >> (n - 1 - j)) & 1
            grid[:, :n] += ord("0")
            grid[:, n] = ord("\n")
            fh.write(grid.tobytes())


def _cnf_tokens(lines: list[str]) -> Iterator[tuple[int, str]]:
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if text == "%":  # SATLIB's end marker; the "0" after it is no clause
            return
        if text.startswith("c"):
            continue
        for tok in text.split():
            yield lineno, tok


def _clean_clause(lits: list[int], strict: bool, line: int) -> list[int] | None:
    """The clause with repeated literals dropped, or None for a tautology
    (it holds some v and -v). Neither changes the satisfying set, but
    strict-ssat mode needs every variable exactly once and rejects both."""
    unique = list(dict.fromkeys(lits))
    if strict and len(unique) < len(lits):
        repeated = next(lit for i, lit in enumerate(lits) if lit in lits[:i])
        raise ParseError(f"literal {repeated} repeats in the clause", line)
    seen = set(unique)
    negated = next((lit for lit in unique if -lit in seen), None)
    if negated is None:
        return unique
    if strict:
        raise ParseError(f"clause holds both {abs(negated)} and {-abs(negated)}", line)
    return None


def parse_cnf_file(
    path: str | os.PathLike,
    mode: str = "strict-ssat",
    row_cap: int = DEFAULT_EXPANSION_CAP,
) -> SsatInstance | SatInstance:
    if mode not in CNF_MODES:
        raise ValueError(f"mode must be one of {CNF_MODES}, got {mode!r}")
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()

    tokens = _cnf_tokens(lines)
    header = [tok for _, tok in islice(tokens, 4)]
    if len(header) < 4 or header[0] != "p" or header[1] != "cnf":
        raise ParseError("expected 'p cnf n m' header", 1)
    try:
        n, m = int(header[2]), int(header[3])
    except ValueError:
        raise ParseError("expected integer n and m in 'p cnf n m'", 1) from None
    if not 1 <= n <= MAX_WIDTH:
        raise ParseError(f"variable count must be in [1, {MAX_WIDTH}]", 1)
    if m < 1:
        raise ParseError("clause count must be at least 1", 1)

    strict = mode == "strict-ssat"
    clauses: list = []  # row codes in strict-ssat, else clauses minus tautologies
    read = 0
    current: list[int] = []
    first_line = last_line = 1
    for lineno, tok in tokens:
        last_line = lineno
        try:
            lit = int(tok)
        except ValueError:
            raise ParseError(f"expected a signed variable number, got {tok!r}", lineno) from None
        if lit == 0:
            if not current:
                raise ParseError("empty clause (bare 0)", lineno)
            read += 1
            clause = _clean_clause(current, strict, first_line)
            if strict:
                try:
                    clauses.append(translate_row(clause, n))
                except MissingVariableError as exc:
                    raise MissingVariableError(f"line {first_line}: {exc}") from None
            elif clause is not None:
                clauses.append(clause)
            current = []
            continue
        if not 1 <= abs(lit) <= n:
            raise ParseError(f"literal {lit} names no variable in 1..{n}", lineno)
        if not current:
            first_line = lineno
        current.append(lit)
    if current:
        raise ParseError("last clause is not closed by 0", last_line)
    if read != m:
        raise ParseError(f"header promises {m} clauses, file has {read}", last_line)
    if not clauses:
        raise ParseError("every clause is a tautology; no constraint is left", last_line)

    if strict:
        return SsatInstance(n, np.array(clauses, dtype=np.int64))
    sat = SatInstance(n, tuple(ternary_from_clause(c, n) for c in clauses))
    if mode == "ternary":
        return sat
    return expand_to_ssat(sat, row_cap=row_cap)
