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

import io
import os
import stat
from itertools import islice
from typing import BinaryIO, Iterator

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

# The rows codec handles a line's digits as little-endian uint64 words of 8
# bytes. "0" and "1" differ only in bit 0, so xor with _ZEROS leaves each
# digit in bit 0 of its byte, and multiplying by _GATHER then moves bit 0
# of byte b to bit 63 - b: the top byte holds the word's 8 digits, the one
# at the lowest address highest. No two partial products share a bit, so
# nothing carries into the top byte. Every operand is a uint64, so numpy
# 1.x and 2.x promote alike.
_ZEROS = np.uint64(0x3030303030303030)
_HIGH_BITS = np.uint64(0xFEFEFEFEFEFEFEFE)
_GATHER = np.uint64(0x8040201008040201)
_SHIFT = np.uint64(56)
_SHIFT_WORD = np.uint64(8)
# _DIGITS[b] is the byte b as 8 ASCII digits, highest bit first, and
# _WORDS[b] the same 8 bytes read as one word
_DIGITS = np.frombuffer("".join(format(b, "08b") for b in range(256)).encode("ascii"),
                        dtype=np.uint8).reshape(256, 8)
_WORDS = _DIGITS.view("<u8").ravel()
# The longest header line the streamed decoder reads; a longer one, all
# padding, goes to the line loop.
_HEADER_MAX = 1 << 10


def parse_rows_file(path: str | os.PathLike) -> SsatInstance:
    """Read a rows file. A strictly laid-out file (every line ends in
    "\n", every row is exactly n digits) is streamed: after the header,
    and once the file's size matches the m rows it promises, one reused
    buffer takes BLOCK_ROWS rows at a time, and each block is decoded
    eight digits per uint64 word, with the 0/1 check folded into the same
    pass, straight into the int64 array the instance keeps. At n = 20 the
    load peaks at about 9 bytes per row, 8 of them the codes. A pipe or
    other non-regular file is read whole first and then decoded the same
    way. Any other file goes through the line loop, which accepts the
    tolerated layouts and names the line of any error."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            source, size = fh, info.st_size
        else:  # no size to check up front
            data = fh.read()
            source, size = io.BytesIO(data), len(data)
        inst = _parse_rows_stream(source, size)
        if inst is not None:
            return inst
        source.seek(0)
        data = source.read()
    return _parse_rows_lines(data.decode("ascii"))


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


def _parse_rows_stream(fh: BinaryIO, size: int) -> SsatInstance | None:
    """The instance in fh, a rows file of `size` bytes read from its
    start, when it is laid out exactly as write_rows_file writes it: a
    valid one-line header, then m lines of n characters over 0/1, each
    closed by "\n", and nothing after them. None for any other file,
    which the line loop then accepts or rejects."""
    line = fh.readline(_HEADER_MAX)
    if not line.endswith(b"\n") or not line.isascii():
        return None
    text = line[:-1].decode("ascii")
    # str.splitlines also breaks at \r, \v, \f and \x1c-\x1e; a header
    # holding one of those is a different first line for the line loop
    if text.splitlines() != [text]:
        return None
    try:
        n, m = _parse_header(text)
    except ParseError:
        return None  # the line loop raises it, after the same checks as always
    stride = n + 1
    # checked before anything is sized from m
    if size - len(line) != m * stride:
        return None
    codes = np.empty(m, dtype=np.int64)
    # 8 spare bytes in front take the first row's leftmost word
    buf = bytearray(8 + min(m, BLOCK_ROWS) * stride)
    lines = memoryview(buf)[8:]
    for start in range(0, m, BLOCK_ROWS):
        out = codes[start:start + BLOCK_ROWS]
        nbytes = out.size * stride
        if fh.readinto(lines[:nbytes]) != nbytes or not _decode_rows(buf, n, out):
            return None
    if fh.read(1):  # the file grew after its size was taken
        return None
    return SsatInstance._adopt(n, codes)


def _decode_rows(buf: bytearray, n: int, out: np.ndarray) -> bool:
    """Decode the out.size lines of n digits and a "\n" that start at
    byte 8 of buf into out, an int64 array. False, with out partly
    written, if some line is not n characters over 0/1 closed by "\n"."""
    count = out.size
    stride = n + 1
    if (np.ndarray(count, np.uint8, buf, 8 + n, (stride,)) != ord("\n")).any():
        return False
    codes = out.view(np.uint64)
    words = -(-n // 8)
    # Word j of a row is the 8 bytes that end 8j bytes before the row's
    # "\n": bits 8j .. 8j + 7 of its code. The leftmost word starts up to 7
    # bytes before its row, in the row above or, for the first row, in the
    # 8 bytes in front of it, and lead masks it to its digit bytes; no word
    # reads past the last "\n". The leftmost word is decoded in out
    # itself, and each further one shifted in from a temporary.
    lead = np.uint64((1 << 64) - (1 << 8 * (8 * words - n)))
    for j in reversed(range(words)):
        col = np.ndarray(count, "<u8", buf, 8 + n - 8 * (j + 1), (stride,))
        if j == words - 1:
            w = np.bitwise_xor(col, _ZEROS, out=codes)
            w &= lead
        else:
            w = col ^ _ZEROS
        # "0" and "1" are the only bytes that xor "0" leaves below 2
        if np.bitwise_or.reduce(w) & _HIGH_BITS:
            return False
        w *= _GATHER
        w >>= _SHIFT
        if j < words - 1:
            codes <<= _SHIFT_WORD
            codes |= w
    return True


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

    def codes():
        for lineno, line in enumerate(islice(lines, 1, None), start=2):
            digits = line.strip()
            if len(digits) != n or digits.strip("01"):
                raise ParseError(f"expected {n} characters over 0/1, got {line!r}", lineno)
            yield int(digits, 2)

    # straight into the int64 array, with no list of Python ints between
    return SsatInstance._adopt(n, np.fromiter(codes(), dtype=np.int64, count=m))


def write_rows_file(path: str | os.PathLike, inst: SsatInstance) -> None:
    """Inverse of parse_rows_file, bit-exact round trip. Each block of
    rows becomes its lines' bytes one word of 8 digits at a time, each
    word looked up from the code's byte, then a column of "\n"."""
    n = inst.n
    stride = n + 1
    words = -(-n // 8)
    with open(path, "wb") as fh:
        fh.write(f"ssat {n} {inst.m}\n".encode("ascii"))
        for start in range(0, inst.m, BLOCK_ROWS):
            block = inst.rows[start:start + BLOCK_ROWS]
            # 8 spare bytes in front take what the first row's leftmost
            # word writes before the row
            buf = np.empty(8 + block.size * stride, dtype=np.uint8)
            lines = buf[8:].reshape(block.size, stride)
            if n + 1 < 8:  # a word is longer than a line
                lines[:, :n] = _DIGITS.take(block, axis=0)[:, 8 - n:]
            else:
                # the words where parse reads them, leftmost first: what
                # one writes before its row lands on the row above's "\n"
                # and last digits, which later passes write over
                for j in reversed(range(words)):
                    col = np.ndarray(block.size, "<u8", buf, 8 + n - 8 * (j + 1), (stride,))
                    col[:] = _WORDS.take((block >> 8 * j) & 0xFF)
            lines[:, n] = ord("\n")
            fh.write(buf[8:])


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
        return SsatInstance._adopt(n, np.array(clauses, dtype=np.int64))
    sat = SatInstance(n, tuple(ternary_from_clause(c, n) for c in clauses))
    if mode == "ternary":
        return sat
    return expand_to_ssat(sat, row_cap=row_cap)
