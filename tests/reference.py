"""Scalar reference versions of the vectorized solver paths.

These are the loops `inner_board_solve`, `inner_witness_solve`,
`PairTable.dump` and `outer_random_solve` used before they moved to numpy
blocks. They go one code, row, cell or step at a time, so the
differential tests can hold the kernels to them. The rows codec keeps the
one digit column at a time decoder and encoder that the word-at-a-time
codec replaced.
"""

from __future__ import annotations

import os
import random

import numpy as np

from ssat.board import EMPTY, PairTable, inverse_address
from ssat.errors import ParseError, WitnessVerificationError
from ssat.formats import _parse_header
from ssat.model import BLOCK_ROWS, SsatInstance, complement, evaluate
from ssat.solvers import SAT, SAT_EXISTS, UNSAT, SolverReport


def fill_reference(table: PairTable, codes) -> int:
    """PairTable.fill as a loop of insert calls: stop right after the code
    that fills the table, and report how many codes went in."""
    consumed = 0
    for k in codes:
        if table.is_full:
            break
        table.insert(int(k))
        consumed += 1
    return consumed


def inner_board_reference(
    inst: SsatInstance, dump_board: str | os.PathLike | None = None,
) -> SolverReport:
    """inner_board_solve one row at a time."""
    table = PairTable(inst.n)
    iterations = 0
    verdict, evidence = SAT_EXISTS, "uncovered-code"
    for k in inst.rows.tolist():
        iterations += 1
        table.insert(k)
        if table.is_full:
            verdict, evidence = UNSAT, "blocked-board"
            break
    if dump_board is not None:
        dump_reference(table, dump_board)
    return SolverReport(
        algorithm="inner-board", verdict=verdict, iterations=iterations,
        evaluations=0, evidence=evidence,
    )


def inner_witness_reference(
    inst: SsatInstance, dump_board: str | os.PathLike | None = None,
) -> SolverReport:
    """inner_witness_solve one row at a time: evaluate the row, and on a
    miss park it and its complement with insert_pair."""
    table = PairTable(inst.n)
    iterations = 0
    pair_insertions = 0

    def report(verdict, evaluations, witness=None, evidence=None):
        if dump_board is not None:
            dump_reference(table, dump_board)
        return SolverReport(
            algorithm="inner-witness", verdict=verdict, iterations=iterations,
            evaluations=evaluations, witness=witness, evidence=evidence,
            pair_insertions=pair_insertions,
        )

    for k in inst.rows.tolist():
        iterations += 1
        if evaluate(inst, k):
            return report(SAT, iterations, witness=k, evidence="row-hit")
        if table.insert_pair(k):
            pair_insertions += 1
        if table.is_full:
            return report(UNSAT, iterations, evidence="blocked-board")

    gap = table.find_gap()
    if gap is None or not evaluate(inst, gap):
        raise WitnessVerificationError(
            "table gap is not a satisfying assignment; table state is inconsistent"
        )
    return report(SAT, iterations + 1, witness=gap, evidence="table-gap")


def dump_reference(table: PairTable, path: str | os.PathLike) -> None:
    """PairTable.dump one f-string line per cell."""
    with open(path, "w", encoding="ascii") as fh:
        for a, occupied in enumerate(table.cells.tolist()):
            v = inverse_address(a, table.n) if occupied else EMPTY
            fh.write(f"{a} {v}\n")


def walk_reference(n: int, seed=None):
    """The candidates of the seeded outer walk over width n, in order: one
    rng.randint draw and one lazy swap per step."""
    half = 1 << (n - 1)
    rng = random.Random(seed)
    overrides: dict[int, int] = {}
    for i in range(half):
        j = rng.randint(i, half - 1)
        yield overrides.get(j, j)
        overrides[j] = overrides.pop(i, i)


def outer_random_reference(inst: SsatInstance, seed=None) -> SolverReport:
    """outer_random_solve one step at a time: evaluate on the candidate
    and, if it fails, on its complement."""
    n = inst.n
    iterations = 0
    evaluations = 0
    seed_field = seed if isinstance(seed, int) else None
    for candidate in walk_reference(n, seed):
        iterations += 1
        evaluations += 1
        if evaluate(inst, candidate):
            return SolverReport(
                algorithm="outer-random", verdict=SAT, iterations=iterations,
                evaluations=evaluations, witness=candidate, seed=seed_field,
            )
        other = complement(candidate, n)
        evaluations += 1
        if evaluate(inst, other):
            return SolverReport(
                algorithm="outer-random", verdict=SAT, iterations=iterations,
                evaluations=evaluations, witness=other, seed=seed_field,
            )
    return SolverReport(
        algorithm="outer-random", verdict=UNSAT, iterations=iterations,
        evaluations=evaluations, evidence="exhausted-pairs", seed=seed_field,
    )


def parse_rows_strict_reference(data: bytes) -> tuple[int, np.ndarray] | None:
    """formats._parse_rows_stream on a whole file's bytes, one digit
    column at a time: (n, codes) for a strictly laid-out file, None for
    any other."""
    end = data.find(b"\n")
    if end < 0 or not data[:end].isascii():
        return None
    text = data[:end].decode("ascii")
    if text.splitlines() != [text]:
        return None
    try:
        n, m = _parse_header(text)
    except ParseError:
        return None
    if len(data) - (end + 1) != m * (n + 1):
        return None
    grid = np.frombuffer(data, dtype=np.uint8, offset=end + 1).reshape(m, n + 1)
    codes = np.empty(m, dtype=np.int64)
    for start in range(0, m, BLOCK_ROWS):
        block = grid[start:start + BLOCK_ROWS]
        digits = block[:, :n]
        # "0" and "1" are the only bytes b with b | 1 == ord("1")
        if ((digits | 1) != ord("1")).any() or (block[:, n] != ord("\n")).any():
            return None
        out = codes[start:start + BLOCK_ROWS]
        out[:] = digits[:, 0] & 1
        for j in range(1, n):
            out <<= 1
            out |= digits[:, j] & 1
    return n, codes


def rows_bytes_reference(inst: SsatInstance) -> bytes:
    """The bytes write_rows_file writes, one bit column at a time."""
    n = inst.n
    parts = [f"ssat {n} {inst.m}\n".encode("ascii")]
    for start in range(0, inst.m, BLOCK_ROWS):
        block = inst.rows[start:start + BLOCK_ROWS]
        grid = np.empty((block.size, n + 1), dtype=np.uint8)
        for j in range(n):
            grid[:, j] = (block >> (n - 1 - j)) & 1
        grid[:, :n] += ord("0")
        grid[:, n] = ord("\n")
        parts.append(grid.tobytes())
    return b"".join(parts)
