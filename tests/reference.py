"""Scalar reference versions of the vectorized pair-table paths.

These are the loops `inner_board_solve` and `PairTable.dump` used before
they moved to numpy blocks. They go through the table one code or one
cell at a time, so the differential tests can hold the kernels to them.
"""

from __future__ import annotations

import os

from ssat.board import EMPTY, PairTable, inverse_address
from ssat.model import SsatInstance
from ssat.solvers import SAT_EXISTS, UNSAT, SolverReport


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


def dump_reference(table: PairTable, path: str | os.PathLike) -> None:
    """PairTable.dump one f-string line per cell."""
    with open(path, "w", encoding="ascii") as fh:
        for a, occupied in enumerate(table.cells.tolist()):
            v = inverse_address(a, table.n) if occupied else EMPTY
            fh.write(f"{a} {v}\n")
