"""Iteration-count benchmark harness.

Runs the solvers over freshly generated stress instances and records one
CSV row per (algorithm, trial): verdict, iteration and evaluation
counters, and wall time. Counters are the quantities of interest; wall
time is informational only. It covers the solver call alone: the
instance's membership index is built before the clock starts.

Reproducibility: trial t uses seed_base + t for the solver RNG, so any
single trial can be re-run in isolation. Instance generation draws from
separate streams derived from that seed by string tagging, which keeps
the generated solution independent of the solver's candidate sequence.
"""

from __future__ import annotations

import csv
import os
import random
import time
from dataclasses import dataclass, fields
from typing import Callable

from .generators import ExtremeSpec, build_with_solutions, extreme_instance
from .solvers import (
    UNDETERMINED,
    SolverReport,
    binary_search_solve,
    inner_board_solve,
    inner_witness_solve,
    outer_random_solve,
    quick_existence,
)


@dataclass(frozen=True)
class Solver:
    """What one algorithm name runs, and what the run touches.

    run(inst, seed, dump_board) returns a SolverReport. It looks its
    solver function up in this module's globals at call time, so a
    function patched onto ssat.bench is the one every caller runs."""
    run: Callable
    evaluates: bool = False  # reads the membership index
    seeded: bool = False  # consumes the seed
    witnesses: bool = False  # a SAT verdict comes with a witness
    dumps_board: bool = False  # writes the pair table to dump_board


# The quick entry's report when the row count cannot decide (m >= 2^n).
_QUICK_UNDETERMINED = SolverReport(
    algorithm="quick", verdict=UNDETERMINED, iterations=0, evaluations=0)

SOLVERS = {
    "quick": Solver(lambda inst, seed, dump:
                    quick_existence(inst.n, inst.m) or _QUICK_UNDETERMINED),
    "inner-board": Solver(lambda inst, seed, dump: inner_board_solve(inst, dump),
                          dumps_board=True),
    "inner-witness": Solver(lambda inst, seed, dump: inner_witness_solve(inst, dump),
                            evaluates=True, witnesses=True, dumps_board=True),
    "outer-random": Solver(lambda inst, seed, dump: outer_random_solve(inst, seed),
                           evaluates=True, seeded=True, witnesses=True),
    "binary-search": Solver(lambda inst, seed, dump: binary_search_solve(inst),
                            evaluates=True, witnesses=True),
}
ALGORITHMS = tuple(SOLVERS)
SCENARIOS = ("unique", "none")


@dataclass(frozen=True)
class BenchRecord:
    algorithm: str
    n: int
    m: int
    r: int
    seed: int
    verdict: str
    iterations: int
    evaluations: int
    wall_ns: int

    def as_row(self) -> list:
        return [getattr(self, f) for f in CSV_FIELDS]


CSV_FIELDS = tuple(f.name for f in fields(BenchRecord))


def run_bench(
    n: int,
    trials: int,
    scenario: str,
    algorithms: tuple[str, ...] | list[str],
    duplicates: int = 0,
    seed_base: int = 0,
) -> list[BenchRecord]:
    """One record per (trial, algorithm), trials in index order."""
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    algorithms = tuple(algorithms)
    if not algorithms:
        raise ValueError("need at least one algorithm")
    for a in algorithms:
        if a not in SOLVERS:
            raise ValueError(f"unknown algorithm {a!r}, choose from {ALGORITHMS}")
    if "binary-search" in algorithms and (scenario != "unique" or duplicates > 0):
        raise ValueError(
            "binary-search requires sorted unique-solution instances: "
            "scenario 'unique' with zero duplicates"
        )

    records = []
    for t in range(trials):
        seed_t = seed_base + t
        if scenario == "unique":
            solution = random.Random(f"{seed_t}:solution").randrange(1 << n)
        else:
            solution = None
        inst = extreme_instance(
            ExtremeSpec(n, solution, duplicates, shuffle_seed=f"{seed_t}:shuffle")
        )
        for algorithm in algorithms:
            solver = SOLVERS[algorithm]
            if algorithm == "binary-search":
                # its contract wants the sorted duplicate-free base
                run_inst = build_with_solutions(n, (solution,))
            else:
                run_inst = inst
            if solver.evaluates:
                # built here, not inside whichever solver evaluates first
                run_inst.build_index()
            t0 = time.perf_counter_ns()
            report = solver.run(run_inst, seed_t, None)
            wall_ns = time.perf_counter_ns() - t0
            records.append(BenchRecord(
                algorithm=algorithm, n=n, m=run_inst.m,
                r=duplicates if run_inst is inst else 0,
                seed=seed_t, verdict=report.verdict, iterations=report.iterations,
                evaluations=report.evaluations, wall_ns=wall_ns,
            ))
    return records


def summarize(records: list[BenchRecord]) -> list[tuple[str, int, float, int]]:
    """Per-algorithm (name, min, avg, max) over iteration counts, in
    first-appearance order."""
    order: list[str] = []
    counts: dict[str, list[int]] = {}
    for rec in records:
        if rec.algorithm not in counts:
            order.append(rec.algorithm)
            counts[rec.algorithm] = []
        counts[rec.algorithm].append(rec.iterations)
    out = []
    for name in order:
        xs = counts[name]
        out.append((name, min(xs), sum(xs) / len(xs), max(xs)))
    return out


def write_csv(path: str | os.PathLike, records: list[BenchRecord]) -> None:
    """Records as CSV, then the min/avg/max summary as '#' comment lines
    so the data block stays loadable by any CSV reader."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            writer.writerow(rec.as_row())
        fh.write("# summary: algorithm,min_iterations,avg_iterations,max_iterations\n")
        for name, lo, avg, hi in summarize(records):
            fh.write(f"# {name},{lo},{avg:.6g},{hi}\n")
