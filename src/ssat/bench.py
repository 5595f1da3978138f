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
from dataclasses import dataclass

from .generators import ExtremeSpec, build_with_solutions, extreme_instance
from .model import SsatInstance
from .solvers import (
    binary_search_solve,
    inner_board_solve,
    inner_witness_solve,
    outer_random_solve,
    quick_existence,
)

ALGORITHMS = ("quick", "inner-board", "inner-witness", "outer-random", "binary-search")
# Algorithms that call evaluate, and so read the instance's membership index.
EVALUATING = frozenset({"inner-witness", "outer-random", "binary-search"})
SCENARIOS = ("unique", "none")

CSV_FIELDS = ("algorithm", "n", "m", "r", "seed", "verdict",
              "iterations", "evaluations", "wall_ns")

# Verdict recorded when the quick existence test cannot answer (m >= 2^n).
UNDETERMINED = "UNDETERMINED"


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


def _solve_once(algorithm: str, inst: SsatInstance, seed: int):
    if algorithm == "quick":
        return quick_existence(inst.n, inst.m)
    if algorithm == "inner-board":
        return inner_board_solve(inst)
    if algorithm == "inner-witness":
        return inner_witness_solve(inst)
    if algorithm == "outer-random":
        return outer_random_solve(inst, seed)
    if algorithm == "binary-search":
        return binary_search_solve(inst)
    raise ValueError(f"unknown algorithm {algorithm!r}")


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
        if a not in ALGORITHMS:
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
            if algorithm == "binary-search":
                # its contract wants the sorted duplicate-free base
                run_inst = build_with_solutions(n, (solution,))
            else:
                run_inst = inst
            if algorithm in EVALUATING:
                # built here, not inside whichever solver evaluates first
                run_inst.build_index()
            t0 = time.perf_counter_ns()
            report = _solve_once(algorithm, run_inst, seed_t)
            wall_ns = time.perf_counter_ns() - t0
            if report is None:
                verdict, iterations, evaluations = UNDETERMINED, 0, 0
            else:
                verdict, iterations, evaluations = (
                    report.verdict, report.iterations, report.evaluations,
                )
            records.append(BenchRecord(
                algorithm=algorithm, n=n, m=run_inst.m,
                r=duplicates if run_inst is inst else 0,
                seed=seed_t, verdict=verdict, iterations=iterations,
                evaluations=evaluations, wall_ns=wall_ns,
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
