"""Spans around calls into the ssat package, recorded from outside it.

The traced run swaps the public functions that `ssat.cli` and
`ssat.bench` call (parse, write, generators, solvers, the pair-table
dump) for wrappers that open one span per call, and restores them
afterwards. The package itself is not edited. Spans stay in memory and
are written once, when the run ends.

Before a solver that evaluates the instance, the wrapper makes the first
`evaluate` call itself, in its own `model.index_build` span. The lazy
membership index is built there, so the solver span no longer carries
the build cost for whichever solver happens to evaluate first.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# Solvers whose first evaluate call builds the instance's membership index.
EVALUATING = frozenset({"inner-witness", "outer-random", "binary-search"})

SOLVER_FUNCTIONS = {
    "quick_existence": "quick",
    "inner_board_solve": "inner-board",
    "inner_witness_solve": "inner-witness",
    "outer_random_solve": "outer-random",
    "binary_search_solve": "binary-search",
}


class Tracer:
    """In-memory span list. A span has a name, start and end
    (perf_counter ns), the id of the enclosing span, and the request id
    current when it opened."""

    def __init__(self):
        self.spans: list[dict] = []
        self.rid: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "rid": self.rid,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn, note=None):
        """fn inside a span; note(args, result) adds fields to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec.update(note(args, result))
                return result

        return traced


def maybe_span(tracer: Tracer | None, name: str, **attrs):
    return nullcontext() if tracer is None else tracer.span(name, **attrs)


def duration_ns(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def self_times_ns(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover.
    Children of one span run one after another, never overlapping."""
    covered: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration_ns(s)
    return {s["id"]: duration_ns(s) - covered[s["id"]] for s in spans}


def report_counters(report) -> dict:
    if report is None:  # quick existence could not decide
        return {"verdict": "UNDETERMINED", "iterations": 0, "evaluations": 0}
    return {
        "verdict": report.verdict,
        "iterations": report.iterations,
        "evaluations": report.evaluations,
        "pair_insertions": report.pair_insertions,
        "witness": report.witness,
    }


@contextmanager
def instrument(tracer: Tracer, ssat):
    """Replace the functions the CLI and run_bench call with traced ones
    for the duration of the block."""
    evaluate = ssat.model.evaluate
    # instances already indexed; SsatInstance is unhashable, so compare by
    # identity, and hold them only for the block (one request)
    indexed: list = []

    def solver(fn, alg):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inst = args[0]
            if alg in EVALUATING and not any(inst is x for x in indexed):
                indexed.append(inst)
                with tracer.span("model.index_build", rows=inst.m):
                    evaluate(inst, 0)
            with tracer.span(f"solvers.{alg}") as rec:
                report = fn(*args, **kwargs)
                rec.update(report_counters(report))
                return report

        return traced

    def rows_of_result(args, inst):
        return {"rows": inst.m}

    def rows_of_arg(args, result):
        return {"rows": args[1].m}

    patches = []
    for module in (ssat.cli, ssat.bench):
        for attr, alg in SOLVER_FUNCTIONS.items():
            patches.append((module, attr, solver(getattr(module, attr), alg)))
    cli = ssat.cli
    gen = ssat.generators
    patches += [
        (cli, "parse_rows_file",
         tracer.wrap("formats.parse_rows_file", cli.parse_rows_file, rows_of_result)),
        (cli, "write_rows_file",
         tracer.wrap("formats.write_rows_file", cli.write_rows_file, rows_of_arg)),
        (ssat.bench, "extreme_instance",
         tracer.wrap("generators.extreme_instance", ssat.bench.extreme_instance)),
        (ssat.board.PairTable, "dump",
         tracer.wrap("board.dump", ssat.board.PairTable.dump)),
    ]
    # extreme_instance calls these through the generators module
    for module in (cli, gen):
        patches += [
            (module, "build_with_solutions",
             tracer.wrap("generators.build_with_solutions",
                         module.build_with_solutions, rows_of_result)),
            (module, "duplicate_and_shuffle",
             tracer.wrap("generators.duplicate_and_shuffle",
                         module.duplicate_and_shuffle, rows_of_result)),
        ]

    saved = []
    try:
        for owner, attr, replacement in patches:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
