"""The benchmark's three workloads: their inputs, requests and answer checks.

Every input comes from the workload seed. A workload knows the solution
set it planted in each instance, so each answer is checked against it:
exit code, verdict kind, the witness (in the planted set and re-checked
with `evaluate`) and the counters that the verdict fixes exactly.

A cycle is a fixed list of requests that visits every request kind of
the workload once. The timed phase runs whole cycles, so every run has
the same request mix whatever its length.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tracing import maybe_span


class CheckError(Exception):
    """An answer that does not match the planted solution set."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Request:
    rid: int
    label: str
    layer: str  # name of the span around the whole request in a traced run
    run: Callable[[], object]
    check: Callable[[object], dict]  # raises CheckError; returns the counters


@dataclass(frozen=True)
class Planted:
    """One instance file written by `ssat gen` with a known solution set."""

    path: Path
    n: int
    solutions: tuple[int, ...]
    duplicates: int = 0
    shuffle_seed: int | None = None

    @property
    def m(self) -> int:
        return (1 << self.n) - len(self.solutions) + self.duplicates

    def gen_argv(self) -> list[str]:
        argv = ["gen", "--n", str(self.n), "--out", str(self.path), "--solutions",
                ",".join(map(str, self.solutions)) if self.solutions else "none"]
        if self.shuffle_seed is not None:
            argv += ["--duplicates", str(self.duplicates),
                     "--shuffle-seed", str(self.shuffle_seed)]
        return argv


def call_cli(ssat, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ssat.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def inverse_addresses(n: int) -> np.ndarray:
    """The code owning each pair-table cell, computed here from the
    address formula rather than taken from ssat.board."""
    a = np.arange(1 << n, dtype=np.int64)
    half = 1 << (n - 1)
    return np.where(a % 2 == 0, a // 2, half | (half - (a + 1) // 2))


def address(code: int, n: int) -> int:
    half = 1 << (n - 1)
    low = code & (half - 1)
    return 2 * (half - low) - 1 if code >> (n - 1) else 2 * low


def check_dump(path: Path, n: int, empty_codes: set[int]) -> None:
    """A board dump holds one `address code` line per cell; every cell
    holds the code its address names, except the cells of empty_codes,
    which hold -1."""
    vals = np.array(path.read_text(encoding="ascii").split(), dtype=np.int64)
    size = 1 << n
    expect(vals.size == 2 * size, f"dump has {vals.size // 2} cells, want {size}")
    addr, code = vals[0::2], vals[1::2]
    expect(bool(np.array_equal(addr, np.arange(size))), "dump addresses out of order")
    empty = np.flatnonzero(code == -1)
    want = sorted(address(k, n) for k in empty_codes)
    expect(empty.tolist() == want, f"dump empty cells {empty[:4].tolist()}, want {want}")
    full = code != -1
    expect(bool(np.array_equal(code[full], inverse_addresses(n)[full])),
           "dump cell holds a code other than its address's")


def check_solve(ssat, planted: Planted, alg: str, out, dump: Path | None) -> dict:
    """Check one `ssat solve` answer against the planted solution set."""
    rc, stdout, stderr = out
    lines = stdout.strip().splitlines()
    expect(len(lines) == 1, f"want one JSON line, got {len(lines)}; stderr {stderr!r}")
    line = json.loads(lines[0])
    n, sols = planted.n, set(planted.solutions)
    verdict = line["verdict"]
    expect(line["algorithm"] == alg, f"answer names algorithm {line['algorithm']}")
    it, ev = line["iterations"], line["evaluations"]
    if not sols:
        expect(rc == 20 and verdict == "UNSAT", f"blocked board gave {verdict}, exit {rc}")
        expect("witness" not in line, "UNSAT answer carries a witness")
    elif alg in ("inner-board", "quick"):
        expect(rc == 10 and verdict == "SAT_EXISTS", f"SAT instance gave {verdict}, exit {rc}")
    else:
        expect(rc == 10 and verdict == "SAT", f"SAT instance gave {verdict}, exit {rc}")
        w = line["witness"]
        expect(w in sols, f"witness {w} is not a planted solution")
        expect(line["witness_bits"] == format(w, f"0{n}b"), "witness_bits disagree")
        ref = ssat.build_with_solutions(n, sols)
        expect(ssat.evaluate(ref, w) == 1, f"evaluate rejects witness {w}")
    # counters the verdict pins down exactly
    if alg == "inner-board":
        expect(ev == 0, "inner-board evaluated the instance")
        if sols:
            expect(it == planted.m, f"inner-board stopped after {it} of {planted.m} rows")
        check_dump(dump, n, {ssat.complement(s, n) for s in sols})
    elif alg == "inner-witness":
        expect(ev in (it, it + 1), f"inner-witness: {ev} evaluations, {it} iterations")
    elif alg == "outer-random":
        if sols:
            expect(ev in (2 * it - 1, 2 * it), f"outer-random: {ev} evaluations, {it} steps")
        else:
            expect((it, ev) == (1 << (n - 1), 1 << n), f"outer-random UNSAT after {it} steps")
    elif alg == "binary-search":
        expect(line["evidence"] == f"gap {ssat.complement(w, n)}", "binary-search gap is wrong")
        expect(1 <= it <= n + 2 and ev in (1, 2), f"binary-search: {it} comparisons, {ev} evaluations")
    elif alg == "quick":
        expect((it, ev) == (0, 0), "quick existence did work")
    return {"rc": rc, "verdict": verdict, "iterations": it, "evaluations": ev,
            "pair_insertions": line.get("pair_insertions"), "witness": line.get("witness")}


class FileWorkload:
    """A workload whose requests are `ssat solve` runs on files written
    by `ssat gen`."""

    name = ""
    reads_files = True

    def __init__(self, ssat, workdir: Path, seed: int):
        self.ssat = ssat
        self.workdir = workdir
        self.rng = random.Random(f"perfbench:{seed}:{self.name}")

    def files(self) -> list[Planted]:
        raise NotImplementedError

    def probe_files(self) -> list[Planted]:
        """One file of each instance kind."""
        raise NotImplementedError

    def setup_round(self, tracer=None) -> None:
        """Write every instance file through `ssat gen`."""
        for p in self.files():
            with maybe_span(tracer, "cli.main", command="gen"):
                rc, _, err = call_cli(self.ssat, p.gen_argv())
            if rc != 0:
                raise RuntimeError(f"ssat gen failed with exit {rc}: {err}")

    def instances(self):
        for p in self.probe_files():
            yield self.ssat.parse_rows_file(p.path)

    def solve(self, rid: int, planted: Planted, alg: str, extra: list[str]) -> Request:
        dump = self.workdir / "board.dump" if alg == "inner-board" else None
        argv = ["solve", "--input", str(planted.path), "--algorithm", alg] + extra
        if dump is not None:
            argv += ["--dump-board", str(dump)]
        return Request(
            rid, f"{planted.path.stem}/{alg}", "cli.main",
            run=lambda: call_cli(self.ssat, argv),
            check=lambda out: check_solve(self.ssat, planted, alg, out, dump),
        )


class SearchMix(FileWorkload):
    """Solver loops, evaluate, the pair table and both membership paths."""

    name = "search-mix"
    ALGORITHMS = ("inner-board", "inner-witness", "outer-random")

    def __init__(self, ssat, workdir: Path, seed: int, smoke: bool):
        super().__init__(ssat, workdir, seed)
        n = self.n = 8 if smoke else 16
        size = 1 << n
        # m = 2^n keeps the sorted board on the frozenset membership path;
        # the other two kinds exceed 2^16 rows and sort then search.
        self.sorted_board = Planted(workdir / "sorted-board.rows", n, ())
        self.shuffled_board = Planted(workdir / "shuffled-board.rows", n, (),
                                      size // 2, self.rng.randrange(1 << 31))
        # The first-hit position of a SAT file's solution sets the cost of
        # its inner-witness run; each cycle takes the next of many files so
        # that no single draw sets a run's figures.
        self.sat = [Planted(workdir / f"sat-dups-{i}.rows", n,
                            (self.rng.randrange(size),), size, self.rng.randrange(1 << 31))
                    for i in range(2 if smoke else 12)]
        self.cycle_len = 3 * len(self.ALGORITHMS)

    def files(self) -> list[Planted]:
        return [self.sorted_board, self.shuffled_board, *self.sat]

    def probe_files(self) -> list[Planted]:
        return [self.sorted_board, self.shuffled_board, self.sat[0]]

    def cycle(self, c: int) -> list[Request]:
        kinds = (self.sorted_board, self.shuffled_board, self.sat[c % len(self.sat)])
        requests = []
        for planted in kinds:
            for alg in self.ALGORITHMS:
                rid = c * self.cycle_len + len(requests)
                extra = ["--seed", str(rid)] if alg == "outer-random" else []
                requests.append(self.solve(rid, planted, alg, extra))
        return requests


class LargeFileSat(FileWorkload):
    """Parse and index build of wide sorted files; O(n) and O(1) solvers."""

    name = "large-file-sat"
    ALGORITHMS = ("binary-search", "quick")

    def __init__(self, ssat, workdir: Path, seed: int, smoke: bool):
        super().__init__(ssat, workdir, seed)
        n = self.n = 10 if smoke else 20
        self.sat = [Planted(workdir / f"sat-sorted-{i}.rows", n,
                            (self.rng.randrange(1 << n),))
                    for i in range(2)]
        self.cycle_len = len(self.sat) * len(self.ALGORITHMS)

    def files(self) -> list[Planted]:
        return list(self.sat)

    def probe_files(self) -> list[Planted]:
        return self.sat[:1]

    def cycle(self, c: int) -> list[Request]:
        requests = []
        for planted in self.sat:
            for alg in self.ALGORITHMS:
                requests.append(self.solve(c * self.cycle_len + len(requests),
                                           planted, alg, []))
        return requests


class PaperTables:
    """The paper's iteration-table path: many small in-memory run_bench
    trials, where fixed per-call costs dominate."""

    name = "paper-tables"
    reads_files = False
    ALGORITHMS = ("inner-board", "inner-witness", "outer-random")

    def __init__(self, ssat, workdir: Path, seed: int, smoke: bool):
        self.ssat = ssat
        self.workdir = workdir
        self.seed = seed
        self.n = 6 if smoke else 10
        self.duplicates = 32 if smoke else 1024
        self.cycle_len = 8
        # set-up builds the trial instances of this many leading cycles
        self.setup_cycles = 4

    def trial(self, seed_t: int):
        """The instance and solution run_bench builds for trial seed seed_t.
        This follows run_bench's documented stream derivation; a change
        to that derivation shows here as failed checks."""
        ssat = self.ssat
        s = random.Random(f"{seed_t}:solution").randrange(1 << self.n)
        spec = ssat.ExtremeSpec(self.n, s, self.duplicates, shuffle_seed=f"{seed_t}:shuffle")
        return s, ssat.extreme_instance(spec)

    def setup_round(self, tracer=None) -> None:
        """Build the trial instances of the first setup_cycles cycles."""
        for rid in range(self.setup_cycles * self.cycle_len):
            self.trial(self.seed + rid)

    def instances(self):
        for rid in range(self.cycle_len):
            yield self.trial(self.seed + rid)[1]

    def cycle(self, c: int) -> list[Request]:
        requests = []
        for j in range(self.cycle_len):
            rid = c * self.cycle_len + j
            seed_t = self.seed + rid
            requests.append(Request(
                rid, "run_bench", "bench.run_bench",
                run=lambda seed_t=seed_t: self.ssat.bench.run_bench(
                    n=self.n, trials=1, scenario="unique", algorithms=self.ALGORITHMS,
                    duplicates=self.duplicates, seed_base=seed_t),
                check=lambda records, seed_t=seed_t: self.check(seed_t, records),
            ))
        return requests

    def check(self, seed_t: int, records) -> dict:
        ssat = self.ssat
        s, inst = self.trial(seed_t)
        expect([r.algorithm for r in records] == list(self.ALGORITHMS),
               f"records for {[r.algorithm for r in records]}")
        for r in records:
            expect((r.n, r.m, r.r, r.seed) == (self.n, inst.m, self.duplicates, seed_t),
                   f"{r.algorithm} record describes another trial")
        board, witness, outer = records
        expect(board.verdict == "SAT_EXISTS" and board.iterations == inst.m
               and board.evaluations == 0, f"inner-board: {board}")
        first_hit = int(np.flatnonzero(inst.rows == s)[0]) + 1
        expect(witness.verdict == "SAT" and witness.iterations == first_hit
               and witness.evaluations == first_hit,
               f"inner-witness did not stop at the first row {s}: {witness}")
        replay = ssat.outer_random_solve(inst, seed_t)
        expect(replay.witness == s and ssat.evaluate(inst, s) == 1,
               f"outer-random witness {replay.witness}, planted {s}")
        expect(outer.verdict == "SAT" and (outer.iterations, outer.evaluations)
               == (replay.iterations, replay.evaluations), f"outer-random: {outer}")
        return {"verdict": [r.verdict for r in records],
                "iterations": [r.iterations for r in records],
                "evaluations": [r.evaluations for r in records],
                "witness": s}


WORKLOADS = {w.name: w for w in (SearchMix, LargeFileSat, PaperTables)}
