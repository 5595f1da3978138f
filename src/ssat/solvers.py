"""Search procedures over fixed-width instances.

Two families:

* inner: candidates come from the instance's own rows. Each failed
  candidate k is parked in a pair table together with complement(k), so
  one failure retires two assignments at once; a full table proves
  unsatisfiability, and a leftover gap after the rows run out names a
  satisfying assignment directly. The witness search tests its rows in
  chunks, one batch each, and parks a chunk's misses in one table fill.

* outer: candidates come from a seeded random permutation of the lower
  half [0, 2^{n-1} - 1] of the assignment space; each step tests the
  candidate and its complement, so the whole space is covered in at most
  2^{n-1} steps. The steps are taken in chunks whose candidates are
  tested in one batch, and the walk may shuffle up to one chunk past
  the step that hits.

Plus two O(1)/O(k) existence shortcuts that answer from row counts alone,
and a binary search that locates the unique missing code of a sorted
(2^n - 1)-row instance.

Every verdict carries checkable evidence: SAT witnesses are re-verified
with evaluate before the report is emitted, UNSAT reports name the
exhaustion argument that proves them. Counters are honest tallies, never
estimates: iterations counts main-loop passes (for the binary search,
row-vs-index comparisons) and evaluations counts evaluate calls. The
outer walk and the inner witness search test a batch at once; their
evaluations are the calls the one-at-a-time loop makes up to its first
hit, and the re-check of a batch-found witness is not counted.

The inner solvers build a 2^n-cell table, so they need n <= MAX_TABLE_WIDTH
and raise PreconditionError past it before allocating anything.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .board import PairTable
from .errors import PreconditionError, WitnessVerificationError
from .model import (
    BLOCK_ROWS,
    MAX_TABLE_WIDTH,
    SsatInstance,
    complement,
    evaluate,
    evaluate_many,
)

SAT = "SAT"
SAT_EXISTS = "SAT_EXISTS"
UNSAT = "UNSAT"
# The solver table's quick entry when the row count cannot decide (m >= 2^n).
UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solver run.

    verdict is SAT (witness present and verified), SAT_EXISTS (existence
    argument only, no witness), UNSAT, or UNDETERMINED (the quick test
    could not decide). evidence is a short tag naming what backs the
    verdict. pair_insertions is filled by the inner witness solver only.
    """

    algorithm: str
    verdict: str
    iterations: int
    evaluations: int
    witness: int | None = None
    evidence: str | None = None
    seed: int | None = None
    pair_insertions: int | None = None


def quick_existence(n: int, m: int) -> SolverReport | None:
    """Constant-time existence test: m rows can block at most m
    assignments, so m < 2^n leaves one free. None when undetermined."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if m < (1 << n):
        return SolverReport(
            algorithm="quick", verdict=SAT_EXISTS, iterations=0, evaluations=0,
            evidence="row-count",
        )
    return None


def counted_existence(n: int, m: int, k1: int, k2: int) -> SolverReport | None:
    """Existence after k1 + k2 failed candidate tests, of which k2 hit
    duplicate rows: only m - k2 distinct rows exist, so m - k2 < 2^n
    already proves a free assignment. None when undetermined.

    The k1 + k2 tests happened in the caller's loop; iterations reports
    them, evaluations stays 0 because this test itself evaluates nothing.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if k1 < 0 or k2 < 0:
        raise ValueError("failure counts must be nonnegative")
    if m - k2 < (1 << n):
        return SolverReport(
            algorithm="counted", verdict=SAT_EXISTS, iterations=k1 + k2,
            evaluations=0, evidence="deduplicated-row-count",
        )
    return None


def _pair_table(inst: SsatInstance, algorithm: str) -> PairTable:
    """An empty table for inst, or PreconditionError past the width cap,
    before anything is allocated."""
    if inst.n > MAX_TABLE_WIDTH:
        raise PreconditionError(
            f"{algorithm} needs a 2^n-cell pair table, so n <= MAX_TABLE_WIDTH = "
            f"{MAX_TABLE_WIDTH}, got n = {inst.n}; outer-random and quick still apply"
        )
    return PairTable(inst.n)


def inner_board_solve(
    inst: SsatInstance, dump_board: str | os.PathLike | None = None,
) -> SolverReport:
    """Existence by table filling: stream the rows once, park each in the
    table, and answer UNSAT the moment all 2^n cells fill. Rows that run
    out first cannot cover the space, so some assignment is free.

    The rows go through the table in numpy blocks (PairTable.fill);
    iterations counts the rows consumed, up to and including the one that
    fills the table. Never evaluates the instance; reports SAT_EXISTS
    without a witness. Needs n <= MAX_TABLE_WIDTH.
    """
    table = _pair_table(inst, "inner-board")
    iterations = table.fill(inst.rows)
    if table.is_full:
        verdict, evidence = UNSAT, "blocked-board"
    else:
        verdict, evidence = SAT_EXISTS, "uncovered-code"
    if dump_board is not None:
        table.dump(dump_board)
    return SolverReport(
        algorithm="inner-board", verdict=verdict, iterations=iterations,
        evaluations=0, evidence=evidence,
    )


def inner_witness_solve(
    inst: SsatInstance, dump_board: str | os.PathLike | None = None,
) -> SolverReport:
    """Witness search from the instance's own rows.

    Each streamed row k is tried as an assignment. A hit is returned at
    once; a miss means complement(k) is a row, so k and complement(k) are
    both hopeless and are parked as a pair, retiring two candidates per
    failure. A full table is a proof of UNSAT. If the rows run out first,
    any empty cell's code is unblocked, and that gap is verified and
    returned as the witness. Needs n <= MAX_TABLE_WIDTH.

    The rows go in chunks of 64, 128, ... up to BLOCK_ROWS. A chunk is
    tested with one evaluate_many call; the misses before its first hit go
    through PairTable.fill as the codes k, complement(k), k', ... Pairs
    only ever occupy both cells or neither, so the code that fills the
    table is a complement, and the rows consumed are half the codes fill
    takes. The counters are those of the one-row-at-a-time loop:
    iterations counts the rows tried up to the hit or the row that fills
    the table, evaluations is iterations (one evaluate call per row) plus
    one when the gap is checked, and pair_insertions is the pairs parked.
    A row hit is checked once more with evaluate before it is reported;
    that check is not counted.
    """
    table = _pair_table(inst, "inner-witness")
    mask = (1 << inst.n) - 1
    rows = inst.rows
    iterations = 0

    def report(verdict, evaluations, witness=None, evidence=None):
        if dump_board is not None:
            table.dump(dump_board)
        return SolverReport(
            algorithm="inner-witness", verdict=verdict, iterations=iterations,
            evaluations=evaluations, witness=witness, evidence=evidence,
            pair_insertions=table.ct // 2,
        )

    sizes = _chunk_sizes()
    while iterations < rows.size:
        chunk = rows[iterations:iterations + next(sizes)]
        hits = np.flatnonzero(evaluate_many(inst, chunk))
        misses = chunk[:hits[0]] if hits.size else chunk
        pairs = np.empty(2 * misses.size, dtype=np.int64)
        pairs[0::2] = misses
        pairs[1::2] = mask ^ misses
        used = table.fill(pairs)
        if table.is_full:
            iterations += used // 2
            return report(UNSAT, iterations, evidence="blocked-board")
        if hits.size:
            iterations += int(hits[0]) + 1
            witness = int(chunk[hits[0]])
            if not evaluate(inst, witness):
                raise WitnessVerificationError(
                    f"batch test passed row {witness}, which evaluate rejects")
            return report(SAT, iterations, witness=witness, evidence="row-hit")
        iterations += chunk.size

    gap = table.find_gap()
    if gap is None or not evaluate(inst, gap):
        raise WitnessVerificationError(
            "table gap is not a satisfying assignment; table state is inconsistent"
        )
    return report(SAT, iterations + 1, witness=gap, evidence="table-gap")


def random_permutation(mi: int, seed=None) -> list[int]:
    """Seeded permutation of [0, mi] in which no index below mi keeps its
    own value: whenever T[i] = i still holds at step i, swap with a
    uniform draw from [i+1, mi]. Positions past i only ever receive
    values below them, so a swap never creates a new fixed point.
    """
    if mi < 1:
        raise ValueError(f"need mi >= 1, got {mi}")
    rng = random.Random(seed)
    table = list(range(mi + 1))
    for i in range(mi):
        if table[i] == i:
            j = rng.randint(i + 1, mi)
            table[i], table[j] = table[j], table[i]
    return table


def _chunk_sizes():
    """64, 128, 256, ... doubling up to BLOCK_ROWS, then BLOCK_ROWS for
    ever: small first chunks keep an early exit cheap, the cap keeps a
    long run's temporaries bounded."""
    size = 64
    while True:
        yield size
        size = min(2 * size, BLOCK_ROWS)


def _randint_draws(rng: random.Random, top: int):
    """Yield rng.randint(i, top - 1) for i = 0, 1, ..., top - 1: the same
    values from the same Mersenne Twister stream, decoded from bulk output.

    getrandbits(32 * c) returns c 32-bit words, least significant first,
    which are the words c calls of getrandbits(32) would return. A draw
    below a width w reads k = w.bit_length() bits, as CPython's
    _randbelow_with_getrandbits does: the top k bits of one word for
    k <= 32, else a full low word and the top k - 32 bits of the next;
    a value >= w is rejected and the next word or words are read. Words
    are fetched in blocks of _chunk_sizes(), so the generator's rng may
    run up to one block ahead of the draws it has yielded.
    """
    def block(size):
        return np.frombuffer(
            rng.getrandbits(32 * size).to_bytes(4 * size, "little"), dtype="<u4",
        ).tolist()

    word = chain.from_iterable(map(block, _chunk_sizes())).__next__
    i = 0
    while i < top:
        k = (top - i).bit_length()
        end = top - (1 << (k - 1)) + 1  # widths of steps i .. end - 1 have k bits
        if k <= 32:
            shift = 32 - k
            for i in range(i, end):
                w = top - i
                r = word() >> shift
                while r >= w:
                    r = word() >> shift
                yield i + r
        else:
            shift = 64 - k
            for i in range(i, end):
                w = top - i
                r = word() | (word() >> shift) << 32
                while r >= w:
                    r = word() | (word() >> shift) << 32
                yield i + r
        i = end


def outer_random_solve(inst: SsatInstance, seed=None) -> SolverReport:
    """Randomized search from outside the instance: walk a seeded random
    permutation of the lower half of the assignment space, testing each
    candidate and its complement. Every assignment belongs to exactly one
    such pair, so 2^{n-1} failed steps exhaust the space and prove UNSAT.

    The permutation is built lazily, one swap per step, so memory follows
    the steps taken, not 2^{n-1}. The steps go in chunks of 64, 128, ...
    up to BLOCK_ROWS; the candidates of a chunk and their complements are
    tested with one evaluate_many call each, and the first step where
    either passes ends the walk. So a SAT run shuffles up to one chunk
    past the step it reports. The seed stream and the counters are those
    of the sequential walk, which draws j = rng.randint(i, 2^{n-1} - 1)
    at step i, evaluates the candidate, then its complement, and stops at
    the first hit: iterations is the step of the hit, and evaluations is
    2i - 1 when the candidate of step i satisfies, 2i when only its
    complement does, and 2^n for UNSAT. The witness is checked once more
    with evaluate before it is reported; that check is not counted.
    """
    n = inst.n
    half = 1 << (n - 1)
    mask = (1 << n) - 1
    draws = _randint_draws(random.Random(seed), half)
    overrides: dict[int, int] = {}
    get, pop = overrides.get, overrides.pop
    seed_field = seed if isinstance(seed, int) else None
    sizes = _chunk_sizes()
    start = 0
    while start < half:
        stop = min(start + next(sizes), half)
        candidates = []
        for i, j in zip(range(start, stop), draws):
            candidates.append(get(j, j))
            overrides[j] = pop(i, i)
        xs = np.array(candidates, dtype=np.int64)
        hit = evaluate_many(inst, xs)
        passed = np.flatnonzero(hit | evaluate_many(inst, mask ^ xs))
        if passed.size:
            t = int(passed[0])
            iterations = start + t + 1
            if hit[t]:
                witness, evaluations = int(xs[t]), 2 * iterations - 1
            else:
                witness, evaluations = mask ^ int(xs[t]), 2 * iterations
            if not evaluate(inst, witness):
                raise WitnessVerificationError(
                    f"batch test passed {witness}, which evaluate rejects")
            return SolverReport(
                algorithm="outer-random", verdict=SAT, iterations=iterations,
                evaluations=evaluations, witness=witness, seed=seed_field,
            )
        start = stop
    return SolverReport(
        algorithm="outer-random", verdict=UNSAT, iterations=half,
        evaluations=2 * half, evidence="exhausted-pairs", seed=seed_field,
    )


def binary_search_solve(inst: SsatInstance) -> SolverReport:
    """Locate the unique gap of a sorted full-minus-one instance.

    Requires rows strictly ascending with m = 2^n - 1, which pins down
    exactly one missing code g. Rows below the gap sit at their own index
    and rows above it are shifted by one, so T[mid] = mid probing finds g
    in at most ceil(log2(2^n - 1)) + 2 comparisons including the two edge
    checks. The gap is the one missing row, hence complement(g) is the
    one assignment nothing blocks; it is verified before reporting.
    """
    n = inst.n
    rows = inst.rows
    m = (1 << n) - 1
    if inst.m != m:
        raise PreconditionError(f"need exactly 2^n - 1 = {m} rows, got {inst.m}")
    if inst.m > 1 and not bool((rows[1:] > rows[:-1]).all()):
        raise PreconditionError("rows must be strictly ascending")

    comparisons = 1
    if int(rows[0]) != 0:
        gap = 0
    else:
        comparisons += 1
        if int(rows[m - 1]) != (1 << n) - 1:
            gap = (1 << n) - 1
        else:
            lo, hi = 0, m - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                comparisons += 1
                if int(rows[mid]) == mid:
                    lo = mid
                else:
                    hi = mid
            gap = lo + 1

    evaluations = 0
    witness = None
    for x in (complement(gap, n), gap):
        evaluations += 1
        if evaluate(inst, x):
            witness = x
            break
    if witness is None:
        raise WitnessVerificationError(
            f"neither gap {gap} nor its complement satisfies; "
            "the unique-solution promise does not hold"
        )
    return SolverReport(
        algorithm="binary-search", verdict=SAT, iterations=comparisons,
        evaluations=evaluations, witness=witness, evidence=f"gap {gap}",
    )
