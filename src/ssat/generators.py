"""Instance builders with prescribed solution sets, the brute-force
oracle, and the candidate-selection probability formulas.

The central construction: an assignment x is satisfying exactly when
complement(x) is absent from the rows, so taking rows = {complement(x)
for every x outside S} realizes any chosen solution set S. With S empty
that is the fully blocked board; with |S| = 1 it is the unique-solution
family, and piling on duplicated, shuffled rows yields the extreme
instances (m far above 2^n) without disturbing S.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .board import MAX_TABLE_WIDTH
from .errors import DomainError, OracleCapError
from .model import SsatInstance, complement, evaluate

# Full enumeration above this width is refused (2^20 is about a million
# evaluate calls, still comfortable at a desk).
DEFAULT_ORACLE_CAP = 20

Seed = int | str | bytes | None


@dataclass(frozen=True)
class ExtremeSpec:
    """Recipe for a stress instance: at most one solution, optionally
    padded with duplicate rows and shuffled.

    solution None means no solution at all (blocked board base).
    shuffle_seed None means identity order; it is required once
    duplicates > 0, since the duplicates are drawn randomly.
    """

    n: int
    solution: int | None = None
    duplicates: int = 0
    shuffle_seed: Seed = None

    def __post_init__(self):
        if self.solution is not None and not 0 <= self.solution < (1 << self.n):
            raise ValueError(f"solution {self.solution} does not fit width {self.n}")
        if self.duplicates < 0:
            raise ValueError("duplicate count must be nonnegative")
        if self.duplicates > 0 and self.shuffle_seed is None:
            raise ValueError("duplicates are drawn randomly; a shuffle_seed is required")

    @property
    def solution_count(self) -> int:
        return 0 if self.solution is None else 1


def build_with_solutions(n: int, solutions: Iterable[int]) -> SsatInstance:
    """Instance whose solution set is exactly the given one: one row per
    non-solution, namely its complement, in ascending row order.

    m = 2^n - |solutions|. The full solution set is rejected because it
    would need zero rows, and an instance must have at least one. The
    rows come from a one-byte keep-mask per code and the instance keeps
    them without a copy, so the build peaks at about 9 bytes per code.
    """
    if not 1 <= n <= MAX_TABLE_WIDTH:
        raise ValueError(f"builders materialize 2^n rows; n must be in [1, {MAX_TABLE_WIDTH}]")
    size = 1 << n
    chosen = set(solutions)
    for s in chosen:
        if not 0 <= s < size:
            raise ValueError(f"solution {s} does not fit width {n}")
    if len(chosen) == size:
        raise ValueError("the full assignment set would leave zero rows")
    keep = np.ones(size, dtype=np.bool_)
    keep[np.fromiter((complement(s, n) for s in chosen), np.int64, len(chosen))] = False
    return SsatInstance._adopt(n, np.flatnonzero(keep))


def duplicate_and_shuffle(inst: SsatInstance, duplicates: int, seed: Seed) -> SsatInstance:
    """Append `duplicates` rows drawn with replacement from inst, then
    shuffle the whole row order; one seeded stream drives both. The
    solution set is untouched: satisfaction ignores multiplicity and
    order."""
    if duplicates < 0:
        raise ValueError("duplicate count must be nonnegative")
    rng = random.Random(seed)
    rows = inst.rows.tolist()
    rows += [rows[rng.randrange(len(rows))] for _ in range(duplicates)]
    rng.shuffle(rows)
    return SsatInstance._adopt(inst.n, np.array(rows, dtype=np.int64))


def extreme_instance(spec: ExtremeSpec) -> SsatInstance:
    """Build the stress instance ``spec`` describes: the zero- or
    one-solution base, plus duplicates and a shuffle when asked for."""
    base = build_with_solutions(
        spec.n, () if spec.solution is None else (spec.solution,)
    )
    if spec.duplicates == 0 and spec.shuffle_seed is None:
        return base
    return duplicate_and_shuffle(base, spec.duplicates, spec.shuffle_seed)


def brute_force_solution_set(inst: SsatInstance, cap: int = DEFAULT_ORACLE_CAP) -> set[int]:
    """Exact solution set by evaluating all 2^n assignments."""
    if inst.n > cap:
        raise OracleCapError(f"full enumeration of 2^{inst.n} assignments exceeds cap {cap}")
    return {x for x in range(1 << inst.n) if evaluate(inst, x)}


def prob_ss_inner(n: int, f: int) -> float:
    """Chance that one inner draw picks a specific surviving assignment,
    after f failures each retiring a complement pair: 1 / ((2^n - 2f) * 2^n)."""
    size = _checked_size(n)
    if f < 0 or 2 * f >= size:
        raise DomainError(f"need 0 <= 2f < 2^{n}, got f = {f}")
    # int by int: exact, and 0.0 where the float 1.0 / (2^n)^2 would overflow
    return 1 / ((size - 2 * f) * size)


def prob_ss_outer(n: int, f: int) -> float:
    """Outer counterpart: failures retire one candidate each, so the
    chance is 1 / ((2^n - f) * 2^n)."""
    size = _checked_size(n)
    if f < 0 or f >= size:
        raise DomainError(f"need 0 <= f < 2^{n}, got f = {f}")
    return 1 / ((size - f) * size)


def prob_poly_subset(n: int, k: int) -> tuple[float, float]:
    """For a polynomial-size candidate pool of n^k assignments: the chance
    that a solution lies in the pool (n^k / 2^n) and the chance that one
    uniform draw from the whole space hits a solution inside the pool
    (n^k / 2^{2n})."""
    size = _checked_size(n)
    if k <= 0:
        raise DomainError(f"pool exponent k must be positive, got {k}")
    pool = n**k
    return pool / size, pool / (size * size)


def _checked_size(n: int) -> int:
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return 1 << n
