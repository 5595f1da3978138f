"""Fixed-width SAT as bit arithmetic.

An instance over n variables whose every clause mentions all n variables
becomes a list of n-bit row codes; an assignment falsifies it exactly
when the assignment's bitwise complement appears as a row. The package
provides that model, a complement-adjacent pair table that certifies
unsatisfiability by filling up, inner (row-driven) and outer (randomized)
search, a gap-locating binary search, generators with prescribed solution
sets, a brute-force oracle, candidate-selection probability formulas, and
a benchmark harness with a CLI.
"""

from .errors import (
    BlowupLimitError,
    DomainError,
    DuplicateVariableError,
    MissingVariableError,
    OracleCapError,
    ParseError,
    PreconditionError,
    SsatError,
    WidthMismatchError,
    WitnessVerificationError,
)
from .model import (
    SatInstance,
    SsatInstance,
    complement,
    evaluate,
    evaluate_by_matching,
    is_blocking_pair,
    translate_row,
    untranslate,
)
from .board import EMPTY, PairTable, address_of, inverse_address
from .solvers import (
    SAT,
    SAT_EXISTS,
    UNSAT,
    SolverReport,
    binary_search_solve,
    counted_existence,
    inner_board_solve,
    inner_witness_solve,
    outer_random_solve,
    quick_existence,
)
from .generators import (
    ExtremeSpec,
    brute_force_solution_set,
    build_with_solutions,
    duplicate_and_shuffle,
    extreme_instance,
    prob_poly_subset,
    prob_ss_inner,
    prob_ss_outer,
)
from .formats import parse_cnf_file, parse_rows_file, write_rows_file
from .bench import ALGORITHMS, run_bench, summarize

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BlowupLimitError",
    "DomainError",
    "DuplicateVariableError",
    "EMPTY",
    "ExtremeSpec",
    "MissingVariableError",
    "OracleCapError",
    "PairTable",
    "ParseError",
    "PreconditionError",
    "SAT",
    "SAT_EXISTS",
    "SatInstance",
    "SolverReport",
    "SsatError",
    "SsatInstance",
    "UNSAT",
    "WidthMismatchError",
    "WitnessVerificationError",
    "address_of",
    "binary_search_solve",
    "brute_force_solution_set",
    "build_with_solutions",
    "complement",
    "counted_existence",
    "duplicate_and_shuffle",
    "evaluate",
    "evaluate_by_matching",
    "extreme_instance",
    "inner_board_solve",
    "inner_witness_solve",
    "inverse_address",
    "is_blocking_pair",
    "outer_random_solve",
    "parse_cnf_file",
    "parse_rows_file",
    "prob_poly_subset",
    "prob_ss_inner",
    "prob_ss_outer",
    "quick_existence",
    "run_bench",
    "summarize",
    "translate_row",
    "untranslate",
    "write_rows_file",
]
