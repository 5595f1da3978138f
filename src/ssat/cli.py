"""Command-line surface.

Subcommands: solve (run one algorithm on an instance file), gen (write a
generated instance), bench (iteration-count trials to CSV), prob
(candidate-selection probability tables to CSV).

Exit codes follow solver conventions: 10 for a SAT answer (witness or
existence), 20 for UNSAT, 1 for usage errors, bad input, or an
undetermined quick run. The environment variable SSAT_SEED supplies the
default --seed of the seeded algorithms (outer-random) and the default
--seed-base of bench; solve with any other algorithm never reads it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from .bench import ALGORITHMS, SCENARIOS, SOLVERS, run_bench, write_csv
from .errors import SsatError
from .formats import parse_cnf_file, parse_rows_file, write_rows_file
from .generators import (
    build_with_solutions,
    duplicate_and_shuffle,
    prob_poly_subset,
    prob_ss_inner,
    prob_ss_outer,
)
from .solvers import SAT, SAT_EXISTS, UNSAT
# Not called here; perfbench/tracing.py patches these names on ssat.cli.
from .solvers import (  # noqa: F401
    binary_search_solve,
    inner_board_solve,
    inner_witness_solve,
    outer_random_solve,
    quick_existence,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented error code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env_seed(default: int = 0) -> int:
    raw = os.environ.get("SSAT_SEED")
    return default if raw is None else int(raw)


def _print_report(report, n: int, extra: dict | None = None) -> None:
    line: dict = {"algorithm": report.algorithm, "verdict": report.verdict}
    if report.witness is not None:
        line["witness"] = report.witness
        line["witness_bits"] = format(report.witness, f"0{n}b")
    if report.evidence is not None:
        line["evidence"] = report.evidence
    line["iterations"] = report.iterations
    line["evaluations"] = report.evaluations
    if report.seed is not None:
        line["seed"] = report.seed
    if report.pair_insertions is not None:
        line["pair_insertions"] = report.pair_insertions
    if extra:
        line.update(extra)
    print(json.dumps(line))


def _cmd_solve(args) -> int:
    if args.format == "rows":
        inst = parse_rows_file(args.input)
    else:
        # general CNF is accepted by rewriting it into fixed-width rows
        inst = parse_cnf_file(args.input, mode="expand")

    # quick --witness escalates to a real search
    name = "inner-witness" if args.algorithm == "quick" and args.witness else args.algorithm
    solver = SOLVERS[name]
    if args.dump_board and not solver.dumps_board:
        print("error: --dump-board needs an inner algorithm run", file=sys.stderr)
        return 1
    if args.witness and not solver.witnesses:
        print(f"error: --witness needs an algorithm that reports one, not {args.algorithm}",
              file=sys.stderr)
        return 1
    if args.seed is not None and not solver.seeded:
        print(f"error: --seed needs a seeded algorithm, not {args.algorithm}",
              file=sys.stderr)
        return 1
    seed = None
    if solver.seeded:
        seed = args.seed if args.seed is not None else _env_seed()
    report = solver.run(inst, seed, args.dump_board)
    _print_report(report, inst.n)
    if report.verdict in (SAT, SAT_EXISTS):
        return 10
    if report.verdict == UNSAT:
        return 20
    # UNDETERMINED, which only the quick test reports
    print("quick existence test cannot decide m >= 2^n; "
          "rerun with --witness or another algorithm", file=sys.stderr)
    return 1


def _parse_solutions(text: str) -> list[int]:
    if text.strip().lower() == "none":
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--solutions wants 'none' or comma-separated integers, got {text!r}"
        ) from None


def _cmd_gen(args) -> int:
    solutions = _parse_solutions(args.solutions)
    if args.duplicates < 0:
        print("error: --duplicates must be nonnegative", file=sys.stderr)
        return 1
    if args.duplicates > 0 and args.shuffle_seed is None:
        print("error: --duplicates needs --shuffle-seed (draws are random)",
              file=sys.stderr)
        return 1
    inst = build_with_solutions(args.n, solutions)
    if args.duplicates > 0 or args.shuffle_seed is not None:
        inst = duplicate_and_shuffle(inst, args.duplicates, args.shuffle_seed)
    write_rows_file(args.out, inst)
    if args.reveal:
        print(f"m={inst.m} solutions={sorted(set(solutions))}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    seed_base = args.seed_base if args.seed_base is not None else _env_seed()
    records = run_bench(
        n=args.n, trials=args.trials, scenario=args.scenario,
        algorithms=algorithms, duplicates=args.duplicates, seed_base=seed_base,
    )
    write_csv(args.out, records)
    return 0


def _cmd_prob(args) -> int:
    if args.mode == "poly":
        header, xs = ["k", "prob_in_c", "prob_s_c"], range(1, args.f_max + 1)
        probs = lambda x: prob_poly_subset(args.n, x)
    else:
        prob = prob_ss_inner if args.mode == "inner" else prob_ss_outer
        header, xs = ["f", "probability"], range(args.f_max + 1)
        probs = lambda x: (prob(args.n, x),)
    skipped = 0
    with open(args.out, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for x in xs:
            try:
                row = probs(x)
            except (SsatError, OverflowError):
                skipped += 1
                continue
            writer.writerow([x, *map(repr, row)])
    if skipped:
        print(f"warning: skipped {skipped} out-of-domain rows", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once a process: building it costs more
    than a small solve, and parse_args keeps nothing between calls."""
    parser = _Parser(prog="ssat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one algorithm on an instance file")
    p_solve.add_argument("--input", required=True, help="instance file")
    p_solve.add_argument("--format", choices=("rows", "cnf"), default="rows")
    p_solve.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p_solve.add_argument("--seed", type=int, default=None,
                         help="RNG seed of a seeded algorithm "
                              "(default: SSAT_SEED or 0)")
    p_solve.add_argument("--witness", action="store_true",
                         help="force a witness search even when the quick "
                              "existence test answers; an error with an "
                              "algorithm that reports no witness")
    p_solve.add_argument("--dump-board", default=None, metavar="PATH",
                         help="write the pair table after an inner run")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--solutions", required=True,
                       help="'none' or comma-separated assignments")
    p_gen.add_argument("--duplicates", type=int, default=0)
    p_gen.add_argument("--shuffle-seed", type=int, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--reveal", action="store_true",
                       help="print m and the solution set to stderr")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="iteration-count trials to CSV")
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--trials", type=int, required=True)
    p_bench.add_argument("--scenario", required=True, choices=SCENARIOS)
    p_bench.add_argument("--duplicates", type=int, default=0)
    p_bench.add_argument("--algorithms", required=True,
                         help=f"comma-separated from {', '.join(ALGORITHMS)}")
    p_bench.add_argument("--seed-base", type=int, default=None,
                         help="base seed; trial t uses seed-base + t "
                              "(default: SSAT_SEED or 0)")
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=_cmd_bench)

    p_prob = sub.add_parser("prob", help="probability tables to CSV")
    p_prob.add_argument("--n", type=int, required=True)
    p_prob.add_argument("--mode", required=True, choices=("inner", "outer", "poly"))
    p_prob.add_argument("--f-max", type=int, required=True,
                        help="largest f (inner/outer) or k (poly), inclusive")
    p_prob.add_argument("--out", required=True)
    p_prob.set_defaults(func=_cmd_prob)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SsatError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
