"""Properties every solver and the rows codec keep on arbitrary small
instances, checked against brute_force_solution_set."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssat import (
    SAT,
    SAT_EXISTS,
    UNSAT,
    ParseError,
    SsatError,
    SsatInstance,
    binary_search_solve,
    brute_force_solution_set,
    build_with_solutions,
    complement,
    duplicate_and_shuffle,
    evaluate,
    inner_board_solve,
    inner_witness_solve,
    outer_random_solve,
    parse_cnf_file,
    parse_rows_file,
    quick_existence,
    write_rows_file,
)
from ssat.formats import CNF_MODES


@st.composite
def instances(draw, max_n=8):
    """Uniform rows, or a planted solution set (none, one or a few) with
    duplicates and a shuffle; the unique-solution builds come sorted with
    2^n - 1 rows, the binary search's precondition."""
    n = draw(st.integers(1, max_n))
    size = 1 << n
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3 * size))
        return SsatInstance(n, rows)
    solutions = draw(st.sets(st.integers(0, size - 1), max_size=min(size - 1, 3)))
    inst = build_with_solutions(n, solutions)
    duplicates = draw(st.integers(0, 2 * size))
    if duplicates:
        inst = duplicate_and_shuffle(inst, duplicates, draw(st.integers(0, 2**32)))
    return inst


# Arbitrary bytes, and bytes that get past the header: a valid header of
# either format followed by text over the characters the parsers read.
HEADERS = (b"ssat 3 2\n", b"ssat 1 3\n", b"p cnf 3 2\n", b"p cnf 2 1\n")
FILE_BYTES = st.one_of(
    st.binary(max_size=120),
    st.tuples(st.sampled_from(HEADERS),
              st.text(alphabet="0123 -\n\r\t%cp", max_size=60).map(str.encode),
              ).map(b"".join),
)


def reports(inst, seed):
    out = [inner_board_solve(inst), inner_witness_solve(inst), outer_random_solve(inst, seed)]
    quick = quick_existence(inst.n, inst.m)
    if quick is not None:
        out.append(quick)
    rows = inst.rows
    if inst.m == (1 << inst.n) - 1 and bool(np.all(rows[1:] > rows[:-1])):
        out.append(binary_search_solve(inst))
    return out


class TestSolverProperties:
    @settings(max_examples=200, deadline=None)
    @given(instances(), st.integers(0, 2**32))
    def test_verdicts_agree_with_brute_force(self, inst, seed):
        solutions = brute_force_solution_set(inst)
        for rep in reports(inst, seed):
            assert rep.verdict in (SAT, SAT_EXISTS, UNSAT)
            assert (rep.verdict != UNSAT) == bool(solutions), rep
            if rep.verdict == SAT:
                assert rep.witness in solutions
                assert evaluate(inst, rep.witness) == 1

    @settings(max_examples=200, deadline=None)
    @given(instances(), st.integers(0, 2**32))
    def test_outer_random_stays_in_half_the_space(self, inst, seed):
        rep = outer_random_solve(inst, seed)
        half = 1 << (inst.n - 1)
        assert 1 <= rep.iterations <= half
        if rep.verdict == UNSAT:
            assert (rep.iterations, rep.evaluations) == (half, 2 * half)
        else:
            assert rep.evaluations in (2 * rep.iterations - 1, 2 * rep.iterations)

    @settings(max_examples=200, deadline=None)
    @given(instances())
    def test_pair_insertions_count_distinct_pairs(self, inst):
        rep = inner_witness_solve(inst)
        n = inst.n
        # every consumed row failed as a candidate and was parked, except
        # a row that hit, which ends the walk without an insertion
        failed = rep.iterations - (rep.evidence == "row-hit")
        prefix = inst.rows[:failed].tolist()
        assert rep.pair_insertions == len({min(k, complement(k, n)) for k in prefix})


class TestRowsRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 62).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40),
        st.integers(0, 5),
    )))
    def test_write_then_parse(self, tmp_path_factory, case):
        n, rows, copies = case
        rows = rows + rows[:copies]  # duplicates survive the trip
        inst = SsatInstance(n, rows)
        path = tmp_path_factory.mktemp("rows") / "inst.rows"
        write_rows_file(path, inst)
        back = parse_rows_file(path)
        assert back.n == n
        assert back.rows.tolist() == rows


class TestParsersOnArbitraryBytes:
    @settings(max_examples=300, deadline=None)
    @given(FILE_BYTES)
    def test_rows_parser_raises_only_parse_errors(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "x.rows"
        path.write_bytes(data)
        try:
            parse_rows_file(path)
        except (ParseError, UnicodeDecodeError):
            pass

    @settings(max_examples=300, deadline=None)
    @given(FILE_BYTES, st.sampled_from(CNF_MODES))
    def test_cnf_parser_raises_only_typed_errors(self, tmp_path_factory, data, mode):
        path = tmp_path_factory.mktemp("fuzz") / "x.cnf"
        path.write_bytes(data)
        try:
            parse_cnf_file(path, mode=mode)
        except (SsatError, UnicodeDecodeError):
            pass
