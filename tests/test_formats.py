"""File formats: rows files and the CNF subset."""

import io
import os
import random
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssat import (
    MissingVariableError,
    ParseError,
    SatInstance,
    SsatInstance,
    build_with_solutions,
    duplicate_and_shuffle,
    parse_cnf_file,
    parse_rows_file,
    write_rows_file,
)
from ssat.errors import BlowupLimitError
from ssat.formats import CNF_MODES, _parse_rows_lines, _parse_rows_stream
from ssat.model import ABSENT, BLOCK_ROWS

from reference import parse_rows_strict_reference, rows_bytes_reference

FIXTURES = Path(__file__).parent / "fixtures"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def strict(data: bytes) -> SsatInstance | None:
    """The streamed decoder's instance for a file's bytes, or None where
    parse_rows_file hands the file to the line loop."""
    return _parse_rows_stream(io.BytesIO(data), len(data))


def strict_file(path) -> SsatInstance | None:
    """strict for a file on disk, read through its own handle and size."""
    with open(path, "rb") as fh:
        return _parse_rows_stream(fh, os.fstat(fh.fileno()).st_size)


class TestRowsFormat:
    def test_basic_file(self, tmp_path):
        path = write(tmp_path, "a.rows", "ssat 2 2\n01\n11\n")
        inst = parse_rows_file(path)
        assert inst.n == 2
        assert inst.rows.tolist() == [0b01, 0b11]

    def test_single_variable_blocked_board(self, tmp_path):
        inst = parse_rows_file(write(tmp_path, "b.rows", "ssat 1 2\n1\n0\n"))
        assert inst.rows.tolist() == [1, 0]

    def test_illegal_digit(self, tmp_path):
        path = write(tmp_path, "c.rows", "ssat 3 1\n012\n")
        with pytest.raises(ParseError) as err:
            parse_rows_file(path)
        assert err.value.line == 2

    def test_wrong_row_width(self, tmp_path):
        path = write(tmp_path, "d.rows", "ssat 3 2\n010\n01\n")
        with pytest.raises(ParseError) as err:
            parse_rows_file(path)
        assert err.value.line == 3

    def test_bad_header(self, tmp_path):
        for text in ("", "ssat 2\n", "sat 2 2\n01\n11\n", "ssat x 2\n01\n11\n",
                     "ssat 2 0\n", "ssat 0 1\n\n"):
            with pytest.raises(ParseError):
                parse_rows_file(write(tmp_path, "e.rows", text))

    def test_row_count_mismatch(self, tmp_path):
        with pytest.raises(ParseError):
            parse_rows_file(write(tmp_path, "f.rows", "ssat 2 3\n01\n11\n"))
        with pytest.raises(ParseError):
            parse_rows_file(write(tmp_path, "g.rows", "ssat 2 1\n01\n11\n"))

    def test_interior_blank_line(self, tmp_path):
        path = write(tmp_path, "h.rows", "ssat 2 2\n01\n\n11\n")
        with pytest.raises(ParseError):
            parse_rows_file(path)

    def test_trailing_newlines_tolerated(self, tmp_path):
        inst = parse_rows_file(write(tmp_path, "i.rows", "ssat 2 1\n10\n\n\n"))
        assert inst.rows.tolist() == [0b10]

    def test_round_trip_random(self, tmp_path):
        rng = random.Random(41)
        for i in range(20):
            n = rng.randint(1, 9)
            base = build_with_solutions(n, {rng.randrange(1 << n)})
            inst = duplicate_and_shuffle(base, rng.randrange(20), seed=i)
            path = tmp_path / f"r{i}.rows"
            write_rows_file(path, inst)
            assert parse_rows_file(path) == inst


def rows_text(n, rows, end="\n"):
    """A rows file's text, every line closed by `end`."""
    return "".join(line + end for line in [f"ssat {n} {len(rows)}"]
                   + [format(r, f"0{n}b") for r in rows])


class TestRowsCodec:
    """The strict numpy path against the line loop it stands in for."""

    BIG_N, BIG_M = 16, 1 << 16

    @pytest.fixture(scope="class")
    def big_rows(self):
        rng = random.Random(7)
        return [rng.randrange(1 << self.BIG_N) for _ in range(self.BIG_M)]

    @pytest.mark.parametrize("n", [1, 2, 16, 62])
    def test_strict_path_matches_line_loop(self, tmp_path, n):
        rng = random.Random(n)
        for i in range(10):
            rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 300))]
            rows[rng.randrange(len(rows))] = (1 << n) - 1
            text = rows_text(n, rows)
            fast = strict(text.encode("ascii"))
            assert fast == _parse_rows_lines(text)
            assert fast.rows.tolist() == rows
            path = write(tmp_path, f"d{i}.rows", text)
            assert parse_rows_file(path) == fast

    @pytest.mark.parametrize("row", [1, 12345, 1 << 16])
    @pytest.mark.parametrize("col", [0, 15])
    def test_bad_digit_names_its_line(self, tmp_path, big_rows, row, col):
        lines = rows_text(self.BIG_N, big_rows).splitlines(keepends=True)
        bad = lines[row]  # row k (1-based) sits on line k + 1
        lines[row] = bad[:col] + "2" + bad[col + 1:]
        path = write(tmp_path, "bad.rows", "".join(lines))
        with pytest.raises(ParseError) as err:
            parse_rows_file(path)
        assert err.value.line == row + 1
        assert "expected 16 characters over 0/1" in str(err.value)

    def test_newline_turned_digit_is_not_strict(self, tmp_path, big_rows):
        # same byte count as a strict file, but rows 5 and 6 share a line
        lines = rows_text(self.BIG_N, big_rows).splitlines(keepends=True)
        lines[5] = lines[5][:-1] + "1"
        data = "".join(lines).encode("ascii")
        assert strict(data) is None
        path = tmp_path / "merged.rows"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"file has {self.BIG_M - 1}"):
            parse_rows_file(path)

    @pytest.mark.parametrize("variant", ["crlf", "trailing-space", "trailing-blank-line",
                                         "no-final-newline"])
    def test_tolerated_layouts_of_a_large_file(self, tmp_path, big_rows, variant):
        text = {
            "crlf": rows_text(self.BIG_N, big_rows, end="\r\n"),
            "trailing-space": rows_text(self.BIG_N, big_rows, end=" \n"),
            "trailing-blank-line": rows_text(self.BIG_N, big_rows) + "\n",
            "no-final-newline": rows_text(self.BIG_N, big_rows)[:-1],
        }[variant]
        data = text.encode("ascii")
        assert strict(data) is None  # the line loop reads these
        path = tmp_path / "v.rows"
        path.write_bytes(data)
        assert parse_rows_file(path).rows.tolist() == big_rows

    def test_header_with_inner_line_break_is_not_strict(self, tmp_path):
        # "\r" splits "ssat 2\r2" into two lines for the line loop
        path = tmp_path / "cr.rows"
        path.write_bytes(b"ssat 2\r2\n01\n11\n")
        assert strict_file(path) is None
        with pytest.raises(ParseError) as err:
            parse_rows_file(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("data", [b"ssat 2 2\n01\n1\xe9\n", b"ssat\xa0 2 1\n01\n",
                                      b"sat 2 1\n\xff1\n"])
    def test_non_ascii_byte_raises_unicode_decode_error(self, tmp_path, data):
        path = tmp_path / "u.rows"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError):
            parse_rows_file(path)

    @pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.rows")), ids=lambda p: p.name)
    def test_write_reproduces_fixture_bytes(self, tmp_path, fixture):
        path = tmp_path / fixture.name
        write_rows_file(path, parse_rows_file(fixture))
        assert path.read_bytes() == fixture.read_bytes()

    def test_write_crosses_block_boundaries(self, tmp_path, big_rows):
        rows = big_rows + big_rows[:3]  # 2^16 + 3 rows: whole blocks and a tail
        path = tmp_path / "w.rows"
        write_rows_file(path, SsatInstance(self.BIG_N, rows))
        assert path.read_text(encoding="ascii") == rows_text(self.BIG_N, rows)


# one-byte replacements: a wrong digit, line ends, a blank, a non-ASCII
# byte, and "/", the byte just below "0"
MUTANTS = (b"2", b"\n", b"\r", b" ", b"\x80", b"/")


@st.composite
def mutated_rows_files(draw):
    """A strictly laid-out rows file with n in 1..62 and m up to just past
    a block edge, its instance, and the file with at most one byte
    replaced: anywhere, in the header or first row, or in the last row."""
    n = draw(st.integers(1, 62))
    m = draw(st.one_of(st.integers(1, 40), st.integers(BLOCK_ROWS - 2, BLOCK_ROWS + 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    inst = SsatInstance(n, np.random.default_rng(seed).integers(0, 1 << n, size=m))
    data = rows_bytes_reference(inst)
    last = len(data) - 1
    pos = draw(st.none() | st.integers(0, last) | st.integers(0, min(last, 30 + n))
               | st.integers(max(0, last - n - 1), last))
    if pos is not None:
        data = data[:pos] + draw(st.sampled_from(MUTANTS)) + data[pos + 1:]
    return inst, data


class TestWordCodec:
    """The word-at-a-time codec against the column-at-a-time one."""

    @settings(max_examples=150, deadline=None)
    @given(mutated_rows_files())
    def test_decode_matches_reference(self, tmp_path_factory, case):
        inst, data = case
        path = tmp_path_factory.mktemp("rows") / "inst.rows"
        path.write_bytes(data)
        fast = strict_file(path)
        ref = parse_rows_strict_reference(data)
        assert (fast is None) == (ref is None)
        if fast is not None:
            assert fast.n == ref[0]
            assert np.array_equal(fast.rows, ref[1])
            assert parse_rows_file(path) == fast
        write_rows_file(path, inst)
        assert path.read_bytes() == rows_bytes_reference(inst)

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 10) for m in range(1, 10)]
                             + [(62, 1)])
    def test_first_and_last_rows(self, tmp_path, n, m):
        # the first row's leftmost word starts in the header, and the last
        # row's rightmost word ends one byte short of the end of the file
        rng = random.Random(n * 100 + m)
        rows = [rng.getrandbits(n) for _ in range(m)]
        inst = SsatInstance(n, rows)
        path = tmp_path / "small.rows"
        write_rows_file(path, inst)
        data = path.read_bytes()
        assert data == rows_bytes_reference(inst) == rows_text(n, rows).encode("ascii")
        assert strict_file(path) == inst
        body = data.index(b"\n") + 1
        first = range(body, body + n + 1)
        lastrow = range(len(data) - n - 1, len(data))
        for pos in [*first, *lastrow]:
            bad = data[:pos] + b"2" + data[pos + 1:]
            assert strict(bad) is None
            assert parse_rows_strict_reference(bad) is None

    def test_full_width_20_round_trip(self, tmp_path):
        inst = build_with_solutions(20, {12345})
        path = tmp_path / "n20.rows"
        write_rows_file(path, inst)
        assert path.read_bytes() == rows_bytes_reference(inst)
        back = parse_rows_file(path)
        assert back.m == (1 << 20) - 1
        assert np.array_equal(back.rows, inst.rows)

    def test_fifo_parses_like_its_file(self, tmp_path):
        # a pipe has no size up front; its bytes are read whole and then
        # decoded as a file's are, and a bad one still names its line
        inst = duplicate_and_shuffle(build_with_solutions(9, {3}), 2 * BLOCK_ROWS, seed=5)
        good = tmp_path / "good.rows"
        write_rows_file(good, inst)
        data = good.read_bytes()
        bad = bytearray(data)
        bad[data.index(b"\n") + 1 + 40000 * 10] = ord("2")  # row 40001, on line 40002
        for payload in (data, bytes(bad)):
            fifo = tmp_path / "pipe.rows"
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)
            writer.start()
            try:
                if payload is data:
                    assert parse_rows_file(fifo) == inst
                else:
                    with pytest.raises(ParseError) as err:
                        parse_rows_file(fifo)
                    assert err.value.line == 40002
            finally:
                writer.join(timeout=30)
                fifo.unlink()
            assert not writer.is_alive()

    def test_trailing_byte_after_the_last_row(self, tmp_path):
        data = rows_text(3, [5, 2]).encode("ascii")
        path = tmp_path / "t.rows"
        path.write_bytes(data + b"0")
        assert strict_file(path) is None
        with pytest.raises(ParseError, match="header promises 2 rows, file has 3") as err:
            parse_rows_file(path)
        assert err.value.line == 4
        # a byte that appears after the size was taken is caught too
        assert _parse_rows_stream(io.BytesIO(data + b"0"), len(data)) is None

    def test_file_shorter_than_its_size(self):
        # a file that shrank after its size was taken: the last block's
        # read comes up one row short, and the buffer still holds a whole
        # valid row from the block before at that place
        data = rows_text(3, [1] * (BLOCK_ROWS + 2)).encode("ascii")
        assert strict(data) is not None
        assert _parse_rows_stream(io.BytesIO(data[:-4]), len(data)) is None

    def test_header_promising_more_rows_than_the_file_holds(self, tmp_path):
        # nothing is sized from the header's m before the file's size
        # agrees with it
        path = write(tmp_path, "huge.rows", "ssat 20 4000000000000\n" + "01" * 10 + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="header promises 4000000000000 rows") as err:
                parse_rows_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.line == 2
        assert peak < 1 << 20

    def test_parse_peak_per_row(self, tmp_path):
        # the codes the instance keeps (8 bytes a row), one block buffer
        # and a block's temporaries; neither the file's bytes nor a second
        # array of codes is ever held whole
        inst = build_with_solutions(20, {12345})
        path = tmp_path / "n20.rows"
        write_rows_file(path, inst)
        del inst
        tracemalloc.start()
        try:
            back = parse_rows_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / back.m <= 10


class TestCnfFormat:
    GOOD = "p cnf 2 2\n-2 1 0\n2 1 0\n"

    def test_strict_mode(self, tmp_path):
        inst = parse_cnf_file(write(tmp_path, "a.cnf", self.GOOD), mode="strict-ssat")
        assert isinstance(inst, SsatInstance)
        assert set(inst.rows.tolist()) == {0b01, 0b11}

    def test_expand_mode(self, tmp_path):
        path = write(tmp_path, "b.cnf", "p cnf 2 2\n1 0\n-1 0\n")
        inst = parse_cnf_file(path, mode="expand")
        assert isinstance(inst, SsatInstance)
        assert set(inst.rows.tolist()) == {0b00, 0b01, 0b10, 0b11}

    def test_strict_mode_rejects_sparse_clause(self, tmp_path):
        path = write(tmp_path, "c.cnf", "p cnf 2 2\n1 0\n-1 0\n")
        with pytest.raises(MissingVariableError):
            parse_cnf_file(path, mode="strict-ssat")

    def test_ternary_mode(self, tmp_path):
        path = write(tmp_path, "d.cnf", "p cnf 3 2\n2 0\n-3 1 0\n")
        sat = parse_cnf_file(path, mode="ternary")
        assert isinstance(sat, SatInstance)
        assert sat.clauses == ((ABSENT, 1, ABSENT), (0, ABSENT, 1))

    def test_comments_and_multiline_clauses(self, tmp_path):
        text = "c header comment\np cnf 3 2\nc interior\n-3 2\n1 0\nc tail\n3 -2 -1 0\n"
        inst = parse_cnf_file(write(tmp_path, "e.cnf", text), mode="strict-ssat")
        assert inst.rows.tolist() == [0b011, 0b100]

    def test_two_clauses_on_one_line(self, tmp_path):
        path = write(tmp_path, "f.cnf", "p cnf 2 2\n-2 1 0 2 1 0\n")
        inst = parse_cnf_file(path, mode="strict-ssat")
        assert inst.rows.tolist() == [0b01, 0b11]

    def test_empty_clause(self, tmp_path):
        with pytest.raises(ParseError):
            parse_cnf_file(write(tmp_path, "g.cnf", "p cnf 2 2\n0\n1 2 0\n"))

    def test_unterminated_clause(self, tmp_path):
        with pytest.raises(ParseError):
            parse_cnf_file(write(tmp_path, "h.cnf", "p cnf 2 1\n1 2\n"))

    def test_literal_out_of_range(self, tmp_path):
        path = write(tmp_path, "i.cnf", "p cnf 2 1\n3 1 0\n")
        with pytest.raises(ParseError) as err:
            parse_cnf_file(path)
        assert err.value.line == 2

    def test_bad_token(self, tmp_path):
        with pytest.raises(ParseError):
            parse_cnf_file(write(tmp_path, "j.cnf", "p cnf 2 1\nx 1 0\n"))

    def test_clause_count_mismatch(self, tmp_path):
        with pytest.raises(ParseError):
            parse_cnf_file(write(tmp_path, "k.cnf", "p cnf 2 3\n1 2 0\n"))

    def test_missing_header(self, tmp_path):
        with pytest.raises(ParseError):
            parse_cnf_file(write(tmp_path, "l.cnf", "1 2 0\n"))

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            parse_cnf_file(write(tmp_path, "m.cnf", self.GOOD), mode="magic")

    def test_expansion_cap(self, tmp_path):
        path = write(tmp_path, "n.cnf", "p cnf 15 1\n1 0\n")
        with pytest.raises(BlowupLimitError):
            parse_cnf_file(path, mode="expand", row_cap=100)

    def test_indented_comment_lines(self, tmp_path):
        text = "  c indented\np cnf 2 2\n\tc tab-indented\n-2 1 0\n   c between\n2 1 0\n"
        inst = parse_cnf_file(write(tmp_path, "o.cnf", text), mode="strict-ssat")
        assert inst.rows.tolist() == [0b01, 0b11]

    @pytest.mark.parametrize("mode", CNF_MODES)
    def test_satlib_trailer_ends_the_clauses(self, tmp_path, mode):
        text = "c SATLIB layout\np cnf 2 2\n -2 1 0\n 2 1 0\n%\n0\n\n"
        got = parse_cnf_file(write(tmp_path, "p.cnf", text), mode=mode)
        plain = parse_cnf_file(write(tmp_path, "q.cnf", self.GOOD), mode=mode)
        assert got == plain

    def test_trailer_does_not_hide_missing_clauses(self, tmp_path):
        with pytest.raises(ParseError, match="promises 3 clauses, file has 2"):
            parse_cnf_file(write(tmp_path, "r.cnf", "p cnf 2 3\n-2 1 0\n2 1 0\n%\n0\n"))

    def test_expand_dedupes_repeated_literals(self, tmp_path):
        path = write(tmp_path, "s.cnf", "p cnf 2 2\n1 1 2 0\n-1 -1 0\n")
        inst = parse_cnf_file(path, mode="expand")
        assert inst.rows.tolist() == [0b11, 0b00, 0b10]
        sat = parse_cnf_file(path, mode="ternary")
        assert sat.clauses == ((1, 1), (ABSENT, 0))

    @pytest.mark.parametrize("mode", ["expand", "ternary"])
    def test_tautologies_are_dropped(self, tmp_path, mode):
        path = write(tmp_path, "t.cnf", "p cnf 3 3\n1 -1 2 0\n3 2 0\n-2 2 2 0\n")
        want = parse_cnf_file(write(tmp_path, "u.cnf", "p cnf 3 1\n3 2 0\n"), mode=mode)
        assert parse_cnf_file(path, mode=mode) == want

    @pytest.mark.parametrize("mode", ["expand", "ternary"])
    def test_only_tautologies_is_a_parse_error(self, tmp_path, mode):
        path = write(tmp_path, "v.cnf", "p cnf 2 2\n1 -1 0\n2 -2 1 0\n")
        with pytest.raises(ParseError, match="tautology"):
            parse_cnf_file(path, mode=mode)

    @pytest.mark.parametrize("text, line, message", [
        ("p cnf 2 2\n-2 1 0\n2 1 2 0\n", 3, "literal 2 repeats"),
        ("p cnf 2 2\n-2 1 0\n2 -2 1 0\n", 3, "holds both 2 and -2"),
        ("p cnf 2 2\n-2 1 0\nc split clause\n1\n-1 2 0\n", 4, "holds both 1 and -1"),
        ("p cnf 2 1\n1 -2 1 0\n", 2, "literal 1 repeats"),
    ])
    def test_strict_mode_names_the_clause_line(self, tmp_path, text, line, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_cnf_file(write(tmp_path, "w.cnf", text), mode="strict-ssat")
        assert err.value.line == line

    @pytest.mark.parametrize("text, message", [
        ("p cnf 3 2\n1 2 3 0\n1 2 0\n", "line 3: clause does not mention x_2"),
        ("p cnf 3 2\n1 2 3 0\nc split clause\n-2\n1 0\n", "line 4: clause does not mention x_2"),
    ])
    def test_strict_mode_names_the_sparse_clause_line(self, tmp_path, text, message):
        with pytest.raises(MissingVariableError) as err:
            parse_cnf_file(write(tmp_path, "x.cnf", text), mode="strict-ssat")
        assert str(err.value) == message
