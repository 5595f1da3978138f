"""Golden CLI output: `ssat solve` stdout, exit code and board dumps,
byte for byte, on three small committed instances.

The fixtures pin what the CLI prints, so a change to the internals (the
membership index, the pair table's storage) must leave every verdict,
witness, counter and dump file exactly as recorded. To re-record after a
deliberate output change, run `PYTHONPATH=src python tests/test_golden.py`
and review the diff of tests/fixtures/.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ssat.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = FIXTURES / "golden.json"

# blocked3: n=3 blocked board, shuffled. unique4_dups: n=4, unique
# solution 0110, 20 duplicate rows, shuffled. gap4_sorted: n=4, the
# 2^n - 1 rows in ascending order, solution 1001.
INSTANCES = ("blocked3", "unique4_dups", "gap4_sorted")

RUNS = {
    "quick": ["--algorithm", "quick"],
    "quick-witness": ["--algorithm", "quick", "--witness"],
    "inner-board": ["--algorithm", "inner-board"],
    "inner-witness": ["--algorithm", "inner-witness"],
    "outer-random": ["--algorithm", "outer-random", "--seed", "7"],
    "binary-search": ["--algorithm", "binary-search"],
}

DUMPING = ("quick-witness", "inner-board", "inner-witness")

CASES = [
    (inst, run) for inst in INSTANCES for run in RUNS
    # binary search needs m = 2^n - 1 rows in ascending order
    if run != "binary-search" or inst == "gap4_sorted"
]


def case_id(inst: str, run: str) -> str:
    return f"{inst}.{run}"


def run_case(inst: str, run: str, dump: Path) -> tuple[int, str]:
    argv = ["solve", "--input", str(FIXTURES / f"{inst}.rows"), *RUNS[run]]
    if run in DUMPING:
        argv += ["--dump-board", str(dump)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("inst,run", CASES, ids=[case_id(*c) for c in CASES])
def test_solve_matches_golden(inst, run, tmp_path):
    expected = json.loads(EXPECTED.read_text())[case_id(inst, run)]
    dump = tmp_path / "board.txt"
    code, stdout = run_case(inst, run, dump)
    assert stdout == expected["stdout"]
    assert code == expected["exit"]
    if run in DUMPING:
        want = (FIXTURES / f"{case_id(inst, run)}.board").read_bytes()
        assert dump.read_bytes() == want


def record() -> None:
    expected = {}
    for inst, run in CASES:
        dump = FIXTURES / f"{case_id(inst, run)}.board"
        code, stdout = run_case(inst, run, dump)
        expected[case_id(inst, run)] = {"exit": code, "stdout": stdout}
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    record()
