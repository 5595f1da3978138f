"""Tests of the benchmark harness itself; run with `python -m pytest perfbench`.

The smoke runs use tiny instances and a fraction of a second of timing,
so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import CheckError, Planted, check_dump, check_solve

RUN = Path(run.__file__)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, seed: int = 3, cwd: Path = run.ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=120, check=False)


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric_and_no_failure(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, name


def test_counter_digest_repeats_for_a_seed():
    digests = set()
    for trace in (0, 1):
        assert smoke("search-mix", trace, seed=11).returncode == 0
        record = run.RESULTS / f"search-mix-seed11-trace{trace}.json"
        digests.add(json.loads(record.read_text())["counter_digest"])
    assert len(digests) == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("paper-tables", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def ssat():
    return run.import_ssat()


def answer(**fields) -> str:
    return json.dumps(fields) + "\n"


def test_check_accepts_a_right_answer_and_rejects_wrong_ones(ssat, tmp_path):
    sat = Planted(tmp_path / "sat.rows", 4, (5,))
    right = answer(algorithm="inner-witness", verdict="SAT", witness=5,
                   witness_bits="0101", iterations=3, evaluations=3)
    assert check_solve(ssat, sat, "inner-witness", (10, right, ""), None)["witness"] == 5
    wrong = [
        (20, right),  # exit code
        (10, right.replace('"witness": 5', '"witness": 6')),  # witness outside the set
        (10, right.replace('"SAT"', '"SAT_EXISTS"')),  # verdict kind
        (10, right.replace('"evaluations": 3', '"evaluations": 1')),  # counters
        (10, right + right),  # extra output
    ]
    for rc, text in wrong:
        with pytest.raises(CheckError):
            check_solve(ssat, sat, "inner-witness", (rc, text, ""), None)
    blocked = Planted(tmp_path / "blocked.rows", 4, ())
    with pytest.raises(CheckError):
        check_solve(ssat, blocked, "inner-witness", (10, right, ""), None)


def test_dump_check_needs_every_cell_to_hold_its_code(ssat, tmp_path):
    table = ssat.PairTable(4)
    for k in range(16):
        table.insert(k)
    path = tmp_path / "board.dump"
    table.dump(path)
    check_dump(path, 4, set())
    with pytest.raises(CheckError):
        check_dump(path, 4, {3})
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines))
    with pytest.raises(CheckError):
        check_dump(path, 4, set())


def test_tail_keeps_ten_samples_beyond_it():
    value, pct = run.tail(list(range(20)))
    assert value == 9 and pct == 50.0
    assert sum(x > value for x in range(20)) == run.TAIL_BEYOND
