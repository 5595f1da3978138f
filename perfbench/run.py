#!/usr/bin/env python3
"""Benchmark of the ssat package as users call it: gen -> file -> solve.

One client sends requests in a closed loop (the next request starts when
the previous one returns) to the ssat CLI and library, in-process, and
checks every answer against the solution set the workload planted.

    python3 perfbench/run.py --workload search-mix --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 1 --trace 1 --smoke

--trace 0 measures the end-to-end metrics; --trace 1 is a separate run
that records spans around every call into the package and reports the
per-layer metrics. --smoke shrinks every instance for a quick check.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record of the run goes
to .perfbench_results/ in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench_results"
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("search-mix", "large-file-sat", "paper-tables")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "formats.parse_ms": "ms",
    "formats.parse_rows_per_s": "rows/s",
    "formats.write_ms": "ms",
    "formats.write_rows_per_s": "rows/s",
    "generators.build_ms": "ms",
    "model.index_build_ms": "ms",
    "model.evaluate_ns": "ns",
    "model.evaluations": "count",
    "board.insert_ns": "ns",
    "board.insert_pair_ns": "ns",
    "board.table_bytes": "bytes",
    "solvers.ms": "ms",
    "solvers.iterations": "count",
    "solvers.ns_per_iter": "ns",
    "trace.overhead_ms": "ms",
}

SETUP_ROUNDS = 3
# Reference loop length, and its time on an unloaded core of a shared
# 2-vCPU Intel Xeon VM with Python 3.11. Times are reported scaled to
# that core: measured time * REF_NOMINAL_NS / the median of the
# reference samples taken within REF_SPAN_NS of the measurement
# (REF_AROUND samples on each side of a set-up round). Raw times are kept
# in the run record.
REF_LOOP = 40_000
REF_NOMINAL_NS = 1_500_000
REF_SPAN_NS = 300_000_000
REF_AROUND = 4
# The tail latency is the highest percentile with at least this many
# samples beyond it.
TAIL_BEYOND = 10
# Assignments per instance in the evaluate probe; rows per instance in
# the pair-table insert probe.
EVALUATE_SAMPLE = 4096
INSERT_SAMPLE = 8192


def import_ssat():
    """Import ssat from this checkout's src/ and from nowhere else."""
    if not (SRC / "ssat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ssat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ssat
    import ssat.bench
    import ssat.board
    import ssat.cli
    import ssat.generators
    import ssat.model

    if Path(ssat.__file__).resolve().parent != (SRC / "ssat").resolve():
        sys.exit(f"perfbench: imported ssat from {ssat.__file__}, not {SRC}")
    return ssat


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_digest": src_digest(),
        "platform": platform.platform(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout exported without .git has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """Hash of the package sources, which names the code measured even
    where there is no git commit."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ssat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    rid: int
    label: str
    wall_ns: int
    cpu_ns: int
    counters: dict | None
    error: str | None
    traced: bool


def serve(request, ssat, tracer=None) -> Outcome:
    """Run one request, timed, then check its answer outside the timing."""
    from tracing import instrument

    out = error = None
    patched = nullcontext() if tracer is None else instrument(tracer, ssat)
    with patched:
        if tracer is not None:
            tracer.rid = request.rid
        span = nullcontext() if tracer is None else tracer.span(request.layer, command="solve")
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        try:
            with span:
                out = request.run()
        except Exception:  # a crashing request is a failed request, not a crashed run
            error = traceback.format_exc(limit=4)
        wall, cpu = time.perf_counter_ns() - t0, time.process_time_ns() - c0
    counters = None
    if error is None:
        try:
            counters = request.check(out)
        except Exception as exc:  # wrong answers and malformed output alike
            error = f"{type(exc).__name__}: {exc}"
    return Outcome(request.rid, request.label, wall, cpu, counters, error, tracer is not None)


def unit_of(name: str) -> str:
    """Unit of a per-layer figure that BENCHMARK.json does not list."""
    last = name.replace("_", ".").rsplit(".", 1)[-1]
    return {"ms": "ms", "iter": "ns", "pct": "%", "iterations": "count",
            "evaluations": "count"}.get(last, "ratio")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    TAIL_BEYOND samples above it."""
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def digest(outcomes: list[Outcome]) -> str:
    """Hash of the counters of the first timed cycle. Its requests are
    the same in every run of one seed, so a change in the digest is a
    change in behaviour, not in speed."""
    rows = [[o.rid, o.label, o.counters] for o in outcomes]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs)


def reference_ns() -> int:
    """Time of a fixed pure-Python loop that shares no code with ssat.
    On a shared machine whose speed changes by up to a factor of two,
    this loop slows roughly as the requests do."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(REF_LOOP):
        acc += i & 7
    return time.perf_counter_ns() - t0


def speed_factors(ref_t: list[int], ref_ns: list[int]) -> list[float]:
    """Per request: REF_NOMINAL_NS over the median of the reference
    samples taken from REF_SPAN_NS before it to REF_SPAN_NS after it.
    Sample i is taken just before request i and sample i + 1 just after,
    so ref_t (ascending) holds one more sample than there are requests."""
    out = []
    for i in range(len(ref_t) - 1):
        lo = bisect.bisect_left(ref_t, ref_t[i] - REF_SPAN_NS)
        hi = bisect.bisect_right(ref_t, ref_t[i + 1] + REF_SPAN_NS)
        out.append(REF_NOMINAL_NS / statistics.median(ref_ns[lo:hi]))
    return out


def scaled_s(fn) -> tuple[float, float, object]:
    """(scaled seconds, raw seconds, result) of fn(), with the reference
    loop run REF_AROUND times on each side."""
    refs = [reference_ns() for _ in range(REF_AROUND)]
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    refs += [reference_ns() for _ in range(REF_AROUND)]
    return raw * REF_NOMINAL_NS / statistics.median(refs), raw, result


def median_setup(workload, rounds: int) -> tuple[float, list[dict]]:
    """Median over rounds of writing every input, each round scaled."""
    log = []
    for _ in range(rounds):
        scaled, raw, _ = scaled_s(workload.setup_round)
        log.append({"raw_s": raw, "s": scaled})
    return statistics.median(r["s"] for r in log), log


def run_untraced(workload, ssat, seconds: float) -> dict:
    gen_s, setup_rounds = median_setup(workload, SETUP_ROUNDS)
    warmup_s, _, warmup = scaled_s(lambda: [serve(r, ssat) for r in workload.cycle(0)])
    setup_s = gen_s + warmup_s

    timed: list[Outcome] = []
    ref_t: list[int] = []
    ref_ns: list[int] = []
    busy_ns = 0
    c = 0
    while busy_ns < seconds * 1e9 or len(timed) <= TAIL_BEYOND:
        for r in workload.cycle(c):
            ref_t.append(time.perf_counter_ns())
            ref_ns.append(reference_ns())
            o = serve(r, ssat)
            timed.append(o)
            busy_ns += o.wall_ns
        c += 1
    ref_t.append(time.perf_counter_ns())
    ref_ns.append(reference_ns())

    speed = speed_factors(ref_t, ref_ns)
    lat_ms = [o.wall_ns * f / 1e6 for o, f in zip(timed, speed)]
    cpu_ms = [o.cpu_ns * f / 1e6 for o, f in zip(timed, speed)]
    tail_ms, tail_pct = tail(lat_ms)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Throughput and CPU cost are medians over whole cycles, which keeps a
    # burst of load elsewhere on the machine from moving them.
    n = workload.cycle_len
    cycles = [range(i, min(i + n, len(timed))) for i in range(0, len(timed), n)]
    metrics = {
        "ops_per_s": statistics.median(
            len(cyc) / (sum(lat_ms[i] for i in cyc) / 1e3) for cyc in cycles),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "cpu_ms_per_op": statistics.median(mean(cpu_ms[i] for i in cyc) for cyc in cycles),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_ms = [o.wall_ns / 1e6 for o in timed]
    return {
        "metrics": metrics,
        "outcomes": warmup + timed,
        "digest": digest(timed[:n]),
        "extra": {
            "latency_tail_percentile": tail_pct,
            "latency_samples": len(timed),
            "cycles": c,
            "raw": {
                "ops_per_s": len(timed) / (busy_ns / 1e9),
                "latency_p50_ms": statistics.median(raw_ms),
                "latency_tail_ms": tail(raw_ms)[0],
                "cpu_ms_per_op": sum(o.cpu_ns for o in timed) / len(timed) / 1e6,
            },
            "speed_factor_median": statistics.median(speed),
            "reference_ns": ref_ns,
            "setup_rounds": setup_rounds,
            "setup_gen_s": gen_s,
            "warmup_s": warmup_s,
        },
    }


def run_traced(workload, ssat, seconds: float) -> dict:
    """Setup once with spans, then pairs of cycles: each cycle once
    untraced and once traced, so the difference is the tracing cost.
    Span times are scaled like the end-to-end times: by the reference
    samples around their request, set-up round or probe phase."""
    from tracing import Tracer, instrument

    tracer = Tracer()
    tracer.rid = "setup"
    with instrument(tracer, ssat), tracer.span("setup"):
        scaled, raw, _ = scaled_s(lambda: workload.setup_round(tracer))
    scale = {"setup": scaled / raw}
    warmup = [serve(r, ssat) for r in workload.cycle(0)]

    sequence: list[Outcome] = []
    ref_t: list[int] = []
    ref_ns: list[int] = []
    busy_ns = 0
    c = 0
    while busy_ns < seconds * 1e9 or c < 1:
        for tr in (None, tracer):
            for r in workload.cycle(c):
                ref_t.append(time.perf_counter_ns())
                ref_ns.append(reference_ns())
                o = serve(r, ssat, tr)
                sequence.append(o)
                busy_ns += o.wall_ns
        c += 1
    ref_t.append(time.perf_counter_ns())
    ref_ns.append(reference_ns())
    speed = speed_factors(ref_t, ref_ns)
    plain = [(o, f) for o, f in zip(sequence, speed) if not o.traced]
    traced = [(o, f) for o, f in zip(sequence, speed) if o.traced]
    scale.update((o.rid, f) for o, f in traced)
    for (p, _), (t, _) in zip(plain, traced):
        if p.counters != t.counters and t.error is None:
            t.error = f"counters differ under tracing: {p.counters} vs {t.counters}"

    tracer.rid = "probe"
    scaled, raw, probes = scaled_s(lambda: probe_layers(workload, ssat, tracer))
    scale["probe"] = scaled / raw
    for key in ("model.evaluate_ns", "board.insert_ns", "board.insert_pair_ns"):
        probes[key] *= scale["probe"]
    layers = layer_metrics(tracer.spans, probes, scale)
    plain_ms = mean(o.wall_ns * f for o, f in plain) / 1e6
    layers["trace.overhead_ms"] = mean(o.wall_ns * f for o, f in traced) / 1e6 - plain_ms
    layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_ms"] / plain_ms
    return {
        "metrics": {k: layers[k] for k in PER_LAYER},
        "outcomes": warmup + sequence,
        "digest": digest([o for o, _ in plain[:workload.cycle_len]]),
        "extra": {"layers": layers, "cycles": c, "scale": scale, "spans": tracer.spans},
    }


def probe_layers(workload, ssat, tracer) -> dict:
    """Per-layer costs measured from outside on the workload's own
    instances: evaluate on a fixed sample of assignments, rows replayed
    into a fresh pair table, and the computed table size. Where the
    workload's requests read no files, its instances also go through one
    write and parse, so the formats figures exist for every workload."""
    evaluate = ssat.evaluate
    eval_ns, insert_ns, pair_ns = {}, [], []
    with tracer.span("probe"):
        for i, inst in enumerate(workload.instances()):
            if not workload.reads_files:
                path = workload.workdir / f"probe-{i}.rows"
                with tracer.span("formats.write_rows_file", rows=inst.m):
                    ssat.write_rows_file(path, inst)
                with tracer.span("formats.parse_rows_file", rows=inst.m):
                    ssat.parse_rows_file(path)
            n = inst.n
            sample = [random.Random(i).randrange(1 << n) for _ in range(EVALUATE_SAMPLE)]
            evaluate(inst, 0)  # index built before timing
            t0 = time.perf_counter_ns()
            for x in sample:
                evaluate(inst, x)
            eval_ns[f"{i}:m={inst.m}"] = (time.perf_counter_ns() - t0) / len(sample)
            rows = inst.rows[:INSERT_SAMPLE].tolist()
            for insert, into in ((ssat.PairTable.insert, insert_ns),
                                 (ssat.PairTable.insert_pair, pair_ns)):
                table = ssat.PairTable(n)
                t0 = time.perf_counter_ns()
                for k in rows:
                    insert(table, k)
                into.append((time.perf_counter_ns() - t0) / len(rows))
    return {
        "model.evaluate_ns": mean(eval_ns.values()),
        "model.evaluate_ns_by_instance": eval_ns,
        "board.insert_ns": mean(insert_ns),
        "board.insert_pair_ns": mean(pair_ns),
        "board.table_bytes": ssat.PairTable(workload.n).cells.nbytes,
    }


def layer_metrics(spans: list[dict], probes: dict, scale: dict) -> dict:
    """Per-layer figures from the spans; scale maps a span's request id
    to the factor its times are scaled by."""
    from tracing import duration_ns, self_times_ns

    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    self_ns = self_times_ns(spans)

    def dur(s):
        return duration_ns(s) * scale[s["rid"]]

    def mean_ms(name):
        return mean(dur(s) for s in by_name[name]) / 1e6

    def rows_per_s(name):
        return sum(s["rows"] for s in by_name[name]) / (
            sum(dur(s) for s in by_name[name]) / 1e9)

    out = {
        "formats.parse_ms": mean_ms("formats.parse_rows_file"),
        "formats.parse_rows_per_s": rows_per_s("formats.parse_rows_file"),
        "formats.write_ms": mean_ms("formats.write_rows_file"),
        "formats.write_rows_per_s": rows_per_s("formats.write_rows_file"),
        "generators.build_ms": mean_ms("generators.build_with_solutions"),
        "model.index_build_ms": mean_ms("model.index_build"),
    }
    if by_name["generators.duplicate_and_shuffle"]:
        out["generators.shuffle_ms"] = mean_ms("generators.duplicate_and_shuffle")
    if by_name["board.dump"]:
        out["board.dump_ms"] = mean_ms("board.dump")
    for root, metric in (("cli.main", "cli.self_ms"), ("bench.run_bench", "bench.self_ms")):
        requests = [s for s in by_name[root] if s.get("command") == "solve"]
        if requests:
            out[metric] = mean(self_ns[s["id"]] * scale[s["rid"]] for s in requests) / 1e6

    solver_spans = [s for s in spans if s["name"].startswith("solvers.")]
    per_request = defaultdict(lambda: [0, 0, 0])  # ns, iterations, evaluations
    for s in solver_spans:
        acc = per_request[s["rid"]]
        acc[0] += dur(s)
        acc[1] += s["iterations"]
        acc[2] += s["evaluations"]
    out["solvers.ms"] = mean(a[0] for a in per_request.values()) / 1e6
    out["solvers.iterations"] = mean(a[1] for a in per_request.values())
    out["model.evaluations"] = mean(a[2] for a in per_request.values())
    total_iterations = sum(a[1] for a in per_request.values())
    out["solvers.ns_per_iter"] = sum(a[0] for a in per_request.values()) / max(total_iterations, 1)
    for alg in sorted({s["name"][len("solvers."):] for s in solver_spans}):
        group = by_name[f"solvers.{alg}"]
        ns = sum(dur(s) for s in group)
        iterations = sum(s["iterations"] for s in group)
        out[f"solvers.{alg}.ms"] = ns / len(group) / 1e6
        out[f"solvers.{alg}.iterations"] = iterations / len(group)
        out[f"solvers.{alg}.evaluations"] = mean(s["evaluations"] for s in group)
        if iterations:
            out[f"solvers.{alg}.ns_per_iter"] = ns / iterations
        if alg == "inner-witness":
            out["solvers.inner-witness.pair_yield"] = (
                sum(s["pair_insertions"] for s in group) / iterations)
    out.update(probes)
    return out


def run_one(args) -> int:
    ssat = import_ssat()
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ssat, workdir, args.seed, args.smoke)
        run = run_traced if args.trace else run_untraced
        result = run(workload, ssat, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = result["outcomes"]
    failures = [o for o in outcomes if o.error is not None]
    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
        "attempted": len(outcomes),
        "failed": len(failures),
        "fail_frac": len(failures) / len(outcomes),
        "counter_digest": result["digest"],
        "requests": [o.__dict__ for o in outcomes],
        **result["extra"],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"fail_frac={record['fail_frac']:g} digest={record['counter_digest']}")
    shown = record.get("layers", result["metrics"])
    for name, value in shown.items():
        if isinstance(value, (int, float)):
            print(f"  {name:34s} {value:14.6g} {units.get(name) or unit_of(name)}")
    if "latency_samples" in record:
        print(f"  latency_tail_ms is p{record['latency_tail_percentile']:.1f} "
              f"of {record['latency_samples']} requests")
    for o in failures[:5]:
        print(f"FAILED request {o.rid} {o.label}: {o.error}", file=sys.stderr)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(f"{'workload':16s} {'metric':26s} {'value':>14s} unit")
    for key, entry in total["metrics"].items():
        name, metric = key.split(".", 1)
        print(f"{name:16s} {metric:26s} {entry['value']:14.6g} {entry['unit']}")
    print(f"fail_frac {total['failed'] / total['attempted']:g} "
          f"({total['failed']} of {total['attempted']} requests)")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time to measure; runs end on whole cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for a quick check of the harness")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
