#!/usr/bin/env python3
"""Benchmark of grasym on one workload: a closed loop in one thread.

    python3 perfbench/run.py --workload {hunt,decide,refute} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.  Each
op starts after the previous one returns, and every output is checked against
its known answer (workloads.py).  The last line of stdout is the result JSON;
the line before it records the seed, source revision, Python and CPU count.
Run records and span files go to ``perfbench/out/``.

--trace 0 repeats cycles of a fresh set-up and one pass over the ops, at
least SETUP_RUNS times and for as many more as fit in --seconds, and reports
the end-to-end metrics: setup_s is the median set-up; wall_s and op_p50_ms
take each op at its median over the passes.  Every time is scaled by the
machine's speed while it ran, sampled through the run (speed.py).
--trace 1 runs one plain pass, then one traced set-up and pass, then the
microbenchmarks, and reports the per-layer metrics with the tracing overhead.
The exit code is 0 only when every op gave its known answer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedLog

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 3
MIN_SETUP_S = 0.2  # a set-up sample repeats a cheap set-up until this much time has passed

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("decided_ratio", "1"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("hunt", "decide", "refute"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; fail when it has no grasym."""
    src = ROOT / "src"
    if not (src / "grasym" / "__init__.py").is_file():
        raise SystemExit(f"error: no grasym package under {src}")
    sys.path.insert(0, str(src))


def source_revision() -> dict:
    """The git commit when there is one, and a digest of the library sources."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "grasym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


class Checker:
    """Compares every op's output with its known answer, its pinned bytes and
    its output in earlier passes; counts attempts, failures and decided ops."""

    def __init__(self, workloads, workload: str, seed: int):
        self.expected_bytes = workloads.pins(workload, seed)
        self.workloads = workloads
        self.records = {}
        self.attempted = 0
        self.failed = 0
        self.decided = {}  # op name -> whether it got a definite verdict

    def check(self, item, result, error):
        self.attempted += 1
        problem = None
        if error is not None:
            problem = "".join(traceback.format_exception(error)).rstrip()
        else:
            try:
                outcome = item.check(result)
            except self.workloads.Failure as exc:
                problem = str(exc)
            except Exception as exc:  # an output too malformed to check
                problem = "".join(traceback.format_exception(exc)).rstrip()
            else:
                self.decided[item.name] = outcome.decided
                digest = self.workloads.sha256(outcome.record)
                pinned = self.expected_bytes.get(item.name)
                earlier = self.records.setdefault(item.name, digest)
                if pinned is not None and digest != pinned:
                    problem = f"output bytes {digest} differ from the pinned {pinned}"
                elif digest != earlier:
                    problem = "output bytes differ from an earlier pass"
        if problem is not None:
            self.failed += 1
            print(f"FAIL {item.name}: {problem}", file=sys.stderr)


def run_pass(items, clock=time.perf_counter, tracer=None, pass_index=0):
    """One closed-loop pass; returns (wall seconds, [(item, latency, result,
    error, (start, end))]), all on ``clock``."""
    ops = []
    start = clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op = f"{pass_index}:{i}"
            tracer.active = True
        t0 = clock()
        try:
            result, error = item.run(), None
        except Exception as exc:  # a crash is a failed op, reported by the checker
            result, error = None, exc
        t1 = clock()
        if tracer is not None:
            tracer.active = False
        ops.append((item, t1 - t0, result, error, (t0, t1)))
    return clock() - start, ops


def check_pass(checker: Checker, ops):
    for item, _, result, error, _ in ops:
        checker.check(item, result, error)


def timed_setup(setup, seed: int, clock=time.perf_counter):
    """Set up once, and again until MIN_SETUP_S has passed, so that a set-up
    of a millisecond is not read off the timer's noise.  Returns the ops of
    the last set-up, the mean time of one and the interval they covered."""
    count, start = 0, clock()
    while True:
        items = setup(seed)
        count += 1
        end = clock()
        if end - start >= MIN_SETUP_S:
            return items, (end - start) / count, (start, end)


def measure(setup, seed: int, seconds: float, checker: Checker):
    """Cycles of a fresh set-up and one pass: SETUP_RUNS of them, then more
    while the next one, as long as the last, still ends within ``seconds``.

    Every set-up and op time is scaled by the machine's speed while it ran
    (speed.py), so that a slow stretch of a shared machine does not move the
    figures.  setup_s is the median scaled set-up; each op is taken at its
    median scaled time over the passes, and wall_s is their sum.
    """
    setups, walls, latencies = [], [], []
    raw_setups, raw_latencies = [], []
    start = time.perf_counter()
    cycle = 0.0
    with SpeedLog() as speed:
        while len(setups) < SETUP_RUNS or time.perf_counter() - start + cycle <= seconds:
            t0 = time.perf_counter()
            items, setup_time, setup_span = timed_setup(setup, seed, speed.clock)
            wall, ops = run_pass(items, speed.clock)
            setups.append(setup_time * speed.scale(*setup_span))
            raw_setups.append(setup_time)
            walls.append(wall)
            latencies.append([lat * speed.scale(*span) for _, lat, _, _, span in ops])
            raw_latencies.append([lat for _, lat, _, _, _ in ops])
            check_pass(checker, ops)
            cycle = time.perf_counter() - t0
    per_op = [statistics.median(op) for op in zip(*latencies)]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "decided_ratio": sum(checker.decided.values()) / len(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {"setup_runs_s": setups, "raw_setup_runs_s": raw_setups,
              "pass_walls_s": walls,
              "op_latencies_ms": [[x * 1e3 for x in p] for p in latencies],
              "raw_op_latencies_ms": [[x * 1e3 for x in p] for p in raw_latencies],
              "speed_samples": list(zip(speed.when, speed.loop_s))}
    return {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}, record


def measure_traced(setup, seed: int, checker: Checker, span_path: Path):
    import micro
    import tracing

    items = setup(seed)
    plain_wall, ops = run_pass(items)
    check_pass(checker, ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op, tracer.active = "setup", True
        items = setup(seed)
        tracer.active = False
        traced_wall, ops = run_pass(items, tracer=tracer, pass_index=1)
    finally:
        tracer.active = False
        tracer.uninstall()
    check_pass(checker, ops)
    values = tracer.layer_metrics()
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    values.update(micro.run_micro())
    tracer.dump(span_path)
    units = {n: u for n, u, _ in tracing.METRICS + micro.METRICS}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    return metrics, {"plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
                     "spans": len(tracer.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    setup = workloads.WORKLOADS[args.workload]
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, **source_revision(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "threads": 1, "loop": "closed"}
    checker = Checker(workloads, args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, record = measure_traced(setup, args.seed, checker,
                                             OUT_DIR / f"spans-{stem}.json")
        else:
            metrics, record = measure(setup, args.seed, args.seconds, checker)
    except workloads.Failure as exc:
        print(f"FAIL setup: {exc}", file=sys.stderr)
        return 1
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "record": record}, fh, indent=1)
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
