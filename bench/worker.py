"""One measured run of one workload, in a fresh interpreter started by run.py.

    python3 bench/worker.py --workload gram --seed 1 --seconds 42 --trace 0
    python3 bench/worker.py --workload gram --seed 1 --setup-only

The worker imports quonlib from src/ of this checkout, builds the
workload's operations from the seed, warms up, then runs passes over the
operation list, one operation at a time (a closed loop with one client),
until the next pass would end after --seconds and at least MIN_PASSES
have run. Each pair of passes is pinned to the next CPU the process may
use, in turn: on a shared host one CPU can run slower than another for
minutes, and a run that the scheduler left on one of them would measure
that CPU. With --trace 1 it alternates untraced and traced passes
(U T T U U T ...); the median difference within adjacent (U, T) pairs,
which share a CPU, is the tracing overhead. After the passes, `words`
runs the known-defect probe once, untimed and outside the
attempted/failed counts, and reports each outcome. It prints one JSON
object as the last line of stdout; --setup-only stops after the warm-up.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

from common import MIN_PASSES, RESULTS, ROOT, child_env

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)

OP_TIMEOUT_S = 60
IMPORT_PROBES = 3
MAX_FAILURES_KEPT = 20


class OpTimeout(Exception):
    """An operation ran longer than OP_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout


def run_op(op):
    """(seconds, ok, detail); an operation that raises or times out fails."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        ok, detail = op.fn()
    except OpTimeout:
        ok, detail = False, f"timed out after {OP_TIMEOUT_S} s"
    except Exception as exc:  # noqa: BLE001  (recorded as a failed operation)
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, bool(ok), detail


def run_pass(ops, tracer=None):
    latencies, failures = [], []
    start = time.perf_counter()
    if tracer is None:
        for op in ops:
            dt, ok, detail = run_op(op)
            latencies.append(dt)
            if not ok:
                failures.append({"op": op.name, "detail": detail})
    else:
        with tracer.installed():
            for i, op in enumerate(ops):
                with tracer.operation(i):
                    dt, ok, detail = run_op(op)
                latencies.append(dt)
                if not ok:
                    failures.append({"op": op.name, "detail": detail})
    return time.perf_counter() - start, latencies, failures


def build(workload, seed, in_process):
    """The operation list, after the warm-up the workload needs."""
    if workload == "gram":
        ops = workloads.gram_ops(seed)
        workloads.gram_warm_up()
    elif workload == "words":
        ops = workloads.words_ops(seed)
        workloads.words_warm_up()
    elif in_process:
        ops = workloads.cli_ops_in_process(seed)
    else:
        ops = workloads.cli_ops(seed)
    return ops


def cli_import_s():
    """Median time of `import quonlib.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import quonlib.cli; "
            "print(time.perf_counter() - t)")
    times = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                  env=child_env(),
                                  capture_output=True, text=True).stdout)
             for _ in range(IMPORT_PROBES)]
    return statistics.median(times)


def overhead(walls, traced_walls):
    """(median, max - min) of traced minus untraced time over the adjacent
    pass pairs (U0, T1), (T2, U3), (U4, T5), ...; the overhead is resolved
    only where it is larger than that spread."""
    diffs = [t - u for u, t in zip(walls, traced_walls)]
    return statistics.median(diffs), max(diffs) - min(diffs)


def write_spans(workload, seed, tracers):
    """All spans of the run, written once: one list per traced pass of
    [name index, start, end, parent span index, operation index]."""
    names = {}
    passes = [[[names.setdefault(name, len(names)), start, end, parent, op]
               for name, start, end, parent, op in t.spans] for t in tracers]
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"trace-{workload}.json.gz"
    with gzip.open(path, "wt", compresslevel=1) as f:
        json.dump({"workload": workload, "seed": seed, "names": list(names),
                   "passes": passes}, f)
    return path


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("gram", "words", "cli"),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)

    traced = bool(args.trace)
    ops = build(args.workload, args.seed, in_process=traced)
    if args.setup_only:
        return
    if traced:
        from tracer import LAYER_METRICS, Tracer

    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + args.seconds
    walls, pass_cpus, traced_walls, latencies, tracers = [], [], [], [], []
    attempted = failed = 0
    failures = {}       # op name -> detail of its first failure
    for n_pass in itertools.count():
        # untraced, traced, traced, untraced, ...: drift cancels in the overhead
        tracer = Tracer() if traced and n_pass % 4 in (1, 2) else None
        cpu = cpus[n_pass // 2 % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        wall, lats, fails = run_pass(ops, tracer)
        attempted += len(ops)
        failed += len(fails)
        for f in fails:
            if len(failures) < MAX_FAILURES_KEPT:
                failures.setdefault(f["op"], f["detail"])
        if tracer is None:
            walls.append(wall)
            pass_cpus.append(cpu)
            latencies += lats
        else:
            traced_walls.append(wall)
            tracers.append(tracer)
        all_walls = walls + traced_walls
        next_end = time.perf_counter() + statistics.median(all_walls)
        if next_end > deadline and len(all_walls) >= MIN_PASSES:
            break

    probe = workloads.overflow_probe_ops(args.seed) \
        if args.workload == "words" else []
    known_defects = []
    for op in probe:
        _, ok, detail = run_op(op)
        known_defects.append({"op": op.name, "ok": ok, "detail": detail})

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not traced \
        else resource.RUSAGE_SELF
    result = {"ops": len(ops), "walls": walls, "cpus": pass_cpus,
              "latencies": latencies,
              "attempted": attempted, "failed": failed,
              "failures": [{"op": op, "detail": detail}
                           for op, detail in failures.items()],
              "known_defects": known_defects,
              "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    if traced:
        per_pass = [t.layer_metrics() for t in tracers]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in per_pass[0]}
        values["cli.import_s"] = (cli_import_s() if args.workload == "cli"
                                  else 0.0)
        values["trace.wall_s"] = statistics.mean(traced_walls)
        values["trace.overhead_s"], values["trace.overhead_spread_s"] = \
            overhead(walls, traced_walls)
        result["traced_walls"] = traced_walls
        result["layers"] = {name: {"value": values[name], "unit": unit}
                            for name, unit in LAYER_METRICS}
        result["spans_file"] = str(write_spans(args.workload, args.seed,
                                               tracers).relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
