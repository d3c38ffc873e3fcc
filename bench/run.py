"""The quonlib benchmark: three closed-loop workloads and a traced run.

    python3 bench/run.py --workload gram --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 42
    python3 bench/run.py --compare OLD.json NEW.json

One run measures one workload (gram, words or cli). With --trace 0 it
reports the end-to-end metrics; with --trace 1 the per-layer metrics of a
traced run. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric by name and unit, and a results file with the environment block
goes to bench/results/. --all runs every workload untraced and traced and
writes one combined file there; --compare prints new/old ratios of two
result files.

quonlib is imported from src/ of the checkout holding this file; nothing
is installed. README.md in this directory says what each workload is for.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import BLAS_THREADS, MIN_PASSES, RESULTS, ROOT, child_env

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gram", "words", "cli")
SETUP_REPEATS = 9
RUN_LIMIT_S = 170
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
PROBE_REPEATS = 3

E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def cpu_mean(values, cpus):
    """Mean over the CPUs that ran the passes of the mean on each, so that
    every CPU weighs the same whatever its number of passes."""
    by_cpu = {}
    for value, cpu in zip(values, cpus):
        by_cpu.setdefault(cpu, []).append(value)
    return statistics.mean(statistics.mean(v) for v in by_cpu.values())


def tail_percentile(ops_per_pass):
    """The highest ladder percentile with at least ten samples beyond it in
    the fewest passes a run makes, so that it is the same in every run."""
    n = ops_per_pass * MIN_PASSES
    return next(p for p in TAIL_LADDER if n * (100 - p) / 100
                >= TAIL_MIN_BEYOND)


def probe_loop_s():
    """A fixed pure-Python loop, to make a run next to a slow neighbour
    visible. Reported only, never used to normalise results."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def environment(seed):
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "commit": git_commit(), "seed": seed,
            "probe_loop_s": probe_loop_s()}


def _run_child(argv, deadline, cpu=None):
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(argv, env=child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.time()),
                          check=False, preexec_fn=pin)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:4])} ... exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_times(workload, seed, deadline, repeats, first=0):
    """Fresh interpreter up to the first timed operation, `repeats` times,
    set-up number i pinned to the i-th CPU in turn counting from `first`.
    For cli that is `import quonlib.cli`, which every call pays."""
    if workload == "cli":
        argv = [sys.executable, "-c", "import quonlib.cli"]
    else:
        argv = [sys.executable, str(HERE / "worker.py"), "--workload",
                workload, "--seed", str(seed), "--setup-only"]
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    for i in range(first, first + repeats):
        start = time.perf_counter()
        _run_child(argv, deadline, cpus[i % len(cpus)])
        times.append(time.perf_counter() - start)
    return times


def measure(workload, seed, seconds, trace):
    """One run of one workload: a results dict."""
    if not (ROOT / "src" / "quonlib" / "__init__.py").is_file():
        raise BenchError(f"no quonlib sources under {ROOT / 'src'}")
    deadline = time.time() + RUN_LIMIT_S
    env = environment(seed)
    # half of the set-ups before the passes and half after, so that their
    # median covers the run rather than one moment of a noisy host
    after = 0 if trace else SETUP_REPEATS // 2
    setups = [] if trace else setup_times(workload, seed, deadline,
                                          SETUP_REPEATS - after)
    out = _run_child([sys.executable, str(HERE / "worker.py"), "--workload",
                      workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)], deadline)
    setups += setup_times(workload, seed, deadline, after, len(setups))
    w = json.loads(out.splitlines()[-1])
    result = {"workload": workload, "seed": seed, "trace": trace, "env": env,
              "ops_per_pass": w["ops"], "passes": len(w["walls"]),
              "attempted": w["attempted"], "failed": w["failed"],
              "failed_ratio": w["failed"] / w["attempted"],
              "failures": w["failures"],
              "known_defects": w["known_defects"], "pass_walls": w["walls"],
              "pass_cpus": w["cpus"]}
    if trace:
        result["traced_pass_walls"] = w["traced_walls"]
        result["spans_file"] = w["spans_file"]
        result["metrics"] = w["layers"]
    else:
        lat, n = w["latencies"], w["ops"]
        tail = tail_percentile(n)
        result["op_tail"] = {"percentile": tail, "samples": len(lat),
                             "beyond": len(lat) * (100 - tail) / 100}
        by_op = zip(*(lat[i:i + n] for i in range(0, len(lat), n)))
        # means over the run's passes: the host switches between a fast
        # and a slow speed for seconds to minutes, and a mean follows the
        # share of slow time where a median jumps between the two; each
        # CPU weighs the same, as one can be slower than another
        values = {"wall_s": cpu_mean(w["walls"], w["cpus"]),
                  "op_p50_s": statistics.median(cpu_mean(op, w["cpus"])
                                                for op in by_op),
                  "op_tail_s": percentile(lat, tail),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": w["peak_rss_mb"]}
        result["setup_runs_s"] = setups
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in E2E_UNITS.items()}
    return result


def print_result(r):
    e = r["env"]
    traced = len(r.get("traced_pass_walls", ()))
    print(f"== {r['workload']} seed {r['seed']} trace {r['trace']}: "
          f"{r['ops_per_pass']} operations per pass, {r['passes']} untraced "
          f"and {traced} traced passes, "
          f"{r['attempted']} attempted, {r['failed']} failed "
          f"(failed_ratio {r['failed_ratio']:.6g})")
    print(f"   env: python {e['python']}, numpy {e['numpy']}, nproc "
          f"{e['nproc']}, BLAS threads {e['blas_threads']}, commit "
          f"{e['commit']}, probe loop {e['probe_loop_s']:.4f} s")
    if "op_tail" in r:
        t = r["op_tail"]
        print(f"   op_tail_s is p{t['percentile']:g} of {t['samples']} "
              f"operation latencies ({t['beyond']:g} beyond it)")
    else:
        m = r["metrics"]
        print(f"   tracing overhead: {m['trace.overhead_s']['value']:.4f} s per "
              f"pass (median of adjacent traced minus untraced passes; "
              f"their spread {m['trace.overhead_spread_s']['value']:.4f} s); "
              f"spans in {r['spans_file']}")
    for name, m in r["metrics"].items():
        print(f"   {name:48s} {m['value']:.6g} {m['unit']}")
    for f in r["failures"]:
        print(f"   FAILED {f['op']}: {f['detail']}")
    probe = r["known_defects"]
    if probe:
        bad = [d for d in probe if not d["ok"]]
        print(f"   known-defect probe (untimed, not counted above): "
              f"{len(bad)} of {len(probe)} operations return wrong values")
        for d in bad:
            print(f"   KNOWN DEFECT {d['op']}: {d['detail']}")


def contract_line(r):
    return json.dumps({"correct": r["failed"] == 0,
                       "attempted": r["attempted"], "failed": r["failed"],
                       "metrics": r["metrics"]})


def save(obj, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1))
    return path


def _runs_by_key(path):
    data = json.loads(Path(path).read_text())
    runs = data["runs"] if "runs" in data else [data]
    return {(r["workload"], r["trace"]): r for r in runs}


def compare(old_path, new_path):
    """Print new/old for every metric both files hold, with the base."""
    old, new = _runs_by_key(old_path), _runs_by_key(new_path)
    for key in [k for k in new if k in old]:
        o, n = old[key], new[key]
        print(f"== {key[0]} trace {key[1]}: failed {o['failed']}/"
              f"{o['attempted']} -> {n['failed']}/{n['attempted']}")
        for name, m in n["metrics"].items():
            if name not in o["metrics"]:
                continue
            base, value = o["metrics"][name]["value"], m["value"]
            ratio = f"{value / base:.3f}" if base else "n/a"
            print(f"   {name:48s} {ratio:>7s} x  ({value:.6g} vs base "
                  f"{base:.6g} {m['unit']})")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true",
                      help="every workload, untraced and traced")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=42)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    try:
        if args.all:
            runs = []
            for workload in WORKLOADS:
                for trace in (0, 1):
                    runs.append(measure(workload, args.seed, args.seconds,
                                        trace))
                    print_result(runs[-1])
            path = save({"runs": runs}, RESULTS / f"all-seed{args.seed}.json")
            print(f"results: {path}")
            return 0
        r = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    save(r, RESULTS / f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json")
    print_result(r)
    print(contract_line(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
