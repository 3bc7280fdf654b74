"""scpir benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or `all` to run each in turn. Each workload runs
in its own process (workloads.py) that imports scpir from this checkout's
src/; load comes from one thread in a closed loop with one client. The
seed makes the file library and the base vectors; the same seed gives the
same inputs. Every op checks its exact outputs against the protocol and
against perfbench/reference.json.

`--trace 0` prints the end-to-end metrics (set-up time, median op time,
peak memory); `--trace 1` prints the per-layer metrics of a traced run
and the tracing overhead. Human-readable lines come first; the last line
is one JSON object {correct, attempted, failed, metrics}. Exit status is
0 when that line was printed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from math import ceil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")

WORKLOADS = ("retrieve_bulk", "audit_battery", "design_build", "oracle_certify")
OP_NAMES = {  # what one timed op is called on each workload
    "retrieve_bulk": "retrieve",
    "audit_battery": "audit",
    "design_build": "design",
    "oracle_certify": "certify",
}
SETUP_RUNS = 5  # set-up-only processes per run, besides the measured one
BUDGET_S = 170  # the whole command must finish within 180 s


class BenchError(Exception):
    pass


def tail_percentile(samples, beyond: int = 10):
    """The highest whole percentile with at least `beyond` samples above
    its nearest-rank value: (percentile, value), or None when there are
    too few samples for any percentile from 50 up."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, ordered[rank - 1]
    return None


def environment() -> dict:
    """Interpreter, CPU count and per-core cache sizes (from `getconf`)."""
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
        for row in conf.stdout.splitlines():
            key, _, value = row.partition(" ")
            if key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
                if value.strip().isdigit():
                    caches["L" + key[5]] = f"{int(value) // 1024} KiB"
    except (OSError, subprocess.TimeoutExpired):
        pass  # cache sizes are informational only
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches_per_core": caches,
        "load": "closed loop, 1 client, 1 thread",
    }


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
          deadline: float) -> dict:
    """Run one workload process and return the JSON it printed."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the workload started")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within the time budget") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload} process exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def line(name: str, value: float, unit: str, detail: str = "") -> str:
    return f"  {name:<28} {value:>14.6g} {unit:<6} {detail}".rstrip()


def end_to_end(workload: str, setups: list, main: dict) -> tuple[list, dict]:
    """Report lines and metrics. Times are rescaled to the reference
    machine speed (see workloads.SpeedMonitor); wall times are shown too."""
    run = main["plain"]
    norm, wall = run["norm"], run["samples"]
    if not norm:
        raise BenchError(f"{workload}: every op raised; first errors: {run['errors']}")
    op = OP_NAMES[workload]
    n = len(norm)
    p50 = statistics.median(norm)
    lines = []
    if workload == "retrieve_bulk":
        lines.append(line(f"{op}_p50_ms", 1000 * p50, "ms", f"n={n}"))
        tail = tail_percentile(norm)
        if tail:
            lines.append(line(f"{op}_p{tail[0]}_ms", 1000 * tail[1], "ms", f"n={n}"))
        else:
            lines.append(f"  no percentile above p50 has 10 samples beyond it (n={n})")
        lines.append(line(f"{op}_mb_s", run["decoded_bytes"] / sum(norm) / 1e6, "MB/s", f"n={n}"))
    else:
        lines.append(line(f"{op}_s", p50, "s", f"median of n={n} passes"))
        for part, values in sorted(run["parts"].items()):
            lines.append(line(f"  {part}_s", statistics.median(values), "s", f"n={len(values)}"))
    setup_s = statistics.median(s["setup_norm_s"] for s in setups)
    peak_mib = main["peak_rss_kib"] / 1024
    lines.append(line("setup_s", setup_s, "s", f"median of n={len(setups)} starts"))
    lines.append(line("peak_rss_mib", peak_mib, "MiB", "n=1"))
    lines.append(f"  fail_ratio {run['failed']}/{run['attempted']} ops")
    probe_ms, probes, ref_ms = main["probe_ms"]
    lines.append(f"  wall time: {op} p50 {1000 * statistics.median(wall):.6g} ms, set-up "
                 f"{statistics.median(s['setup_s'] for s in setups):.6g} s; speed probe "
                 f"median {probe_ms:.4g} ms over {probes} probes (reference {ref_ms:.4g} ms)")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_ms": {"value": 1000 * p50, "unit": "ms"},
        "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
    }
    return lines, metrics


def per_layer(main: dict) -> tuple[list, dict]:
    plain, traced = main["plain"], main["traced"]
    metrics = main["layer_metrics"]
    lines = [
        f"  traced {traced['attempted']} ops after the same {plain['attempted']} untraced; "
        f"{main['records']} span records kept",
        line("untraced total", sum(plain["norm"]), "s", "speed-normalized"),
        line("traced total", sum(traced["norm"]), "s", "speed-normalized"),
        "  spans (calls, total s, self s), by self time:",
    ]
    table = sorted(main["span_table"].items(), key=lambda kv: -kv[1][2])
    for name, (calls, total, self_s) in table:
        lines.append(f"    {name:<34} {calls:>10} {total:>12.6f} {self_s:>12.6f}")
    lines.append("  per-layer metrics:")
    for name, metric in metrics.items():
        lines.append(line(name, metric["value"], metric["unit"]))
    return lines, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS):
            setups.append(spawn(workload, seed, seconds, trace, True, deadline))
    main = spawn(workload, seed, seconds, trace, False, deadline)
    setups.append(main)
    header = [f"workload {workload} seed={seed} seconds={seconds} trace={trace}",
              "  environment " + json.dumps(environment()),
              "  instance " + json.dumps(main["env"])]
    lines, metrics = per_layer(main) if trace else end_to_end(workload, setups, main)
    runs = [main["plain"]] + ([main["traced"]] if trace else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    lines += [f"  error: {e}" for e in errors]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return header + lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scpir benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    results = {}
    try:
        for name in names:
            lines, results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                                deadline)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
