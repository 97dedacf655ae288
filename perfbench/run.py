"""Benchmark of the alttab engine: four exact-checked workloads and a traced run.

    python3 perfbench/run.py --workload convert --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the library is imported from its
``src/``.  Workloads (see ``workloads.py`` and the ``why`` of each in
``BENCHMARK.json``): ``convert``, ``count``, ``asep`` and ``verify``.

With ``--trace 0`` the driver samples set-up time in a few set-up-only worker
processes, then runs rounds, each in a fresh single-threaded worker on fresh
seeded inputs, until starting another round would pass ``--seconds``.  It
prints every end-to-end metric of ``BENCHMARK.json``, each time scaled to a
fixed machine speed by the worker's reference job (see ``worker.py``; the
times as measured are printed on the ``raw`` line):

* ``setup_s``: import plus input generation, median over every worker;
* ``wall_s``: sum of the timed ops of a round, median over rounds;
* ``ops_per_s``: ops over the summed op time; ``op_ms_p50``: median op time;
* ``peak_rss_mb``: the largest peak resident memory of a worker.

``failed_frac`` and ``op_ms_tail`` (the highest percentile with ten samples
beyond it) are printed on their own lines: the first is 0 on a correct
program, and the second exists only with eleven or more ops.

With ``--trace 1`` it runs round 0 once untraced and twice traced (see
``tracer.py``), checks that every count of the two traced runs agrees, writes
the spans of the first to ``perfbench/out/`` and prints the per-layer metrics
of ``BENCHMARK.json``; ``trace.overhead_frac`` is traced over untraced op time
minus 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any worker that crashes, or a run
that exceeds its time budget, ends the benchmark with exit code 1 and no
result.  ``--tiny`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

BUDGET_S = 170  # every run ends well inside the 180 s a run may take
SETUP_SAMPLES = 9
COUNT_SUFFIXES = (".calls", ".raised", ".yielded", ".new")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time budget of {BUDGET_S} s spent")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set orders, so traced counts repeat
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} passed the time budget of {BUDGET_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> str:
    git = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            git = proc.stdout.strip() or git
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "alttab", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"env python={platform.python_version()} nproc={affinity} cpu_count={os.cpu_count()} "
        f"git={git} src_sha256={src.hexdigest()[:16]}"
    )


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    if len(xs) < 11:
        return f"op_ms_tail n/a ({len(xs)} ops, fewer than 11)"
    k = len(xs) - 11
    return f"op_ms_tail p{100 * (k + 1) / len(xs):.1f} = {xs[k] * 1e3:.4f} ms over {len(xs)} ops"


def failure_lines(workers: list[dict]) -> list[str]:
    failures = [f for w in workers for f in w["failures"]]
    if not failures:
        return []
    first = failures[0]
    return [f"first failure: {first['error']}", f"first failing input: {first['input']}"]


def measure(args, base: list[str], deadline: float, out: list[str]):
    setups = [spawn(base + ["--round", "0", "--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        rounds.append(spawn(base + ["--round", str(len(rounds))], deadline))
        elapsed = time.monotonic() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    ops = [t for r in rounds for t in r["op_s"]]
    failed = sum(len(r["failures"]) for r in rounds)
    out.append("inputs " + " ".join(f"round{k}={r['digest']}" for k, r in enumerate(rounds)))
    out.append(f"rounds {len(rounds)} ops {len(ops)} failed {failed} failed_frac {failed / len(ops):.6g}")
    out.append(tail(ops))
    raw_ops = [t for r in rounds for t in r["op_raw_s"]]
    out.append("round wall_s " + " ".join(f"{sum(r['op_s']):.4g}" for r in rounds)
               + " raw " + " ".join(f"{sum(r['op_raw_s']):.4g}" for r in rounds))
    out.append(
        f"raw setup_s {statistics.median(w['setup_raw_s'] for w in setups + rounds):.6g}"
        f" wall_s {statistics.median(sum(r['op_raw_s']) for r in rounds):.6g}"
        f" op_ms_p50 {statistics.median(raw_ops) * 1e3:.6g}"
        f" speed_scale {statistics.median(r['speed_scale'] for r in rounds):.4g}"
    )
    out.extend(failure_lines(rounds))
    metrics = {
        "setup_s": statistics.median(w["setup_s"] for w in setups + rounds),
        "wall_s": statistics.median(sum(r["op_s"]) for r in rounds),
        "ops_per_s": len(ops) / sum(ops),
        "op_ms_p50": statistics.median(ops) * 1e3,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in rounds) / 1024,
    }
    return metrics, len(ops), failed, True


def trace(args, base: list[str], deadline: float, out: list[str]):
    plain = spawn(base + ["--round", "0"], deadline)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
    traced = [
        spawn(base + ["--round", "0", "--trace"] + (["--trace-out", spans] if k == 0 else []), deadline)
        for k in range(2)
    ]
    workers = [plain] + traced
    first, second = (t["counters"] for t in traced)
    differ = sorted(k for k in first if k.endswith(COUNT_SUFFIXES) and first[k] != second.get(k))
    reproducible = not differ and all(w["digest"] == plain["digest"] for w in traced)
    out.append(f"inputs round0={plain['digest']}")
    out.append(f"trace counts reproducible across two traced runs: {'yes' if reproducible else 'NO'}")
    if differ:
        out.append("counts that differ: " + ", ".join(f"{k} {first[k]} != {second.get(k)}" for k in differ[:20]))
    out.append(f"spans written to {os.path.relpath(spans, ROOT)}")
    out.extend(failure_lines(workers))
    traced_s = statistics.mean(sum(t["op_s"]) for t in traced)
    out.append(f"op time of round 0: untraced {sum(plain['op_s']):.4f} s, traced {traced_s:.4f} s")
    metrics = dict(first)
    metrics["trace.overhead_frac"] = traced_s / sum(plain["op_s"]) - 1
    ops = plain["ops"]
    for name in list(first):
        if name.endswith(".calls"):
            metrics[name[: -len(".calls")] + ".per_op"] = first[name] / ops
    attempted = sum(len(w["op_s"]) for w in workers)
    failed = sum(len(w["failures"]) for w in workers)
    out.append(f"ops {attempted} failed {failed} failed_frac {failed / attempted:.6g}")
    return metrics, attempted, failed, reproducible


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    out = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        environment(),
        f"why {why.get(args.workload, '')}",
    ]
    try:
        metrics, attempted, failed, consistent = (trace if args.trace else measure)(args, base, deadline, out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = f"{value:.6g}" if isinstance(value, float) else value
        out.append(f"metric {m['name']} = {shown} {m['unit']} ({m['better']} is better)")
    print("\n".join(out))
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
