"""One round of one workload, in a fresh single-threaded process.

Run by ``run.py`` from the root of a checkout; prints one JSON line.  The
library is imported from ``src/`` of that checkout and nowhere else.
``--setup-only`` stops after set-up (import plus input generation), so the
driver can sample set-up time cheaply; ``--trace`` installs the layer tracer
and ``--trace-out`` names a file for its spans.

Every time is reported twice: as measured (``*_raw``) and scaled to a fixed
machine speed.  The speed of a shared sandbox swings by up to 2x for tens of
seconds at a time, far more than the gains and regressions the benchmark must
resolve, so :class:`Speed` runs a fixed reference job that never touches the
library next to the work and scales each time by ``REF_JOB_S`` over the
reference job's mean time while it was measured.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

REF_JOB_S = 0.00026  # the reference job's time on an unloaded core of a 2-CPU x86-64 sandbox
PROBE_PERIOD_S = 0.02


def reference_job() -> int:
    """Fixed pure-Python work (tuples, dicts, sets) that never touches the library."""
    seen, counts, acc = set(), {}, 0
    for i in range(800):
        key = (i % 31, i % 7)
        counts[key] = counts.get(key, 0) + 1
        if key not in seen:
            seen.add(key)
        acc += len(key)
    return acc


class Speed:
    """Samples of the reference job's time: explicit ones around each timed
    phase, and with ``start`` one every ``PROBE_PERIOD_S`` during it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0  # time inside probes, taken out of the regions they interrupt

    def probe(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_job()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(((start + end) / 2, end - start))
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a time measured in [start, end] to the reference speed.

        Uses the mean of the samples taken then, less the highest and lowest
        tenth, which a preempted or interrupted probe would otherwise skew.
        """
        near = sorted(d for t, d in self.samples if start <= t <= end)
        cut = len(near) // 10
        return REF_JOB_S / statistics.mean(near[cut : len(near) - cut])


def load_library():
    """Import ``alttab`` from this checkout's ``src`` and refuse any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import alttab
        import alttab.checks  # noqa: F401
        import alttab.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"cannot import alttab from {src}: {exc}")
    if not os.path.abspath(alttab.__file__).startswith(os.path.join(src, "alttab") + os.sep):
        raise SystemExit(f"alttab imported from {alttab.__file__}, not from {src}")
    return alttab


def round_inputs(workload: str, seed: int, round_no: int, tiny: bool):
    return WORKLOADS[workload]["inputs"](random.Random(f"{workload}:{seed}:{round_no}"), tiny)


def digest(inputs) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def run_ops(workload: str, lib, inputs, speed: Speed, tracer=None, corrupt=None):
    """Time each op and check it; returns (raw op seconds, speed factor, failures).

    All times of a round are scaled by one factor, from every speed sample of
    the round.  An exception or a wrong result fails that op only.
    ``corrupt(inp, want)`` replaces the oracle's expected value, to prove that
    the check can fail.
    """
    spec = WORKLOADS[workload]
    raw, failures = [], []
    first = time.perf_counter()
    speed.probe()
    for k, inp in enumerate(inputs):
        want = spec["expect"](inp)
        if corrupt is not None:
            want = corrupt(inp, want)
        error = None
        if tracer is not None:
            tracer.begin_op(k)
        spent = speed.spent
        start = time.perf_counter()
        try:
            out = spec["run"](lib, inp)
        except Exception as exc:  # a failed op is counted, never fatal
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
        raw.append(end - start - (speed.spent - spent))
        if error is None:
            try:
                spec["check"](inp, out, want)
            except Exception as exc:  # includes a result too malformed to inspect
                error = f"wrong result: {exc}"
        if error is not None:
            failures.append({"input": spec["describe"](inp), "error": error[:500]})
    speed.probe()
    return raw, speed.scale(first, time.perf_counter()), failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    speed = Speed()
    speed.probe()
    if not args.trace:  # a probe inside a traced call would count as that layer's time
        speed.start()
    lib = load_library()
    inputs = round_inputs(args.workload, args.seed, args.round, args.tiny)
    speed.probe()
    end = time.perf_counter()
    setup_raw = end - T0 - speed.spent
    result = {
        "setup_s": setup_raw * speed.scale(T0, end),
        "setup_raw_s": setup_raw,
        "digest": digest(inputs),
        "ops": len(inputs),
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        raw, factor, failures = run_ops(args.workload, lib, inputs, speed, tracer)
        result.update(
            op_s=[t * factor for t in raw],
            op_raw_s=raw,
            failures=failures,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            result["counters"] = {
                k: v * factor if k.endswith(("busy_s", "self_s")) else v for k, v in tracer.counters().items()
            }
            if args.trace_out:  # span times stay as measured
                with open(args.trace_out, "w", encoding="utf-8") as fh:
                    json.dump({"counters": result["counters"], "spans": tracer.spans}, fh)
    speed.stop()
    result["speed_scale"] = REF_JOB_S / statistics.median(d for _, d in speed.samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
