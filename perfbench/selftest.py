"""Fast self-test of the benchmark's own code.

    python3 perfbench/selftest.py

1. A tiny pass of every workload, untraced and traced, through ``run.py``:
   every metric of ``BENCHMARK.json`` is printed with its unit, no op fails,
   and the traced counts agree between the two traced runs.
2. Every oracle rejects a deliberately wrong expected value, so the
   correctness gate is not vacuous.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Mismatch, verify_check  # noqa: E402

# Each corruption replaces the oracle's expected value with a wrong one.
CORRUPT = {
    "convert": lambda inp, want: {**want, "word": want["word"][::-1]},
    "count": lambda inp, want: [{**w, "total": w["total"] + 1} for w in want],
    "asep": lambda inp, want: WORKLOADS["asep"]["expect"]((inp[0], inp[1], 2 * inp[2], inp[3])),
    "verify": lambda inp, want: {"code": 1},
}


def run_driver(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit code {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_driver(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run_driver(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))}"
            for name, unit in want.items():
                assert any(l.startswith(f"metric {name} = ") and f" {unit} (" in l for l in lines), name
            text = "\n".join(lines)
            assert "failed_frac 0" in text and "env python=" in text and "inputs round0=" in text
            if trace:
                assert "trace counts reproducible across two traced runs: yes" in text
            else:
                assert "op_ms_tail " in text
        print(f"ok   {workload}: every metric printed with its unit")


def check_oracles() -> None:
    from worker import Speed, load_library, round_inputs, run_ops

    lib = load_library()
    for workload in WORKLOADS:
        inputs = round_inputs(workload, 7, 0, tiny=True)
        _, _, failures = run_ops(workload, lib, inputs, Speed())
        assert not failures, failures
        _, _, failures = run_ops(workload, lib, inputs, Speed(), corrupt=CORRUPT[workload])
        assert len(failures) == len(inputs), f"{workload}: a wrong expected value passed the oracle"
        print(f"ok   {workload}: {len(inputs)} ops pass, and all fail against a wrong expected value")
    for text in ("", "0/0 checks passed\n", "a PASS\nb FAIL\n1/2 checks passed\n"):
        try:
            verify_check(None, (0, text), {"code": 0})
        except Mismatch:
            continue
        raise AssertionError(f"verify oracle accepted {text!r}")
    print("ok   verify: output without a summary line, or with 0 checks, fails")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    check_oracles()
    check_driver(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
