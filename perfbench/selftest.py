"""Self-test of the benchmark itself; run from the root of the checkout.

    python3 perfbench/selftest.py

1. Every workload at reduced size (``--smoke``), untraced and traced: the
   last output line has exactly the result keys, and every metric that
   BENCHMARK.json names is printed with its unit.  dda-block, which
   BENCHMARK.json leaves out, must print the dda layer metrics as well.
2. A deliberately non-reciprocal sample matrix inside a sphere sweep is
   counted as one failed operation, and the pass goes on to the end.
3. An operation that raises is counted as failed, not propagated.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def smoke_runs(spec) -> list:
    from run import DDA_METRICS, LAYER_METRICS

    dda = [{"name": m, "unit": LAYER_METRICS[m][0]} for m in sorted(DDA_METRICS)]
    runs = [(w["name"], []) for w in spec["workloads"]] + [("dda-block", dda)]
    problems = []
    for workload, dda_metrics in runs:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = spec[group] + (dda_metrics if trace else [])
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace),
                   "--smoke"]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            if result["attempted"] < 1:
                problems.append(f"{label}: no operations attempted")
            for metric in expected:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{label}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} unit "
                                    f"{got['unit']!r}, expected {metric['unit']!r}")
            extra = set(result["metrics"]) - {m["name"] for m in expected}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: "
                                f"{sorted(extra)}")
            print(f"ok   {label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")
    return problems


def failures_are_counted() -> list:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import scatmodes as sm
    import tracing
    import workloads

    sweep = workloads.SphereSweep(seed=7, tr=tracing.NoTrace(), smoke=True)
    broken_ka = sweep.kas[3]
    real_s_from_t = sm.s_from_t

    def non_reciprocal(tmat, rule, k=None):
        smat = real_s_from_t(tmat, rule, k=k)
        if k != broken_ka:
            return smat
        matrix = smat.matrix.copy()
        matrix[0, 1] += 1e-8  # S(r, r') != S^T(-r', -r) beyond 1e-10
        return replace(smat, matrix=matrix)

    ops = workloads.Ops()
    sm.s_from_t = non_reciprocal
    try:
        sweep.run_pass(tracing.NoTrace(), ops, [])
    finally:
        sm.s_from_t = real_s_from_t
    problems = []
    expected = len(sweep.kas) + 1  # every step plus the track
    if (ops.attempted, ops.failed) != (expected, 1) \
            or "reciprocity" not in ops.errors[0]:
        problems.append(f"non-reciprocal step: attempted {ops.attempted} "
                        f"(expected {expected}), failed {ops.failed} "
                        f"(expected 1): {ops.errors}")
    else:
        print(f"ok   non-reciprocal step counted: {ops.errors[0]}")

    ops = workloads.Ops()
    ops.run("raises", lambda: 1 / 0)
    if (ops.attempted, ops.failed) != (1, 1):
        problems.append("a raising operation was not counted as failed")
    else:
        print(f"ok   raising operation counted: {ops.errors[0]}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = smoke_runs(spec) + failures_are_counted()
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
