"""scatmodes benchmark: one workload per invocation, result as JSON.

    python3 perfbench/run.py --workload sphere-sweep --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the end-to-end metrics are measured with
tracing off and scaled to a reference speed (``tracing.Metronome``); with
``--trace 1`` the run alternates untraced and traced passes and reports
per-layer self times and counts, and step latency.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The line before it is the environment record.  See NOTES.md for
the workloads and the layer-to-metric table.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sphere-sweep", "cli-dense", "dda-block")
BLAS_THREADS = 1      # steadier than 2 on small matrices; see NOTES.md
SETUP_REPEATS = 7     # set-ups timed in fresh interpreters; median reported
SETUP_TICKS = 200     # reference-kernel ticks on each side of a timed set-up

#: per-layer metric -> (unit, span name, what is taken from those spans):
#: "self" time, "calls", or the total of a count recorded on the spans
LAYER_METRICS = {
    "quadrature.rule_s": ("s", "quadrature.rule", "self"),
    "mie.tmatrix_s": ("s", "mie.tmatrix", "self"),
    "mie.tmatrix_calls": ("count", "mie.tmatrix", "calls"),
    "swe.synth_s": ("s", "swe.synth", "self"),
    "scattering.reciprocity_s": ("s", "scattering.reciprocity", "self"),
    "modes.decompose_s": ("s", "modes.decompose", "self"),
    "modes.decompose_calls": ("count", "modes.decompose", "calls"),
    "dda.zbuild_s": ("s", "dda.zbuild", "self"),
    "dda.lu_s": ("s", "dda.lu", "self"),
    "dda.kmat_s": ("s", "dda.kmat", "self"),
    "dda.solve_s": ("s", "dda.solve", "self"),
    "dda.classical_cm_s": ("s", "dda.classical_cm", "self"),
    "dda.unknowns": ("count", "dda.zbuild", "unknowns"),
    "tracking.track_s": ("s", "tracking.track", "self"),
    "tracking.traces": ("count", "tracking.track", "traces"),
    "dataio.write_s": ("s", "dataio.write", "self"),
    "dataio.read_s": ("s", "dataio.read", "self"),
    "dataio.bytes_written": ("bytes", "dataio.write", "bytes_written"),
    "dataio.bytes_read": ("bytes", "dataio.read", "bytes_read"),
    "cli.sweep_s": ("s", "cli.sweep", "self"),
    "cli.validate_s": ("s", "cli.validate", "self"),
    "bench.uncovered_s": ("s", "bench.pass", "self"),
}
#: only dda-block reaches the dda layer, and BENCHMARK.json leaves that
#: workload out (see NOTES.md), so these are printed on dda-block alone
DDA_METRICS = {m for m in LAYER_METRICS if m.startswith("dda.")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced problem sizes, for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child: time one set-up, print it
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def setup(args, tr):
    """Import the library and build the workload: what ``setup_s`` times."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads, workloads.WORKLOADS[args.workload](args.seed, tr,
                                                        smoke=args.smoke)


def setup_probe_seconds(args) -> tuple:
    """One set-up, timed inside a fresh interpreter: (wall, reference) s."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    wall, reference = done.stdout.split()[-2:]
    return float(wall), float(reference)


def run_passes(workload, ops, seconds, tracer_kinds, after_pass=None):
    """Passes until ``seconds`` have elapsed, at least one of each kind.

    ``tracer_kinds`` maps a kind to its tracer class; passes cycle through
    the kinds.  ``after_pass`` runs between passes, outside their timing.
    Returns, per kind, (wall time, tracer, step times) per pass.
    """
    results = {}
    start = time.perf_counter()
    kinds = list(tracer_kinds)
    i = 0
    while i < len(kinds) or time.perf_counter() - start < seconds:
        kind = kinds[i % len(kinds)]
        tr = tracer_kinds[kind]()
        steps = []
        t0 = time.perf_counter()
        with tr.span("bench.pass"):
            workload.run_pass(tr, ops, steps)
        results.setdefault(kind, []).append(
            (time.perf_counter() - t0, tr, steps))
        i += 1
        if after_pass is not None:
            after_pass()
    return results


def step_percentile_ms(passes, q) -> float:
    """Percentile q of the step times of each pass, median over passes.

    Taken per pass so that a pass which ran through a slow spell of the
    machine does not move the figure.
    """
    import numpy as np
    per_pass = [float(np.percentile(steps, q)) for _, _, steps in passes
                if steps]
    return 1e3 * statistics.median(per_pass) if per_pass else 0.0


def end_to_end(args, workload, ops):
    # set-up probes are spread over the run, one before the first pass and
    # one after each pass, so they sample the same machine state as the passes
    setups = [setup_probe_seconds(args)]

    def probe():
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_probe_seconds(args))

    res = run_passes(workload, ops, args.seconds,
                     {"untraced": tracing.Metronome}, after_pass=probe)["untraced"]
    while len(setups) < SETUP_REPEATS:
        probe()
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "run_s": (statistics.median(tr.at_reference_speed(t - sum(tr.ticks))
                                    for t, tr, _ in res), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    summary = {"pass_seconds": [t for t, _, _ in res],
               "pass_ticks": [len(tr.ticks) for _, tr, _ in res],
               "median_tick_seconds": [statistics.median(tr.ticks)
                                       for _, tr, _ in res],
               "setup_wall_seconds": [wall for wall, _ in setups]}
    return metrics, summary, None


def layer_row(setup_spans, seconds, tr, skip) -> dict:
    """Per-layer figures of one traced pass: name -> (value, unit)."""
    import scipy.linalg

    totals = tracing.self_times(setup_spans, tr.spans)
    row = {}
    for metric, (unit, span, what) in LAYER_METRICS.items():
        if metric in skip:
            continue
        if what in ("self", "calls"):
            value = totals.get(span, (0.0, 0))[what == "calls"]
        else:
            value = sum(s.get(what, 0) for s in tr.spans)
        row[metric] = (value, unit)
    row["bench.traced_run_s"] = (seconds, "s")
    # bare LAPACK on the weighted matrices decompose received, after the pass
    start = time.perf_counter()
    for m in tr.matrices:
        scipy.linalg.eig(m)
    row["modes.lapack_eig_s"] = (time.perf_counter() - start, "s")
    return row


def per_layer(args, workload, ops, setup_tracer):
    res = run_passes(workload, ops, args.seconds,
                     {"untraced": tracing.NoTrace,
                      "traced": tracing.Tracer})
    skip = set() if args.workload == "dda-block" else DDA_METRICS
    rows = [layer_row(setup_tracer.spans, t, tr, skip)
            for t, tr, _ in res["traced"]]
    metrics = {m: (statistics.median(r[m][0] for r in rows), unit)
               for m, (_, unit) in rows[0].items()}
    untraced = statistics.median(t for t, _, _ in res["untraced"])
    traced = statistics.median(t for t, _, _ in res["traced"])
    metrics["bench.trace_overhead"] = (100.0 * (traced / untraced - 1.0), "%")
    # step latency swings with the shared host's speed (see NOTES.md), so it
    # is reported here, without a bound, from the untraced passes
    for name, q in (("step_p50_ms", 50), ("step_p95_ms", 95)):
        metrics[name] = (step_percentile_ms(res["untraced"], q), "ms")
    unmeasured = sorted(set(getattr(workload, "unmeasured", [])))
    metrics["bench.unmeasured_layers"] = (len(unmeasured), "count")
    summary = {kind: [t for t, _, _ in passes] for kind, passes in res.items()}
    summary["unmeasured"] = unmeasured
    spans = {"setup": setup_tracer.spans,
             "passes": [tr.spans for _, tr, _ in res["traced"]]}
    return metrics, summary, spans


def blas_record() -> list:
    """Vendor, version and thread count of each OpenBLAS loaded by NumPy/SciPy."""
    import numpy
    import scipy.linalg  # noqa: F401  (loads SciPy's own BLAS)

    site = Path(numpy.__file__).resolve().parent.parent
    out = []
    for lib_path in sorted(glob.glob(str(site / "*.libs" / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        entry = {"library": Path(lib_path).name}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                nth = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if cfg is not None and nth is not None:
                    cfg.restype = ctypes.c_char_p
                    nth.restype = ctypes.c_int
                    entry.update(config=cfg().decode(), threads=nth())
        out.append(entry)
    return out


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads_requested": BLAS_THREADS, "blas": blas_record(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "scatmodes" / "__init__.py").is_file():
        print(f"error: no scatmodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads()

    if args.setup_probe:
        metronome = tracing.Metronome()
        for _ in range(SETUP_TICKS):
            metronome.tick()
        start = time.perf_counter()
        setup(args, tracing.NoTrace())
        seconds = time.perf_counter() - start
        for _ in range(SETUP_TICKS):
            metronome.tick()
        print(seconds, metronome.at_reference_speed(seconds))
        return 0

    setup_tracer = tracing.Tracer() if args.trace else tracing.NoTrace()
    workloads, workload = setup(args, setup_tracer)
    ops = workloads.Ops()
    if args.trace:
        metrics, summary, spans = per_layer(args, workload, ops,
                                            setup_tracer)
    else:
        metrics, summary, spans = end_to_end(args, workload, ops)

    env = environment(args)
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    os.makedirs(workloads.SCRATCH, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(workloads.SCRATCH, f"result-{stem}.json"), "w") as fh:
        json.dump({"environment": env, "summary": summary,
                   "errors": ops.errors, "result": result}, fh, indent=1)
    if spans:
        with open(os.path.join(workloads.SCRATCH, f"spans-{stem}.json"), "w") as fh:
            json.dump(spans, fh)
    for err in ops.errors[:20]:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({"environment": env, "summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
