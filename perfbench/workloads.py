"""The three benchmark workloads and the physics gates applied to each result.

Every workload is built once (set-up: rules and geometry) and then runs whole
passes over its seeded input grid.  An operation is one frequency; it fails
when it raises or when one of its physics checks misses the tier-1 threshold.
A failure is counted and the pass goes on.  Each pass builds fresh backends
and output directories, so caches inside the library never turn a repeated
pass into lookups.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import tempfile
import time

import numpy as np

import scatmodes as sm
from scatmodes import cli, dataio, tracking

# tier-1 thresholds (tests/test_acceptance.py)
LOSSLESS_SPHERE = 1e-6
LOSSLESS_DIPOLES = 1e-2
RECIPROCITY = 1e-10
PENCIL_VS_SCATTERING = 1e-3
ANALYTIC_AGREEMENT = 1e-6
MIN_TRACK_CORRELATION = 0.99
TOP = 10  # leading modes compared against the pencil or the analytic result

#: per-pass output directories and trace files, inside the checkout
SCRATCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".perfbench")


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{label}: {'; '.join(problems)}")

    def run(self, label: str, check) -> None:
        """Run one operation; ``check`` returns the physics checks it failed."""
        try:
            problems = check()
        except Exception as exc:  # a failing operation is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        self.record(label, problems)


def below(what: str, value: float, limit: float) -> list:
    """One problem unless value < limit (NaN fails)."""
    return [] if value < limit else [f"{what} {value:.3e} not below {limit:.0e}"]


def lossless_and_reciprocal(tr, smat, modes, lossless_limit: float) -> list:
    recip = tr.call("scattering.reciprocity", sm.reciprocity_residual, smat)
    return (below("lossless circle", sm.max_lossless_residual(modes, top=25),
                  lossless_limit)
            + below("reciprocity", recip, RECIPROCITY))


def shifted_grid(seed: int, start: float, step: float, count: int) -> np.ndarray:
    """Uniform grid shifted by a seeded offset of less than half a step."""
    offset = np.random.default_rng(seed).uniform(0.0, 0.5 * step)
    return start + offset + step * np.arange(count)


class SphereSweep:
    """Acceptance-6 magnetodielectric four-layer sphere, N_q=38, 201 ka steps.

    Many small problems, bound by Python overhead: stresses mie, swe,
    small-matrix modes and tracking; bypasses dataio and dda.
    """

    def __init__(self, seed: int, tr, smoke: bool = False):
        self.sphere = sm.LayeredSphere(1.0, tuple(
            sm.Layer(e, m, f) for e, m, f in
            zip([1, 5, 1, 2], [3, 1, 8, 1], [0.25, 0.5, 0.75, 1.0])))
        self.rule = tr.call("quadrature.rule", sm.lebedev_rule, 38)
        self.l_max = self.rule.order_capability // 2
        self.kas = shifted_grid(seed, 0.5, 0.02, 11 if smoke else 201)

    def run_pass(self, tr, ops: Ops, step_times: list) -> None:
        modesets = []
        for i, ka in enumerate(self.kas):
            start = time.perf_counter()
            with tr.operation(i):
                ops.run(f"ka={ka:.5f}", lambda: self._step(tr, ka, modesets))
            step_times.append(time.perf_counter() - start)
        with tr.operation("track"):
            ops.run("track", lambda: self._track(tr, modesets))

    def _step(self, tr, ka, modesets) -> list:
        tmat = tr.call("mie.tmatrix", sm.layered_tmatrix, self.sphere, ka,
                       self.l_max)
        smat = tr.call("swe.synth", sm.s_from_t, tmat, self.rule, k=ka)
        modes = tr.call("modes.decompose", sm.decompose, sm.apply_weights(smat))
        modesets.append(modes)
        return lossless_and_reciprocal(tr, smat, modes, LOSSLESS_SPHERE)

    def _track(self, tr, modesets) -> list:
        if len(modesets) != len(self.kas):
            return [f"{len(self.kas) - len(modesets)} steps have no modes"]
        sweep = sm.SweepResult(
            frequencies=np.array([sm.frequency(ka) for ka in self.kas]),
            modesets=tuple(modesets))
        tracked = tr.call("tracking.track", sm.track, sweep)
        corr = min((min(t.correlations) for t in tracked.traces
                    if t.correlations), default=1.0)
        return [] if corr > MIN_TRACK_CORRELATION else [
            f"tracking min correlation {corr:.6f} not above "
            f"{MIN_TRACK_CORRELATION}"]


class DdaBlock:
    """10x10x4 dipole block (eps_r=3, circumscribing radius 1), N_q=50, 6 k.

    Green's-function assembly and dense LU/eigh: stresses dda and modes;
    bypasses mie, dataio and tracking.
    """

    EPS_R = 3.0

    def __init__(self, seed: int, tr, smoke: bool = False):
        self.extent = (4, 4, 1) if smoke else (10, 10, 4)
        self.spacing = 2.0 / math.sqrt(sum(n * n for n in self.extent))
        self.model = sm.build_block(self.extent, self.spacing, self.EPS_R)
        self.rule = tr.call("quadrature.rule", sm.lebedev_rule, 50)
        self.ks = shifted_grid(seed, 0.8, 0.08, 2 if smoke else 6)

    def run_pass(self, tr, ops: Ops, step_times: list) -> None:
        model = sm.DipoleModel(self.model.positions.copy(), self.spacing,
                               self.EPS_R)
        for i, k in enumerate(self.ks):
            start = time.perf_counter()
            with tr.operation(i):
                ops.run(f"k={k:.5f}", lambda: self._step(tr, model, k))
            step_times.append(time.perf_counter() - start)

    def _step(self, tr, model, k) -> list:
        backend = sm.DdaBackend(model)
        system = tr.call("dda.zbuild", backend.system, k)
        tr.call("dda.lu", system.factor)
        tr.call("dda.kmat", backend.kmat, k, self.rule)
        smat = tr.call("dda.solve", sm.scattering_matrix, model, self.rule, k,
                       backend)
        modes = tr.call("modes.decompose", sm.decompose, sm.apply_weights(smat))
        lam, _ = tr.call("dda.classical_cm", sm.classical_cm, system)
        t_lam = np.array([sm.t_from_lambda(v) for v in lam])
        t_lam = t_lam[np.argsort(-np.abs(t_lam))][:TOP]
        t_top = modes.eigenvalues[:TOP]
        pencil = float(np.max(np.abs(t_lam - t_top) / np.abs(t_top)))
        return (lossless_and_reciprocal(tr, smat, modes, LOSSLESS_DIPOLES)
                + below("pencil-vs-scattering", pencil, PENCIL_VS_SCATTERING))


# module-level names that cli and dataio resolve at call time
CLI_TARGETS = (
    (cli, "lebedev_rule", "quadrature.rule"),
    (cli, "layered_tmatrix", "mie.tmatrix"),
    (cli, "s_from_t", "swe.synth"),
    (cli, "decompose", "modes.decompose"),
    (tracking, "track", "tracking.track"),
    (dataio, "write_dataset", "dataio.write"),
    (dataio, "read_dataset", "dataio.read"),
    (dataio, "lebedev_rule", "quadrature.rule"),
    (dataio, "decompose", "modes.decompose"),
    (dataio, "reciprocity_residual", "scattering.reciprocity"),
)


class CliDense:
    """``scatmodes sweep`` then ``scatmodes validate`` on an eps_r=3 sphere.

    N_q=302 at one ka near 1: a large problem, where LAPACK, the
    degenerate-space Gram-Schmidt and CSV I/O dominate, through the real CLI.
    One frequency keeps a pass short enough for several passes in a run.
    """

    EPS_R = 3.0

    def __init__(self, seed: int, tr, smoke: bool = False):
        self.n_q = 26 if smoke else 302
        self.sphere = sm.LayeredSphere.homogeneous(1.0, self.EPS_R)
        self.rule = tr.call("quadrature.rule", sm.lebedev_rule, self.n_q)
        self.l_max = max(1, self.rule.order_capability // 2)
        self.kas = shifted_grid(seed, 0.95, 0.1, 1)
        self.unmeasured: list[str] = []

    def run_pass(self, tr, ops: Ops, step_times: list) -> None:
        # the CLI exposes no per-frequency signal, so no step times here
        os.makedirs(SCRATCH, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="cli-dense-", dir=SCRATCH)
        try:
            out = os.path.join(tmp, "out")
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                json.dump({"backend": {"type": "mie", "eps_r": self.EPS_R,
                                       "radius": 1.0},
                           "frequencies": {"ka": self.kas.tolist()},
                           "quadrature": self.n_q, "output": out}, fh)
            try:
                codes, log = self._run_cli(tr, config, out)
                manifest = _read_json(os.path.join(out, "manifest.json"))
            except Exception as exc:  # every frequency of the pass failed
                for i, ka in enumerate(self.kas):
                    ops.record(f"ka={ka:.5f}", [f"{type(exc).__name__}: {exc}"])
                return
            for i, ka in enumerate(self.kas):
                ops.run(f"ka={ka:.5f}",
                        lambda: self._check(i, ka, out, codes, log, manifest))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def _run_cli(self, tr, config, out):
        log = io.StringIO()
        with tr.patched(CLI_TARGETS) as missing, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            sweep = tr.call("cli.sweep", cli.main, ["sweep", "--config", config])
            validate = tr.call("cli.validate", cli.main, ["validate", out])
        self.unmeasured = missing
        return (sweep, validate), log.getvalue()

    def _check(self, i, ka, out, codes, log, manifest) -> list:
        tail = log.strip().splitlines()[-1:] or [""]
        problems = [f"{cmd} exit code {code}: {tail[0]}"
                    for cmd, code in zip(("sweep", "validate"), codes) if code]
        if not manifest.get("complete"):
            problems.append("manifest not complete")
        # validate exits 0 only when every manifest entry passes; the entry
        # must be there for that to cover this frequency
        entry = next((e for e in manifest.get("entries", [])
                      if e.get("dataset") == f"dataset_{i:04d}.csv"), None)
        if entry is None:
            return problems + ["no manifest entry"]
        computed = _top_eigenvalues(os.path.join(out, entry["modes"]), TOP)
        analytic = sm.analytic_modes(self.sphere, ka, self.l_max).eigenvalues
        worst = max(np.min(np.abs(analytic - t)) / abs(t) for t in computed)
        return problems + below("analytic disagreement", worst,
                                ANALYTIC_AGREEMENT)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _top_eigenvalues(path, count):
    """Leading eigenvalues from a modes CSV (columns mode, re_t, im_t, ...)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:count + 1]
    return [complex(float(r[1]), float(r[2])) for r in rows]


WORKLOADS = {"sphere-sweep": SphereSweep, "cli-dense": CliDense,
             "dda-block": DdaBlock}
