"""Command-line driver: frequency sweeps, dataset validation, precision study.

Configuration is a single JSON file; a handful of flags override the common
fields so a run is reproducible from one artifact.  Exit codes: 0 ok,
1 usage/config error, 2 validation failure, 3 compute failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dataio, tracking
from .dda import DdaBackend, build_block, scattering_matrix
from .errors import ScatmodesError
from .mie import LayeredSphere, Layer, MieBackend, layered_tmatrix
from .modes import C0, decompose, frequency, wavenumber
from .quadrature import lebedev_rule, minimum_points, quadrature_bound
from .scattering import apply_weights, assemble
from .swe import s_from_t

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_COMPUTE = 0, 1, 2, 3

DEFAULT_TOLERANCES = {
    "reciprocity": 1e-10,
    "lossless": 1e-6,
    "eigenpair": 1e-8,
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    backend: dict
    wavenumbers: np.ndarray          # ascending
    n_q: int | str = "auto"          # point count or "auto"
    output: str = "out"
    tolerances: dict = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self):
        k = np.asarray(self.wavenumbers, dtype=float)
        if k.size == 0:
            raise ConfigError("frequency grid is empty")
        if np.any(np.diff(k) <= 0) or np.any(k <= 0):
            raise ConfigError("wavenumbers must be positive and strictly increasing")
        self.wavenumbers = k
        if "type" not in self.backend:
            raise ConfigError("backend spec needs a 'type' field")
        if self.backend["type"] not in ("mie", "dda"):
            raise ConfigError(
                f"unknown backend type {self.backend['type']!r}; "
                f"expected 'mie' or 'dda'")
        tols = dict(DEFAULT_TOLERANCES)
        tols.update(self.tolerances)
        self.tolerances = tols

    @property
    def radius(self) -> float:
        return float(self.backend.get("radius", 1.0))

    def rule(self):
        if self.n_q == "auto":
            size = max(minimum_points(k * self.radius) for k in self.wavenumbers)
            return lebedev_rule(size)
        return lebedev_rule(int(self.n_q))


def _grid_from_config(cfg: dict) -> np.ndarray:
    grid = cfg.get("frequencies")
    if grid is None:
        raise ConfigError("config needs a 'frequencies' section")
    if "ka" in grid:
        radius = float(grid.get("radius", cfg.get("backend", {}).get("radius", 1.0)))
        return np.asarray(grid["ka"], dtype=float) / radius
    try:
        start, stop = float(grid["start_hz"]), float(grid["stop_hz"])
        count = int(grid["count"])
    except KeyError as exc:
        raise ConfigError(f"frequency grid missing field {exc}") from exc
    if count < 1:
        raise ConfigError("frequency count must be >= 1")
    hz = np.linspace(start, stop, count) if count > 1 else np.array([start])
    return np.array([wavenumber(f) for f in hz])


def load_config(args) -> RunConfig:
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if args.backend:
        try:
            cfg["backend"] = json.loads(args.backend)
        except json.JSONDecodeError:
            cfg["backend"] = {"type": args.backend}
    if args.freq_start is not None or args.freq_stop is not None:
        cfg["frequencies"] = {
            "start_hz": args.freq_start,
            "stop_hz": args.freq_stop if args.freq_stop is not None else args.freq_start,
            "count": args.freq_count or 1,
        }
    if args.nq is not None:
        cfg["quadrature"] = args.nq if args.nq == "auto" else int(args.nq)
    if args.out:
        cfg["output"] = args.out
    tolerances = dict(cfg.get("tolerances", {}))
    for item in args.tolerance or []:
        try:
            key, val = item.split("=", 1)
            tolerances[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad --tolerance {item!r}; expected KEY=VAL") from exc
    if "backend" not in cfg:
        raise ConfigError("no backend configured (use --backend or a config file)")
    return RunConfig(backend=cfg["backend"],
                     wavenumbers=_grid_from_config(cfg),
                     n_q=cfg.get("quadrature", "auto"),
                     output=cfg.get("output", "out"),
                     tolerances=tolerances,
                     workers=int(cfg.get("workers", 1)))


def _sphere_from_spec(spec: dict) -> LayeredSphere:
    layers = spec.get("layers")
    if layers is None:
        return LayeredSphere.homogeneous(spec.get("radius", 1.0),
                                         float(spec.get("eps_r", 3.0)),
                                         float(spec.get("mu_r", 1.0)))
    return LayeredSphere(spec.get("radius", 1.0), tuple(
        Layer(float(l["eps_r"]), float(l.get("mu_r", 1.0)),
              float(l["boundary_fraction"])) for l in layers))


def _sample_matrix(config: RunConfig, rule, k):
    """Unweighted scattering matrix from whichever backend is configured."""
    spec = config.backend
    kind = spec["type"]
    if kind == "mie":
        sphere = _sphere_from_spec(spec)
        l_max = spec.get("l_max") or max(1, rule.order_capability // 2)
        tmat = layered_tmatrix(sphere, k * sphere.outer_radius_a, l_max)
        return s_from_t(tmat, rule, k=k)
    if kind == "dda":
        model = build_block(spec.get("extent", (4, 4, 1)),
                            float(spec["spacing"]), float(spec["eps_r"]), k=k)
        return scattering_matrix(model, rule, k)
    raise ConfigError(f"unknown backend type {kind!r}")


def cmd_sweep(config: RunConfig) -> int:
    rule = config.rule()
    os.makedirs(config.output, exist_ok=True)
    entries, modesets, failures = {}, {}, []

    def one(i_k):
        i, k = i_k
        smat = _sample_matrix(config, rule, k)
        name = f"dataset_{i:04d}.csv"
        dataio.write_dataset(smat, os.path.join(config.output, name))
        modeset = decompose(apply_weights(smat))
        modes_name = f"modes_{i:04d}.csv"
        dataio.write_modes(modeset, os.path.join(config.output, modes_name))
        return i, k, name, modes_name, modeset

    jobs = list(enumerate(config.wavenumbers))
    try:
        if config.workers > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(one, jobs))
        else:
            results = [one(j) for j in jobs]
    except (ScatmodesError, ValueError, RuntimeError) as exc:
        failures.append(str(exc))
        results = []
    for i, k, name, modes_name, modeset in results:
        entries[i] = {"frequency_hz": frequency(k), "wavenumber": k,
                      "dataset": name, "modes": modes_name}
        modesets[i] = modeset

    complete = len(entries) == len(jobs) and not failures
    if complete and len(jobs) > 1:
        sweep = tracking.SweepResult(
            frequencies=np.array([frequency(k) for k in config.wavenumbers]),
            modesets=tuple(modesets[i] for i in range(len(jobs))))
        rows = tracking.trace_export(tracking.track(sweep))
        dataio.write_traces(rows, os.path.join(config.output, "traces.csv"))
        for e in entries.values():
            e["traces"] = "traces.csv"
    dataio.write_manifest(config.output, list(entries.values()), complete)
    if not complete:
        print(f"sweep incomplete: {'; '.join(failures) or 'missing frequencies'}",
              file=sys.stderr)
        return EXIT_COMPUTE
    print(f"sweep complete: {len(entries)} frequencies -> {config.output}")
    return EXIT_OK


def _validate_one(path: str, tolerances: dict) -> bool:
    try:
        smat = dataio.read_dataset(path)
    except OSError as exc:
        print(f"{path}: cannot read dataset ({exc.strerror}) -> FAIL")
        return False
    report = dataio.validation_report(smat)
    ok = (report["reciprocity_residual"] < tolerances["reciprocity"]
          and report["lossless_residual_max"] < tolerances["lossless"]
          and report["eigenpair_residual_max"] < tolerances["eigenpair"])
    print(f"{path}: reciprocity={report['reciprocity_residual']:.3e} "
          f"lossless(max/mean)={report['lossless_residual_max']:.3e}/"
          f"{report['lossless_residual_mean']:.3e} "
          f"eigenpair={report['eigenpair_residual_max']:.3e} "
          f"-> {'PASS' if ok else 'FAIL'}")
    return ok


def cmd_validate(path: str, tolerances: dict) -> int:
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(tolerances)
    if os.path.isdir(path):
        manifest = dataio.read_manifest(path)
        files = [os.path.join(path, e["dataset"]) for e in manifest["entries"]]
    else:
        files = [path]
    ok = all([_validate_one(f, tols) for f in files])
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_precision_study(config: RunConfig, nq_list: list, reference: int) -> int:
    if any(n >= reference for n in nq_list):
        raise ConfigError(
            f"reference N_q {reference} must exceed every studied size {nq_list}")
    if config.backend["type"] != "mie":
        raise ConfigError("the precision study runs on the mie backend")
    sphere = _sphere_from_spec(config.backend)
    ref_rule = lebedev_rule(reference)
    # fixed truncation across all rules so only quadrature aliasing varies
    l_max = config.backend.get("l_max") or max(1, ref_rule.order_capability // 2)
    top = 25

    os.makedirs(config.output, exist_ok=True)
    out_path = os.path.join(config.output, "precision_study.csv")
    import csv as _csv

    with open(out_path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["ka", "n_q", "bound_estimate", "magnitude_error",
                         "phase_error", "note"])
        for k in config.wavenumbers:
            ka = k * sphere.outer_radius_a
            bound = quadrature_bound(ka)
            ref_modes = _modes_for(sphere, ref_rule, k, l_max)
            ref_alpha = _angles(ref_modes, top)
            for n_q in nq_list:
                note = ""
                if n_q < bound:
                    note = f"below the {math.ceil(bound)}-point estimate"
                rule = lebedev_rule(n_q)
                modes = _modes_for(sphere, rule, k, l_max)
                n = min(top, modes.n_modes, len(ref_alpha))
                mag = float(np.mean(np.abs(
                    np.abs(2.0 * modes.eigenvalues[:n] + 1.0) - 1.0)))
                d = np.abs(_angles(modes, n) - ref_alpha[:n])
                phase = float(np.mean(np.minimum(d, 2.0 * math.pi - d)))
                writer.writerow([ka, n_q, f"{bound:.1f}", f"{mag:.6e}",
                                 f"{phase:.6e}", note])
                print(f"ka={ka:g} N_q={n_q}: |s|-1 error {mag:.3e}, "
                      f"phase error {phase:.3e} {note}")
    print(f"precision study -> {out_path}")
    return EXIT_OK


def _modes_for(sphere, rule, k, l_max):
    backend = MieBackend(sphere, l_max=l_max)
    smat = assemble(backend, rule, k)
    return decompose(apply_weights(smat))


def _angles(modeset, top):
    from .modes import characteristic_angle

    return np.array([characteristic_angle(t)[0]
                     for t in modeset.eigenvalues[:top]])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scatmodes",
        description="Characteristic modes from sampled scattering matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory")
        p.add_argument("--nq", help="quadrature point count or 'auto'")
        p.add_argument("--backend", help="backend type or inline JSON spec")
        p.add_argument("--freq-start", type=float, dest="freq_start")
        p.add_argument("--freq-stop", type=float, dest="freq_stop")
        p.add_argument("--freq-count", type=int, dest="freq_count")
        p.add_argument("--tolerance", action="append", metavar="KEY=VAL")

    p_sweep = sub.add_parser("sweep", help="run a frequency sweep")
    common(p_sweep)

    p_val = sub.add_parser("validate", help="physics checks on datasets")
    p_val.add_argument("path", help="dataset file or sweep directory")
    p_val.add_argument("--tolerance", action="append", metavar="KEY=VAL")

    p_prec = sub.add_parser("precision-study",
                            help="eigenvalue error vs quadrature size")
    common(p_prec)
    p_prec.add_argument("--nq-list", required=True,
                        help="comma-separated point counts to study")
    p_prec.add_argument("--reference", type=int, required=True,
                        help="reference point count (largest)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            tols = {}
            for item in args.tolerance or []:
                key, val = item.split("=", 1)
                tols[key] = float(val)
            return cmd_validate(args.path, tols)
        config = load_config(args)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "precision-study":
            nq_list = [int(v) for v in args.nq_list.split(",")]
            return cmd_precision_study(config, nq_list, args.reference)
        raise ConfigError(f"unknown command {args.command}")
    except ScatmodesError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
