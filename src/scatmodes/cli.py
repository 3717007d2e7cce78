"""Command-line driver: frequency sweeps, dataset validation, precision study.

Configuration is a single JSON file; a handful of flags override the common
fields so a run is reproducible from one artifact.  Exit codes: 0 ok,
1 usage/config error, 2 validation failure, 3 compute failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import dataio, tracking
from .dda import DdaBackend, build_block
from .errors import (InsufficientQuadrature, ParseError, ScatmodesError,
                     UnsupportedRuleSize, ZeroContrast)
from .mie import LayeredSphere, Layer, MieBackend, default_l_max
from .modes import (LOSSLESS_TOP, characteristic_angle, decompose, frequency,
                    lossless_residual, wavenumber)
from .quadrature import (format_estimate, lebedev_rule, minimum_points,
                         quadrature_bound)
from .scattering import apply_weights
from .swe import require_capability

EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_COMPUTE = 0, 1, 2, 3

DEFAULT_TOLERANCES = {
    "reciprocity": 1e-10,
    "lossless": 1e-6,
    "eigenpair": 1e-8,
}


class ConfigError(ValueError):
    pass


def parse_tolerances(items=()) -> dict:
    """Validation tolerances: the defaults, then each KEY=VAL item of
    --tolerance in turn.

    An item without "=", a key outside DEFAULT_TOLERANCES or a value that is
    not a positive number raises ConfigError naming the allowed keys.
    """
    allowed = ", ".join(DEFAULT_TOLERANCES)
    tols = dict(DEFAULT_TOLERANCES)
    for item in items:
        key, sep, val = item.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(
                f"bad --tolerance {item!r}; expected KEY=VAL, KEY one of {allowed}")
        if key not in tols:
            raise ConfigError(
                f"unknown tolerance {key!r}; allowed keys: {allowed}")
        try:
            value = float(val)
        except ValueError:
            value = math.nan
        if not value > 0:
            raise ConfigError(
                f"tolerance {key} must be a positive number, got {val!r}")
        tols[key] = value
    return tols


def _real(value, what: str) -> float:
    """A finite JSON number as a float; anything else is a ConfigError."""
    try:
        number = float(value) if isinstance(value, (int, float)) else math.nan
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if isinstance(value, bool) or not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return number


def _count(value, what: str) -> int:
    """A positive JSON integer; 26.5 or "26" is a ConfigError, not 26."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    return value


@dataclass
class RunConfig:
    backend: MieBackend | DdaBackend
    wavenumbers: np.ndarray          # ascending
    n_q: int | str = "auto"          # point count or "auto"
    output: str = "out"

    def __post_init__(self):
        k = np.asarray(self.wavenumbers, dtype=float)
        if k.size == 0:
            raise ConfigError("frequency grid is empty")
        if not (np.all(k > 0) and np.all(np.diff(k) > 0)):
            raise ConfigError("wavenumbers must be positive and strictly increasing")
        self.wavenumbers = k
        if self.n_q != "auto":
            _count(self.n_q, 'quadrature (a point count or "auto")')
        if not isinstance(self.output, str) or not self.output:
            raise ConfigError(f"output must be a directory path, got "
                              f"{self.output!r}")

    def rule(self):
        """The sweep's rule.  An unsupported size, or one that would alias a
        mie l_max, is a usage error; one below the sampling estimate warns.
        "auto" on a scatterer of zero radius is a usage error too."""
        if self.n_q == "auto":
            _require_radius(self.backend.radius, '"auto" quadrature',
                            "give a point count")
        ka = self.wavenumbers[-1] * self.backend.radius
        try:
            rule = lebedev_rule(minimum_points(ka) if self.n_q == "auto"
                                else self.n_q)
            if isinstance(self.backend, MieBackend) and self.backend.l_max:
                l_max = self.backend.l_max
                require_capability(rule, 2 * l_max, f"l_max {l_max}")
        except (UnsupportedRuleSize, InsufficientQuadrature) as exc:
            raise ConfigError(str(exc)) from exc
        # a single dipole has ka = 0, where any rule meets the estimate
        if ka > 0 and rule.n_points < (bound := quadrature_bound(ka)):
            print(f"warning: {rule.name} is below the {format_estimate(bound)}-point "
                  f"estimate at the largest ka={ka:g}", file=sys.stderr)
        return rule


def _check_keys(spec: dict, accepted: tuple, where: str) -> None:
    """A ConfigError naming each key of spec outside accepted, and where it
    sits: a misspelled key would otherwise be ignored."""
    unknown = [key for key in spec if key not in accepted]
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in "
                          f"{where}; it accepts {', '.join(accepted)}")


def _check_exclusive(spec: dict, key: str, others: tuple, where: str) -> None:
    """A ConfigError naming the keys of others that spec gives beside key,
    which sets what they would: one of the two would be ignored."""
    clash = [other for other in others if other in spec]
    if key in spec and clash:
        raise ConfigError(f"{', '.join(map(repr, clash))} and {key!r} in "
                          f"{where} conflict: give one or the other")


def _require_radius(radius: float, what: str, instead: str) -> None:
    """A ConfigError naming the zero radius unless radius is positive: what
    means k times it, and a single dipole sits at its block's center."""
    if not radius > 0:
        raise ConfigError(f"{what} needs a scatterer of positive radius, and "
                          f"this one's radius is {radius:g} (a single "
                          f"dipole); {instead}")


def _grid_from_config(cfg: dict, radius: float) -> np.ndarray:
    grid = cfg.get("frequencies")
    if grid is None:
        raise ConfigError("config needs a 'frequencies' section")
    if not isinstance(grid, dict):
        raise ConfigError(f"'frequencies' must be a JSON object, got {grid!r}")
    _check_keys(grid, ("ka", "start_hz", "stop_hz", "count"), "'frequencies'")
    _check_exclusive(grid, "ka", ("start_hz", "stop_hz", "count"),
                     "'frequencies'")
    if "ka" in grid:
        if not isinstance(grid["ka"], list):
            raise ConfigError(f"'ka' must be a list of numbers, got "
                              f"{grid['ka']!r}")
        kas = np.array([_real(ka, "each 'ka'") for ka in grid["ka"]])
        _require_radius(radius, "a 'ka' grid",
                        "give the frequencies as start_hz, stop_hz and count")
        return kas / radius
    try:
        start = _real(grid["start_hz"], "start_hz")
        stop = _real(grid["stop_hz"], "stop_hz")
        count = _count(grid["count"], "frequency count")
    except KeyError as exc:
        raise ConfigError(f"frequency grid missing field {exc}") from exc
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
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
    if args.backend:
        try:
            cfg["backend"] = json.loads(args.backend)
        except json.JSONDecodeError:
            cfg["backend"] = {"type": args.backend}
    if args.freq_start is not None or args.freq_stop is not None:
        cfg["frequencies"] = {
            "start_hz": args.freq_start,
            "stop_hz": args.freq_stop if args.freq_stop is not None else args.freq_start,
            "count": 1 if args.freq_count is None else args.freq_count,
        }
    if getattr(args, "nq", None) is not None:
        cfg["quadrature"] = args.nq
    if args.out:
        cfg["output"] = args.out
    if "tolerances" in cfg:
        raise ConfigError("a config's \"tolerances\" have no effect; pass "
                          "--tolerance KEY=VAL to validate instead")
    if args.command == "precision-study" and "quadrature" in cfg:
        raise ConfigError("precision-study takes no \"quadrature\": it runs "
                          "the rules of --nq-list and --reference")
    _check_keys(cfg, ("backend", "frequencies", "quadrature", "output"),
                "the config")
    if "backend" not in cfg:
        raise ConfigError("no backend configured (use --backend or a config file)")
    if not isinstance(cfg["backend"], dict):
        raise ConfigError(f"backend spec must be a JSON object, got "
                          f"{cfg['backend']!r}")
    backend = _backend(cfg["backend"])  # before any output is written
    return RunConfig(backend=backend,
                     wavenumbers=_grid_from_config(cfg, backend.radius),
                     n_q=cfg.get("quadrature", "auto"),
                     output=cfg.get("output", "out"))


def _backend(spec: dict):
    """The backend a spec describes, or a ConfigError naming what is wrong.

    Its radius holds the scatterer about the origin: a "ka" grid and "auto"
    quadrature both mean k times it.  A scatterer the model refuses, such
    as a dda eps_r of 1, is a ConfigError too.
    """
    kind = spec.get("type")
    if kind is None:
        raise ConfigError("backend spec needs a 'type' field")
    if kind == "dda":
        _check_keys(spec, ("type", "extent", "spacing", "eps_r"),
                    "the dda backend")
        extent = spec.get("extent", [4, 4, 1])
        if not isinstance(extent, list) or len(extent) != 3:
            raise ConfigError(f"dda 'extent' must be three cell counts, got "
                              f"{extent!r}")
        extent = [_count(n, "each dda 'extent'") for n in extent]
        try:
            return DdaBackend(build_block(
                extent, _real(spec["spacing"], "dda 'spacing'"),
                _real(spec["eps_r"], "dda 'eps_r'")))
        except KeyError as exc:
            raise ConfigError(f"dda backend needs field {exc}") from exc
        except ZeroContrast as exc:
            raise ConfigError(str(exc)) from exc
    if kind != "mie":
        raise ConfigError(f"unknown backend type {kind!r}; "
                          f"expected 'mie' or 'dda'")
    _check_keys(spec, ("type", "radius", "eps_r", "mu_r", "layers", "l_max"),
                "the mie backend")
    radius = _real(spec.get("radius", 1.0), "mie 'radius'")
    layers = spec.get("layers")
    if layers is None:
        sphere = LayeredSphere.homogeneous(
            radius, _real(spec.get("eps_r", 3.0), "mie 'eps_r'"),
            _real(spec.get("mu_r", 1.0), "mie 'mu_r'"))
    elif not (isinstance(layers, list)
              and all(isinstance(l, dict) for l in layers)):
        raise ConfigError(f"mie 'layers' must be a list of objects, got "
                          f"{layers!r}")
    else:
        for i, layer in enumerate(layers):
            _check_keys(layer, ("eps_r", "mu_r", "boundary_fraction"),
                        f"mie layer {i}")
        _check_exclusive(spec, "layers", ("eps_r", "mu_r"), "the mie backend")
        try:
            sphere = LayeredSphere(radius, tuple(
                Layer(_real(l["eps_r"], "layer 'eps_r'"),
                      _real(l.get("mu_r", 1.0), "layer 'mu_r'"),
                      _real(l["boundary_fraction"], "'boundary_fraction'"))
                for l in layers))
        except KeyError as exc:
            raise ConfigError(f"mie layer needs field {exc}") from exc
    l_max = spec.get("l_max")
    return MieBackend(sphere, l_max=None if l_max is None
                      else _count(l_max, "mie 'l_max'"))


def _make_output(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{exc.strerror}") from exc


def cmd_sweep(config: RunConfig) -> int:
    """Sample, write and decompose each frequency in turn, then track.

    The first failing frequency ends the sweep; the frequencies finished
    before it stay listed in a manifest marked incomplete, and the exit
    code is EXIT_COMPUTE.
    """
    rule = config.rule()
    _make_output(config.output)
    entries, modesets, failure = [], [], None
    for i, k in enumerate(config.wavenumbers):
        try:
            smat = config.backend.sample(rule, k)
            name = f"dataset_{i:04d}.csv"
            dataio.write_dataset(smat, os.path.join(config.output, name))
            modeset = decompose(apply_weights(smat))
            modes_name = f"modes_{i:04d}.csv"
            dataio.write_modes(modeset, os.path.join(config.output, modes_name))
        except (ScatmodesError, ValueError, RuntimeError) as exc:
            failure = f"frequency {i} (k={k:g}): {exc}"
            break
        entries.append({"frequency_hz": frequency(k), "wavenumber": k,
                        "dataset": name, "modes": modes_name})
        modesets.append(modeset)

    complete = failure is None
    if complete and len(entries) > 1:
        sweep = tracking.SweepResult(
            frequencies=np.array([e["frequency_hz"] for e in entries]),
            modesets=tuple(modesets))
        rows = tracking.trace_export(tracking.track(sweep))
        dataio.write_traces(rows, os.path.join(config.output, "traces.csv"))
        for e in entries:
            e["traces"] = "traces.csv"
    dataio.write_manifest(config.output, entries, complete)
    if not complete:
        print(f"sweep incomplete after {len(entries)} of "
              f"{len(config.wavenumbers)} frequencies: {failure}",
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
    except ValueError as exc:  # ParseError, DimensionMismatch, bad samples
        print(f"{path}: {exc} -> FAIL")
        return False
    try:
        report = dataio.validation_report(smat)
    except ScatmodesError as exc:  # a rule without antipodes, a failed eig
        print(f"{path}: {exc} -> FAIL")
        return False
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
    """Check a dataset, or every dataset a sweep directory's manifest lists.

    Each problem prints one "... -> FAIL" line: a manifest that is missing
    or does not parse, a sweep marked incomplete, a dataset that cannot be
    read, parsed or checked, or one that misses a tolerance.  The other
    datasets are still checked, and any FAIL exits EXIT_VALIDATION.
    """
    ok = True
    if os.path.isdir(path):
        where = os.path.join(path, "manifest.json")
        try:
            manifest = dataio.read_manifest(path)
        except OSError as exc:
            print(f"{where}: cannot read manifest ({exc.strerror}) -> FAIL")
            return EXIT_VALIDATION
        except ParseError as exc:
            print(f"{where}: {exc} -> FAIL")
            return EXIT_VALIDATION
        files = [os.path.join(path, e["dataset"]) for e in manifest["entries"]]
        if manifest.get("complete") is not True:
            print(f"manifest incomplete: {len(files)} datasets listed -> FAIL")
            ok = False
    else:
        files = [path]
    results = [_validate_one(f, tolerances) for f in files]
    return EXIT_OK if ok and all(results) else EXIT_VALIDATION


def cmd_precision_study(config: RunConfig, nq_list: list, reference: int) -> int:
    if any(n >= reference for n in nq_list):
        raise ConfigError(
            f"reference N_q {reference} must exceed every studied size {nq_list}")
    if not isinstance(config.backend, MieBackend):
        raise ConfigError("the precision study runs on the mie backend")
    try:
        ref_rule = lebedev_rule(reference)
        rules = [lebedev_rule(n_q) for n_q in nq_list]
    except UnsupportedRuleSize as exc:
        raise ConfigError(str(exc)) from exc
    # fixed truncation across all rules so only quadrature aliasing varies
    backend = config.backend if config.backend.l_max else MieBackend(
        config.backend.sphere, default_l_max(ref_rule))
    kas = config.wavenumbers * backend.radius
    bounds = [quadrature_bound(ka) for ka in kas]  # before any output

    _make_output(config.output)
    out_path = os.path.join(config.output, "precision_study.csv")
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ka", "n_q", "bound_estimate", "magnitude_error",
                         "phase_error", "note"])
        for k, ka, bound in zip(config.wavenumbers, kas, bounds):
            ref_modes = decompose(apply_weights(backend.sample(ref_rule, k)))
            ref_alpha = _angles(ref_modes, LOSSLESS_TOP)
            for n_q, rule in zip(nq_list, rules):
                note = (f"below the {format_estimate(bound)}-point estimate"
                        if n_q < bound else "")
                modes = decompose(apply_weights(backend.sample(rule, k)))
                n = min(LOSSLESS_TOP, modes.n_modes, len(ref_alpha))
                mag = float(np.mean(lossless_residual(modes)[:n]))
                d = np.abs(_angles(modes, n) - ref_alpha[:n])
                phase = float(np.mean(np.minimum(d, 2.0 * math.pi - d)))
                writer.writerow([ka, n_q, f"{bound:.6g}", f"{mag:.6e}",
                                 f"{phase:.6e}", note])
                print(f"ka={ka:g} N_q={n_q}: |s|-1 error {mag:.3e}, "
                      f"phase error {phase:.3e} {note}")
    print(f"precision study -> {out_path}")
    return EXIT_OK


def _angles(modeset, top):
    return np.array([characteristic_angle(t)[0]
                     for t in modeset.eigenvalues[:top]])


def _point_count(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad point count {text!r}") from None


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; here 2 means a validation failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="scatmodes",
        description="Characteristic modes from sampled scattering matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory")
        p.add_argument("--backend", help="backend type or inline JSON spec")
        p.add_argument("--freq-start", type=float, dest="freq_start")
        p.add_argument("--freq-stop", type=float, dest="freq_stop")
        p.add_argument("--freq-count", type=int, dest="freq_count")

    p_sweep = sub.add_parser("sweep", help="run a frequency sweep")
    common(p_sweep)
    p_sweep.add_argument("--nq", help="quadrature point count or 'auto'",
                         type=lambda v: v if v == "auto" else _point_count(v))

    p_val = sub.add_parser("validate", help="physics checks on datasets")
    p_val.add_argument("path", help="dataset file or sweep directory")
    p_val.add_argument("--tolerance", action="append", metavar="KEY=VAL")

    # no abbreviations: "--nq" would pass for "--nq-list"
    p_prec = sub.add_parser("precision-study", allow_abbrev=False,
                            help="eigenvalue error vs quadrature size")
    common(p_prec)
    p_prec.add_argument("--nq-list", required=True,
                        type=lambda v: [_point_count(n) for n in v.split(",")],
                        help="comma-separated point counts to study")
    p_prec.add_argument("--reference", type=int, required=True,
                        help="reference point count (largest)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.path,
                                parse_tolerances(args.tolerance or ()))
        config = load_config(args)
        if args.command == "sweep":
            return cmd_sweep(config)
        return cmd_precision_study(config, args.nq_list, args.reference)
    except ScatmodesError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
