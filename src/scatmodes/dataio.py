"""File formats: far-field scattering datasets, mode tables, traces, manifests.

A dataset is one JSON header line followed by a CSV body.  The header stores
the frequency, the wavenumber, and the quadrature rule inline; the body
stores the unweighted scattering samples as (row_index, col_index, re, im)
with 17 significant digits, which round-trips IEEE doubles exactly.  The
full layout is documented in docs/format.md.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from typing import NoReturn

import numpy as np

from .errors import DimensionMismatch, ParseError
from .modes import C0, decompose, max_lossless_residual, metrics
from .quadrature import (FOUR_PI, SUPPORTED_SIZES, Direction, QuadratureRule,
                         lebedev_rule)
from .scattering import ScatteringMatrix, apply_weights, reciprocity_residual

FORMAT_VERSION = 1
_SCALING_NOTE = ("unweighted scattering samples; rows/cols stack the theta "
                 "polarization block before the phi block")
_BODY_COLUMNS = ("row_index", "col_index", "re", "im")
_BODY_DTYPE = np.dtype([("i", np.int64), ("j", np.int64),
                        ("re", np.float64), ("im", np.float64)])
#: body rows parsed per np.loadtxt call; bounds the text held at once
_CHUNK_ROWS = 4096
#: empty lines, skipped in the body (csv.reader yields them as [])
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_dataset(smat: ScatteringMatrix, path: str) -> None:
    """One frequency's scattering samples as header line + CSV body."""
    if smat.weighted:
        raise ValueError("datasets store the unweighted sample matrix")
    header = {
        "format_version": FORMAT_VERSION,
        "frequency_hz": smat.k * C0 / (2.0 * math.pi),
        "wavenumber": smat.k,
        "rule": [[p.theta, p.phi, w]
                 for p, w in zip(smat.rule.points, smat.rule.weights)],
        "scaling_note": _SCALING_NOTE,
    }
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.write(",".join(_BODY_COLUMNS) + "\r\n")
        # the bytes csv.writer gives: CRLF rows; %.17g fields need no quotes
        for i, row in enumerate(smat.matrix):
            lead = f"{i},"
            fh.write("".join([f"{lead}{j},{v.real:.17g},{v.imag:.17g}\r\n"
                              for j, v in enumerate(row.tolist())]))


def _reconstruct_rule(rule_rows, line_no: int) -> QuadratureRule:
    try:
        points = tuple(Direction(float(t), float(p)) for t, p, _ in rule_rows)
        weights = np.array([float(w) for _, _, w in rule_rows])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed rule entry: {exc}", line=line_no) from exc
    n = len(points)
    candidate = QuadratureRule(points=points, weights=weights,
                               order_capability=0, name=f"custom-{n}")
    if n in SUPPORTED_SIZES:
        known = lebedev_rule(n)
        if candidate.matches(known):
            return known
    if abs(weights.sum() - FOUR_PI) > 1e-6:
        raise ParseError(
            f"custom rule weights sum to {weights.sum():.9f}, expected 4*pi "
            f"within 1e-6", line=line_no)
    return candidate


def read_dataset(path: str) -> ScatteringMatrix:
    """Parse a dataset file back into an unweighted scattering matrix."""
    with open(path, newline="") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"header is not valid JSON: {exc}", line=1) from exc
        for key in ("format_version", "frequency_hz", "wavenumber", "rule"):
            if key not in header:
                raise ParseError(f"header missing field {key!r}", line=1)
        if header["format_version"] != FORMAT_VERSION:
            raise ParseError(
                f"unsupported format_version {header['format_version']}", line=1)
        k = float(header["wavenumber"])
        f_hz = float(header["frequency_hz"])
        if abs(k - 2.0 * math.pi * f_hz / C0) > 1e-9 * abs(k):
            raise ParseError(
                f"wavenumber {k} inconsistent with frequency {f_hz} Hz", line=1)
        rule = _reconstruct_rule(header["rule"], line_no=1)

        column_line = fh.readline()
        if not column_line:
            raise ParseError("missing body header row", line=2)
        columns = next(csv.reader([column_line]))
        if tuple(c.strip() for c in columns) != _BODY_COLUMNS:
            raise ParseError(f"unexpected body columns {columns}", line=2)

        n2 = 2 * rule.n_points
        matrix = np.full((n2, n2), np.nan, dtype=complex)
        count = 0
        body = itertools.filterfalse(_BLANK_LINES.__contains__, fh)
        while lines := list(itertools.islice(body, _CHUNK_ROWS)):
            try:
                # like csv.reader: quoted fields, fields past the fourth ignored
                chunk = np.loadtxt(lines, dtype=_BODY_DTYPE, delimiter=",",
                                   comments=None, quotechar='"', ndmin=1,
                                   usecols=(0, 1, 2, 3))
            except ValueError as exc:
                _raise_first_bad_row(path, n2, exc)
            i, j = chunk["i"], chunk["j"]
            if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= n2:
                _raise_first_bad_row(path, n2, None)
            matrix.real[i, j] = chunk["re"]
            matrix.imag[i, j] = chunk["im"]
            count += len(chunk)
    if count != n2 * n2:
        raise DimensionMismatch(
            f"body has {count} entries, expected {n2 * n2} for a "
            f"{n2}x{n2} matrix")
    if np.any(np.isnan(matrix)):
        missing = np.argwhere(np.isnan(matrix))[0]
        raise DimensionMismatch(
            f"duplicate rows shadow entry ({missing[0]}, {missing[1]})")
    return ScatteringMatrix(rule=rule, k=k, matrix=matrix, weighted=False)


def _raise_first_bad_row(path: str, n2: int,
                         exc: ValueError | None) -> NoReturn:
    """Rescan a body that failed to load and raise for its first bad row.

    Runs only on failure; the row-by-row parse names the line number.
    """
    with open(path, newline="") as fh:
        fh.readline()
        reader = csv.reader(fh)
        next(reader, None)
        for line_no, row in enumerate(reader, start=3):
            if not row:
                continue
            try:
                i, j = int(row[0]), int(row[1])
                float(row[2]), float(row[3])
            except (IndexError, ValueError) as err:
                raise ParseError(f"bad body row {row}: {err}",
                                 line=line_no) from err
            if not (0 <= i < n2 and 0 <= j < n2):
                raise DimensionMismatch(
                    f"line {line_no}: index ({i}, {j}) outside {n2}x{n2} matrix")
    raise ParseError(f"body does not parse: {exc}") from exc


def validation_report(smat: ScatteringMatrix, top: int = 25) -> dict:
    """Physics self-checks for a dataset: reciprocity, unitarity, residuals."""
    modeset = decompose(apply_weights(smat))
    res = np.abs(np.abs(2.0 * modeset.eigenvalues[:top] + 1.0) - 1.0)
    return {
        "reciprocity_residual": reciprocity_residual(smat),
        "lossless_residual_max": max_lossless_residual(modeset, top=top),
        "lossless_residual_mean": float(res.mean()),
        "eigenpair_residual_max": float(np.max(modeset.residuals)),
        "n_modes": modeset.n_modes,
    }


def write_modes(modeset, path: str, top: int | None = None) -> None:
    """Per-mode eigenvalues and metrics as CSV."""
    n = modeset.n_modes if top is None else min(top, modeset.n_modes)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "re_t", "im_t", "significance", "alpha_n",
                         "re_lambda", "im_lambda", "lossless_residual"])
        for i in range(n):
            m = metrics(modeset.eigenvalues[i])
            lam = m.lambda_n if m.lambda_n is not None else complex("nan")
            writer.writerow([i, _fmt(m.t.real), _fmt(m.t.imag),
                             _fmt(m.modal_significance), _fmt(m.alpha_n),
                             _fmt(lam.real), _fmt(lam.imag),
                             _fmt(m.lossless_residual)])


def write_traces(rows: list, path: str) -> None:
    """Long-format trace table as CSV; fixed column order."""
    from .tracking import TRACE_COLUMNS

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow([
                "" if row[c] is None else
                (_fmt(row[c]) if isinstance(row[c], float) else row[c])
                for c in TRACE_COLUMNS])


def write_manifest(directory: str, entries: list, complete: bool) -> str:
    """Sweep manifest: files in ascending frequency plus a completeness flag.

    Each entry is a dict with at least frequency_hz and dataset; written
    last so an interrupted sweep leaves valid per-frequency files behind.
    """
    entries = sorted(entries, key=lambda e: e["frequency_hz"])
    path = os.path.join(directory, "manifest.json")
    payload = {"format_version": FORMAT_VERSION, "complete": bool(complete),
               "entries": entries}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def read_manifest(directory: str) -> dict:
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}") from exc
