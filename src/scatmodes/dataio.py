"""File formats: far-field scattering datasets, mode tables, traces, manifests.

A dataset is a one-line JSON header file plus a body.  The header stores the
frequency, the wavenumber, and the quadrature rule inline.  The writer makes
format version 2: the header's "body" field names a sibling ``.npy`` file
holding the unweighted scattering samples as one little-endian complex128
2N_q x 2N_q array.  The reader also takes version 1, the text interchange
format that external solvers write, whose CSV body follows the header line
as (row_index, col_index, re, im) rows with 17 significant digits.  Both
round-trip IEEE doubles exactly.  The full layout is in docs/format.md.
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
from .modes import (LOSSLESS_TOP, decompose, frequency, lossless_residual,
                    metrics, wavenumber)
from .quadrature import FOUR_PI, SUPPORTED_SIZES, QuadratureRule, lebedev_rule
from .scattering import ScatteringMatrix, apply_weights, reciprocity_residual
from .tracking import TRACE_COLUMNS

#: the dataset format version write_dataset writes; read_dataset takes 1 or 2
FORMAT_VERSION = 2
#: the manifest layout, versioned apart from the datasets it lists
MANIFEST_VERSION = 1
_SCALING_NOTE = ("unweighted scattering samples; rows/cols stack the theta "
                 "polarization block before the phi block")
#: the one array layout a version 2 body may hold
_NPY_DTYPE = np.dtype("<c16")
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
    """One frequency's scattering samples as a version 2 dataset.

    The samples go to the ``.npy`` file beside ``path`` with its stem, and
    the JSON header naming it to ``path``.  The body is written first, so an
    interrupted write never leaves a header whose body is missing.
    """
    if smat.weighted:
        raise ValueError("datasets store the unweighted sample matrix")
    name = os.path.basename(path)
    body = os.path.splitext(name)[0] + ".npy"
    if body == name:
        raise ValueError(f"dataset header {path} would overwrite its body; "
                         f"name it with another extension, e.g. .csv")
    header = {
        "format_version": FORMAT_VERSION,
        "frequency_hz": frequency(smat.k),
        "wavenumber": smat.k,
        "rule": np.column_stack([smat.rule.theta, smat.rule.phi,
                                 smat.rule.weights]).tolist(),
        "scaling_note": _SCALING_NOTE,
        "body": body,
    }
    with open(os.path.join(os.path.dirname(path), body), "wb") as fh:
        np.save(fh, np.ascontiguousarray(smat.matrix, dtype=_NPY_DTYPE),
                allow_pickle=False)
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")


def _reconstruct_rule(rule_rows, line_no: int) -> QuadratureRule:
    # JSON numbers only: float() would take "1.5" and true as numbers
    for row in rule_rows if isinstance(rule_rows, list) else (rule_rows,):
        for value in row if isinstance(row, list) else (row,):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParseError(f"malformed rule entry: {value!r} is not a "
                                 f"number", line=line_no)
    try:
        rows = np.array(rule_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"expected [theta, phi, weight] rows, got an "
                             f"array of shape {rows.shape}")
        n = len(rows)
        candidate = QuadratureRule(*rows.T, order_capability=0,
                                   name=f"custom-{n}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed rule entry: {exc}", line=line_no) from exc
    weights = candidate.weights
    if n in SUPPORTED_SIZES:
        known = lebedev_rule(n)
        if candidate.matches(known):
            return known
    if abs(weights.sum() - FOUR_PI) > 1e-6:
        raise ParseError(
            f"custom rule weights sum to {weights.sum():.9f}, expected 4*pi "
            f"within 1e-6", line=line_no)
    return candidate


def _positive_number(header: dict, key: str) -> float:
    """header[key] as a float where it is a finite positive JSON number; any
    other value is a ParseError at line 1 (float() would take "1e400" and
    true)."""
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"frequency is not a number: {key} is {value!r}",
                         line=1)
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if not (math.isfinite(number) and number > 0):
        raise ParseError(f"{key} must be finite and positive, got {value!r}",
                         line=1)
    return number


def read_dataset(path: str) -> ScatteringMatrix:
    """Parse a version 1 or 2 dataset into an unweighted scattering matrix."""
    with open(path, newline="") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"header is not valid JSON: {exc}", line=1) from exc
        if not isinstance(header, dict):
            raise ParseError("header is not a JSON object", line=1)
        for key in ("format_version", "frequency_hz", "wavenumber", "rule"):
            if key not in header:
                raise ParseError(f"header missing field {key!r}", line=1)
        version = header["format_version"]
        if version not in (1, 2):
            raise ParseError(f"unsupported format_version {version}", line=1)
        k = _positive_number(header, "wavenumber")
        f_hz = _positive_number(header, "frequency_hz")
        if abs(k - wavenumber(f_hz)) > 1e-9 * abs(k):
            raise ParseError(
                f"wavenumber {k} inconsistent with frequency {f_hz} Hz", line=1)
        rule = _reconstruct_rule(header["rule"], line_no=1)
        n2 = 2 * rule.n_points
        if version == 2:
            if "body" not in header:
                raise ParseError("header missing field 'body'", line=1)
            matrix = _read_npy_body(path, header["body"], n2)
            return ScatteringMatrix(rule=rule, k=k, matrix=matrix,
                                    weighted=False)

        column_line = fh.readline()
        if not column_line:
            raise ParseError("missing body header row", line=2)
        columns = next(csv.reader([column_line]))
        if tuple(c.strip() for c in columns) != _BODY_COLUMNS:
            raise ParseError(f"unexpected body columns {columns}", line=2)

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


def _is_file_name(name) -> bool:
    """Whether name is a plain file name: a string with no directory part
    that is not "", "." or ".."."""
    return (isinstance(name, str) and name not in ("", ".", "..")
            and os.path.basename(name) == name)


def _read_npy_body(path: str, body, n2: int) -> np.ndarray:
    """The n2 x n2 matrix of the version 2 body ``body`` beside ``path``.

    The .npy header's dtype, order and shape, and the file's size, are all
    checked before any sample is read, so a damaged or forged body raises
    ParseError or DimensionMismatch and never allocates more than the
    dataset's own rule calls for.
    """
    if not _is_file_name(body):
        raise ParseError(f"\"body\" must name a file beside the header, "
                         f"got {body!r}", line=1)
    try:
        fh = open(os.path.join(os.path.dirname(path), body), "rb")
    except OSError as exc:
        raise ParseError(f"cannot read body {body} ({exc.strerror})") from exc
    with fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):  # what np.save writes for a 2-D array
                raise ValueError(f".npy format {version} is not (1, 0)")
            shape, fortran_order, dtype = \
                np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise ParseError(f"body {body} is not a .npy array: {exc}") from exc
        if dtype != _NPY_DTYPE or fortran_order:
            raise ParseError(
                f"body {body} holds {dtype.str}"
                f"{' in Fortran order' if fortran_order else ''}; expected "
                f"C-ordered {_NPY_DTYPE.str}")
        if shape != (n2, n2):
            raise DimensionMismatch(
                f"body {body} has shape {shape}, expected ({n2}, {n2}) for "
                f"the header's {n2 // 2}-point rule")
        size = n2 * n2 * _NPY_DTYPE.itemsize
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left == size:
            matrix = np.empty((n2, n2), dtype=_NPY_DTYPE)
            left = fh.readinto(matrix)
        if left != size:
            raise DimensionMismatch(
                f"body {body} holds {left} bytes of samples, expected {size}")
    return matrix


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


def validation_report(smat: ScatteringMatrix) -> dict:
    """Physics self-checks for a dataset: reciprocity, unitarity, residuals."""
    modeset = decompose(apply_weights(smat))
    reciprocity = reciprocity_residual(smat)
    res = lossless_residual(modeset)[:LOSSLESS_TOP]
    return {
        "reciprocity_residual": reciprocity,
        "lossless_residual_max": float(res.max()),
        "lossless_residual_mean": float(res.mean()),
        "eigenpair_residual_max": float(np.max(modeset.residuals)),
        "n_modes": modeset.n_modes,
    }


def write_modes(modeset, path: str) -> None:
    """Per-mode eigenvalues and metrics as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "re_t", "im_t", "significance", "alpha_n",
                         "re_lambda", "im_lambda", "lossless_residual"])
        for i, m in enumerate(map(metrics, modeset.eigenvalues)):
            lam = m.lambda_n
            if lam is None:  # t = 0: lambda is infinite
                lam = complex(math.nan, math.nan)
            writer.writerow([i, _fmt(m.t.real), _fmt(m.t.imag),
                             _fmt(m.modal_significance), _fmt(m.alpha_n),
                             _fmt(lam.real), _fmt(lam.imag),
                             _fmt(m.lossless_residual)])


def write_traces(rows: list, path: str) -> None:
    """Long-format trace table as CSV; fixed column order."""
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
    payload = {"format_version": MANIFEST_VERSION, "complete": bool(complete),
               "entries": entries}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def read_manifest(directory: str) -> dict:
    """The sweep manifest; ParseError unless it is a JSON object whose
    "entries" list names a "dataset" file in the directory in every item:
    a file name, not a path."""
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}") from exc
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not (isinstance(entries, list) and all(
            isinstance(e, dict) and _is_file_name(e.get("dataset"))
            for e in entries)):
        raise ParseError("manifest needs an \"entries\" list whose items "
                         "name a \"dataset\" file in the directory")
    return manifest
