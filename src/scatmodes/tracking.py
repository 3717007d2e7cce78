"""Correlation-based tracking of modes across a frequency sweep.

Modes at consecutive frequencies are associated by the magnitude of their
weighted far-field inner product.  Pairs are resolved globally per step by
greedy descending-correlation matching, which keeps the assignment injective;
degenerate eigenspaces are first rotated to best align with the predecessor
space so the arbitrary basis inside a multiplet cannot break a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RuleMismatch
from .modes import ModeSet, degenerate_groups, metrics

DEFAULT_MIN_SIGNIFICANCE = 1e-3
DEFAULT_MIN_CORRELATION = 0.7


@dataclass(frozen=True)
class SweepResult:
    """One ModeSet per frequency, all on the same quadrature rule."""

    frequencies: np.ndarray
    modesets: tuple

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        sets = tuple(self.modesets)
        if len(freqs) != len(sets):
            raise ValueError(
                f"{len(freqs)} frequencies but {len(sets)} mode sets")
        if len(freqs) and np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        rules = [ms.rule for ms in sets]
        if any(r is None for r in rules):
            raise RuleMismatch("every mode set in a sweep needs its quadrature rule")
        for i, r in enumerate(rules[1:], start=1):
            if not rules[0].matches(r):
                raise RuleMismatch(
                    f"mode set {i} uses a different quadrature rule than mode set 0")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "modesets", sets)

    @property
    def n_steps(self) -> int:
        return len(self.frequencies)


@dataclass
class Trace:
    """A contiguous run of one physical mode across sweep steps."""

    trace_id: int
    start_step: int
    mode_indices: list = field(default_factory=list)
    eigenvalues: list = field(default_factory=list)
    correlations: list = field(default_factory=list)  # len = steps - 1

    @property
    def n_steps(self) -> int:
        return len(self.mode_indices)


@dataclass(frozen=True)
class TrackedTraces:
    sweep: SweepResult
    traces: tuple


def _correlations(prev: ModeSet, cur: ModeSet, rows: list,
                  candidates: list) -> np.ndarray:
    """|F_m^H diag(w) F_n| for prev's modes m in rows and cur's candidates n,
    (len(rows), len(candidates)), after each multiplet of cur that holds a
    candidate is rotated toward prev's eigenvectors.

    Within a multiplet any unitary mixing is still an eigenbasis, so the
    orthogonal-Procrustes rotation Q of the weighted overlap block is
    physically free; prev^H W (F Q) = (prev^H W F) Q, so one overlap
    product over the columns needed, rotated in place, serves for both.
    Each block is paired against the rows of prev it overlaps most.  All
    blocks are solved in one stacked SVD, each padded to the largest with
    the identity: the polar factor of diag(M, I) is diag(polar(M), I).
    """
    n_prev = prev.n_modes
    wanted = np.zeros(cur.n_modes, dtype=bool)
    wanted[candidates] = True
    groups = [grp for grp in degenerate_groups(cur.eigenvalues)
              if grp.stop - grp.start <= n_prev and wanted[grp].any()]
    for grp in groups:
        wanted[grp] = True
    cols = np.flatnonzero(wanted)
    overlap = prev.eigenvectors.conj().T @ (
        cur.eigenvectors[:, cols] * cur.rule.doubled_weights[:, None])
    if groups:
        sizes = np.array([grp.stop - grp.start for grp in groups])
        size = sizes.max()
        inside = np.arange(size) < sizes[:, None]  # (multiplets, size)
        # each multiplet's columns of overlap, padded with column 0
        at = np.where(inside, np.searchsorted(
            cols, [grp.start for grp in groups])[:, None] + np.arange(size), 0)
        # rows of prev by their norm on each multiplet's columns; the
        # strongest of them, as many as the multiplet has, in row order,
        # with the padding sorted last and then pointed at row 0
        blocks = np.where(inside, overlap[:, at], 0.0)  # (n_prev, ., size)
        rank = np.argsort(-np.linalg.norm(blocks, axis=2), axis=0)[:size].T
        top = np.sort(np.where(inside, rank, n_prev), axis=1)
        top[~inside] = 0
        pad = inside[:, :, None] & inside[:, None, :]
        stack = np.where(pad, overlap[top[:, :, None], at[:, None, :]],
                         np.eye(size))
        u, _, vh = np.linalg.svd(stack)
        rotations = np.where(pad, vh.conj().transpose(0, 2, 1)
                             @ u.conj().transpose(0, 2, 1), 0.0)
        rotated = blocks.transpose(1, 0, 2) @ rotations
        overlap[:, at[inside]] = rotated.transpose(1, 0, 2)[:, inside]
    picked = overlap[np.ix_(rows, np.searchsorted(cols, candidates))]
    return np.minimum(np.abs(picked), 1.0 + 1e-12)


def _greedy_match(corr: np.ndarray, rows, cols, min_correlation: float):
    """Assign rows to columns in descending correlation; injective by skip.

    corr[i, j] is the correlation of rows[i] with cols[j].  The walk stops
    at the first entry below min_correlation.  NaN entries sort last, so
    they are reached only when no entry is below it.
    """
    flat = corr.ravel()
    kept = (np.flatnonzero(flat >= min_correlation)
            if np.any(flat < min_correlation) else np.arange(flat.size))
    # descending correlation; a stable sort keeps ties in row-major order
    kept = kept[np.argsort(-flat[kept], kind="stable")]
    used_r, used_c, out = set(), set(), {}
    for idx, val in zip(kept.tolist(), flat[kept].tolist()):
        r, c = rows[idx // len(cols)], cols[idx % len(cols)]
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        out[r] = (c, val)
    return out


def track(sweep: SweepResult,
          min_significance: float = DEFAULT_MIN_SIGNIFICANCE,
          min_correlation: float = DEFAULT_MIN_CORRELATION) -> TrackedTraces:
    """Build continuous eigenvalue traces over the sweep."""
    traces: list[Trace] = []
    if sweep.n_steps == 0:
        return TrackedTraces(sweep=sweep, traces=())

    def significant(values):
        return [n for n, t in enumerate(values) if abs(t) >= min_significance]

    def open_trace(step, values, n):
        tr = Trace(trace_id=len(traces), start_step=step)
        tr.mode_indices.append(n)
        tr.eigenvalues.append(values[n])
        traces.append(tr)
        return tr

    # Python complex values: a faster loop, and abs as the scalar one
    values = sweep.modesets[0].eigenvalues.astype(complex).tolist()
    active = {n: open_trace(0, values, n) for n in significant(values)}

    for step in range(1, sweep.n_steps):
        prev, cur = sweep.modesets[step - 1], sweep.modesets[step]
        values = cur.eigenvalues.astype(complex).tolist()
        candidates = significant(values)
        rows = list(active)
        corr = _correlations(prev, cur, rows, candidates)
        match = _greedy_match(corr, rows, candidates, min_correlation)
        next_active = {}
        for m, trace in active.items():
            if m in match:
                n, val = match[m]
                trace.mode_indices.append(n)
                trace.eigenvalues.append(values[n])
                trace.correlations.append(val)
                next_active[n] = trace
        for n in candidates:
            if n not in next_active:
                next_active[n] = open_trace(step, values, n)
        active = next_active

    return TrackedTraces(sweep=sweep, traces=tuple(traces))


#: fixed column order of the exported long-format trace table
TRACE_COLUMNS = ("trace_id", "frequency", "re_t", "im_t", "alpha_n",
                 "significance", "correlation")


def trace_export(tracked: TrackedTraces) -> list[dict]:
    """Long-format rows, one per (trace, step); plot-ready.

    The correlation column holds the match strength against the previous
    step and is None on each trace's first row.
    """
    rows = []
    freqs = tracked.sweep.frequencies
    for tr in tracked.traces:
        for j, (n, t) in enumerate(zip(tr.mode_indices, tr.eigenvalues)):
            met = metrics(t)
            rows.append({
                "trace_id": tr.trace_id,
                "frequency": float(freqs[tr.start_step + j]),
                "re_t": t.real,
                "im_t": t.imag,
                "alpha_n": met.alpha_n,
                "significance": met.modal_significance,
                "correlation": None if j == 0 else tr.correlations[j - 1],
            })
    rows.sort(key=lambda r: (r["trace_id"], r["frequency"]))
    return rows
