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


def _weighted(modeset: ModeSet) -> np.ndarray:
    return modeset.eigenvectors * modeset.rule.doubled_weights[:, None]


def _align_degenerate(prev: ModeSet, cur: ModeSet,
                      candidates: list) -> np.ndarray:
    """Rotate each degenerate eigenspace of cur toward prev's eigenvectors.

    Works on a copy; within a multiplet any unitary mixing is still an
    eigenbasis, so the orthogonal-Procrustes rotation of the weighted Gram
    block is physically free.  Multiplets with no member among candidates,
    the mode indices tracking may match, are left as they are.  Multiplets
    of one size are solved as one stack, each with the same floating-point
    operations as on its own.
    """
    vecs = cur.eigenvectors.copy()
    overlap = prev.eigenvectors.conj().T @ _weighted(cur)  # (n_prev, n_cur)
    matchable = set(candidates)
    starts = {}  # multiplet size -> first mode of each multiplet
    for grp in degenerate_groups(cur.eigenvalues):
        size = grp.stop - grp.start
        if (size <= overlap.shape[0]
                and not matchable.isdisjoint(range(grp.start, grp.stop))):
            starts.setdefault(size, []).append(grp.start)
    for size, first in starts.items():
        cols = np.add.outer(first, np.arange(size))  # (multiplets, size)
        blocks = overlap[:, cols]  # (n_prev, multiplets, size)
        # pair each multiplet against its strongest predecessors, then
        # solve the square unitary Procrustes problem M Q ~ I
        norms = np.linalg.norm(blocks.reshape(-1, size), axis=1)
        top = np.argsort(-norms.reshape(-1, len(first)), axis=0)[:size]
        u, _, vh = np.linalg.svd(
            blocks[np.sort(top, axis=0), np.arange(len(first))]
            .transpose(1, 0, 2))
        q = vh.conj().transpose(0, 2, 1) @ u.conj().transpose(0, 2, 1)
        vecs[:, cols] = (vecs[:, cols].transpose(1, 0, 2) @ q) \
            .transpose(1, 0, 2)
    return vecs


def correlation_matrix(prev: ModeSet, cur: ModeSet,
                       cur_vectors: np.ndarray | None = None) -> np.ndarray:
    """|F_m^H diag(w) F_n| between the modes of two steps."""
    vecs = cur.eigenvectors if cur_vectors is None else cur_vectors
    w = prev.rule.doubled_weights
    c = np.abs(prev.eigenvectors.conj().T @ (vecs * w[:, None]))
    return np.minimum(c, 1.0 + 1e-12)


def _greedy_match(corr: np.ndarray, rows, cols, min_correlation: float):
    """Assign rows to columns in descending correlation; injective by skip.

    The walk stops at the first entry below min_correlation.  NaN entries
    sort last, so they are reached only when no entry is below it.
    """
    flat = corr[np.ix_(rows, cols)].ravel()
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
        aligned = _align_degenerate(prev, cur, candidates)
        corr = correlation_matrix(prev, cur, aligned)
        match = _greedy_match(corr, list(active), candidates, min_correlation)
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
