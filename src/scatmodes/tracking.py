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

    @property
    def last_step(self) -> int:
        return self.start_step + self.n_steps - 1


@dataclass(frozen=True)
class TrackedTraces:
    sweep: SweepResult
    traces: tuple


def _weighted(modeset: ModeSet) -> np.ndarray:
    w = np.concatenate([modeset.rule.weights, modeset.rule.weights])
    return modeset.eigenvectors * w[:, None]


def _align_degenerate(prev: ModeSet, cur: ModeSet) -> np.ndarray:
    """Rotate each degenerate eigenspace of cur toward prev's eigenvectors.

    Works on a copy; within a multiplet any unitary mixing is still an
    eigenbasis, so the orthogonal-Procrustes rotation of the weighted Gram
    block is physically free.
    """
    vecs = cur.eigenvectors.copy()
    overlap = prev.eigenvectors.conj().T @ _weighted(cur)  # (n_prev, n_cur)
    for grp in degenerate_groups(cur.eigenvalues):
        size = grp.stop - grp.start
        if overlap.shape[0] < size:
            continue
        block = overlap[:, grp]
        # pair the multiplet against its strongest predecessors, then solve
        # the square unitary Procrustes problem M Q ~ I
        top = np.argsort(-np.linalg.norm(block, axis=1))[:size]
        u, _, vh = np.linalg.svd(block[np.sort(top), :])
        q = vh.conj().T @ u.conj().T
        vecs[:, grp] = vecs[:, grp] @ q
    return vecs


def correlation_matrix(prev: ModeSet, cur: ModeSet,
                       cur_vectors: np.ndarray | None = None) -> np.ndarray:
    """|F_m^H diag(w) F_n| between the modes of two steps."""
    vecs = cur.eigenvectors if cur_vectors is None else cur_vectors
    w = np.concatenate([prev.rule.weights, prev.rule.weights])
    c = np.abs(prev.eigenvectors.conj().T @ (vecs * w[:, None]))
    return np.minimum(c, 1.0 + 1e-12)


def _greedy_match(corr: np.ndarray, rows, cols, min_correlation: float):
    """Assign rows to columns in descending correlation; injective by skip."""
    sub = corr[np.ix_(rows, cols)]
    # descending correlation; a stable sort keeps ties in row-major order
    order = np.argsort(-sub.ravel(), kind="stable")
    used_r, used_c, out = set(), set(), {}
    for idx in order:
        val = sub.flat[idx]
        if val < min_correlation:
            break
        r, c = rows[idx // len(cols)], cols[idx % len(cols)]
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        out[r] = (c, float(val))
    return out


def track(sweep: SweepResult,
          min_significance: float = DEFAULT_MIN_SIGNIFICANCE,
          min_correlation: float = DEFAULT_MIN_CORRELATION) -> TrackedTraces:
    """Build continuous eigenvalue traces over the sweep."""
    traces: list[Trace] = []
    if sweep.n_steps == 0:
        return TrackedTraces(sweep=sweep, traces=())

    def significant(ms: ModeSet):
        return [n for n in range(ms.n_modes)
                if abs(ms.eigenvalues[n]) >= min_significance]

    def open_trace(step, ms, n):
        tr = Trace(trace_id=len(traces), start_step=step)
        tr.mode_indices.append(n)
        tr.eigenvalues.append(complex(ms.eigenvalues[n]))
        traces.append(tr)
        return tr

    first = sweep.modesets[0]
    active = {n: open_trace(0, first, n) for n in significant(first)}

    for step in range(1, sweep.n_steps):
        prev, cur = sweep.modesets[step - 1], sweep.modesets[step]
        aligned = _align_degenerate(prev, cur)
        corr = correlation_matrix(prev, cur, aligned)
        match = _greedy_match(corr, list(active), significant(cur),
                              min_correlation)
        next_active = {}
        for m, trace in active.items():
            if m in match:
                n, val = match[m]
                trace.mode_indices.append(n)
                trace.eigenvalues.append(complex(cur.eigenvalues[n]))
                trace.correlations.append(val)
                next_active[n] = trace
        for n in significant(cur):
            if n not in next_active:
                next_active[n] = open_trace(step, cur, n)
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
