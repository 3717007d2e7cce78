import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scatmodes as sm
from scatmodes import tracking
from scatmodes.errors import RuleMismatch
from scatmodes.modes import degenerate_groups
from scatmodes.tracking import TRACE_COLUMNS


def _orthonormal_farfields(rule, count, seed=0):
    """Random W-orthonormal far-field columns on a rule."""
    rng = np.random.default_rng(seed)
    n2 = 2 * rule.n_points
    w = np.concatenate([rule.weights, rule.weights])
    raw = rng.standard_normal((n2, count)) + 1j * rng.standard_normal((n2, count))
    cols = []
    for j in range(count):
        v = raw[:, j]
        for b in cols:
            v = v - b * ((np.conj(b) * w) @ v)
        v = v / np.sqrt(abs((np.conj(v) * w) @ v))
        cols.append(v)
    return np.column_stack(cols)


def _modeset(rule, eigenvalues, vectors, k):
    return sm.ModeSet(k=k, eigenvalues=np.asarray(eigenvalues, dtype=complex),
                      eigenvectors=vectors, rule=rule)


def test_sweep_result_validation():
    rule = sm.lebedev_rule(6)
    vecs = _orthonormal_farfields(rule, 2)
    ms = _modeset(rule, [1.0, 0.5], vecs, 1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        sm.SweepResult(frequencies=[2.0, 1.0], modesets=(ms, ms))
    with pytest.raises(ValueError, match="mode sets"):
        sm.SweepResult(frequencies=[1.0], modesets=(ms, ms))
    other = _modeset(sm.lebedev_rule(14), [1.0], np.ones((28, 1)) + 0j, 1.0)
    with pytest.raises(RuleMismatch):
        sm.SweepResult(frequencies=[1.0, 2.0], modesets=(ms, other))


def test_constant_farfield_single_traces():
    """Same patterns at all steps, only t varies: one trace per mode, corr 1."""
    rule = sm.lebedev_rule(14)
    vecs = _orthonormal_farfields(rule, 3)
    freqs = [1.0, 2.0, 3.0, 4.0]
    sets = tuple(_modeset(rule, [-1.0 * s, -0.5 * s, -0.25 * s], vecs, s)
                 for s in (1.0, 0.9, 0.8, 0.7))
    tracked = sm.track(sm.SweepResult(frequencies=freqs, modesets=sets))
    assert len(tracked.traces) == 3
    for tr in tracked.traces:
        assert tr.n_steps == 4
        assert np.allclose(tr.correlations, 1.0, atol=1e-12)


def test_crossing_follows_farfield_not_sort_order():
    """Two modes swap |t| order mid-sweep; traces follow the patterns."""
    rule = sm.lebedev_rule(14)
    vecs = _orthonormal_farfields(rule, 2)
    a, b = vecs[:, 0:1], vecs[:, 1:2]
    freqs = [1.0, 2.0, 3.0]
    # pattern a: |t| 0.9 -> 0.5 -> 0.2 ; pattern b: 0.4 -> 0.45 -> 0.8
    sets = (
        _modeset(rule, [-0.9, -0.4], np.hstack([a, b]), 1.0),
        _modeset(rule, [-0.5, -0.45], np.hstack([a, b]), 2.0),
        _modeset(rule, [-0.8, -0.2], np.hstack([b, a]), 3.0),  # order swapped
    )
    tracked = sm.track(sm.SweepResult(frequencies=freqs, modesets=sets))
    assert len(tracked.traces) == 2
    by_first = {tr.eigenvalues[0]: tr for tr in tracked.traces}
    trace_a = by_first[complex(-0.9)]
    trace_b = by_first[complex(-0.4)]
    assert [t.real for t in trace_a.eigenvalues] == [-0.9, -0.5, -0.2]
    assert [t.real for t in trace_b.eigenvalues] == [-0.4, -0.45, -0.8]


def test_traces_invariant_under_mode_permutation():
    rule = sm.lebedev_rule(14)
    vecs = _orthonormal_farfields(rule, 3)
    freqs = [1.0, 2.0]
    first = _modeset(rule, [-0.9, -0.6, -0.3], vecs, 1.0)
    second = _modeset(rule, [-0.8, -0.5, -0.2], vecs, 2.0)
    perm = [2, 0, 1]
    second_perm = _modeset(rule, np.array([-0.8, -0.5, -0.2])[perm],
                           vecs[:, perm], 2.0)
    t1 = sm.track(sm.SweepResult(frequencies=freqs, modesets=(first, second)))
    t2 = sm.track(sm.SweepResult(frequencies=freqs, modesets=(first, second_perm)))
    def ends(tracked):
        return sorted((tr.eigenvalues[0].real, tr.eigenvalues[-1].real)
                      for tr in tracked.traces)

    ends1, ends2 = ends(t1), ends(t2)
    assert ends1 == ends2


def test_weak_modes_excluded_and_new_traces_opened():
    rule = sm.lebedev_rule(14)
    vecs = _orthonormal_farfields(rule, 2)
    a, b = vecs[:, 0:1], vecs[:, 1:2]
    sets = (
        _modeset(rule, [-0.9], a, 1.0),
        _modeset(rule, [-0.9, -0.5], np.hstack([a, b]), 2.0),  # b appears
        _modeset(rule, [-1e-6, -0.5], np.hstack([a, b]), 3.0),  # a fades out
    )
    tracked = sm.track(sm.SweepResult(frequencies=[1.0, 2.0, 3.0],
                                      modesets=sets), min_significance=1e-3)
    lengths = sorted(tr.n_steps for tr in tracked.traces)
    assert lengths == [2, 2]  # a spans steps 0-1, b spans steps 1-2


def test_low_correlation_starts_new_trace():
    rule = sm.lebedev_rule(14)
    vecs = _orthonormal_farfields(rule, 2)
    a, b = vecs[:, 0:1], vecs[:, 1:2]
    sets = (_modeset(rule, [-0.9], a, 1.0),
            _modeset(rule, [-0.9], b, 2.0))  # orthogonal pattern: corr 0
    tracked = sm.track(sm.SweepResult(frequencies=[1.0, 2.0], modesets=sets))
    assert len(tracked.traces) == 2
    assert all(tr.n_steps == 1 for tr in tracked.traces)


def test_correlation_symmetry(magnetodielectric_sweep):
    """With no multiplet to rotate, the correlation of two steps is the same
    both ways round, and no entry passes 1 + 1e-12."""
    _, sweep = magnetodielectric_sweep
    prev, cur = (replace(ms, eigenvalues=np.arange(ms.n_modes, dtype=complex))
                 for ms in sweep.modesets[10:12])
    every = list(range(cur.n_modes))
    forward = tracking._correlations(prev, cur, every, every)
    backward = tracking._correlations(cur, prev, every, every)
    assert np.max(np.abs(forward - backward.T)) < 1e-12
    assert forward.max() <= 1.0 + 1e-12


def test_degenerate_multiplets_stay_tracked(magnetodielectric_sweep):
    _, sweep = magnetodielectric_sweep
    short = sm.SweepResult(frequencies=sweep.frequencies[:20],
                           modesets=sweep.modesets[:20])
    tracked = sm.track(short)
    for tr in tracked.traces:
        if tr.n_steps > 1:
            assert min(tr.correlations) > 0.99


def test_trace_export_rows():
    rule = sm.lebedev_rule(14)
    vecs = _orthonormal_farfields(rule, 2)
    sets = (_modeset(rule, [-0.9, -0.4], vecs, 1.0),
            _modeset(rule, [-0.8, -0.3], vecs, 2.0))
    tracked = sm.track(sm.SweepResult(frequencies=[1.0, 2.0], modesets=sets))
    rows = sm.trace_export(tracked)
    assert len(rows) == 4
    assert set(rows[0]) == set(TRACE_COLUMNS)
    first_rows = [r for r in rows if r["frequency"] == 1.0]
    assert all(r["correlation"] is None for r in first_rows)
    later = [r for r in rows if r["frequency"] == 2.0]
    assert all(r["correlation"] is not None for r in later)


def test_trace_export_empty_sweep():
    sweep = sm.SweepResult(frequencies=np.array([]), modesets=())
    assert sm.trace_export(sm.track(sweep)) == []


def _assert_same_traces(traces, reference, tol):
    """The same traces, start steps and mode indices, with eigenvalues and
    correlations within tol."""
    assert len(traces) == len(reference)
    for tr, ref in zip(traces, reference):
        assert (tr.trace_id, tr.start_step, tr.mode_indices) == \
            (ref.trace_id, ref.start_step, ref.mode_indices)
        assert np.max(np.abs(np.subtract(tr.eigenvalues, ref.eigenvalues))) \
            <= tol
        assert np.max(np.abs(np.subtract(tr.correlations, ref.correlations)),
                      initial=0.0) <= tol


def test_track_equals_aligning_every_multiplet(magnetodielectric_sweep,
                                               monkeypatch):
    """Leaving the insignificant multiplets out of the overlap product, and
    so unaligned, changes no trace."""
    _, sweep = magnetodielectric_sweep
    tracked = sm.track(sweep)
    # the skip is real: aligning the weak multiplets changes their columns
    prev, cur = sweep.modesets[0], sweep.modesets[1]
    weak = [grp for grp in degenerate_groups(cur.eigenvalues)
            if np.all(np.abs(cur.eigenvalues[grp]) < 1e-3)]
    assert weak
    every = list(range(cur.n_modes))
    aligned = tracking._correlations(prev, cur, every, every)
    weighted = cur.eigenvectors * cur.rule.doubled_weights[:, None]
    unaligned = np.abs(prev.eigenvectors.conj().T @ weighted)
    assert any(np.max(np.abs(aligned[:, grp] - unaligned[:, grp])) > 1e-3
               for grp in weak)

    correlations = tracking._correlations
    monkeypatch.setattr(
        tracking, "_correlations", lambda prev, cur, rows, candidates:
        correlations(prev, cur, rows, every)[:, candidates])
    _assert_same_traces(sm.track(sweep).traces, tracked.traces, 1e-13)


def test_tracks_equal_the_full_eig_tracks(magnetodielectric_sweep,
                                          full_eig_magnetodielectric_sweep):
    """The acceptance-6 traces keep their structure when decompose solves
    only the significant subspace: the same traces, start steps and mode
    indices, with eigenvalues and correlations equal to rounding."""
    traces = sm.track(magnetodielectric_sweep[1]).traces
    reference = sm.track(full_eig_magnetodielectric_sweep[1]).traces
    assert len(reference) > 40
    _assert_same_traces(traces, reference, 1e-12)


def _per_multiplet_alignment(prev, cur, candidates):
    """cur's eigenvectors with each multiplet that holds a candidate rotated
    toward prev's eigenvectors, one multiplet at a time: the orthogonal
    Procrustes rotation of the weighted overlap block on the rows of prev
    it overlaps most."""
    vecs = cur.eigenvectors.copy()
    overlap = prev.eigenvectors.conj().T @ (
        cur.eigenvectors * cur.rule.doubled_weights[:, None])
    matchable = np.zeros(cur.n_modes, dtype=bool)
    matchable[candidates] = True
    for grp in degenerate_groups(cur.eigenvalues):
        size = grp.stop - grp.start
        if overlap.shape[0] < size or not matchable[grp].any():
            continue
        block = overlap[:, grp]
        top = np.argsort(-np.linalg.norm(block, axis=1))[:size]
        u, _, vh = np.linalg.svd(block[np.sort(top), :])
        vecs[:, grp] = vecs[:, grp] @ (vh.conj().T @ u.conj().T)
    return vecs


def test_stacked_alignment_equals_the_per_multiplet_one(
        dielectric_sweep, magnetodielectric_sweep):
    """At every step of both 201-step sweeps, with the significant modes and
    with every mode as candidates: the correlation of the active rows with
    the candidates is |prev^H W (aligned)| within 1e-13."""
    for _, sweep in (dielectric_sweep, magnetodielectric_sweep):
        sets = sweep.modesets
        for prev, cur in zip(sets, sets[1:]):
            for strong in (lambda ms: np.abs(ms.eigenvalues) >= 1e-3,
                           lambda ms: np.ones(ms.n_modes, dtype=bool)):
                rows = np.flatnonzero(strong(prev)).tolist()
                candidates = np.flatnonzero(strong(cur)).tolist()
                aligned = _per_multiplet_alignment(prev, cur, candidates)
                want = np.abs(prev.eigenvectors.conj().T @ (
                    aligned * cur.rule.doubled_weights[:, None]))
                got = tracking._correlations(prev, cur, rows, candidates)
                assert got.shape == (len(rows), len(candidates))
                assert np.max(np.abs(got - want[np.ix_(rows, candidates)]),
                              initial=0.0) <= 1e-13


def _walk_greedy_match(corr, rows, cols, min_correlation):
    """_greedy_match as a walk over the whole stable descending sort."""
    sub = corr[np.ix_(rows, cols)]
    used_r, used_c, out = set(), set(), {}
    for idx in np.argsort(-sub.ravel(), kind="stable"):
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


# ties, values on and either side of the default threshold, NaN
_CORRELATIONS = st.sampled_from([0.0, 0.3, 0.7, math.nextafter(0.7, 0.0),
                                 math.nextafter(0.7, 1.0), 0.9, 1.0,
                                 1.0 + 1e-12, math.nan])


def _check_greedy_match(corr, rows, cols, min_correlation):
    got = tracking._greedy_match(corr[np.ix_(rows, cols)], rows, cols,
                                 min_correlation)
    ref = _walk_greedy_match(corr, rows, cols, min_correlation)
    assert list(got) == list(ref)
    for r, (c, val) in ref.items():
        assert got[r][0] == c and type(got[r][1]) is float
        assert got[r][1] == val or (math.isnan(val) and math.isnan(got[r][1]))


@pytest.mark.parametrize("corr, min_correlation", [
    ([[math.nan, 0.9], [0.8, math.nan]], 0.7),  # no entry below: NaN reached
    ([[math.nan, 0.9], [0.1, math.nan]], 0.7),  # 0.1 stops the walk first
    ([[0.7, 0.7], [0.7, 0.7]], 0.7),  # ties on the threshold, row-major
    ([[0.5, math.nan], [0.9, 0.2]], math.nan),  # nothing compares below NaN
])
def test_greedy_match_equals_the_full_walk_on_nan_and_ties(corr,
                                                           min_correlation):
    _check_greedy_match(np.array(corr), [1, 0], [0, 1], min_correlation)


@settings(max_examples=300)
@given(data=st.data(), n_prev=st.integers(0, 6), n_cur=st.integers(0, 6),
       min_correlation=st.sampled_from([0.7, 0.0, 0.9, math.nan]))
def test_greedy_match_equals_the_full_walk(data, n_prev, n_cur,
                                           min_correlation):
    corr = np.array(data.draw(st.lists(_CORRELATIONS, min_size=n_prev * n_cur,
                                       max_size=n_prev * n_cur)),
                    dtype=float).reshape(n_prev, n_cur)
    rows = data.draw(st.permutations(range(n_prev)))
    rows = rows[:data.draw(st.integers(0, n_prev))]
    cols = sorted(data.draw(st.sets(st.integers(0, max(n_cur - 1, 0)),
                                    max_size=n_cur))) if n_cur else []
    _check_greedy_match(corr, rows, cols, min_correlation)
