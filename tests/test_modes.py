import math
import multiprocessing
import sys
import threading
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import scatmodes as sm
from scatmodes import cli, dataio, modes
from scatmodes.errors import BelowSignificanceThreshold, EigensolverFailure
from scatmodes.mie import default_l_max
from scatmodes.modes import characteristic_angle, degenerate_groups, metrics
from scatmodes.swe import _tangential_components


def test_metrics_resonant_mode():
    m = metrics(-1.0 + 0.0j)
    assert m.lambda_n == pytest.approx(0.0)
    assert m.alpha_n == pytest.approx(math.pi)
    assert m.modal_significance == pytest.approx(1.0)
    assert m.s_n == pytest.approx(-1.0)
    assert m.lossless_residual < 1e-15


def test_metrics_half_circle_points():
    # t on the lossless circle at +/- 45 degrees from resonance
    m_ind = metrics(-0.5 - 0.5j)
    assert m_ind.lambda_n == pytest.approx(-1.0)
    assert m_ind.alpha_n == pytest.approx(5 * math.pi / 4)
    m_cap = metrics(-0.5 + 0.5j)
    assert m_cap.lambda_n == pytest.approx(1.0)
    assert m_cap.alpha_n == pytest.approx(3 * math.pi / 4)
    for m in (m_ind, m_cap):
        assert m.lossless_residual < 1e-15


def test_lambda_t_inverse_pair():
    rng = np.random.default_rng(1)
    for _ in range(20):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        t = sm.t_from_lambda(lam)
        assert metrics(t).lambda_n == pytest.approx(lam, abs=1e-12)


def test_metrics_zero_eigenvalue():
    m = metrics(0.0)
    assert m.lambda_n is None
    assert m.modal_significance == 0.0
    assert m.alpha_n == pytest.approx(math.pi / 2)


def test_characteristic_angle_weak_mode_reformulation():
    # for |t| below the floor the angle comes from arg(1 + 2t)
    t = 1e-9 * np.exp(1j * 0.3)
    alpha, endpoint = characteristic_angle(t)
    assert alpha == pytest.approx(np.angle(1 + 2 * t) / 2 + math.pi / 2)
    assert not endpoint
    a_weak, _ = characteristic_angle(-1e-8j)
    assert math.pi / 2 <= a_weak <= 3 * math.pi / 2


def test_characteristic_angle_range_and_endpoint():
    for phase in np.linspace(0, 2 * math.pi, 40, endpoint=False):
        t = -0.5 + 0.5 * np.exp(1j * phase)  # on the lossless circle
        alpha, endpoint = characteristic_angle(t)
        assert math.pi / 2 - 1e-12 <= alpha <= 3 * math.pi / 2 + 1e-12
    alpha, endpoint = characteristic_angle(1e-3 + 0j)  # positive real t
    assert endpoint
    assert alpha == pytest.approx(math.pi / 2)


def test_wavenumber_frequency_inverse():
    f = 3.1e8
    assert sm.frequency(sm.wavenumber(f)) == pytest.approx(f)


def test_decompose_requires_weighted(mie_modes_ka1):
    _, smat, _ = mie_modes_ka1
    with pytest.raises(ValueError, match="weighted"):
        sm.decompose(smat)


def test_decompose_sorted_normalized_orthogonal(mie_modes_ka1):
    rule, _, modeset = mie_modes_ka1
    sig = modeset.significance()
    assert np.all(np.diff(sig) <= 1e-12)
    gram = sm.farfield_orthogonality(modeset)
    assert np.max(np.abs(gram - np.eye(modeset.n_modes))) < 1e-10
    assert np.max(modeset.residuals) < 1e-12


def test_decompose_deterministic(mie_modes_ka1):
    _, smat, modeset = mie_modes_ka1
    again = sm.decompose(sm.apply_weights(smat))
    assert np.array_equal(again.eigenvalues, modeset.eigenvalues)
    assert np.array_equal(again.eigenvectors, modeset.eigenvectors)


def _raw_eigenpairs(smat):
    """The raw eigenpairs decompose starts from: the band route's where it
    takes them, else _eigenpairs'."""
    band = modes._band_pairs(smat.matrix, smat.rule)
    if band is not None:
        return band[:2]
    return modes._eigenpairs(smat.matrix, smat.rule.doubled_weights)[:2]


def _reference_decompose(smat):
    """decompose's post-processing as column loops on its raw eigenpairs:
    normalize each column with t != 0 and phase-fix every column, sort,
    then modified Gram-Schmidt inside each multiplet of nonzero values.
    The t = 0 run keeps the |w|-orthonormal basis of the solve."""
    w = smat.rule.doubled_weights
    values, vectors = _raw_eigenpairs(smat)

    def phase_fix(vec):
        pivot = vec[int(np.argmax(np.abs(vec)))]
        return vec if pivot == 0 else vec * (abs(pivot) / pivot)

    for n in range(vectors.shape[1]):
        nrm = abs((np.conj(vectors[:, n]) * w) @ vectors[:, n])
        if nrm > 0 and values[n] != 0:
            vectors[:, n] /= math.sqrt(nrm)
        vectors[:, n] = phase_fix(vectors[:, n])

    keys = []
    for n, t in enumerate(values):
        first = vectors[np.argmax(np.abs(vectors[:, n]) > 0), n]
        keys.append((-np.abs(t), np.angle(t) % (2 * math.pi), np.abs(first)))
    order = np.array(sorted(range(len(values)), key=lambda n: keys[n]))
    values, vectors = values[order], vectors[:, order]

    start = 0
    for i in range(1, len(values) + 1):
        if i < len(values) and (values[i] == 0) == (values[start] == 0) \
                and abs(values[i] - values[start]) <= \
                1e-8 * max(1.0, abs(values[start])):
            continue
        if i - start > 1 and values[start] != 0:
            basis = []
            for n in range(start, i):
                v = vectors[:, n].copy()
                for b in basis:
                    v -= b * ((np.conj(b) * w) @ v)
                nrm = math.sqrt(abs((np.conj(v) * w) @ v))
                if nrm > 1e-14:
                    v /= nrm
                basis.append(v)
            for n, v in enumerate(basis, start=start):
                vectors[:, n] = phase_fix(v)
        start = i
    return values, vectors


def _layered_sphere_38(ka, rule=None):
    """The acceptance-6 magnetodielectric sphere on the 38-point rule."""
    sphere = sm.LayeredSphere(1.0, tuple(
        sm.Layer(e, m, f) for e, m, f in
        zip([1, 5, 1, 2], [3, 1, 8, 1], [0.25, 0.5, 0.75, 1.0])))
    rule = rule or sm.lebedev_rule(38)
    tmat = sm.layered_tmatrix(sphere, ka, default_l_max(rule))
    return sm.apply_weights(sm.s_from_t(tmat, rule, k=ka))


def _projector(f, w):
    return f @ (f.conj().T * w[None, :])


def _gram(f, w):
    return f.conj().T @ (f * w[:, None])


@pytest.mark.parametrize("case", ["mie26", "dda50", 0.5, 1.7, 2.9, 3.5, 4.5])
def test_decompose_matches_gram_schmidt_reference(case, mie_modes_ka1,
                                                  dda_pipeline):
    # sphere modes all come in multiplets; the dipole block has singlets
    if case == "mie26":
        weighted = sm.apply_weights(mie_modes_ka1[1])
    elif case == "dda50":
        weighted = sm.apply_weights(dda_pipeline[4])
    else:
        weighted = _layered_sphere_38(case)
    modeset = sm.decompose(weighted)
    values, vectors = _reference_decompose(weighted)

    assert np.array_equal(modeset.eigenvalues, values)
    w = weighted.rule.doubled_weights
    single = np.ones(len(values), dtype=bool)
    groups = degenerate_groups(values)
    assert groups  # every case has a null cluster
    for grp in groups:
        single[grp] = False
        assert np.max(np.abs(_projector(modeset.eigenvectors[:, grp], w)
                             - _projector(vectors[:, grp], w))) <= 1e-12
    if single.any():
        assert np.max(np.abs(modeset.eigenvectors[:, single]
                             - vectors[:, single])) <= 1e-14
    gram = sm.farfield_orthogonality(modeset)
    assert np.max(np.abs(gram - np.eye(modeset.n_modes))) <= 1e-10


@pytest.mark.parametrize("n_q, ka", [(74, 1.0), (74, 2.0), (230, 1.0)])
def test_decompose_on_rules_with_negative_weights(n_q, ka, sphere_eps3):
    # the signed product is indefinite on the null cluster, which keeps the
    # |w|-orthonormal basis of the solve; every other multiplet, the
    # smallest one with |t| ~ 1e-9 too, gets the reference's w-orthonormal
    # Gram-Schmidt basis
    rule = sm.lebedev_rule(n_q)
    tmat = sm.layered_tmatrix(sphere_eps3, ka, default_l_max(rule))
    weighted = sm.apply_weights(sm.s_from_t(tmat, rule, k=ka))
    modeset = sm.decompose(weighted)
    values, vectors = _reference_decompose(weighted)

    assert np.array_equal(modeset.eigenvalues, values)
    w = weighted.rule.doubled_weights
    assert np.any(w < 0)
    definite, indefinite = 0, 0
    for grp in degenerate_groups(values):
        f, ref = modeset.eigenvectors[:, grp], vectors[:, grp]
        eye = np.eye(f.shape[1])
        if modeset.eigenvalues[grp.start] != 0:
            definite += 1
            assert np.linalg.eigvalsh(_gram(ref, w)).min() > 0
            assert np.max(np.abs(_projector(f, w)
                                 - _projector(ref, w))) <= 1e-12
            assert np.max(np.abs(_gram(f, w) - eye)) <= 1e-10
        else:
            indefinite += 1
            assert np.max(np.abs(_gram(f, np.abs(w)) - eye)) <= 1e-10
            assert np.max(np.abs(_projector(f, np.abs(w)) @ ref
                                 - ref)) <= 1e-12
    assert definite >= 5 and indefinite == 1
    assert np.all(np.isfinite(modeset.eigenvectors))


def test_degenerate_groups_never_join_zero_with_nonzero():
    # below |t| = 1 the tolerance is absolute, so 3e-9, 2e-9j and 1e-12
    # are one run; the exact zeros that follow are another
    values = np.array([0.5, 0.5, 3e-9, 2e-9j, 1e-12, 0, 0, 0])
    assert degenerate_groups(values) == [slice(0, 2), slice(2, 5),
                                         slice(5, 8)]
    assert degenerate_groups(np.array([1e-12, 0, 0])) == [slice(1, 3)]
    assert degenerate_groups(np.array([1e-12, 0])) == []


def test_decompose_sends_the_null_run_to_no_qr(sphere_eps3, monkeypatch):
    """At N_q=302 the null run is 444 of 604 modes; decompose runs no
    pivoted QR, and its one QR is the geqrf of the n x c band cut (c = 160
    columns, degrees 1 to 8), whose unmqr gives the null run: no
    Gram-Schmidt either."""
    rule = sm.lebedev_rule(302)
    weighted = sm.apply_weights(sm.MieBackend(sphere_eps3).sample(rule, 0.97))
    calls = []
    real = scipy.linalg.get_lapack_funcs

    def recording(names, arrays):
        def record(name, func):
            def call(a, *args, **kwargs):
                if kwargs.get("lwork") != -1:
                    calls.append((name, np.shape(a)))
                return func(a, *args, **kwargs)
            return call
        return [record(name, func) if name in ("geqp3", "geqrf") else func
                for name, func in zip(names, real(names, arrays))]

    def never(*args):
        raise AssertionError("decompose ran a pivoted QR")

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", recording)
    monkeypatch.setattr(modes, "_pivoted_qr", never)
    monkeypatch.setattr(modes, "_orthonormalize_degenerate", never)
    modeset = sm.decompose(weighted)
    null = int(np.count_nonzero(modeset.eigenvalues == 0))
    assert null > 400
    assert calls == [("geqrf", (604, 604 - null))] and null == 604 - 160
    w = rule.doubled_weights
    f = modeset.eigenvectors[:, -null:]
    assert np.max(np.abs(_gram(f, w) - np.eye(null))) <= 1e-12
    assert np.max(modeset.residuals[-null:]) <= 1e-12


def test_lossless_residual_per_mode(mie_modes_ka1):
    _, _, modeset = mie_modes_ka1
    res = sm.lossless_residual(modeset)
    assert res.shape == (modeset.n_modes,)
    assert sm.max_lossless_residual(modeset, top=25) == pytest.approx(
        np.max(res[:25]))


def test_characteristic_excitation_below_floor():
    rule = sm.lebedev_rule(6)
    f = np.zeros(12, dtype=complex)
    with pytest.raises(BelowSignificanceThreshold):
        sm.characteristic_excitation(f, 1e-9, rule, 1.0)


def test_characteristic_excitation_is_quadrature_sum(mie_modes_ka1):
    rule, _, modeset = mie_modes_ka1
    k = modeset.k
    f_n, t_n = modeset.eigenvectors[:, 0], modeset.eigenvalues[0]
    field = sm.characteristic_excitation(f_n, t_n, rule, k)
    r = np.array([0.21, -0.13, 0.32])
    n = rule.n_points
    expected = np.zeros(3, dtype=complex)
    for q, w in enumerate(rule.weights):
        p = rule.direction(q)
        amp = -1j * k / (4 * math.pi * t_n) * w
        vec = f_n[q] * p.theta_hat + f_n[n + q] * p.phi_hat
        expected += amp * vec * np.exp(-1j * k * (p.unit_vector @ r))
    assert np.allclose(field(r), expected, atol=1e-14)


def test_farfield_orthogonality_needs_rule():
    modeset = sm.ModeSet(k=1.0, eigenvalues=np.array([1.0 + 0j]),
                         eigenvectors=np.eye(1, dtype=complex), rule=None)
    with pytest.raises(ValueError, match="rule"):
        sm.farfield_orthogonality(modeset)


def _tuple_key_order(values, vectors):
    """The mode order as a stable sort on (-|t|, arg t mod 2 pi, |first|)
    key tuples."""
    firsts = vectors[np.argmax(vectors != 0, axis=0),
                     np.arange(vectors.shape[1])]
    keys = list(zip(-np.abs(values), np.angle(values) % (2 * math.pi),
                    np.abs(firsts)))
    return np.array(sorted(range(len(values)), key=keys.__getitem__))


def test_sort_order_equals_the_tuple_key_sort():
    rng = np.random.default_rng(7)
    # few distinct values, signed zeros and tiny magnitudes force ties on
    # every key and exercise the angle branch cuts
    pool = np.array([0.0, -0.0, 1e-300, -2.5e-17, 0.3, -0.3, 1.0, -1.0])

    def draw(shape):
        z = np.empty(shape, dtype=complex)
        z.real, z.imag = rng.choice(pool, shape), rng.choice(pool, shape)
        return z

    for _ in range(300):
        n = int(rng.integers(1, 40))
        values, vectors = draw(n), draw((6, n))
        assert np.array_equal(modes._sort_order(values, vectors),
                              _tuple_key_order(values, vectors))
    # one multiplet, ordered by its first entries' magnitudes alone
    for _ in range(20):
        n = 12
        values = np.full(n, 0.25 - 0.4j)
        vectors = np.zeros((3, n), dtype=complex)
        vectors[1] = 0.7 * np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        assert np.array_equal(modes._sort_order(values, vectors),
                              _tuple_key_order(values, vectors))
    for n_q, ka in [(26, 1.0), (38, 3.4), (74, 2.0)]:
        rule = sm.lebedev_rule(n_q)
        smat = sm.s_from_t(sm.layered_tmatrix(
            sm.LayeredSphere.homogeneous(1.0, 3.0), ka,
            default_l_max(rule)), rule, k=ka)
        values, vectors = scipy.linalg.eig(sm.apply_weights(smat).matrix)
        assert np.array_equal(modes._sort_order(values, vectors),
                              _tuple_key_order(values, vectors))


def _reference_modes(smat):
    """The oracle's reference, as (values, vectors, residuals):
    scipy.linalg.eig after a full geqp3 (_scipy_eigenpairs), through
    decompose's post-processing spelled out with the tuple-key sort and
    Gram-Schmidt by scipy.linalg.qr inside every multiplet."""
    w = smat.rule.doubled_weights
    values, vectors = _scipy_eigenpairs(smat.matrix, w)

    def phase_fix(v):
        pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        pivots[pivots == 0] = 1.0
        v *= np.abs(pivots) / pivots

    nrm = np.abs(w @ np.abs(vectors) ** 2)
    nrm[(nrm == 0) | (values == 0)] = 1.0
    vectors /= np.sqrt(nrm)
    phase_fix(vectors)
    order = _tuple_key_order(values, vectors)
    values, vectors = values[order], vectors[:, order]
    sqrt_w = np.sqrt(np.abs(w))[:, None]
    for grp in degenerate_groups(values):
        if values[grp.start] == 0:
            continue
        q, _ = scipy.linalg.qr(vectors[:, grp] * sqrt_w, mode="economic",
                               overwrite_a=True)
        q /= sqrt_w
        if np.any(w < 0):
            try:
                r = scipy.linalg.cholesky(q.conj().T @ (q * w[:, None]))
            except scipy.linalg.LinAlgError:
                pass
            else:
                q = scipy.linalg.solve_triangular(r, q.T, trans="T").T
        phase_fix(q)
        vectors[:, grp] = q
    residuals = np.linalg.norm(
        smat.matrix @ vectors - vectors * values[None, :], axis=0)
    return values, vectors, residuals


def test_sweeps_meet_the_full_qr_oracle(dielectric_matrices, dielectric_sweep,
                                        magnetodielectric_matrices,
                                        magnetodielectric_sweep):
    """Both acceptance-6 sweeps, 201 N_q=38 steps each: each step's modes
    against the oracle, the traces against the
    reference's, residuals over |t| > 1e-6 within 1e-13 and the far fields
    w-orthonormal within 1e-10.  The synthesis is (A diag(T)) A^H, bit for
    bit, with a freshly built VSH matrix A."""
    kas, weighted = magnetodielectric_matrices
    sphere = sm.LayeredSphere(1.0, tuple(
        sm.Layer(e, m, f) for e, m, f in
        zip([1, 5, 1, 2], [3, 1, 8, 1], [0.25, 0.5, 0.75, 1.0])))
    rule = weighted[0].rule
    a = np.vstack(_tangential_components(4, rule.theta, rule.phi))
    assert len(kas) == 201 and rule.n_points == 38
    for ka, smat in zip(kas, weighted):
        tmat = sm.layered_tmatrix(sphere, ka, 4)
        fresh = (a * np.diagonal(tmat.entries)) @ a.conj().T
        assert _same_bits(sm.s_from_t(tmat, rule, k=ka).matrix, fresh)
        assert _same_bits(smat.matrix, fresh * rule.doubled_weights)
    for (_, weighted), (_, sweep) in ((dielectric_matrices, dielectric_sweep),
                                      (magnetodielectric_matrices,
                                       magnetodielectric_sweep)):
        references = []
        for smat, modeset in zip(weighted, sweep.modesets):
            references.append(_reference_modes(smat))
            _assert_meets_the_oracle(smat, modeset, references[-1])
            significant = np.abs(modeset.eigenvalues) > 1e-6
            assert np.max(modeset.residuals[significant]) <= 1e-13
            assert np.max(np.abs(sm.farfield_orthogonality(modeset)
                                 - np.eye(76))) <= 1e-10
        _assert_same_traces(sweep, [sm.ModeSet(
            k=ms.k, eigenvalues=v, eigenvectors=f, rule=ms.rule, residuals=r)
            for ms, (v, f, r) in zip(sweep.modesets, references)])


def _span_projector(f, w):
    """|w|-orthogonal projector onto span(f), whatever basis f holds."""
    aw = np.abs(w)
    return f @ np.linalg.solve(f.conj().T @ (f * aw[:, None]), f.conj().T * aw)


def _assert_same_modes(w, values, vectors, ref_values, ref_vectors):
    """The significant-subspace solve against the full eig, both through
    decompose's post-processing: identical multiplets, significant
    eigenvalues within 1e-12 |t_1|, and projectors within 1e-8.

    Each significant multiplet and singlet is compared by its projector (a
    singlet column's phase-fix pivot can land on an exact magnitude tie).
    Below SIGNIFICANCE_FLOOR the eigenvectors are conditioned by gaps of
    order |t|, in either solver, so those modes are compared as one span;
    the full eig has no exact zeros there, so its runs differ too.
    """
    significant = np.abs(ref_values) > modes.SIGNIFICANCE_FLOOR
    assert np.array_equal(np.abs(values) > modes.SIGNIFICANCE_FLOOR,
                          significant)
    assert np.max(np.abs(values - ref_values)[significant],
                  initial=0.0) <= 1e-12 * abs(ref_values[0])
    n = len(values)
    cut = int(np.count_nonzero(significant))
    groups = [grp for grp in degenerate_groups(values) if grp.start < cut]
    assert groups == [grp for grp in degenerate_groups(ref_values)
                      if grp.start < cut]
    cut = max([cut] + [grp.stop for grp in groups])
    spans = list(groups)
    grouped = np.zeros(n, dtype=bool)
    for grp in groups:
        grouped[grp] = True
    spans += [slice(i, i + 1) for i in range(cut) if not grouped[i]]
    spans += [slice(cut, n)] if cut < n else []
    for span in spans:
        assert np.max(np.abs(_span_projector(vectors[:, span], w)
                             - _span_projector(ref_vectors[:, span], w))) \
            <= 1e-8


def _assert_matches_full_eig(weighted, modeset, reference):
    """_assert_same_modes, every eigenpair residual within 1e-10, for the
    raw pairs of the solve and for decompose's modes, and the null run
    |w|-orthonormal."""
    w = weighted.rule.doubled_weights
    _assert_same_modes(w, modeset.eigenvalues, modeset.eigenvectors,
                       reference.eigenvalues, reference.eigenvectors)
    values, vectors, _ = modes._eigenpairs(weighted.matrix, w)
    live = values != 0  # the null run comes |w|-orthonormal
    vectors[:, live] /= np.sqrt(np.abs(w @ np.abs(vectors[:, live]) ** 2))
    assert np.max(np.linalg.norm(weighted.matrix @ vectors - vectors * values,
                                 axis=0)) <= 1e-10
    assert np.max(modeset.residuals) <= 1e-10
    null = modeset.eigenvectors[:, modeset.eigenvalues == 0]
    assert np.max(np.abs(_gram(null, np.abs(w)) - np.eye(null.shape[1]))) \
        <= 1e-12
    assert modeset.n_modes == len(w)


@pytest.mark.parametrize("n_q, ka", [(26, 1.0), (38, 1.0), (74, 1.0),
                                     (74, 2.0), (110, 1.0), (230, 1.0),
                                     (230, 2.0), (302, 1.0)])
def test_eigenpairs_match_full_eig(n_q, ka, sphere_eps3, full_eig_decompose):
    rule = sm.lebedev_rule(n_q)
    l_max = default_l_max(rule)
    tmat = sm.layered_tmatrix(sphere_eps3, ka, l_max)
    weighted = sm.apply_weights(sm.s_from_t(tmat, rule, k=ka))
    modeset = sm.decompose(weighted)
    # the rank of S, and so the eig, is bounded by the channel count
    assert np.count_nonzero(modeset.eigenvalues) <= sm.n_swe(l_max) \
        < modeset.n_modes
    _assert_matches_full_eig(weighted, modeset, full_eig_decompose(weighted))


def test_eigenpairs_match_full_eig_on_dipole_block(dda_pipeline,
                                                   full_eig_decompose):
    weighted = sm.apply_weights(dda_pipeline[4])
    _assert_matches_full_eig(weighted, sm.decompose(weighted),
                             full_eig_decompose(weighted))


def test_eigenpairs_match_full_eig_over_the_sweep(
        magnetodielectric_matrices, magnetodielectric_sweep,
        full_eig_magnetodielectric_sweep):
    _, weighted = magnetodielectric_matrices
    _, sweep = magnetodielectric_sweep
    _, reference = full_eig_magnetodielectric_sweep
    assert len(weighted) == 201
    for smat, modeset, ref in zip(weighted, sweep.modesets,
                                  reference.modesets):
        _assert_matches_full_eig(smat, modeset, ref)


def test_eigenpairs_at_full_rank_are_the_full_eig():
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    values, vectors, orthonormal = modes._eigenpairs(matrix, np.ones(12))
    assert not orthonormal
    ref_values, ref_vectors = scipy.linalg.eig(matrix)
    assert np.array_equal(values, ref_values)
    assert np.array_equal(vectors, ref_vectors)


def _same_bits(got, ref):
    """Equal shapes, dtypes and bytes: signed zeros and NaN payloads too."""
    return (got.shape == ref.shape and got.dtype == ref.dtype
            and got.tobytes() == ref.tobytes())


def _recorded_eigs(monkeypatch):
    """The blocks _eigenpairs hands scipy.linalg.eig, each recorded before
    the call with what the call returned."""
    solved, real = [], scipy.linalg.eig

    def recording(a, **kwargs):
        solved.append((a.copy(), real(a, **kwargs)))
        return solved[-1][1]

    monkeypatch.setattr(scipy.linalg, "eig", recording)
    return solved, real


def test_geev_equals_scipy_eig_on_every_block_it_solves(
        magnetodielectric_matrices, monkeypatch):
    """The acceptance-6 sphere swept over the 74-point rule, which has
    negative weights, and the sweep's samples with noise of 1e-12 max|S|,
    which are not normal: eig runs once per step, on the r x r block on
    the 74-point rule and on the whole matrix of the noisy samples, which
    have full rank.  The eigenvalues _eigenpairs returns are those of
    scipy.linalg.eig of that matrix, as a plain call gives them, bit for
    bit."""
    kas, weighted = magnetodielectric_matrices
    sphere = sm.LayeredSphere(1.0, tuple(
        sm.Layer(e, m, f) for e, m, f in
        zip([1, 5, 1, 2], [3, 1, 8, 1], [0.25, 0.5, 0.75, 1.0])))
    rule = sm.lebedev_rule(74)
    cases = [sm.apply_weights(sm.MieBackend(sphere).sample(rule, ka))
             for ka in kas[::5]]
    cases += [sm.apply_weights(_noisy(_unweighted(smat), 1e-12))
              for smat in weighted[::5]]
    got = []
    with monkeypatch.context() as patched:
        solved, real = _recorded_eigs(patched)
        for smat in cases:
            values, _, hermitian = modes._eigenpairs(
                smat.matrix, smat.rule.doubled_weights)
            assert not hermitian
            got.append(values)
    assert len(solved) == len(cases) == 82
    assert all(len(a) < 148 for a, _ in solved[:41])  # r x r, r < n
    for values, (a, (eig_values, eig_vectors)) in zip(got, solved):
        ref_values, ref_vectors = real(a)
        assert _same_bits(eig_values, ref_values)
        assert _same_bits(eig_vectors, ref_vectors)
        assert _same_bits(values[:len(a)], ref_values)


def _unweighted(smat):
    """The samples S_0 of a weighted matrix S = S_0 W."""
    return sm.ScatteringMatrix(rule=smat.rule, k=smat.k,
                               matrix=smat.matrix / smat.rule.doubled_weights)


def test_eigenpairs_of_a_zero_matrix_are_a_null_basis():
    w = np.array([0.5, 2.0, -0.25, 1.0, 4.0, 0.125])
    values, vectors, _ = modes._eigenpairs(np.zeros((6, 6), dtype=complex), w)
    assert np.array_equal(values, np.zeros(6))
    assert np.allclose(_gram(vectors, np.abs(w)), np.eye(6),
                       rtol=0, atol=1e-15)


def _full_rank_noise(n_q):
    """test_scattering's seeded noise samples on the rule of n_q points:
    full rank, as noisy solver data is."""
    noise = np.random.default_rng(n_q).standard_normal((2 * n_q, 2 * n_q))
    return sm.ScatteringMatrix(rule=sm.lebedev_rule(n_q), k=1.3,
                               matrix=noise * (1.0 + 1j))


@pytest.mark.parametrize("failing", ["geqp3", "orgqr", "unmqr", "geqrf",
                                     "geev"])
def test_a_failed_lapack_call_is_an_eigensolver_failure(
        failing, sphere_eps3, mie_modes_ka1, mie_eps3_110, dda_pipeline,
        monkeypatch):
    """A negative info is a bad argument; a positive one a numerical
    failure, such as a geev that does not converge.  geqrf and unmqr run on
    both routes: on the band route of N_q=26 and 110, where they form the
    null run, and on the geev route of N_q=230, which has negative
    weights, where geqrf forms the null basis.  geqp3, orgqr and unmqr run
    on _eigenpairs' Hermitian route of the dipole block, whose samples
    alias out of the band.  geev solves N_q=230's r x r block and the
    full-rank matrix of noisy samples inside scipy.linalg.eig, which makes
    a LinAlgError of a positive info only (a negative one is its
    ValueError).  geqp3 runs on the dipole block, the noisy N_q=110
    samples and the full-rank N_q=26 noise."""
    real = scipy.linalg.get_lapack_funcs
    signed = sm.MieBackend(sphere_eps3).sample(sm.lebedev_rule(230), 1.0)
    block = dda_pipeline[4]
    band = [mie_modes_ka1[1], mie_eps3_110]
    cases = {"geqp3": [block, _noisy(mie_eps3_110, 1e-6),
                       _full_rank_noise(26)],
             "orgqr": [block, signed],
             "unmqr": [block, signed, *band],
             "geqrf": [signed, *band],
             "geev": [signed, _full_rank_noise(26)]}[failing]
    for info in (2,) if failing == "geev" else (-1, 2):
        def with_failure(names, arrays):
            def fail(func):
                def call(*args, **kwargs):
                    return (*func(*args, **kwargs)[:-1], info)
                call.typecode = func.typecode  # eig reads it
                return call
            return [fail(func) if name == failing else func
                    for name, func in zip(names, real(names, arrays))]

        message = ("eig algorithm (geev) did not converge" if failing == "geev"
                   else f"LAPACK {failing} failed (info {info})")
        with monkeypatch.context() as patched:
            patched.setattr(scipy.linalg, "get_lapack_funcs", with_failure)
            # where scipy.linalg.eig looks its routines up
            patched.setattr(sys.modules[scipy.linalg.eig.__module__],
                            "get_lapack_funcs", with_failure)
            threads = threading.active_count()
            for smat in cases:
                with pytest.raises(EigensolverFailure) as excinfo:
                    sm.decompose(sm.apply_weights(smat))
                assert message in str(excinfo.value.__cause__)
                assert threading.active_count() == threads


@pytest.mark.xfail(strict=True, reason=(
    "DEGENERACY_TOL is absolute below |t| = 1: the noise splits a small "
    "multiplet by less than it, and _orthonormalize_degenerate then mixes "
    "eigenvectors of different eigenvalues (ROADMAP item 3)"))
def test_solver_noise_keeps_the_eigenpair_residuals_small(mie_eps3_110):
    """Samples with noise of 1e-6 max|S|, as a full-wave solver gives them,
    still decompose into eigenpairs that pass validate's 1e-8 check: the
    raw eigenpairs' residuals are 5e-16.  The defect reads 4.2e-8 here."""
    smat = mie_eps3_110
    noise = np.random.default_rng(0).standard_normal((2, *smat.matrix.shape))
    scale = 1e-6 * np.max(np.abs(smat.matrix))
    noisy = sm.ScatteringMatrix(
        rule=smat.rule, k=smat.k,
        matrix=smat.matrix + scale * (noise[0] + 1j * noise[1]))
    assert dataio.validation_report(noisy)["eigenpair_residual_max"] < 1e-8


@given(order=st.permutations(range(38)), ka=st.floats(0.5, 4.5))
def test_decompose_is_invariant_under_point_order(order, ka):
    """The pivoted QR sees the columns in rule order; the modes must not."""
    rule = sm.lebedev_rule(38)
    moved = sm.QuadratureRule(
        theta=rule.theta[order], phi=rule.phi[order],
        weights=rule.weights[order], order_capability=rule.order_capability,
        name="lebedev-38-permuted")
    base = sm.decompose(_layered_sphere_38(ka, rule))
    permuted = sm.decompose(_layered_sphere_38(ka, moved))
    rows = np.concatenate([order, np.add(order, 38)])
    vectors = np.empty_like(permuted.eigenvectors)
    vectors[rows] = permuted.eigenvectors
    _assert_same_modes(rule.doubled_weights, permuted.eigenvalues, vectors,
                       base.eigenvalues, base.eigenvectors)


def _scalar_degenerate_groups(values):
    """The one-pass scalar scan that degenerate_groups must reproduce."""
    groups, start = [], 0
    values = np.asarray(values).tolist()
    for i in range(1, len(values) + 1):
        if (i == len(values)
                or (values[i] == 0) != (values[start] == 0)
                or abs(values[i] - values[start])
                > modes.DEGENERACY_TOL * max(1.0, abs(values[start]))):
            if i - start > 1:
                groups.append(slice(start, i))
            start = i
    return groups


# parts on and either side of the tolerance (2e-8 - 1e-8 is exactly 1e-8),
# signed zeros, NaN and infinity
_PARTS = st.sampled_from([0.0, -0.0, 1e-12, 1e-8, 2e-8, 4e-8, 0.5,
                          0.5 + 1e-8, 0.5 + 2e-8, 1.0, 1.0 + 1e-8, 2.0,
                          2.0 + 2e-8, 2.0 + 4e-8, -2.0, math.nan, math.inf])
_VALUES = st.lists(st.builds(complex, _PARTS, _PARTS)
                   | st.complex_numbers(max_magnitude=1e6), max_size=24)


@settings(max_examples=300)
@given(values=_VALUES, by_magnitude=st.booleans(), real=st.booleans())
def test_degenerate_groups_equal_the_scalar_scan(values, by_magnitude, real):
    if by_magnitude:
        values.sort(key=lambda t: -abs(t) if abs(t) == abs(t) else 0.0)
    arr = np.array(values, dtype=complex)
    if real:
        arr = arr.real.copy()
    assert degenerate_groups(arr) == _scalar_degenerate_groups(arr)


def test_degenerate_groups_equal_the_scalar_scan_over_the_sweep(
        magnetodielectric_sweep):
    _, sweep = magnetodielectric_sweep
    for modeset in sweep.modesets:
        assert degenerate_groups(modeset.eigenvalues) == \
            _scalar_degenerate_groups(modeset.eigenvalues)


def _scale(weights):
    """D's diagonal in _eigenpairs: W^1/2 where the weights are positive,
    ones where they are signed."""
    return np.sqrt(weights) if np.all(weights > 0) else np.ones(len(weights))


def _solved(matrix, weights):
    """The matrix _eigenpairs factors, N = D S D^-1, formed as _pivoted_qr
    forms it."""
    scale = _scale(weights)
    return matrix * scale[:, None] * (1.0 / scale)


def _orgqr(a, tau):
    """LAPACK orgqr with the workspace its own query asks for."""
    (orgqr,) = scipy.linalg.get_lapack_funcs(("orgqr",), (a,))
    lwork = int(orgqr(a, tau, lwork=-1)[1][0].real)
    q, _, info = orgqr(a, tau, lwork=lwork)
    assert info == 0
    return q


def _scipy_eigenpairs(matrix, weights):
    """The reference eigenpairs: _eigenpairs' geev route through
    scipy.linalg on every input, normal or not.  A full geqp3 of the matrix
    it solves (_solved, by scipy.linalg.qr), scipy.linalg.eig of the r x r
    block, and, another way than _eigenpairs builds it, a |w|-orthonormal
    basis of the null space of the truncated R, P [-R11^-1 R12; I], by
    solve_triangular, tpqrt and tpmqrt; the weak modes' null-space
    component projected out on rules with positive weights."""
    n = matrix.shape[0]
    positive = np.all(weights > 0)
    scale = _scale(weights)
    (qr, tau), rmat, perm = scipy.linalg.qr(_solved(matrix, weights),
                                            pivoting=True, mode="raw")
    diag = np.abs(np.diag(rmat))
    rank = int(np.count_nonzero(diag > n * np.finfo(float).eps * diag[0]))
    if rank == n:
        return scipy.linalg.eig(matrix)
    if rank == 0:
        return (np.zeros(n, dtype=complex),
                np.diag(1.0 / np.sqrt(np.abs(weights)) + 0j))
    tpqrt, tpmqrt = scipy.linalg.get_lapack_funcs(("tpqrt", "tpmqrt"), (qr,))
    q = _orgqr(qr[:, :rank], tau[:rank])
    values = np.zeros(n, dtype=complex)
    vectors = np.zeros((n, n), dtype=complex)
    values[:rank], y = scipy.linalg.eig(rmat[:rank, np.argsort(perm)] @ q)
    vectors[:, :rank] = q @ y * (1.0 / scale)[:, None]
    sqrt_w = (np.sqrt(np.abs(weights)) / scale)[perm]
    null = n - rank
    x = -scipy.linalg.solve_triangular(rmat[:rank, :rank], rmat[:rank, rank:])
    _, v, t, _ = tpqrt(0, min(null, 32), np.diag(sqrt_w[rank:] + 0j),
                       x * sqrt_w[:rank, None], overwrite_a=1, overwrite_b=1)
    q_top, q_bottom, _ = tpmqrt(0, v, t, np.eye(null, dtype=complex),
                                np.zeros((rank, null), dtype=complex),
                                overwrite_a=1, overwrite_b=1)
    root = np.sqrt(np.abs(weights))[perm]
    vectors[perm[rank:], rank:] = q_top / root[rank:, None]
    vectors[perm[:rank], rank:] = q_bottom / root[:rank, None]
    weak = np.flatnonzero(np.abs(values[:rank]) <= modes.SIGNIFICANCE_FLOOR)
    if weak.size and positive:
        basis = vectors[:, rank:]
        sub = vectors[:, weak]
        sub -= basis @ (basis.conj().T @ (sub * weights[:, None]))
        vectors[:, weak] = sub
    return values, vectors


def test_eigenpairs_equal_the_scipy_wrapper_path(magnetodielectric_matrices,
                                                 sphere_eps3, dda_pipeline):
    """Bare geqp3 and orgqr against scipy.linalg.qr and orgqr: every step
    of the 201-step sweep, rules with negative weights, the dipole block,
    ranks 1 to 12 with positive and with signed weights, and N = u v^H of
    ranks 1 to 3 on positive weights, which must take the geev route: N is
    not normal, though a 1 x 1 block always is.  The geev route gives the
    reference's eigenvalues and its modes with |t| > 1e-6 bit for bit; its
    t = 0 basis, built another way, and the weak modes projected against
    it meet the oracle, as the Hermitian route's modes do everywhere."""
    _, weighted = magnetodielectric_matrices
    cases = [(m.matrix, m.rule.doubled_weights) for m in weighted]
    for n_q in (6, 26, 74, 110, 230):
        rule = sm.lebedev_rule(n_q)
        smat = sm.MieBackend(sphere_eps3).sample(rule, 1.7)
        cases.append((sm.apply_weights(smat).matrix, rule.doubled_weights))
    block = sm.apply_weights(dda_pipeline[4])
    cases.append((block.matrix, block.rule.doubled_weights))
    rng = np.random.default_rng(3)
    w = np.abs(rng.standard_normal(28)) + 0.1
    for signs in (1, np.resize([1, -1], 28)):
        for rank in range(1, 13):
            u = rng.standard_normal((28, rank)) \
                + 1j * rng.standard_normal((28, rank))
            cases.append((u @ u.conj().T * (signs * w)[None, :], signs * w))
    for rank in (1, 2, 3):  # N = u v^H: range(N^H) leaves range(N)
        u, v = rng.standard_normal((2, 28, rank)) \
            + 1j * rng.standard_normal((2, 28, rank))
        cases.append((u @ v.conj().T / w, w))
    routes = {"hermitian": 0, "geev": 0}
    for matrix, weights in cases:
        *got, hermitian = modes._eigenpairs(matrix, weights)
        ref = _scipy_eigenpairs(matrix, weights)
        if hermitian:
            routes["hermitian"] += 1
            _assert_same_spectrum(weights, got, ref)
        else:
            routes["geev"] += 1
            live = np.abs(ref[0]) > modes.SIGNIFICANCE_FLOOR
            assert _same_bits(got[0], ref[0])
            assert _same_bits(got[1][:, live], ref[1][:, live])
            _assert_same_spectrum(weights, got, ref)
    assert routes == {"hermitian": 201 + 3 + 1 + 12, "geev": 2 + 12 + 3}


def test_lapack_runs_each_routine_with_the_lwork_its_query_gives():
    """_lapack's geqrf, orgqr and unmqr give the bits of scipy.linalg's
    wrappers, which query lwork too, on 160 columns: past LAPACK's
    crossover of 128, where a smaller workspace runs the unblocked code and
    rounds otherwise."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((300, 160)) + 1j * rng.standard_normal((300, 160))
    c = rng.standard_normal((160, 40)) + 1j * rng.standard_normal((160, 40))
    geqrf, orgqr, unmqr = scipy.linalg.get_lapack_funcs(
        ("geqrf", "orgqr", "unmqr"), (a,))
    qr, tau = modes._lapack(geqrf, "geqrf", np.asfortranarray(a))
    (ref_qr, ref_tau), _ = scipy.linalg.qr(a, mode="raw")
    assert _same_bits(qr, ref_qr) and _same_bits(tau, ref_tau)
    (q,) = modes._lapack(orgqr, "orgqr", qr, tau)
    assert _same_bits(q, scipy.linalg.qr(a, mode="economic")[0])
    padded = np.zeros((300, 40), dtype=complex, order="F")
    padded[:160] = c
    (product,) = modes._lapack(unmqr, "unmqr", b"L", b"N", qr, tau, padded,
                               overwrite_c=1)
    assert _same_bits(product, scipy.linalg.qr_multiply(a, c, mode="left")[0])


#: every rule at three electrical sizes
_EVERY_RULE = [(n_q, ka) for n_q in sm.quadrature.SUPPORTED_SIZES
               for ka in (0.7, 1.0, 2.3)]


@pytest.fixture(scope="module")
def every_rule(sphere_eps3):
    """The eps_r=3 sphere's weighted samples on every rule at each ka of
    _EVERY_RULE, keyed by (n_q, ka)."""
    return {(n_q, ka): sm.apply_weights(sm.MieBackend(sphere_eps3).sample(
        sm.lebedev_rule(n_q), ka)) for n_q, ka in _EVERY_RULE}


def _assert_same_spectrum(w, got, ref):
    """Eigenpairs (values, vectors) against the reference's, matched one to
    one: the eigenvalues within 1e-13 |t_1|; the |w| projector onto each
    reference multiplet or singlet above SIGNIFICANCE_FLOOR, and onto all
    the modes at or below it, within 1e-9 of the matched modes' projector.
    Below the floor the eigenvectors are conditioned by gaps of order |t|,
    and the rank may differ by a few weak modes, so those modes are
    compared as one span."""
    values, vectors = got
    order = np.argsort(-np.abs(ref[0]), kind="stable")
    ref_values, ref_vectors = ref[0][order], ref[1][:, order]
    _, match = scipy.optimize.linear_sum_assignment(
        np.abs(ref_values[:, None] - values[None, :]))
    assert np.max(np.abs(ref_values - values[match])) \
        <= 1e-13 * abs(ref_values[0])
    n = len(values)
    cut = int(np.count_nonzero(np.abs(ref_values) > modes.SIGNIFICANCE_FLOOR))
    weak = np.flatnonzero(np.abs(values) <= modes.SIGNIFICANCE_FLOOR)
    assert weak.size == n - cut
    spans = [np.arange(grp.start, grp.stop)
             for grp in degenerate_groups(ref_values[:cut])]
    grouped = np.zeros(cut, dtype=bool)
    for span in spans:
        grouped[span] = True
    spans += [np.array([i]) for i in np.flatnonzero(~grouped)]
    pairs = [(span, match[span]) for span in spans]
    if cut < n:
        pairs.append((np.arange(cut, n), weak))
    for ref_span, span in pairs:
        assert np.max(np.abs(_span_projector(vectors[:, span], w)
                             - _span_projector(ref_vectors[:, ref_span], w))) \
            <= 1e-9


def _assert_meets_the_oracle(smat, modeset, ref=None):
    """The oracle: decompose's modes of smat against the reference modes ref
    (_reference_modes(smat) unless given) have the same spectrum
    (_assert_same_spectrum) and get the same validate verdicts on the
    lossless circle and on the eigenpair residuals."""
    values, vectors, residuals = ref or _reference_modes(smat)
    _assert_same_spectrum(smat.rule.doubled_weights,
                          (modeset.eigenvalues, modeset.eigenvectors),
                          (values, vectors))
    tol = cli.DEFAULT_TOLERANCES
    top = modes.LOSSLESS_TOP
    assert (sm.max_lossless_residual(modeset) < tol["lossless"],
            np.max(modeset.residuals) < tol["eigenpair"]) == \
        (np.max(np.abs(np.abs(2 * values[:top] + 1) - 1)) < tol["lossless"],
         np.max(residuals) < tol["eigenpair"])


def _assert_same_traces(sweep, reference):
    """The traces of sweep and of the reference mode sets at its steps: the
    same trace ids, start steps and mode indices, with eigenvalues within
    1e-12 and correlations within 1e-9."""
    traces = sm.track(sweep).traces
    expected = sm.track(sm.SweepResult(frequencies=sweep.frequencies,
                                       modesets=tuple(reference))).traces
    assert [(t.trace_id, t.start_step, t.mode_indices) for t in traces] == \
        [(t.trace_id, t.start_step, t.mode_indices) for t in expected]
    for got, ref in zip(traces, expected):
        assert np.max(np.abs(np.subtract(got.eigenvalues, ref.eigenvalues))) \
            <= 1e-12
        assert np.max(np.abs(np.subtract(got.correlations, ref.correlations)),
                      initial=0.0) <= 1e-9


def test_decompose_meets_the_full_qr_oracle(every_rule):
    """All 14 rules at ka 0.7, 1 and 2.3 meet the oracle: the Hermitian
    route on the 11 rules with positive weights, geev on the 74, 230 and
    266 points with negative ones.  Every residual is within 1e-10, and on
    the rules with positive weights those of the modes with |t| > 1e-6 are
    within 1e-13."""
    for smat in every_rule.values():
        modeset = sm.decompose(smat)
        _assert_meets_the_oracle(smat, modeset)
        assert np.max(modeset.residuals) <= 1e-10
        if np.all(smat.rule.doubled_weights > 0):
            live = np.abs(modeset.eigenvalues) > 1e-6
            assert np.max(modeset.residuals[live]) <= 1e-13


def _noisy(smat, nu):
    """Samples with seeded complex Gaussian noise of nu max|S|, as a
    full-wave solver gives them."""
    noise = np.random.default_rng(0).standard_normal((2, *smat.matrix.shape))
    scale = nu * np.max(np.abs(smat.matrix))
    return sm.ScatteringMatrix(
        rule=smat.rule, k=smat.k,
        matrix=smat.matrix + scale * (noise[0] + 1j * noise[1]))


def test_dipole_block_and_solver_noise_meet_the_full_qr_oracle(
        dda_pipeline, mie_eps3_110):
    """The dipole block (Hermitian route) and the N_q=110 sphere with noise
    of 1e-12 to 1e-4 max|S|, which stays on geev, meet the oracle."""
    cases = [sm.apply_weights(dda_pipeline[4])]
    cases += [sm.apply_weights(_noisy(mie_eps3_110, nu))
              for nu in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)]
    routes = []
    for smat in cases:
        routes.append(modes._eigenpairs(smat.matrix,
                                        smat.rule.doubled_weights)[2])
        _assert_meets_the_oracle(smat, sm.decompose(smat))
    assert routes == [True] + [False] * 5


def _normality_defect(m):
    mh = m.conj().T
    return np.linalg.norm(m @ mh - mh @ m) / np.linalg.norm(m) ** 2


def _recorded_blocks(monkeypatch):
    """The r x r blocks _eigenpairs checks for normality, recorded."""
    blocks, real = [], modes._is_normal

    def recording(q, m, *rest):
        blocks.append(m.copy())
        return real(q, m, *rest)

    monkeypatch.setattr(modes, "_is_normal", recording)
    return blocks


def _recorded_normal_blocks(monkeypatch):
    """The blocks whose normality defect either route measures, recorded:
    the band's c x c block and _eigenpairs' r x r one."""
    blocks, real = [], modes._normal_block

    def recording(m):
        blocks.append(m.copy())
        return real(m)

    monkeypatch.setattr(modes, "_normal_block", recording)
    return blocks


def test_clean_data_takes_the_hermitian_route(every_rule, dda_pipeline,
                                              magnetodielectric_matrices,
                                              monkeypatch):
    """Lossless samples on every rule with positive weights at three ka,
    the 201 sweep steps and the dipole block: each block, the band's c x c
    one and the dipole block's r x r one, is normal well inside
    NORMALITY_TOL, and decompose solves it with no geev and no
    Gram-Schmidt, the modes w-orthonormal."""
    cases = [smat for (n_q, _), smat in every_rule.items()
             if n_q not in (74, 230, 266)]
    cases += [*magnetodielectric_matrices[1],
              sm.apply_weights(dda_pipeline[4])]
    blocks = _recorded_normal_blocks(monkeypatch)

    def never(*args):
        raise AssertionError("the Hermitian route ran a geev route step")

    monkeypatch.setattr(scipy.linalg, "eig", never)
    monkeypatch.setattr(modes, "_orthonormalize_degenerate", never)
    for smat in cases:
        modeset = sm.decompose(smat)
        gram = sm.farfield_orthogonality(modeset)
        assert np.max(np.abs(gram - np.eye(modeset.n_modes))) <= 1e-10
    assert len(blocks) == len(cases) == 33 + 201 + 1
    assert max(map(_normality_defect, blocks)) <= modes.NORMALITY_TOL / 10


def test_negative_weights_and_noise_keep_scipy_eigs_bits(sphere_eps3,
                                                         mie_modes_ka1,
                                                         monkeypatch):
    """The 74, 230 and 266 points, whose weights are signed, and samples
    with noise of 1e-10 max|S|: the r x r block is far from normal, or the
    matrix has full rank, and _eigenpairs returns the eigenvalues of
    scipy.linalg.eig of it, as a plain call gives them, bit for bit."""
    cases = [sm.apply_weights(sm.MieBackend(sphere_eps3).sample(
        sm.lebedev_rule(n_q), 1.0)) for n_q in (74, 230, 266)]
    cases.append(sm.apply_weights(_noisy(mie_modes_ka1[1], 1e-10)))
    solved, real = _recorded_eigs(monkeypatch)
    got = []
    for smat in cases:
        values, _, hermitian = modes._eigenpairs(smat.matrix,
                                                 smat.rule.doubled_weights)
        assert not hermitian
        got.append(values)
    assert [len(a) for a, _ in solved][3] == 52  # the noisy samples, whole
    assert all(len(a) < len(smat.matrix) for (a, _), smat in
               zip(solved[:3], cases))
    for values, (a, (eig_values, eig_vectors)) in zip(got, solved):
        assert _normality_defect(a) > 1e-3
        ref_values, ref_vectors = real(a)
        assert _same_bits(eig_values, ref_values)
        assert _same_bits(eig_vectors, ref_vectors)
        assert _same_bits(values[:len(a)], ref_values)


def test_borderline_noise_meets_the_full_qr_oracle(sphere_eps3, monkeypatch):
    """N_q=302 samples with noise of 1e-12 max|S|: rank 600 of 604, whose
    coupling (_is_normal) is about 24 times its bound and whose block's
    normality defect, near 2.5e-13, is above NORMALITY_TOL, so geev solves
    it; the modes meet the oracle."""
    smat = sm.apply_weights(_noisy(sm.MieBackend(sphere_eps3).sample(
        sm.lebedev_rule(302), 1.0), 1e-12))
    blocks = _recorded_blocks(monkeypatch)
    modeset = sm.decompose(smat)
    assert [len(b) for b in blocks] == [600]
    assert modes.NORMALITY_TOL < _normality_defect(blocks[0]) < 1e-12
    assert np.count_nonzero(modeset.eigenvalues == 0) == 4
    _assert_meets_the_oracle(smat, modeset)


def test_geev_route_null_basis_is_w_orthonormal_and_null(every_rule,
                                                         sphere_eps3):
    """The t = 0 modes V_0 of the geev route are |w|-orthonormal, their Gram
    matrix within 1e-14 of I, and S V_0 is within the rank cut:
    max|S V_0| <= n eps |R_00| max|w|^-1/2, with n eps |R_00| the cut of the
    pivoted QR of N (|R_00| is N's largest column norm) and |w|^-1/2 what
    takes a unit vector of the |w|-scaled coordinates back to S's.  The
    signed rules at ka 1 and 2.3; N = u v^H of ranks 1 to 3 on positive
    weights, whose null space is not the complement of range(N); N_q=302
    samples with a non-normal term; and N_q=302 samples with borderline
    noise of 1e-12 max|S|."""
    cases = [(smat.matrix, smat.rule.doubled_weights) for smat in
             (every_rule[(n_q, ka)] for n_q in (74, 230, 266)
              for ka in (1.0, 2.3))]
    rng = np.random.default_rng(3)
    w = np.abs(rng.standard_normal(28)) + 0.1
    for rank in (1, 2, 3):
        u, v = rng.standard_normal((2, 28, rank)) \
            + 1j * rng.standard_normal((2, 28, rank))
        cases.append((u @ v.conj().T / w, w))
    smat = sm.MieBackend(sphere_eps3).sample(sm.lebedev_rule(302), 1.0)
    weighted = sm.apply_weights(smat).matrix
    weights = smat.rule.doubled_weights
    r = rng.standard_normal((2, *weighted.shape))
    cases.append((weighted + 0.3 * weighted @ (r[0] + 1j * r[1]) @ weighted
                  / np.linalg.norm(weighted, 2), weights))
    cases.append((sm.apply_weights(_noisy(smat, 1e-12)).matrix, weights))
    for matrix, weights in cases:
        values, vectors, hermitian = modes._eigenpairs(matrix, weights)
        assert not hermitian
        null = vectors[:, values == 0]
        assert null.shape[1] > 0
        assert np.max(np.abs(_gram(null, np.abs(weights))
                             - np.eye(null.shape[1]))) <= 1e-14
        r00 = np.max(np.linalg.norm(_solved(matrix, weights), axis=0))
        assert np.max(np.abs(matrix @ null)) <= len(matrix) \
            * np.finfo(float).eps * r00 / np.sqrt(np.min(np.abs(weights)))


def test_normal_eig_separates_eigenvalues_the_first_solve_merges():
    """Eigenvalues t and t + 0.3 (i - c) share Re t + c Im t, so eigh of
    H + c K mixes their eigenvectors; the refinement separates them, and
    keeps a multiplet whole, to rounding."""
    c = modes._MIX
    t = np.array([-0.5 + 0.5j, -0.5 + 0.5j + 0.3 * (1j - c), 0.2 - 0.1j,
                  0.2 - 0.1j, 0.2 - 0.1j, -0.9 - 0.2j, 0.05j,
                  0.05j + 0.02 * (1j - c), 0.0])
    real, imag = (np.random.default_rng(seed).standard_normal((9, 9))
                  for seed in (5, 6))
    q, _ = np.linalg.qr(real + 1j * imag)
    m = q @ np.diag(t) @ q.conj().T
    values, y = modes._normal_eig(m)
    assert np.max(np.abs(np.sort_complex(values) - np.sort_complex(t))) \
        <= 1e-14
    assert np.max(np.abs(y.conj().T @ y - np.eye(9))) <= 1e-14
    assert np.max(np.abs(m @ y - y * values)) <= 1e-14


def test_clean_samples_take_the_band_route(every_rule, dielectric_matrices,
                                           magnetodielectric_matrices,
                                           monkeypatch):
    """Lossless samples on every rule with positive weights at three ka and
    the 201 steps of both acceptance-6 sweeps: decompose takes the band
    route, with no pivoted QR (no geqp3 call) and no _eigenpairs."""
    cases = [smat for smat in every_rule.values()
             if np.all(smat.rule.weights > 0)]
    cases += [*dielectric_matrices[1], *magnetodielectric_matrices[1]]
    real = scipy.linalg.get_lapack_funcs

    def never(*args):
        raise AssertionError("clean samples left the band route")

    def no_geqp3(names, arrays):
        assert "geqp3" not in names
        return real(names, arrays)

    monkeypatch.setattr(modes, "_eigenpairs", never)
    monkeypatch.setattr(modes, "_pivoted_qr", never)
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", no_geqp3)
    for smat in cases:
        sm.decompose(smat)
    assert len(cases) == 33 + 2 * 201


def _without_the_band_route(smat):
    """decompose as it runs with the band route refused: _eigenpairs."""
    with mock.patch.object(modes, "_band_pairs", lambda matrix, rule: None):
        return sm.decompose(smat)


def _band_stages(smat):
    """_band_pairs on smat, and the stages it reached: "walk" where it
    walked the band's degrees, "eigensolve" where it solved the cut."""
    stages = []

    def spy(name, func):
        def call(*args):
            stages.append(name)
            return func(*args)
        return call

    with mock.patch.object(modes, "_band_walk",
                           spy("walk", modes._band_walk)), \
            mock.patch.object(modes, "_normal_eig",
                              spy("eigensolve", modes._normal_eig)):
        return modes._band_pairs(smat.matrix, smat.rule), stages


def _assert_same_modeset(got, ref):
    assert _same_bits(got.eigenvalues, ref.eigenvalues)
    assert _same_bits(got.eigenvectors, ref.eigenvectors)
    assert _same_bits(got.residuals, ref.residuals)


def test_samples_outside_the_band_keep_the_qr_routes_bits(
        sphere_eps3, mie_eps3_110, dda_pipeline):
    """Noise of 1e-6 max|S| on 110 and 302 points, a sphere sampled to
    l_max 9 on 50 points as the precision study samples it, the dipole
    block on 50 points, the rules with negative weights and a custom rule
    with order_capability 0: the band route is refused before its walk,
    for a few matrix-vector products, and decompose gives _eigenpairs'
    modes bit for bit."""
    rule_302 = sm.lebedev_rule(302)
    rule_110 = sm.lebedev_rule(110)
    custom = sm.QuadratureRule(theta=rule_110.theta, phi=rule_110.phi,
                               weights=rule_110.weights, order_capability=0,
                               name="custom-110")
    cases = [_noisy(mie_eps3_110, 1e-6),
             _noisy(sm.MieBackend(sphere_eps3).sample(rule_302, 1.0), 1e-6),
             *(sm.MieBackend(sphere_eps3, 9).sample(sm.lebedev_rule(50), ka)
               for ka in (1.0, 2.0)),
             dda_pipeline[4],
             *(sm.MieBackend(sphere_eps3).sample(sm.lebedev_rule(n_q), 1.0)
               for n_q in (74, 230, 266)),
             sm.MieBackend(sphere_eps3, 8).sample(custom, 1.0)]
    for smat in map(sm.apply_weights, cases):
        assert _band_stages(smat) == (None, [])
        _assert_same_modeset(sm.decompose(smat), _without_the_band_route(smat))


def test_out_of_band_perturbations_are_refused(sphere_eps3):
    """N = W^1/2 S_0 W^1/2 of clean N_q=110 samples plus a rank-one term
    of 1e-10 max|S| that leaves the band, u b^H with b a degree-1 vector of
    the band and u outside it, or u u^H, which does not touch the band: the
    probes refuse both before the walk.  Where b is orthogonal to the probe
    of the band, the leak check refuses u b^H after the walk, still before
    the eigensolve.  Where u is also orthogonal to the probe of the
    complement, only the t = 0 modes' residuals see u u^H, and the
    certificate refuses it.  Each then takes _eigenpairs, bit for bit."""
    rule = sm.lebedev_rule(110)
    smat = sm.apply_weights(sm.MieBackend(sphere_eps3).sample(rule, 1.0))
    scale = np.sqrt(rule.doubled_weights)
    band = scale[:, None] * sm.vsh_matrix(default_l_max(rule), rule)

    def outside(vectors):
        """The last of vectors, orthonormal to the band and the others."""
        basis = band
        for u in vectors:
            for _ in range(2):
                u = u - basis @ (basis.conj().T @ u)
            basis = np.column_stack([basis, u / np.linalg.norm(u)])
        return basis[:, -1]

    u = outside([[1, 1j] @ np.random.default_rng(5).standard_normal(
        (2, len(scale)))])
    hidden = outside([scale * modes._complement_probe(len(scale)), u])
    b = (band[:, 0] - band[:, 1]) / math.sqrt(2)
    eps = 1e-10 * np.max(np.abs(smat.matrix))
    assert _band_stages(smat)[1] == ["walk", "eigensolve"]
    for x, y, stages in ((u, band[:, 0], []), (u, u, []), (u, b, ["walk"]),
                         (hidden, hidden, ["walk", "eigensolve"])):
        # S' = D^-1 (N + eps x y^H) D
        perturbed = sm.ScatteringMatrix(
            rule=rule, k=smat.k, weighted=True,
            matrix=smat.matrix + eps * np.outer(x / scale, y.conj() * scale))
        band_pairs, reached = _band_stages(perturbed)
        assert reached == stages
        assert (band_pairs is None) == ("eigensolve" not in stages)
        _assert_same_modeset(sm.decompose(perturbed),
                             _without_the_band_route(perturbed))


def test_decompose_starts_no_thread(sphere_eps3, mie_eps3_110, monkeypatch):
    """decompose and validation_report run on the caller's thread: clean
    samples on 110 and 302 points, which take the band route, and noisy
    samples on 302 points, which take the pivoted QR.  The report's
    reciprocity check is reciprocity_residual's own."""
    clean_302 = sm.MieBackend(sphere_eps3).sample(sm.lebedev_rule(302), 1.0)

    def refuse(thread):
        raise AssertionError(f"decompose started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for smat in (mie_eps3_110, clean_302, _noisy(clean_302, 1e-6)):
        modeset = sm.decompose(sm.apply_weights(smat))
        report = dataio.validation_report(smat)
        assert report["eigenpair_residual_max"] == np.max(modeset.residuals)
        assert report["reciprocity_residual"] == sm.reciprocity_residual(smat)


def test_many_threads_decompose_at_once_with_the_bits_of_a_lone_call(
        sphere_eps3):
    """More threads than cores decompose at once, with a short switch
    interval: every result has the bits of a lone decompose."""
    cases = [sm.apply_weights(sm.MieBackend(sphere_eps3).sample(
        sm.lebedev_rule(n_q), 1.0)) for n_q in (26, 38, 110)]
    want = [sm.decompose(smat) for smat in cases]
    results = {}

    def work(i):
        results[i] = sm.decompose(cases[i % len(cases)])

    workers = [threading.Thread(target=work, args=(i,)) for i in range(9)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert sorted(results) == list(range(9))
    for i, got in results.items():
        ref = want[i % len(cases)]
        for name in ("eigenvalues", "eigenvectors", "residuals"):
            assert _same_bits(getattr(got, name), getattr(ref, name))


def _decompose_in_child(smat, conn):
    conn.send(sm.decompose(sm.apply_weights(smat)).eigenvalues)
    conn.close()


def test_decompose_in_a_forked_child_after_a_decompose_in_the_parent(
        mie_eps3_110):
    """A thread pool made before a fork leaves the child waiting on
    workers that do not exist: a child forked after a decompose gets the
    parent's eigenvalues."""
    want = sm.decompose(sm.apply_weights(mie_eps3_110)).eigenvalues
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_decompose_in_child, args=(mie_eps3_110, send))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked decompose did not finish"
        got = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert not child.is_alive() and child.exitcode == 0
    assert np.array_equal(got, want)
