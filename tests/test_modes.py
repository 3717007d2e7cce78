import math

import numpy as np
import pytest
import scipy.linalg

import scatmodes as sm
from scatmodes.errors import BelowSignificanceThreshold
from scatmodes.modes import characteristic_angle, degenerate_groups, metrics


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


def _reference_decompose(smat):
    """decompose's post-processing as column loops: normalize and phase-fix
    each column, sort, then modified Gram-Schmidt inside each multiplet."""
    values, vectors = scipy.linalg.eig(smat.matrix)
    w = smat.doubled_weights()

    def phase_fix(vec):
        pivot = vec[int(np.argmax(np.abs(vec)))]
        return vec if pivot == 0 else vec * (abs(pivot) / pivot)

    for n in range(vectors.shape[1]):
        nrm = abs((np.conj(vectors[:, n]) * w) @ vectors[:, n])
        if nrm > 0:
            vectors[:, n] /= math.sqrt(nrm)
        vectors[:, n] = phase_fix(vectors[:, n])

    keys = []
    for n, t in enumerate(values):
        first = vectors[np.argmax(np.abs(vectors[:, n]) > 0), n]
        keys.append((-abs(t), np.angle(t) % (2 * math.pi), abs(first)))
    order = np.array(sorted(range(len(values)), key=lambda n: keys[n]))
    values, vectors = values[order], vectors[:, order]

    start = 0
    for i in range(1, len(values) + 1):
        if i < len(values) and abs(values[i] - values[start]) <= \
                1e-8 * max(1.0, abs(values[start])):
            continue
        if i - start > 1:
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


def _layered_sphere_38(ka):
    """The acceptance-6 magnetodielectric sphere on the 38-point rule."""
    sphere = sm.LayeredSphere(1.0, tuple(
        sm.Layer(e, m, f) for e, m, f in
        zip([1, 5, 1, 2], [3, 1, 8, 1], [0.25, 0.5, 0.75, 1.0])))
    rule = sm.lebedev_rule(38)
    tmat = sm.layered_tmatrix(sphere, ka, rule.order_capability // 2)
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
    w = weighted.doubled_weights()
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
    # the signed product is indefinite on the null cluster, which therefore
    # gets a |w|-orthonormal basis of the same span; every other multiplet
    # gets the reference's w-orthonormal Gram-Schmidt basis
    rule = sm.lebedev_rule(n_q)
    tmat = sm.layered_tmatrix(sphere_eps3, ka, rule.order_capability // 2)
    weighted = sm.apply_weights(sm.s_from_t(tmat, rule, k=ka))
    modeset = sm.decompose(weighted)
    values, vectors = _reference_decompose(weighted)

    assert np.array_equal(modeset.eigenvalues, values)
    w = weighted.doubled_weights()
    assert np.any(w < 0)
    definite, indefinite = 0, 0
    for grp in degenerate_groups(values):
        f, ref = modeset.eigenvectors[:, grp], vectors[:, grp]
        eye = np.eye(f.shape[1])
        if np.linalg.eigvalsh(_gram(ref, w)).min() > 0:
            definite += 1
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
    for q, (p, w) in enumerate(zip(rule.points, rule.weights)):
        amp = -1j * k / (4 * math.pi * t_n) * w
        vec = f_n[q] * p.theta_hat + f_n[n + q] * p.phi_hat
        expected += amp * vec * np.exp(-1j * k * (p.unit_vector @ r))
    assert np.allclose(field(r), expected, atol=1e-14)


def test_farfield_orthogonality_needs_rule():
    modeset = sm.ModeSet(k=1.0, eigenvalues=np.array([1.0 + 0j]),
                         eigenvectors=np.eye(1, dtype=complex), rule=None)
    with pytest.raises(ValueError, match="rule"):
        sm.farfield_orthogonality(modeset)
