import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import scatmodes as sm
from scatmodes.errors import InsufficientQuadrature
from scatmodes.modes import SIGNIFICANCE_FLOOR
from scatmodes.swe import SweIndex, _tangential_components, n_swe, swe_indices


def test_index_flattening_bijection():
    seen = set()
    for idx in swe_indices(6):
        back = SweIndex.from_alpha(idx.alpha)
        assert (back.tau, back.l, back.m) == (idx.tau, idx.l, idx.m)
        seen.add(idx.alpha)
    assert seen == set(range(n_swe(6)))


def test_index_validation():
    with pytest.raises(ValueError):
        SweIndex(3, 1, 0)
    with pytest.raises(ValueError):
        SweIndex(1, 0, 0)
    with pytest.raises(ValueError):
        SweIndex(1, 2, 3)
    with pytest.raises(ValueError):
        SweIndex.from_alpha(-1)


def test_n_swe_counts():
    assert n_swe(1) == 6
    assert n_swe(2) == 16
    assert n_swe(8) == 160


@pytest.mark.parametrize("n_q,l_max", [(14, 2), (26, 3), (50, 5), (110, 8)])
def test_vsh_orthonormality(n_q, l_max):
    rule = sm.lebedev_rule(n_q)
    a = sm.vsh_matrix(l_max, rule)
    w = np.concatenate([rule.weights, rule.weights])
    gram = (a.conj().T * w) @ a
    assert np.max(np.abs(gram - np.eye(n_swe(l_max)))) < 1e-13


def test_eval_vsh_matches_sample_matrix():
    rule = sm.lebedev_rule(26)
    a = sm.vsh_matrix(3, rule)
    for p in (0, 7, 19):
        d = rule.direction(p)
        for alpha in (0, 5, 12, 29):
            vec = sm.eval_vsh(SweIndex.from_alpha(alpha), d)
            theta_c = vec @ d.theta_hat
            phi_c = vec @ d.phi_hat
            assert theta_c == pytest.approx(a[p, alpha], abs=1e-14)
            assert phi_c == pytest.approx(a[rule.n_points + p, alpha], abs=1e-14)
            # purely tangential
            assert abs(vec @ d.unit_vector) < 1e-14


def test_vsh_conjugation_symmetry():
    """Negative orders relate to positive ones through conjugation."""
    d = sm.Direction(1.1, 0.7)
    for tau in (1, 2):
        for l in (1, 2, 3):
            for m in range(1, l + 1):
                plus = sm.eval_vsh(SweIndex(tau, l, m), d)
                minus = sm.eval_vsh(SweIndex(tau, l, -m), d)
                ratio = minus / np.conj(plus)
                assert np.allclose(ratio, ratio[0])
                assert abs(abs(ratio[0]) - 1.0) < 1e-12


def test_t_s_round_trip():
    rng = np.random.default_rng(7)
    l_max = 3
    n = n_swe(l_max)
    tmat = sm.TransitionMatrix(l_max, rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)), k=1.0)
    rule = sm.lebedev_rule(26)
    smat = sm.s_from_t(tmat, rule)
    back = sm.t_from_s(smat, l_max)
    assert np.max(np.abs(back.entries - tmat.entries)) < 1e-12


def test_t_from_s_requires_capability():
    rule = sm.lebedev_rule(6)  # degree 3 < 2*l_max for l_max = 2
    smat = sm.ScatteringMatrix(rule=rule, k=1.0,
                               matrix=np.zeros((12, 12), dtype=complex))
    with pytest.raises(InsufficientQuadrature):
        sm.t_from_s(smat, 2)


def test_t_from_s_rejects_weighted():
    rule = sm.lebedev_rule(26)
    smat = sm.apply_weights(sm.ScatteringMatrix(
        rule=rule, k=1.0, matrix=np.zeros((52, 52), dtype=complex)))
    with pytest.raises(ValueError, match="unweighted"):
        sm.t_from_s(smat, 1)


def test_expand_farfield_recovers_band_limited_field():
    rule = sm.lebedev_rule(26)
    l_max = 3
    a = sm.vsh_matrix(l_max, rule)
    rng = np.random.default_rng(3)
    coeff = rng.standard_normal(n_swe(l_max)) + 1j * rng.standard_normal(n_swe(l_max))
    samples = math.sqrt(sm.Z0) * (a @ coeff)
    got, residual = sm.expand_farfield(samples, rule, l_max)
    assert np.max(np.abs(got - coeff)) < 1e-12
    assert residual < 1e-13


def test_expand_farfield_reports_out_of_band_residual():
    rule = sm.lebedev_rule(26)
    a8 = sm.vsh_matrix(8, rule)
    samples = a8[:, -1]  # pure l=8 content, far outside l_max=2
    _, residual = sm.expand_farfield(samples, rule, 2)
    assert residual > 0.5


def test_vsh_matrix_is_kept_read_only_per_rule_and_degree():
    rule = sm.lebedev_rule(26)
    a = sm.vsh_matrix(3, rule)
    assert sm.vsh_matrix(3, rule) is a
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
    assert np.array_equal(
        a, np.vstack(_tangential_components(3, rule.theta, rule.phi)))
    # another degree, an equal rule object and a replaced rule each get
    # their own matrix
    other = sm.vsh_matrix(2, rule)
    assert other.shape == (2 * rule.n_points, n_swe(2))
    twin = sm.lebedev_rule(26)
    assert sm.vsh_matrix(3, twin) is not a
    assert np.array_equal(sm.vsh_matrix(3, twin), a)
    assert sm.vsh_matrix(3, dataclasses.replace(rule, name="copy")) is not a
    assert sm.vsh_matrix(3, rule) is a and sm.vsh_matrix(2, rule) is other


def _reciprocal_partner(entries, l_max):
    """T^R with T^R[b', a'] = p_a p_b c_b conj(c_a) T[a, b], where a' is a
    with m -> -m, conj(Y_a) = c_a Y_a' and Y_a(-r) = p_a Y_a(r).

    S(r, r') = S^T(-r', -r) for the synthesized samples exactly when
    T^R = T.  Here c = (-1)^m conj(f)^2 with f the -(-j)^(tau - l) front
    factor, and p = (-1)^(l + tau - 1).
    """
    idx = swe_indices(l_max)
    bar = np.array([SweIndex(i.tau, i.l, -i.m).alpha for i in idx])
    front = np.array([-(-1j) ** (i.tau - i.l) for i in idx])
    m = np.array([i.m for i in idx])
    parity = (-1.0) ** np.array([i.l + i.tau - 1 for i in idx])
    c = (-1.0) ** m * np.conj(front) ** 2
    out = np.empty_like(entries)
    out[np.ix_(bar, bar)] = ((parity * np.conj(c))[:, None] * entries
                             * (parity * c)[None, :]).T
    return out


@given(l_max=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       strength=st.floats(0.05, 3.0))
def test_random_reciprocal_unitary_tmatrix(l_max, seed, strength):
    """1 + 2T = exp(iH) with H Hermitian and reciprocal: S is reciprocal,
    its modes sit on the lossless circle and its nonzero ones are eig(T)."""
    rng = np.random.default_rng(seed)
    n = n_swe(l_max)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = strength * (g + g.conj().T) / 2
    h = (g + _reciprocal_partner(g, l_max)) / 2
    assert np.allclose(h, h.conj().T, atol=1e-14)
    t = (scipy.linalg.expm(1j * h) - np.eye(n)) / 2
    assert np.max(np.abs(_reciprocal_partner(t, l_max) - t)) < 1e-13

    rule = sm.lebedev_rule({1: 14, 2: 26, 3: 38}[l_max])
    smat = sm.s_from_t(sm.TransitionMatrix(l_max, t, k=1.0), rule)
    assert sm.reciprocity_residual(smat) < 1e-13
    modeset = sm.decompose(sm.apply_weights(smat))
    assert np.max(sm.lossless_residual(modeset)) < 1e-12
    expected = np.linalg.eigvals(t)
    found = modeset.eigenvalues
    floor = SIGNIFICANCE_FLOOR
    assert np.count_nonzero(np.abs(found) > floor) == \
        np.count_nonzero(np.abs(expected) > floor)
    for value in expected[np.abs(expected) > floor]:
        assert np.min(np.abs(found - value)) < 1e-12
