import numpy as np
import pytest
import scipy.linalg

import scatmodes as sm
from scatmodes import modes
from scatmodes.errors import AlreadyWeighted
from scatmodes.scattering import POLARIZATIONS


class RecordingBackend(sm.ScatteringBackend):
    """Returns a distinctive vector per excitation and records the calls."""

    def __init__(self):
        self.calls = []

    def far_fields(self, k, direction, polarization, rule):
        self.calls.append((direction, polarization))
        n = rule.n_points
        idx = [rule.direction(q) for q in range(n)].index(direction)
        col = POLARIZATIONS.index(polarization) * n + idx
        out = np.zeros(2 * n, dtype=complex)
        out[col] = 1.0 + 1j * col
        return out


def test_assemble_column_layout():
    rule = sm.lebedev_rule(6)
    backend = RecordingBackend()
    smat = sm.assemble(backend, rule, 2.0)
    n = rule.n_points
    assert len(backend.calls) == 2 * n
    scale = 2.0 / (4j * np.pi)
    for col in range(2 * n):
        expected = scale * (1.0 + 1j * col)
        assert smat.matrix[col, col] == pytest.approx(expected)
        assert np.count_nonzero(smat.matrix[:, col]) == 1


def test_base_sample_runs_the_plane_wave_loop():
    rule = sm.lebedev_rule(6)
    backend = RecordingBackend()
    got = backend.sample(rule, 2.0)
    assert len(backend.calls) == 2 * rule.n_points
    assert np.array_equal(got.matrix, sm.assemble(backend, rule, 2.0).matrix)


def test_assemble_wraps_backend_failure_with_excitation():
    class Boom(sm.ScatteringBackend):
        def far_fields(self, k, direction, polarization, rule):
            raise RuntimeError("inner failure")

    with pytest.raises(RuntimeError, match="excitation 0"):
        sm.assemble(Boom(), sm.lebedev_rule(6), 1.0)


def test_assemble_rejects_nonpositive_k():
    with pytest.raises(ValueError, match="support"):
        sm.assemble(RecordingBackend(), sm.lebedev_rule(6), -1.0)


def test_matrix_shape_and_finiteness_validation():
    rule = sm.lebedev_rule(6)
    with pytest.raises(ValueError, match="12x12"):
        sm.ScatteringMatrix(rule=rule, k=1.0, matrix=np.zeros((4, 4)))
    bad = np.zeros((12, 12), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        sm.ScatteringMatrix(rule=rule, k=1.0, matrix=bad)


def test_block_accessors():
    rule = sm.lebedev_rule(6)
    m = np.arange(144.0).reshape(12, 12) + 0j
    smat = sm.ScatteringMatrix(rule=rule, k=1.0, matrix=m)
    assert np.array_equal(smat.block("theta", "theta"), m[:6, :6])
    assert np.array_equal(smat.block("phi", "theta"), m[6:, :6])
    assert np.array_equal(smat.block("theta", "phi"), m[:6, 6:])


def test_apply_weights_once():
    rule = sm.lebedev_rule(6)
    smat = sm.ScatteringMatrix(rule=rule, k=1.0,
                               matrix=np.ones((12, 12), dtype=complex))
    weighted = sm.apply_weights(smat)
    assert weighted.weighted
    assert np.allclose(weighted.matrix[0], smat.rule.doubled_weights)
    with pytest.raises(AlreadyWeighted):
        sm.apply_weights(weighted)
    # original untouched
    assert not smat.weighted
    assert np.all(smat.matrix == 1.0)


def test_reciprocity_residual_detects_corruption(mie_modes_ka1):
    rule, smat, _ = mie_modes_ka1
    assert sm.reciprocity_residual(smat) < 1e-12
    corrupted = np.array(smat.matrix)
    corrupted[3, 7] += 1e-3
    bad = sm.ScatteringMatrix(rule=rule, k=smat.k, matrix=corrupted)
    assert sm.reciprocity_residual(bad) > 1e-4


def test_reciprocity_invariant_under_pole_frames():
    """Rules containing both poles still pass the inversion symmetry check."""
    rule = sm.lebedev_rule(6)  # contains +z and -z axis points
    sphere = sm.LayeredSphere.homogeneous(1.0, 2.0)
    smat = sm.MieBackend(sphere).sample(rule, 0.8)
    assert sm.reciprocity_residual(smat) < 1e-14


def _rotated(rule, angle):
    """The same rule turned about the z axis."""
    return sm.QuadratureRule(
        theta=rule.theta, phi=rule.phi + angle,
        weights=rule.weights, order_capability=rule.order_capability)


@pytest.mark.parametrize("make_backend,memo", [
    (lambda: sm.DdaBackend(sm.build_block((2, 2, 1), 0.3, 3.0)), "_kmats"),
], ids=["dda"])
def test_backend_memo_follows_the_rule_object(make_backend, memo):
    base = sm.lebedev_rule(26)
    rules = (_rotated(base, 0.3), _rotated(base, 1.1))
    backend = make_backend()
    for i in range(200):
        rule = rules[i % 2]
        got = backend.far_fields(1.0, rule.direction(0), "theta", rule)
        expected = make_backend().far_fields(1.0, rule.direction(0), "theta",
                                             rule)
        assert np.array_equal(got, expected)
        assert len(getattr(backend, memo)) <= 1


def _einsum_dyads(smat):
    n = smat.n_points
    frames = np.stack([smat.rule.theta_hats, smat.rule.phi_hats], axis=1)
    s4 = smat.matrix.reshape(2, n, 2, n).transpose(1, 3, 0, 2)
    return np.einsum("pqab,pai,qbj->pqij", s4, frames, frames)


def _frames(rule):
    """F_p = [theta_hat, phi_hat] at every rule point, (N_q, 3, 2)."""
    return np.stack([rule.theta_hats, rule.phi_hats], axis=2)


@pytest.mark.parametrize("n_q", [6, 38, 110, 302])
def test_reciprocity_residual_equals_the_projected_dyads(n_q, dda_pipeline):
    """The 3x3 Cartesian dyad difference D_pq = dyad(p, q) -
    dyad(inv q, inv p)^T of every sample pair lies in the tangent planes:
    projected onto the frames, Delta_pq = F_p^T D_pq F_q keeps its
    Frobenius norm, and reciprocity_residual is max |Delta|, both within
    1e-12 of the largest sample.  The max-norms obey max|D| <= 2 max|Delta|
    <= 6 max|D|.  On clean Mie samples, seeded noise and a rule turned about
    z, and on the dipole block."""
    rule = sm.lebedev_rule(n_q)
    sphere = sm.LayeredSphere(1.0, (sm.Layer(5.0, 3.0, 0.5),
                                    sm.Layer(2.0, 1.0, 1.0)))
    rng = np.random.default_rng(n_q)
    noise = rng.standard_normal((2 * n_q, 2 * n_q)) * (1.0 + 1j)
    cases = []
    for case_rule in (rule, _rotated(rule, 0.7)):
        cases += [sm.MieBackend(sphere).sample(case_rule, 1.3),
                  sm.ScatteringMatrix(rule=case_rule, k=1.3, matrix=noise)]
    if n_q == 38:
        cases.append(dda_pipeline[4])  # the dipole block on its 50-point rule
    for case in cases:
        ref = _einsum_dyads(case)  # (p, q, i, j)
        inv = case.rule.inversion_permutation()
        diff = ref - ref[np.ix_(inv, inv)].transpose(1, 0, 3, 2)
        frames = _frames(case.rule)
        delta = np.einsum("pia,pqij,qjb->pqab", frames, diff, frames)
        tol = 1e-12 * np.max(np.abs(case.matrix))
        assert np.max(np.abs(np.linalg.norm(diff, axis=(2, 3))
                             - np.linalg.norm(delta, axis=(2, 3)))) <= tol
        got = sm.reciprocity_residual(case)
        assert abs(got - np.max(np.abs(delta))) <= tol
        assert np.max(np.abs(diff)) <= 2.0 * got + tol
        assert got <= 3.0 * np.max(np.abs(diff)) + tol


def test_reciprocity_residual_rejects_weighted_samples(sphere_eps3):
    """Weighted samples are not reciprocal: the spread of the weights would
    read as a violation (9.5e-3 here, against 4e-17 unweighted)."""
    smat = sm.MieBackend(sphere_eps3).sample(sm.lebedev_rule(38), 1.0)
    assert sm.reciprocity_residual(smat) < 1e-15
    with pytest.raises(ValueError, match="apply_weights"):
        sm.reciprocity_residual(sm.apply_weights(smat))


def test_reciprocity_residual_rejects_frames_not_equal_up_to_sign():
    """Two antipodes next to the poles, within the inversion pairing's
    tolerance, whose phi differ by pi/2 rather than pi: their frames are
    turned by a quarter, not mirrored, so the signs do not exist."""
    rule = sm.QuadratureRule(theta=[1e-12, np.pi - 1e-12],
                             phi=[0.0, np.pi / 2], weights=[2 * np.pi] * 2,
                             order_capability=1)
    smat = sm.ScatteringMatrix(rule=rule, k=1.0,
                               matrix=np.eye(4, dtype=complex))
    with pytest.raises(sm.RuleNotInversionSymmetric, match="sign"):
        sm.reciprocity_residual(smat)


@pytest.mark.parametrize("n_q", [6, 38, 110])
def test_full_rank_noise_gets_the_bits_of_scipy_eig(n_q):
    """The seeded noise samples above have full rank, as noisy solver data
    has, so _eigenpairs solves the whole weighted matrix: bit for bit what
    scipy.linalg.eig returns for it."""
    rule = sm.lebedev_rule(n_q)
    noise = np.random.default_rng(n_q).standard_normal((2 * n_q, 2 * n_q))
    weighted = sm.apply_weights(sm.ScatteringMatrix(
        rule=rule, k=1.3, matrix=noise * (1.0 + 1j)))
    got = modes._eigenpairs(weighted.matrix, rule.doubled_weights)
    ref = scipy.linalg.eig(weighted.matrix)
    for g, r in zip(got, ref):
        assert g.shape == r.shape and g.dtype == r.dtype
        assert g.tobytes() == r.tobytes()
