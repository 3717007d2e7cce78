import math
import warnings

import numpy as np
import pytest

import scatmodes as sm
from scatmodes.errors import ZeroContrast


def analytic_single_dipole_t(model, k):
    u = k ** 3 * model.static_polarizability / (6.0 * math.pi * sm.EPS0)
    return -1j * u / (1.0 + 1j * u)


def test_build_block_geometry():
    model = sm.build_block((2, 3, 1), 0.1, 3.0)
    assert model.n_dipoles == 6
    assert np.allclose(model.positions.mean(axis=0), 0.0)
    d = model.positions[1] - model.positions[0]
    assert np.linalg.norm(d) == pytest.approx(0.1)


def test_build_block_rejects_unit_permittivity():
    with pytest.raises(ZeroContrast):
        sm.build_block((2, 2, 1), 0.1, 1.0)


def test_impedance_system_warns_on_coarse_lattice():
    # the lattice meets a wavelength when the impedance matrix is built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = sm.build_block((2, 2, 1), 1.0, 3.0)
        sm.ImpedanceSystem(model, 0.5)  # spacing 1 < a tenth of 4 pi
    with pytest.warns(UserWarning, match="tenth of the wavelength 6.283e"):
        sm.ImpedanceSystem(model, 1.0)


def test_polarizability_radiation_correction():
    model = sm.DipoleModel(np.zeros((1, 3)), 0.05, 3.0)
    k = 2.0
    alpha = model.polarizability(k)
    inv = 1.0 / alpha
    assert inv.real == pytest.approx(1.0 / model.static_polarizability)
    assert inv.imag == pytest.approx(k ** 3 / (6.0 * math.pi * sm.EPS0))


def test_impedance_symmetric_with_radiation_diagonal(dipole_block):
    system = sm.ImpedanceSystem(dipole_block, 1.0)
    scale = np.max(np.abs(system.z))
    assert np.max(np.abs(system.z - system.z.T)) < 1e-14 * scale
    # per-dipole radiation resistance of the corrected polarizability
    expected = 1.0 ** 2 * sm.Z0 / (6.0 * math.pi)
    assert system.z[0, 0].real == pytest.approx(expected)


def test_resistance_is_radiation_operator(dda_pipeline):
    """Integrated far-field power operator equals Re Z."""
    k, rule, system, kmat, _, _ = dda_pipeline
    from_k = sm.radiation_from_farfield(kmat, rule)
    r = system.resistance()
    assert np.max(np.abs(from_k.real - r)) < 1e-8 * np.max(np.abs(r))
    assert np.max(np.abs(from_k.imag)) < 1e-8 * np.max(np.abs(r))


def test_drive_vector_farfield_duality(dipole_block, dda_pipeline):
    """Plane-wave drive equals the scaled conjugate far-field map row."""
    k, rule, _, kmat, _, _ = dda_pipeline
    scale = -1j * 4.0 * math.pi / (sm.Z0 * k)
    for q, pol in [(0, "theta"), (5, "phi")]:
        col = q + (0 if pol == "theta" else rule.n_points)
        v = sm.planewave_rhs(dipole_block, k, rule.direction(q), pol)
        assert np.max(np.abs(v - scale * kmat.conj().T[:, col])) < 1e-14


def test_direct_matrix_matches_plane_wave_solves(dipole_block, dda_pipeline):
    k, rule, _, _, smat_direct, _ = dda_pipeline
    smat_pw = sm.assemble(sm.DdaBackend(dipole_block), rule, k)
    assert np.max(np.abs(smat_direct.matrix - smat_pw.matrix)) < 1e-12


def test_backend_sample_is_the_one_shot_matrix(dipole_block, dda_pipeline):
    k, rule, _, _, smat_direct, _ = dda_pipeline
    backend = sm.DdaBackend(dipole_block)
    got = backend.sample(rule, k)
    assert np.array_equal(got.matrix.view(np.uint64),
                          smat_direct.matrix.view(np.uint64))
    assert backend.radius == dipole_block.circumscribing_radius


def test_scattering_matrix_refuses_a_backend_of_another_model():
    # given block a and a backend built on block b, it once sampled b
    a = sm.build_block((2, 2, 1), 0.3, 3.0)
    b = sm.build_block((2, 1, 1), 0.3, 3.0)
    rule = sm.lebedev_rule(14)
    with pytest.raises(ValueError, match="different dipole model"):
        sm.scattering_matrix(a, rule, 1.0, sm.DdaBackend(b))
    backend = sm.DdaBackend(a)
    assert np.array_equal(sm.scattering_matrix(a, rule, 1.0, backend).matrix,
                          sm.scattering_matrix(a, rule, 1.0).matrix)


def test_backend_keeps_one_impedance_system():
    model = sm.build_block((2, 2, 1), 0.3, 3.0)
    rule = sm.lebedev_rule(14)
    backend = sm.DdaBackend(model)
    for i in range(12):
        k = (0.9, 1.3, 1.7)[i % 3]
        got = sm.scattering_matrix(model, rule, k, backend)
        fresh = sm.scattering_matrix(model, rule, k)
        assert np.array_equal(got.matrix, fresh.matrix)
        assert len(backend._systems) <= 1


def test_single_dipole_triple_degenerate_mode():
    model = sm.DipoleModel(np.zeros((1, 3)), 0.05, 3.0)
    k = 1.0
    rule = sm.lebedev_rule(14)
    modeset = sm.decompose(sm.apply_weights(sm.scattering_matrix(model, rule, k)))
    t_ana = analytic_single_dipole_t(model, k)
    assert np.allclose(modeset.eigenvalues[:3], t_ana, rtol=1e-12)
    assert np.max(np.abs(modeset.eigenvalues[3:])) < 1e-12 * abs(t_ana)


def test_clausius_mossotti_pole_is_a_full_strength_resonance():
    # at eps_r = -2 the static polarizability diverges; its inverse, which
    # the impedance diagonal holds, is finite, and one dipole scatters at
    # the far point t = -1 of the lossless circle
    model = sm.DipoleModel(np.zeros((1, 3)), 0.05, -2.0)
    k = 1.0
    assert math.isinf(model.static_polarizability)
    assert model.polarizability(k) == pytest.approx(
        -6j * math.pi * sm.EPS0 / k ** 3, rel=1e-15)
    assert np.all(np.isfinite(sm.ImpedanceSystem(model, k).z))
    rule = sm.lebedev_rule(14)
    modeset = sm.decompose(sm.apply_weights(sm.scattering_matrix(model, rule, k)))
    assert np.allclose(modeset.eigenvalues[:3], -1.0, rtol=1e-12)
    assert np.max(np.abs(modeset.eigenvalues[3:])) < 1e-12


def test_classical_modes_match_scattering_modes(dda_pipeline):
    k, rule, system, _, _, modeset = dda_pipeline
    lam, currents = sm.classical_cm(system)
    t_from_lam = np.array([sm.t_from_lambda(v) for v in lam])
    t_from_lam = t_from_lam[np.argsort(-np.abs(t_from_lam))]
    top = 10
    rel = np.abs(t_from_lam[:top] - modeset.eigenvalues[:top]) \
        / np.abs(modeset.eigenvalues[:top])
    assert np.max(rel) < 1e-3


def test_classical_modes_r_orthonormal(dda_pipeline):
    _, _, system, _, _, _ = dda_pipeline
    lam, currents = sm.classical_cm(system)
    r = system.resistance()
    gram = currents.T @ r @ currents
    # the strongest radiators are orthonormal to solver precision; the
    # weakest ones sit near the numerical rank cutoff of R and lose digits
    top = 20
    assert np.max(np.abs(gram[:top, :top] - np.eye(top))) < 1e-8
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-4
    assert np.max(np.abs(lam.imag)) == 0.0  # symmetric-definite pencil is real


def test_modal_current_radiates_the_mode(dda_pipeline):
    k, rule, system, kmat, _, modeset = dda_pipeline
    for n in (0, 1, 3):
        i_n, v_n = sm.modal_current(system, kmat, rule, modeset, n)
        f_n = modeset.eigenvectors[:, n]
        assert np.max(np.abs(kmat @ i_n - f_n)) < 1e-10
        # drive equals the resistive reaction scaled by the eigenvalue
        rhs = -(system.resistance() @ i_n) / modeset.eigenvalues[n]
        assert np.linalg.norm(v_n - rhs) < 1e-8 * np.linalg.norm(v_n)


def test_lossless_circle_coupled_dipoles(dda_pipeline):
    _, _, _, _, _, modeset = dda_pipeline
    assert sm.max_lossless_residual(modeset, top=25) < 1e-2


def test_reciprocity_coupled_dipoles(dda_pipeline):
    _, _, _, _, smat, _ = dda_pipeline
    assert sm.reciprocity_residual(smat) < 1e-10


def test_model_validation():
    with pytest.raises(ValueError, match="positions"):
        sm.DipoleModel(np.zeros((0, 3)), 0.1, 3.0)
    with pytest.raises(ValueError, match="spacing"):
        sm.DipoleModel(np.zeros((1, 3)), -0.1, 3.0)
    with pytest.raises(ValueError, match="spacing 1e-120 is too small"):
        sm.DipoleModel(np.zeros((1, 3)), 1e-120, 3.0)
    with pytest.raises(ValueError, match=r"spacing 1e\+103 is too large"):
        sm.DipoleModel(np.zeros((1, 3)), 1e103, 3.0)
    with pytest.raises(ValueError, match="extent"):
        sm.build_block((0, 2, 2), 0.1, 3.0)
    with pytest.raises(ValueError, match="k must be positive"):
        sm.ImpedanceSystem(sm.DipoleModel(np.zeros((1, 3)), 0.1, 3.0), 0.0)


def test_classical_modes_keep_the_null_space_coupling():
    # R keeps only 84 of 384 directions here; dropping X's coupling to the
    # rest left the pencil 1.1e-3 away from the scattering route
    extent = (8, 8, 2)
    spacing = 2.0 / math.sqrt(sum(n * n for n in extent))
    model = sm.build_block(extent, spacing, 3.0)
    k, rule = 1.0, sm.lebedev_rule(50)
    backend = sm.DdaBackend(model)
    modeset = sm.decompose(sm.apply_weights(
        sm.scattering_matrix(model, rule, k, backend)))
    system = backend.system(k)
    lam, currents = sm.classical_cm(system)
    assert len(lam) < system.n_unknowns // 4
    t_lam = np.array([sm.t_from_lambda(v) for v in lam])
    t_lam = t_lam[np.argsort(-np.abs(t_lam))][:10]
    top = modeset.eigenvalues[:10]
    assert np.max(np.abs(t_lam - top) / np.abs(top)) < 1e-6
    gram = currents.T @ system.resistance() @ currents
    assert np.max(np.abs(gram - np.eye(len(lam)))) < 1e-4
