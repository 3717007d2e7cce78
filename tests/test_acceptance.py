"""End-to-end acceptance checks.

Each test records exactly one PASS/FAIL line; a terminal-summary hook in
conftest prints them all at the end of the run regardless of capture
settings.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest

import scatmodes as sm
from scatmodes import dataio
from scatmodes.mie import default_l_max
from scatmodes.modes import C0, characteristic_angle
from scatmodes.swe import expand_farfield, vsh_matrix

RESULT_LINES: list[str] = []


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULT_LINES.append(line)
    print(line)
    assert ok, line


def _orthonormal_farfields(rule, count, seed=0):
    rng = np.random.default_rng(seed)
    w = np.concatenate([rule.weights, rule.weights])
    raw = (rng.standard_normal((2 * rule.n_points, count))
           + 1j * rng.standard_normal((2 * rule.n_points, count)))
    cols = []
    for j in range(count):
        v = raw[:, j]
        for b in cols:
            v = v - b * ((np.conj(b) * w) @ v)
        cols.append(v / np.sqrt(abs((np.conj(v) * w) @ v)))
    return np.column_stack(cols)


def test_acceptance_1_sphere_pipeline_matches_analytic(sphere_eps3):
    worst_rel, worst_time, multiplicity_ok = 0.0, 0.0, True
    for ka in (0.5, 1.0, 2.0):
        rule = sm.lebedev_rule(sm.minimum_points(ka))
        start = time.perf_counter()
        smat = sm.MieBackend(sphere_eps3).sample(rule, ka)
        modeset = sm.decompose(sm.apply_weights(smat))
        worst_time = max(worst_time, time.perf_counter() - start)

        l_max = default_l_max(rule)
        channels = sm.channel_eigenvalues(sphere_eps3, ka, l_max)
        significant = modeset.eigenvalues[np.abs(modeset.eigenvalues) > 1e-8]
        for t in significant:
            rel = np.min(np.abs(channels - t)) / abs(t)
            worst_rel = max(worst_rel, float(rel))
        for tau in (1, 2):
            for l in range(1, l_max + 1):
                t_ch = channels[tau - 1, l - 1]
                if abs(t_ch) <= 1e-8:
                    continue
                hits = int(np.sum(
                    np.abs(significant - t_ch) / abs(t_ch) < 1e-6))
                if hits != 2 * l + 1:
                    multiplicity_ok = False
    ok = worst_rel < 1e-6 and worst_time < 5.0 and multiplicity_ok
    _report(1, ok, f"pipeline vs analytic sphere eigenvalues: worst rel "
                   f"{worst_rel:.2e}, multiplicities 2l+1 "
                   f"{'exact' if multiplicity_ok else 'WRONG'}, slowest "
                   f"frequency {worst_time:.2f}s")


def _relative_circle_residual(modeset, floor=1e-8):
    """Circle deviation scaled by each significant mode's offset 2|t_n|.

    The absolute deviation bottoms out at a couple of ulps of 1.0 for weakly
    scattering dipole blocks, so refinement comparisons need the scale-aware
    form.
    """
    res = sm.lossless_residual(modeset)
    sig = np.abs(modeset.eigenvalues)
    mask = sig > floor
    return float(np.max(res[mask] / (2.0 * sig[mask])))


def test_acceptance_2_lossless_circle(mie_modes_ka1, dipole_block,
                                      dda_pipeline):
    _, _, mie_modes = mie_modes_ka1
    mie_res = sm.max_lossless_residual(mie_modes, top=25)

    k, rule, _, _, _, coarse_modes = dda_pipeline
    coarse_abs = sm.max_lossless_residual(coarse_modes, top=25)
    coarse_rel = _relative_circle_residual(coarse_modes)
    refined = sm.build_block((8, 8, 2), dipole_block.spacing / 2.0, 3.0)
    fine_modes = sm.decompose(sm.apply_weights(
        sm.scattering_matrix(refined, rule, k)))
    fine_rel = _relative_circle_residual(fine_modes)

    ok = mie_res < 1e-6 and coarse_abs < 1e-2 and fine_rel < coarse_rel
    _report(2, ok, f"lossless-circle residuals: sphere {mie_res:.2e} (<1e-6), "
                   f"dipole block {coarse_abs:.2e} (<1e-2), per-mode relative "
                   f"deviation {coarse_rel:.2e} -> {fine_rel:.2e} on "
                   f"refinement (decreasing)")


def test_acceptance_3_impedance_farfield_identities(dipole_block,
                                                    dda_pipeline):
    k, rule, system, kmat, smat, modeset = dda_pipeline

    # (a) one-shot matrix assembly vs per-excitation plane-wave solves
    pw = sm.assemble(sm.DdaBackend(dipole_block), rule, k)
    direct_vs_pw = float(np.max(np.abs(smat.matrix - pw.matrix)))

    # (b) impedance-pencil eigenvalues vs scattering eigenvalues
    lam, _ = sm.classical_cm(system)
    t_lam = np.array([sm.t_from_lambda(v) for v in lam])
    t_lam = t_lam[np.argsort(-np.abs(t_lam))][:10]
    pencil_rel = float(np.max(
        np.abs(t_lam - modeset.eigenvalues[:10])
        / np.abs(modeset.eigenvalues[:10])))

    # (c) integrated far-field power operator equals the resistance matrix
    r = system.resistance()
    from_k = sm.radiation_from_farfield(kmat, rule)
    power_res = float(np.max(np.abs(from_k - r)) / np.max(np.abs(r)))

    # (d) plane-wave drive vector equals the scaled conjugate far-field row
    scale = -1j * 4.0 * math.pi / (sm.Z0 * k)
    duality = 0.0
    for q, pol in ((0, "theta"), (3, "phi")):
        col = q + (0 if pol == "theta" else rule.n_points)
        v = sm.planewave_rhs(dipole_block, k, rule.direction(q), pol)
        duality = max(duality, float(np.max(
            np.abs(v - scale * kmat.conj().T[:, col]))))

    ok = (direct_vs_pw < 1e-10 and pencil_rel < 1e-3
          and power_res < 1e-6 and duality < 1e-14)
    _report(3, ok, f"impedance/far-field identities: assembly agreement "
                   f"{direct_vs_pw:.2e}, pencil-vs-scattering {pencil_rel:.2e}, "
                   f"power operator {power_res:.2e}, drive duality "
                   f"{duality:.2e}")


def test_acceptance_4_reciprocity(mie_modes_ka1, dda_pipeline):
    _, mie_smat, _ = mie_modes_ka1
    _, _, _, _, dda_smat, _ = dda_pipeline
    mie_res = sm.reciprocity_residual(mie_smat)
    dda_res = sm.reciprocity_residual(dda_smat)
    ok = mie_res < 1e-10 and dda_res < 1e-10
    _report(4, ok, f"reciprocity residuals: sphere {mie_res:.2e}, dipole "
                   f"block {dda_res:.2e} (<1e-10)")


def test_acceptance_5_closed_loop_excitation(sphere_eps3, mie_modes_ka1,
                                             dipole_block, dda_pipeline):
    # sphere: expand the pipeline eigenvector in harmonics, push it through
    # the analytic transition matrix, and compare with t_n times itself
    rule, _, modeset = mie_modes_ka1
    l_max = default_l_max(rule)
    f_n, t_n = modeset.eigenvectors[:, 0], modeset.eigenvalues[0]
    coeff, _ = expand_farfield(f_n, rule, l_max)
    tmat = sm.layered_tmatrix(sphere_eps3, 1.0, l_max)
    scattered = math.sqrt(sm.Z0) * (
        vsh_matrix(l_max, rule) @ (np.diag(tmat.entries) * coeff))
    mie_rel = float(np.linalg.norm(scattered - t_n * f_n)
                    / np.linalg.norm(t_n * f_n))

    # dipole block: drive the solver with the characteristic plane-wave
    # spectrum of the dominant mode and collect the scattered far field
    k, rule_d, system, kmat, _, dda_modes = dda_pipeline
    f_d, t_d = dda_modes.eigenvectors[:, 0], dda_modes.eigenvalues[0]
    amp = k / (4j * math.pi)
    rhs = np.zeros(3 * dipole_block.n_dipoles, dtype=complex)
    n = rule_d.n_points
    for q, w in enumerate(rule_d.weights):
        p = rule_d.direction(q)
        rhs += amp * w * f_d[q] * sm.planewave_rhs(dipole_block, k, p, "theta")
        rhs += amp * w * f_d[n + q] * sm.planewave_rhs(dipole_block, k, p, "phi")
    scattered_d = kmat @ system.solve(rhs)
    dda_rel = float(np.linalg.norm(scattered_d - t_d * f_d)
                    / np.linalg.norm(t_d * f_d))

    # drive-voltage identity for the realized modal current
    i_n, v_n = sm.modal_current(system, kmat, rule_d, dda_modes, 0)
    drive_rel = float(np.linalg.norm(
        v_n + (system.resistance() @ i_n) / t_d) / np.linalg.norm(v_n))

    ok = mie_rel < 1e-6 and dda_rel < 1e-3 and drive_rel < 1e-8
    _report(5, ok, f"closed-loop excitation: sphere {mie_rel:.2e} (<1e-6), "
                   f"dipole block {dda_rel:.2e} (<1e-3), drive identity "
                   f"{drive_rel:.2e} (<1e-8)")


def _continuity(tracked):
    min_corr, checked, smooth = 1.0, 0, 0
    for tr in tracked.traces:
        if len(tr.correlations):
            min_corr = min(min_corr, float(np.min(tr.correlations)))
        for i in range(1, tr.n_steps):
            t_prev, t_cur = tr.eigenvalues[i - 1], tr.eigenvalues[i]
            if min(abs(t_prev), abs(t_cur)) <= 0.3:
                continue
            checked += 1
            delta = abs(characteristic_angle(t_cur)[0]
                        - characteristic_angle(t_prev)[0])
            if min(delta, 2.0 * math.pi - delta) < 0.2:
                smooth += 1
    return min_corr, (smooth / checked if checked else 1.0)


def test_acceptance_6_layered_sphere_sweeps(dielectric_sweep,
                                            magnetodielectric_sweep):
    kas_d, sweep_d = dielectric_sweep
    kas_m, sweep_m = magnetodielectric_sweep

    unitarity = max(
        max(sm.max_lossless_residual(ms, top=25) for ms in sweep_d.modesets),
        max(sm.max_lossless_residual(ms, top=25) for ms in sweep_m.modesets))

    tracked_d, tracked_m = sm.track(sweep_d), sm.track(sweep_m)
    corr_d, frac_d = _continuity(tracked_d)
    corr_m, frac_m = _continuity(tracked_m)

    # wide-band resonance of the dielectric-magnetic sphere near ka = 3.5
    resonant_kas = []
    for tr in tracked_m.traces:
        for i, t in enumerate(tr.eigenvalues):
            ka = sm.wavenumber(sweep_m.frequencies[tr.start_step + i])
            if (3.35 <= ka <= 3.65 and abs(t) >= 0.9
                    and abs(characteristic_angle(t)[0] - math.pi) <= 0.15):
                resonant_kas.append(ka)
    ok = (unitarity < 1e-6
          and corr_d > 0.99 and corr_m > 0.99
          and frac_d >= 0.95 and frac_m >= 0.95
          and bool(resonant_kas))
    where = f"ka={min(resonant_kas):.2f}..{max(resonant_kas):.2f}" \
        if resonant_kas else "none found"
    _report(6, ok, f"layered-sphere sweeps: unitarity {unitarity:.2e}, "
                   f"min correlation {min(corr_d, corr_m):.6f}, smooth-step "
                   f"fraction {min(frac_d, frac_m):.3f}, resonance near "
                   f"alpha=pi at {where}")


def test_acceptance_7_precision_improves_past_bound(sphere_eps3):
    l_max = 8  # fixed truncation taken from the reference rule
    ref_rule = sm.lebedev_rule(110)

    def errors(rule, ka, ref_angles):
        smat = sm.MieBackend(sphere_eps3, l_max=l_max).sample(rule, ka)
        modes = sm.decompose(sm.apply_weights(smat))
        top = min(25, len(ref_angles))
        mag = float(np.mean(np.abs(
            np.abs(2.0 * modes.eigenvalues[:top] + 1.0) - 1.0)))
        ang = np.array([characteristic_angle(t)[0]
                        for t in modes.eigenvalues[:top]])
        d = np.abs(ang - ref_angles[:top])
        return mag, float(np.mean(np.minimum(d, 2.0 * math.pi - d)))

    details, ok = [], True
    for ka, below, above in ((1.0, 14, 26), (2.0, 26, 50)):
        ref_smat = sm.MieBackend(sphere_eps3, l_max=l_max).sample(
            ref_rule, ka)
        ref_modes = sm.decompose(sm.apply_weights(ref_smat))
        ref_angles = np.array([characteristic_angle(t)[0]
                               for t in ref_modes.eigenvalues[:25]])
        bound = sm.quadrature_bound(ka)
        assert below < bound <= above
        mag_b, ph_b = errors(sm.lebedev_rule(below), ka, ref_angles)
        mag_a, ph_a = errors(sm.lebedev_rule(above), ka, ref_angles)
        ok = ok and mag_a <= 1e-2 * mag_b and ph_a <= 1e-2 * ph_b
        details.append(f"ka={ka:g}: |s|-1 {mag_b:.1e}->{mag_a:.1e}, "
                       f"phase {ph_b:.1e}->{ph_a:.1e}")
    _report(7, ok, "error drop >= 2 orders across the sampling bound "
                   "(" + "; ".join(details) + ")")


def test_acceptance_8_tracking_properties():
    rule = sm.lebedev_rule(14)
    vecs = _orthonormal_farfields(rule, 3)

    # constant far fields: one trace per mode at correlation 1
    sets = tuple(sm.ModeSet(k=s, eigenvalues=np.array([-s, -s / 2, -s / 4]),
                            eigenvectors=vecs, rule=rule)
                 for s in (1.0, 0.9, 0.8))
    tracked = sm.track(sm.SweepResult(frequencies=[1.0, 2.0, 3.0],
                                      modesets=sets))
    constant_ok = (len(tracked.traces) == 3 and all(
        tr.n_steps == 3 and np.allclose(tr.correlations, 1.0, atol=1e-12)
        for tr in tracked.traces))

    # order swap: traces follow the far-field pattern through the crossing
    a, b = vecs[:, 0:1], vecs[:, 1:2]
    sets = (
        sm.ModeSet(k=1.0, eigenvalues=np.array([-0.9, -0.4 + 0j]),
                   eigenvectors=np.hstack([a, b]), rule=rule),
        sm.ModeSet(k=2.0, eigenvalues=np.array([-0.8, -0.2 + 0j]),
                   eigenvectors=np.hstack([b, a]), rule=rule),
    )
    tracked = sm.track(sm.SweepResult(frequencies=[1.0, 2.0], modesets=sets))
    follow = {tr.eigenvalues[0].real: tr.eigenvalues[-1].real
              for tr in tracked.traces}
    swap_ok = follow == {-0.9: -0.2, -0.4: -0.8}

    # permutation of the input mode order leaves traces invariant
    first = sm.ModeSet(k=1.0, eigenvalues=np.array([-0.9, -0.6, -0.3 + 0j]),
                       eigenvectors=vecs, rule=rule)
    second = sm.ModeSet(k=2.0, eigenvalues=np.array([-0.8, -0.5, -0.2 + 0j]),
                        eigenvectors=vecs, rule=rule)
    perm = [2, 0, 1]
    second_p = sm.ModeSet(k=2.0,
                          eigenvalues=np.array([-0.8, -0.5, -0.2 + 0j])[perm],
                          eigenvectors=vecs[:, perm], rule=rule)
    ends = lambda tk: sorted((tr.eigenvalues[0].real, tr.eigenvalues[-1].real)
                             for tr in tk.traces)
    perm_ok = ends(sm.track(sm.SweepResult(
        frequencies=[1.0, 2.0], modesets=(first, second)))) == \
        ends(sm.track(sm.SweepResult(
            frequencies=[1.0, 2.0], modesets=(first, second_p))))

    ok = constant_ok and swap_ok and perm_ok
    _report(8, ok, f"tracking: constant-sweep traces {constant_ok}, crossing "
                   f"follows far fields {swap_ok}, permutation invariant "
                   f"{perm_ok}")


def test_acceptance_9_dataset_round_trip(tmp_path, mie_modes_ka1):
    rule, smat, modeset = mie_modes_ka1
    path = str(tmp_path / "dataset.csv")
    dataio.write_dataset(smat, path)
    redone = sm.decompose(sm.apply_weights(dataio.read_dataset(path)))
    round_trip = float(np.max(np.abs(redone.eigenvalues
                                     - modeset.eigenvalues)))

    # externally hand-built dataset of a single point scatterer
    k, d, eps_r = 1.0, 0.05, 3.0
    rule14 = sm.lebedev_rule(14)
    alpha_s = 3.0 * sm.EPS0 * d ** 3 * (eps_r - 1.0) / (eps_r + 2.0)
    alpha = 1.0 / (1.0 / alpha_s + 1j * k ** 3 / (6.0 * math.pi * sm.EPS0))
    scale = -1j * k ** 3 * alpha / (16.0 * math.pi ** 2 * sm.EPS0)
    units = np.vstack([rule14.theta_hats, rule14.phi_hats])
    matrix = scale * (units @ units.T).astype(complex)
    header = json.dumps({
        "format_version": 1,
        "frequency_hz": k * C0 / (2.0 * math.pi),
        "wavenumber": k,
        "rule": np.column_stack([rule14.theta, rule14.phi,
                                 rule14.weights]).tolist(),
    })
    body = io.StringIO()
    writer = csv.writer(body)
    writer.writerow(["row_index", "col_index", "re", "im"])
    for i in range(28):
        for j in range(28):
            writer.writerow([i, j, format(matrix[i, j].real, ".17g"),
                             format(matrix[i, j].imag, ".17g")])
    hand = tmp_path / "hand_built.csv"
    hand.write_text(header + "\n" + body.getvalue())
    parsed = sm.decompose(sm.apply_weights(dataio.read_dataset(str(hand))))
    u = k ** 3 * alpha_s / (6.0 * math.pi * sm.EPS0)
    t_ana = -1j * u / (1.0 + 1j * u)
    hand_rel = float(np.max(np.abs(parsed.eigenvalues[:3] - t_ana))
                     / abs(t_ana))

    ok = round_trip < 1e-15 and hand_rel < 1e-12
    _report(9, ok, f"dataset round trip {round_trip:.1e} (<1e-15); hand-built "
                   f"point-scatterer file reproduces analytic eigenvalue to "
                   f"{hand_rel:.1e}")


def test_acceptance_10_surface_mesh_backends_out_of_scope():
    backends = {name for name in dir(sm) if name.endswith("Backend")}
    ok = backends == {"MieBackend", "DdaBackend", "ScatteringBackend"}
    _report(10, ok, "surface-mesh solver comparisons are out of scope; only "
                    "the sphere and dipole backends ship: "
                    + ", ".join(sorted(backends)))
