"""Sphere backend tests against independent textbook oracles.

The oracle formulas here are the classical single-sphere scattering
coefficients written with Riccati-Bessel functions, and a direct
boundary-condition linear solve for multilayer spheres.  Both are
algorithmically independent of the admittance recursion under test.
"""

import math

import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

import scatmodes as sm
from scatmodes.errors import ScatmodesError
from scatmodes.mie import MieOverflow, default_l_max
from scatmodes.swe import n_swe, swe_indices


def _riccati(l, x):
    j, jp = spherical_jn(l, x), spherical_jn(l, x, derivative=True)
    y, yp = spherical_yn(l, x), spherical_yn(l, x, derivative=True)
    return j * x, j + x * jp, -y * x, -(y + x * yp)


def oracle_homogeneous_t(ka, eps, mu, l):
    """Classical sphere coefficients; outgoing radial function psi + j chi."""
    m = math.sqrt(eps * mu)
    psi, dpsi, chi, dchi = _riccati(l, ka)
    psim, dpsim, _, _ = _riccati(l, m * ka)
    xi, dxi = psi + 1j * chi, dpsi + 1j * dchi
    t_tm = -(m * psim * dpsi - mu * psi * dpsim) / (m * psim * dxi - mu * xi * dpsim)
    t_te = -(m * psim * dpsi - eps * psi * dpsim) / (m * psim * dxi - eps * xi * dpsim)
    return t_te, t_tm


def oracle_layered_t(layers, ka, tau, l):
    """Direct solve of all interface conditions; one unknown pair per layer."""
    n_layers = len(layers)
    nunk = 2 * n_layers
    a = np.zeros((nunk, nunk), dtype=complex)
    b = np.zeros(nunk, dtype=complex)

    def cols(j):
        return [0] if j == 0 else [2 * j - 1, 2 * j]

    for i, (eps_i, mu_i, f_i) in enumerate(layers):
        row_v, row_d = 2 * i, 2 * i + 1
        m_i = math.sqrt(eps_i * mu_i)
        p_i = mu_i if tau == 1 else eps_i
        ps, dps, ch, dch = _riccati(l, ka * f_i * m_i)
        vals = [ps] if i == 0 else [ps, ch]
        ders = [dps] if i == 0 else [dps, dch]
        for c, v, d in zip(cols(i), vals, ders):
            a[row_v, c] += v
            a[row_d, c] += (m_i / p_i) * d
        if i + 1 < n_layers:
            eps_o, mu_o, _ = layers[i + 1]
            m_o = math.sqrt(eps_o * mu_o)
            p_o = mu_o if tau == 1 else eps_o
            ps, dps, ch, dch = _riccati(l, ka * f_i * m_o)
            for c, v, d in zip(cols(i + 1), [ps, ch], [dps, dch]):
                a[row_v, c] -= v
                a[row_d, c] -= (m_o / p_o) * d
        else:
            ps, dps, ch, dch = _riccati(l, ka)
            a[row_v, nunk - 1] -= ps + 1j * ch
            a[row_d, nunk - 1] -= dps + 1j * dch
            b[row_v], b[row_d] = ps, dps
    return np.linalg.solve(a, b)[-1]


def _reference_channel_eigenvalue(sphere, ka, tau, l):
    """Per-channel scalar loop: the batched recursion must match it bit for bit."""
    layers = sphere.layers
    first = layers[0]

    def scale(lay):
        return lay.relative_permeability if tau == 1 else lay.relative_permittivity

    x0 = ka * first.outer_boundary_fraction * first.refractive_index
    psi, dpsi, _, _ = _riccati(l, x0)
    u = (first.refractive_index / scale(first)) * dpsi
    v = psi
    for prev, lay in zip(layers, layers[1:]):
        m, p = lay.refractive_index, scale(lay)
        xa = ka * prev.outer_boundary_fraction * m
        xb = ka * lay.outer_boundary_fraction * m
        psa, dpsa, cha, dcha = _riccati(l, xa)
        psb, dpsb, chb, dchb = _riccati(l, xb)
        # Cramer's rule with the Wronskian determinant -(m / p)
        w = u / (m / p)
        c, d = cha * w - dcha * v, dpsa * v - psa * w
        u = (m / p) * (c * dpsb + d * dchb)
        v = c * psb + d * chb
        nrm = max(abs(u), abs(v))
        u, v = u / nrm, v / nrm
    psi, dpsi, chi, dchi = _riccati(l, ka)
    num = u * psi - v * dpsi
    den_im = u * chi - v * dchi
    t = -num / (num + 1j * den_im)
    if not np.isfinite(t):
        raise MieOverflow(l)
    return complex(t)


def _reference_channels(sphere, ka, l_max):
    out = np.empty((2, l_max), dtype=complex)
    for tau in (1, 2):
        for l in range(1, l_max + 1):
            out[tau - 1, l - 1] = _reference_channel_eigenvalue(sphere, ka, tau, l)
    return out


def _reference_diagonal(tch, l_max):
    diag = np.empty(n_swe(l_max), dtype=complex)
    for idx in swe_indices(l_max):
        diag[idx.alpha] = tch[idx.tau - 1, idx.l - 1]
    return diag


_MAGNETODIELECTRIC = sm.LayeredSphere(1.0, tuple(
    sm.Layer(e, m, f) for e, m, f in
    zip([1, 5, 1, 2], [3, 1, 8, 1], [0.25, 0.5, 0.75, 1.0])))


@pytest.mark.parametrize("sphere,l_max,kas", [
    (_MAGNETODIELECTRIC, 4, np.linspace(0.5, 4.5, 51)),
    (sm.LayeredSphere.homogeneous(1.0, 3.0), 14, np.linspace(0.1, 6.0, 21)),
])
def test_batched_recursion_is_bit_identical_to_per_channel_loop(sphere, l_max, kas):
    for ka in kas:
        ref = _reference_channels(sphere, ka, l_max)
        assert np.array_equal(sm.channel_eigenvalues(sphere, ka, l_max), ref)
        diag = _reference_diagonal(ref, l_max)
        assert np.array_equal(sm.layered_tmatrix(sphere, ka, l_max).entries,
                              np.diag(diag))
        order = np.argsort(-np.abs(diag), kind="stable")
        modes = sm.analytic_modes(sphere, ka, l_max)
        assert np.array_equal(modes.eigenvalues, diag[order])
        assert np.array_equal(modes.eigenvectors,
                              np.eye(diag.size, dtype=complex)[:, order])


@pytest.mark.parametrize("sphere,ka,l_max,l", [
    # exterior match of a homogeneous extreme-contrast sphere
    (sm.LayeredSphere.homogeneous(1.0, 1e12), 1e-8, 60, 32),
    # non-finite admittance after the shell transfer
    (sm.LayeredSphere(1.0, (sm.Layer(2, 1, 1e-6), sm.Layer(50, 1, 1.0))),
     1e-8, 20, 20),
    # radial functions out of range at the outer shell
    (sm.LayeredSphere(1.0, (sm.Layer(50, 1, 0.3), sm.Layer(2, 3, 0.6),
                            sm.Layer(1, 1, 1.0))),
     0.1, 120, 99),
])
def test_overflow_matches_per_channel_loop(sphere, ka, l_max, l):
    with pytest.raises(MieOverflow) as batched:
        sm.channel_eigenvalues(sphere, ka, l_max)
    with np.errstate(all="ignore"), pytest.raises(MieOverflow) as looped:
        _reference_channels(sphere, ka, l_max)
    assert batched.value.l == looped.value.l == l
    assert str(batched.value) == str(looped.value)
    assert str(batched.value).endswith(f"l={l}")


def test_riccati_equals_the_scipy_derivative_path():
    """One spherical_jn and one spherical_yn call with the derivative
    recurrence, against four scipy calls with derivative=True, for
    l = 1..30 over x from 1e-3 to 50, and down to 1e-12, where y_l and
    its derivative overflow."""
    x = np.concatenate([np.geomspace(1e-12, 1e-4, 41),
                        np.geomspace(1e-3, 50.0, 801)])[:, None]
    with np.errstate(all="ignore"):
        got = sm.mie._riccati(30, x)
        ref = _riccati(np.arange(1, 31), x)
    assert not np.all(np.isfinite(ref[2])) and not np.all(np.isfinite(ref[3]))
    for g, r in zip(got, ref):
        assert g.shape == r.shape == (842, 30)
        assert np.array_equal(g, r, equal_nan=True)


def test_riccati_wronskian_is_minus_one():
    """psi chi' - chi psi' = -1 (DLMF 10.50): the layer transfer divides by
    it in closed form, so it must hold to rounding for l = 1..20 over x
    from 0.05 to 30, where all four functions are finite."""
    x = np.concatenate([np.geomspace(0.05, 1.0, 400),
                        np.linspace(1.0, 30.0, 1201)])[:, None]
    psi, dpsi, chi, dchi = sm.mie._riccati(20, x)
    wronskian = psi * dchi - chi * dpsi
    assert np.max(np.abs(wronskian + 1.0)) < 1e-13


def test_bessel_ufuncs_equal_the_public_functions():
    """_riccati calls the ufuncs behind spherical_jn and spherical_yn; for
    x >= 0 their wrappers add nothing, l = 0..30 over x from 1e-12 to 50
    (y_l overflows at the small end)."""
    orders = np.arange(31)
    x = np.concatenate([[0.0], np.geomspace(1e-12, 50.0, 1201)])[:, None]
    with np.errstate(all="ignore"):
        for ufunc, public in ((sm.mie._spherical_jn, spherical_jn),
                              (sm.mie._spherical_yn, spherical_yn)):
            got, ref = ufunc(orders, x), public(orders, x)
            assert got.shape == ref.shape == (1202, 31)
            assert np.array_equal(got, ref, equal_nan=True)


@pytest.mark.parametrize("eps,mu", [(3.0, 1.0), (2.0, 1.0), (5.0, 2.0)])
@pytest.mark.parametrize("ka", [0.5, 1.0, 2.0, 4.5])
def test_homogeneous_matches_textbook(eps, mu, ka):
    sphere = sm.LayeredSphere.homogeneous(1.0, eps, mu)
    tch = sm.channel_eigenvalues(sphere, ka, 6)
    for l in range(1, 7):
        t_te, t_tm = oracle_homogeneous_t(ka, eps, mu, l)
        assert tch[0, l - 1] == pytest.approx(t_te, rel=1e-10, abs=1e-16)
        assert tch[1, l - 1] == pytest.approx(t_tm, rel=1e-10, abs=1e-16)


def test_multilayer_matches_direct_solve():
    layers = list(zip([1, 5, 1, 2], [3, 1, 8, 1], [0.25, 0.5, 0.75, 1.0]))
    sphere = sm.LayeredSphere(1.0, tuple(sm.Layer(e, m, f) for e, m, f in layers))
    for ka in (0.5, 1.7, 3.5, 4.5):
        tch = sm.channel_eigenvalues(sphere, ka, 5)
        for tau in (1, 2):
            for l in range(1, 6):
                expected = oracle_layered_t(layers, ka, tau, l)
                assert tch[tau - 1, l - 1] == pytest.approx(expected, abs=1e-12)


def test_lossless_circle_structurally_exact():
    sphere = sm.LayeredSphere(1.0, tuple(
        sm.Layer(e, 1.0, f) for e, f in zip([3, 5, 8, 2], [0.25, 0.5, 0.75, 1.0])))
    for ka in (0.3, 1.0, 2.7, 4.5):
        tch = sm.channel_eigenvalues(sphere, ka, 8)
        assert np.max(np.abs(np.abs(2 * tch + 1) - 1)) < 1e-14


def test_vacuum_sphere_scatters_nothing():
    sphere = sm.LayeredSphere.homogeneous(1.0, 1.0)
    tch = sm.channel_eigenvalues(sphere, 1.0, 4)
    assert np.max(np.abs(tch)) < 1e-15


def test_layer_validation():
    with pytest.raises(ValueError, match="strictly increase"):
        sm.LayeredSphere(1.0, (sm.Layer(3, 1, 0.5), sm.Layer(2, 1, 0.5)))
    with pytest.raises(ValueError, match="outermost"):
        sm.LayeredSphere(1.0, (sm.Layer(3, 1, 0.9),))
    with pytest.raises(ValueError, match="eps_r"):
        sm.Layer(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="at least one layer"):
        sm.LayeredSphere(1.0, ())
    with pytest.raises(ValueError):
        sm.LayeredSphere(-1.0, (sm.Layer(3, 1, 1.0),))


def test_channel_argument_validation():
    sphere = sm.LayeredSphere.homogeneous(1.0, 3.0)
    with pytest.raises(ValueError):
        sm.channel_eigenvalues(sphere, -1.0, 3)
    with pytest.raises(ValueError):
        sm.channel_eigenvalues(sphere, 1.0, 0)


def test_tmatrix_diagonal_multiplicity():
    sphere = sm.LayeredSphere.homogeneous(1.0, 3.0)
    tmat = sm.layered_tmatrix(sphere, 1.0, 3)
    diag = np.diag(tmat.entries)
    assert np.count_nonzero(tmat.entries - np.diag(diag)) == 0
    tch = sm.channel_eigenvalues(sphere, 1.0, 3)
    for tau in (1, 2):
        for l in (1, 2, 3):
            hits = np.isclose(diag, tch[tau - 1, l - 1]).sum()
            assert hits >= 2 * l + 1


def test_analytic_modes_sorted_with_multiplicity():
    sphere = sm.LayeredSphere.homogeneous(1.0, 3.0)
    modes = sm.analytic_modes(sphere, 1.0, 4)
    sig = np.abs(modes.eigenvalues)
    assert np.all(np.diff(sig) <= 1e-15)
    # dominant channel appears exactly 2l+1 times
    top = modes.eigenvalues[0]
    count = np.sum(np.isclose(modes.eigenvalues, top))
    tch = sm.channel_eigenvalues(sphere, 1.0, 4)
    tau_i, l_i = np.unravel_index(np.argmax(np.abs(tch)), tch.shape)
    assert count == 2 * (l_i + 1) + 1


def test_backend_default_truncation_follows_rule():
    assert default_l_max(sm.lebedev_rule(26)) == 3
    assert default_l_max(sm.lebedev_rule(110)) == 8
    assert default_l_max(sm.lebedev_rule(6)) == 1


@pytest.mark.parametrize("n_q", [38, 110, 302])
def test_backend_sample_is_the_tmatrix_synthesis(n_q):
    sphere = sm.LayeredSphere(2.0, (sm.Layer(5.0, 2.0, 0.5),
                                    sm.Layer(2.0, 1.0, 1.0)))
    rule, k = sm.lebedev_rule(n_q), 0.65
    backend = sm.MieBackend(sphere)
    got = backend.sample(rule, k)
    assert backend.radius == 2.0
    tmat = sm.layered_tmatrix(sphere, k * 2.0, default_l_max(rule))
    expected = sm.s_from_t(tmat, rule, k)
    assert got.k == k and got.rule is rule and not got.weighted
    # bit for bit, signed zeros included
    assert np.array_equal(got.matrix.view(np.uint64),
                          expected.matrix.view(np.uint64))


def test_overflow_reports_degree():
    # extreme contrast at tiny ka drives the interior functions out of range
    sphere = sm.LayeredSphere.homogeneous(1.0, 1e12)
    with pytest.raises(MieOverflow) as exc:
        sm.channel_eigenvalues(sphere, 1e-8, 60)
    assert exc.value.l == 32
    assert isinstance(exc.value, ScatmodesError)
