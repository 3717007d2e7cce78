import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scatmodes import quadrature
from scatmodes.errors import RuleNotInversionSymmetric, UnsupportedRuleSize
from scatmodes.mie import default_l_max
from scatmodes.quadrature import (Direction, QuadratureRule, SUPPORTED_SIZES,
                                  SIZES_WITH_NEGATIVE_WEIGHTS, integrate,
                                  lebedev_rule, minimum_points,
                                  quadrature_bound)
from scatmodes.swe import _tangential_components, vsh_matrix

FOUR_PI = 4.0 * math.pi


def test_supported_sizes_build_and_normalize():
    for n in SUPPORTED_SIZES:
        rule = lebedev_rule(n)
        assert rule.n_points == n
        assert abs(rule.weights.sum() - FOUR_PI) < 1e-12
        assert np.allclose(np.linalg.norm(rule.unit_vectors, axis=1), 1.0)


def test_unsupported_size_names_neighbors():
    with pytest.raises(UnsupportedRuleSize, match="38"):
        lebedev_rule(40)
    with pytest.raises(UnsupportedRuleSize):
        lebedev_rule(7)


def test_negative_weight_sizes_flagged():
    for n in SIZES_WITH_NEGATIVE_WEIGHTS:
        assert lebedev_rule(n).weights.min() < 0
    for n in set(SUPPORTED_SIZES) - set(SIZES_WITH_NEGATIVE_WEIGHTS):
        assert lebedev_rule(n).weights.min() > 0


@pytest.mark.parametrize("n", [6, 14, 26, 38, 50, 86, 110, 194, 302])
def test_polynomial_exactness_to_declared_degree(n):
    """Integrates x^a y^b z^c exactly for total degree <= capability."""
    rule = lebedev_rule(n)
    rng = np.random.default_rng(n)
    deg = rule.order_capability
    uv = rule.unit_vectors
    for _ in range(12):
        a, b, c = rng.multinomial(deg if deg % 2 == 0 else deg - 1, [1/3]*3)
        vals = uv[:, 0]**a * uv[:, 1]**b * uv[:, 2]**c
        approx = rule.weights @ vals
        # exact value of the monomial integral over the sphere
        if a % 2 or b % 2 or c % 2:
            exact = 0.0
        else:
            exact = 2.0 * (math.gamma((a+1)/2) * math.gamma((b+1)/2)
                           * math.gamma((c+1)/2)) / math.gamma((a+b+c+3)/2)
        assert abs(approx - exact) < 1e-11 * max(1.0, abs(exact))


def test_spherical_harmonic_addition_theorem():
    """Sum over points of |Y_l|^2-like kernels matches 2l+1 multiplicity."""
    from scipy.special import eval_legendre

    rule = lebedev_rule(50)
    uv = rule.unit_vectors
    for l in range(rule.order_capability // 2 + 1):
        # integral of P_l(r . r') over r equals 0 for l > 0, 4pi for l = 0
        kernel = eval_legendre(l, uv @ uv[0])
        val = rule.weights @ kernel
        assert abs(val - (FOUR_PI if l == 0 else 0.0)) < 1e-12


def test_direction_pole_canonicalization():
    assert Direction(0.0, 1.3).phi == 0.0
    assert Direction(math.pi, 2.0).phi == 0.0
    d = Direction(1.0, -1.0)
    assert 0 <= d.phi < 2 * math.pi
    with pytest.raises(ValueError):
        Direction(-0.1, 0.0)


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_direction_rejects_non_finite_phi(phi):
    with pytest.raises(ValueError, match="phi"):
        Direction(1.0, phi)


def test_direction_frames_orthonormal():
    d = Direction(0.7, 2.1)
    for a, b in [(d.unit_vector, d.theta_hat), (d.unit_vector, d.phi_hat),
                 (d.theta_hat, d.phi_hat)]:
        assert abs(a @ b) < 1e-15
    assert np.allclose(np.cross(d.theta_hat, d.phi_hat), d.unit_vector)


def test_direction_inversion_frame_signs():
    d = Direction(0.7, 2.1)
    di = d.inverted()
    assert np.allclose(di.unit_vector, -d.unit_vector)
    assert np.allclose(di.theta_hat, d.theta_hat)
    assert np.allclose(di.phi_hat, -d.phi_hat)


def test_inversion_permutation_closed():
    rule = lebedev_rule(26)
    perm = rule.inversion_permutation()
    assert np.allclose(rule.unit_vectors[perm], -rule.unit_vectors)
    assert np.array_equal(perm[perm], np.arange(26))


def test_inversion_permutation_rejects_open_rule():
    rule = QuadratureRule(theta=np.array([0.3, 1.0]), phi=np.array([0.1, 2.0]),
                          weights=np.array([1.0, 1.0]), order_capability=0)
    with pytest.raises(RuleNotInversionSymmetric):
        rule.inversion_permutation()


def test_minimum_points_reference_values():
    assert minimum_points(1.0) == 26
    assert minimum_points(2.0) == 50
    assert minimum_points(1e-6) == 6
    with pytest.raises(UnsupportedRuleSize):
        minimum_points(50.0)


def test_quadrature_bound_formula():
    ka = 2.0
    expected = (4.0 / 3.0) * (ka + 2.0 * ka ** (1 / 3) + 1.0) ** 2
    assert quadrature_bound(ka) == pytest.approx(expected)
    with pytest.raises(ValueError):
        quadrature_bound(0.0)


def test_integrate_constant_and_harmonic():
    rule = lebedev_rule(14)
    assert integrate(rule, lambda d: 1.0) == pytest.approx(FOUR_PI)
    assert abs(integrate(rule, lambda d: math.cos(d.theta))) < 1e-14


def test_point_ordering_is_deterministic():
    a, b = lebedev_rule(38), lebedev_rule(38)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.weights, b.weights)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def _per_point_reference(n):
    """lebedev_rule(n)'s arrays rebuilt one Direction at a time: the scalar
    from_vector angles, one Direction per sorted point, frames from each
    Direction and the antipode search one point at a time."""
    entries = []
    for code, a, b, v in quadrature._ORBITS[n]:
        for xyz in quadrature._orbit_points(code, a, b):
            d = Direction.from_vector(xyz)
            entries.append((v * FOUR_PI, d.theta, d.phi))
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    points = [Direction(t, p) for _, t, p in entries]
    weights = np.array([w for w, _, _ in entries])
    theta = np.array([p.theta for p in points])
    phi = np.array([p.phi for p in points])
    uv = np.array([p.unit_vector for p in points])
    inversion = np.array([int(np.argmin(np.sum((uv + uv[p]) ** 2, axis=1)))
                          for p in range(n)])
    l_max = max(1, quadrature.RULE_DEGREE[n] // 2)
    return {"theta": theta, "phi": phi, "weights": weights,
            "doubled_weights": np.concatenate([weights, weights]),
            "unit_vectors": uv,
            "theta_hats": np.array([p.theta_hat for p in points]),
            "phi_hats": np.array([p.phi_hat for p in points]),
            "vsh": np.vstack(_tangential_components(l_max, theta, phi)),
            "inversion": inversion}


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_rule_arrays_match_a_per_point_direction_reference(n):
    rule = lebedev_rule(n)
    expected = _per_point_reference(n)
    got = {name: getattr(rule, name) for name in
           ("theta", "phi", "weights", "doubled_weights", "unit_vectors",
            "theta_hats", "phi_hats")}
    got["vsh"] = vsh_matrix(default_l_max(rule), rule)
    got["inversion"] = rule.inversion_permutation()
    for name, value in expected.items():
        assert _same_bits(got[name], value), name
    for name in list(got)[:-1]:
        assert not got[name].flags.writeable, name


_ANGLES = st.floats(-1e3, 1e3, allow_nan=False)
_THETAS = st.one_of(st.sampled_from([0.0, 5e-15, math.pi, math.pi - 5e-15]),
                    st.floats(0.0, math.pi))


@given(st.lists(st.tuples(_THETAS, _ANGLES), min_size=1, max_size=12))
def test_rule_canonicalizes_phi_as_direction_does(points):
    theta, phi = (np.array(a) for a in zip(*points))
    rule = QuadratureRule(theta=theta, phi=phi, weights=np.ones(len(points)),
                          order_capability=0)
    expected = [Direction(t, p) for t, p in points]
    assert _same_bits(rule.theta, [d.theta for d in expected])
    assert _same_bits(rule.phi, [d.phi for d in expected])
    assert _same_bits(phi, [p for _, p in points])  # the input is left alone


@pytest.mark.parametrize("theta, phi, weights, what", [
    ([0.3, math.nan], [0.1, 2.0], [1.0, 1.0], "theta"),
    ([0.3, math.inf], [0.1, 2.0], [1.0, 1.0], "theta"),
    ([0.3, -0.1], [0.1, 2.0], [1.0, 1.0], "theta"),
    ([0.3, 3.2], [0.1, 2.0], [1.0, 1.0], "theta"),
    ([0.3, 1.0], [0.1, math.nan], [1.0, 1.0], "phi"),
    ([0.3, 1.0], [0.1, math.inf], [1.0, 1.0], "phi"),
    ([0.3, 1.0], [-math.inf, 2.0], [1.0, 1.0], "phi"),
    ([0.3, 1.0], [0.1, 2.0], [1.0, 0.0], "weight"),
    ([0.3, 1.0], [0.1, 2.0], [1.0, -0.0], "weight"),
    ([0.3, 1.0], [0.1, 2.0], [math.nan, 1.0], "weight"),
    ([0.3, 1.0], [0.1, 2.0], [1.0, -math.inf], "weight"),
    ([0.3, 1.0], [0.1], [1.0, 1.0], "one length"),
    ([0.3, 1.0], [0.1, 2.0], [1.0, 1.0, 1.0], "one length"),
    ([[0.3, 1.0]], [[0.1, 2.0]], [[1.0, 1.0]], "1-D"),
], ids=["theta-nan", "theta-inf", "theta-negative", "theta-past-pi",
        "phi-nan", "phi-inf", "phi-minus-inf", "weight-zero",
        "weight-minus-zero", "weight-nan", "weight-minus-inf", "phi-short",
        "weights-long", "two-dimensional"])
def test_rule_rejects_points_it_cannot_carry(theta, phi, weights, what):
    with pytest.raises(ValueError, match=what):
        QuadratureRule(theta=np.array(theta), phi=np.array(phi),
                       weights=np.array(weights), order_capability=0)
