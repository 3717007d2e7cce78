import numpy as np
import pytest

import scatmodes as sm
from scatmodes.errors import AlreadyWeighted
from scatmodes.scattering import POLARIZATIONS


class RecordingBackend(sm.ScatteringBackend):
    """Returns a distinctive vector per excitation and records the calls."""

    def __init__(self):
        self.calls = []

    def far_fields(self, k, direction, polarization, rule):
        self.calls.append((direction, polarization))
        n = rule.n_points
        idx = list(rule.points).index(direction)
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


def test_assemble_parallel_matches_serial():
    rule = sm.lebedev_rule(14)
    sphere = sm.LayeredSphere.homogeneous(1.0, 3.0)
    serial = sm.assemble(sm.MieBackend(sphere), rule, 1.0, workers=1)
    parallel = sm.assemble(sm.MieBackend(sphere), rule, 1.0, workers=4)
    assert np.array_equal(serial.matrix, parallel.matrix)


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
    assert np.allclose(weighted.matrix[0], smat.doubled_weights())
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
    smat = sm.assemble(sm.MieBackend(sphere), rule, 0.8)
    assert sm.reciprocity_residual(smat) < 1e-14


def _rotated(rule, angle):
    """The same rule turned about the z axis."""
    return sm.QuadratureRule(
        points=tuple(sm.Direction(p.theta, p.phi + angle) for p in rule.points),
        weights=rule.weights, order_capability=rule.order_capability)


@pytest.mark.parametrize("make_backend,memo", [
    (lambda: sm.MieBackend(sm.LayeredSphere.homogeneous(1.0, 3.0)), "_cache"),
    (lambda: sm.DdaBackend(sm.build_block((2, 2, 1), 0.3, 3.0)), "_kmats"),
], ids=["mie", "dda"])
def test_backend_memo_follows_the_rule_object(make_backend, memo):
    base = sm.lebedev_rule(26)
    rules = (_rotated(base, 0.3), _rotated(base, 1.1))
    backend = make_backend()
    for i in range(200):
        rule = rules[i % 2]
        got = backend.far_fields(1.0, rule.points[0], "theta", rule)
        expected = make_backend().far_fields(1.0, rule.points[0], "theta", rule)
        assert np.array_equal(got, expected)
        assert len(getattr(backend, memo)) <= 1
