"""Assembly of the sampled scattering matrix and matrix-level physics checks.

The square matrix stacks the two transverse polarizations: rows are
(observation point, polarization) with the full theta block before the phi
block, columns likewise for the excitation.  The unweighted samples are the
stored artifact; quadrature weights are applied once, at decomposition time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AlreadyWeighted, RuleNotInversionSymmetric, ScatmodesError
from .quadrature import QuadratureRule

# Shared physical constants
Z0 = 376.730313668        # free-space impedance, ohm
C0 = 299792458.0          # speed of light, m/s
EPS0 = 1.0 / (Z0 * C0)    # vacuum permittivity, F/m

POLARIZATIONS = ("theta", "phi")


class ScatteringBackend:
    """Anything that can scatter a unit-amplitude plane wave.

    sample(rule, k) is the one way a backend is sampled.  To plug in
    another solver, subclass this, set `radius` (of a sphere about the
    origin that holds the scatterer) and implement far_fields(); the
    inherited sample() then runs the 2 N_q plane-wave excitations through
    assemble().  far_fields() returns the far field of one incident plane
    wave, from the Direction rule.direction(q), at every rule point, theta
    components stacked over phi components.
    """

    radius: float

    def far_fields(self, k: float, direction, polarization: str,
                   rule: QuadratureRule) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rule: QuadratureRule, k: float) -> "ScatteringMatrix":
        """Unweighted sample matrix at wavenumber k on the rule's points."""
        return assemble(self, rule, k)


@dataclass(frozen=True)
class ScatteringMatrix:
    rule: QuadratureRule
    k: float
    matrix: np.ndarray  # (2 N_q, 2 N_q) complex
    weighted: bool = False

    def __post_init__(self):
        n = 2 * self.rule.n_points
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix contains non-finite entries")
        object.__setattr__(self, "matrix", m)

    @property
    def n_points(self) -> int:
        return self.rule.n_points

    def block(self, obs_pol: str, exc_pol: str) -> np.ndarray:
        n = self.n_points
        i = POLARIZATIONS.index(obs_pol) * n
        j = POLARIZATIONS.index(exc_pol) * n
        return self.matrix[i:i + n, j:j + n]


def assemble(backend: ScatteringBackend, rule: QuadratureRule,
             k: float) -> ScatteringMatrix:
    """Fill the sample matrix by 2 N_q plane-wave excitations.

    A ScatmodesError from the backend passes through as it is; any other
    failure is re-raised as a RuntimeError naming the excitation.
    """
    if not k > 0:
        raise ValueError(f"backend does not support k = {k}")
    n = rule.n_points
    scale = k / (4j * math.pi)
    matrix = np.empty((2 * n, 2 * n), dtype=complex)
    for gi, pol in enumerate(POLARIZATIONS):
        for q in range(n):
            col, direction = gi * n + q, rule.direction(q)
            try:
                ff = backend.far_fields(k, direction, pol, rule)
            except ScatmodesError:
                raise
            except Exception as exc:
                raise RuntimeError(
                    f"backend failed on excitation {col} "
                    f"(direction {direction}, polarization {pol})") from exc
            matrix[:, col] = scale * ff
    return ScatteringMatrix(rule=rule, k=k, matrix=matrix, weighted=False)


def apply_weights(smat: ScatteringMatrix) -> ScatteringMatrix:
    """Right-multiply by the doubled diagonal weight matrix."""
    if smat.weighted:
        raise AlreadyWeighted("weights were already applied to this matrix")
    w = smat.rule.doubled_weights
    return replace(smat, matrix=smat.matrix * w[None, :], weighted=True)


def reciprocity_residual(smat: ScatteringMatrix) -> float:
    """Max-norm violation of S(r, r') = S^T(-r', -r) over all sample pairs.

    The residual is max |S[(a,p),(b,q)] - sigma_a(p) sigma_b(q)
    S[(b,inv q),(a,inv p)]| over both polarizations: one gather of S^T
    through index[a N_q + p] = a N_q + inv[p], and a sign per row and
    column.  sigma_a(p) is the diagonal of F_p^T F_inv(p), for the rule's
    theta/phi frames F_p = [theta_hat, phi_hat] (3x2).  The tangent planes
    at r and -r coincide, so F_p^T F_inv(p) is orthogonal; unless it is
    also a signed diagonal, within 1e-12, RuleNotInversionSymmetric is
    raised.  The 3x3 Cartesian dyad difference of each sample pair is
    F_p Delta_pq F_q^T of this 2x2 difference Delta_pq: it has the same
    Frobenius norm, and its max-norm lies between a third of this residual
    and twice it.  Only the unweighted samples are reciprocal.
    """
    if smat.weighted:
        raise ValueError("reciprocity_residual expects the unweighted "
                         "samples, not the output of apply_weights")
    rule = smat.rule

    def build():  # the gather and the signs, kept with the rule
        inv = rule.inversion_permutation()
        frames = np.stack([rule.theta_hats, rule.phi_hats], axis=2)
        cross = frames.transpose(0, 2, 1) @ frames[inv]  # (N_q, 2, 2)
        signs = np.sign(np.diagonal(cross, axis1=1, axis2=2))  # (N_q, 2)
        if np.max(np.abs(cross - signs[:, :, None] * np.eye(2))) > 1e-12:
            raise RuleNotInversionSymmetric(
                f"the polarization frames of rule {rule.name or rule.n_points}"
                f" at r and -r differ by more than a sign")
        index = np.concatenate([inv, rule.n_points + inv])
        # S.take(pairs) is S.T[index][:, index], flattened
        pairs = (index[None, :] * len(index) + index[:, None]).ravel()
        sigma = signs.T.ravel()  # the theta block, then the phi block
        for arr in (pairs, sigma):
            arr.setflags(write=False)
        return pairs, sigma

    pairs, sigma = rule.cached("inversion signs", build)
    mirror = smat.matrix.take(pairs).reshape(smat.matrix.shape)
    mirror *= sigma[:, None]
    mirror *= sigma[None, :]
    np.subtract(smat.matrix, mirror, out=mirror)
    return float(np.max(np.abs(mirror)))
