"""Assembly of the sampled scattering matrix and matrix-level physics checks.

The square matrix stacks the two transverse polarizations: rows are
(observation point, polarization) with the full theta block before the phi
block, columns likewise for the excitation.  The unweighted samples are the
stored artifact; quadrature weights are applied once, at decomposition time.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import AlreadyWeighted, ScatmodesError
from .quadrature import QuadratureRule

POLARIZATIONS = ("theta", "phi")


class ScatteringBackend:
    """Anything that can scatter a unit-amplitude plane wave.

    Subclasses implement far_fields(); the returned vector holds the far
    field at every rule point, theta components stacked over phi components.
    """

    def supports(self, k: float) -> bool:
        return k > 0

    def far_fields(self, k: float, direction, polarization: str,
                   rule: QuadratureRule) -> np.ndarray:
        raise NotImplementedError


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

    def doubled_weights(self) -> np.ndarray:
        return np.concatenate([self.rule.weights, self.rule.weights])


def assemble(backend: ScatteringBackend, rule: QuadratureRule, k: float,
             workers: int = 1) -> ScatteringMatrix:
    """Fill the sample matrix by 2 N_q plane-wave excitations.

    A ScatmodesError from the backend passes through as it is; any other
    failure is re-raised as a RuntimeError naming the excitation.
    """
    if not backend.supports(k):
        raise ValueError(f"backend does not support k = {k}")
    n = rule.n_points
    scale = k / (4j * math.pi)

    jobs = [(gi * n + q, rule.points[q], pol)
            for gi, pol in enumerate(POLARIZATIONS) for q in range(n)]

    def run(job):
        col, direction, pol = job
        try:
            return col, backend.far_fields(k, direction, pol, rule)
        except ScatmodesError:
            raise
        except Exception as exc:
            raise RuntimeError(
                f"backend failed on excitation {col} "
                f"(direction {direction}, polarization {pol})") from exc

    matrix = np.empty((2 * n, 2 * n), dtype=complex)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]
    for col, ff in results:
        matrix[:, col] = scale * ff
    return ScatteringMatrix(rule=rule, k=k, matrix=matrix, weighted=False)


def apply_weights(smat: ScatteringMatrix) -> ScatteringMatrix:
    """Right-multiply by the doubled diagonal weight matrix."""
    if smat.weighted:
        raise AlreadyWeighted("weights were already applied to this matrix")
    return replace(smat, matrix=smat.matrix * smat.doubled_weights()[None, :],
                   weighted=True)


def reciprocity_residual(smat: ScatteringMatrix) -> float:
    """Max-norm violation of S(r, r') = S^T(-r', -r) over all sample pairs.

    The check is done on the full tangential dyadic, which makes it immune
    to the polarization-frame sign bookkeeping under direction inversion
    (including the canonicalized pole frames).
    """
    rule = smat.rule
    inv = rule.inversion_permutation()
    n = rule.n_points
    th, ph = rule.theta_hats, rule.phi_hats  # (N_q, 3)

    frames = np.stack([th, ph], axis=1)  # (N_q, 2, 3)
    s4 = smat.matrix.reshape(2, n, 2, n).transpose(1, 3, 0, 2)  # (p, q, g, g')
    # full 3x3 dyadic at every (p, q) pair
    dyad = np.einsum("pqab,pai,qbj->pqij", s4, frames, frames)
    swapped = dyad[np.ix_(inv, inv)].transpose(1, 0, 3, 2)
    return float(np.max(np.abs(dyad - swapped)))
