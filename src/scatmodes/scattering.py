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

from .errors import AlreadyWeighted, ScatmodesError
from .quadrature import QuadratureRule

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


#: bytes of dyad that reciprocity_residual builds at once: all nine
#: components while they fit (N_q <= 74), else one transpose pair, which
#: from N_q = 86 on is also the faster (measured)
RECIPROCITY_BLOCK_BYTES = 2**20


def _dyad_blocks(n: int) -> list[tuple[tuple, tuple]]:
    """(rows, cols) of the dyad blocks reciprocity_residual builds.

    Each block, together with its transpose (cols, rows), is closed under
    (i, j) -> (j, i), so that it can be checked on its own.
    """
    if 9 * n * n * 16 <= RECIPROCITY_BLOCK_BYTES:
        return [((0, 1, 2), (0, 1, 2))]
    return [((i,), (j,)) for i in range(3) for j in range(i, 3)]


def _dyads(smat: ScatteringMatrix, rows, cols) -> np.ndarray:
    """Components (i, j), i in rows and j in cols, of the 3x3 dyad at
    every sample pair, (len(rows), len(cols), N_q, N_q).

    dyad[i, j, p, q] sums S[(a, p), (b, q)] frame_a(p)_i frame_b(q)_j over
    the polarizations (a, b).  Complex-cast frames and the four terms added
    into zeros in (a, b) order reproduce the naive four-operand
    einsum("pqab,pai,qbj->pqij"), transposed, bit for bit, at under half its
    cost.  The sample pair is the inner index, so that each broadcast runs
    over N_q entries at a time.  The frames, cast and indexed for the
    block, depend only on the rule and are kept with it.
    """
    rule = smat.rule
    n = rule.n_points

    def build():
        frames = (rule.theta_hats.T.astype(complex),
                  rule.phi_hats.T.astype(complex))  # (3, N_q) each
        blocks = ([f[list(rows), :, None] for f in frames],
                  [f[None, list(cols), None, :] for f in frames])
        for arr in blocks[0] + blocks[1]:
            arr.setflags(write=False)
        return blocks

    left_frames, right_frames = rule.cached(
        ("dyad frames", tuple(rows), tuple(cols)), build)
    s4 = smat.matrix.reshape(2, n, 2, n)  # (a, p, b, q)
    dyad = np.zeros((len(rows), len(cols), n, n), dtype=complex)
    for a in range(2):
        for b in range(2):
            left = s4[a, None, :, b, :] * left_frames[a]
            dyad += left[:, None] * right_frames[b]
    return dyad


def reciprocity_residual(smat: ScatteringMatrix) -> float:
    """Max-norm violation of S(r, r') = S^T(-r', -r) over all sample pairs.

    The check is done on the full tangential dyadic, which makes it immune
    to the polarization-frame sign bookkeeping under direction inversion
    (including the canonicalized pole frames).  The dyad is built a block
    of components at a time (see _dyad_blocks): at N_q = 302 the check
    holds under 8 MB at once, where the whole dyad takes 13 MB.
    """
    rule, n = smat.rule, smat.n_points
    inv = rule.inversion_permutation()

    def build():  # inv[q] n + inv[p] at p n + q: one gather, kept with the rule
        pairs = (inv[None, :] * n + inv[:, None]).ravel()
        pairs.setflags(write=False)
        return pairs

    pairs = rule.cached("inverted pairs", build)

    def violation(dyad, mirror):
        # swapped[i, j, p, q] = mirror[j, i, inv[q], inv[p]]
        rows, cols = mirror.shape[:2]
        swapped = (mirror.reshape(rows, cols, n * n).take(pairs, axis=2)
                   .reshape(rows, cols, n, n).transpose(1, 0, 2, 3))
        return np.max(np.abs(dyad - swapped))

    worst = []
    for rows, cols in _dyad_blocks(smat.n_points):
        dyad = _dyads(smat, rows, cols)
        if rows == cols:
            worst.append(violation(dyad, dyad))
        else:
            mirror = _dyads(smat, cols, rows)
            worst += [violation(dyad, mirror), violation(mirror, dyad)]
    return float(np.max(worst))
