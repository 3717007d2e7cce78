"""Eigendecomposition of the weighted scattering matrix and modal metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BelowSignificanceThreshold, EigensolverFailure
from .quadrature import QuadratureRule
from .scattering import ScatteringMatrix

# Shared physical constants
Z0 = 376.730313668        # free-space impedance, ohm
C0 = 299792458.0          # speed of light, m/s
EPS0 = 1.0 / (Z0 * C0)    # vacuum permittivity, F/m

#: below this modal significance the characteristic angle switches to the
#: numerically robust reformulation; it also bounds the detectable |lambda|.
SIGNIFICANCE_FLOOR = 1e-6


@dataclass
class ModeSet:
    """Eigenvalues t_n (|t| descending) and far-field eigenvectors.

    Eigenvectors are columns, stacked [theta block; phi block] over the rule
    points and normalized to unit radiated power under the rule weights.
    Analytic sphere decompositions reuse the class with rule=None and
    coefficient-space eigenvectors.
    """

    k: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rule: QuadratureRule | None = None
    residuals: np.ndarray | None = None

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def significance(self) -> np.ndarray:
        return np.abs(self.eigenvalues)


def wavenumber(frequency_hz: float) -> float:
    return 2.0 * math.pi * frequency_hz / C0


def frequency(k: float) -> float:
    return k * C0 / (2.0 * math.pi)


#: eigenvalues closer than this (relative) are treated as one multiplet
DEGENERACY_TOL = 1e-8


def degenerate_groups(values: np.ndarray) -> list[slice]:
    """Runs of two or more consecutive eigenvalues that form one multiplet.

    A run extends while |t_i - t_start| <= DEGENERACY_TOL * max(1, |t_start|),
    measured from its first member, so the values must already be sorted
    with multiplet members adjacent (as decompose returns them).
    """
    groups, start = [], 0
    for i in range(1, len(values) + 1):
        if (i == len(values)
                or abs(values[i] - values[start])
                > DEGENERACY_TOL * max(1.0, abs(values[start]))):
            if i - start > 1:
                groups.append(slice(start, i))
            start = i
    return groups


def _phase_fix(vectors: np.ndarray) -> None:
    """Rotate each column, in place, so its largest-magnitude entry is real
    and positive; all-zero columns are left alone."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0),
                     np.arange(vectors.shape[1])]
    pivots[pivots == 0] = 1.0
    vectors *= np.abs(pivots) / pivots


def _sort_order(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Indices ordering modes by |t| descending, then arg t in [0, 2 pi),
    then the magnitude of each eigenvector's first nonzero entry.

    The keys use scalar abs and angle: the vectorized forms can differ in
    the last ulp and reorder the members of a multiplet.
    """
    firsts = vectors[np.argmax(vectors != 0, axis=0),
                     np.arange(vectors.shape[1])]
    keys = [(-abs(t), np.angle(t) % (2 * math.pi), abs(f))
            for t, f in zip(values, firsts)]
    return np.array(sorted(range(len(values)), key=keys.__getitem__))


def _orthonormalize_degenerate(values, vectors, weights) -> None:
    """Weighted orthonormal basis, in place, inside each multiplet.

    One QR of sqrt(|w|) V_g per group gives the Gram-Schmidt basis Q of the
    group's columns, in order, under the |w| product.  On rules with
    negative weights the Cholesky factor R of Q^H W Q turns it into the
    Gram-Schmidt basis Q R^-1 under w itself.  Where w is indefinite on the
    group's span (the null cluster of such rules) no w-orthonormal basis
    exists, and the group keeps the |w| one.  The columns are then unscaled
    and phase-fixed.
    """
    sqrt_w = np.sqrt(np.abs(weights))[:, None]
    signed = bool(np.any(weights < 0))
    for grp in degenerate_groups(values):
        q, _ = scipy.linalg.qr(vectors[:, grp] * sqrt_w, mode="economic",
                               overwrite_a=True)
        q /= sqrt_w
        if signed:
            try:
                r = scipy.linalg.cholesky(q.conj().T @ (q * weights[:, None]))
            except scipy.linalg.LinAlgError:
                pass
            else:
                q = scipy.linalg.solve_triangular(r, q.T, trans="T").T
        _phase_fix(q)
        vectors[:, grp] = q


def decompose(smat: ScatteringMatrix) -> ModeSet:
    """Full dense non-Hermitian eigendecomposition of the weighted matrix."""
    if not smat.weighted:
        raise ValueError("decompose expects a weighted scattering matrix")
    try:
        values, vectors = scipy.linalg.eig(smat.matrix)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        cond = np.linalg.cond(smat.matrix)
        raise EigensolverFailure(
            f"eigendecomposition failed (condition estimate {cond:.3e})") from exc

    w = smat.doubled_weights()
    nrm = np.abs(w @ np.abs(vectors) ** 2)
    nrm[nrm == 0] = 1.0
    vectors /= np.sqrt(nrm)
    _phase_fix(vectors)

    order = _sort_order(values, vectors)
    values, vectors = values[order], vectors[:, order]
    _orthonormalize_degenerate(values, vectors, w)

    residuals = np.linalg.norm(
        smat.matrix @ vectors - vectors * values[None, :], axis=0)
    return ModeSet(k=smat.k, eigenvalues=values, eigenvectors=vectors,
                   rule=smat.rule, residuals=residuals)


@dataclass(frozen=True)
class ModalMetrics:
    t: complex
    modal_significance: float
    lambda_n: complex | None  # None marks t = 0 (infinite eigenvalue)
    alpha_n: float
    s_n: complex
    lossless_residual: float
    at_branch_endpoint: bool = False


def characteristic_angle(t: complex, epsilon: float = SIGNIFICANCE_FLOOR):
    """Characteristic angle in [pi/2, 3pi/2].

    For weak modes the direct argument of t is noise-dominated, so the
    reformulated arg(1 + 2t)/2 + pi/2 is used instead.  Values landing
    exactly on a branch endpoint are mapped to pi/2 and flagged.
    """
    if abs(t) > epsilon:
        alpha = np.angle(t) % (2.0 * math.pi)
        if alpha < math.pi / 2.0 - 1e-12:
            alpha += 2.0 * math.pi
    else:
        alpha = np.angle(1.0 + 2.0 * t) / 2.0 + math.pi / 2.0
    endpoint = False
    if alpha < math.pi / 2.0 or alpha > 3.0 * math.pi / 2.0:
        alpha = math.pi / 2.0
        endpoint = True
    return float(alpha), endpoint


def metrics(t: complex, epsilon: float = SIGNIFICANCE_FLOOR) -> ModalMetrics:
    t = complex(t)
    s = 2.0 * t + 1.0
    lam = None if t == 0 else 1j * (1.0 + 1.0 / t)
    alpha, endpoint = characteristic_angle(t, epsilon)
    return ModalMetrics(t=t, modal_significance=abs(t), lambda_n=lam,
                        alpha_n=alpha, s_n=s,
                        lossless_residual=abs(abs(s) - 1.0),
                        at_branch_endpoint=endpoint)


def t_from_lambda(lam: complex) -> complex:
    return -1.0 / (1.0 + 1j * lam)


def lossless_residual(modeset: ModeSet) -> np.ndarray:
    """Per-mode deviation | |2 t_n + 1| - 1 | from the lossless circle."""
    return np.abs(np.abs(2.0 * modeset.eigenvalues + 1.0) - 1.0)


def max_lossless_residual(modeset: ModeSet, top: int = 25) -> float:
    res = lossless_residual(modeset)
    return float(np.max(res[:top])) if len(res) else 0.0


def characteristic_excitation(f_n: np.ndarray, t_n: complex,
                              rule: QuadratureRule, k: float,
                              floor: float = SIGNIFICANCE_FLOOR):
    """Incident-field sampler of the characteristic plane-wave spectrum.

    Returns a pure function r -> E(r) (complex 3-vector) evaluating the
    quadrature form of the modal excitation integral.
    """
    if abs(t_n) <= floor:
        raise BelowSignificanceThreshold(
            f"|t| = {abs(t_n):.3e} at or below floor {floor:.1e}")
    n = rule.n_points
    f_n = np.asarray(f_n, dtype=complex)
    amp = (-1j * k / (4.0 * math.pi * t_n)) * rule.weights
    # Cartesian plane-wave amplitudes, one row per quadrature direction
    amps = amp[:, None] * (f_n[:n, None] * rule.theta_hats
                           + f_n[n:, None] * rule.phi_hats)
    uv = rule.unit_vectors

    def field(r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        phases = np.exp(-1j * k * (uv @ r))
        return phases @ amps

    return field


def farfield_orthogonality(modeset: ModeSet) -> np.ndarray:
    """Gram matrix of the eigenvectors under the rule-weighted inner product."""
    if modeset.rule is None:
        raise ValueError("mode set carries no quadrature rule")
    w = np.concatenate([modeset.rule.weights, modeset.rule.weights])
    f = modeset.eigenvectors
    return f.conj().T @ (f * w[:, None])
