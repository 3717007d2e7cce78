"""Spherical-wave expansion machinery.

Vector spherical harmonics are the orthonormal tangential basis on the unit
sphere, indexed by (tau, l, m) with tau = 1 for TE and tau = 2 for TM.  The
flattened index alpha = 2(l(l+1) + m - 1) + tau - 1 orders them by (l, m,
tau).  Conversion between a transition matrix in this basis and a sampled
scattering matrix follows the double-projection / synthesis pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientQuadrature
from .quadrature import Direction, QuadratureRule
from .scattering import Z0, ScatteringMatrix

# (-j)**e for integer e, via e mod 4
_MINUS_J_POW = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)


def _phase(tau: int, l: int) -> complex:
    """The -(-j)^(tau - l) front factor of the harmonic convention."""
    return -_MINUS_J_POW[(tau - l) % 4]


@dataclass(frozen=True)
class SweIndex:
    tau: int
    l: int
    m: int

    def __post_init__(self):
        if self.tau not in (1, 2):
            raise ValueError(f"tau must be 1 or 2, got {self.tau}")
        if self.l < 1:
            raise ValueError(f"degree must be >= 1, got {self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"|m| <= l violated: (l={self.l}, m={self.m})")

    @property
    def alpha(self) -> int:
        return 2 * (self.l * (self.l + 1) + self.m - 1) + self.tau - 1

    @classmethod
    def from_alpha(cls, alpha: int) -> "SweIndex":
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        tau = alpha % 2 + 1
        rest = (alpha - tau + 1) // 2 + 1  # l(l+1) + m, in [l^2, l^2 + 2l]
        l = math.isqrt(rest)
        m = rest - l * (l + 1)
        return cls(tau, l, m)


def n_swe(l_max: int) -> int:
    """Number of (tau, l, m) combinations with l <= l_max."""
    return 2 * l_max * (l_max + 2)


def swe_indices(l_max: int) -> list[SweIndex]:
    return [SweIndex.from_alpha(a) for a in range(n_swe(l_max))]


@dataclass
class TransitionMatrix:
    """Dense transition matrix in the flattened spherical-wave basis."""

    l_max: int
    entries: np.ndarray
    k: float | None = None

    def __post_init__(self):
        n = n_swe(self.l_max)
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (n, n):
            raise ValueError(
                f"entries must be {n}x{n} for l_max={self.l_max}, "
                f"got {self.entries.shape}")


def _legendre_tables(l_max: int, cos_t: np.ndarray, sin_t: np.ndarray):
    """Normalized tangential Legendre functions on a batch of angles.

    Returns (pbar, pibar, taubar), each of shape (npts, l_max+1, l_max+1)
    indexed [point, l, m] for m >= 0.  pibar = m * pbar / sin(theta) and
    taubar = d(pbar)/d(theta), both evaluated stably at the poles.
    """
    npts = cos_t.shape[0]
    L = l_max
    pbar = np.zeros((npts, L + 1, L + 1))
    pibar = np.zeros((npts, L + 1, L + 1))
    taubar = np.zeros((npts, L + 1, L + 1))

    pbar[:, 0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    # diagonal seeds; pi seed carries one power of sin less
    pi_seed = np.zeros(npts)
    for m in range(1, L + 1):
        fac = -math.sqrt((2 * m + 1) / (2.0 * m))
        pbar[:, m, m] = fac * sin_t * pbar[:, m - 1, m - 1]
        if m == 1:
            pi_seed = fac * pbar[:, 0, 0] * np.ones(npts)
        else:
            pi_seed = fac * sin_t * pi_seed * (m / (m - 1.0))
        pibar[:, m, m] = pi_seed

    for m in range(0, L + 1):
        if m + 1 <= L:
            c = math.sqrt(2 * m + 3)
            pbar[:, m + 1, m] = c * cos_t * pbar[:, m, m]
            pibar[:, m + 1, m] = c * cos_t * pibar[:, m, m]
        for l in range(m + 2, L + 1):
            a = math.sqrt((4 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1))
            pbar[:, l, m] = a * (cos_t * pbar[:, l - 1, m] - b * pbar[:, l - 2, m])
            pibar[:, l, m] = a * (cos_t * pibar[:, l - 1, m] - b * pibar[:, l - 2, m])

    for m in range(1, L + 1):
        for l in range(m, L + 1):
            t = l * cos_t * pibar[:, l, m]
            if l > m:
                r = math.sqrt((2 * l + 1.0) * (l - m) / ((2 * l - 1.0) * (l + m)))
                t = t - (l + m) * r * pibar[:, l - 1, m]
            taubar[:, l, m] = t / m
    for l in range(1, L + 1):
        taubar[:, l, 0] = math.sqrt(l * (l + 1.0)) * pbar[:, l, 1]

    return pbar, pibar, taubar


def _tangential_components(l_max: int, theta: np.ndarray, phi: np.ndarray):
    """theta- and phi-components of every Y_alpha at a batch of directions.

    Returns (comp_theta, comp_phi), each (npts, n_swe(l_max)) complex.
    """
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    _, pibar, taubar = _legendre_tables(l_max, cos_t, sin_t)
    npts = theta.shape[0]
    na = n_swe(l_max)
    ct = np.zeros((npts, na), dtype=complex)
    cp = np.zeros((npts, na), dtype=complex)
    norms = {l: (_phase(1, l) / math.sqrt(l * (l + 1.0)),
                 _phase(2, l) / math.sqrt(l * (l + 1.0)))
             for l in range(1, l_max + 1)}
    for m in range(-l_max, l_max + 1):
        am = abs(m)
        azim = np.exp(1j * m * phi)
        for l in range(max(1, am), l_max + 1):
            te, tm = norms[l]
            pib, taub = pibar[:, l, am], taubar[:, l, am]
            if m < 0:
                sign = (-1.0) ** am
                pib, taub = -sign * pib, sign * taub
            alpha = 2 * (l * (l + 1) + m - 1)  # tau = 1; tau = 2 follows
            ct[:, alpha] = te * 1j * pib * azim
            cp[:, alpha] = -te * taub * azim
            ct[:, alpha + 1] = tm * taub * azim
            cp[:, alpha + 1] = tm * 1j * pib * azim
    return ct, cp


def eval_vsh(index: SweIndex, direction: Direction) -> np.ndarray:
    """Vector spherical harmonic Y_alpha(r) as a Cartesian 3-vector."""
    theta = np.array([direction.theta])
    phi = np.array([direction.phi])
    ct, cp = _tangential_components(index.l, theta, phi)
    a = index.alpha
    return ct[0, a] * direction.theta_hat + cp[0, a] * direction.phi_hat


def default_l_max(rule: QuadratureRule) -> int:
    """Largest degree the rule can carry without aliasing the projection."""
    return max(1, rule.order_capability // 2)


def vsh_matrix(l_max: int, rule: QuadratureRule) -> np.ndarray:
    """Sample matrix A of shape (2 N_q, n_swe): theta block over phi block.

    A[(gamma, p), alpha] is the gamma-component of Y_alpha at rule point p.
    It is built once per (rule, l_max), kept with the rule and read-only.
    """
    def build():
        a = np.vstack(_tangential_components(l_max, rule.theta, rule.phi))
        a.setflags(write=False)
        return a

    return rule.cached(("vsh", l_max), build)


def require_capability(rule: QuadratureRule, needed: int, what: str):
    """InsufficientQuadrature unless the rule integrates to degree needed."""
    if rule.order_capability < needed:
        raise InsufficientQuadrature(
            f"{what} needs quadrature degree >= {needed}, rule "
            f"{rule.name or rule.n_points} integrates only to degree "
            f"{rule.order_capability}")


def t_from_s(smat, l_max: int) -> TransitionMatrix:
    """Project a sampled scattering matrix onto the spherical-wave basis."""
    if smat.weighted:
        raise ValueError("t_from_s expects the unweighted sample matrix")
    rule = smat.rule
    require_capability(rule, 2 * l_max, "double projection")
    a = vsh_matrix(l_max, rule)
    w = rule.doubled_weights
    entries = (a.conj().T * w) @ smat.matrix @ (a * w[:, None])
    return TransitionMatrix(l_max=l_max, entries=entries, k=smat.k)


def s_from_t(tmat: TransitionMatrix, rule: QuadratureRule, k: float | None = None):
    """Synthesize scattering-dyadic samples at the rule points from T."""
    require_capability(rule, 2 * tmat.l_max, "sample synthesis")
    matrix = synthesize(vsh_matrix(tmat.l_max, rule), tmat.entries)
    return ScatteringMatrix(rule=rule, k=k if k is not None else tmat.k,
                            matrix=matrix, weighted=False)


def synthesize(a: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The samples A T A^H of the transition matrix T = entries, with A a
    vsh_matrix; a diagonal T, as a sphere's is, as (A diag(T)) A^H."""
    diag = np.diagonal(entries)
    if np.count_nonzero(entries) == np.count_nonzero(diag):
        return (a * diag) @ a.conj().T
    return a @ entries @ a.conj().T


def expand_farfield(samples: np.ndarray, rule: QuadratureRule, l_max: int):
    """Expand far-field samples (theta block over phi block) in harmonics.

    Returns (coefficients, reconstruction_residual); the residual is the
    relative misfit of the re-synthesized samples and is reported rather
    than raised since band-unlimited fields legitimately leave content
    behind.
    """
    samples = np.asarray(samples, dtype=complex)
    a = vsh_matrix(l_max, rule)
    w = rule.doubled_weights
    coeff = (a.conj().T * w) @ samples / math.sqrt(Z0)
    recon = math.sqrt(Z0) * (a @ coeff)
    norm = np.linalg.norm(samples)
    residual = np.linalg.norm(recon - samples) / norm if norm > 0 else 0.0
    return coeff, residual
