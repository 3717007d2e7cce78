"""Analytic transition matrix of lossless multilayer spheres.

Each (tau, l) channel is solved by transferring the tangential-field
admittance u/v = (der/val) outward through the layers, where val and der are
the Riccati radial function and its material-scaled derivative.  Because the
transferred pair stays real for lossless media, the resulting eigenvalue is
of the form -N / (N + jM) with real N, M and therefore sits on the lossless
circle |2t + 1| = 1 to machine precision by construction.

All channels travel together.  The Riccati functions are evaluated once per
sphere, on a (radius, l) grid holding every radius the recursion visits; the
pair (u, v) is carried as (2, l_max) arrays, rows tau=1 and tau=2; and each
interface is one batched 2x2 solve.  Each channel sees the same floating-point
operations as a scalar per-channel loop, so the results are bit-identical to
it.  A channel that loses all significance is flagged rather than raised
mid-batch, and MieOverflow reports the first one in (tau, l) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import spherical_jn, spherical_yn

from .errors import ScatmodesError
from .quadrature import QuadratureRule
from .swe import TransitionMatrix, vsh_matrix
from .scattering import ScatteringBackend
from .modes import ModeSet


class MieOverflow(ScatmodesError, RuntimeError):
    """Radial-function recursion lost all significance."""

    def __init__(self, l, detail=""):
        super().__init__(f"radial functions non-finite at degree l={l} {detail}")
        self.l = l


@dataclass(frozen=True)
class Layer:
    relative_permittivity: float
    relative_permeability: float
    outer_boundary_fraction: float

    def __post_init__(self):
        if not (self.relative_permittivity > 0 and math.isfinite(self.relative_permittivity)):
            raise ValueError(f"eps_r must be positive and finite, got {self.relative_permittivity}")
        if not (self.relative_permeability > 0 and math.isfinite(self.relative_permeability)):
            raise ValueError(f"mu_r must be positive and finite, got {self.relative_permeability}")
        if not 0.0 < self.outer_boundary_fraction <= 1.0:
            raise ValueError(f"boundary fraction out of (0, 1]: {self.outer_boundary_fraction}")

    @property
    def refractive_index(self) -> float:
        return math.sqrt(self.relative_permittivity * self.relative_permeability)


@dataclass(frozen=True)
class LayeredSphere:
    outer_radius_a: float
    layers: tuple

    def __post_init__(self):
        if self.outer_radius_a <= 0:
            raise ValueError("outer radius must be positive")
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("at least one layer is required")
        fracs = [lay.outer_boundary_fraction for lay in layers]
        if any(b <= a for a, b in zip(fracs, fracs[1:])):
            raise ValueError(f"boundary fractions must strictly increase: {fracs}")
        if abs(fracs[-1] - 1.0) > 1e-14:
            raise ValueError(f"outermost boundary fraction must be 1, got {fracs[-1]}")
        object.__setattr__(self, "layers", layers)

    @staticmethod
    def homogeneous(radius, eps_r, mu_r=1.0) -> "LayeredSphere":
        return LayeredSphere(radius, (Layer(eps_r, mu_r, 1.0),))

    @staticmethod
    def equal_layers(radius, eps_list, mu_list=None) -> "LayeredSphere":
        n = len(eps_list)
        mu_list = mu_list or [1.0] * n
        fr = [(i + 1) / n for i in range(n)]
        return LayeredSphere(radius, tuple(
            Layer(e, m, f) for e, m, f in zip(eps_list, mu_list, fr)))


def _riccati(l, x):
    """(psi, psi', chi, chi') with psi = x j_l(x), chi = -x y_l(x); broadcasts."""
    j, jp = spherical_jn(l, x), spherical_jn(l, x, derivative=True)
    y, yp = spherical_yn(l, x), spherical_yn(l, x, derivative=True)
    return j * x, j + x * jp, -y * x, -(y + x * yp)


def _admittance_ratio(lay: Layer) -> np.ndarray:
    """m / scale per channel, shape (2, 1): tau=1 pairs with mu, tau=2 with eps."""
    m = lay.refractive_index
    return np.array([[m / lay.relative_permeability],
                     [m / lay.relative_permittivity]])


def _batched_solve(mat: np.ndarray, rhs: np.ndarray):
    """Solve every stacked 2x2 system; singular ones give NaN and a True mask."""
    singular = np.zeros(mat.shape[:-2], dtype=bool)
    try:
        return np.linalg.solve(mat, rhs), singular
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for idx in np.ndindex(singular.shape):
            try:
                out[idx] = np.linalg.solve(mat[idx], rhs[idx])
            except np.linalg.LinAlgError:
                singular[idx] = True
        return out, singular


def channel_eigenvalues(sphere: LayeredSphere, ka: float, l_max: int) -> np.ndarray:
    """t_{tau,l} as an array of shape (2, l_max), rows tau=1, tau=2.

    Raises MieOverflow for the first channel (tau outer, l inner) whose
    recursion lost all significance.
    """
    if ka <= 0:
        raise ValueError(f"ka must be positive, got {ka}")
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    layers = sphere.layers
    first = layers[0]
    # every radius the recursion visits: the core's outer radius, the inner
    # and outer radius of each later layer, and the exterior match at ka
    radii = [ka * first.outer_boundary_fraction * first.refractive_index]
    for prev, lay in zip(layers, layers[1:]):
        m = lay.refractive_index
        radii += [ka * prev.outer_boundary_fraction * m,
                  ka * lay.outer_boundary_fraction * m]
    radii.append(ka)
    failures = {}  # (tau - 1, l - 1) -> detail of that channel's first failure

    def flag(bad, detail):
        for key in zip(*np.nonzero(bad)):
            failures.setdefault(key, detail)

    # overflow is detected per channel below; the batch runs to completion
    with np.errstate(all="ignore"):
        psi, dpsi, chi, dchi = _riccati(np.arange(1, l_max + 1),
                                        np.array(radii)[:, None])
        # admittance pair (u, v) ~ (scaled derivative, value), defined up to scale
        u = _admittance_ratio(first) * dpsi[0]
        v = np.broadcast_to(psi[0], u.shape)
        for i, lay in enumerate(layers[1:], start=1):
            a, b = 2 * i - 1, 2 * i
            mp = _admittance_ratio(lay)
            # coefficients (c, d) in this layer from the inner-boundary pair
            mat = np.empty(u.shape + (2, 2))
            mat[..., 0, 0], mat[..., 0, 1] = psi[a], chi[a]
            mat[..., 1, 0], mat[..., 1, 1] = mp * dpsi[a], mp * dchi[a]
            cd, singular = _batched_solve(mat, np.stack([v, u], axis=-1)[..., None])
            flag(singular, f"(layer transfer at x={radii[a]})")
            c, d = cd[..., 0, 0], cd[..., 1, 0]
            u = mp * (c * dpsi[b] + d * dchi[b])
            v = c * psi[b] + d * chi[b]
            # max(|u|, |v|) with Python's max semantics, NaN included
            au, av = np.abs(u), np.abs(v)
            nrm = np.where(av > au, av, au)
            flag(~(np.isfinite(nrm) & (nrm > 0)), "")
            u, v = u / nrm, v / nrm
        num = u * psi[-1] - v * dpsi[-1]
        den_im = u * chi[-1] - v * dchi[-1]
        t = -num / (num + 1j * den_im)
    flag(~np.isfinite(t), "(exterior match)")
    if failures:
        (_, l_index), detail = min(failures.items())
        raise MieOverflow(int(l_index) + 1, detail)
    return t


def _channel_diagonal(sphere: LayeredSphere, ka: float, l_max: int) -> np.ndarray:
    """T-matrix diagonal in alpha order: each t_{tau,l} over its 2l+1 orders."""
    tch = channel_eigenvalues(sphere, ka, l_max)
    return np.repeat(tch.T, 2 * np.arange(1, l_max + 1) + 1, axis=0).ravel()


def layered_tmatrix(sphere: LayeredSphere, ka: float, l_max: int) -> TransitionMatrix:
    """Diagonal transition matrix; each t_{tau,l} repeats over 2l+1 orders."""
    diag = _channel_diagonal(sphere, ka, l_max)
    k = ka / sphere.outer_radius_a
    return TransitionMatrix(l_max=l_max, entries=np.diag(diag), k=k)


def analytic_modes(sphere: LayeredSphere, ka: float, l_max: int) -> ModeSet:
    """Sphere modes sorted by significance, in coefficient space."""
    diag = _channel_diagonal(sphere, ka, l_max)
    order = np.argsort(-np.abs(diag), kind="stable")
    vectors = np.eye(diag.size, dtype=complex)[:, order]
    return ModeSet(k=ka / sphere.outer_radius_a, eigenvalues=diag[order],
                   eigenvectors=vectors, rule=None)


def default_l_max(rule: QuadratureRule) -> int:
    """Largest degree the rule can carry without aliasing the projection."""
    return max(1, rule.order_capability // 2)


class MieBackend(ScatteringBackend):
    """Plane-wave scattering of a layered sphere through its T-matrix.

    If l_max is not given it is derived from the observation rule so the
    harmonic content stays within the rule's exact-integration band; pass an
    explicit l_max to study quadrature aliasing.
    """

    def __init__(self, sphere: LayeredSphere, l_max: int | None = None):
        self.sphere = sphere
        self.l_max = l_max
        # one entry {(k, l_max): (rule, response)}; holding the rule itself
        # keeps its id from being reused, and it is compared with `is`
        self._cache = {}

    def _response_matrix(self, k: float, rule: QuadratureRule) -> np.ndarray:
        l_max = self.l_max if self.l_max is not None else default_l_max(rule)
        key = (k, l_max)
        hit = self._cache.get(key)
        if hit is None or hit[0] is not rule:
            ka = k * self.sphere.outer_radius_a
            tmat = layered_tmatrix(self.sphere, ka, l_max)
            a = vsh_matrix(l_max, rule)
            # far field per unit plane wave: (j 4 pi / k) * S samples
            hit = (rule, (4j * math.pi / k) * (a @ tmat.entries @ a.conj().T))
            self._cache = {key: hit}
        return hit[1]

    def far_fields(self, k, direction, polarization, rule):
        resp = self._response_matrix(k, rule)
        pidx = [i for i, p in enumerate(rule.points) if p == direction]
        if not pidx:
            raise ValueError(f"excitation direction {direction} is not a rule point")
        col = (0 if polarization == "theta" else rule.n_points) + pidx[0]
        return resp[:, col]
