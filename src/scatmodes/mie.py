"""Analytic transition matrix of lossless multilayer spheres.

Each (tau, l) channel is solved by transferring the tangential-field
admittance u/v = (der/val) outward through the layers, where val and der are
the Riccati radial function and its material-scaled derivative.  Because the
transferred pair stays real for lossless media, the resulting eigenvalue is
of the form -N / (N + jM) with real N, M and therefore sits on the lossless
circle |2t + 1| = 1 to machine precision by construction.

All channels travel together.  The Riccati functions are evaluated once per
sphere, on a (radius, l) grid holding every radius the recursion visits, and
the pair (u, v) is carried as (2, l_max) arrays, rows tau=1 and tau=2.  Each
layer's coefficients follow in closed form, since its transfer matrix has
determinant -m by the Riccati-Bessel Wronskian psi chi' - chi psi' = -1
(DLMF 10.50).  Each channel sees the same floating-point operations as a
scalar per-channel loop, so the results are bit-identical to it.  A channel
that loses all significance ends in a non-finite t, as NaN and inf travel
through the layers; MieOverflow reports the first one in (tau, l) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# the ufuncs behind scipy.special.spherical_jn/yn, whose wrappers add only
# the reflection for negative x, which a recursion radius never takes
from scipy.special._ufuncs import _spherical_jn, _spherical_yn

from .errors import ScatmodesError
from .quadrature import QuadratureRule
from .swe import TransitionMatrix, default_l_max, synthesize, vsh_matrix
from .scattering import ScatteringBackend, ScatteringMatrix
from .modes import ModeSet


class MieOverflow(ScatmodesError, RuntimeError):
    """Radial-function recursion lost all significance."""

    def __init__(self, l):
        super().__init__(f"radial functions non-finite at degree l={l}")
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


def _riccati(l_max: int, x: np.ndarray):
    """(psi, psi', chi, chi') for l = 1..l_max along the last axis, with
    psi = x j_l(x) and chi = -x y_l(x); x is a column.

    One call of each spherical-Bessel ufunc over l = 0..l_max: for x >= 0
    these are spherical_jn and spherical_yn, bit for bit.  The derivatives
    follow from f_l' = f_{l-1} - (l + 1) f_l / x, the expression SciPy's
    derivative=True evaluates for l >= 1, so for x != 0 the results are
    bit-identical to it.
    """
    orders = np.arange(l_max + 1, dtype=np.dtype("long"))
    l = orders[1:]
    j, y = _spherical_jn(orders, x), _spherical_yn(orders, x)
    jp = j[..., :-1] - (l + 1) * j[..., 1:] / x
    yp = y[..., :-1] - (l + 1) * y[..., 1:] / x
    j, y = j[..., 1:], y[..., 1:]
    return j * x, j + x * jp, -y * x, -(y + x * yp)


def _admittance_ratio(lay: Layer) -> np.ndarray:
    """m / scale per channel, shape (2, 1): tau=1 pairs with mu, tau=2 with eps."""
    m = lay.refractive_index
    return np.array([[m / lay.relative_permeability],
                     [m / lay.relative_permittivity]])


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
    # overflow shows as a non-finite t below; the batch runs to completion
    with np.errstate(all="ignore"):
        psi, dpsi, chi, dchi = _riccati(l_max, np.array(radii)[:, None])
        # admittance pair (u, v) ~ (scaled derivative, value), defined up to scale
        u = _admittance_ratio(first) * dpsi[0]
        v = np.broadcast_to(psi[0], u.shape)
        for i, lay in enumerate(layers[1:], start=1):
            a, b = 2 * i - 1, 2 * i
            mp = _admittance_ratio(lay)
            # coefficients (c, d) in this layer from the inner-boundary pair:
            # [[psi, chi], [mp psi', mp chi']] (c, d) = (v, u), determinant -mp
            w = u / mp
            c = chi[a] * w - dchi[a] * v
            d = dpsi[a] * v - psi[a] * w
            u = mp * (c * dpsi[b] + d * dchi[b])
            v = c * psi[b] + d * chi[b]
            nrm = np.maximum(np.abs(u), np.abs(v))
            u, v = u / nrm, v / nrm
        num = u * psi[-1] - v * dpsi[-1]
        den_im = u * chi[-1] - v * dchi[-1]
        t = -num / (num + 1j * den_im)
    bad = np.argwhere(~np.isfinite(t))
    if bad.size:
        raise MieOverflow(int(bad[0, 1]) + 1)
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


class MieBackend(ScatteringBackend):
    """Plane-wave scattering of a layered sphere through its T-matrix.

    If l_max is not given it is derived from the observation rule so the
    harmonic content stays within the rule's exact-integration band; pass an
    explicit l_max to study quadrature aliasing.
    """

    def __init__(self, sphere: LayeredSphere, l_max: int | None = None):
        self.sphere = sphere
        self.l_max = l_max
        self.radius = sphere.outer_radius_a

    def sample(self, rule: QuadratureRule, k: float) -> ScatteringMatrix:
        """Synthesize the samples A T A^H at once, A = vsh_matrix(l_max, rule).

        Unlike s_from_t, an l_max beyond the rule's band is allowed: it
        aliases, which is what a quadrature-precision study measures.
        """
        l_max = self.l_max if self.l_max is not None else default_l_max(rule)
        tmat = layered_tmatrix(self.sphere, k * self.radius, l_max)
        return ScatteringMatrix(
            rule=rule, k=k, matrix=synthesize(vsh_matrix(l_max, rule),
                                              tmat.entries),
            weighted=False)
