"""Unit-sphere quadrature rules (Lebedev family) and weighted integration.

Grid parameters follow the standard Lebedev-Laikov construction: each rule
is a union of octahedral-symmetry orbits, specified by an orbit type, up to
two generator coordinates and a weight.  Weights below are normalized to sum
to one and are scaled to steradians (sum 4*pi) on construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RuleNotInversionSymmetric, UnsupportedRuleSize

FOUR_PI = 4.0 * math.pi

# Orbit types (number of points): 0 -> axis (6), 1 -> (0,a,a) (12),
# 2 -> (a,a,a) (8), 3 -> (a,a,b) (24), 4 -> (a,b,0) (24), 5 -> (a,b,c) (48).
_ORBITS = {
    6: [(0, 0.0, 0.0, 0.1666666666666667)],
    14: [(0, 0.0, 0.0, 0.6666666666666667e-1),
         (2, 0.0, 0.0, 0.7500000000000000e-1)],
    26: [(0, 0.0, 0.0, 0.4761904761904762e-1),
         (1, 0.0, 0.0, 0.3809523809523810e-1),
         (2, 0.0, 0.0, 0.3214285714285714e-1)],
    38: [(0, 0.0, 0.0, 0.9523809523809524e-2),
         (2, 0.0, 0.0, 0.3214285714285714e-1),
         (4, 0.4597008433809831, 0.0, 0.2857142857142857e-1)],
    50: [(0, 0.0, 0.0, 0.1269841269841270e-1),
         (1, 0.0, 0.0, 0.2257495590828924e-1),
         (2, 0.0, 0.0, 0.2109375000000000e-1),
         (3, 0.3015113445777636, 0.0, 0.2017333553791887e-1)],
    74: [(0, 0.0, 0.0, 0.5130671797338464e-3),
         (1, 0.0, 0.0, 0.1660406956574204e-1),
         (2, 0.0, 0.0, -0.2958603896103896e-1),
         (3, 0.4803844614152614, 0.0, 0.2657620708215946e-1),
         (4, 0.3207726489807764, 0.0, 0.1652217099371571e-1)],
    86: [(0, 0.0, 0.0, 0.1154401154401154e-1),
         (2, 0.0, 0.0, 0.1194390908585628e-1),
         (3, 0.3696028464541502, 0.0, 0.1111055571060340e-1),
         (3, 0.6943540066026664, 0.0, 0.1187650129453714e-1),
         (4, 0.3742430390903412, 0.0, 0.1181230374690448e-1)],
    110: [(0, 0.0, 0.0, 0.3828270494937162e-2),
          (2, 0.0, 0.0, 0.9793737512487512e-2),
          (3, 0.1851156353447362, 0.0, 0.8211737283191111e-2),
          (3, 0.6904210483822922, 0.0, 0.9942814891178103e-2),
          (3, 0.3956894730559419, 0.0, 0.9595471336070963e-2),
          (4, 0.4783690288121502, 0.0, 0.9694996361663028e-2)],
    146: [(0, 0.0, 0.0, 0.5996313688621381e-3),
          (1, 0.0, 0.0, 0.7372999718620756e-2),
          (2, 0.0, 0.0, 0.7210515360144488e-2),
          (3, 0.6764410400114264, 0.0, 0.7116355493117555e-2),
          (3, 0.4174961227965453, 0.0, 0.6753829486314477e-2),
          (3, 0.1574676672039082, 0.0, 0.7574394159054034e-2),
          (5, 0.1403553811713183, 0.4493328323269557, 0.6991087353303262e-2)],
    170: [(0, 0.0, 0.0, 0.5544842902037365e-2),
          (1, 0.0, 0.0, 0.6071332770670752e-2),
          (2, 0.0, 0.0, 0.6383674773515093e-2),
          (3, 0.2551252621114134, 0.0, 0.5183387587747790e-2),
          (3, 0.6743601460362766, 0.0, 0.6317929009813725e-2),
          (3, 0.4318910696719410, 0.0, 0.6201670006589077e-2),
          (4, 0.2613931360335988, 0.0, 0.5477143385137348e-2),
          (5, 0.4990453161796037, 0.1446630744325115, 0.5968383987681156e-2)],
    194: [(0, 0.0, 0.0, 0.1782340447244611e-2),
          (1, 0.0, 0.0, 0.5716905949977102e-2),
          (2, 0.0, 0.0, 0.5573383178848738e-2),
          (3, 0.6712973442695226, 0.0, 0.5608704082587997e-2),
          (3, 0.2892465627575439, 0.0, 0.5158237711805383e-2),
          (3, 0.4446933178717437, 0.0, 0.5518771467273614e-2),
          (3, 0.1299335447650067, 0.0, 0.4106777028169394e-2),
          (4, 0.3457702197611283, 0.0, 0.5051846064614808e-2),
          (5, 0.1590417105383530, 0.8360360154824589, 0.5530248916233094e-2)],
    230: [(0, 0.0, 0.0, -0.5522639919727325e-1),
          (2, 0.0, 0.0, 0.4450274607445226e-2),
          (3, 0.4492044687397611, 0.0, 0.4496841067921404e-2),
          (3, 0.2520419490210201, 0.0, 0.5049153450478750e-2),
          (3, 0.6981906658447242, 0.0, 0.3976408018051883e-2),
          (3, 0.6587405243460960, 0.0, 0.4401400650381014e-2),
          (3, 0.4038544050097660e-1, 0.0, 0.1724544350544401e-1),
          (4, 0.5823842309715585, 0.0, 0.4231083095357343e-2),
          (4, 0.3545877390518688, 0.0, 0.5198069864064399e-2),
          (5, 0.2272181808998187, 0.4864661535886647, 0.4695720972568883e-2)],
    266: [(0, 0.0, 0.0, -0.1313769127326952e-2),
          (1, 0.0, 0.0, -0.2522728704859336e-2),
          (2, 0.0, 0.0, 0.4186853881700583e-2),
          (3, 0.7039373391585475, 0.0, 0.5315167977810885e-2),
          (3, 0.1012526248572414, 0.0, 0.4047142377086219e-2),
          (3, 0.4647448726420539, 0.0, 0.4112482394406990e-2),
          (3, 0.3277420654971629, 0.0, 0.3595584899758782e-2),
          (3, 0.6620338663699974, 0.0, 0.4256131351428158e-2),
          (4, 0.8506508083520399, 0.0, 0.4229582700647240e-2),
          (5, 0.3233484542692899, 0.1153112011009701, 0.4080914225780505e-2),
          (5, 0.2314790158712601, 0.5244939240922365, 0.4071467593830964e-2)],
    302: [(0, 0.0, 0.0, 0.8545911725128148e-3),
          (2, 0.0, 0.0, 0.3599119285025571e-2),
          (3, 0.3515640345570105, 0.0, 0.3449788424305883e-2),
          (3, 0.6566329410219612, 0.0, 0.3604822601419882e-2),
          (3, 0.4729054132581005, 0.0, 0.3576729661743367e-2),
          (3, 0.9618308522614784e-1, 0.0, 0.2352101413689164e-2),
          (3, 0.2219645236294178, 0.0, 0.3108953122413675e-2),
          (3, 0.7011766416089545, 0.0, 0.3650045807677255e-2),
          (4, 0.2644152887060663, 0.0, 0.2982344963171804e-2),
          (4, 0.5718955891878961, 0.0, 0.3600820932216460e-2),
          (5, 0.2510034751770465, 0.8000727494073952, 0.3571540554273387e-2),
          (5, 0.1233548532583327, 0.4127724083168531, 0.3392312205006170e-2)],
}

SUPPORTED_SIZES = tuple(sorted(_ORBITS))

# Highest spherical-harmonic degree each rule integrates exactly.
RULE_DEGREE = {6: 3, 14: 5, 26: 7, 38: 9, 50: 11, 74: 13, 86: 15, 110: 17,
               146: 19, 170: 21, 194: 23, 230: 25, 266: 27, 302: 29}

# Standard Lebedev grids of these sizes carry a few negative weights; the
# tables are kept verbatim because replacing them would change the rule.
SIZES_WITH_NEGATIVE_WEIGHTS = (74, 230, 266)

_POLE_TOL = 1e-14


@dataclass(frozen=True)
class Direction:
    """A direction on the unit sphere in polar/azimuthal angles (radians).

    At the poles the azimuth is canonicalized to zero so that the
    polarization frame is unambiguous.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta out of range: {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi is not finite: {self.phi}")
        phi = self.phi % (2.0 * math.pi)
        if self.theta < _POLE_TOL or math.pi - self.theta < _POLE_TOL:
            phi = 0.0
        object.__setattr__(self, "phi", phi)

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi),
                         st * math.sin(self.phi),
                         math.cos(self.theta)])

    @property
    def theta_hat(self) -> np.ndarray:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        return np.array([ct * math.cos(self.phi), ct * math.sin(self.phi), -st])

    @property
    def phi_hat(self) -> np.ndarray:
        return np.array([-math.sin(self.phi), math.cos(self.phi), 0.0])

    def inverted(self) -> "Direction":
        return Direction(math.pi - self.theta, self.phi + math.pi)

    @staticmethod
    def from_vector(v) -> "Direction":
        v = np.asarray(v, dtype=float)
        v = v / np.linalg.norm(v)
        theta = math.acos(min(1.0, max(-1.0, v[2])))
        phi = math.atan2(v[1], v[0])
        return Direction(theta, phi)


def _orbit_points(code: int, a: float, b: float) -> np.ndarray:
    """All distinct octahedral images of the orbit generator."""
    if code == 0:
        gen = (1.0, 0.0, 0.0)
    elif code == 1:
        r = math.sqrt(0.5)
        gen = (0.0, r, r)
    elif code == 2:
        r = math.sqrt(1.0 / 3.0)
        gen = (r, r, r)
    elif code == 3:
        gen = (a, a, math.sqrt(max(0.0, 1.0 - 2.0 * a * a)))
    elif code == 4:
        gen = (a, math.sqrt(max(0.0, 1.0 - a * a)), 0.0)
    elif code == 5:
        gen = (a, b, math.sqrt(max(0.0, 1.0 - a * a - b * b)))
    else:
        raise ValueError(f"unknown orbit code {code}")
    images = set()
    for perm in itertools.permutations(range(3)):
        p = tuple(gen[i] for i in perm)
        for signs in itertools.product((1.0, -1.0), repeat=3):
            images.add(tuple(s * c for s, c in zip(signs, p)))
    return np.array(sorted(images))


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Read-only arrays of directions (theta, phi) and steradian weights on
    the unit sphere, with phi canonicalized as Direction does; a theta
    outside [0, pi], a phi that is not finite, a weight that is zero or not
    finite, or arrays of unequal length raise ValueError.  Built from them:
    doubled_weights, the weights once per polarization block, and per point
    the unit_vectors, theta_hats and phi_hats, each (N_q, 3).
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    order_capability: int
    name: str = ""
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        theta, phi, weights = (np.array(a, dtype=float)
                               for a in (self.theta, self.phi, self.weights))
        if not (theta.ndim == 1 and theta.shape == phi.shape == weights.shape):
            raise ValueError(f"theta, phi and weights must be 1-D arrays of "
                             f"one length, got shapes {theta.shape}, "
                             f"{phi.shape} and {weights.shape}")
        for values, bad, what in (
                (theta, ~((theta >= 0.0) & (theta <= math.pi)),
                 "theta outside [0, pi]"),
                (phi, ~np.isfinite(phi), "phi not finite"),
                (weights, ~np.isfinite(weights) | (weights == 0.0),
                 "weight zero or not finite")):
            if bad.any():
                q = int(np.argmax(bad))
                raise ValueError(f"{what} at point {q}: {values[q]}")
        phi %= 2.0 * math.pi
        phi[(theta < _POLE_TOL) | (math.pi - theta < _POLE_TOL)] = 0.0
        st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
        arrays = {"theta": theta, "phi": phi, "weights": weights,
                  "doubled_weights": np.concatenate([weights, weights]),
                  "unit_vectors": np.column_stack([st * cp, st * sp, ct]),
                  "theta_hats": np.column_stack([ct * cp, ct * sp, -st]),
                  "phi_hats": np.column_stack([-sp, cp, np.zeros_like(phi)])}
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_points(self) -> int:
        return len(self.theta)

    def direction(self, q: int) -> Direction:
        """Rule point q as a Direction, for per-excitation solver calls."""
        return Direction(float(self.theta[q]), float(self.phi[q]))

    def cached(self, key, build):
        """build(), computed on first use and kept with the rule under key."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def inversion_permutation(self) -> np.ndarray:
        """Index map p -> q with r_q = -r_p; raises if the rule is not closed."""
        def build():
            uv = self.unit_vectors
            d2 = np.sum((uv[:, None, :] + uv[None, :, :]) ** 2, axis=2)
            unpaired = np.flatnonzero(d2.min(axis=1) > 1e-20)
            if unpaired.size:
                raise RuleNotInversionSymmetric(
                    f"no antipode for point {unpaired[0]} of rule "
                    f"{self.name or self.n_points}")
            return np.argmin(d2, axis=1)

        return self.cached("inv", build)

    def matches(self, other: "QuadratureRule") -> bool:
        if other is self:
            return True
        if self.n_points != other.n_points:
            return False
        return (np.allclose(self.unit_vectors, other.unit_vectors, atol=1e-13)
                and np.allclose(self.weights, other.weights, atol=1e-13))


def lebedev_rule(n_points: int) -> QuadratureRule:
    """Return the Lebedev rule with the given point count.

    Points are ordered by descending weight class, then lexicographically in
    (theta, phi); this ordering fixes all downstream matrix layouts.
    """
    if n_points not in _ORBITS:
        below = [s for s in SUPPORTED_SIZES if s < n_points]
        above = [s for s in SUPPORTED_SIZES if s > n_points]
        near = ([below[-1]] if below else []) + ([above[0]] if above else [])
        raise UnsupportedRuleSize(
            f"{n_points} is not a supported Lebedev size; nearest supported: "
            f"{near} (full set: {list(SUPPORTED_SIZES)})")

    entries = []  # (weight, theta, phi)
    for code, a, b, v in _ORBITS[n_points]:
        pts = _orbit_points(code, a, b)
        w = v * FOUR_PI
        for xyz in pts:
            d = Direction.from_vector(xyz)
            entries.append((w, d.theta, d.phi))
    if len(entries) != n_points:
        raise RuntimeError(
            f"Lebedev table for {n_points} produced {len(entries)} points")
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    weights, theta, phi = np.array(entries).T
    return QuadratureRule(theta=theta, phi=phi, weights=weights,
                          order_capability=RULE_DEGREE[n_points],
                          name=f"lebedev-{n_points}")


def quadrature_bound(ka: float) -> float:
    """Plane-wave count estimate for electrical size ka; a ValueError where
    ka is not positive or the estimate is not finite."""
    if ka <= 0:
        raise ValueError(f"ka must be positive, got {ka}")
    ka = float(ka)  # the same pow as a NumPy scalar's, but it raises, not warns
    try:
        bound = (4.0 / 3.0) * (ka + 2.0 * ka ** (1.0 / 3.0) + 1.0) ** 2
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"ka = {ka:g} is too large: its plane-wave count "
                         f"estimate is not finite")
    return bound


def format_estimate(bound: float) -> str:
    """A point-count estimate for messages: rounded up to an integer below
    1e6, and in scientific notation from there on (5.857e+200)."""
    return str(math.ceil(bound)) if bound < 1e6 else f"{bound:.3e}"


def minimum_points(ka: float) -> int:
    """Smallest supported Lebedev size meeting the bound for this ka."""
    bound = quadrature_bound(ka)
    for size in SUPPORTED_SIZES:
        if size >= bound:
            return size
    raise UnsupportedRuleSize(
        f"ka = {ka} needs at least {format_estimate(bound)} points; the largest "
        f"embedded rule has {SUPPORTED_SIZES[-1]}")


def integrate(rule: QuadratureRule, f) -> complex:
    """Weighted sum of f over the rule points; f maps Direction -> scalar."""
    return sum(w * f(rule.direction(q)) for q, w in enumerate(rule.weights))
