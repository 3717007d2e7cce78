"""Coupled electric dipoles on a cubic lattice as a numerical scatterer.

The dielectric body is discretized into point dipoles with Clausius-Mossotti
polarizability plus the radiation correction, coupled through the free-space
dyadic Green's function.  The impedance matrix Z relates drive voltages to
dipole currents; its real part is the radiation operator, and a far-field
map K turns currents into tangential far-field samples on a quadrature rule.
All conventions follow the exp(+j omega t) time dependence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import RankDeficientR, SingularImpedance, ZeroContrast
from .modes import C0, EPS0, Z0, ModeSet
from .quadrature import QuadratureRule
from .scattering import ScatteringBackend, ScatteringMatrix


@dataclass(frozen=True)
class DipoleModel:
    """Point-dipole discretization of a homogeneous dielectric body."""

    positions: np.ndarray  # (N, 3), meters
    spacing: float         # lattice constant d, meters
    relative_permittivity: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] == 0:
            raise ValueError(f"positions must be (N, 3) with N >= 1, got {pos.shape}")
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if self.relative_permittivity == 1.0:
            raise ZeroContrast("relative permittivity 1 scatters nothing")
        object.__setattr__(self, "positions", pos)

    @property
    def n_dipoles(self) -> int:
        return self.positions.shape[0]

    @property
    def static_polarizability(self) -> float:
        """Clausius-Mossotti polarizability of one lattice cell, F m^2."""
        er = self.relative_permittivity
        return 3.0 * EPS0 * self.spacing ** 3 * (er - 1.0) / (er + 2.0)

    def polarizability(self, k: float) -> complex:
        """Radiation-corrected polarizability at wavenumber k."""
        inv = 1.0 / self.static_polarizability + 1j * k ** 3 / (6.0 * math.pi * EPS0)
        return 1.0 / inv


def build_block(extent, spacing: float, eps_r: float, k: float | None = None) -> DipoleModel:
    """Cubic-lattice block of extent (nx, ny, nz) cells, centered at origin."""
    nx, ny, nz = (int(v) for v in extent)
    if min(nx, ny, nz) < 1:
        raise ValueError(f"extent must be positive in all axes, got {extent}")
    grids = [spacing * (np.arange(n) - (n - 1) / 2.0) for n in (nx, ny, nz)]
    xx, yy, zz = np.meshgrid(*grids, indexing="ij")
    positions = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
    if k is not None and spacing > (2.0 * math.pi / k) / 10.0:
        warnings.warn(
            f"lattice spacing {spacing:.3e} m exceeds a tenth of the "
            f"wavelength {2 * math.pi / k:.3e} m; expect coarse-model error",
            stacklevel=2)
    return DipoleModel(positions=positions, spacing=spacing,
                       relative_permittivity=eps_r)


def _green_blocks(positions: np.ndarray, k: float) -> np.ndarray:
    """Off-diagonal dyadic Green's function blocks, (N, N, 3, 3)."""
    diff = positions[:, None, :] - positions[None, :, :]
    r = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(r, 1.0)  # placeholder; diagonal blocks are overwritten
    rhat = diff / r[:, :, None]
    kr = k * r
    g = np.exp(-1j * kr) / (4.0 * math.pi * r)
    f1 = 1.0 - 1j / kr - 1.0 / kr ** 2
    f2 = 1.0 - 3j / kr - 3.0 / kr ** 2
    eye = np.eye(3)
    out = g[:, :, None, None] * (f1[:, :, None, None] * eye
                                 - f2[:, :, None, None]
                                 * rhat[:, :, :, None] * rhat[:, :, None, :])
    idx = np.arange(positions.shape[0])
    out[idx, idx] = 0.0
    return out


@dataclass
class ImpedanceSystem:
    """Dense symmetric impedance matrix of the dipole cloud at one k."""

    model: DipoleModel
    k: float
    z: np.ndarray = field(init=False)
    _lu: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        n = self.model.n_dipoles
        omega = C0 * self.k
        blocks = -(self.k ** 2 / EPS0) * _green_blocks(self.model.positions, self.k)
        idx = np.arange(n)
        blocks[idx, idx] = (1.0 / self.model.polarizability(self.k)) * np.eye(3)
        a = blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
        self.z = a / (1j * omega)

    @property
    def n_unknowns(self) -> int:
        return 3 * self.model.n_dipoles

    def resistance(self) -> np.ndarray:
        """Radiation operator R = Re Z (real symmetric)."""
        return self.z.real.copy()

    def reactance(self) -> np.ndarray:
        return self.z.imag.copy()

    def factor(self):
        if self._lu is None:
            try:
                self._lu = scipy.linalg.lu_factor(self.z)
            except (ValueError, scipy.linalg.LinAlgError) as exc:
                raise SingularImpedance(
                    f"LU factorization failed for {self.n_unknowns} unknowns "
                    f"at k={self.k}") from exc
            if not np.all(np.isfinite(self._lu[0])):
                self._lu = None
                raise SingularImpedance(
                    f"impedance matrix is singular at k={self.k}")
        return self._lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return scipy.linalg.lu_solve(self.factor(), rhs)


def farfield_operator(model: DipoleModel, rule: QuadratureRule, k: float) -> np.ndarray:
    """Map K from dipole currents to far-field samples, (2 N_q, 3 N).

    Row (gamma, p) holds -j Z0 k / (4 pi) (gamma_hat . u_hat) exp(+j k
    r_hat_p . r_i) for each Cartesian current component u of dipole i.
    """
    phases = np.exp(1j * k * (rule.unit_vectors @ model.positions.T))  # (N_q, N)
    front = -1j * Z0 * k / (4.0 * math.pi)
    kth = front * phases[:, :, None] * rule.theta_hats[:, None, :]
    kph = front * phases[:, :, None] * rule.phi_hats[:, None, :]
    n = model.n_dipoles
    return np.vstack([kth.reshape(rule.n_points, 3 * n),
                      kph.reshape(rule.n_points, 3 * n)])


def planewave_rhs(model: DipoleModel, k: float, direction, polarization: str) -> np.ndarray:
    """Drive vector of a unit plane wave from direction with given polarization."""
    pol = direction.theta_hat if polarization == "theta" else direction.phi_hat
    phases = np.exp(-1j * k * (model.positions @ direction.unit_vector))
    return (phases[:, None] * pol[None, :]).ravel()


def radiation_from_farfield(kmat: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Quadrature form of the radiated-power operator (1/Z0) K^H diag(w) K."""
    w = np.concatenate([rule.weights, rule.weights])
    return (kmat.conj().T * w) @ kmat / Z0


class DdaBackend(ScatteringBackend):
    """Plane-wave scattering of the dipole cloud, reusing one factorization per k."""

    def __init__(self, model: DipoleModel):
        self.model = model
        self._systems: dict = {}
        # one entry {k: (rule, K)}; holding the rule itself keeps its id from
        # being reused, and it is compared with `is`
        self._kmats: dict = {}

    def system(self, k: float) -> ImpedanceSystem:
        if k not in self._systems:
            self._systems[k] = ImpedanceSystem(self.model, k)
        return self._systems[k]

    def kmat(self, k: float, rule: QuadratureRule) -> np.ndarray:
        hit = self._kmats.get(k)
        if hit is None or hit[0] is not rule:
            hit = (rule, farfield_operator(self.model, rule, k))
            self._kmats = {k: hit}
        return hit[1]

    def far_fields(self, k, direction, polarization, rule):
        v = planewave_rhs(self.model, k, direction, polarization)
        currents = self.system(k).solve(v)
        return self.kmat(k, rule) @ currents


def scattering_matrix(model: DipoleModel, rule: QuadratureRule, k: float,
                      backend: DdaBackend | None = None) -> ScatteringMatrix:
    """Sampled scattering matrix -(1/Z0) K Z^{-1} K^H, all excitations at once."""
    backend = backend or DdaBackend(model)
    kmat = backend.kmat(k, rule)
    sol = backend.system(k).solve(kmat.conj().T)
    return ScatteringMatrix(rule=rule, k=k,
                            matrix=-(kmat @ sol) / Z0, weighted=False)


def classical_cm(system: ImpedanceSystem, rank_tol: float = 1e-12):
    """Classical characteristic modes X I = lambda R I on the radiating subspace.

    R is rank-deficient for any finite quadrature-free dipole cloud beyond a
    handful of radiating combinations, so the pencil is restricted to the
    eigenspace of R above rank_tol times its largest eigenvalue.  Returns
    (lambdas, currents) sorted by ascending |lambda| (descending modal
    significance); currents are columns in the full 3N space, R-normalized.
    """
    r = system.resistance()
    x = system.reactance()
    rvals, rvecs = scipy.linalg.eigh(r)
    keep = rvals > rank_tol * rvals.max()
    if not np.any(keep):
        raise RankDeficientR(
            f"radiation operator has no eigenvalue above {rank_tol:.1e} of max")
    basis = rvecs[:, keep]
    r_sub = np.diag(rvals[keep])
    x_sub = basis.T @ x @ basis
    lam, vec = scipy.linalg.eigh(x_sub, r_sub)
    order = np.argsort(np.abs(lam))
    lam, vec = lam[order], vec[:, order]
    return lam, basis @ vec


def modal_current(system: ImpedanceSystem, kmat: np.ndarray,
                  rule: QuadratureRule, modeset: ModeSet, n: int):
    """Currents and drive voltages realizing far-field mode n.

    V_n = -(1/(Z0 t_n)) K^H diag(w) F_n and I_n = Z^{-1} V_n, which radiates
    the mode's far-field pattern F_n exactly.
    """
    t_n = modeset.eigenvalues[n]
    if t_n == 0:
        raise ZeroDivisionError("mode has zero eigenvalue; no realizing current")
    f_n = modeset.eigenvectors[:, n]
    w = np.concatenate([rule.weights, rule.weights])
    v_n = -(kmat.conj().T @ (w * f_n)) / (Z0 * t_n)
    i_n = system.solve(v_n)
    return i_n, v_n
