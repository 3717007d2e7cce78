"""Characteristic modes of electromagnetic scatterers.

The package samples a scatterer's far-field response on a Lebedev quadrature
rule with backend.sample(rule, k), weights the sample matrix, and
eigendecomposes it into characteristic modes.  Backends: analytic multilayer
spheres and a coupled point-dipole volume model; external solvers plug in as
a ScatteringBackend subclass or through the dataset format.
"""

from .errors import (AlreadyWeighted, BelowSignificanceThreshold,
                     DimensionMismatch, EigensolverFailure,
                     InsufficientQuadrature, ParseError, RankDeficientR,
                     RuleMismatch, RuleNotInversionSymmetric, ScatmodesError,
                     SingularImpedance, UnsupportedRuleSize, ZeroContrast)
from .quadrature import (Direction, QuadratureRule, integrate, lebedev_rule,
                         minimum_points, quadrature_bound, SUPPORTED_SIZES)
from .scattering import (ScatteringBackend, ScatteringMatrix, apply_weights,
                         assemble, reciprocity_residual)
from .swe import (SweIndex, TransitionMatrix, eval_vsh, expand_farfield,
                  n_swe, s_from_t, swe_indices, t_from_s, vsh_matrix)
from .modes import (C0, EPS0, Z0, ModalMetrics, ModeSet, characteristic_angle,
                    characteristic_excitation, decompose,
                    farfield_orthogonality, frequency, lossless_residual,
                    max_lossless_residual, metrics, t_from_lambda, wavenumber)
from .mie import (Layer, LayeredSphere, MieBackend, analytic_modes,
                  channel_eigenvalues, layered_tmatrix)
from .dda import (DdaBackend, DipoleModel, ImpedanceSystem, build_block,
                  classical_cm, farfield_operator, modal_current,
                  planewave_rhs, radiation_from_farfield, scattering_matrix)
from .tracking import SweepResult, Trace, TrackedTraces, trace_export, track
from .dataio import (read_dataset, read_manifest, validation_report,
                     write_dataset, write_manifest, write_modes, write_traces)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
