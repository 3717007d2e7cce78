"""Shared fixtures: reusable scattering pipelines for spheres and dipole blocks."""

import os

# one BLAS thread, as in the benchmark: NumPy reads this when it is first
# imported, and several threads make the small eigensolves slower
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import csv  # noqa: E402
import json
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

import scatmodes as sm
from scatmodes import dataio, modes
from scatmodes.mie import default_l_max

# property tests draw the same examples on every run and stay short
settings.register_profile("tier1", derandomize=True, database=None,
                          max_examples=25, deadline=None)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter):
    """One line per end-to-end criterion, printed after the test summary."""
    import sys

    lines = []
    for name in ("test_acceptance", "tests.test_acceptance"):
        module = sys.modules.get(name)
        if module is not None:
            lines = getattr(module, "RESULT_LINES", [])
            if lines:
                break
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def sphere_eps3():
    return sm.LayeredSphere.homogeneous(1.0, 3.0)


@pytest.fixture(scope="session")
def mie_modes_ka1(sphere_eps3):
    """Full sampled-matrix pipeline for the eps_r=3 sphere at ka=1, N_q=26."""
    rule = sm.lebedev_rule(26)
    smat = sm.MieBackend(sphere_eps3).sample(rule, 1.0)
    modeset = sm.decompose(sm.apply_weights(smat))
    return rule, smat, modeset


@pytest.fixture(scope="session")
def mie_eps3_110(sphere_eps3):
    """Unweighted samples of the eps_r=3 sphere at ka=1, N_q=110."""
    return sm.MieBackend(sphere_eps3).sample(sm.lebedev_rule(110), 1.0)


@pytest.fixture(scope="session")
def dipole_block():
    """4x4x1 dielectric block with circumscribing radius 0.5 at k=1."""
    spacing = 1.0 / math.sqrt(4**2 + 4**2 + 1**2)  # half-diagonal = 0.5
    return sm.build_block((4, 4, 1), spacing, 3.0)


@pytest.fixture(scope="session")
def dda_pipeline(dipole_block):
    k = 1.0
    rule = sm.lebedev_rule(50)
    system = sm.ImpedanceSystem(dipole_block, k)
    kmat = sm.farfield_operator(dipole_block, rule, k)
    smat = sm.scattering_matrix(dipole_block, rule, k)
    modeset = sm.decompose(sm.apply_weights(smat))
    return k, rule, system, kmat, smat, modeset


def _full_eig(matrix, weights):
    return *scipy.linalg.eig(matrix), False  # not w-orthonormal


def _full_eig_decompose(weighted):
    with mock.patch.object(modes, "_band_pairs", lambda matrix, rule: None), \
            mock.patch.object(modes, "_eigenpairs", _full_eig):
        return sm.decompose(weighted)


@pytest.fixture(scope="session")
def full_eig_decompose():
    """decompose with its raw eigenpairs from the full dense
    scipy.linalg.eig instead of the significant-subspace solve."""
    return _full_eig_decompose


def _layered_sweep_matrices(eps_r, mu_r):
    """A four-layer sphere (boundaries at 0.25, 0.5, 0.75 and 1) swept over
    ka 0.5 to 4.5 in 201 steps: the ka grid and the weighted N_q=38 matrix
    of every step."""
    sphere = sm.LayeredSphere(1.0, tuple(
        sm.Layer(e, m, f) for e, m, f in
        zip(eps_r, mu_r, [0.25, 0.5, 0.75, 1.0])))
    rule = sm.lebedev_rule(38)
    l_max = default_l_max(rule)
    kas = np.arange(0.5, 4.5001, 0.02)
    return kas, [sm.apply_weights(
        sm.s_from_t(sm.layered_tmatrix(sphere, ka, l_max), rule, k=ka))
        for ka in kas]


@pytest.fixture(scope="session")
def magnetodielectric_matrices():
    """The acceptance-6 dielectric-magnetic sphere's sweep matrices."""
    return _layered_sweep_matrices([1, 5, 1, 2], [3, 1, 8, 1])


@pytest.fixture(scope="session")
def dielectric_matrices():
    """The acceptance-6 all-dielectric sphere's sweep matrices."""
    return _layered_sweep_matrices([3, 5, 8, 2], [1, 1, 1, 1])


def _sweep(kas, modesets):
    freqs = np.array([sm.frequency(ka) for ka in kas])
    return sm.SweepResult(frequencies=freqs, modesets=tuple(modesets))


@pytest.fixture(scope="session")
def magnetodielectric_sweep(magnetodielectric_matrices):
    kas, weighted = magnetodielectric_matrices
    return kas, _sweep(kas, map(sm.decompose, weighted))


@pytest.fixture(scope="session")
def dielectric_sweep(dielectric_matrices):
    kas, weighted = dielectric_matrices
    return kas, _sweep(kas, map(sm.decompose, weighted))


@pytest.fixture(scope="session")
def full_eig_magnetodielectric_sweep(magnetodielectric_matrices):
    """The same sweep decomposed through full_eig_decompose."""
    kas, weighted = magnetodielectric_matrices
    return kas, _sweep(kas, map(_full_eig_decompose, weighted))


def _write_v1_dataset(smat, path):
    """Write smat as a version 1 dataset, the text interchange format: the
    JSON header line, then one CRLF-ended CSV row per entry with %.17g
    parts, as csv.writer prints them."""
    header = {
        "format_version": 1,
        "frequency_hz": smat.k * sm.C0 / (2.0 * math.pi),
        "wavenumber": smat.k,
        "rule": np.column_stack([smat.rule.theta, smat.rule.phi,
                                 smat.rule.weights]).tolist(),
        "scaling_note": dataio._SCALING_NOTE,
    }
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(header) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["row_index", "col_index", "re", "im"])
        for (i, j), v in np.ndenumerate(smat.matrix):
            writer.writerow([i, j, format(v.real, ".17g"),
                             format(v.imag, ".17g")])


@pytest.fixture(scope="session")
def write_v1_dataset():
    """A writer of version 1 (CSV) datasets, which the library reads but no
    longer writes."""
    return _write_v1_dataset
