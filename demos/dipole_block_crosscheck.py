"""Cross-checking the two mode formulations on a coupled-dipole block.

A small dielectric block is discretized into point dipoles with
radiation-corrected polarizabilities.  The same physical modes are then
computed two ways:

1. from the sampled scattering matrix (far-field route), and
2. from the impedance pencil X I = lambda R I (current route),

and the eigenvalues are compared through t = -1/(1 + j lambda).  The demo
also realizes the dominant mode's current and verifies it radiates exactly
that mode's far field.

Run: python3 demos/dipole_block_crosscheck.py
"""

import math

import numpy as np

import scatmodes as sm


def main():
    k = 1.0
    spacing = 1.0 / math.sqrt(33)  # circumscribing radius 0.5 -> ka = 0.5
    model = sm.build_block((4, 4, 1), spacing, eps_r=3.0)
    rule = sm.lebedev_rule(50)
    print(f"block of {model.n_dipoles} dipoles, ka = 0.5, rule {rule.name}")

    # far-field route
    backend = sm.DdaBackend(model)
    smat = backend.sample(rule, k)
    modeset = sm.decompose(sm.apply_weights(smat))
    print(f"reciprocity residual: {sm.reciprocity_residual(smat):.2e}")

    # current route
    system = backend.system(k)
    lam, currents = sm.classical_cm(system)
    t_pencil = np.array([sm.t_from_lambda(v) for v in lam])
    t_pencil = t_pencil[np.argsort(-np.abs(t_pencil))]

    print("\n  n   |t_n| (scattering)   |t_n| (impedance)   rel diff")
    for n in range(6):
        a, b = modeset.eigenvalues[n], t_pencil[n]
        print(f"  {n}   {abs(a):.6e}        {abs(b):.6e}      "
              f"{abs(a - b) / abs(a):.1e}")

    # realize the dominant mode as a physical current distribution
    kmat = sm.farfield_operator(model, rule, k)
    i_n, v_n = sm.modal_current(system, kmat, rule, modeset, 0)
    f_n = modeset.eigenvectors[:, 0]
    radiated = kmat @ i_n
    err = np.linalg.norm(radiated - f_n) / np.linalg.norm(f_n)
    print(f"\nmodal current radiates the mode's far field: rel err {err:.1e}")


if __name__ == "__main__":
    main()
