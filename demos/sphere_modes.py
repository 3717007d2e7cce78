"""Characteristic modes of a homogeneous dielectric sphere.

Walks the full pipeline once: build the scattering samples on a Lebedev
rule, weight them, take the dense eigendecomposition, and compare the
numeric eigenvalues against the analytic per-channel values for the same
sphere.  The analytic route is exact, so the agreement you see at the end
is the quadrature/eigensolver error alone.

Run: python3 demos/sphere_modes.py
"""

import numpy as np

import scatmodes as sm
from scatmodes.mie import default_l_max


def main():
    eps_r, ka = 3.0, 1.0
    sphere = sm.LayeredSphere.homogeneous(1.0, eps_r)

    # pick the smallest rule that resolves this electrical size
    rule = sm.lebedev_rule(sm.minimum_points(ka))
    print(f"sphere eps_r={eps_r}, ka={ka}, rule={rule.name} "
          f"(degree {rule.order_capability})")

    smat = sm.MieBackend(sphere).sample(rule, ka)
    print(f"reciprocity residual: {sm.reciprocity_residual(smat):.2e}")

    modeset = sm.decompose(sm.apply_weights(smat))
    print(f"lossless-circle residual (top 25): "
          f"{sm.max_lossless_residual(modeset):.2e}")

    l_max = default_l_max(rule)
    channels = sm.channel_eigenvalues(sphere, ka, l_max)

    print("\n  n   |t_n|      alpha_n   nearest analytic channel   rel err")
    for n in range(8):
        t = modeset.eigenvalues[n]
        m = sm.metrics(t)
        tau, l = np.unravel_index(np.argmin(np.abs(channels - t)),
                                  channels.shape)
        rel = abs(channels[tau, l] - t) / abs(t)
        kind = "TE" if tau == 0 else "TM"
        print(f"  {n}   {m.modal_significance:.5f}   {m.alpha_n:.4f}    "
              f"{kind} l={l + 1}  t={channels[tau, l]:.6f}   {rel:.1e}")

    # each (tau, l) channel appears 2l+1 times in the spectrum
    top = modeset.eigenvalues[0]
    mult = int(np.sum(np.isclose(modeset.eigenvalues, top, rtol=1e-6)))
    print(f"\ndominant eigenvalue multiplicity: {mult}")


if __name__ == "__main__":
    main()
