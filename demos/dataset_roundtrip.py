"""Writing, validating, and re-reading a scattering dataset.

Datasets decouple the expensive far-field sampling from the cheap
eigenanalysis: a JSON header file stores one frequency and the quadrature
rule, a binary .npy body beside it the unweighted scattering samples, and
any later session can recompute modes from them bit-for-bit.  This demo
writes a dataset, reloads it, and shows that the recovered eigenvalues are
identical, then prints the physics self-checks a `scatmodes validate` run
would apply.

Run: python3 demos/dataset_roundtrip.py
"""

import os
import tempfile

import numpy as np

import scatmodes as sm
from scatmodes import dataio


def main():
    sphere = sm.LayeredSphere.homogeneous(1.0, 3.0)
    rule = sm.lebedev_rule(26)
    smat = sm.MieBackend(sphere).sample(rule, 1.0)
    modeset = sm.decompose(sm.apply_weights(smat))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sphere_ka1.csv")
        body = os.path.join(tmp, "sphere_ka1.npy")
        dataio.write_dataset(smat, path)
        print(f"wrote header {path} ({os.path.getsize(path)} bytes)")
        print(f"  and body {body} ({os.path.getsize(body)} bytes)")

        back = dataio.read_dataset(path)
        redone = sm.decompose(sm.apply_weights(back))
        diff = np.max(np.abs(redone.eigenvalues - modeset.eigenvalues))
        print(f"eigenvalue difference after round trip: {diff:.1e}")

        report = dataio.validation_report(back)
        print("validation report:")
        for key, value in report.items():
            print(f"  {key}: {value:.3e}" if isinstance(value, float)
                  else f"  {key}: {value}")


if __name__ == "__main__":
    main()
