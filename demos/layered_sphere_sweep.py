"""Tracking modes of a layered dielectric-magnetic sphere across a band.

A four-layer sphere mixing dielectric and magnetic layers is swept over
ka = 0.5..4.5.  Modes at neighboring frequencies are associated by their
weighted far-field correlation, which keeps a trace attached to its mode
even when the plain significance ordering swaps.  The sphere shows a
wide-band resonance (characteristic angle pinned near pi at high
significance) around ka = 3.5.

Run: python3 demos/layered_sphere_sweep.py
"""

import math

import numpy as np

import scatmodes as sm


def main():
    sphere = sm.LayeredSphere(1.0, tuple(
        sm.Layer(e, m, f) for e, m, f in
        zip([1, 5, 1, 2], [3, 1, 8, 1], [0.25, 0.5, 0.75, 1.0])))
    rule = sm.lebedev_rule(38)
    backend = sm.MieBackend(sphere)
    kas = np.arange(0.5, 4.5001, 0.05)
    print(f"sweeping {len(kas)} points over ka = 0.5..4.5 on {rule.name}")

    modesets = tuple(
        sm.decompose(sm.apply_weights(backend.sample(rule, ka)))
        for ka in kas)
    sweep = sm.SweepResult(
        frequencies=np.array([sm.frequency(ka) for ka in kas]),
        modesets=modesets)
    tracked = sm.track(sweep)

    long_traces = [tr for tr in tracked.traces if tr.n_steps > 10]
    print(f"{len(tracked.traces)} traces, {len(long_traces)} spanning "
          f"more than 10 steps")
    worst = min(min(tr.correlations) for tr in long_traces)
    print(f"weakest step correlation among them: {worst:.12f}")

    # find the trace that hugs resonance (alpha = pi) near ka = 3.5
    best = None
    for tr in tracked.traces:
        for i, t in enumerate(tr.eigenvalues):
            ka = sm.wavenumber(sweep.frequencies[tr.start_step + i])
            if not (3.3 <= ka <= 3.7) or abs(t) < 0.9:
                continue
            gap = abs(sm.metrics(t).alpha_n - math.pi)
            if best is None or gap < best[0]:
                best = (gap, ka, abs(t), tr.trace_id)
    gap, ka, sig, tid = best
    print(f"\nwide-band resonance: trace {tid} reaches |alpha - pi| = "
          f"{gap:.4f} at ka = {ka:.2f} with significance {sig:.4f}")

    print("\ntrace of that mode around the resonance:")
    tr = next(t for t in tracked.traces if t.trace_id == tid)
    print("   ka      |t_n|     alpha_n")
    for i, t in enumerate(tr.eigenvalues):
        ka = sm.wavenumber(sweep.frequencies[tr.start_step + i])
        if 3.2 <= ka <= 3.8:
            m = sm.metrics(t)
            print(f"  {ka:.2f}   {m.modal_significance:.5f}   {m.alpha_n:.4f}")


if __name__ == "__main__":
    main()
