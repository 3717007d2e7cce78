"""The helper thread of large decompositions: the same bits as inline, and
nothing left behind for a failure or a fork to trip over.

CI also runs these tests with OPENBLAS_NUM_THREADS=2, the default of a
user's multithreaded BLAS.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

import scatmodes as sm
from scatmodes import dataio, modes

#: every rule whose matrix is large enough for the helper thread
OVERLAPPED_SIZES = [n for n in sm.quadrature.SUPPORTED_SIZES
                    if 2 * n >= modes.OVERLAP_MIN_SIZE]


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


@pytest.mark.parametrize("n_q", OVERLAPPED_SIZES)
def test_overlapped_outputs_equal_the_inline_ones_bit_for_bit(
        n_q, sphere_eps3, monkeypatch):
    """Rank-deficient Mie samples on every rule, and full-rank noise on the
    smallest and the largest rule: decompose overlaps the two halves of its
    residual product, and validation_report, which runs decompose and then
    the reciprocity check, gives the same report either way."""
    rule = sm.lebedev_rule(n_q)
    cases = [sm.MieBackend(sphere_eps3).sample(rule, 1.0)]
    if n_q in (OVERLAPPED_SIZES[0], OVERLAPPED_SIZES[-1]):
        rng = np.random.default_rng(n_q)  # test_scattering's noise matrix
        noise = rng.standard_normal((2 * n_q, 2 * n_q)) * (1.0 + 1j)
        cases.append(sm.ScatteringMatrix(rule=rule, k=1.3, matrix=noise))
    real_decompose, real_thread = dataio.decompose, threading.Thread
    modesets, threads = [], []

    def recorded(*args, **kwargs):
        modesets.append(real_decompose(*args, **kwargs))
        return modesets[-1]

    def counted(*args, **kwargs):
        threads.append(kwargs.get("name"))
        return real_thread(*args, **kwargs)

    monkeypatch.setattr(dataio, "decompose", recorded)
    monkeypatch.setattr(modes.threading, "Thread", counted)
    for smat in cases:
        reports = [dataio.validation_report(smat)]
        with monkeypatch.context() as inline:
            inline.setattr(modes, "OVERLAP_MIN_SIZE", 2**62)
            reports.append(dataio.validation_report(smat))
        overlapped, alone = modesets[-2:]
        for name in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(_bits(getattr(overlapped, name)),
                                  _bits(getattr(alone, name)))
        assert reports[0] == reports[1]
        assert reports[0]["reciprocity_residual"] == sm.reciprocity_residual(
            smat)
    assert threads  # the default path did run on the helper thread


def test_many_threads_decompose_at_once_with_the_bits_of_a_lone_call(
        sphere_eps3):
    """More threads than cores decompose at once, with a short switch
    interval (N_q=110 also starts the helper thread): every result has the
    bits of a lone decompose."""
    cases = [sm.apply_weights(sm.MieBackend(sphere_eps3).sample(
        sm.lebedev_rule(n_q), 1.0)) for n_q in (26, 38, 110)]
    want = [sm.decompose(smat) for smat in cases]
    results = {}

    def work(i):
        results[i] = sm.decompose(cases[i % len(cases)])

    workers = [threading.Thread(target=work, args=(i,)) for i in range(9)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert sorted(results) == list(range(9))
    for i, got in results.items():
        ref = want[i % len(cases)]
        for name in ("eigenvalues", "eigenvectors", "residuals"):
            assert np.array_equal(_bits(getattr(got, name)),
                                  _bits(getattr(ref, name)))


def _decompose_in_child(smat, conn):
    conn.send(sm.decompose(sm.apply_weights(smat)).eigenvalues)
    conn.close()


def test_decompose_in_a_forked_child_after_the_helper_thread_ran(
        mie_eps3_110):
    """A thread pool made before a fork leaves the child waiting on
    workers that do not exist; overlap's thread is gone by then."""
    assert 2 * mie_eps3_110.n_points >= modes.OVERLAP_MIN_SIZE
    want = sm.decompose(sm.apply_weights(mie_eps3_110)).eigenvalues
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_decompose_in_child, args=(mie_eps3_110, send))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked decompose did not finish"
        got = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert not child.is_alive() and child.exitcode == 0
    assert np.array_equal(got, want)


def test_overlap_runs_f_on_a_helper_thread_from_the_size_on():
    caller = threading.get_ident()
    size = modes.OVERLAP_MIN_SIZE
    assert modes.overlap(threading.get_ident, threading.get_ident,
                         size - 1) == (caller, caller)
    worker, here = modes.overlap(threading.get_ident, threading.get_ident,
                                 size)
    assert here == caller and worker != caller
    order = []
    modes.overlap(lambda: order.append("f"), lambda: order.append("g"),
                  size - 1)
    assert order == ["g", "f"]  # g's exception wins inline, as threaded


@pytest.mark.parametrize("size_step", [-1, 0])
def test_overlap_reraises_and_joins(size_step):
    size = modes.OVERLAP_MIN_SIZE + size_step
    threads = threading.active_count()

    def fail(message):
        def call():
            raise ValueError(message)
        return call

    with pytest.raises(ValueError, match="from f"):
        modes.overlap(fail("from f"), lambda: 1, size)
    assert threading.active_count() == threads
    with pytest.raises(ValueError, match="from g"):
        modes.overlap(fail("from f"), fail("from g"), size)
    assert threading.active_count() == threads
    done = threading.Event()

    def slow():
        done.wait(0.05)
        done.set()

    with pytest.raises(ValueError, match="from g"):
        modes.overlap(slow, fail("from g"), size)
    # threaded, g's exception waits for f to finish; inline, f never runs
    assert done.is_set() == (size >= modes.OVERLAP_MIN_SIZE)
    assert threading.active_count() == threads
