"""Eigendecomposition of the weighted scattering matrix and modal metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BelowSignificanceThreshold, EigensolverFailure
from .quadrature import QuadratureRule
# EPS0 and Z0 are re-exported: this module was their first home
from .scattering import C0, EPS0, Z0, ScatteringMatrix  # noqa: F401
from .swe import default_l_max, vsh_matrix

#: below this modal significance the characteristic angle switches to the
#: numerically robust reformulation; it also bounds the detectable |lambda|.
SIGNIFICANCE_FLOOR = 1e-6

#: the leading modes the lossless-circle checks read
LOSSLESS_TOP = 25


@dataclass
class ModeSet:
    """Eigenvalues t_n (|t| descending) and far-field eigenvectors.

    Eigenvectors are columns, stacked [theta block; phi block] over the rule
    points and normalized to unit radiated power under the rule weights.
    Analytic sphere decompositions reuse the class with rule=None and
    coefficient-space eigenvectors.
    """

    k: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rule: QuadratureRule | None = None
    residuals: np.ndarray | None = None

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def significance(self) -> np.ndarray:
        return np.abs(self.eigenvalues)


def wavenumber(frequency_hz: float) -> float:
    return 2.0 * math.pi * frequency_hz / C0


def frequency(k: float) -> float:
    return k * C0 / (2.0 * math.pi)


#: eigenvalues closer than this are treated as one multiplet: relative to
#: |t| above |t| = 1, absolute below it; t = 0 never joins t != 0
DEGENERACY_TOL = 1e-8


def degenerate_groups(values: np.ndarray) -> list[slice]:
    """Runs of two or more consecutive eigenvalues that form one multiplet.

    A run extends while |t_i - t_start| <= DEGENERACY_TOL * max(1, |t_start|),
    measured from its first member, so the values must already be sorted
    with multiplet members adjacent (as decompose returns them).  Exact
    zeros form a run of their own: a value t != 0 never joins one, however
    small it is.
    """
    values = np.asarray(values).tolist()  # Python scalars: a faster loop
    groups, start, n = [], 0, len(values)
    while start < n:
        first, end = values[start], start + 1
        if first == 0:
            while end < n and values[end] == 0:
                end += 1
        else:
            bound = DEGENERACY_TOL * max(1.0, abs(first))
            while (end < n and values[end] != 0
                   and not abs(values[end] - first) > bound):
                end += 1
        if end - start > 1:
            groups.append(slice(start, end))
        start = end
    return groups


def _phase_fix(vectors: np.ndarray) -> None:
    """Rotate each column, in place, so its largest-magnitude entry is real
    and positive; all-zero columns are left alone."""
    pivots = vectors[np.argmax(np.abs(vectors), axis=0),
                     np.arange(vectors.shape[1])]
    pivots[pivots == 0] = 1.0
    vectors *= np.abs(pivots) / pivots


def _sort_order(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Indices ordering modes by |t| descending, then arg t in [0, 2 pi),
    then the magnitude of each eigenvector's first nonzero entry: one
    stable lexsort, so the order of a stable sort on the key tuples."""
    firsts = vectors[np.argmax(vectors != 0, axis=0),
                     np.arange(vectors.shape[1])]
    return np.lexsort((np.abs(firsts), np.angle(values) % (2 * math.pi),
                       -np.abs(values)))


def _lapack(func, name: str, *args, **kwargs) -> list:
    """Outputs of a LAPACK routine run with the workspace its own query
    (lwork=-1) asks for, as scipy.linalg's wrappers run it: blocking, and
    with it the rounding, depends on lwork.  The query takes the call's
    flags, so an overwrite flag spares it the copy too."""
    lwork = int(func(*args, lwork=-1, **kwargs)[-2][0].real)
    *out, _, info = func(*args, lwork=lwork, **kwargs)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"LAPACK {name} failed (info {info})")
    return out


def _pivoted_qr(matrix: np.ndarray, scale: np.ndarray) -> tuple:
    """N P = Q R by one LAPACK geqp3 call, for N = D matrix D^-1 with
    D = diag(scale): geqp3's packed qr, the 0-based pivots and tau.

    N is formed in the one Fortran-ordered copy that geqp3 factors in
    place, with the workspace its own query asks for, as scipy.linalg.qr
    runs it.
    """
    n = matrix.shape[0]
    a = np.empty((n, n), dtype=complex, order="F")
    # by a real reciprocal: a complex division costs more
    np.multiply(matrix, scale[:, None], out=a)
    a *= 1.0 / scale
    (geqp3,) = scipy.linalg.get_lapack_funcs(("geqp3",), (a,))
    qr, perm, tau = _lapack(geqp3, "geqp3", a, overwrite_a=1)
    perm -= 1
    return qr, perm, tau


def _orthonormalize_degenerate(values, vectors, weights) -> None:
    """Weighted orthonormal basis, in place, inside each multiplet of
    nonzero eigenvalues.

    One QR of sqrt(|w|) V_g per group gives the Gram-Schmidt basis Q of the
    group's columns, in order, under the |w| product.  On rules with
    negative weights the Cholesky factor R of Q^H W Q turns it into the
    Gram-Schmidt basis Q R^-1 under w itself.  Where w is indefinite on the
    group's span no w-orthonormal basis exists, and the group keeps the |w|
    one.  The columns are then unscaled and phase-fixed, all groups' in one
    call: the phase fix treats each column on its own.  The t = 0 run is
    left alone: _eigenpairs returns it |w|-orthonormal already.
    """
    sqrt_w = np.sqrt(np.abs(weights))[:, None]
    signed = bool(np.any(weights < 0))
    done = []
    for grp in degenerate_groups(values):
        if values[grp.start] == 0:
            continue
        q = scipy.linalg.qr(vectors[:, grp] * sqrt_w, mode="economic",
                            overwrite_a=True, check_finite=False)[0]
        q /= sqrt_w
        if signed:
            try:
                r = scipy.linalg.cholesky(q.conj().T @ (q * weights[:, None]))
            except scipy.linalg.LinAlgError:
                pass
            else:
                q = scipy.linalg.solve_triangular(r, q.T, trans="T").T
        vectors[:, grp] = q
        done.append(np.arange(grp.start, grp.stop))
    if done:
        cols = np.concatenate(done)
        fixed = vectors[:, cols]
        _phase_fix(fixed)
        vectors[:, cols] = fixed


#: the normality defect ||M M^H - M^H M||_F / ||M||_F^2 up to which the
#: r x r block takes the Hermitian route: lossless data reads 1e-16 to
#: 5e-16, samples with noise of 1e-12 max|S| read 2.5e-13
NORMALITY_TOL = 1e-14

#: c of H + c K in the Hermitian route's first solve: irrational, so that
#: two distinct eigenvalues t, t' share Re t + c Im t only by accident
_MIX = math.sqrt(2.0) - 1.0


def _is_normal(q: np.ndarray, m: np.ndarray, rows: np.ndarray,
               cut: float) -> bool:
    """Whether N is normal to rounding, from Q_r = q, M = m = Q_r^H N Q_r,
    rows = R_r P^T = Q_r^H N and the rank cut n eps |R_00|.

    The coupling Z = Q_r^H N Q_perp, by which range(N^H) leaves
    range(Q_r), must be at most sqrt(n - r) cut in F-norm, and M must be
    _normal_block.  A normal N meets the first bound:
    ||Z|| <= ||N Q_perp|| = ||N^H Q_perp|| = ||R_22||, and the pivoting
    keeps each of R_22's n - r columns below the cut.  Z^H is the part of
    rows^H = N^H Q_r outside range(Q_r), rows^H - Q_r M^H, so Q_perp is not
    needed to measure it.  The coupling is checked first: one n x r x r
    product, where the defect takes two r x r x r ones, and noisy samples
    of nearly full rank already fail it.
    """
    n, r = q.shape
    return bool(np.linalg.norm(rows.conj().T - q @ m.conj().T)
                <= math.sqrt(n - r) * cut and _normal_block(m))


def _normal_block(m: np.ndarray) -> bool:
    """Whether m's normality defect ||M M^H - M^H M||_F / ||M||_F^2 is at
    most NORMALITY_TOL."""
    mh = m.conj().T
    return bool(np.linalg.norm(m @ mh - mh @ m)
                <= NORMALITY_TOL * np.linalg.norm(m) ** 2)


def _normal_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a normal matrix m.

    m = H + i K with H and K Hermitian, which commute because m is normal,
    so eigh of H + c K (c = _MIX) gives vectors Y that diagonalize m,
    except where two eigenvalues t != t' share Re t + c Im t or come close
    to it: there B = Y^H m Y keeps off-diagonal mass.  Each sweep takes the
    pairs of columns that B couples by more than 8 eps ||m||_F, and for
    each run of columns from the first to the last of such a pair
    triangularizes B on the run by a complex Schur form, which needs no
    direction c, and rotates Y and B with it (a Jacobi-like simultaneous
    diagonalization: Bunse-Gerstner, Byers and Mehrmann, SIAM J. Matrix
    Anal. Appl. 14, 1993).  The sweeps stop once no pair is coupled, or
    once a sweep no longer halves the largest coupling: what is left then
    is rounding and m's own departure from normality.  The eigenvalues are
    B's diagonal.
    """
    r = len(m)
    g = (1.0 - 1j * _MIX) * m  # H + c K is the Hermitian part of (1 - i c) m
    y = np.linalg.eigh((g + g.conj().T) / 2)[1]
    b = y.conj().T @ (m @ y)
    tol = 8 * np.finfo(float).eps * np.linalg.norm(m)
    worst = math.inf
    while True:
        mass = np.abs(b)
        mass = np.triu(np.maximum(mass, mass.T), 1)
        top = mass.max(initial=0.0)
        if top <= tol or top > worst / 2:
            return np.diagonal(b).copy(), y
        worst = top
        first, last = np.nonzero(mass > tol)
        cover = np.zeros(r + 1)  # columns k and k + 1 share a run where > 0
        np.add.at(cover, first, 1)
        np.add.at(cover, last, -1)
        edges = np.diff(np.concatenate([[0], np.cumsum(cover) > 0])
                        .astype(int))
        for lo, hi in zip(np.flatnonzero(edges == 1),
                          np.flatnonzero(edges == -1) + 1):
            z = scipy.linalg.schur(b[lo:hi, lo:hi], output="complex")[1]
            y[:, lo:hi] = y[:, lo:hi] @ z
            b[:, lo:hi] = b[:, lo:hi] @ z
            b[lo:hi] = z.conj().T @ b[lo:hi]


def _column_norms(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The 2-norms of the columns of W^1/2 x, from x's real and imaginary
    parts in place: no scaled copy of x."""
    return np.sqrt(np.einsum("i,ij,ij->j", weights, x.real, x.real)
                   + np.einsum("i,ij,ij->j", weights, x.imag, x.imag))


def _null_run(reflectors: tuple, root: np.ndarray, out: np.ndarray) -> None:
    """root^-1 times the last n - r columns of the Q of r Householder
    reflectors (geqrf's (qr, tau)), which span the complement of their
    range, into out (n x (n - r), Fortran order): unmqr on [0; I], in
    place."""
    r = out.shape[0] - out.shape[1]
    (unmqr,) = scipy.linalg.get_lapack_funcs(("unmqr",), (out,))
    out[:] = 0.0
    np.fill_diagonal(out[r:], 1.0)
    (out[:],) = _lapack(unmqr, "unmqr", b"L", b"N", *reflectors, out,
                        overwrite_c=1)
    out *= (1.0 / root)[:, None]


def _complement_probe(n: int) -> np.ndarray:
    """The fixed vector g whose part outside the band _band_pairs probes:
    standard normal entries, so no symmetry of a rule or a scatterer makes
    it orthogonal to what it has to find."""
    return np.random.default_rng(0).standard_normal(n)


def _band_walk(matrix: np.ndarray, band: np.ndarray, l_max: int,
               weights: np.ndarray, floor: float) -> np.ndarray | None:
    """S A_c: the degrees l = 1, 2, ..., l_max of the band A up to the
    first one whose block N B_l = D S A_l has no column norm above floor;
    None where that is the first."""
    blocks = []
    for l in range(1, l_max + 1):
        block = matrix @ band[:, 2 * (l * l - 1):2 * l * (l + 2)]
        if _column_norms(block, weights).max() <= floor:
            break
        blocks.append(block)
    return np.hstack(blocks) if blocks else None


def _band_pairs(matrix: np.ndarray, rule: QuadratureRule) -> tuple | None:
    """All n eigenpairs of S = S_0 W from the rule's spherical-wave band,
    unsorted, True (they are w-orthonormal) and the bound that certifies
    them; None where the band does not hold the samples.

    On a rule with positive weights that integrates degree 2 L, L =
    default_l_max(rule) >= 1, the band A = vsh_matrix(L, rule) has
    A^H W A = I, so B = D A, D = W^1/2, has orthonormal columns.  Samples
    S_0 = A T A^H of a scatterer inside the band give N = D S_0 D = B T B^H,
    so the band, not a pivoted QR, holds the range of N.  The walk
    (_band_walk) forms N B_l = D S A_l for l = 1, 2, ..., with no scaled
    copy of S, and stops at the first degree whose block has no column
    norm above the floor n eps max_j ||N e_j||, _eigenpairs' rank cut; the
    c columns A_c before it are the cut.  M = B_c^H N B_c = A_c^H W S A_c
    carries the nonzero eigenvalues, solved by _normal_eig, with
    eigenvectors A_c y.  The other n - c modes get t = 0: D^-1 times a
    basis of the complement of range(B_c), from one geqrf of B_c
    (_null_run).

    The route is refused before the walk by two probes of N, one matrix
    product with two columns, each held to the floor per unit length, as
    the walk holds each unit column beyond the cut: N x for x = B (1, ...,
    1) leaving the band by more than ||x|| floor, or N u for u, the part of
    D g (_complement_probe) outside the band, above ||u|| floor.  Noise,
    losses, aliasing (content beyond L that the rule folds into the band)
    and content outside the band are refused there, for O(n^2).  After the
    walk the route is refused where a column of N B_c - B_c M is above the
    floor, or where M is not _normal_block; that is still before the
    eigensolve.  The caller certifies the rest from the t = 0 modes'
    residuals ||S v|| = ||D^-1 N u||, which must be at most the returned
    bound, floor / min(D).
    """
    weights = rule.doubled_weights
    if rule.order_capability < 2 or not np.all(weights > 0):
        return None
    n = len(matrix)
    # ||N e_j||^2 = sum_i w_i |S_ij|^2 / w_j
    floor = n * np.finfo(float).eps * math.sqrt(np.max(
        _column_norms(matrix, weights) ** 2 / weights))
    if not math.isfinite(floor):
        return None
    l_max = default_l_max(rule)
    band = vsh_matrix(l_max, rule)

    def build():
        g = _complement_probe(n)
        probes = np.column_stack([band.sum(axis=1),
                                  g - band @ (band.conj().T @ (weights * g))])
        probes.setflags(write=False)
        return probes, _column_norms(probes, weights)

    # D S x for both probes x: the first less its part in the band
    probes, sizes = rule.cached(("band probes", l_max), build)
    images = matrix @ probes
    images[:, 0] -= band @ (band.conj().T @ (weights * images[:, 0]))
    if np.any(_column_norms(images, weights) > sizes * floor):
        return None
    product = _band_walk(matrix, band, l_max, weights, floor)  # S A_c
    if product is None:
        return None
    c = product.shape[1]
    cut = band[:, :c]
    m = cut.conj().T @ (product * weights[:, None])
    # D^-1 (N B_c - B_c M)
    if (_column_norms(product - cut @ m, weights).max() > floor
            or not _normal_block(m)):
        return None
    scale = np.sqrt(weights)
    values = np.zeros(n, dtype=complex)
    values[:c], y = _normal_eig(m)
    vectors = np.empty((n, n), dtype=complex, order="F")
    vectors[:, :c] = cut @ y
    (geqrf,) = scipy.linalg.get_lapack_funcs(("geqrf",), (vectors,))
    _null_run(_lapack(geqrf, "geqrf",
                      np.multiply(cut, scale[:, None], order="F"),
                      overwrite_a=1),
              scale, vectors[:, c:])
    return values, vectors, True, floor / scale.min()


def _eigenpairs(matrix: np.ndarray, weights: np.ndarray) -> tuple:
    """All n eigenpairs of the weighted matrix S = S_0 W, unsorted, from an
    eigensolve of its significant subspace, with a |w|-orthonormal null
    basis, and whether the modes with t != 0 came out w-orthonormal.

    On rules with positive weights the solve runs on the similar matrix
    N = D S D^-1 = W^1/2 S_0 W^1/2, D = W^1/2, which is normal for a lossless
    scatterer (I + 2N is unitary), and D^-1 maps its eigenvectors back to
    S's.  With signed weights N would not be normal, and it is S itself
    (D = I).  Every eigenvector with t != 0 lies in range(N), whose rank r
    is bounded by the radiating channel count, well below n = 2 N_q.  One
    column-pivoted QR N P = Q R (_pivoted_qr, LAPACK geqp3) gives r as the
    count of |R_ii| > n eps |R_00| (the numpy.linalg.matrix_rank
    convention).  The r x r matrix M = Q_r^H N Q_r, formed as R_r P^T Q_r
    from only the r columns Q_r of Q, carries the nonzero eigenvalues,
    with eigenvectors Q_r y; the other n - r modes get t = 0.  At full
    rank, as on noisy solver data, this is eig(S) itself.

    Where all weights are positive and N is normal to rounding (_is_normal:
    M is normal to NORMALITY_TOL and N couples range(Q_r)'s complement into
    range(Q_r) by no more than a normal N can), M is solved by _normal_eig,
    and N's eigenvectors are one orthonormal basis: Q_r Y, and for t = 0 the
    rest Q_perp of the Q of the first r reflectors, which spans range(Q_r)'s
    complement, the null space of a normal N.  So the modes come out
    w-orthonormal.

    Elsewhere, on rules with negative weights and on data that is not
    normal, M goes to scipy.linalg.eig, and the t = 0 modes span the null
    space of the truncated N, that of R_r P^T.  In the coordinates
    |W|^1/2 v, where the |w| product is the plain one, it is the complement
    of the range of the n x r matrix (R_r P^T D |W|^-1/2)^H, and the Q of
    that matrix's QR (LAPACK geqrf) spans it by its last n - r columns,
    which |W|^-1/2 maps back.  With positive weights the matrix is N^H Q_r,
    whose range is range(Q_r) only where N is normal.  On both routes those
    columns come from LAPACK unmqr applied to [0; I].  Below
    SIGNIFICANCE_FLOOR an eig eigenvector's component along that null space
    is rounding amplified by 1/|t|: up to 1e-2 at |t| ~ 1e-14.  With
    positive weights it is projected out of every mode with
    0 < |t| <= SIGNIFICANCE_FLOOR, which moves S v - t v by about |t| times
    its size.  With negative weights w is not a norm and the modes are kept
    as they are.
    """
    n = matrix.shape[0]
    matrix = np.asarray_chkfinite(matrix)
    positive = bool(np.all(weights > 0))
    scale = np.sqrt(weights) if positive else np.ones(n)  # D
    qr, perm, tau = _pivoted_qr(matrix, scale)
    diag = np.abs(np.diag(qr))
    cut = n * np.finfo(float).eps * diag[0]
    rank = int(np.count_nonzero(diag > cut))
    if rank == n:
        return *scipy.linalg.eig(matrix, check_finite=False), False
    root = np.sqrt(np.abs(weights))  # |W|^1/2, equal to D where D = W^1/2
    values = np.zeros(n, dtype=complex)
    if rank == 0:
        return values, np.diag(1.0 / root + 0j), True
    geqrf, orgqr = scipy.linalg.get_lapack_funcs(("geqrf", "orgqr"), (qr,))
    rows = np.triu(qr[:rank])[:, np.argsort(perm)]  # R_r P^T = Q_r^H N
    # a copy that orgqr overwrites: without the flag its query copies too
    (q,) = _lapack(orgqr, "orgqr", np.array(qr[:, :rank], order="F"),
                   tau[:rank], overwrite_a=1)
    block = rows @ q  # M
    hermitian = positive and _is_normal(q, block, rows, cut)
    if hermitian:
        values[:rank], y = _normal_eig(block)
        reflectors = qr[:, :rank], tau[:rank]
    else:
        values[:rank], y = scipy.linalg.eig(block, overwrite_a=True,
                                            check_finite=False)
        reflectors = _lapack(geqrf, "geqrf",
                             (rows * (scale / root)).conj().T, overwrite_a=1)
    vectors = np.empty((n, n), dtype=complex, order="F")
    vectors[:, :rank] = q @ y
    vectors[:, :rank] *= (1.0 / scale)[:, None]
    # the last n - r columns of Q, in place: at N_q=302 unmqr takes a third
    # of the time orgqr takes to form all n columns
    _null_run(reflectors, root, vectors[:, rank:])

    # the weak modes' null-space component is rounding (see above)
    weak = np.flatnonzero(np.abs(values[:rank]) <= SIGNIFICANCE_FLOOR)
    if weak.size and positive and not hermitian:
        basis = vectors[:, rank:]
        sub = vectors[:, weak]
        sub -= basis @ (basis.conj().T @ (sub * weights[:, None]))
        vectors[:, weak] = sub
    return values, vectors, hermitian


def decompose(smat: ScatteringMatrix) -> ModeSet:
    """Eigendecomposition of the weighted matrix: all 2 N_q modes, the
    null space carrying t = 0 exactly.

    The eigenpairs come from the rule's spherical-wave band (_band_pairs)
    where it holds the samples and the t = 0 modes' residuals certify it,
    else from the pivoted QR of _eigenpairs.  Each mode with t != 0 is
    scaled to unit radiated power and, unless the route gave them so, each
    multiplet of them made w-orthonormal; the t = 0 run keeps its
    |w|-orthonormal basis.  Every column is phase-fixed.  The residuals are
    the column norms of S V - V diag(t).  Every step runs on the caller's
    thread: the only concurrency is the BLAS's own.
    """
    if not smat.weighted:
        raise ValueError("decompose expects a weighted scattering matrix")
    try:
        modeset = _modes(smat, _band_pairs)
        if modeset is None:
            modeset = _modes(smat, _qr_pairs)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        cond = np.linalg.cond(smat.matrix)
        raise EigensolverFailure(
            f"eigendecomposition failed (condition estimate {cond:.3e})") from exc
    return modeset


def _qr_pairs(matrix: np.ndarray, rule: QuadratureRule) -> tuple:
    """_eigenpairs, with no bound on the t = 0 modes' residuals."""
    return *_eigenpairs(matrix, rule.doubled_weights), math.inf


def _modes(smat: ScatteringMatrix, route) -> ModeSet | None:
    """decompose's modes from the raw eigenpairs of route(matrix, rule),
    or None where the route refuses the samples or a t = 0 mode's residual
    is above the bound the route returns."""
    found = route(smat.matrix, smat.rule)
    if found is None:
        return None
    values, vectors, orthonormal, bound = found
    del found  # the unsorted vectors are freed once sorted
    w = smat.rule.doubled_weights
    nrm = np.abs(w @ np.abs(vectors) ** 2)
    nrm[(nrm == 0) | (values == 0)] = 1.0
    vectors /= np.sqrt(nrm)
    _phase_fix(vectors)

    order = _sort_order(values, vectors)
    values, vectors = values[order], vectors[:, order]
    if not orthonormal:
        _orthonormalize_degenerate(values, vectors, w)

    product = smat.matrix @ vectors
    product -= vectors * values[None, :]
    residuals = np.linalg.norm(product, axis=0)
    if np.max(residuals[values == 0], initial=0.0) > bound:
        return None
    return ModeSet(k=smat.k, eigenvalues=values, eigenvectors=vectors,
                   rule=smat.rule, residuals=residuals)


@dataclass(frozen=True)
class ModalMetrics:
    t: complex
    modal_significance: float
    lambda_n: complex | None  # None marks t = 0 (infinite eigenvalue)
    alpha_n: float
    s_n: complex
    lossless_residual: float
    at_branch_endpoint: bool = False


def characteristic_angle(t: complex):
    """Characteristic angle in [pi/2, 3pi/2].

    For weak modes (|t| <= SIGNIFICANCE_FLOOR) the argument of t is noise,
    so the reformulated arg(1 + 2t)/2 + pi/2 is used instead.  Values landing
    exactly on a branch endpoint are mapped to pi/2 and flagged.
    """
    if abs(t) > SIGNIFICANCE_FLOOR:
        alpha = np.angle(t) % (2.0 * math.pi)
        if alpha < math.pi / 2.0 - 1e-12:
            alpha += 2.0 * math.pi
    else:
        alpha = np.angle(1.0 + 2.0 * t) / 2.0 + math.pi / 2.0
    endpoint = False
    if alpha < math.pi / 2.0 or alpha > 3.0 * math.pi / 2.0:
        alpha = math.pi / 2.0
        endpoint = True
    return float(alpha), endpoint


def metrics(t: complex) -> ModalMetrics:
    t = complex(t)
    s = 2.0 * t + 1.0
    lam = None if t == 0 else 1j * (1.0 + 1.0 / t)
    alpha, endpoint = characteristic_angle(t)
    return ModalMetrics(t=t, modal_significance=abs(t), lambda_n=lam,
                        alpha_n=alpha, s_n=s,
                        lossless_residual=abs(abs(s) - 1.0),
                        at_branch_endpoint=endpoint)


def t_from_lambda(lam: complex) -> complex:
    return -1.0 / (1.0 + 1j * lam)


def lossless_residual(modeset: ModeSet) -> np.ndarray:
    """Per-mode deviation | |2 t_n + 1| - 1 | from the lossless circle."""
    return np.abs(np.abs(2.0 * modeset.eigenvalues + 1.0) - 1.0)


def max_lossless_residual(modeset: ModeSet, top: int = LOSSLESS_TOP) -> float:
    res = lossless_residual(modeset)
    return float(np.max(res[:top])) if len(res) else 0.0


def characteristic_excitation(f_n: np.ndarray, t_n: complex,
                              rule: QuadratureRule, k: float):
    """Incident-field sampler of the characteristic plane-wave spectrum.

    Returns a pure function r -> E(r) (complex 3-vector) evaluating the
    quadrature form of the modal excitation integral.
    """
    if abs(t_n) <= SIGNIFICANCE_FLOOR:
        raise BelowSignificanceThreshold(
            f"|t| = {abs(t_n):.3e} at or below floor {SIGNIFICANCE_FLOOR:.1e}")
    n = rule.n_points
    f_n = np.asarray(f_n, dtype=complex)
    amp = (-1j * k / (4.0 * math.pi * t_n)) * rule.weights
    # Cartesian plane-wave amplitudes, one row per quadrature direction
    amps = amp[:, None] * (f_n[:n, None] * rule.theta_hats
                           + f_n[n:, None] * rule.phi_hats)
    uv = rule.unit_vectors

    def field(r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        phases = np.exp(-1j * k * (uv @ r))
        return phases @ amps

    return field


def farfield_orthogonality(modeset: ModeSet) -> np.ndarray:
    """Gram matrix of the eigenvectors under the rule-weighted inner product."""
    if modeset.rule is None:
        raise ValueError("mode set carries no quadrature rule")
    w = modeset.rule.doubled_weights
    f = modeset.eigenvectors
    return f.conj().T @ (f * w[:, None])
