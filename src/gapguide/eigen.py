"""Band structures, gap detection, and in-gap defect modes on supercells.

The bulk spectrum is sampled over Bloch momenta; maximal uncovered
intervals are reported as gaps.  Defect runs solve the same operators on a
supercell with the strip inserted and collect interior eigenpairs inside
the gap, filtered by transverse localization so that folded bulk bands
(from axial harmonics of the supercell) never masquerade as guided modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IterationError, ValidationError
from .existence import GapInterval, gap_samples
from .media import SampledEpsilon, StripSpec
from .discrete_op import (HarmonicField, _axis_wraps, _factor,
                          _one_blas_thread, harmonic_split, scalar_matrix)

__all__ = [
    "BandTable", "ModeResult", "DefectSpectrum", "band_structure",
    "find_gaps", "interior_eigs", "bloch_modes", "defect_spectrum",
]


@dataclass(frozen=True)
class BandTable:
    """Sorted eigenvalue samples of a periodic operator along a k-path."""

    k_samples: tuple
    eigenvalues: tuple        # one sorted ndarray per k-sample

    def __post_init__(self):
        for vals in self.eigenvalues:
            v = np.asarray(vals)
            if np.any(np.diff(v) < 0) or (len(v) and v[0] < -1e-9):
                raise ValidationError("band samples must be sorted and >= 0")


@dataclass
class ModeResult:
    """One converged eigenpair, the one record every window solve returns.

    `interior_eigs` makes it, with the unit eigenvector of block number
    `block` as `field` and k1 = nan.  `bloch_modes` wraps that vector, in
    the same record, as a `HarmonicField` of the medium (its grid field is
    lifted only when `field.values` is read) and sets k1;
    `defect_spectrum` sets `localization`, the fraction of the field's
    `density()` near the strip.
    """

    lam: float
    field: object
    residual: float
    k1: float
    localization: float | None = None
    block: int = 0


@dataclass(frozen=True)
class DefectSpectrum:
    """Localized in-gap modes collected over a k1 sweep, plus gap coverage.

    Each mode's field is the `HarmonicField` of `bloch_modes`: what is read
    here, and by `decay.profile`, is its `density()`, never its lifted
    `values`.
    """

    modes: tuple
    coverage: tuple           # (mu, covered) pairs for the sampled gap points
    k1_samples: tuple
    delta: float

    @property
    def covered(self) -> bool:
        return all(flag for _, flag in self.coverage)

    @property
    def wall_amplitudes(self) -> tuple:
        """Per mode, its peak amplitude at the x2 walls over its peak, from
        the field's density."""
        return tuple(
            float(np.sqrt(max(np.max(d[:, 0]), np.max(d[:, -1]))
                          / np.max(d)))
            for d in (m.field.density() for m in self.modes))


def _ring_bands(eps: SampledEpsilon, ks, bands: int) -> np.ndarray:
    """The lowest `bands` eigenvalues of the 1D periodic operator at each
    k-sample (k1 of a (k1, k2) pair), one row per sample, from the k = 0
    operator's open chain and its wrap bond (`_ring_eigs`)."""
    n = eps.grid.shape[0]
    if n < 3:
        raise ValidationError("a 1D band structure needs at least 3 cells")
    A0 = scalar_matrix(eps, (0.0,))
    sigma = -A0[0, n - 1].real
    d = A0.diagonal().real.copy()
    d[[0, -1]] -= sigma
    phases = [_axis_wraps(eps.grid, (np.atleast_1d(k)[0],))[0] for k in ks]
    return _ring_eigs(d, A0.diagonal(1).real, sigma, np.array(phases), bands)


@_one_blas_thread
def band_structure(eps: SampledEpsilon, k_path, bands: int) -> BandTable:
    """Lowest `bands` eigenvalues of the periodic bulk at each k-sample.

    1D media take scalar Bloch momenta (a (k1, k2) pair uses k1); 2D media
    take scalars (transverse momentum zero) or (k1, k2) pairs, and other
    media raise ValidationError (`scalar_matrix`).  A 1D medium
    is diagonalized once, as the open chain of its k = 0 operator, and each
    sample's values are bisected on the inertia count of the wrap bond's
    rank-one update (`_ring_eigs`): no LU and no Lanczos.  It needs at
    least 3 cells (ValidationError).  Each 2D sample is one (bitwise
    repeatable) `_nearest_eigs` solve shifted just below the spectrum.
    Either way `bands` above the number of cells gives one value per cell.
    `bands` below 1 and an empty k-path raise ValidationError.
    The whole call runs on one OpenBLAS thread
    (`discrete_op._one_blas_thread`), so the table does not depend on the
    caller's thread count.
    """
    ks = tuple(k_path)
    if bands < 1:
        raise ValidationError(f"bands must be at least 1, not {bands}")
    if not ks:
        raise ValidationError("the k-path holds no sample")
    if eps.grid.ndim == 1:
        eigs = _ring_bands(eps, ks, bands)
    else:
        eigs = []
        for k in ks:
            k1, k2 = np.append(np.asarray(k, float), 0.0)[:2]
            A = scalar_matrix(eps, (k1, k2))
            eigs.append(_nearest_eigs(
                A, -1e-3 * abs(A).sum() / A.shape[0], bands)[0])
    return BandTable(k_samples=ks,
                     eigenvalues=tuple(np.maximum(v, 0.0) for v in eigs))


def find_gaps(bt: BandTable, min_width: float) -> list:
    """Band gaps with alpha > 0: intervals between the sampled maximum of one
    band and the sampled minimum of the next.

    The density of the k-path bounds how sharply the edges are located; a
    gap narrower than the band variation between adjacent k-samples can be
    missed or misplaced.
    """
    arr = np.stack([np.asarray(v, dtype=float) for v in bt.eigenvalues])
    top = arr.max(axis=0)
    bot = arr.min(axis=0)
    gaps = []
    for j in range(arr.shape[1] - 1):
        if top[j] > 0 and bot[j + 1] - top[j] >= min_width:
            gaps.append(GapInterval(float(top[j]), float(bot[j + 1])))
    return gaps


def _negative_count(A, s: float) -> int:
    """Number of eigenvalues of the Hermitian A below s (Sylvester inertia).

    With pivot threshold 0 SuperLU takes every nonzero diagonal pivot, so
    the factor is P (A - s I) P^T = L D L^H and the signs of diag(U) = D are
    the inertia of A - s I.  A row permutation that differs from the column
    one means an off-diagonal pivot was taken; that raises IterationError.
    """
    lu = _factor(A, s, 0.0)
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise IterationError(
            f"LU of A - {s:g} I pivoted off the diagonal: no inertia count")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _window_count(A, window) -> int:
    """Eigenvalues of the Hermitian A inside the open window, by inertia.

    Every eigenvalue lies in the Gershgorin interval
    [min(a_ii - r_i), max(a_ii + r_i)], r_i the off-diagonal absolute row
    sum; when that interval misses the window the count is 0, unfactored.
    """
    d = A.diagonal().real
    r = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(d)
    if np.max(d + r) <= window[0] or np.min(d - r) >= window[1]:
        return 0
    return _negative_count(A, window[1]) - _negative_count(A, window[0])


def _nearest(vals, sigma: float, k: int) -> np.ndarray:
    """Indices of the k values nearest sigma, in ascending index order."""
    return np.sort(np.argsort(np.abs(vals - sigma), kind="stable")[:k])


def _nearest_eigs(A, sigma: float, k: int):
    """The k eigenpairs of the Hermitian A nearest sigma, by ascending
    eigenvalue, as (values, vectors in columns).

    Shift-invert Lanczos (ARPACK, Ericsson & Ruhe 1980) with OPinv from one
    sparse LU of A - sigma I, started from the fixed vector of
    default_rng(0) (complex for complex A), so repeated solves agree
    bitwise.  Minimum-degree ordering of A + A^T with diagonal pivots
    preferred was measured to hold the LU of a whole 16x32x32 curl-curl
    supercell near 2 GiB (no path factors it whole now: it is solved one
    axial harmonic block at a time).  The pivot threshold 1e-2 still
    pivots off the diagonal where a shift on an eigenvalue leaves a tiny
    diagonal pivot: at 1e-3 such shifts gave eigenvector residuals up to
    1e-5 on a degenerate shell, and thresholds of 0.1 and above grew that
    supercell LU's fill 1.7 to 2.1 times.  ARPACK cannot take k >= n - 1;
    then A is diagonalized in full.  An exactly singular LU or an ARPACK
    failure raises IterationError.
    """
    n = A.shape[0]
    if k >= n - 1:
        vals, vecs = dla.eigh(A.toarray() if sp.issparse(A) else A)
        near = _nearest(vals, sigma, k)
        return vals[near], vecs[:, near]
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    if np.issubdtype(A.dtype, np.complexfloating):
        v0 = v0 + 1j * rng.standard_normal(n)
    opinv = spla.LinearOperator((n, n), matvec=_factor(A, sigma, 1e-2).solve,
                                dtype=np.result_type(A.dtype, float))
    try:
        vals, vecs = spla.eigsh(A, k=k, sigma=sigma, which="LM", v0=v0,
                                OPinv=opinv)
    except spla.ArpackError as exc:
        raise IterationError(
            f"Lanczos at shift {sigma:g} failed: {exc}") from exc
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def _tridiagonal_matvec(d, e, x):
    """T x along the last axis of x (one vector, or vectors in rows), T the
    real symmetric tridiagonal matrix with diagonal d and off-diagonal e."""
    out = d * x
    out[..., :-1] += e * x[..., 1:]
    out[..., 1:] += e * x[..., :-1]
    return out


def _tridiagonal_eigs(d, e, window):
    """Every eigenpair of the real symmetric tridiagonal matrix T with
    diagonal d and off-diagonal e strictly inside the open window, by
    ascending eigenvalue, as (values, vectors in columns).

    Sturm-sequence bisection and inverse iteration (LAPACK stebz and stein,
    Barth, Martin & Wilkinson 1967): exact counts, no factorization, no
    Lanczos.  Bisection stops once it has isolated the eigenvalues to
    1e-6 of the window's width, and stein's unit vectors V are refined by
    one Rayleigh-Ritz step over the window (Parlett, The Symmetric
    Eigenvalue Problem, ch. 11): the eigenpairs of V^T T V, rotated back by
    V.  That step makes the coarse bisection safe: eigenvalues closer
    together than the tolerance, which stein takes as one cluster, come out
    to rounding.  (On the layered guide a tolerance of 1e-4 of the width
    left residuals near 1e-11, against 1e-13 at 1e-6; 1e-3 failed the 1e-8
    residual check, at 7.24e-8 in the guide-2d sweep cell l = 2, eps = 9,
    so the tolerance is not to be loosened.)  LAPACK's range is
    (lo, hi]; an eigenvalue at hi is dropped.  A LAPACK failure raises
    IterationError.  When the Gershgorin interval [min(d_i - r_i),
    max(d_i + r_i)], r_i = |e_{i-1}| + |e_i|, misses the window, no pair is
    returned and LAPACK is not called (as `_window_count` does for a
    matrix): 591 of the 788 blocks of one guide-2d benchmark round (seed
    2801), whose artifacts stay byte-identical.
    """
    lo, hi = window
    r = np.zeros(len(d))
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    if np.max(d + r) <= lo or np.min(d - r) >= hi:
        return np.empty(0), np.empty((len(d), 0))
    try:
        vals, vecs = dla.eigh_tridiagonal(d, e, select="v",
                                          select_range=window,
                                          tol=1e-6 * (hi - lo))
    except dla.LinAlgError as exc:
        raise IterationError(f"tridiagonal eigensolve failed: {exc}") from exc
    if len(vals):
        H = vecs.T @ _tridiagonal_matvec(d, e, vecs.T).T
        vals, rot = np.linalg.eigh(0.5 * (H + H.T))
        vecs = vecs @ rot
    inside = (vals > lo) & (vals < hi)
    return vals[inside], vecs[:, inside]


def _ring_eigs(d, e, sigma: float, phases, bands: int) -> np.ndarray:
    """The lowest min(bands, n) eigenvalues of A(z) = T + sigma v v^H for
    each phase z, one ascending row per phase.

    T is the real symmetric tridiagonal matrix with diagonal d and
    off-diagonal e (n >= 3), sigma > 0 the weight of the bond that closes
    the chain into a ring, and v = e_{n-1} - conj(z) e_0: A(e^{ikL}) is the
    1D Bloch operator at momentum k.  T = Q diag(t) Q^T is diagonalized
    once (LAPACK stevd); a LAPACK failure raises IterationError.  With
    |z_j|^2 = q0_j^2 + qn_j^2 - 2 Re(z) q0_j qn_j (q0, qn the first and
    last rows of Q), inertia additivity on the bordered matrix
    [[T - lam, v], [v^H, -1/sigma]] (Haynsworth 1968) counts

        #{eig A(z) < lam} = #{t_j < lam}
                            - [1 + sigma sum_j |z_j|^2 / (t_j - lam) <= 0]

    (the secular function of Golub 1973; Bunch, Nielsen & Sorensen 1978).
    Eigenvalue i of a positive rank-one update lies in [t_i, t_{i+1}], with
    t_n = t_{n-1} + 2 sigma (||v||^2 = 2).  Each is bisected on the count
    to adjacent floats, all phases and bands at once; a zero weight (a
    mirror-symmetric cell at z = +-1) leaves t_j an eigenvalue, which the
    count keeps.  Returns the lower float of each final pair.
    """
    try:
        t, q = dla.eigh_tridiagonal(d, e)
    except dla.LinAlgError as exc:
        raise IterationError(f"tridiagonal eigensolve failed: {exc}") from exc
    bands = min(bands, len(t))
    weights = (q[0] ** 2 + q[-1] ** 2
               - 2.0 * np.real(phases)[:, None] * (q[0] * q[-1]))
    ends = np.append(t, t[-1] + 2.0 * sigma)
    lo = np.tile(ends[:bands], (len(weights), 1))
    hi = np.tile(ends[1:bands + 1], (len(weights), 1))
    rows, cols = (i.ravel() for i in np.indices(lo.shape))
    while rows.size:
        a, b = lo[rows, cols], hi[rows, cols]
        mid = 0.5 * (a + b)
        open_ = (a < mid) & (mid < b)
        rows, cols, mid = rows[open_], cols[open_], mid[open_]
        secular = 1.0 + sigma * np.sum(weights[rows] / (t - mid[:, None]),
                                       axis=1)
        above = np.searchsorted(t, mid) - (secular <= 0.0) > cols
        hi[rows[above], cols[above]] = mid[above]
        lo[rows[~above], cols[~above]] = mid[~above]
    return lo


def _is_pair(block) -> bool:
    """True for a (d, e) pair of a real symmetric tridiagonal matrix, False
    for a square matrix; any other block raises ValidationError."""
    if isinstance(block, tuple) and len(block) == 2:
        d, e = map(np.shape, block)
        if len(d) == 1 and e == (d[0] - 1,):
            return True
    elif len(getattr(block, "shape", ())) == 2 and \
            block.shape[0] == block.shape[1]:
        return False
    raise ValidationError("a block must be a square matrix or a (d, e) pair "
                          "with len(e) == len(d) - 1")


def interior_eigs(blocks, window, count: int) -> list:
    """Every eigenpair of the block-diagonal Hermitian diag(blocks) strictly
    inside the open window, 0 <= lo < hi, or ValidationError.

    `blocks` is a list or tuple, and each block's form picks its solver
    (anything else raises ValidationError):
      * a sparse or dense Hermitian matrix is counted by inertia: 0 when its
        Gershgorin interval misses the window, else the negative pivots of
        the LU of A - hi I minus those of A - lo I (pivot threshold 0,
        symmetric permutation).  Its m_j pairs come from `_nearest_eigs`
        at the window centre and must all lie in the window;
      * a (d, e) pair, the diagonal and off-diagonal of a real symmetric
        tridiagonal matrix, is counted and solved at once by bisection and
        one Rayleigh-Ritz step (`_tridiagonal_eigs`: no LU, no Lanczos).
    The counts come first, and `count` caps their sum m: m > count raises
    ValidationError naming m and count before any Lanczos LU, so a window
    is never returned in part.  Every pair's residual must be at most
    1e-8 * max(|lam|, 1).  IterationError is raised on a singular LU, an
    inertia LU that pivots off the diagonal, Lanczos pairs that disagree
    with the count, an ARPACK or LAPACK failure or a residual above
    tolerance.  Returns a possibly-empty list of ModeResult by ascending
    eigenvalue, each holding its unit block vector and its block's index.

    A bare call keeps the caller's BLAS threads, which pay off on a large
    LU: a shell of the full 16^3 cube operator took 16.0-17.3 s wall
    (31.5-33.9 s CPU) at two threads, 17.5-22.1 s at one; on the 12^3 cube
    4.1-4.7 s at two against 4.3-4.9 s at one.  Repeated solves agree
    bitwise on the same thread count.
    """
    if not isinstance(blocks, (list, tuple)):
        raise ValidationError(f"blocks must be a list or tuple, not "
                              f"{type(blocks).__name__}")
    if window[0] < 0 or window[1] <= window[0]:
        raise ValidationError("window must satisfy 0 <= lo < hi")
    bisected = [_tridiagonal_eigs(*b, window) if _is_pair(b) else None
                for b in blocks]
    counts = [_window_count(b, window) if s is None else len(s[0])
              for b, s in zip(blocks, bisected)]
    for mj in counts:
        if mj < 0:
            raise IterationError(f"inertia counts give {mj} eigenvalues in "
                                 f"the window {window}")
    m = sum(counts)
    if m > count:
        raise ValidationError(f"window {window} holds {m} eigenvalues, "
                              f"more than count = {count}")
    centre = 0.5 * (window[0] + window[1])
    found = []
    for j, (b, s, mj) in enumerate(zip(blocks, bisected, counts)):
        if mj == 0:
            continue
        vals, vecs = _nearest_eigs(b, centre, mj) if s is None else s
        inside = np.count_nonzero((vals > window[0]) & (vals < window[1]))
        if inside != mj:
            raise IterationError(f"Lanczos found {inside} eigenvalues in the "
                                 f"window, inertia asked for {mj}")
        for lam, v in zip(vals, vecs.T):
            v = v / np.linalg.norm(v)
            bv = b @ v if s is None else _tridiagonal_matvec(*b, v)
            res = float(np.linalg.norm(bv - lam * v))
            if res > 1e-8 * max(abs(lam), 1.0):
                raise IterationError(
                    f"eigenpair residual {res:.2e} above tolerance",
                    residual=res)
            found.append(ModeResult(lam=float(lam), field=v, residual=res,
                                    k1=np.nan, block=j))
    found.sort(key=lambda f: f.lam)
    return found


@_one_blas_thread
def bloch_modes(eps: SampledEpsilon, k1_samples, window,
                count: int) -> list:
    """Every in-window eigenpair of the operator of `eps` (the scalar
    operator with Dirichlet walls in 1D and 2D, the Maxwell double curl
    with PEC walls in 3D) at each Bloch momentum k1, in k1 order and by
    ascending eigenvalue: ModeResults with k1 set and, as field, the
    `HarmonicField` of the block vector.

    The medium is split once (`harmonic_split`): a medium whose samples are
    equal along x1 into the n1 harmonic blocks of its one-cell axial slab
    ((d, e) pairs for a 2D slab, solved by bisection), any other into one
    block, its operator at k1.  At each k1 `interior_eigs` solves the
    blocks, so the count cap is taken over all of them: m > count raises
    its ValidationError.  Each mode keeps its block vector with the split
    and its block's kappa, in the record interior_eigs made: nothing is
    lifted here.  Its `field.values` lifts it to the grid on each read
    (`HarmonicSplit.lift`; for the one block of an unsplit medium, the
    operator's eigenvector times e^{i k1 x1_0}), and its `field.density()`
    is |values|^2 without the lift.  So the modes of a medium constant
    along x1 hold 1/n1 of the bytes of their grid fields (criterion 10b's
    104 modes 4.9 MiB, not 78.0 MiB).

    Every medium is solved on one OpenBLAS thread (`_one_blas_thread`), so
    its modes are bitwise the same whatever the caller's thread count.
    """
    split = harmonic_split(eps)
    modes = []
    for k1 in map(float, k1_samples):
        kappas = split.kappas(k1)
        found = interior_eigs([split.block(kappa) for kappa in kappas],
                              window, count)
        for f in found:
            f.field = HarmonicField(split, float(kappas[f.block]), f.field)
            f.k1 = k1
        modes.extend(found)
    return modes


def _near_strip(grid, strip: StripSpec) -> np.ndarray:
    """The grid cells within one period of the scaled section."""
    mesh = grid.meshgrid()
    tpts = np.stack([mesh[a] for a in range(1, grid.ndim)], axis=-1)
    return strip.distance(tpts) <= 1.0


def _fraction_near(dens: np.ndarray, near: np.ndarray) -> float:
    """The share of the density `dens` on the cells `near`."""
    return float(np.sum(dens[near]) / np.sum(dens))


def defect_spectrum(eps_defect: SampledEpsilon, strip: StripSpec,
                    gap: GapInterval, k1_samples, delta: float,
                    count: int) -> DefectSpectrum:
    """Localized eigenvalues inside the gap over the k1 sweep `k1_samples`,
    with coverage.  The sweep has no default: the medium carries no lattice
    period to place one.

    For each sampled mu point of the gap, reports whether some localized
    eigenvalue (half or more of its squared norm within one period of the
    scaled section) lies within delta.  Folded bulk bands are rejected by
    this filter; run the same function on the bulk medium (same strip
    argument for the distance geometry) as a negative control.

    The eigenpairs at each k1 are every in-window pair of `bloch_modes` on
    the Dirichlet scalar operator (its harmonic blocks: tridiagonal
    bisections for a medium constant along x1, else the one full operator
    at k1), the window being the gap less a pad of 1e-3 of its width at
    each end; a window holding more than `count` eigenvalues at some k1
    raises ValidationError naming the number.  This function only filters
    the pairs by localization, read from each field's `density()`: the
    kept modes hold their block vectors (8 n2 bytes each on a 2D guide
    constant along x1), and no grid field is lifted.  `delta` must be
    positive, and an empty k1 sweep raises ValidationError.
    """
    if not delta > 0:
        raise ValidationError(f"coverage delta must be positive, not {delta!r}")
    if len(k1_samples) == 0:
        raise ValidationError("the k1 sweep holds no sample")
    pad = 1e-3 * gap.width
    window = (gap.alpha + pad, gap.beta - pad)
    near = _near_strip(eps_defect.grid, strip)
    modes = []
    for m in bloch_modes(eps_defect, k1_samples, window, count):
        m.localization = _fraction_near(m.field.density(), near)
        if m.localization >= 0.5:
            modes.append(m)
    modes.sort(key=lambda m: m.lam)
    mus = gap_samples(gap)
    lams = np.array([m.lam for m in modes]) if modes else np.empty(0)
    coverage = tuple((float(mu),
                      bool(lams.size and np.min(np.abs(lams - mu)) < delta))
                     for mu in mus)
    return DefectSpectrum(modes=tuple(modes), coverage=coverage,
                          k1_samples=tuple(float(k) for k in k1_samples),
                          delta=delta)
