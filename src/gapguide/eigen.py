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
from .discrete_op import (ScalarField2, _axis_wraps, _factor,
                          _one_blas_thread, harmonic_split, maxwell_operator,
                          scalar_matrix)

__all__ = [
    "BandTable", "ModeResult", "DefectSpectrum", "band_structure",
    "find_gaps", "interior_eigs", "bloch_modes", "defect_spectrum",
    "localization_fraction",
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

    def rows(self):
        """(k, band_index, eigenvalue) triples for tabular output."""
        for k, vals in zip(self.k_samples, self.eigenvalues):
            for j, lam in enumerate(vals):
                yield k, j, float(lam)


@dataclass(frozen=True)
class ModeResult:
    """One converged eigenpair."""

    lam: float
    field: object
    residual: float
    k1: float
    localization: float | None = None


@dataclass(frozen=True)
class DefectSpectrum:
    """Localized in-gap modes collected over a k1 sweep, plus gap coverage."""

    modes: tuple
    coverage: tuple           # (mu, covered) pairs for the sampled gap points
    k1_samples: tuple
    delta: float

    @property
    def covered(self) -> bool:
        return all(flag for _, flag in self.coverage)

    @property
    def wall_amplitudes(self) -> tuple:
        """Per mode, its peak amplitude at the x2 walls over its peak."""
        return tuple(
            float(max(np.max(np.abs(m.field.values[:, 0])),
                      np.max(np.abs(m.field.values[:, -1])))
                  / np.max(np.abs(m.field.values)))
            for m in self.modes)


def _bulk_matrix(eps: SampledEpsilon, k) -> sp.csr_matrix:
    kk = np.atleast_1d(np.asarray(k, dtype=float))
    return scalar_matrix(eps, bloch_k1=kk[0], transverse_bc="periodic",
                         bloch_k2=kk[1] if kk.size > 1 else 0.0)


def _ring_bands(eps: SampledEpsilon, ks, bands: int) -> np.ndarray:
    """The lowest `bands` eigenvalues of the 1D periodic operator at each
    k-sample (k1 of a (k1, k2) pair), one row per sample, from the k = 0
    operator's open chain and its wrap bond (`_ring_eigs`)."""
    n = eps.grid.shape[0]
    if n < 3:
        raise ValidationError("a 1D band structure needs at least 3 cells")
    A0 = scalar_matrix(eps, 0.0, "periodic")
    sigma = -A0[0, n - 1].real
    d = A0.diagonal().real.copy()
    d[[0, -1]] -= sigma
    phases = [_axis_wraps(eps.grid, np.atleast_1d(k)[0], "periodic")[0]
              for k in ks]
    return _ring_eigs(d, A0.diagonal(1).real, sigma, np.array(phases), bands)


@_one_blas_thread
def band_structure(eps: SampledEpsilon, k_path, bands: int = 8) -> BandTable:
    """Lowest `bands` eigenvalues of the periodic bulk at each k-sample.

    1D media take scalar Bloch momenta (a (k1, k2) pair uses k1); 2D media
    take scalars (transverse momentum zero) or (k1, k2) pairs.  A 1D medium
    is diagonalized once, as the open chain of its k = 0 operator, and each
    sample's values are bisected on the inertia count of the wrap bond's
    rank-one update (`_ring_eigs`): no LU and no Lanczos.  It needs at
    least 3 cells (ValidationError).  Each 2D sample is one (bitwise
    repeatable) `_nearest_eigs` solve shifted just below the spectrum.
    Either way `bands` above the number of cells gives one value per cell.
    The whole call runs on one OpenBLAS thread
    (`discrete_op._one_blas_thread`), so the table does not depend on the
    caller's thread count.
    """
    ks = tuple(k_path)
    if eps.grid.ndim == 1:
        eigs = _ring_bands(eps, ks, bands)
    else:
        eigs = []
        for k in ks:
            A = _bulk_matrix(eps, k)
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
    preferred keeps the LU of the 16x32x32 curl-curl supercell near 2 GiB.
    The pivot threshold 1e-2 still pivots off the diagonal where a shift on
    an eigenvalue leaves a tiny diagonal pivot: at 1e-3 such shifts gave
    eigenvector residuals up to 1e-5 on a degenerate shell, and thresholds
    of 0.1 and above grow that LU's fill 1.7 to 2.1 times.  ARPACK cannot
    take k >= n - 1; then A is diagonalized in full.  An exactly singular
    LU or an ARPACK failure raises IterationError.
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


def _tridiagonal_eigs(d, e, window):
    """Every eigenpair of the real symmetric tridiagonal matrix with
    diagonal d and off-diagonal e strictly inside the open window, by
    ascending eigenvalue, as (values, vectors in columns).

    Sturm-sequence bisection and inverse iteration (LAPACK stebz and stein,
    Barth, Martin & Wilkinson 1967): exact counts, no factorization, no
    Lanczos.  LAPACK's range is (lo, hi]; an eigenvalue returned at hi is
    dropped.  A LAPACK failure raises IterationError.
    """
    try:
        vals, vecs = dla.eigh_tridiagonal(d, e, select="v",
                                          select_range=window)
    except dla.LinAlgError as exc:
        raise IterationError(f"tridiagonal eigensolve failed: {exc}") from exc
    inside = (vals > window[0]) & (vals < window[1])
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


def _sparse_kernel(A, window):
    """A Hermitian matrix's window count m by inertia (`_window_count`), a
    solve for its m pairs nearest the window centre by Lanczos
    (`_nearest_eigs`), and its matvec."""
    m = _window_count(A, window)
    centre = 0.5 * (window[0] + window[1])
    return m, lambda: _nearest_eigs(A, centre, m), lambda v: A @ v


def _tridiagonal_kernel(block, window):
    """The window count, the in-window pairs and the matvec of a
    (diagonal, off-diagonal) block, all from one `_tridiagonal_eigs`
    solve."""
    d, e = block
    vals, vecs = _tridiagonal_eigs(d, e, window)

    def matvec(v):
        out = d * v
        out[:-1] += e * v[1:]
        out[1:] += e * v[:-1]
        return out
    return len(vals), lambda: (vals, vecs), matvec


def _window_pairs(blocks, window, count: int, kernel=_sparse_kernel) -> list:
    """Every eigenpair of the block-diagonal Hermitian diag(blocks) strictly
    inside the open window, as (eigenvalue, block index, unit block vector,
    residual) by ascending eigenvalue.

    The window must satisfy 0 <= lo < hi.  `kernel(block, window)` gives a
    block's count m_j, a solve for its m_j in-window pairs and its matvec.
    Sparse or dense matrices (`_sparse_kernel`) are counted by inertia and
    solved by shift-invert Lanczos at the window centre; the real
    tridiagonal blocks of a 2D harmonic split (`_tridiagonal_kernel`) are
    counted and solved at once by bisection.  m is the sum over blocks;
    `count` caps it: m > count raises ValidationError naming m and count
    after the counts, before any Lanczos factorization.  Otherwise each
    block holding m_j > 0 is solved, and its m_j pairs must all lie in the
    window and have residual at most 1e-8 * max(|lam|, 1).
    """
    if window[0] < 0 or window[1] <= window[0]:
        raise ValidationError("window must satisfy 0 <= lo < hi")
    kernels = [kernel(b, window) for b in blocks]
    for mj, _, _ in kernels:
        if mj < 0:
            raise IterationError(f"inertia counts give {mj} eigenvalues in "
                                 f"the window {window}")
    m = sum(mj for mj, _, _ in kernels)
    if m > count:
        raise ValidationError(f"window {window} holds {m} eigenvalues, "
                              f"more than count = {count}")
    pairs = []
    for j, (mj, solve, matvec) in enumerate(kernels):
        if mj == 0:
            continue
        vals, vecs = solve()
        inside = np.count_nonzero((vals > window[0]) & (vals < window[1]))
        if inside != mj:
            raise IterationError(f"Lanczos found {inside} eigenvalues in the "
                                 f"window, inertia asked for {mj}")
        for lam, v in zip(vals, vecs.T):
            v = v / np.linalg.norm(v)
            res = float(np.linalg.norm(matvec(v) - lam * v))
            if res > 1e-8 * max(abs(lam), 1.0):
                raise IterationError(
                    f"eigenpair residual {res:.2e} above tolerance",
                    residual=res)
            pairs.append((float(lam), j, v, res))
    return sorted(pairs, key=lambda p: p[0])


def interior_eigs(op, window, count: int = 10):
    """Every eigenpair of a Hermitian matrix with eigenvalue inside the
    window, or ValidationError.

    `op` is a sparse or dense matrix; operators of a medium are solved by
    `bloch_modes`, which splits x1-invariant media first.  The window is
    first counted: m is 0 when op's Gershgorin interval misses it, else the
    number of negative pivots of the LU of op - hi I minus that of
    op - lo I (Sylvester inertia; pivot threshold 0, symmetric
    permutation).  m = 0 returns [] without any further factorization or
    Lanczos run.  `count` is a cap: m > count raises ValidationError naming
    m and count, before the Lanczos LU, so a window is never returned in
    part.  Otherwise `_nearest_eigs` at the window centre is asked for
    exactly m pairs, all of which must lie in the window.  Repeated solves
    agree bitwise on the same BLAS thread count.  Every solve of a medium
    or a cross-section runs on one OpenBLAS thread; this keeps the caller's
    threads, which pay off on a large LU: a shell of criterion 10a's 16^3
    cube took 16.0-17.3 s wall (31.5-33.9 s CPU) at two threads, 17.5-22.1 s
    at one.  IterationError is raised when an end or centre LU is exactly
    singular, when an end LU pivots off the diagonal (no inertia count),
    when Lanczos returns other than m in-window pairs, on an ARPACK failure,
    and for an eigenpair residual above 1e-8 * max(|lam|, 1).
    Returns a possibly-empty list of ModeResult sorted by eigenvalue.
    """
    return [ModeResult(lam=lam, field=v, residual=res, k1=np.nan)
            for lam, _, v, res in _window_pairs([op], window, count)]


@_one_blas_thread
def bloch_modes(eps: SampledEpsilon, k1_samples, window,
                count: int) -> list:
    """Every in-window eigenpair of the operator of `eps` with Dirichlet
    (1D, 2D: scalar_matrix) or PEC (3D: maxwell_operator) walls at each
    Bloch momentum k1, as ModeResults with k1 set and the flattened grid
    field, in k1 order and by ascending eigenvalue.

    A medium whose samples are equal along x1 is split once
    (`harmonic_split`) and each k1's n1 harmonic blocks are solved
    together; any other medium's full operator is the single block.  At
    each k1 the window count m is taken over all blocks together and
    `count` caps it as in interior_eigs: m > count raises ValidationError
    naming m and count, after the counts and before any Lanczos LU.  Each
    block vector is lifted to the grid (`HarmonicSplit.lift`).  The blocks
    of a 2D split are real symmetric tridiagonal matrices, counted and
    solved as arrays by bisection (`_tridiagonal_eigs`: no LU, no
    Lanczos); 3D blocks and full operators take the inertia count and
    shift-invert Lanczos of interior_eigs.

    Every medium is solved on one OpenBLAS thread (`_one_blas_thread`), so
    its modes are bitwise the same whatever the caller's thread count; only
    interior_eigs on a bare matrix keeps the caller's, where a second
    thread pays off (a shell of criterion 10a's 16^3 cube: 16.0-17.3 s
    wall at two threads, 17.5-22.1 s at one).
    """
    split = harmonic_split(eps)
    operator = maxwell_operator if eps.grid.ndim == 3 else scalar_matrix
    tridiagonal = split is not None and eps.grid.ndim == 2
    kernel = _tridiagonal_kernel if tridiagonal else _sparse_kernel
    modes = []
    for k1 in map(float, k1_samples):
        if split is None:
            kappas, blocks = [k1], [operator(eps, k1)]
        else:
            kappas = split.kappas(k1)
            blocks = [split.tridiagonal(kappa) if tridiagonal
                      else split.block(kappa) for kappa in kappas]
        for lam, j, v, res in _window_pairs(blocks, window, count, kernel):
            fld = v if split is None else split.lift(kappas[j], v)
            modes.append(ModeResult(lam=lam, field=fld, residual=res, k1=k1))
    return modes


def _near_strip(grid, strip: StripSpec) -> np.ndarray:
    """The grid cells within one period of the scaled section."""
    mesh = grid.meshgrid()
    tpts = np.stack([mesh[a] for a in range(1, grid.ndim)], axis=-1)
    return strip.distance(tpts) <= 1.0


def _fraction_near(values: np.ndarray, near: np.ndarray) -> float:
    dens = np.abs(values) ** 2
    return float(np.sum(dens[near]) / np.sum(dens))


def localization_fraction(values: np.ndarray, eps_grid,
                          strip: StripSpec) -> float:
    """Fraction of the squared norm within one period of the scaled section."""
    return _fraction_near(values, _near_strip(eps_grid, strip))


def defect_spectrum(eps_defect: SampledEpsilon, strip: StripSpec,
                    gap: GapInterval, k1_samples=None, delta: float = 0.15,
                    count: int = 30) -> DefectSpectrum:
    """Localized eigenvalues inside the gap over a k1 sweep, with coverage.

    For each sampled mu point of the gap, reports whether some localized
    eigenvalue (half or more of its squared norm within one period of the
    scaled section) lies within delta.  Folded bulk bands are rejected by
    this filter; run the same function on the bulk medium (same strip
    argument for the distance geometry) as a negative control.

    The eigenpairs at each k1 are every in-window pair of `bloch_modes` on
    the Dirichlet scalar operator, the window being the gap less a pad of
    1e-3 of its width at each end; a window holding more than `count`
    eigenvalues at some k1 raises ValidationError naming the number.  This
    function only filters the pairs by localization.
    """
    if k1_samples is None:
        a = eps_defect.bloch_period or 1.0
        k1_samples = np.linspace(0.0, np.pi / a, 8)
    pad = 1e-3 * gap.width
    window = (gap.alpha + pad, gap.beta - pad)
    grid = eps_defect.grid
    near = _near_strip(grid, strip)
    modes = []
    for m in bloch_modes(eps_defect, k1_samples, window, count):
        vals2 = m.field.reshape(grid.shape)
        frac = _fraction_near(vals2, near)
        if frac >= 0.5:
            fld = ScalarField2(vals2, grid, bloch_k1=m.k1)
            modes.append(ModeResult(lam=m.lam, field=fld, residual=m.residual,
                                    k1=m.k1, localization=frac))
    modes.sort(key=lambda m: m.lam)
    mus = gap_samples(gap)
    lams = np.array([m.lam for m in modes]) if modes else np.empty(0)
    coverage = tuple((float(mu),
                      bool(lams.size and np.min(np.abs(lams - mu)) < delta))
                     for mu in mus)
    return DefectSpectrum(modes=tuple(modes), coverage=coverage,
                          k1_samples=tuple(float(k) for k in k1_samples),
                          delta=delta)
