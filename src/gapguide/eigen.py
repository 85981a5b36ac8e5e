"""Band structures, gap detection, and in-gap defect modes on supercells.

The bulk spectrum is sampled over Bloch momenta; maximal uncovered
intervals are reported as gaps.  Defect runs solve the same operators on a
supercell with the strip inserted and collect interior eigenpairs inside
the gap, filtered by transverse localization so that folded bulk bands
(from axial harmonics of the supercell) never masquerade as guided modes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IterationError, ValidationError
from .existence import GapInterval, gap_samples
from .media import SampledEpsilon, StripSpec
from .discrete_op import (ScalarField2, _factor, _one_blas_thread,
                          harmonic_split, maxwell_operator, scalar_matrix)

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
    wall_amplitudes: tuple = ()   # per-mode peak amplitude at the walls / peak

    @property
    def covered(self) -> bool:
        return all(flag for _, flag in self.coverage)


def _bulk_matrix(eps: SampledEpsilon, k) -> sp.csr_matrix:
    kk = np.atleast_1d(np.asarray(k, dtype=float))
    return scalar_matrix(eps, bloch_k1=kk[0], transverse_bc="periodic",
                         bloch_k2=kk[1] if kk.size > 1 else 0.0)


@_one_blas_thread
def band_structure(eps: SampledEpsilon, k_path, bands: int = 8) -> BandTable:
    """Lowest `bands` eigenvalues of the periodic bulk at each k-sample.

    1D media take scalar Bloch momenta; 2D media take scalars (transverse
    momentum zero) or (k1, k2) pairs.  Each sample is one (bitwise
    repeatable) `_nearest_eigs` solve shifted just below the spectrum.  The
    whole call runs on one OpenBLAS thread (`discrete_op._one_blas_thread`),
    so the table does not depend on the caller's thread count.
    """
    ks = tuple(k_path)
    eigs = []
    for k in ks:
        A = _bulk_matrix(eps, k)
        vals, _ = _nearest_eigs(A, -1e-3 * abs(A).sum() / A.shape[0], bands)
        eigs.append(np.maximum(vals, 0.0))
    return BandTable(k_samples=ks, eigenvalues=tuple(eigs))


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
    agree bitwise on the same BLAS thread count; unlike `bloch_modes`, this
    runs on the caller's threads, which pay off on the large LUs of a full
    3D operator.  IterationError is raised when an end or centre LU is
    exactly singular, when an end LU pivots off the diagonal (no inertia
    count), when Lanczos returns other than m in-window pairs, on an ARPACK
    failure, and for an eigenpair residual above 1e-8 * max(|lam|, 1).
    Returns a possibly-empty list of ModeResult sorted by eigenvalue.
    """
    return [ModeResult(lam=lam, field=v, residual=res, k1=np.nan)
            for lam, _, v, res in _window_pairs([op], window, count)]


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

    1D and 2D media and split 3D media are solved on one OpenBLAS thread
    (`discrete_op._one_blas_thread`), so their modes do not depend on the
    caller's thread count.  The full operator of a 3D medium that varies
    along x1 is solved on the caller's threads, as by interior_eigs: its
    LUs are large enough for a second thread to pay off.
    """
    split = harmonic_split(eps)
    operator = maxwell_operator if eps.grid.ndim == 3 else scalar_matrix
    full_3d = split is None and eps.grid.ndim == 3
    tridiagonal = split is not None and eps.grid.ndim == 2
    kernel = _tridiagonal_kernel if tridiagonal else _sparse_kernel
    modes = []
    with contextlib.nullcontext() if full_3d else _one_blas_thread:
        for k1 in map(float, k1_samples):
            if split is None:
                kappas, blocks = [k1], [operator(eps, k1)]
            else:
                kappas = split.kappas(k1)
                blocks = [split.tridiagonal(kappa) if tridiagonal
                          else split.block(kappa) for kappa in kappas]
            for lam, j, v, res in _window_pairs(blocks, window, count,
                                                kernel):
                fld = v if split is None else split.lift(kappas[j], v)
                modes.append(ModeResult(lam=lam, field=fld, residual=res,
                                        k1=k1))
    return modes


def localization_fraction(values: np.ndarray, eps_grid,
                          strip: StripSpec) -> float:
    """Fraction of the squared norm within one period of the scaled section."""
    grid = eps_grid
    mesh = grid.meshgrid()
    tpts = np.stack([mesh[a] for a in range(1, grid.ndim)], axis=-1)
    near = strip.distance(tpts) <= 1.0
    dens = np.abs(values) ** 2
    return float(np.sum(dens[near]) / np.sum(dens))


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
    modes = []
    for m in bloch_modes(eps_defect, k1_samples, window, count):
        vals2 = m.field.reshape(grid.shape)
        frac = localization_fraction(vals2, grid, strip)
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
    # quality of the conducting-wall truncation: mode amplitude at the walls
    walls = tuple(
        float(max(np.max(np.abs(m.field.values[:, 0])),
                  np.max(np.abs(m.field.values[:, -1])))
              / np.max(np.abs(m.field.values)))
        for m in modes)
    return DefectSpectrum(modes=tuple(modes), coverage=coverage,
                          k1_samples=tuple(float(k) for k in k1_samples),
                          delta=delta, wall_amplitudes=walls)
