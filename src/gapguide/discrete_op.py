"""Discrete operators on staggered grids, assembled as sparse D^H W D.

Two operators drive everything downstream:

* the 3D Maxwell double curl  M u = curl (1/eps) curl u  on an
  edge-staggered (Yee) grid;
* the scalar analog  A u = -div (1/eps) grad u  in flux form on nodes, in
  2D (the guide cross-section) and in 1D (the layered bulk).

Both take one closure, `momenta`, one entry per axis: a Bloch momentum k,
whose wraparound carries the phase e^{i k L} (L the axis's extent), or
None, a wall of zero ghosts (perfect conductor in 3D, Dirichlet below).

Both come from one assembly: a 1D forward difference per axis, closed by a
Bloch phase or a zero ghost, is lifted to the grid as I (x) D (x) I (one
sparse matrix per axis, built from broadcast index arrays) and combined
into a gradient or a curl D (both public, so C G = 0 can be stated as a
matrix identity); the operator is the sparse matrix D^H W D with W the
face-averaged 1/eps.  Hermitian symmetry, nonnegativity and
curl(grad) = 0 therefore hold to rounding rather than to discretization
order.

The operator of a medium whose samples are equal along x1 (every layered
guide and every straight strip) splits into n1 independent axial Bloch
harmonics: `harmonic_split` gives each as the same assembly on the
one-cell axial slab at the harmonic's Bloch momentum.  Any other medium is
its own slab, with one harmonic.  A field that is one harmonic is held as
its block vector (`HarmonicField`) and lifted to the grid only when read.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IterationError, ValidationError
from .grids import GridSpec
from .media import SampledEpsilon


def _axis_wraps(grid: GridSpec, momenta) -> list:
    """How each axis closes, from its entry of `momenta` (one per axis, else
    ValidationError): the Bloch phase e^{i k L} for a momentum k, L the
    axis's extent, and for None the name of the zero-ghost wall ("pec" in
    3D, "dirichlet" below)."""
    if len(momenta) != grid.ndim:
        raise ValidationError(f"momenta needs one entry per axis of the "
                              f"{grid.ndim}D grid, got {len(momenta)}")
    walls = "pec" if grid.ndim == 3 else "dirichlet"
    spans = [hi - lo for lo, hi in map(grid.extent, range(grid.ndim))]
    return [walls if k is None else np.exp(1j * k * span)
            for k, span in zip(momenta, spans)]


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _difference(n: int, h: float, wrap) -> tuple:
    """(u[i+1] - u[i]) / h on n nodes, closed by `wrap`, as its row count
    and the rows, columns and values of its stencil entries, none of them
    zero and in no particular order.

    A Bloch phase sets u[n] = phase * u[0]; on one node the wrap shares the
    diagonal, phase - 1, and at phase 1 nothing is stored, so the
    difference is the real zero matrix.  "pec" sets the ghost u[n] to zero.
    "dirichlet" sets zero ghosts on both walls, u[-1] = u[n] = 0, which
    adds the face below node 0 as the first row.  Values are scaled by 1/h.
    """
    i = np.arange(n)
    rows, cols = np.append(i, i[:-1]), np.append(i, i[1:])
    vals = np.append(np.full(n, -1.0), np.ones(n - 1))
    if wrap == "dirichlet":
        rows, cols = np.append(0, rows + 1), np.append(0, cols)
        vals = np.append(1.0, vals)
    elif not isinstance(wrap, str) and n > 1:
        rows, cols = np.append(rows, n - 1), np.append(cols, 0)
        vals = np.append(vals, wrap)
    elif not isinstance(wrap, str):
        vals = vals + wrap if wrap != 1 else vals[:0]
        rows, cols = rows[:len(vals)], cols[:len(vals)]
    return n + (wrap == "dirichlet"), rows, cols, vals * (1 / h)


def differences(grid: GridSpec, wraps) -> list:
    """Each axis's difference D on the C-ordered grid, I (x) D (x) I with
    identities on the axes before and after it, assembled at once from
    broadcast index arrays (`csr_matrix` sorts each row's columns)."""
    out = []
    for a, wrap in enumerate(wraps):
        n = grid.shape[a]
        m, rows, cols, vals = _difference(n, grid.spacing[a], wrap)
        outer = int(np.prod(grid.shape[:a]))
        inner = int(np.prod(grid.shape[a + 1:]))
        b, c = np.arange(outer)[:, None, None], np.arange(inner)
        out.append(sp.csr_matrix(
            (np.broadcast_to(vals[:, None], (outer, len(vals), inner)).ravel(),
             (((b * m + rows[:, None]) * inner + c).ravel(),
              ((b * n + cols[:, None]) * inner + c).ravel())),
            shape=(outer * m * inner, outer * n * inner)))
    return out


def gradient(grid: GridSpec, wraps) -> sp.csr_matrix:
    """Nodes -> faces of every axis, stacked axis by axis."""
    return sp.vstack(differences(grid, wraps), format="csr")


def curl(grid: GridSpec, wraps) -> sp.csr_matrix:
    """Edge components -> face components (i, j, k cyclic:
    f_i = d_j u_k - d_k u_j)."""
    d0, d1, d2 = differences(grid, wraps)
    return sp.bmat([[None, -d2, d1], [d2, None, -d0], [-d1, d0, None]],
                   format="csr")


def _face_weights(eps: SampledEpsilon, wraps) -> np.ndarray:
    """1/eps averaged onto the faces of each axis, flattened and stacked
    like the rows of the gradient (or of the curl, face i normal to axis i).

    The Bloch wrap averages across the period (the medium is periodic,
    no phase); a face against a zero ghost takes the 1/eps of its one cell.
    """
    inv = 1.0 / eps.values
    out = []
    for a, wrap in enumerate(wraps):
        nb = np.roll(inv, -1, axis=a)
        if isinstance(wrap, str):
            last = tuple(slice(-1, None) if b == a else slice(None)
                         for b in range(inv.ndim))
            nb[last] = inv[last]
        w = 0.5 * (inv + nb)
        if wrap == "dirichlet":
            w = np.concatenate([np.take(inv, [0], axis=a), w], axis=a)
        out.append(w.ravel())
    return np.concatenate(out)


def _operator(eps: SampledEpsilon, wraps, d) -> sp.csr_matrix:
    """D^H W D for the gradient or the curl D built with the same wraps."""
    return (d.conj().T @ sp.diags(_face_weights(eps, wraps)) @ d).tocsr()


# ---------------------------------------------------------------------------
# 3D Maxwell double curl
# ---------------------------------------------------------------------------

def maxwell_operator(eps: SampledEpsilon, momenta) -> sp.csr_matrix:
    """Sparse M u = curl (1/eps) curl u on flattened 3-component complex
    edge vectors, component-major (Hermitian, nonnegative by construction),
    each axis closed by its entry of `momenta`: a Bloch momentum, or None
    for a perfect-conductor wall.

    Component c lives on edges parallel to axis c: offset by half a cell
    along c, on nodes along the other axes.  A grid that is not 3D raises
    ValidationError.
    """
    if eps.grid.ndim != 3:
        raise ValidationError(f"the Maxwell operator takes a 3D grid, "
                              f"not {eps.grid.ndim}D")
    wraps = _axis_wraps(eps.grid, momenta)
    return _operator(eps, wraps, curl(eps.grid, wraps))


# ---------------------------------------------------------------------------
# scalar flux-form operator
# ---------------------------------------------------------------------------

def scalar_matrix(eps: SampledEpsilon, momenta) -> sp.csr_matrix:
    """Sparse -div (1/eps) grad on a 1D or 2D grid (else ValidationError),
    each axis closed by its entry of `momenta`: a Bloch momentum, or None
    for a Dirichlet wall."""
    if eps.grid.ndim not in (1, 2):
        raise ValidationError(f"the scalar operator takes a 1D or 2D grid, "
                              f"not {eps.grid.ndim}D")
    wraps = _axis_wraps(eps.grid, momenta)
    return _operator(eps, wraps, gradient(eps.grid, wraps))


# ---------------------------------------------------------------------------
# axial Bloch harmonics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicSplit:
    """The operator of a medium (scalar_matrix with Dirichlet walls in 1D
    and 2D, maxwell_operator with PEC walls in 3D), one axial Bloch
    harmonic at a time.

    `slab` holds the medium's first p axial cells, and the medium repeats
    them along x1 (p divides n1).  The operator commutes with shifts by p
    cells, so at Bloch momentum k1 it maps each wave
    u[m p + i] = e^{i kappa_j x1_{m p}} v[i] / sqrt(n1/p) (the same phase
    on every field component, x1 the cell centres) to the same wave of
    B_j v, where kappa_j = k1 + 2 pi j / L1 (j = 0 .. n1/p - 1, L1 = n1 h1)
    and B_j = `block(kappa_j)` is the operator on the slab at Bloch
    momentum kappa_j.  The n1/p blocks hold the whole spectrum.  With
    p = n1 the slab is the medium itself: its one block is the operator at
    k1, and a lifted field is the block vector times e^{i k1 x1_0}.

    A block of a one-cell 2D slab is real symmetric tridiagonal: the
    transverse operator plus |e^{i kappa h1} - 1|^2 / h1^2 times the axial
    face weights on the diagonal.  `block` gives it as the (d, e) pair of
    its diagonal and first off-diagonal, which `eigen.interior_eigs`
    solves by bisection and a Rayleigh-Ritz step; every other block is a
    sparse matrix.
    """

    slab: SampledEpsilon
    grid: GridSpec

    def kappas(self, bloch_k1: float) -> np.ndarray:
        """Axial wavenumbers kappa_j of the n1/p harmonics at Bloch
        momentum k1."""
        n1, h1 = self.grid.shape[0], self.grid.spacing[0]
        periods = n1 // self.slab.grid.shape[0]
        return bloch_k1 + 2.0 * np.pi * np.arange(periods) / (n1 * h1)

    def block(self, kappa: float):
        """The operator on the slab at Bloch momentum kappa, walled across:
        a (d, e) pair of real arrays for a one-cell 2D slab, else a sparse
        matrix."""
        if self.grid.ndim == 2 and self.slab.grid.shape[0] == 1:
            d, e, w = self._diagonals
            h1 = self.grid.spacing[0]
            return d + abs(np.exp(1j * kappa * h1) - 1.0) ** 2 / h1 ** 2 * w, e
        op = maxwell_operator if self.grid.ndim == 3 else scalar_matrix
        return op(self.slab, (kappa,) + (None,) * (self.grid.ndim - 1))

    @functools.cached_property
    def _diagonals(self) -> tuple:
        """The diagonal and first off-diagonal of a one-cell 2D slab's
        operator at kappa = 0, where the axial difference is exactly 0,
        and the slab's axial face weights."""
        A = scalar_matrix(self.slab, (0.0, None))
        axial = _face_weights(self.slab, [1.0, "dirichlet"])
        return (A.diagonal().real, A.diagonal(1).real,
                axial[:self.grid.shape[1]])

    def lift(self, kappa: float, v: np.ndarray) -> np.ndarray:
        """The flattened grid field e^{i kappa x1_{m p}} v / sqrt(n1/p) of
        the block vector v, component by component."""
        axial = np.exp(1j * kappa
                       * self.grid.centers(0)[::self.slab.grid.shape[0]])
        field = axial[:, None] * v.reshape(-1, 1, self.slab.values.size)
        field /= np.sqrt(len(axial))
        return field.ravel()


def harmonic_split(eps: SampledEpsilon) -> HarmonicSplit:
    """The axial harmonic split of a medium: over its one-cell axial slab
    when its samples are equal along x1 (every layered guide and every
    straight strip), else over the whole medium, whose one block at each
    k1 is its operator."""
    grid = eps.grid
    if np.any(eps.values != eps.values[:1]):
        return HarmonicSplit(slab=eps, grid=grid)
    slab = SampledEpsilon(GridSpec((1, *grid.shape[1:]), grid.spacing,
                                   grid.origin), eps.values[:1])
    return HarmonicSplit(slab=slab, grid=grid)


@dataclass(frozen=True)
class HarmonicField:
    """A field on the grid of `split` that is one axial harmonic, held as
    the unit vector of its block `split.block(kappa)`: n1/p times smaller
    than the grid field, which is never stored.

    `values` is the grid field `split.lift(kappa, vector)`, lifted anew on
    every access, shaped like the grid (components first in 3D).
    `density()` is |values|^2 without the lift, read-only: |v|^2 / (n1/p)
    broadcast along x1 for a one-cell slab (p = 1), and |v|^2 on the grid
    for an unsplit medium (p = n1).
    """

    split: HarmonicSplit
    kappa: float
    vector: np.ndarray

    @property
    def grid(self) -> GridSpec:
        return self.split.grid

    def _shape(self) -> tuple:
        comps = self.vector.size // self.split.slab.values.size
        return self.grid.shape if comps == 1 else (comps, *self.grid.shape)

    @property
    def values(self) -> np.ndarray:
        return self.split.lift(self.kappa, self.vector).reshape(self._shape())

    def density(self) -> np.ndarray:
        slab = self.split.slab.grid.shape
        periods = self.grid.shape[0] // slab[0]
        per = np.abs(self.vector.reshape(-1, 1, *slab)) ** 2 / periods
        return np.broadcast_to(per, (len(per), periods, *slab)).reshape(
            self._shape())


# ---------------------------------------------------------------------------
# sparse factorization
# ---------------------------------------------------------------------------

def _factor(A, sigma: float, thresh: float):
    """SuperLU of A - sigma I: minimum-degree ordering of A + A^T with
    diagonal pivots preferred (SuperLU's symmetric mode) below the relative
    pivot threshold `thresh`.  An exactly singular factor (SuperLU's
    RuntimeError) raises IterationError.

    One helper for every sparse LU solve: the Hermitian operators of
    :mod:`gapguide.eigen` (inertia counts and Lanczos) and the
    nonsymmetric clamped-plate buckling matrix of :mod:`gapguide.xsection`,
    where the ordering of A + A^T serves as well.  It runs on its caller's
    BLAS threads: one in every solve of a medium or a cross-section
    (`_one_blas_thread`); the caller's count in a bare
    `eigen.interior_eigs` call, for the timing given there.
    """
    n = A.shape[0]
    shifted = sp.csc_matrix(A) - sigma * sp.identity(n, format="csc")
    try:
        return spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=thresh,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:        # SuperLU: "Factor is exactly singular"
        raise IterationError(
            f"shift {sigma:g} is an eigenvalue; cannot factor: {exc}") from exc


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OpenBLAS:
    """Thread-count handles of one OpenBLAS library loaded in the process."""

    get_num_threads: object
    set_num_threads: object
    config: str


# an extension module linked to each library, with the suffix of its
# symbols: numpy's wheel vendors the 64-bit-integer build
_OPENBLAS_MODULES = (("numpy.linalg._umath_linalg", "64_"),
                     ("scipy.sparse.linalg._dsolve._superlu", ""))


@functools.cache
def _openblas() -> tuple:
    """The distinct scipy_openblas libraries behind numpy and scipy, found
    on first use through an extension module linked to each; () where no
    module exports the symbols (another BLAS)."""
    found = {}
    for name, suffix in _OPENBLAS_MODULES:
        try:
            lib = ctypes.CDLL(importlib.import_module(name).__file__)
            get, put, config = (getattr(lib, f"scipy_openblas_{f}{suffix}")
                                for f in ("get_num_threads", "set_num_threads",
                                          "get_config"))
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        found.setdefault(ctypes.cast(get, ctypes.c_void_p).value,
                         _OpenBLAS(get, put, config().decode()))
    return tuple(found.values())


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager and decorator: OpenBLAS runs on one thread inside.

    ARPACK and SuperLU hand OpenBLAS small calls that a second thread only
    busy-waits between, and the thread count changes the last digits of the
    results.  Entries nest and may come from several threads at once (a
    library caller may solve on threads of its own): the first to enter
    saves the caller's counts and sets 1, the last to leave restores them.
    Without scipy_openblas it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()          # (library, caller's count) pairs

    def caller_threads(self) -> tuple:
        """The thread count of each `_openblas()` library outside any
        pinned region."""
        with self._lock:
            if self._depth:
                return tuple(n for _, n in self._saved)
            return tuple(lib.get_num_threads() for lib in _openblas())

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((lib, lib.get_num_threads())
                                    for lib in _openblas())
                for lib, _ in self._saved:
                    lib.set_num_threads(1)
            self._depth += 1
        return self

    def __exit__(self, *_exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for lib, n in self._saved:
                    lib.set_num_threads(n)
        return False


_one_blas_thread = _OneBlasThread()


def _blas_record() -> dict:
    """Provenance of the BLAS: each OpenBLAS library's configuration and the
    caller's thread count, and the count the pinned solves ran on (None
    without scipy_openblas, when they ran on the caller's)."""
    libs = _openblas()
    return {"libraries": [{"config": lib.config, "threads": n} for lib, n
                          in zip(libs, _one_blas_thread.caller_threads())],
            "solve_threads": 1 if libs else None}
