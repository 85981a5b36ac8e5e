"""Discrete operators on staggered grids, assembled as sparse D^H W D.

Two operators drive everything downstream:

* the 3D Maxwell double curl  M u = curl (1/eps) curl u  on an
  edge-staggered (Yee) grid, quasi-periodic along x1 with Bloch phase
  e^{i k1 a} on the wraparound and perfect-conductor (or periodic)
  truncation transversely;
* the scalar analog  A u = -div (1/eps) grad u  in flux form on nodes, in
  2D (the guide cross-section) and in 1D (the layered bulk).

Both come from one assembly: a 1D forward difference per axis, closed by a
Bloch phase or a zero ghost, is lifted to the grid by Kronecker products and
combined into a gradient or a curl D (both public, so C G = 0 can be stated
as a matrix identity); the operator is the sparse matrix D^H W D with W the
face-averaged 1/eps.  Hermitian symmetry, nonnegativity and curl(grad) = 0
therefore hold to rounding rather than to discretization order.

A 2D or 3D medium whose samples are equal along x1 (every layered guide
and every straight strip) gives an operator that splits into n1 independent
axial Bloch harmonics, each the operator on the one-cell axial slab:
`harmonic_split` builds that slab operator once as three real matrices in
the axial difference c, B(c) = P + |c|^2 R + c Q + conj(c) Q^T.
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

from .errors import IterationError, StructuralError, ValidationError
from .grids import GridSpec
from .media import SampledEpsilon


def _axis_wraps(grid: GridSpec, bloch_k1: float, transverse_bc: str,
                bloch_k2: float = 0.0) -> list:
    """How each axis closes: the Bloch phase e^{i k L} along x1 and along
    periodic transverse axes (momentum bloch_k2 on x2, zero on x3), else the
    name of the zero-ghost truncation ("pec" in 3D, "dirichlet" below)."""
    walls = "pec" if grid.ndim == 3 else "dirichlet"
    if transverse_bc not in (walls, "periodic"):
        raise ValidationError(f"transverse_bc must be {walls!r} or 'periodic'")
    ks = (bloch_k1, bloch_k2, 0.0)
    wraps = []
    for a in range(grid.ndim):
        if a == 0 or transverse_bc == "periodic":
            lo, hi = grid.extent(a)
            wraps.append(np.exp(1j * ks[a] * (hi - lo)))
        else:
            wraps.append(walls)
    return wraps


@dataclass(frozen=True)
class ScalarField2:
    """Scalar field in 2D; Bloch along x1, Dirichlet walls across x2.

    Values sit at the cell centres origin + (i + 1/2) h of the grid, as
    media, localization and decay sample them.  On a Dirichlet axis the
    zero ghosts are the centres of the cells just outside the grid, half a
    cell beyond its ends.
    """

    values: np.ndarray
    grid: GridSpec
    bloch_k1: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if self.grid.ndim != 2 or v.shape != self.grid.shape:
            raise ValidationError("values must match the 2D grid shape")
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _difference(n: int, h: float, wrap) -> sp.csr_matrix:
    """(u[i+1] - u[i]) / h on n nodes, closed by `wrap`.

    A Bloch phase sets u[n] = phase * u[0].  "pec" sets the ghost u[n] to
    zero.  "dirichlet" sets zero ghosts on both walls, u[-1] = u[n] = 0,
    which adds the face below node 0 as the first row.
    """
    d = sp.eye(n, n, 1) - sp.eye(n)
    if wrap == "dirichlet":
        d = sp.vstack([sp.eye(1, n), d])
    elif not isinstance(wrap, str):
        # CSR, so the sum is a new complex matrix: on one node the wrap
        # shares the float diagonal, which a DIA sum would update in place
        d = d + wrap * sp.eye(n, n, 1 - n, format="csr")
    return sp.csr_matrix(d / h)


def differences(grid: GridSpec, wraps) -> list:
    """Each axis's difference lifted to the C-ordered grid by Kronecker
    products with identities on the other axes."""
    out = []
    for a, wrap in enumerate(wraps):
        before = sp.identity(int(np.prod(grid.shape[:a])))
        after = sp.identity(int(np.prod(grid.shape[a + 1:])))
        d = _difference(grid.shape[a], grid.spacing[a], wrap)
        out.append(sp.kron(sp.kron(before, d), after, format="csr"))
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

def maxwell_operator(eps: SampledEpsilon, bloch_k1: float = 0.0,
                     transverse_bc: str = "pec") -> sp.csr_matrix:
    """Sparse M u = curl (1/eps) curl u on flattened 3-component complex
    edge vectors, component-major (Hermitian, nonnegative by construction).

    Component c lives on edges parallel to axis c: offset by half a cell
    along c, on nodes along the other axes; the x1 wraparound carries the
    Bloch phase e^{i k1 a} with a the axial extent of the grid.
    """
    wraps = _axis_wraps(eps.grid, bloch_k1, transverse_bc)
    return _operator(eps, wraps, curl(eps.grid, wraps))


# ---------------------------------------------------------------------------
# scalar flux-form operator
# ---------------------------------------------------------------------------

def scalar_matrix(eps: SampledEpsilon, bloch_k1: float = 0.0,
                  transverse_bc: str = "dirichlet",
                  bloch_k2: float = 0.0) -> sp.csr_matrix:
    """Sparse -div (1/eps) grad on a 1D or 2D grid: Bloch along x1;
    Dirichlet, or Bloch-periodic with momentum bloch_k2, along x2."""
    wraps = _axis_wraps(eps.grid, bloch_k1, transverse_bc, bloch_k2)
    return _operator(eps, wraps, gradient(eps.grid, wraps))


# ---------------------------------------------------------------------------
# axial Bloch harmonics of an x1-invariant medium
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicSplit:
    """The operator of a 2D or 3D medium constant along x1 (scalar_matrix
    with Dirichlet walls, maxwell_operator with PEC walls), one axial Bloch
    harmonic at a time.

    The operator commutes with axial shifts, so at Bloch momentum k1 it maps
    each wave u[.., i, ..] = e^{i kappa_j x1_i} v / sqrt(n1) (the same phase
    on every field component), kappa_j = k1 + 2 pi j / L1 (j = 0 .. n1 - 1,
    L1 = n1 h1, x1_i the cell centres), to the same wave of B_j v.  B_j is
    the operator on the one-cell axial slab, where the axial difference is
    the scalar c = (e^{i kappa_j h1} - 1) / h1:

        B(c) = P + |c|^2 R + c Q + conj(c) Q^T,

    with P, Q, R real and built once from the slab's differences at c = 0
    and c = 1.  Q is empty for the scalar gradient, so 2D blocks are real.
    The n1 blocks hold the whole spectrum.

    In 2D, P is tridiagonal along x2 and R diagonal, so each block is a real
    symmetric tridiagonal matrix: `tridiagonal` gives it as two arrays, from
    diagonals of P and R taken once per split, and `eigen.bloch_modes`
    solves it by bisection.  3D blocks stay sparse (`block`).
    """

    P: sp.csr_matrix
    Q: sp.csr_matrix
    R: sp.csr_matrix
    grid: GridSpec

    def kappas(self, bloch_k1: float) -> np.ndarray:
        """Axial wavenumbers kappa_j of the n1 harmonics at Bloch momentum k1."""
        n1, h1 = self.grid.shape[0], self.grid.spacing[0]
        return bloch_k1 + 2.0 * np.pi * np.arange(n1) / (n1 * h1)

    def block(self, kappa: float) -> sp.csr_matrix:
        """B(c) at c = (e^{i kappa h1} - 1) / h1."""
        h1 = self.grid.spacing[0]
        z = np.exp(1j * kappa * h1) - 1.0
        B = self.P + abs(z) ** 2 / h1 ** 2 * self.R
        if self.Q.nnz:
            B = B + z / h1 * self.Q + np.conj(z) / h1 * self.Q.T
        return B

    @functools.cached_property
    def _diagonals(self) -> tuple:
        """diag(P), diag(P, 1) and diag(R) of a 2D split."""
        if self.grid.ndim != 2:
            raise ValidationError("only a 2D split has tridiagonal blocks")
        return self.P.diagonal(), self.P.diagonal(1), self.R.diagonal()

    def tridiagonal(self, kappa: float) -> tuple:
        """The 2D block B(c) as its diagonal and its first off-diagonal,
        diag(P) + |c|^2 diag(R) and diag(P, 1): the same entries as
        `block(kappa)`."""
        p, p1, r = self._diagonals
        h1 = self.grid.spacing[0]
        return p + abs(np.exp(1j * kappa * h1) - 1.0) ** 2 / h1 ** 2 * r, p1

    def lift(self, kappa: float, v: np.ndarray) -> np.ndarray:
        """The flattened grid field e^{i kappa x1_i} v / sqrt(n1) of a block
        vector, component by component."""
        axial = np.exp(1j * kappa * self.grid.centers(0))
        slab = np.reshape(v, (-1, 1, int(np.prod(self.grid.shape[1:]))))
        return (axial[:, None] * slab / np.sqrt(self.grid.shape[0])).ravel()


def harmonic_split(eps: SampledEpsilon) -> HarmonicSplit | None:
    """The axial harmonic split of a 2D or 3D medium whose samples are equal
    along x1, or None when they are not (or the grid is 1D).

    The slab operator is D(c)^H W D(c) with D the gradient (2D) or the curl
    (3D) and D(c) = D0 + c D1 linear in the axial difference c.  D0 and D1
    come from the slab at unit axial spacing, where the Bloch wraps 1 and 2
    make that difference exactly 0 and the identity; then P = D0^T W D0,
    Q = D0^T W D1 and R = D1^T W D1.
    """
    grid = eps.grid
    if grid.ndim == 1 or np.any(eps.values != eps.values[:1]):
        return None
    slab = SampledEpsilon(GridSpec((1, *grid.shape[1:]),
                                   (1.0, *grid.spacing[1:]), grid.origin),
                          eps.values[:1])
    walls = ["pec" if grid.ndim == 3 else "dirichlet"] * (grid.ndim - 1)
    D = curl if grid.ndim == 3 else gradient
    D0 = D(slab.grid, [1.0, *walls])
    D1 = D(slab.grid, [2.0, *walls]) - D0
    W = sp.diags(_face_weights(slab, [1.0, *walls]))
    return HarmonicSplit(P=(D0.T @ W @ D0).tocsr(), Q=(D0.T @ W @ D1).tocsr(),
                         R=(D1.T @ W @ D1).tocsr(), grid=grid)


# ---------------------------------------------------------------------------
# sparse factorization
# ---------------------------------------------------------------------------

def _factor(A, sigma: float, thresh: float):
    """SuperLU of A - sigma I: minimum-degree ordering of A + A^T with
    diagonal pivots preferred (SuperLU's symmetric mode) below the relative
    pivot threshold `thresh`.  An exactly singular factor (SuperLU's
    RuntimeError) raises IterationError.

    One helper for every shift-invert solve: the Hermitian operators of
    :mod:`gapguide.eigen` (inertia counts and Lanczos) and the
    nonsymmetric clamped-plate buckling matrix of :mod:`gapguide.xsection`,
    where the ordering of A + A^T serves as well.  It runs on its caller's
    BLAS threads: one in every solve of a medium or a cross-section
    (`_one_blas_thread`); the caller's count in `eigen.interior_eigs` on a
    bare matrix (16^3 cube shell: 16.0-17.3 s at two, 17.5-22.1 s at one).
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

    def __exit__(self, *exc):
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


# ---------------------------------------------------------------------------
# structural identity checks
# ---------------------------------------------------------------------------

def check_identities(eps: SampledEpsilon) -> dict:
    """Verify symmetry, nonnegativity and curl(grad)=0 on 20 random fields
    at Bloch momentum k1 = 0.7.

    Dispatches on the dielectric's dimensionality (3D Maxwell under PEC
    truncation / scalar under Dirichlet truncation).  Raises StructuralError
    carrying the worst violation if any identity fails the 1e-12 budget.
    """
    trials, bloch_k1 = 20, 0.7
    rng = np.random.default_rng(0)
    grid = eps.grid
    if grid.ndim == 3:
        wraps = _axis_wraps(grid, bloch_k1, "pec")
        C, G = curl(grid, wraps), gradient(grid, wraps)
        A = _operator(eps, wraps, C)
    else:
        A = scalar_matrix(eps, bloch_k1)

    def rand(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    sym = gradimg = 0.0
    pos = np.inf
    for _ in range(trials):
        u, v = rand(A.shape[0]), rand(A.shape[0])
        Au, Av = A @ u, A @ v
        scale = max(np.linalg.norm(Au) * np.linalg.norm(v)
                    + np.linalg.norm(u) * np.linalg.norm(Av), 1e-300)
        sym = max(sym, abs(np.vdot(u, Av) - np.conj(np.vdot(v, Au))) / scale)
        pos = min(pos, np.vdot(u, Au).real / np.linalg.norm(u) ** 2)
        if grid.ndim == 3:
            img = C @ (G @ rand(A.shape[0] // 3))
            gradimg = max(gradimg, float(np.max(np.abs(img))))
    report = {"max_symmetry_violation": float(sym),
              "min_quadratic_form": float(pos),
              "max_grad_image": gradimg,
              "trials": trials}
    if sym > 1e-12:
        raise StructuralError("operator symmetry violated", max_violation=sym)
    if pos < -1e-12:
        raise StructuralError("operator form went negative", max_violation=-pos)
    if gradimg > 1e-12:
        raise StructuralError("curl(grad) != 0", max_violation=gradimg)
    return report


def plane_wave_eigenvalue(k: np.ndarray, spacing, eps_value: float) -> float:
    """Discrete symbol of the staggered curl-curl for a homogeneous medium."""
    k = np.asarray(k, dtype=float)
    h = np.asarray(spacing, dtype=float)
    return float(np.sum((2.0 / h) ** 2 * np.sin(k * h / 2.0) ** 2) / eps_value)
