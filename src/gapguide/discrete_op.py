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

A 2D medium whose samples are equal along x1 (every layered guide) gives an
operator that splits into n1 independent axial Bloch harmonics:
`harmonic_split` builds the real transverse operator T and the axial weights
1/eps once, and each harmonic's block is T plus a multiple of diag(1/eps).
"""

from __future__ import annotations

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
    """Scalar field in 2D; Bloch along x1, Dirichlet or periodic in x2.

    Values sit at the cell centres origin + (i + 1/2) h of the grid, as
    media, localization and decay sample them.  On a Dirichlet axis the
    zero ghosts are the centres of the cells just outside the grid, half a
    cell beyond its ends.
    """

    values: np.ndarray
    grid: GridSpec
    bloch_k1: float = 0.0
    transverse_bc: str = "dirichlet"
    bloch_k2: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if self.grid.ndim != 2 or v.shape != self.grid.shape:
            raise ValidationError("values must match the 2D grid shape")
        _axis_wraps(self.grid, self.bloch_k1, self.transverse_bc)
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
    interior_eigs factors it directly, once at each end of the window for
    the inertia count and once at its centre; on a 16x32x32 supercell the
    three LUs take about 55 s and peak at 2.4 GiB.
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
    """scalar_matrix of a 2D medium constant along x1, one axial Bloch
    harmonic at a time (Dirichlet along x2).

    The operator commutes with axial shifts, so at Bloch momentum k1 it maps
    each wave u[i, :] = e^{i kappa_j x1_i} v / sqrt(n1), kappa_j =
    k1 + 2 pi j / L1 (j = 0 .. n1 - 1, L1 = n1 h1, x1_i the cell centres), to
    the same wave of B_j v, with the real n2 x n2 block

        B_j = T + s_j diag(w1),   s_j = |e^{i kappa_j h1} - 1|^2 / h1^2,

    T = D2^T W2 D2 the transverse operator and w1 = 1/eps(x2) the axial
    face weights.  The n1 blocks hold the whole spectrum.
    """

    transverse: sp.csr_matrix
    axial_weights: np.ndarray
    grid: GridSpec

    def kappas(self, bloch_k1: float) -> np.ndarray:
        """Axial wavenumbers kappa_j of the n1 harmonics at Bloch momentum k1."""
        n1, h1 = self.grid.shape[0], self.grid.spacing[0]
        return bloch_k1 + 2.0 * np.pi * np.arange(n1) / (n1 * h1)

    def block(self, kappa: float) -> sp.csr_matrix:
        """B = T + |e^{i kappa h1} - 1|^2 / h1^2 diag(w1)."""
        h1 = self.grid.spacing[0]
        s = abs(np.exp(1j * kappa * h1) - 1.0) ** 2 / h1 ** 2
        return (self.transverse + sp.diags(s * self.axial_weights)).tocsr()

    def lift(self, kappa: float, v: np.ndarray) -> np.ndarray:
        """The grid field e^{i kappa x1_i} v / sqrt(n1) of a block vector."""
        axial = np.exp(1j * kappa * self.grid.centers(0))
        return np.outer(axial, v) / np.sqrt(self.grid.shape[0])


def harmonic_split(eps: SampledEpsilon) -> HarmonicSplit | None:
    """The axial harmonic split of a 2D medium whose samples are equal along
    x1, or None when they are not (or the grid is not 2D).

    T is scalar_matrix on the one-cell axial slab at Bloch momentum 0, where
    the axial difference vanishes; it and w1 are built once per medium.
    """
    grid = eps.grid
    if grid.ndim != 2 or np.any(eps.values != eps.values[:1]):
        return None
    slab = SampledEpsilon(GridSpec((1, grid.shape[1]), grid.spacing,
                                   grid.origin), eps.values[:1])
    return HarmonicSplit(transverse=scalar_matrix(slab).real.tocsr(),
                         axial_weights=1.0 / eps.values[0], grid=grid)


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
    where the ordering of A + A^T serves as well.
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
