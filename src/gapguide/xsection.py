"""Cross-section constant and compactly supported divergence-free test fields.

The constant is the lowest eigenvalue of -Laplace on divergence-free vector
fields vanishing on the boundary of the cross-section.  On a simply connected
domain this reduces, through the stream function, to the first clamped-plate
buckling eigenvalue

    Lap^2 psi = nu * (-Lap psi),    psi = dpsi/dn = 0 on the boundary,

discretized with the 13-point bilaplacian / 5-point laplacian stencils.
Every difference comes from :mod:`gapguide.discrete_op`: the Laplacian is
-G^T G with G its Dirichlet gradient; the test fields use its forward
differences with a zero ghost past the last node and their centered part.
Outside values referenced by the stencil are eliminated with a quadratic
ghost reflection across the true (curved) boundary, which enforces both
clamped conditions to the order the stencil supports.  The elimination runs
per stencil offset, not per node: one batched `CrossSection.crossing` call
finds the boundary points of every ring node whose offset node lies
outside, array masks pick each ghost's source, and the corrections enter as
one sparse matrix added to the interior stencil (P L)(P L)^T, with P the
restriction to the inside nodes and L the grid Laplacian.  The
Shortley-Weller rows of the scalar Laplacian are built the same way, per
axis and side.  The ghost rows make the bilaplacian nonsymmetric, so the
smallest eigenpair comes from ARPACK's ordinary mode on x -> A^-1 B x
(`eigs` with no mass matrix), with the sparse LU shared with the interior
eigensolves (`discrete_op._factor`).  Where the node mask and the boundary
closure are symmetric under the axis mirrors x1 -> -x1 and x2 -> -x2 (the
interior stencils then are too), the problem is folded onto a quadrant one
symmetry class at a time, on matrices about a quarter the size (Bossavit,
Comput. Methods Appl. Mech. Eng. 56, 167, 1986).  Where the transpose is a
symmetry too, the classes even or odd under both mirrors are split again
by it into eighths, and the class (+, -) stands for its transpose twin
(-, +).  The first class is solved; a later one is solved only when one
banded Cholesky of the symmetric part of its pencil, shifted by the least
eigenvalue so far, fails to rule it out (Bendixson's bound), and the
least class eigenvalue is nu.  The lifted eigenpair is accepted only at a relative residual of
1e-6 or better against the unfolded operators.

A cross-section object keeps its latest buckling minimizer (nu, the
read-only stream function and mask, the grid and the quotient; no LU) for
the spacing it was solved at, so `solve_nu_vector(cs, h)` and any number of
`make_test_field(cs, rho, h)` make one buckling solve between them; an
equal but distinct object, or another spacing, solves again.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import Polynomial
from scipy.linalg import lapack

from .cross_section import CrossSection
from .discrete_op import _factor, _one_blas_thread, differences, gradient
from .errors import GeometryError, IterationError, ValidationError
from .grids import GridSpec

_BILAP_OFFSETS = (
    (1, 0, -8.0), (-1, 0, -8.0), (0, 1, -8.0), (0, -1, -8.0),
    (1, 1, 2.0), (1, -1, 2.0), (-1, 1, 2.0), (-1, -1, 2.0),
    (2, 0, 1.0), (-2, 0, 1.0), (0, 2, 1.0), (0, -2, 1.0),
)


@dataclass(frozen=True)
class NuEstimate:
    """Cross-section constant estimate (units 1/length^2).

    A solved estimate states how many mirror-symmetry classes its
    eigensolve solved and how many it ruled out (`_smallest_eig`), and
    `lu_fill`, the entries of the LUs of the classes it solved; an
    extrapolated one states none of them but its `order`, which only it
    has (so `record` reads "extrapolated" off it).
    """

    value: float
    grid_h: float
    achieved_quotient: float | None = None
    order: float | None = None
    classes_solved: int | None = None
    classes_ruled_out: int | None = None
    lu_fill: int | None = None

    def __post_init__(self):
        if not (self.value > 0):
            raise ValidationError("nu must be positive")

    def record(self) -> dict:
        return {"value": self.value, "h": self.grid_h, "order": self.order,
                "quotient": self.achieved_quotient,
                "extrapolated": self.order is not None,
                "classes_solved": self.classes_solved,
                "classes_ruled_out": self.classes_ruled_out,
                "lu_fill": self.lu_fill}


@dataclass(frozen=True)
class TestField:
    """Divergence-free vector field with compact support inside the domain.

    g has unit discrete L2 norm and is the rotated gradient (d2, -d1) of the
    stream function, so its centered-difference divergence vanishes to
    rounding.  `quotient` is ||Lap g|| with the 5-point Laplacian
    (`_laplacian`).  The `spectral_` moments are those of the stream's
    spectral interpolant, which the closed-form residual reads.
    """

    g: np.ndarray
    stream: np.ndarray
    grid: GridSpec
    quotient: float
    spectral_lap_norm_sq: float
    spectral_ip_lap: float


def _stream_spectral_moments(stream: np.ndarray, grid: GridSpec):
    """Moments of the band-limited field spanned by the stream samples.

    The rotated gradient is formed in Fourier space, so the interpolant is
    exactly divergence free and its moments are exact for that interpolant;
    this is the same field the quadrature route of `gapguide.existence`
    integrates.  Returns (||Lap g||^2, <Lap g, g>) for the unit-norm field.
    """
    h = grid.spacing
    s_hat = np.fft.fft2(stream)
    k1 = 2 * np.pi * np.fft.fftfreq(stream.shape[0], d=h[0])
    k2 = 2 * np.pi * np.fft.fftfreq(stream.shape[1], d=h[1])
    ksq = k1[:, None] ** 2 + k2[None, :] ** 2
    p = np.abs(s_hat) ** 2
    m2 = float(np.sum(ksq * p))        # ~ ||g||^2
    m4 = float(np.sum(ksq**2 * p))     # ~ ||grad g||^2 = -<Lap g, g>
    m6 = float(np.sum(ksq**3 * p))     # ~ ||Lap g||^2
    if m2 <= 0:
        raise ValidationError("test field stream is identically zero")
    return m6 / m2, -m4 / m2


# ---------------------------------------------------------------------------
# grid and operator assembly
# ---------------------------------------------------------------------------

def _domain_grid(cs: CrossSection, h: float):
    lo, hi = cs.bbox()
    lo = np.asarray(lo, dtype=float) - 3 * h
    hi = np.asarray(hi, dtype=float) + 3 * h
    shape = tuple(int(np.ceil((b - a) / h)) for a, b in zip(lo, hi))
    grid = GridSpec(shape=shape, spacing=(h,) * len(shape), origin=tuple(lo))
    mesh = grid.meshgrid()
    pts = np.stack(mesh, axis=-1)
    mask = cs.contains(pts)
    if not mask.any():
        raise GeometryError("grid does not resolve the cross-section")
    return grid, mask, pts


def _check_resolution(cs: CrossSection, h: float):
    if not h > 0:
        raise ValidationError(f"spacing {h!r} is not positive")
    if cs.diameter() / h < 32:
        raise GeometryError(
            f"spacing {h:g} under-resolves the domain (need >= 32 cells across)")


def _restriction(mask: np.ndarray) -> sp.csr_matrix:
    m = int(mask.sum())
    cols = np.flatnonzero(mask.ravel())
    return sp.csr_matrix((np.ones(m), (np.arange(m), cols)),
                         shape=(m, mask.size))


def _laplacian(grid: GridSpec) -> sp.csr_matrix:
    """5-point (3-point in 1D) Laplacian on the full grid, zero ghosts."""
    G = gradient(grid, ("dirichlet",) * grid.ndim)
    return (-(G.T @ G)).tocsr()


def _centered(fwd: list) -> list:
    """(u[i+1] - u[i-1]) / 2h per axis with zero ghosts, from the forward
    differences `fwd` (`differences` with "pec" walls); the components
    commute, so the rotated gradient is divergence free to rounding."""
    return [0.5 * (d - d.T) for d in fwd]


def _ring_nodes(mask: np.ndarray, reach: int) -> np.ndarray:
    """Interior nodes with an outside node within `reach` steps (any axis).

    The core is the erosion of the mask by the full square of side
    2 reach + 1, nodes beyond the grid counting as outside.  A square is a
    product of segments, so the erosion runs one axis at a time, each a
    window of 2 reach + 1 nodes along that axis, reduced over whole shifted
    copies of the array (window offset first)."""
    core = np.pad(mask, reach)
    for axis in range(mask.ndim):
        windows = sliding_window_view(core, 2 * reach + 1, axis=axis)
        core = np.moveaxis(windows, -1, 0).all(axis=0)
    return np.argwhere(mask & ~core)


def _node_index(mask: np.ndarray) -> np.ndarray:
    """Unknown number of each inside node, -1 outside."""
    idx = -np.ones(mask.shape, dtype=np.int64)
    idx[mask] = np.arange(mask.sum())
    return idx


def _at(array: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """array at the (k, ndim) integer nodes.  The 3h pad of `_domain_grid`
    keeps every node within two steps of the domain on the grid."""
    return array[tuple(nodes.T)]


def _summed(rows, cols, vals, n: int) -> sp.coo_matrix:
    """n x n matrix summing the entries listed in chunks (duplicates add)."""
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


def _buckling_system(cs: CrossSection, h: float):
    """13-point bilaplacian A, 5-point -Laplacian B and A's ghost closure.

    For each stencil offset, the ring nodes whose offset node lies outside
    get its value by the quadratic reflection psi ~ c d^2 along the stencil
    line through the boundary point b: ghost = (d_ghost / d_src)^2 psi[src],
    with src the farthest of the node and its next two inside nodes back
    along the line.
    """
    if cs.ndim != 2:
        raise ValidationError("the vector constant needs a 2D cross-section")
    cs.check_simply_connected()
    _check_resolution(cs, h)
    grid, mask, pts = _domain_grid(cs, h)
    P = _restriction(mask)
    PL = P @ _laplacian(grid)
    B = (-(PL @ P.T)).tocsr()

    idx = _node_index(mask)
    ring = _ring_nodes(mask, reach=2)
    rows, cols, vals = [], [], []
    for di, dj, w in _BILAP_OFFSETS:
        off = np.array((di, dj))
        nodes = ring[~_at(mask, ring + off)]
        q = _at(pts, nodes)
        p = _at(pts, nodes + off)
        b = q + cs.crossing(q, p)[:, None] * (p - q)
        src = nodes.copy()
        for m in (1, 2):
            back = nodes - m * np.sign(off)
            inside = _at(mask, back)
            src[inside] = back[inside]
        ratio = (np.linalg.norm(p - b, axis=-1) /
                 np.linalg.norm(_at(pts, src) - b, axis=-1)) ** 2
        rows.append(_at(idx, nodes))
        cols.append(_at(idx, src))
        vals.append((w / h**4) * ratio)
    ghosts = _summed(rows, cols, vals, B.shape[0]).tocsr()
    A = (PL @ PL.T + ghosts).tocsc()
    return A, B, ghosts, grid, mask


def _scalar_system(cs: CrossSection, h: float):
    """Shortley-Weller Dirichlet -Laplacian on the true boundary, its cuts.

    Along each axis, a ring node with a neighbour outside replaces its
    zero-ghost second difference by the unequal-arm one, with the cut arm
    ending on the boundary (fraction theta of a step, at least 1e-6).
    """
    _check_resolution(cs, h)
    grid, mask, pts = _domain_grid(cs, h)
    P = _restriction(mask)
    PL = P @ _laplacian(grid)

    idx = _node_index(mask)
    ring = _ring_nodes(mask, reach=1)
    q = _at(pts, ring)
    rows, cols, vals = [], [], []
    for step in np.eye(mask.ndim, dtype=int):
        arms = []
        for s in (+1, -1):
            nb = _at(idx, ring + s * step)
            out = nb < 0
            theta = np.ones(len(ring))
            theta[out] = np.maximum(
                cs.crossing(q[out], q[out] + s * step * h), 1e-6)
            arms.append((nb, theta))
        (nE, tE), (nW, tW) = arms
        cut = (tE != 1.0) | (tW != 1.0)
        tE, tW, row = tE[cut], tW[cut], _at(idx, ring[cut])
        # drop the zero-ghost row of this axis for the unequal-arm second
        # difference with zero boundary value on cut arms
        denom = tE * tW * (tE + tW) * h**2
        rows.append(row)
        cols.append(row)
        vals.append(2.0 * (tE + tW) / denom - 2.0 / h**2)
        for nb, t_other in ((nE[cut], tW), (nW[cut], tE)):
            inside = nb >= 0
            rows.append(row[inside])
            cols.append(nb[inside])
            vals.append(1.0 / h**2 - 2.0 * t_other[inside] / denom[inside])
    cuts = _summed(rows, cols, vals, P.shape[0]).tocsr()
    A = (-(PL @ P.T) + cuts).tocsc()
    return A, cuts, grid, mask


# ---------------------------------------------------------------------------
# eigen solves
# ---------------------------------------------------------------------------

def _commutes(perm, closure) -> bool:
    """Whether relabelling the unknowns by the involution `perm` leaves the
    COO boundary closure equal to 1e-12 relative (the ghost rows carry
    rounding: 1.3e-14 on the unit disk at h = 2/192).  The relabelled
    closure is its own COO coordinates passed through `perm`."""
    moved = sp.coo_matrix(
        (closure.data, (perm[closure.row], perm[closure.col])),
        shape=closure.shape)
    return abs(moved - closure).max() <= 1e-12 * abs(closure).max()


def _fold(mirrors, signs, n: int):
    """(rows, E) of the class with one sign per mirror.  Each mirror is a
    (perm, offset) pair: the node relabelling and each node's signed offset
    from the mirror line.  `rows` are the nodes on the side offset <= 0 of
    every mirror, less those on the line of a mirror of sign -1; E =
    prod_a (I + s_a S_a) on the columns `rows` is written in one COO pass,
    each factor doubling the list of (image, sign) entries of every column,
    and images on one node add up."""
    keep = np.ones(n, dtype=bool)
    for (_, offset), s in zip(mirrors, signs):
        keep &= (offset < 0) | ((offset == 0) & (s > 0))
    rows = np.flatnonzero(keep)
    images, weights = rows, np.ones(len(rows))
    for (perm, _), s in zip(mirrors, signs):
        images = np.concatenate([images, perm[images]])
        weights = np.concatenate([weights, s * weights])
    cols = np.tile(np.arange(len(rows)), 2 ** len(mirrors))
    return rows, sp.csr_matrix((weights, (images, cols)), shape=(n, len(rows)))


def _symmetry_classes(mask, closure):
    """(rows, E) of each mirror-symmetry class of A x = lam B x to solve.

    The check rests on one premise: the interior stencils ((P L)(P L)^T
    and -P L P^T) are the same at every node of a uniform grid with
    equal spacing on both axes, so a mask equal to its flip or transpose
    leaves them unchanged, and only the boundary `closure` of A can break
    a mirror.  The mirror of an axis is kept when `mask` equals its flip
    along that axis and relabelling the unknowns by it leaves the closure
    unchanged (`_commutes`).  The kept mirrors S_a generate a group G;
    each tuple s of one sign per mirror is a class, the vectors with
    x = s_a S_a x.  E = prod_a (I + s_a S_a) = sum_g chi_s(g) S_g on the
    columns `rows` maps a class vector on its fundamental domain to the
    grid with sign chi_s(g) on image g (`_fold`); `rows` are the nodes at
    most halfway along each mirrored axis, less those on the line of a
    mirror of sign -1, where the class vanishes.  An image on its own node
    adds up, so the sum over G is |G| times a symmetric projector commuting
    with A and B: A[rows] @ E and B[rows] @ E are the Galerkin blocks
    E^T A E and E^T B E over |G|, and the folded B stays symmetric
    positive definite.

    When the transpose T is also a symmetry, G is the group D4 of the
    square (Bossavit, Comput. Methods Appl. Mech. Eng. 56, 167, 1986).  T
    swaps the classes (+, -) and (-, +), its two-dimensional
    representation, which then share a spectrum: only (+, -) is returned,
    a quarter class.  The classes (+, +) and (-, -) commute with T and
    split by their sign under it into eighths, with T a third mirror whose
    line is the diagonal: each keeps the quadrant nodes with i <= j, less
    the diagonal for sign -1.  So D4 gives five classes: (+, +, +),
    (+, +, -), (+, -), (-, -, +) and (-, -, -).  With no mirror, G is
    trivial: one class, every node, E the identity.
    """
    closure = closure.tocoo()
    n = closure.shape[0]
    idx = _node_index(mask)
    nodes = np.argwhere(mask)
    mirrors = []
    for axis in range(mask.ndim):
        if np.array_equal(mask, np.flip(mask, axis)):
            perm = np.flip(idx, axis)[mask]
            if _commutes(perm, closure):
                offset = 2 * nodes[:, axis] - (mask.shape[axis] - 1)
                mirrors.append((perm, offset))
    transpose = None
    if len(mirrors) == 2 and np.array_equal(mask, mask.T):
        perm = idx.T[mask]
        if _commutes(perm, closure):
            transpose = (perm, nodes[:, 0] - nodes[:, 1])
    for signs in itertools.product((1, -1), repeat=len(mirrors)):
        if transpose is None:
            yield _fold(mirrors, signs, n)
        elif signs[0] == signs[1]:      # (+, +) and (-, -): two eighths each
            for t in (1, -1):
                yield _fold(mirrors + [transpose], signs + (t,), n)
        elif signs[0] > 0:              # (+, -), standing for (-, +) too
            yield _fold(mirrors, signs, n)


def _arpack_smallest(A, B):
    """(lam, x, fill): the smallest eigenpair of A x = lam B x, which
    ARPACK's ordinary mode finds as the largest eigenvalue 1/lam of
    A^-1 B, and the entries of the LU it factored (`SuperLU.nnz`).

    A^-1 is the shared sparse LU (`discrete_op._factor`, pivot threshold
    1e-2), whose minimum-degree ordering of A + A^T fills less than the
    COLAMD LU `eigs` would build (5.2M against 7.5M entries for the
    unfolded unit-disk buckling matrix at h = 2/192).  Ordinary mode,
    because `eigs` given a mass matrix leaves a reference cycle that keeps
    the LU until a garbage collection (87 unreachable objects per unit-disk
    solve at h = 2/96, against none).  The start vector is fixed so that
    repeated solves agree bitwise.
    """
    n = A.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    lu = _factor(A, 0.0, 1e-2)
    op = spla.LinearOperator((n, n), matvec=lambda x: lu.solve(B @ x),
                             dtype=float)
    try:
        vals, vecs = spla.eigs(op, k=1, which="LM", tol=1e-10, v0=v0)
    except spla.ArpackError as exc:
        raise IterationError(f"ARPACK eigensolve failed: {exc}") from exc
    return 1.0 / float(vals[0].real), vecs[:, 0].real, lu.nnz


def _ruled_out(A, B, best: float) -> bool:
    """Whether (A + A^T)/2 - best B is positive definite, which puts every
    eigenvalue of A x = mu B x (B symmetric positive definite) at real part
    above `best`: by Bendixson's theorem (Acta Math. 25, 359, 1902),
    Re mu = x^H ((A + A^T)/2) x / x^H B x for an eigenvector x.

    LAPACK's banded Cholesky `dpbtrf` decides it on the lower band of the
    matrix in the given node order, allocated in Fortran order so that the
    wrapper factors it in place; it runs on the caller's BLAS threads.
    """
    band = sp.tril(0.5 * (A + A.T) - best * B).tocoo()
    offset = band.row - band.col
    ab = np.zeros((int(offset.max()) + 1, A.shape[0]), order="F")
    ab[offset, band.col] = band.data
    _, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    return info == 0


def _smallest_eig(A, B, closure, mask):
    """(lam, v, (solved, ruled out, fill)): the smallest eigenpair of
    A x = lam B x on the nodes of `mask`, found one mirror-symmetry class at
    a time, how many classes were solved and how many ruled out, and the
    entries of the LUs of the classes solved.

    The lowest mode need not be symmetric, so every class of
    `_symmetry_classes` (mirrors checked on the boundary `closure` alone)
    is examined on its folded blocks A_c = A[rows] @ E and B_c =
    B[rows] @ E.  The first is solved (`_arpack_smallest`: one LU per
    class, freed when the class solve returns).  Each later class is ruled
    out when (A_c + A_c^T)/2 - best B_c is positive definite, `best` the
    least eigenvalue solved so far (`_ruled_out`: every eigenvalue of the
    class then has real part above `best`); otherwise it is solved, and
    the least class eigenvalue wins.  Its vector is lifted back to the grid
    as E q.  `dpbtrf` succeeding proves definiteness only up to rounding,
    so a class is wrongly ruled out only if its eigenvalue ties `best` to
    rounding, and then lam is the same.  With one class (no mirror) there
    is nothing to rule out and the solve is the unfolded one.

    On the unit disk at h = 2/192 there are five classes.  The first, the
    eighth (+, +, +) of 3,655 unknowns, holds nu and is solved: one LU of
    0.32M entries (a sixteenth of the unfolded fill, where the quarter
    (+, +) took 0.81M) in 9-13 ms, and 21 ARPACK solves, 15-23 ms in all.
    The eighths (+, +, -), (-, -, +) and (-, -, -) of 3,587-3,655 unknowns
    are ruled out each by a band with kd = 136-137 (3.8 MiB) and `dpbtrf`
    in 4-6 ms, the quarter (+, -) of 7,242 by one with kd = 194 (10.8 MiB)
    in 10-15 ms; at 2/96 the bound lies within 0.3 % of each class
    eigenvalue.  The band grows faster than the LU: for a quarter at 2/256
    it is 25.4 MiB against 19.2 MiB of LU fill, and the check takes
    58-70 ms against a 114-141 ms LU (one thread).  The lifted pair is
    accepted only at a relative residual of 1e-6 or better against the
    full A and B, so a wrong fold fails loudly.
    """
    best, solved, ruled_out, fill = None, 0, 0, 0
    for rows, E in _symmetry_classes(mask, closure):
        A_c, B_c = A[rows] @ E, B[rows] @ E
        if best is not None and _ruled_out(A_c, B_c, best[0]):
            ruled_out += 1
            continue
        # B's folded block sorted like B, so that with no mirror the solve
        # is bitwise the unfolded one
        lam, q, nnz = _arpack_smallest(A_c, B_c.sorted_indices())
        solved += 1
        fill += nnz
        if best is None or lam < best[0]:
            best = lam, E @ q
    lam, v = best
    Bv = B @ v
    res = float(np.linalg.norm(A @ v - lam * Bv) /
                (abs(lam) * np.linalg.norm(Bv)))
    if not res <= 1e-6:
        raise IterationError(f"eigenpair residual {res:.2e} above 1e-6",
                             residual=res)
    return lam, v, (solved, ruled_out, fill)


@_one_blas_thread
def solve_nu_vector(cs: CrossSection, h: float) -> NuEstimate:
    """Cross-section constant via the clamped buckling eigenproblem.

    The eigenproblem is taken one mirror-symmetry class at a time
    (`_smallest_eig`): five classes on the unit disk, of which the eighth
    (+, +, +) is solved (one LU of 921 unknowns at 2/96) and three eighths
    and the quarter (+, -) are ruled out by a banded Cholesky; four
    quarters on a rectangle with unequal sides; one, solved unfolded, when
    the grid has no mirror.  The estimate states both counts and the LU
    fill.  The solve and the Rayleigh quotient
    of its minimizer run on one OpenBLAS thread
    (`discrete_op._one_blas_thread`): both `value` and `achieved_quotient`
    are bitwise the same at any caller thread count.  The minimizer stays
    on `cs` for `make_test_field` at the same `h`; a repeat answered from
    it states the counts and fill of the solve that found it.
    """
    nu, _, _, _, quot, (solved, ruled_out, fill) = _buckling_minimizer(cs, h)
    return NuEstimate(value=nu, grid_h=h, achieved_quotient=quot,
                      classes_solved=solved, classes_ruled_out=ruled_out,
                      lu_fill=fill)


def _buckling_minimizer(cs, h):
    """(nu, psi, grid, mask, quot, (classes solved, classes ruled out, LU
    fill)) of the buckling problem on `cs` at `h`.

    One entry per object, for the last `h`, kept in `cs.__dict__` as
    `functools.cached_property` keeps its values (so frozen dataclasses
    take it too); it follows identity, not equality.
    """
    held = cs.__dict__.get("_buckling_minimizer")
    if held is not None and held[0] == h:
        return held[1]
    A, B, ghosts, grid, mask = _buckling_system(cs, h)
    nu, v, stats = _smallest_eig(A, B, ghosts, mask)
    psi = np.zeros(mask.shape)
    psi[mask] = v
    # fix the overall sign so repeated runs agree
    if psi.sum() < 0:
        psi = -psi
    # Rayleigh value of the minimizer in the discrete quadratic forms; at the
    # minimizer grad(Lap psi) = -nu grad(psi), so this equals the vector-field
    # quotient ||Lap g||/||g|| without differencing across the clamped edge.
    quot = float((v @ (A @ v)) / (v @ (B @ v)))
    psi.flags.writeable = False
    mask.flags.writeable = False
    result = (float(nu), psi, grid, mask, quot, stats)
    cs.__dict__["_buckling_minimizer"] = (h, result)
    return result


@_one_blas_thread
def solve_nu_scalar(cs: CrossSection, h: float) -> NuEstimate:
    """Scalar-analog constant: smallest Dirichlet eigenvalue of -Laplace,
    taken one mirror-symmetry class at a time (B = I: a class is ruled out
    when the symmetric part of its Shortley-Weller block less `best` times
    the folded identity is positive definite) and on one OpenBLAS thread,
    like `solve_nu_vector`: on the unit disk the eighth (+, +, +) is solved
    (one LU of 921 unknowns at 2/96) and the other four classes are ruled
    out."""
    A, cuts, _, mask = _scalar_system(cs, h)
    lam, _, (solved, ruled_out, fill) = _smallest_eig(
        A, sp.eye(A.shape[0], format="csr"), cuts, mask)
    return NuEstimate(value=lam, grid_h=h, classes_solved=solved,
                      classes_ruled_out=ruled_out, lu_fill=fill)


# ---------------------------------------------------------------------------
# test fields
# ---------------------------------------------------------------------------

def smoothstep_polynomial(k: int) -> Polynomial:
    """The C^k smoothstep S_k: 0 with k derivatives at 0, 1 at 1."""
    t = Polynomial([0, 1])
    return t ** (k + 1) * sum(comb(k + j, j) * comb(2 * k + 1, k - j) * (-t) ** j
                              for j in range(k + 1))


_QUINTIC_STEP = smoothstep_polynomial(2)


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C^2 quintic step: 0 at t<=0, 1 at t>=1."""
    # Horner's rule rounds a hair above 1 just below t = 1
    return np.minimum(_QUINTIC_STEP(np.clip(t, 0.0, 1.0)), 1.0)


@_one_blas_thread
def make_test_field(cs: CrossSection, rho: float, h: float) -> TestField:
    """Mollified buckling minimizer as a compactly supported test field.

    The stream eigenfunction is multiplied by a quintic smoothstep of the
    boundary distance, zero within distance rho of the boundary and ramping
    up to one at depth (rho + inradius)/2; its rotated gradient is the returned
    divergence-free field, normalized to unit discrete L2 norm.  The wide
    ramp keeps the third-derivative cost of truncation as small as the
    margin allows.  Like `solve_nu_vector`, it runs on one OpenBLAS thread.
    After `solve_nu_vector(cs, h)` or a first field on the same `cs` and
    `h`, it reuses the kept minimizer and makes no buckling solve.
    """
    if not (0 < rho < cs.inradius() / 2):
        raise GeometryError(
            f"margin rho={rho:g} must lie in (0, inradius/2={cs.inradius() / 2:g})")
    _, psi, grid, mask, _, _ = _buckling_minimizer(cs, h)
    mesh = grid.meshgrid()
    d = cs.boundary_distance(np.stack(mesh, axis=-1))
    ramp_top = 0.5 * (rho + cs.inradius())
    eta = smoothstep((d - rho) / (ramp_top - rho))
    eta[~mask] = 0.0
    stream = eta * psi
    if not np.any(stream):
        raise GeometryError("cutoff removed the whole field; rho too large")
    c1, c2 = _centered(differences(grid, ("pec",) * 2))
    g = np.stack([c2 @ stream.ravel(), -(c1 @ stream.ravel())])
    cell = h * h
    nrm = np.sqrt(np.sum(g * g) * cell)
    g /= nrm
    stream = stream / nrm
    lap = _laplacian(grid)
    lap_g = np.stack([lap @ gc for gc in g])
    spectral_lap, spectral_ip = _stream_spectral_moments(stream, grid)
    return TestField(g=g.reshape(2, *grid.shape), stream=stream, grid=grid,
                     quotient=float(np.sqrt(np.sum(lap_g * lap_g) * cell)),
                     spectral_lap_norm_sq=spectral_lap,
                     spectral_ip_lap=spectral_ip)


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

def refine_extrapolate(estimates) -> NuEstimate:
    """Richardson-extrapolate estimates assuming order-2 convergence.

    Needs >= 3 NuEstimates at decreasing h.  The reported order,
    log|d1/d2| / log(r) from the last three grids, takes one refinement
    ratio r, that of the coarser pair, and is the observed order only when
    both ratios are r: the 2/96, 2/128, 2/192 ladder (ratios 4/3 and 3/2)
    reads 2.08, where solving for the order with both ratios gives 2.79.
    A non-monotone difference sequence is unsafe to extrapolate: it warns
    and returns the finest-grid value.
    """
    pairs = sorted(((float(e.grid_h), float(e.value)) for e in estimates),
                   reverse=True)
    if len(pairs) < 3:
        raise ValidationError("need at least 3 estimates to extrapolate")
    hs = np.array([p[0] for p in pairs])
    vs = np.array([p[1] for p in pairs])
    diffs = np.diff(vs)
    if np.any(diffs[:-1] * diffs[1:] <= 0):
        warnings.warn("non-monotone refinement sequence; extrapolation unsafe",
                      RuntimeWarning)
        return NuEstimate(value=vs[-1], grid_h=hs[-1])
    r = hs[-3] / hs[-2]
    order = float(np.log(abs(diffs[-2] / diffs[-1])) / np.log(r))
    r_fine = hs[-2] / hs[-1]
    value = vs[-1] + (vs[-1] - vs[-2]) / (r_fine**2 - 1.0)
    return NuEstimate(value=float(value), grid_h=float(hs[-1]), order=order)
