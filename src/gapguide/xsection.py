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
clamped conditions to the order the stencil supports.  The ghost rows make
the bilaplacian nonsymmetric, so the smallest eigenpair comes from ARPACK's
general shift-invert at zero (`eigs` with the Laplacian as mass matrix) and
is accepted only at a relative residual of 1e-6 or better.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import Polynomial
from scipy import ndimage

from .cross_section import CrossSection
from .discrete_op import differences, gradient
from .errors import GeometryError, IterationError, ValidationError
from .grids import GridSpec

_BILAP_OFFSETS = (
    (1, 0, -8.0), (-1, 0, -8.0), (0, 1, -8.0), (0, -1, -8.0),
    (1, 1, 2.0), (1, -1, 2.0), (-1, 1, 2.0), (-1, -1, 2.0),
    (2, 0, 1.0), (-2, 0, 1.0), (0, 2, 1.0), (0, -2, 1.0),
)


@dataclass(frozen=True)
class NuEstimate:
    """Cross-section constant estimate (units 1/length^2)."""

    value: float
    grid_h: float
    extrapolated: bool = False
    achieved_quotient: float | None = None
    order: float | None = None

    def __post_init__(self):
        if not (self.value > 0):
            raise ValidationError("nu must be positive")

    def record(self) -> dict:
        return {"value": self.value, "h": self.grid_h, "order": self.order,
                "quotient": self.achieved_quotient,
                "extrapolated": self.extrapolated}


@dataclass(frozen=True)
class TestField:
    """Divergence-free vector field with compact support inside the domain.

    g has unit discrete L2 norm and is the rotated gradient (d2, -d1) of the
    stream function, so its centered-difference divergence vanishes to
    rounding.
    """

    g: np.ndarray
    stream: np.ndarray
    grid: GridSpec
    support_margin: float
    quotient: float
    lap_norm_sq: float
    ip_lap: float
    grad_norm_sq: float


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


def _centered(grid: GridSpec) -> list:
    """(u[i+1] - u[i-1]) / 2h per axis with zero ghosts; the components
    commute, so the rotated gradient is divergence free to rounding."""
    return [0.5 * (d - d.T) for d in differences(grid, ("pec",) * grid.ndim)]


def _ring_nodes(mask: np.ndarray, reach: int) -> np.ndarray:
    """Interior nodes with an outside node within `reach` steps (any axis)."""
    size = 2 * reach + 1
    structure = np.ones((size,) * mask.ndim, dtype=bool)
    core = ndimage.binary_erosion(mask, structure=structure, border_value=0)
    return np.argwhere(mask & ~core)


def _ghost_source(cs, mask, pts, node, direction, outside_offset):
    """Eliminate an outside stencil value via quadratic reflection.

    Returns (source_index, weight_ratio) with ghost = ratio * psi[source],
    from the clamped-boundary model psi ~ c * d^2 along the stencil line.
    """
    node = tuple(node)
    p_idx = tuple(np.asarray(node) + outside_offset)
    q = pts[node]
    p = pts[p_idx]
    t = cs.crossing(q, p)
    b = q + t * (p - q)
    d_ghost = np.linalg.norm(p - b)
    shape = mask.shape
    best = None
    for m in range(0, 3):
        s_idx = tuple(np.asarray(node) - m * np.asarray(direction))
        if any(i < 0 or i >= n for i, n in zip(s_idx, shape)):
            continue
        if not mask[s_idx]:
            continue
        d_src = np.linalg.norm(pts[s_idx] - b)
        if best is None or d_src > best[0]:
            best = (d_src, s_idx)
    if best is None:
        return None, 0.0
    d_src, s_idx = best
    return s_idx, (d_ghost / d_src) ** 2


def _buckling_system(cs: CrossSection, h: float):
    """13-point bilaplacian A and 5-point -Laplacian B on interior nodes."""
    if cs.ndim != 2:
        raise ValidationError("the vector constant needs a 2D cross-section")
    cs.check_simply_connected()
    _check_resolution(cs, h)
    grid, mask, pts = _domain_grid(cs, h)
    P = _restriction(mask)
    Lf = _laplacian(grid)
    A = (P @ (Lf @ Lf) @ P.T).tolil()
    B = (-(P @ Lf @ P.T)).tocsr()

    idx = -np.ones(mask.shape, dtype=np.int64)
    idx[mask] = np.arange(mask.sum())
    for node in _ring_nodes(mask, reach=2):
        row = idx[tuple(node)]
        for di, dj, w in _BILAP_OFFSETS:
            pi, pj = node[0] + di, node[1] + dj
            if 0 <= pi < mask.shape[0] and 0 <= pj < mask.shape[1] and mask[pi, pj]:
                continue
            g = np.gcd(abs(di), abs(dj)) if di and dj else max(abs(di), abs(dj))
            direction = (di // g, dj // g)
            src, ratio = _ghost_source(cs, mask, pts, node, direction, (di, dj))
            if src is not None:
                A[row, idx[src]] += (w / h**4) * ratio
    return A.tocsc(), B, grid, mask


def _scalar_system(cs: CrossSection, h: float):
    """Shortley-Weller -Laplacian with Dirichlet data on the true boundary."""
    _check_resolution(cs, h)
    grid, mask, pts = _domain_grid(cs, h)
    P = _restriction(mask)
    Lf = _laplacian(grid)
    A = (-(P @ Lf @ P.T)).tolil()

    idx = -np.ones(mask.shape, dtype=np.int64)
    idx[mask] = np.arange(mask.sum())
    ndim = mask.ndim
    for node in _ring_nodes(mask, reach=1):
        node = tuple(node)
        row = idx[node]
        for axis in range(ndim):
            thetas = []
            nbrs = []
            for s in (+1, -1):
                off = np.zeros(ndim, dtype=int)
                off[axis] = s
                nb = tuple(np.asarray(node) + off)
                in_range = all(0 <= i < n for i, n in zip(nb, mask.shape))
                if in_range and mask[nb]:
                    thetas.append(1.0)
                    nbrs.append(nb)
                else:
                    q = pts[node]
                    p = pts[node] + off * h
                    thetas.append(max(cs.crossing(q, p), 1e-6))
                    nbrs.append(None)
            tE, tW = thetas
            if tE == 1.0 and tW == 1.0:
                continue
            # remove the zero-ghost row contribution for this axis
            A[row, row] -= 2.0 / h**2
            for nb in nbrs:
                if nb is not None:
                    A[row, idx[nb]] += 1.0 / h**2
            # unequal-arm second difference, boundary value zero on cut arms
            denom = tE * tW * (tE + tW) * h**2
            A[row, row] += 2.0 * (tE + tW) / denom
            if nbrs[0] is not None:
                A[row, idx[nbrs[0]]] -= 2.0 * tW / denom
            if nbrs[1] is not None:
                A[row, idx[nbrs[1]]] -= 2.0 * tE / denom
    return A.tocsc(), grid, mask


# ---------------------------------------------------------------------------
# eigen solves
# ---------------------------------------------------------------------------

def _smallest_eig(A, B=None):
    """Smallest eigenpair of A x = lam B x by ARPACK shift-invert at zero.

    The start vector is fixed so that repeated solves agree bitwise.
    """
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    try:
        vals, vecs = spla.eigs(A, k=1, M=B, sigma=0, tol=1e-10, v0=v0)
    except spla.ArpackError as exc:
        raise IterationError(f"shift-invert eigensolve failed: {exc}") from exc
    lam, v = float(vals[0].real), vecs[:, 0].real
    Bv = B @ v if B is not None else v
    res = float(np.linalg.norm(A @ v - lam * Bv) /
                (abs(lam) * np.linalg.norm(Bv)))
    if not res <= 1e-6:
        raise IterationError(
            f"shift-invert eigenpair residual {res:.2e} above 1e-6",
            residual=res)
    return lam, v


def solve_nu_vector(cs: CrossSection, h: float) -> NuEstimate:
    """Cross-section constant via the clamped buckling eigenproblem."""
    nu, _, _, _, quot = _buckling_minimizer(cs, h)
    return NuEstimate(value=nu, grid_h=h, achieved_quotient=quot)


def _buckling_minimizer(cs, h):
    A, B, grid, mask = _buckling_system(cs, h)
    nu, v = _smallest_eig(A, B)
    psi = np.zeros(mask.shape)
    psi[mask] = v
    # fix the overall sign so repeated runs agree
    if psi.sum() < 0:
        psi = -psi
    # Rayleigh value of the minimizer in the discrete quadratic forms; at the
    # minimizer grad(Lap psi) = -nu grad(psi), so this equals the vector-field
    # quotient ||Lap g||/||g|| without differencing across the clamped edge.
    quot = float((v @ (A @ v)) / (v @ (B @ v)))
    return float(nu), psi, grid, mask, quot


def solve_nu_scalar(cs: CrossSection, h: float) -> NuEstimate:
    """Scalar-analog constant: smallest Dirichlet eigenvalue of -Laplace."""
    A, _, _ = _scalar_system(cs, h)
    lam, _ = _smallest_eig(A)
    return NuEstimate(value=lam, grid_h=h)


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


def make_test_field(cs: CrossSection, rho: float, h: float) -> TestField:
    """Mollified buckling minimizer as a compactly supported test field.

    The stream eigenfunction is multiplied by a quintic smoothstep of the
    boundary distance, zero within distance rho of the boundary and ramping
    up to one at depth (rho + inradius)/2; its rotated gradient is the returned
    divergence-free field, normalized to unit discrete L2 norm.  The wide
    ramp keeps the third-derivative cost of truncation as small as the
    margin allows.
    """
    if not (0 < rho < cs.inradius() / 2):
        raise GeometryError(
            f"margin rho={rho:g} must lie in (0, inradius/2={cs.inradius() / 2:g})")
    _, psi, grid, mask, _ = _buckling_minimizer(cs, h)
    mesh = grid.meshgrid()
    d = cs.boundary_distance(np.stack(mesh, axis=-1))
    ramp_top = 0.5 * (rho + cs.inradius())
    eta = smoothstep((d - rho) / (ramp_top - rho))
    eta[~mask] = 0.0
    stream = eta * psi
    if not np.any(stream):
        raise GeometryError("cutoff removed the whole field; rho too large")
    c1, c2 = _centered(grid)
    g = np.stack([c2 @ stream.ravel(), -(c1 @ stream.ravel())])
    cell = h * h
    nrm = np.sqrt(np.sum(g * g) * cell)
    g /= nrm
    stream = stream / nrm
    lap = _laplacian(grid)
    lap_g = np.stack([lap @ gc for gc in g])
    lap_norm_sq = float(np.sum(lap_g * lap_g) * cell)
    ip_lap = float(np.sum(lap_g * g) * cell)
    # forward differences are adjoint to the Laplacian: <g, Lap g> equals
    # -||grad g||^2 for fields supported away from the array edges
    fwd = differences(grid, ("pec",) * 2)
    grad_norm_sq = float(sum(np.sum((dk @ gc) ** 2) for gc in g
                             for dk in fwd) * cell)
    return TestField(g=g.reshape(2, *grid.shape), stream=stream, grid=grid,
                     support_margin=rho,
                     quotient=float(np.sqrt(lap_norm_sq)),
                     lap_norm_sq=lap_norm_sq, ip_lap=ip_lap,
                     grad_norm_sq=grad_norm_sq)


def divergence(tf: TestField) -> np.ndarray:
    """Discrete divergence of the test field (zero to rounding by build)."""
    c1, c2 = _centered(tf.grid)
    return (c1 @ tf.g[0].ravel() + c2 @ tf.g[1].ravel()).reshape(tf.grid.shape)


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

def refine_extrapolate(estimates) -> NuEstimate:
    """Richardson-extrapolate estimates assuming order-2 convergence.

    Accepts NuEstimate objects or bare (h, value) pairs.  Needs >= 3
    estimates at geometrically decreasing h; reports the observed order from
    the last three grids.  A non-monotone difference sequence is unsafe to
    extrapolate: it warns and returns the finest-grid value.
    """
    pairs = sorted(((float(e.grid_h), float(e.value))
                    if isinstance(e, NuEstimate) else (float(e[0]), float(e[1]))
                    for e in estimates), reverse=True)
    if len(pairs) < 3:
        raise ValidationError("need at least 3 estimates to extrapolate")
    hs = np.array([p[0] for p in pairs])
    vs = np.array([p[1] for p in pairs])
    diffs = np.diff(vs)
    if np.any(diffs[:-1] * diffs[1:] <= 0):
        warnings.warn("non-monotone refinement sequence; extrapolation unsafe",
                      RuntimeWarning)
        return NuEstimate(value=vs[-1], grid_h=hs[-1], extrapolated=False)
    r = hs[-3] / hs[-2]
    order = float(np.log(abs(diffs[-2] / diffs[-1])) / np.log(r))
    r_fine = hs[-2] / hs[-1]
    value = vs[-1] + (vs[-1] - vs[-2]) / (r_fine**2 - 1.0)
    return NuEstimate(value=float(value), grid_h=float(hs[-1]),
                      extrapolated=True, order=order)
