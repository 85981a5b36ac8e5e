import gc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvals
from scipy.optimize import linear_sum_assignment

import oracles
from gapguide import discrete_op, xsection
from gapguide.cross_section import Box, Disk, MaskSection
from gapguide.errors import GeometryError, IterationError, ValidationError
from gapguide.grids import GridSpec
from gapguide.xsection import (NuEstimate, _centered, _laplacian,
                               make_test_field, refine_extrapolate, smoothstep,
                               solve_nu_scalar, solve_nu_vector)

# the unit disk's grids are symmetric under both mirrors and the transpose,
# so its constant takes the eighth classes (+, +, +), (+, +, -), (-, -, +)
# and (-, -, -) and the quarter class (+, -); the first holds nu and is
# solved, the other four are ruled out
DISK_CLASSES = 5


def test_scalar_constant_interval():
    # 1D Dirichlet Laplacian on (-1, 1): pi^2 / 4
    est = solve_nu_scalar(Box((1.0,)), h=2 / 64)
    assert est.value == pytest.approx(np.pi**2 / 4, rel=5e-3)


def test_scalar_constant_disk():
    est = solve_nu_scalar(Disk(1.0), h=2 / 64)
    assert est.value == pytest.approx(oracles.J01_SQ, rel=1e-2)


def test_vector_constant_disk():
    est = solve_nu_vector(Disk(1.0), h=2 / 64)
    assert est.value == pytest.approx(oracles.J11_SQ, rel=1e-2)
    assert est.achieved_quotient == pytest.approx(est.value, rel=1e-6)


def test_vector_constant_scaling_covariance():
    # identical grids up to scaling: the discrete eigenvalue scales exactly
    base = solve_nu_vector(Disk(1.0), h=2 / 48)
    big = solve_nu_vector(Disk(2.0), h=4 / 48)
    assert big.value == pytest.approx(base.value / 4.0, rel=1e-8)


def test_vector_constant_square_converges_to_the_plate_oracle():
    # Box((1, 1)) has side 2; its boundary crossings come from bisection
    want = oracles.SQUARE_BUCKLING / 4.0
    ests = [solve_nu_vector(Box((1.0, 1.0)), h=2 / n) for n in (64, 96, 128)]
    errs = [e.value / want - 1.0 for e in ests]
    assert -3e-3 < errs[0] < errs[1] < errs[2] < 0      # from below, refining
    best = refine_extrapolate(ests)
    assert best.value == pytest.approx(want, rel=1e-4)
    assert 1.5 < best.order < 3.5


def test_buckling_solve_releases_its_lu(monkeypatch):
    factor, held = xsection._factor, []

    class Held:
        def __init__(self, lu):
            self.lu = lu
            self.nnz = lu.nnz

        def solve(self, x):
            return self.lu.solve(x)

    def tracked(*args):
        lu = Held(factor(*args))
        held.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(xsection, "_factor", tracked)
    gc.disable()            # only reference counting may free the LUs
    try:
        est = solve_nu_vector(Disk(1.0), h=2 / 48)
        assert len(held) == est.classes_solved == 1
        assert est.classes_solved + est.classes_ruled_out == DISK_CLASSES
        assert all(lu() is None for lu in held)
    finally:
        gc.enable()


@pytest.mark.parametrize("solve", [solve_nu_vector, solve_nu_scalar])
def test_constant_solve_leaves_no_unreachable_objects(solve):
    # ARPACK given a mass matrix left its parameter object in a reference
    # cycle with the workspace and the LU: 87 unreachable objects here
    gc.collect()
    gc.disable()
    try:
        solve(Disk(1.0), 2 / 96)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _count_classes(monkeypatch):
    """The classes the constant solves take, in order: "solved" for each
    class LU, "ruled out" for each class the banded Cholesky rules out."""
    factor, ruled_out, seen = xsection._factor, xsection._ruled_out, []

    def solved(*args):
        seen.append("solved")
        return factor(*args)

    def checked(*args):
        out = ruled_out(*args)
        if out:
            seen.append("ruled out")
        return out

    monkeypatch.setattr(xsection, "_factor", solved)
    monkeypatch.setattr(xsection, "_ruled_out", checked)
    return seen


def _same_field(a, b):
    return (np.array_equal(a.g, b.g) and np.array_equal(a.stream, b.stream)
            and (a.quotient, a.spectral_lap_norm_sq, a.spectral_ip_lap)
            == (b.quotient, b.spectral_lap_norm_sq, b.spectral_ip_lap))


def test_one_buckling_solve_per_section_and_spacing(monkeypatch):
    h, rhos = 2 / 48, (0.1, 0.2, 0.3)
    fresh = [make_test_field(Disk(1.0), rho, h) for rho in rhos]
    fresh_nu = solve_nu_vector(Disk(1.0), h)
    seen = _count_classes(monkeypatch)

    def solves(k):
        # k buckling solves, each solving one class and ruling out the rest
        return (len(seen) == k * DISK_CLASSES
                and seen.count("solved") == k)

    cs = Disk(1.0)
    nu = solve_nu_vector(cs, h)
    kept = [make_test_field(cs, rho, h) for rho in rhos]
    assert solves(1)
    assert (nu.value, nu.achieved_quotient) == \
        (fresh_nu.value, fresh_nu.achieved_quotient)
    assert all(_same_field(a, b) for a, b in zip(kept, fresh))
    # the kept minimizer also answers a repeat of the constant itself
    assert solve_nu_vector(cs, h) == nu and solves(1)
    # an equal but distinct object solves again
    other = Disk(1.0)
    assert other == cs
    assert _same_field(make_test_field(other, rhos[0], h), kept[0])
    assert solves(2)
    # so does the same object at another spacing, which replaces the entry
    solve_nu_vector(cs, 2 / 40)
    assert solves(3)
    assert _same_field(make_test_field(cs, rhos[0], h), kept[0])
    assert solves(4)


def test_kept_minimizer_is_read_only():
    cs = Disk(1.0)
    make_test_field(cs, 0.2, 2 / 48)
    _, psi, _, mask, _, _ = xsection._buckling_minimizer(cs, 2 / 48)
    with pytest.raises(ValueError):
        psi[0, 0] = 1.0
    with pytest.raises(ValueError):
        mask[0, 0] = True


def test_resolution_guard():
    with pytest.raises(GeometryError):
        solve_nu_vector(Disk(1.0), h=0.2)
    # a spacing that is not positive is refused, not divided by or solved at
    for h in (0.0, -0.02, float("nan")):
        for solve in (solve_nu_vector, solve_nu_scalar):
            with pytest.raises(ValidationError, match="not positive"):
                solve(Disk(1.0), h=h)
        with pytest.raises(ValidationError, match="not positive"):
            make_test_field(Disk(1.0), rho=0.15, h=h)


@pytest.mark.parametrize("shape", [(3, 5), (6,)])
def test_laplacian_is_the_closed_form_stencil(shape):
    # 5-point (3-point in 1D) stencil with zero ghosts; h = 1/4 keeps every
    # entry exact, so the comparison is bitwise
    h = 0.25
    n = int(np.prod(shape))
    want = np.zeros((n, n))
    for i, node in enumerate(np.ndindex(*shape)):
        want[i, i] = -2 * len(shape) / h**2
        for axis in range(len(shape)):
            for step in (-1, 1):
                nb = list(node)
                nb[axis] += step
                if 0 <= nb[axis] < shape[axis]:
                    want[i, np.ravel_multi_index(nb, shape)] = 1 / h**2
    got = _laplacian(GridSpec(shape, (h,) * len(shape))).toarray()
    assert np.array_equal(got, want)


def test_test_field_is_divergence_free_and_normalized():
    tf = make_test_field(Disk(1.0), rho=0.15, h=2 / 48)
    scale = np.max(np.abs(tf.g)) / min(tf.grid.spacing)
    c1, c2 = _centered(discrete_op.differences(tf.grid, ("pec",) * 2))
    div = c1 @ tf.g[0].ravel() + c2 @ tf.g[1].ravel()
    assert np.max(np.abs(div)) <= 1e-12 * scale
    nrm = np.sqrt(np.sum(tf.g**2) * tf.grid.cell_volume)
    assert nrm == pytest.approx(1.0, abs=1e-12)


def test_quotient_one_sided_bound_and_monotone_in_margin():
    nu = solve_nu_vector(Disk(1.0), h=2 / 48).value
    q_small = make_test_field(Disk(1.0), rho=0.1, h=2 / 48).quotient
    q_big = make_test_field(Disk(1.0), rho=0.3, h=2 / 48).quotient
    assert q_small >= nu * (1 - 1e-3)
    assert q_big >= nu * (1 - 1e-3)
    assert q_big > q_small          # wider cutoff costs more


def test_test_field_ibp_identity():
    tf = make_test_field(Disk(1.0), rho=0.15, h=2 / 48)
    ip_lap, grad_norm_sq = oracles.field_ibp_terms(tf)
    assert ip_lap == pytest.approx(-grad_norm_sq, rel=1e-8)


def test_test_field_margin_validation():
    with pytest.raises(GeometryError):
        make_test_field(Disk(1.0), rho=0.6, h=2 / 48)
    with pytest.raises(GeometryError):
        make_test_field(Disk(1.0), rho=0.0, h=2 / 48)


def test_refine_extrapolate_exact_second_order():
    hs = [0.2, 0.1, 0.05]
    exact, c = 14.0, 3.0
    ests = [NuEstimate(exact + c * h**2, h) for h in hs]
    out = refine_extrapolate(ests)
    assert out.value == pytest.approx(exact, abs=1e-10)
    assert out.order == pytest.approx(2.0, abs=1e-8)
    assert out.record()["extrapolated"]
    assert out.lu_fill is None


def test_refine_extrapolate_accepts_estimates_and_needs_three():
    ests = [NuEstimate(14.0 + h**2, h) for h in (0.2, 0.1, 0.05)]
    assert refine_extrapolate(ests).value == pytest.approx(14.0, abs=1e-10)
    with pytest.raises(ValidationError):
        refine_extrapolate(ests[:2])


def test_refine_extrapolate_warns_on_non_monotone():
    ests = [NuEstimate(v, h) for h, v in ((0.2, 14.2), (0.1, 13.9),
                                          (0.05, 14.05))]
    with pytest.warns(RuntimeWarning):
        out = refine_extrapolate(ests)
    assert out.value == pytest.approx(14.05)
    assert not out.record()["extrapolated"]


def test_nu_estimate_must_be_positive():
    with pytest.raises(ValidationError):
        NuEstimate(value=-1.0, grid_h=0.1)


def test_smoothstep_endpoints_and_derivative():
    t = np.array([-1.0, 0.0, 1.0, 2.0])
    assert np.allclose(smoothstep(t), [0.0, 0.0, 1.0, 1.0])
    eps = 1e-6
    assert smoothstep(np.array([eps]))[0] < 1e-12      # flat start (C^2)
    assert 1 - smoothstep(np.array([1 - eps]))[0] < 1e-12


def test_smoothstep_monotone():
    # the float quintic is monotone only up to rounding: Horner's rule on
    # coefficients up to 15 in size steps down by up to 10.5 ulps of 1 on
    # this grid (494 of its steps go down, all within 1e-4 of t = 1)
    ulps = 16 * np.spacing(1.0)
    t = np.concatenate([np.linspace(0.0, 1.0, 2_000_001),
                        1.0 - np.logspace(-16, -1, 2001)])
    t.sort()
    assert np.all(np.diff(smoothstep(t)) >= -ulps)
    # evaluated one point at a time, S(1 - 2^-52) reads 0.9999999999999993,
    # 3.5 ulps of 1 below S(1 - 1e-10) = 1.0
    near, nearer = (smoothstep(np.array(x)) for x in (1 - 1e-10, 1 - 2.0**-52))
    assert near == 1.0 and nearer >= near - ulps


# ---------------------------------------------------------------------------
# batched boundary closures against the per-node loop they replace
# ---------------------------------------------------------------------------

def _mask_disk():
    x = (np.arange(80) + 0.5) / 40 - 1.0
    inside = x[:, None] ** 2 + x[None, :] ** 2 < 0.9
    return MaskSection(inside, 1 / 40, origin=(-1.0, -1.0))


_SECTIONS = {"disk": Disk(1.0, (0.13, -0.07)),
             "rect": Box((1.0, 0.7), (0.05, 0.1)),
             "mask": _mask_disk(),
             "interval": Box((1.0,), (0.01,))}


def _buckling_loop(cs, h):
    """Bilaplacian with ghost values eliminated one ring node at a time."""
    grid, mask, pts = xsection._domain_grid(cs, h)
    P = xsection._restriction(mask)
    Lf = xsection._laplacian(grid)
    A = (P @ (Lf @ Lf) @ P.T).tolil()
    idx = xsection._node_index(mask)
    for node in xsection._ring_nodes(mask, reach=2):
        for di, dj, w in xsection._BILAP_OFFSETS:
            out = node + (di, dj)
            if mask[tuple(out)]:
                continue
            direction = np.sign((di, dj))
            q, p = pts[tuple(node)], pts[tuple(out)]
            b = q + cs.crossing(q, p) * (p - q)
            best = None
            for m in range(3):
                src = tuple(node - m * direction)
                d_src = np.linalg.norm(pts[src] - b)
                if mask[src] and (best is None or d_src > best[0]):
                    best = (d_src, src)
            ratio = (np.linalg.norm(p - b) / best[0]) ** 2
            A[idx[tuple(node)], idx[best[1]]] += (w / h**4) * ratio
    return A


def _scalar_loop(cs, h):
    """Shortley-Weller rows rebuilt one ring node and axis at a time."""
    grid, mask, pts = xsection._domain_grid(cs, h)
    P = xsection._restriction(mask)
    A = (-(P @ xsection._laplacian(grid) @ P.T)).tolil()
    idx = xsection._node_index(mask)
    for node in xsection._ring_nodes(mask, reach=1):
        row = idx[tuple(node)]
        for off in np.eye(mask.ndim, dtype=int):
            thetas, nbrs = [], []
            for nb, step in ((node + off, off), (node - off, -off)):
                if mask[tuple(nb)]:
                    thetas.append(1.0)
                    nbrs.append(idx[tuple(nb)])
                else:
                    q = pts[tuple(node)]
                    thetas.append(max(cs.crossing(q, q + step * h), 1e-6))
                    nbrs.append(None)
            tE, tW = thetas
            if tE == 1.0 and tW == 1.0:
                continue
            A[row, row] -= 2.0 / h**2
            denom = tE * tW * (tE + tW) * h**2
            A[row, row] += 2.0 * (tE + tW) / denom
            for col, t_other in zip(nbrs, (tW, tE)):
                if col is not None:
                    A[row, col] += 1.0 / h**2 - 2.0 * t_other / denom
    return A


def _assert_same_matrix(got, want):
    got, want = sp.csr_matrix(got), sp.csr_matrix(want)
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    scale = np.max(np.abs(want.data))
    assert np.max(np.abs(got.data - want.data)) <= 1e-14 * scale


@pytest.mark.parametrize("name", sorted(_SECTIONS))
def test_batched_assembly_matches_a_per_node_loop(name):
    cs, h = _SECTIONS[name], 2 / 64
    S, _, _, _ = xsection._scalar_system(cs, h)
    _assert_same_matrix(S, _scalar_loop(cs, h))
    if cs.ndim == 2:
        A, _, _, _, _ = xsection._buckling_system(cs, h)
        _assert_same_matrix(A, _buckling_loop(cs, h))


@pytest.mark.parametrize("name", ["disk", "rect", "interval"])
def test_assembly_crosses_once_per_stencil_offset(name, monkeypatch):
    cs, h = _SECTIONS[name], 2 / 64
    calls = []
    crossing = type(cs).crossing

    def counted(self, q, p):
        calls.append(len(q))
        return crossing(self, q, p)

    monkeypatch.setattr(type(cs), "crossing", counted)
    _, mask, _ = xsection._domain_grid(cs, h)
    if cs.ndim == 2:
        xsection._buckling_system(cs, h)
        assert len(calls) <= len(xsection._BILAP_OFFSETS) == 12
        assert len(xsection._ring_nodes(mask, reach=2)) > 12
        calls.clear()
    xsection._scalar_system(cs, h)
    assert 0 < len(calls) <= 2 * cs.ndim


@pytest.mark.parametrize("cs, h", [(Disk(1.0), 2 / 96), (Disk(1.0), 2 / 192),
                                   (_mask_disk(), 2 / 96)])
def test_ring_nodes_match_binary_erosion(cs, h):
    ndimage = pytest.importorskip("scipy.ndimage")
    _, mask, _ = xsection._domain_grid(cs, h)
    for reach in (1, 2):
        square = np.ones((2 * reach + 1,) * 2, dtype=bool)
        core = ndimage.binary_erosion(mask, structure=square, border_value=0)
        assert np.array_equal(xsection._ring_nodes(mask, reach),
                              np.argwhere(mask & ~core))


# ---------------------------------------------------------------------------
# mirror-symmetry classes against the unfolded solve
# ---------------------------------------------------------------------------

def _unfolded_eig(A, B=None):
    """Smallest eigenpair on the whole grid: ARPACK shift-invert at zero,
    no symmetry fold."""
    n = A.shape[0]
    lu = discrete_op._factor(A, 0.0, 1e-2)
    opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    vals, vecs = spla.eigs(A, k=1, M=B, sigma=0, tol=1e-10, OPinv=opinv,
                           v0=np.random.default_rng(0).standard_normal(n))
    return float(vals[0].real), vecs[:, 0].real


def _notched_square():
    """A square with one corner cut away: no mirror of its grid holds."""
    inside = np.ones((40, 40), dtype=bool)
    inside[28:, 30:] = False
    return MaskSection(inside, 1 / 20, origin=(-1.0, -1.0))


@dataclass(frozen=True)
class _Lopsided(Disk):
    """The unit disk with its crossings on the x1 > 0 side drawn in by 1e-3:
    its node mask keeps both mirrors and the transpose, its buckling matrix
    keeps only the mirror x2 -> -x2."""

    def crossing(self, q, p):
        t = Disk.crossing(self, q, p)
        return np.where(np.asarray(q)[..., 0] > 0, (1 - 1e-3) * t, t)


# (section, spacing, classes, classes solved); a fresh section each time,
# since a kept minimizer would answer without a solve
_FOLDS = {
    "disk-96": (lambda: Disk(1.0), 2 / 96, DISK_CLASSES, 1),
    "disk-128": (lambda: Disk(1.0), 2 / 128, DISK_CLASSES, 1),
    "disk-192": (lambda: Disk(1.0), 2 / 192, DISK_CLASSES, 1),
    # the lowest mode is odd in x1 (class (-, +) at 9.48707), where the even
    # class (+, +), solved first, gives 9.57122; the mask is not square, so
    # (+, -) is a class too
    "rect-3x1": (lambda: Box((3.0, 1.0)), 2 / 48, 4, 2),
    # 71 x 71 nodes: both mirror lines pass through nodes
    "square-65": (lambda: Box((1.0, 1.0)), 2 / 65, DISK_CLASSES, 1),
    # 70 x 70 nodes whose centre lies half a cell off the square's: the
    # mask is not symmetric
    "square-63": (lambda: Box((1.0, 1.0)), 2 / 63, 1, 1),
    "notched-mask": (_notched_square, 2 / 48, 1, 1),
    "lopsided-disk": (lambda: _Lopsided(1.0), 2 / 48, 2, 1),
}


def _mask_mirrors(mask):
    """Node relabellings of every mirror the mask admits: its flips and
    its transpose."""
    idx = xsection._node_index(mask)
    perms = [np.flip(idx, axis)[mask] for axis in range(mask.ndim)
             if np.array_equal(mask, np.flip(mask, axis))]
    if mask.shape[0] == mask.shape[-1] and np.array_equal(mask, mask.T):
        perms.append(idx.T[mask])
    return perms


@pytest.mark.parametrize("name", [*_FOLDS, "scalar-disk"])
def test_interior_operators_keep_every_mirror_of_the_mask(name):
    # the premise of checking only the boundary closure: the interior
    # stencils of both systems are bitwise invariant under every mirror of
    # the mask, so only the closure can break one
    make, h, *_ = _FOLDS.get(name, (lambda: Disk(1.0), 2 / 96))
    grid, mask, _ = xsection._domain_grid(make(), h)
    P = xsection._restriction(mask)
    Lf = xsection._laplacian(grid)
    interior = (P @ (Lf @ Lf) @ P.T, -(P @ Lf @ P.T))
    perms = _mask_mirrors(mask)
    # both flips and the transpose, but the 3 x 1 grid is not square, the
    # off-centre square keeps only its transpose and the notch breaks all
    counts = {"rect-3x1": 2, "square-63": 1, "notched-mask": 0}
    assert len(perms) == counts.get(name, 3)
    for perm in perms:
        for M in interior:
            assert abs(M[perm][:, perm] - M).max() == 0.0
    # and the systems are built on exactly these stencils
    if name == "scalar-disk":
        A, cuts, _, _ = xsection._scalar_system(make(), h)
        built = [(A, (interior[1] + cuts).tocsc())]
    else:
        A, B, ghosts, _, _ = xsection._buckling_system(make(), h)
        built = [(A, (interior[0] + ghosts).tocsc()), (B, interior[1].tocsr())]
    for M, want in built:
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(M, part), getattr(want, part))


@pytest.mark.parametrize("name", list(_FOLDS))
def test_symmetry_classes_match_the_unfolded_solve(name, monkeypatch):
    make, h, classes, solved = _FOLDS[name]
    A, B, _, _, _ = xsection._buckling_system(make(), h)
    lam, v = _unfolded_eig(A, B)
    seen = _count_classes(monkeypatch)
    est = solve_nu_vector(make(), h)
    assert est.value == pytest.approx(lam, rel=1e-9)
    quot = (v @ (A @ v)) / (v @ (B @ v))
    assert est.achieved_quotient == pytest.approx(quot, rel=1e-9)
    assert len(seen) == classes and seen.count("solved") == solved
    assert (est.classes_solved, est.classes_ruled_out) == \
        (solved, classes - solved)


def test_scalar_symmetry_classes_match_the_unfolded_solve(monkeypatch):
    h = 2 / 96
    A, _, _, _ = xsection._scalar_system(Disk(1.0), h)
    lam, _ = _unfolded_eig(A)
    seen = _count_classes(monkeypatch)
    est = solve_nu_scalar(Disk(1.0), h)
    assert est.value == pytest.approx(lam, rel=1e-9)
    assert len(seen) == DISK_CLASSES and seen.count("solved") == 1
    assert (est.classes_solved, est.classes_ruled_out) == (1, 4)


def _class_pencils(name):
    """The folded blocks (A_c, B_c) of every class of a `_FOLDS` section's
    buckling problem, or of the unit disk's scalar one at 2/96."""
    if name == "scalar-disk":
        A, cuts, _, mask = xsection._scalar_system(Disk(1.0), 2 / 96)
        B, closure = sp.eye(A.shape[0], format="csr"), cuts
    else:
        make, h, *_ = _FOLDS[name]
        A, B, closure, _, mask = xsection._buckling_system(make(), h)
    return [(A[rows] @ E, B[rows] @ E)
            for rows, E in xsection._symmetry_classes(mask, closure)]


@pytest.mark.parametrize("name", [*_FOLDS, "scalar-disk"])
def test_rule_out_check_brackets_each_class_eigenvalue(name):
    # Bendixson: no class eigenvalue lies below the least eigenvalue of the
    # symmetric part, so the check fails at the class's own eigenvalue; the
    # bound lies within 1 % of it, so the check passes 1 % below
    for A_c, B_c in _class_pencils(name):
        mu, _, _ = xsection._arpack_smallest(A_c, B_c.sorted_indices())
        assert xsection._ruled_out(A_c, B_c, 0.99 * mu)
        assert not xsection._ruled_out(A_c, B_c, mu)


@pytest.mark.parametrize("solve", [solve_nu_vector, solve_nu_scalar])
def test_classes_in_reverse_order_are_all_solved_to_the_same_answer(
        solve, monkeypatch):
    # (-, -, -), (-, -, +), (+, +, -), (+, -), then (+, +, +): for both
    # constants at 2/96 each later class lies below the last (the eighths
    # (+, +, -) and (-, -, +), one pair on the true disk, split by 2e-4 and
    # 7e-4 relative), so none is ruled out and the winner is found by the
    # class solve of the usual order
    h, first, last = 2 / 96, Disk(1.0), Disk(1.0)
    usual = solve(first, h)
    classes = xsection._symmetry_classes
    order = (4, 3, 1, 2, 0)
    monkeypatch.setattr(
        xsection, "_symmetry_classes",
        lambda mask, closure: [list(classes(mask, closure))[i] for i in order])
    reverse = solve(last, h)
    assert (reverse.classes_solved, reverse.classes_ruled_out) == \
        (DISK_CLASSES, 0)
    assert (usual.classes_solved, usual.classes_ruled_out) == (1, 4)
    assert (reverse.value, reverse.achieved_quotient) == \
        (usual.value, usual.achieved_quotient)
    if solve is solve_nu_vector:
        # the kept minimizers, without a further solve
        assert np.array_equal(xsection._buckling_minimizer(first, h)[1],
                              xsection._buckling_minimizer(last, h)[1])


def _eye_fold(mask, axes, signs):
    """(rows, E) of the class with `signs` on the flips of `axes`, built as
    an identity restricted to the quadrant columns plus its mirrored rows:
    the reference for `xsection._fold`'s one COO pass."""
    idx = xsection._node_index(mask)
    middle = np.array(mask.shape)[list(axes)] - 1
    node = 2 * np.argwhere(mask)[:, list(axes)]
    quadrant = np.all(node <= middle, axis=1)
    on_line = node == middle
    rows = np.flatnonzero(
        quadrant & ~np.any(on_line & (np.array(signs) < 0), axis=1))
    E = sp.eye(int(mask.sum()), format="csr")[:, rows]
    for axis, s in zip(axes, signs):
        E = E + s * E[np.flip(idx, axis)[mask]]
    return rows, E


# the quarter classes of each section: (position among the classes, the
# mirrored axes, their signs)
_QUARTERS = {
    "rect-3x1": [(k, (0, 1), signs) for k, signs in
                 enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)])],
    "lopsided-disk": [(0, (1,), (1,)), (1, (1,), (-1,))],
    "disk-96": [(2, (0, 1), (1, -1))],
}


@pytest.mark.parametrize("name", list(_QUARTERS))
def test_quarter_classes_are_the_identity_construction(name):
    make, h, *_ = _FOLDS[name]
    _, _, closure, _, mask = xsection._buckling_system(make(), h)
    classes = list(xsection._symmetry_classes(mask, closure))
    for k, axes, signs in _QUARTERS[name]:
        rows, E = classes[k]
        want_rows, want = _eye_fold(mask, axes, signs)
        assert np.array_equal(rows, want_rows)
        assert E.shape == want.shape and E.dtype == want.dtype
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(E, part), getattr(want, part))


def _matched(got, want):
    """Largest relative distance of the multiset `got` from `want` under
    the pairing that minimizes the sum of those distances."""
    rel = np.abs(got[:, None] - want[None, :]) / np.abs(want[None, :])
    i, j = linear_sum_assignment(rel)
    return rel[i, j].max()


@pytest.mark.parametrize("cs, h", [(Disk(1.0), 2 / 48),
                                   (Box((1.0, 1.0)), 2 / 43)],
                         ids=["disk-48", "square-43"])
def test_eighth_classes_keep_every_eigenvalue_of_their_quarter(cs, h):
    # the transpose splits the quarter classes (+, +) and (-, -) into two
    # eighths each; together they hold the quarter's whole spectrum.  The
    # square's 49 x 49 nodes put a node on every mirror line
    A, B, closure, _, mask = xsection._buckling_system(cs, h)
    classes = list(xsection._symmetry_classes(mask, closure))
    assert len(classes) == 5
    eighths = {(1, 1): classes[:2], (-1, -1): classes[3:]}
    for signs, pair in eighths.items():
        rows, E = _eye_fold(mask, (0, 1), signs)
        want = eigvals(A[rows].dot(E).toarray(), B[rows].dot(E).toarray())
        got = np.concatenate([
            eigvals(A[r].dot(F).toarray(), B[r].dot(F).toarray())
            for r, F in pair])
        assert len(got) == len(want) == len(rows)
        assert _matched(got, want) <= 1e-9


@pytest.mark.parametrize("solve", [solve_nu_vector, solve_nu_scalar])
def test_disk_constant_factors_one_eighth(solve, monkeypatch):
    # one LU, on the eighth (+, +, +) of 921 unknowns at 2/96; the estimate
    # states its fill
    factor, lus = xsection._factor, []

    def recorded(A, sigma, thresh):
        lus.append((A.shape, factor(A, sigma, thresh)))
        return lus[-1][1]

    monkeypatch.setattr(xsection, "_factor", recorded)
    est = solve(Disk(1.0), 2 / 96)
    assert [shape for shape, _ in lus] == [(921, 921)]
    assert est.lu_fill == lus[0][1].nnz > 0


def test_a_wrong_fold_fails_the_full_residual(monkeypatch):
    # folding the lopsided disk by the mirror its operator lacks solves the
    # unperturbed half; only the residual against the full operators sees it
    monkeypatch.setattr(xsection, "_commutes", lambda perm, closure: True)
    with pytest.raises(IterationError, match="residual"):
        solve_nu_vector(_Lopsided(1.0), 2 / 48)
