import itertools

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from gapguide.discrete_op import (_axis_wraps, _difference, _operator, curl,
                                  differences, gradient, harmonic_split,
                                  maxwell_operator, scalar_matrix)
from gapguide.errors import ValidationError
from gapguide.grids import GridSpec
from gapguide.cross_section import Box, Disk
from gapguide.media import (MediumSpec, SampledEpsilon, StripSpec,
                            build_medium, with_defect)


def _homog3(n=8, h=1 / 8):
    grid = GridSpec((n, n, n), (h, h, h))
    return SampledEpsilon(grid, np.ones((n, n, n)))


def _media_trio():
    g3 = GridSpec((8, 8, 8), (1 / 8, 1 / 8, 1 / 8), (-0.5, -0.5, -0.5))
    m3 = build_medium(MediumSpec(lattice=(1.0, 1.0, 1.0), inclusions=(
        (Box((0.25, 0.25, 0.25)), 4.0),)), g3)
    g2 = GridSpec((16, 16), (1 / 16, 1 / 16), (-0.5, -0.5))
    m2 = build_medium(MediumSpec(lattice=(1.0, 1.0), inclusions=(
        (Disk(0.2), 9.0),)), g2)
    gl = GridSpec((4, 64), (1 / 16, 1 / 32), (0.0, -1.0))
    ml = build_medium(MediumSpec(lattice=(0.25, 1.0), inclusions=(
        (Box((0.125, 0.1875)), 9.0),)), gl)
    return m3, m2, ml


def test_curl_grad_is_zero_exactly():
    # each entry of C G is one product minus the same product taken in the
    # other order, so the cancellation is bitwise, Bloch phases included
    for spacing, wraps in (
            ((1.0, 1.0, 1.0), (1.0, "pec", "pec")),
            ((1 / 8, 1 / 8, 1 / 8), (1.0, "pec", "pec")),
            ((1 / 8, 1 / 8, 1 / 8), (np.exp(0.7j), "pec", "pec")),
            ((0.2, 0.15, 0.3), (np.exp(0.7j), np.exp(-0.4j), 1.0))):
        grid = GridSpec((8, 8, 8), spacing)
        CG = curl(grid, wraps) @ gradient(grid, wraps)
        assert CG.shape == (3 * 512, 512)
        assert abs(CG).max() == 0.0


def test_curl_adjointness():
    # the operator is curl^H (1/eps) curl: homogeneous eps makes W = 1/eps
    grid = GridSpec((6, 7, 5), (0.2, 0.15, 0.3))
    eps = SampledEpsilon(grid, np.full(grid.shape, 2.5))
    wraps = (np.exp(0.7j * 6 * 0.2), "pec", "pec")
    C = curl(grid, wraps)
    A = maxwell_operator(eps, (0.7, None, None))
    assert abs(A - C.conj().T @ C / 2.5).max() <= 1e-12 * abs(A).max()


def test_maxwell_operator_is_sparse_and_hermitian():
    eps = _media_trio()[0]
    A = maxwell_operator(eps, (0.7, None, None))
    assert sp.issparse(A) and A.shape == (3 * 512, 3 * 512)
    assert abs(A - A.conj().T).max() <= 1e-12 * abs(A).max()


def test_scalar_matrix_is_hermitian():
    eps = _media_trio()[2]
    A = scalar_matrix(eps, (1.3, None))
    assert sp.issparse(A) and A.shape == (4 * 64, 4 * 64)
    assert abs(A - A.conj().T).max() <= 1e-12 * abs(A).max()


def test_identities_hold_over_media_and_fields():
    for eps in _media_trio():
        rep = oracles.check_identities(eps)
        assert rep["max_symmetry_violation"] <= 1e-12
        assert rep["min_quadratic_form"] >= -1e-12


def _plane_wave(grid, k):
    """Bloch-compatible discrete plane wave polarized against the symbol."""
    h = np.asarray(grid.spacing)
    K = (np.exp(1j * np.asarray(k) * h) - 1.0) / h
    rng = np.random.default_rng(5)
    r = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = r - K * np.vdot(K, r) / np.vdot(K, K)      # conj(K) . v = 0
    idx = np.indices(grid.shape)
    phase = np.exp(1j * sum(k[a] * h[a] * idx[a] for a in range(3)))
    return np.stack([v[c] * phase for c in range(3)])


@pytest.mark.parametrize("mk", [(1, 0, 0), (1, 1, 0), (2, 1, 1),
                                (0.11, -0.21, 0.46)])   # off the lattice
def test_plane_wave_matches_stencil_symbol(mk):
    # the Bloch plane wave of momentum k is an eigenvector of the operator
    # closed by the same momenta on all three axes
    eps = _homog3(16, 1 / 16)
    k = 2 * np.pi * np.asarray(mk, dtype=float)
    u = _plane_wave(eps.grid, k).ravel()
    lam = oracles.plane_wave_eigenvalue(k, eps.grid.spacing, 1.0)
    out = maxwell_operator(eps, tuple(k)) @ u
    num = np.vdot(u, out).real / np.vdot(u, u).real
    assert num == pytest.approx(lam, rel=5e-3)
    resid = np.linalg.norm(out - lam * u)
    assert resid <= 1e-10 * lam * np.linalg.norm(u)


@pytest.mark.parametrize("shape, spacing, k", [
    ((16,), (1 / 16,), (0.0,)),
    ((16,), (1 / 16,), (1.3,)),
    ((6, 8), (1 / 6, 1 / 4), (0.9, -0.4)),
])
def test_periodic_scalar_matches_symbol(shape, spacing, k):
    # homogeneous Bloch-periodic operator: eigenvalues are the symbol at
    # every momentum k_a + 2 pi m_a / L_a the grid carries
    eps_value = 2.5
    grid = GridSpec(shape, spacing)
    eps = SampledEpsilon(grid, np.full(shape, eps_value))
    A = scalar_matrix(eps, k)
    got = np.sort(np.linalg.eigvalsh(A.toarray()))
    h = np.asarray(spacing)
    m = np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"), -1)
    kk = np.asarray(k) + 2 * np.pi * m / (np.asarray(shape) * h)
    want = np.sort(np.sum((2 / h) ** 2 * np.sin(kk * h / 2) ** 2,
                          axis=-1).ravel() / eps_value)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * want.max())


def test_scalar_dirichlet_eigenfunction():
    n1, n2, h = 4, 31, 1 / 32
    grid = GridSpec((n1, n2), (h, h))
    eps = SampledEpsilon(grid, np.ones((n1, n2)))
    j = np.arange(n2)
    u = np.tile(np.sin(np.pi * (j + 1) / (n2 + 1)), n1)
    lam = (2 / h) ** 2 * np.sin(np.pi / (2 * (n2 + 1))) ** 2
    out = scalar_matrix(eps, (0.0, None)) @ u
    assert np.allclose(out, lam * u, rtol=1e-10, atol=1e-10)


def test_bloch_momentum_periodicity():
    eps = _media_trio()[2]
    a = eps.grid.shape[0] * eps.grid.spacing[0]
    A1 = scalar_matrix(eps, (0.9, None)).toarray()
    A2 = scalar_matrix(eps, (0.9 + 2 * np.pi / a, None)).toarray()
    v1 = np.sort(np.linalg.eigvalsh(A1))
    v2 = np.sort(np.linalg.eigvalsh(A2))
    assert np.allclose(v1, v2, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("kappa", [0.0, 0.7, 5.0, -3.1])
def test_one_cell_axial_slab_adds_the_axial_symbol(kappa):
    # on one axial cell the Bloch difference is the scalar
    # (e^{i kappa h1} - 1)/h1, so the slab operator is the Dirichlet
    # transverse operator T plus |e^{i kappa h1} - 1|^2/h1^2 diag(1/eps)
    h1, h2, n2 = 1 / 16, 1 / 32, 40
    inv = 1.0 / np.random.default_rng(3).uniform(1.0, 12.0, n2)
    faces = np.concatenate([inv[:1], 0.5 * (inv[:-1] + inv[1:]), inv[-1:]])
    T = (np.diag(faces[:-1] + faces[1:]) - np.diag(faces[1:-1], 1)
         - np.diag(faces[1:-1], -1)) / h2 ** 2
    s = abs(np.exp(1j * kappa * h1) - 1.0) ** 2 / h1 ** 2
    slab = SampledEpsilon(GridSpec((1, n2), (h1, h2)), 1.0 / inv[None, :])
    A = scalar_matrix(slab, (kappa, None)).toarray()
    want = T + s * np.diag(inv)
    assert np.allclose(A, want, rtol=0, atol=1e-13 * np.abs(want).max())
    d, e = harmonic_split(slab).block(kappa)
    assert np.isrealobj(d) and np.isrealobj(e)
    B = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.allclose(B, want, rtol=0, atol=1e-13 * np.abs(want).max())
    cell = SampledEpsilon(GridSpec((1,), (h1,)), np.array([4.0]))
    assert scalar_matrix(cell, (kappa,)).toarray() == pytest.approx(
        s / 4.0, rel=1e-12, abs=1e-12)


def test_harmonic_blocks_are_the_operator_on_bloch_waves():
    # the layered medium of _media_trio is constant along x1: on each lifted
    # block eigenvector the full operator acts as that block
    ml = _media_trio()[2]
    split = harmonic_split(ml)
    A = scalar_matrix(ml, (1.3, None))
    for kappa in split.kappas(1.3):
        d, e = split.block(kappa)
        assert np.isrealobj(d) and np.isrealobj(e)
        B = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.allclose(B, scalar_matrix(split.slab, (kappa, None))
                           .toarray(), rtol=0, atol=1e-13 * np.abs(B).max())
        _, vecs = np.linalg.eigh(B)
        for v in vecs.T[:3]:
            u = split.lift(kappa, v).ravel()
            assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
            assert np.allclose(A @ u, split.lift(kappa, B @ v).ravel(),
                               rtol=0, atol=1e-9 * np.abs(B).max())
    # a medium that varies along x1 is its own slab
    values = ml.values.copy()
    values[1, 10] *= 1.5
    varied = SampledEpsilon(ml.grid, values)
    for eps in (varied, *_media_trio()[:2]):    # 3D box and disk lattices
        assert harmonic_split(eps).slab is eps


def _guide3(n1=4, n=12):
    """A small 3D guide constant along x1: a disk strip in vacuum."""
    h = 1 / n
    grid = GridSpec((n1, n, n), (h, h, h), (0.0, -0.5, -0.5))
    strip = StripSpec(Disk(1.0), l=0.4, eps_inside=12.0)
    return with_defect(build_medium(MediumSpec(lattice=(1.0,)), grid), strip)


def test_harmonic_split_of_a_3d_guide_holds_the_whole_spectrum():
    eps, k1 = _guide3(), 0.7
    split = harmonic_split(eps)
    M = maxwell_operator(eps, (k1, None, None))
    assert M.shape == (1728, 1728)
    n = eps.grid.shape[1]
    slab = SampledEpsilon(GridSpec((1, n, n), eps.grid.spacing,
                                   eps.grid.origin), eps.values[:1])
    spectra = []
    for kappa in split.kappas(k1):
        B = split.block(kappa)
        ref = maxwell_operator(slab, (kappa, None, None))
        assert abs(B - ref).max() <= 1e-14 * abs(ref).max()
        vals, vecs = np.linalg.eigh(B.toarray())
        spectra.append(vals)
        for lam, v in zip(vals, vecs.T):
            u = split.lift(kappa, v)
            assert u.shape == (M.shape[0],)
            assert np.linalg.norm(M @ u - lam * u) <= 1e-10 * max(abs(lam), 1)
    full = np.linalg.eigvalsh(M.toarray())
    union = np.sort(np.concatenate(spectra))
    assert np.allclose(union, full, rtol=0, atol=1e-10 * full.max())


def _kron_difference(n, h, wrap):
    """The 1D difference as a sum of sparse diagonals, closed as
    `differences` closes it."""
    d = sp.eye(n, n, 1) - sp.eye(n)
    if wrap == "dirichlet":
        d = sp.vstack([sp.eye(1, n), d])
    elif not isinstance(wrap, str):
        d = d + wrap * sp.eye(n, n, 1 - n, format="csr")
    return sp.csr_matrix(d / h)


def _kron_differences(grid, wraps):
    """Each axis's difference lifted to the grid by Kronecker products with
    identities: the reference the index-array assembly must match bit for
    bit."""
    return [sp.kron(sp.kron(sp.identity(int(np.prod(grid.shape[:a]))),
                            _kron_difference(grid.shape[a], grid.spacing[a],
                                             wrap)),
                    sp.identity(int(np.prod(grid.shape[a + 1:]))),
                    format="csr")
            for a, wrap in enumerate(wraps)]


def _kron_curl(d0, d1, d2):
    return sp.bmat([[None, -d2, d1], [d2, None, -d0], [-d1, d0, None]],
                   format="csr")


def _same_values(A, B):
    """Same format, shape, dtype and values, bit for bit; the stored
    patterns may differ by explicit zeros."""
    return (A.format == B.format == "csr" and A.shape == B.shape
            and A.dtype == B.dtype
            and A.toarray().tobytes() == B.toarray().tobytes())


@pytest.mark.parametrize("shape", [
    (1,), (2,), (4,), (64,), (1, 9), (4, 9), (3, 2), (1, 3, 4), (4, 3, 2),
    (2, 1, 5)])
def test_assembly_is_bitwise_the_kronecker_one(shape):
    # same dtype and values as the Kronecker assembly, with no zero stored:
    # a dense Kronecker factor (n <= 4) stores its zeros, the stencil does
    # not.  A one-cell axis at Bloch phase 1 has no entries and stays real.
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    grid = GridSpec(shape, tuple(rng.choice([1 / 16, 2 / 96, 0.15, 0.3],
                                            len(shape))))
    kinds = ("dirichlet", "pec", 1.0, np.exp(0j), np.exp(0.7j))
    for n, h in zip(shape, grid.spacing):
        for wrap in kinds:
            assert np.all(_difference(n, h, wrap)[3] != 0)
    for wraps in itertools.product(kinds, repeat=len(shape)):
        want = _kron_differences(grid, wraps)
        got = differences(grid, wraps)
        assert all(np.all(d.data != 0) for d in got)
        assert all(map(_same_values, got, want))
        assert _same_values(gradient(grid, wraps),
                            sp.vstack(want, format="csr"))
        if len(shape) == 3 and "dirichlet" not in wraps:
            assert _same_values(curl(grid, wraps), _kron_curl(*want))
    # every closure, each axis walled or at a Bloch momentum on its own
    eps = SampledEpsilon(grid, rng.uniform(1.0, 12.0, shape))
    for momenta in itertools.product((None, 0.0, 0.7), repeat=len(shape)):
        wraps = _axis_wraps(grid, momenta)
        want = _kron_differences(grid, wraps)
        if len(shape) == 3:
            assert _same_values(maxwell_operator(eps, momenta),
                                _operator(eps, wraps, _kron_curl(*want)))
        else:
            assert _same_values(scalar_matrix(eps, momenta), _operator(
                eps, wraps, sp.vstack(want, format="csr")))


def test_closures_take_one_entry_per_axis():
    m3, m2, ml = _media_trio()
    for op, eps, momenta in ((maxwell_operator, m3, (0.7, None)),
                             (maxwell_operator, m3, (0.7, None, None, 0.0)),
                             (scalar_matrix, m2, (0.7,)),
                             (scalar_matrix, ml, (0.7, None, None))):
        with pytest.raises(ValidationError, match="one entry per axis"):
            op(eps, momenta)
    # a 3D medium's operator is the curl-curl, never the scalar one
    with pytest.raises(ValidationError, match="1D or 2D grid"):
        scalar_matrix(m3, (0.0, 0.0, 0.0))
    # and the curl-curl takes a 3D medium only
    m1 = SampledEpsilon(GridSpec((8,), (1 / 8,)), np.ones(8))
    for eps, momenta in ((m2, (0.0, None)), (ml, (0.7, None)), (m1, (0.0,))):
        with pytest.raises(ValidationError, match="3D grid, not [12]D"):
            maxwell_operator(eps, momenta)
