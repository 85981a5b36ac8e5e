import numpy as np
import pytest
import scipy.sparse as sp

from gapguide.discrete_op import (ScalarField2, check_identities, curl,
                                  gradient, harmonic_split, maxwell_operator,
                                  plane_wave_eigenvalue, scalar_matrix)
from gapguide.errors import ValidationError
from gapguide.grids import GridSpec
from gapguide.cross_section import Disk
from gapguide.media import (BoxInclusion, DiskInclusion, MediumSpec,
                            SampledEpsilon, StripSpec, build_medium,
                            with_defect)


def _homog3(n=8, h=1 / 8):
    grid = GridSpec((n, n, n), (h, h, h))
    return SampledEpsilon(grid, np.ones((n, n, n)))


def _media_trio():
    g3 = GridSpec((8, 8, 8), (1 / 8, 1 / 8, 1 / 8), (-0.5, -0.5, -0.5))
    m3 = build_medium(MediumSpec(lattice=(1.0, 1.0, 1.0), inclusions=(
        BoxInclusion((-0.25, -0.25, -0.25), (0.25, 0.25, 0.25), 4.0),)), g3)
    g2 = GridSpec((16, 16), (1 / 16, 1 / 16), (-0.5, -0.5))
    m2 = build_medium(MediumSpec(lattice=(1.0, 1.0), inclusions=(
        DiskInclusion((0.0, 0.0), 0.2, 9.0),)), g2)
    gl = GridSpec((4, 64), (1 / 16, 1 / 32), (0.0, -1.0))
    ml = build_medium(MediumSpec(lattice=(0.25, 1.0), inclusions=(
        BoxInclusion((-0.125, -0.1875), (0.125, 0.1875), 9.0),)), gl)
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
    A = maxwell_operator(eps, bloch_k1=0.7, transverse_bc="pec")
    assert abs(A - C.conj().T @ C / 2.5).max() <= 1e-12 * abs(A).max()


def test_maxwell_operator_is_sparse_and_hermitian():
    eps = _media_trio()[0]
    A = maxwell_operator(eps, bloch_k1=0.7, transverse_bc="pec")
    assert sp.issparse(A) and A.shape == (3 * 512, 3 * 512)
    assert abs(A - A.conj().T).max() <= 1e-12 * abs(A).max()


def test_scalar_matrix_is_hermitian():
    eps = _media_trio()[2]
    A = scalar_matrix(eps, bloch_k1=1.3)
    assert sp.issparse(A) and A.shape == (4 * 64, 4 * 64)
    assert abs(A - A.conj().T).max() <= 1e-12 * abs(A).max()


def test_identities_hold_over_media_and_fields():
    for eps in _media_trio():
        rep = check_identities(eps)
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


@pytest.mark.parametrize("mk", [(1, 0, 0), (1, 1, 0), (2, 1, 1)])
def test_plane_wave_matches_stencil_symbol(mk):
    eps = _homog3(16, 1 / 16)
    k = 2 * np.pi * np.asarray(mk, dtype=float)
    u = _plane_wave(eps.grid, k).ravel()
    lam = plane_wave_eigenvalue(k, eps.grid.spacing, 1.0)
    out = maxwell_operator(eps, bloch_k1=k[0], transverse_bc="periodic") @ u
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
    A = scalar_matrix(eps, k[0], "periodic", *k[1:])
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
    out = scalar_matrix(eps, bloch_k1=0.0) @ u
    assert np.allclose(out, lam * u, rtol=1e-10, atol=1e-10)


def test_bloch_momentum_periodicity():
    eps = _media_trio()[2]
    a = eps.grid.shape[0] * eps.grid.spacing[0]
    A1 = scalar_matrix(eps, bloch_k1=0.9).toarray()
    A2 = scalar_matrix(eps, bloch_k1=0.9 + 2 * np.pi / a).toarray()
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
    A = scalar_matrix(slab, bloch_k1=kappa).toarray()
    want = T + s * np.diag(inv)
    assert np.allclose(A, want, rtol=0, atol=1e-13 * np.abs(want).max())
    B = harmonic_split(slab).block(kappa).toarray()
    assert np.isrealobj(B)
    assert np.allclose(B, want, rtol=0, atol=1e-13 * np.abs(want).max())
    cell = SampledEpsilon(GridSpec((1,), (h1,)), np.array([4.0]))
    assert scalar_matrix(cell, bloch_k1=kappa).toarray() == pytest.approx(
        s / 4.0, rel=1e-12, abs=1e-12)


def test_harmonic_blocks_are_the_operator_on_bloch_waves():
    # the layered medium of _media_trio is constant along x1: on each lifted
    # block eigenvector the full operator acts as that block
    ml = _media_trio()[2]
    split = harmonic_split(ml)
    A = scalar_matrix(ml, bloch_k1=1.3, transverse_bc="dirichlet")
    for kappa in split.kappas(1.3):
        B = split.block(kappa).toarray()
        assert np.isrealobj(B) and np.array_equal(B, B.T)
        _, vecs = np.linalg.eigh(B)
        for v in vecs.T[:3]:
            u = split.lift(kappa, v).ravel()
            assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
            assert np.allclose(A @ u, split.lift(kappa, B @ v).ravel(),
                               rtol=0, atol=1e-9 * np.abs(B).max())
    varied = ml.values.copy()
    varied[1, 10] *= 1.5
    assert harmonic_split(SampledEpsilon(ml.grid, varied)) is None
    assert harmonic_split(_media_trio()[1]) is None      # disk lattice
    assert harmonic_split(_media_trio()[0]) is None      # 3D box lattice


def _guide3(n1=4, n=12):
    """A small 3D guide constant along x1: a disk strip in vacuum."""
    h = 1 / n
    grid = GridSpec((n1, n, n), (h, h, h), (0.0, -0.5, -0.5))
    strip = StripSpec(Disk(1.0), l=0.4, eps_inside=12.0)
    return with_defect(build_medium(MediumSpec(lattice=(1.0,)), grid), strip)


def test_harmonic_split_of_a_3d_guide_holds_the_whole_spectrum():
    eps, k1 = _guide3(), 0.7
    split = harmonic_split(eps)
    M = maxwell_operator(eps, bloch_k1=k1)
    assert split.Q.nnz and M.shape == (1728, 1728)
    n = eps.grid.shape[1]
    slab = SampledEpsilon(GridSpec((1, n, n), eps.grid.spacing,
                                   eps.grid.origin), eps.values[:1])
    spectra = []
    for kappa in split.kappas(k1):
        B = split.block(kappa)
        ref = maxwell_operator(slab, bloch_k1=kappa)
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


def test_field_shape_validation():
    g2 = GridSpec((4, 4), (1.0, 1.0))
    with pytest.raises(ValidationError):
        ScalarField2(np.zeros((4, 5)), g2)
