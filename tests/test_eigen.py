import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from gapguide.cross_section import Box, Disk
from gapguide import discrete_op, eigen
from gapguide.discrete_op import (HarmonicSplit, harmonic_split,
                                  maxwell_operator, scalar_matrix)
from gapguide.eigen import (BandTable, _fraction_near, _near_strip,
                            _window_count, band_structure, bloch_modes,
                            defect_spectrum, find_gaps, interior_eigs)
from gapguide.errors import IterationError, ValidationError
from gapguide.existence import GapInterval
from gapguide.fields_io import band_csv
from gapguide.grids import GridSpec
from gapguide.media import (MediumSpec, SampledEpsilon, StripSpec,
                            build_medium, with_defect)

BULK = MediumSpec(lattice=(0.25, 1.0), inclusions=(
    (Box((0.125, 0.1875)), 9.0),))
STRIP = StripSpec(Box((1.0,)), l=1.5, eps_inside=12.0)


@pytest.fixture(scope="module")
def supercell():
    grid = GridSpec((4, 255), (1 / 16, 1 / 32), (0.0, -4.0))
    return build_medium(BULK, grid)


@pytest.fixture(scope="module")
def defected(supercell):
    return with_defect(supercell, STRIP)


@pytest.fixture(scope="module")
def tm_gap():
    bands = oracles.tm_bands(0.0)
    return GapInterval(bands[0][1], bands[1][0])


def test_band_table_validation(tmp_path):
    with pytest.raises(ValidationError):
        BandTable(k_samples=(0.0,), eigenvalues=(np.array([2.0, 1.0]),))
    bt = BandTable(k_samples=(0.0,), eigenvalues=(np.array([1.0, 2.0]),))
    text = band_csv(bt, tmp_path / "bands.csv").read_text()
    assert text.splitlines() == ["k,band,lambda", "0,0,1", "0,1,2"]


def test_homogeneous_1d_has_no_gap():
    grid = GridSpec((64,), (1 / 64,), (0.0,))
    eps = SampledEpsilon(grid, np.ones(64))
    bt = band_structure(eps, np.linspace(0, np.pi, 9), bands=6)
    assert find_gaps(bt, min_width=0.5) == []


def test_layered_1d_gap_matches_transfer_matrix():
    n = 256
    grid = GridSpec((n,), (1 / n,), (-0.5,))
    eps = build_medium(MediumSpec(lattice=(1.0,), inclusions=(
        (Box((0.1875,)), 9.0),)), grid)
    bt = band_structure(eps, np.linspace(0, np.pi, 17), bands=6)
    gaps = find_gaps(bt, min_width=0.5)
    assert len(gaps) >= 1
    bands = oracles.tm_bands(0.0)
    assert gaps[0].alpha == pytest.approx(bands[0][1], rel=0.02)
    assert gaps[0].beta == pytest.approx(bands[1][0], rel=0.02)


def test_band_structure_is_deterministic():
    n = 512
    grid = GridSpec((n,), (1 / n,), (-0.5,))
    eps = build_medium(MediumSpec(lattice=(1.0,), inclusions=(
        (Box((0.1875,)), 9.0),)), grid)
    ks = np.linspace(0, np.pi, 25)
    first = band_structure(eps, ks, bands=6)
    second = band_structure(eps, ks, bands=6)
    for a, b in zip(first.eigenvalues, second.eigenvalues):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bands", [5, 6])
def test_band_structure_on_a_tiny_grid_matches_eigvalsh(bands):
    # 6 unknowns: bands = 6 takes the top bracket [t_5, t_5 + 2 sigma]
    grid = GridSpec((6,), (1 / 6,), (-0.5,))
    eps = SampledEpsilon(grid, np.array([1.0, 1.0, 9.0, 9.0, 1.0, 1.0]))
    ks = (0.0, 1.0, np.pi)
    bt = band_structure(eps, ks, bands=bands)
    for k, got in zip(ks, bt.eigenvalues):
        A = scalar_matrix(eps, (k,))
        want = np.maximum(np.linalg.eigvalsh(A.toarray())[:bands], 0.0)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_band_structure_rejects_a_3d_medium():
    # the scalar operator on a 3D grid is no band structure of the medium:
    # a homogeneous 4^3 cube would read the scalar Laplacian's [0, 32, ...]
    eps = SampledEpsilon(GridSpec((4, 4, 4), (1 / 4,) * 3), np.ones((4,) * 3))
    with pytest.raises(ValidationError, match="1D or 2D grid"):
        band_structure(eps, [0.0], bands=4)


def _layered_1d(n, origin):
    grid = GridSpec((n,), (1 / n,), (origin,))
    return build_medium(MediumSpec(lattice=(1.0,), inclusions=(
        (Box((0.1875,)), 9.0),)), grid)


@pytest.mark.parametrize("n, tol", [(64, 1e-11), (512, 1e-9)])
@pytest.mark.parametrize("origin", [-0.5, -0.3], ids=["mirror", "off-centre"])
def test_1d_band_structure_matches_dense_eigvalsh(n, tol, origin):
    # tol on the low bands; the top of the spectrum (near 4 n^2) is held to
    # 1e-14 relative, about 45 ulps, the rounding of the dense reference
    eps = _layered_1d(n, origin)
    assert np.array_equal(eps.values, eps.values[::-1]) == (origin == -0.5)
    ks = (0.0, 0.7, np.pi, (0.7, 0.3))
    dense = [np.linalg.eigvalsh(scalar_matrix(
        eps, (np.atleast_1d(k)[0],)).toarray()) for k in ks]
    for bands in (1, 6, n - 1, n):
        bt = band_structure(eps, ks, bands=bands)
        for got, want in zip(bt.eigenvalues, dense):
            assert got.shape == (bands,)
            assert np.allclose(got, np.maximum(want[:bands], 0.0),
                               rtol=1e-14, atol=tol)


def test_1d_band_structure_needs_no_lu_and_no_lanczos(monkeypatch):
    eps = _layered_1d(64, -0.5)
    ks = np.linspace(0.0, np.pi, 5)
    want = band_structure(eps, ks, bands=6)

    def fail(*args, **kwargs):
        raise AssertionError("1D bands factored or ran Lanczos")

    monkeypatch.setattr(eigen, "_factor", fail)
    monkeypatch.setattr(spla, "eigs", fail)
    monkeypatch.setattr(spla, "eigsh", fail)
    got = band_structure(eps, ks, bands=6)
    assert all(np.array_equal(a, b)
               for a, b in zip(got.eigenvalues, want.eigenvalues))


@pytest.mark.parametrize("n", [1, 2])
def test_1d_band_structure_needs_three_cells(n):
    eps = SampledEpsilon(GridSpec((n,), (1 / n,)), np.ones(n))
    with pytest.raises(ValidationError, match="at least 3 cells"):
        band_structure(eps, [0.0], bands=1)


def test_find_gaps_min_width_filter():
    vals = (np.array([0.5, 2.0, 2.7]), np.array([0.8, 1.9, 3.2]))
    bt = BandTable(k_samples=(0.0, 1.0), eigenvalues=vals)
    # gap between band 0 (top 0.8) and band 1 (bottom 1.9): width 1.1
    found = find_gaps(bt, min_width=1.0)
    assert len(found) == 1
    assert found[0].alpha == pytest.approx(0.8)
    assert found[0].beta == pytest.approx(1.9)
    assert find_gaps(bt, min_width=1.2) == []


def test_interior_eigs_matches_eigvalsh(defected):
    A = scalar_matrix(defected, (5.0, None))          # 1020 unknowns
    ref = np.sort(np.linalg.eigvalsh(A.toarray()))
    window = (2.0, 3.5)
    want = ref[(ref > window[0]) & (ref < window[1])]
    assert len(want) >= 2
    found = interior_eigs([A], window, count=12)
    got = np.array([m.lam for m in found])
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=1e-8)
    assert all(m.residual <= 1e-8 * max(abs(m.lam), 1.0) for m in found)


def test_small_window_holding_more_than_count_raises(defected, monkeypatch):
    A = scalar_matrix(defected, (5.0, None))
    ref = np.sort(np.linalg.eigvalsh(A.toarray()))
    inside = ref[(ref > 2.0) & (ref < 3.5)]
    m = len(inside)

    def no_lanczos(*args):
        raise AssertionError("Lanczos ran on a window above count")

    monkeypatch.setattr(eigen, "_nearest_eigs", no_lanczos)
    with pytest.raises(ValidationError,
                       match=f"holds {m} eigenvalues, more than count = {m - 1}"):
        interior_eigs([A], (2.0, 3.5), count=m - 1)
    monkeypatch.undo()
    found = interior_eigs([A], (2.0, 3.5), count=m)
    assert np.allclose([f.lam for f in found], inside, rtol=1e-8)


def test_interior_eigs_window_validation_and_empty(defected):
    A = scalar_matrix(defected, (5.0, None))
    with pytest.raises(ValidationError):
        interior_eigs([A], (3.0, 2.0), count=10)
    with pytest.raises(ValidationError):
        interior_eigs([A], (-1.0, 2.0), count=10)
    ref = np.sort(np.linalg.eigvalsh(A.toarray()))
    lo = 0.5 * (ref[3] + ref[4])
    hole = (lo, lo + 1e-6)
    assert interior_eigs([A], hole, count=4) == []


def test_interior_eigs_singular_shift_raises():
    # an eigenvalue at the lower end (1999) makes an inertia-count LU
    # singular, one at the centre (2000) the shift-invert LU
    A = sp.diags(np.arange(1.0, 4001.0))
    for window in ((1999.0, 2000.5), (1999.5, 2000.5)):
        with pytest.raises(IterationError):
            interior_eigs([A], window, count=10)


def test_interior_eigs_cross_checks_lanczos_against_the_count(monkeypatch):
    A = sp.diags(np.arange(1.0, 4001.0))
    eigsh = spla.eigsh

    def one_short(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals[1:], vecs[:, 1:]

    monkeypatch.setattr(spla, "eigsh", one_short)
    with pytest.raises(IterationError, match="Lanczos found 9"):
        interior_eigs([A], (1995.5, 2005.5), count=20)


@pytest.mark.parametrize("blocks", [
    sp.identity(4, format="csr"),                  # not a list of blocks
    [sp.identity(4, format="csr")[:3]],            # not square
    [(np.ones(4), np.ones(4))],                    # len(e) != len(d) - 1
    [(np.ones((2, 2)), np.ones(1))],               # d not one-dimensional
    [[np.ones(4), np.ones(3)]],                    # a pair must be a tuple
], ids=["bare-matrix", "not-square", "long-e", "2d-d", "list-pair"])
def test_interior_eigs_rejects_malformed_blocks(blocks):
    with pytest.raises(ValidationError, match="list or tuple|a block must"):
        interior_eigs(blocks, (0.5, 1.5), count=10)


def test_window_count_matches_dense_count(supercell, defected, tm_gap):
    window = (tm_gap.alpha, tm_gap.beta)
    for k1 in (4.5, 5.0, 5.5):
        A = scalar_matrix(defected, (k1, None))
        ref = np.linalg.eigvalsh(A.toarray())
        want = np.count_nonzero((ref > window[0]) & (ref < window[1]))
        assert want > 0
        assert _window_count(A, window) == want
        bare = scalar_matrix(supercell, (k1, None))
        assert _window_count(bare, window) == 0


def test_empty_window_skips_lanczos(supercell, tm_gap, monkeypatch):
    def fail(*args, **kwargs):
        raise spla.ArpackError(3)

    monkeypatch.setattr(spla, "eigsh", fail)
    A = scalar_matrix(supercell, (5.0, None))
    assert interior_eigs([A], (tm_gap.alpha, tm_gap.beta), count=8) == []


def test_interior_eigs_raises_when_the_window_holds_more_than_count():
    n, h = 12, 1 / 12
    eps = SampledEpsilon(GridSpec((n,) * 3, (h,) * 3), np.ones((n,) * 3))
    M = maxwell_operator(eps, (0.0, 0.0, 0.0))
    sym = oracles.plane_wave_eigenvalue(np.array([2 * np.pi, 0.0, 0.0]),
                                        (h,) * 3, 1.0)
    window = (sym - 4.0, sym + 4.0)
    # half the shell is no answer: the degenerate copies have no order (the
    # whole shell at count = 12 is the (1, 0, 0) case of the next test)
    with pytest.raises(ValidationError,
                       match="holds 12 eigenvalues, more than count = 6"):
        interior_eigs([M], window, count=6)


@pytest.mark.parametrize("mk, multiplicity",
                         [((1, 0, 0), 12), ((1, 1, 0), 24), ((1, 1, 1), 16)])
def test_interior_eigs_returns_every_copy_of_a_shell(mk, multiplicity):
    # periodic homogeneous 12^3 cube: the plane waves of a shell share the
    # symbol of (2 pi, 0, 0) up to permutation and sign, two polarizations
    # each, so the window around the symbol holds exactly `multiplicity`
    n, h = 12, 1 / 12
    eps = SampledEpsilon(GridSpec((n,) * 3, (h,) * 3), np.ones((n,) * 3))
    M = maxwell_operator(eps, (0.0, 0.0, 0.0))
    sym = oracles.plane_wave_eigenvalue(
        2 * np.pi * np.asarray(mk, dtype=float), (h,) * 3, 1.0)
    found = interior_eigs([M], (sym - 4.0, sym + 4.0), count=multiplicity)
    assert len(found) == multiplicity
    assert all(abs(m.lam - sym) <= 1e-8 * sym for m in found)


def test_defect_eigenvalues_decrease_with_eps(supercell, tm_gap):
    window = (tm_gap.alpha + 0.01, tm_gap.beta - 0.01)

    def lowest(eps_inside):
        strip = StripSpec(Box((1.0,)), l=1.5, eps_inside=eps_inside)
        A = scalar_matrix(with_defect(supercell, strip), (5.0, None))
        found = interior_eigs([A], window, count=16)
        loc = [m.lam for m in found
               if _localization(np.asarray(m.field).reshape(
                   supercell.grid.shape), supercell.grid, strip) > 0.5]
        assert loc
        return min(loc)

    assert lowest(16.0) < lowest(12.0)


def _localization(values, grid, strip):
    """The share of |values|^2 within one period of the strip's section,
    as defect_spectrum reads it from a mode's density."""
    return _fraction_near(np.abs(values) ** 2, _near_strip(grid, strip))


def test_localization_fraction_extremes(supercell):
    grid = supercell.grid
    y = grid.centers(1)
    inside = np.exp(-((y / 0.5) ** 2))
    outside = np.exp(-(((np.abs(y) - 3.5) / 0.3) ** 2))
    assert _localization(np.tile(inside, (4, 1)), grid, STRIP) > 0.95
    assert _localization(np.tile(outside, (4, 1)), grid, STRIP) < 0.05


def test_defect_spectrum_finds_localized_modes(defected, tm_gap):
    ds = defect_spectrum(defected, STRIP, tm_gap, k1_samples=[4.5, 5.0],
                         delta=0.25, count=16)
    assert len(ds.modes) >= 2
    assert all(m.localization >= 0.5 for m in ds.modes)
    assert all(tm_gap.alpha < m.lam < tm_gap.beta for m in ds.modes)
    assert len(ds.coverage) == 9
    assert len(ds.wall_amplitudes) == len(ds.modes)
    assert max(ds.wall_amplitudes) < 1e-3     # conducting walls barely touched
    lams = sorted(m.lam for m in ds.modes)
    for mu, flag in ds.coverage:
        assert flag == (min(abs(l - mu) for l in lams) < 0.25)


@pytest.mark.parametrize("delta", [0.0, -1.0])
def test_defect_spectrum_rejects_a_delta_that_is_not_positive(supercell,
                                                               tm_gap, delta):
    # before any solve: no mode could ever lie within a delta <= 0
    with pytest.raises(ValidationError, match="delta must be positive"):
        defect_spectrum(supercell, STRIP, tm_gap, k1_samples=[4.5],
                        delta=delta, count=16)


@pytest.mark.parametrize("k1_samples", [[], np.linspace(4.0, 5.0, 0)])
def test_defect_spectrum_rejects_an_empty_k1_sweep(supercell, tm_gap,
                                                   k1_samples):
    # an empty sweep finds no mode and covers nothing; it is refused, as
    # band_structure refuses an empty k-path
    with pytest.raises(ValidationError, match="k1 sweep holds no sample"):
        defect_spectrum(supercell, STRIP, tm_gap, k1_samples=k1_samples,
                        delta=0.25, count=16)


def test_defect_spectrum_negative_control(supercell, tm_gap):
    ds = defect_spectrum(supercell, STRIP, tm_gap, k1_samples=[4.5, 5.0],
                         delta=0.25, count=16)
    assert len(ds.modes) == 0
    assert not ds.covered


# the defected supercell is constant along x1 (the bulk box fills the axial
# period, the strip is transverse): its axial period is L1 = 4/16
L1 = 0.25
SPLIT_WINDOW = (40.0, 60.0)     # holds several harmonics at every k1 below


@pytest.mark.parametrize("k1", [0.0, 2.5, 5.0, np.pi / L1])
def test_harmonic_split_matches_the_general_path(defected, k1):
    # at k1 = 0 and pi/L1 harmonics j and n1 - j share a block, so the
    # window holds pairs of equal eigenvalues from different harmonics
    A = scalar_matrix(defected, (k1, None))
    general = interior_eigs([A], SPLIT_WINDOW, count=100)
    split = bloch_modes(defected, [k1], SPLIT_WINDOW, 100)
    assert len(split) == len(general) >= 10
    got = np.array([m.lam for m in split])
    assert np.allclose(got, [m.lam for m in general], rtol=1e-10, atol=0)
    if k1 in (0.0, np.pi / L1):
        assert np.min(np.diff(got)) < 1e-9 * got[-1]
    n1 = defected.grid.shape[0]
    for m in split:
        assert m.k1 == k1
        u = m.field.values.ravel()
        res = np.linalg.norm(A @ u - m.lam * u)
        assert res <= 1e-8 * max(abs(m.lam), 1.0)
        # one axial harmonic: a constant axial ratio c, and n1 steps of it
        # make the Bloch wrap e^{i k1 L1}
        u2 = u.reshape(defected.grid.shape)
        peak = np.argmax(np.abs(u2[0]))
        c = u2[1, peak] / u2[0, peak]
        assert np.allclose(u2[1:], c * u2[:-1], rtol=0, atol=1e-12)
        assert c ** n1 == pytest.approx(np.exp(1j * k1 * L1), abs=1e-12)


def _varied(eps):
    """`eps` with one sample changed at the lower wall: it varies along x1,
    so its one block is its whole operator."""
    values = eps.values.copy()
    values[0, 0] = 2.0
    return SampledEpsilon(eps.grid, values)


@pytest.mark.parametrize("varies", [False, True])
def test_bloch_mode_fields_are_their_lift(defected, varies):
    # a mode holds its block vector v: `values` is bitwise the grid field
    # e^{i kappa x1_{m p}} v / sqrt(n1/p), and `density()` is |values|^2
    # without the lift
    eps = _varied(defected) if varies else defected
    k1, window = 5.0, (SPLIT_WINDOW if not varies else (40.0, 44.0))
    modes = bloch_modes(eps, [k1], window, 100)
    split = harmonic_split(eps)
    assert (split.slab is eps) == varies
    kappas = split.kappas(k1)
    with discrete_op._one_blas_thread:
        pairs = interior_eigs([split.block(kappa) for kappa in kappas],
                              window, 100)
    assert len(modes) == len(pairs) >= 5
    assert [m.lam for m in modes] == [p.lam for p in pairs]
    x1 = eps.grid.centers(0)[::split.slab.grid.shape[0]]
    for m, p in zip(modes, pairs):
        kappa = kappas[p.block]
        assert m.field.kappa == kappa
        assert np.array_equal(m.field.vector, p.field)
        values = m.field.values
        assert values.shape == eps.grid.shape
        want = (np.exp(1j * kappa * x1)[:, None] * p.field[None, :]
                / np.sqrt(len(x1)))
        assert np.array_equal(values, want.reshape(eps.grid.shape))
        dens = m.field.density()
        want = np.abs(values) ** 2
        assert dens.shape == want.shape and not dens.flags.writeable
        assert np.max(np.abs(dens - want)) <= 1e-15 * np.max(want)


def test_harmonic_split_keeps_the_count_contract(defected):
    # count below the window's total: the split raises as the general path
    # does, naming m; count = m: both return the whole window
    k1 = 0.0
    A = scalar_matrix(defected, (k1, None))
    m = _window_count(A, SPLIT_WINDOW)
    with pytest.raises(ValidationError) as general:
        interior_eigs([A], SPLIT_WINDOW, m - 5)
    with pytest.raises(ValidationError) as split:
        bloch_modes(defected, [k1], SPLIT_WINDOW, m - 5)
    assert f"holds {m} eigenvalues, more than count = {m - 5}" \
        in str(split.value)
    assert str(split.value) == str(general.value)
    general = interior_eigs([A], SPLIT_WINDOW, m)
    split = bloch_modes(defected, [k1], SPLIT_WINDOW, m)
    assert len(split) == len(general) == m
    assert np.allclose([f.lam for f in split], [f.lam for f in general],
                       rtol=1e-10, atol=0)


@pytest.mark.parametrize("k1", [0.0, 2.5, 5.0, np.pi / L1])
def test_tridiagonal_blocks_match_dense_eigvalsh(defected, k1):
    # each 2D block's pairs by bisection against dense eigvalsh of the same
    # sparse block; at k1 = 0 (pi/L1) harmonics j and n1 - j (n1 - 1 - j)
    # have equal blocks
    split = harmonic_split(defected)
    kappas = split.kappas(k1)
    pairs = interior_eigs([split.block(kappa) for kappa in kappas],
                          SPLIT_WINDOW, 100)
    got = {j: [] for j in range(len(kappas))}
    for m in pairs:
        got[m.block].append(m.lam)
        B = scalar_matrix(split.slab, (kappas[m.block], None)).toarray()
        v = m.field
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(B @ v - m.lam * v) <= 1e-8 * max(m.lam, 1.0)
        assert m.residual <= 1e-8 * max(m.lam, 1.0)
    for j, kappa in enumerate(kappas):
        vals = np.linalg.eigvalsh(
            scalar_matrix(split.slab, (kappa, None)).toarray())
        want = vals[(vals > SPLIT_WINDOW[0]) & (vals < SPLIT_WINDOW[1])]
        assert len(got[j]) == len(want)
        assert np.allclose(got[j], want, rtol=1e-12, atol=0)
    if k1 in (0.0, np.pi / L1):
        n1 = len(kappas)
        twins = [(j, (n1 - (k1 > 0) - j) % n1) for j in range(n1)]
        assert all(got[a] == pytest.approx(got[b], rel=1e-12)
                   for a, b in twins)
        assert any(got[a] for a, b in twins if a != b)


def _two_strip_block():
    """The kappa = 10 block of a guide with two eps-12 strips of width 1,
    1.5 apart in vacuum, and a window over its bound modes: they come in
    pairs split by tunnelling across the gap."""
    grid = GridSpec((1, 511), (1 / 16, 1 / 32), (0.0, -8.0))
    x2 = np.abs(grid.centers(1))
    eps = SampledEpsilon(grid, np.where(np.abs(x2 - 1.25) < 0.5, 12.0,
                                        1.0)[None, :])
    return harmonic_split(eps).block(10.0), (5.0, 25.0)


def _halves_block():
    """A random tridiagonal matrix made of two equal halves joined by an
    off-diagonal exactly 0: every eigenvalue is double."""
    rng = np.random.default_rng(4)
    d, e = rng.uniform(1.0, 3.0, 40), rng.uniform(-1.0, 1.0, 39)
    return (np.tile(d, 2), np.concatenate([e, [0.0], e])), (1.5, 2.5)


@pytest.mark.parametrize("make", [_halves_block, _two_strip_block])
def test_tridiagonal_eigs_resolve_clusters(make):
    # bisection stops at 1e-6 of the window width, so each pair below is
    # one cluster to stein; the Rayleigh-Ritz step must still resolve it
    (d, e), window = make()
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    want = np.linalg.eigvalsh(T)
    want = want[(want > window[0]) & (want < window[1])]
    assert len(want) >= 8 and len(want) % 2 == 0
    assert np.max(want[1::2] - want[::2]) < 1e-6 * (window[1] - window[0])
    vals, vecs = eigen._tridiagonal_eigs(d, e, window)
    assert len(vals) == len(want)
    assert np.allclose(vals, want, rtol=1e-12, atol=0)
    assert np.abs(vecs.T @ vecs - np.eye(len(vals))).max() <= 1e-12
    res = np.linalg.norm(T @ vecs - vecs * vals, axis=0)
    assert np.all(res <= 1e-8 * np.maximum(vals, 1.0))


def test_tridiagonal_windows_are_open(defected):
    split = harmonic_split(defected)
    d, e = split.block(5.0)
    vals = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    # a window between two eigenvalues holds none of them
    gap = (vals[3] + 1e-6, vals[4] - 1e-6)
    assert interior_eigs([(d, e)], gap, 10) == []
    assert bloch_modes(defected, [5.0], (0.0, 0.5 * vals[0]), 10) == []
    # LAPACK returns (lo, hi]; an eigenvalue at hi is not in the window
    diagonal = (np.arange(1.0, 9.0), np.zeros(7))
    pairs = interior_eigs([diagonal], (0.5, 3.0), 10)
    assert [m.lam for m in pairs] == [1.0, 2.0]
    # one cell across x2: each block is its one eigenvalue
    grid = GridSpec((4, 1), (1 / 16, 1 / 32))
    row = SampledEpsilon(grid, np.full(grid.shape, 2.0))
    split = harmonic_split(row)
    lams = sorted(split.block(kappa)[0][0]
                  for kappa in split.kappas(0.3))
    assert [m.lam for m in bloch_modes(row, [0.3], (0.0, lams[2]), 10)] \
        == lams[:2]


def test_defect_spectrum_splits_invariant_media_only(defected, tm_gap,
                                                     monkeypatch):
    calls = []
    original = discrete_op.scalar_matrix

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(discrete_op, "scalar_matrix", counted)
    monkeypatch.setattr(eigen, "scalar_matrix", counted)
    ks = [4.5, 5.0, 5.5]
    ds = defect_spectrum(defected, STRIP, tm_gap, k1_samples=ks, delta=0.25,
                         count=16)
    assert len(calls) <= 1 and len(ds.modes) >= 2
    # the general path on the same medium gives the same modes
    calls.clear()
    monkeypatch.setattr(eigen, "harmonic_split",
                        lambda eps: HarmonicSplit(eps, eps.grid))
    full = defect_spectrum(defected, STRIP, tm_gap, k1_samples=ks,
                           delta=0.25, count=16)
    assert len(calls) == len(ks)
    assert [m.k1 for m in full.modes] == [m.k1 for m in ds.modes]
    assert np.allclose([m.lam for m in full.modes],
                       [m.lam for m in ds.modes], rtol=1e-10, atol=0)
    assert np.allclose([m.localization for m in full.modes],
                       [m.localization for m in ds.modes], rtol=1e-10)
    assert full.coverage == ds.coverage
    monkeypatch.undo()
    # a medium that varies along x1 takes the general path
    monkeypatch.setattr(discrete_op, "scalar_matrix", counted)
    monkeypatch.setattr(eigen, "scalar_matrix", counted)
    calls.clear()
    varied = defected.values.copy()
    varied[0, :8] *= 1.01                  # far from the strip
    eps = SampledEpsilon(defected.grid, varied)
    assert harmonic_split(eps).slab is eps
    defect_spectrum(eps, STRIP, tm_gap, k1_samples=ks, delta=0.25, count=16)
    assert len(calls) == len(ks)


def _gershgorin(B):
    """The interval [min(b_ii - r_i), max(b_ii + r_i)] holding B's spectrum."""
    B = B.toarray() if sp.issparse(B) else B
    radii = np.abs(B).sum(axis=1) - np.abs(np.diag(B))
    return (np.diag(B).real - radii).min(), (np.diag(B).real + radii).max()


def test_blocks_outside_the_window_are_not_factored(defected, tm_gap,
                                                    monkeypatch):
    # a 3D split's block whose Gershgorin interval lies below the window
    # holds none of it; its count is 0 without the two inertia LUs, and
    # nothing changes
    grid = GridSpec((4, 8, 8), (1 / 8,) * 3, (0.0, -0.5, -0.5))
    guide = with_defect(build_medium(MediumSpec(lattice=(1.0,)), grid),
                        StripSpec(Disk(1.0), l=0.25, eps_inside=12.0))
    window, ks = (580.0, 600.0), [0.7, 2.0]
    split = harmonic_split(guide)
    outside = solved = 0
    for kappa in np.concatenate([split.kappas(k1) for k1 in ks]):
        B = split.block(kappa).toarray()
        outside += _gershgorin(B)[1] <= window[0]
        vals = np.linalg.eigvalsh(B)
        solved += np.any((vals > window[0]) & (vals < window[1]))
    blocks = len(ks) * grid.shape[0]
    assert 0 < outside < blocks and solved > 0
    factored = []
    factor = eigen._factor

    def counted(A, sigma, thresh):
        factored.append(A)
        return factor(A, sigma, thresh)

    monkeypatch.setattr(eigen, "_factor", counted)
    modes = bloch_modes(guide, ks, window, 16)
    assert modes
    # two inertia LUs per block that may hold the window, one more per
    # block that does; none of a skipped block
    assert len(factored) == 2 * (blocks - outside) + solved
    for A in factored:
        assert _gershgorin(A)[1] > window[0]
    # the same modes, bitwise, as by factoring every block
    factored.clear()
    monkeypatch.setattr(eigen, "_window_count", lambda A, w: (
        eigen._negative_count(A, w[1]) - eigen._negative_count(A, w[0])))
    full = bloch_modes(guide, ks, window, 16)
    assert len(factored) == 2 * blocks + solved
    assert [(m.k1, m.lam) for m in full] == [(m.k1, m.lam) for m in modes]
    assert all(np.array_equal(a.field.values, b.field.values)
               for a, b in zip(full, modes))
    # the tridiagonal blocks of a 2D split are never factored
    factored.clear()
    assert bloch_modes(defected, [4.5, 5.0], (tm_gap.alpha, tm_gap.beta), 16)
    assert factored == []


def test_window_above_count_raises_after_the_counts_only(defected,
                                                        monkeypatch):
    # a 3D split guide: the blocks are counted by inertia (pivot threshold
    # 0) and the window, above count, raises before any Lanczos LU
    grid = GridSpec((4, 8, 8), (1 / 8,) * 3, (0.0, -0.5, -0.5))
    guide = with_defect(build_medium(MediumSpec(lattice=(1.0,)), grid),
                        StripSpec(Disk(1.0), l=0.25, eps_inside=12.0))
    window = (580.0, 600.0)
    split = harmonic_split(guide)
    dense = np.sort(np.concatenate([
        np.linalg.eigvalsh(split.block(kappa).toarray())
        for kappa in split.kappas(0.7)]))
    want = dense[(dense > window[0]) & (dense < window[1])]
    m = len(want)
    assert m >= 2
    found = bloch_modes(guide, [0.7], window, m)
    assert np.allclose([f.lam for f in found], want, rtol=1e-10, atol=0)
    thresholds = []
    factor = eigen._factor

    def counted(A, sigma, thresh):
        thresholds.append(thresh)
        return factor(A, sigma, thresh)

    monkeypatch.setattr(eigen, "_factor", counted)
    with pytest.raises(ValidationError,
                       match=f"holds {m} eigenvalues, more than count = 1"):
        bloch_modes(guide, [0.7], window, 1)
    assert thresholds and set(thresholds) == {0.0}
    # the bisection of a 2D split's blocks needs no LU at all
    thresholds.clear()
    with pytest.raises(ValidationError, match="more than count = 1"):
        bloch_modes(defected, [5.0], SPLIT_WINDOW, 1)
    assert thresholds == []


def test_bloch_modes_of_a_3d_guide_match_the_full_operator():
    h = 1 / 12
    grid = GridSpec((4, 12, 12), (h, h, h), (0.0, -0.5, -0.5))
    strip = StripSpec(Disk(1.0), l=0.4, eps_inside=12.0)
    eps = with_defect(build_medium(MediumSpec(lattice=(1.0,)), grid), strip)
    window = (2.0, 25.0)        # above the gradient null space
    M = maxwell_operator(eps, (0.7, None, None))
    general = interior_eigs([M], window, count=100)
    split = bloch_modes(eps, [0.7], window, 100)
    assert len(split) == len(general) >= 20
    assert np.allclose([m.lam for m in split], [m.lam for m in general],
                       rtol=1e-10, atol=0)
    for m in split:
        assert m.k1 == 0.7
        u = m.field.values.ravel()
        res = np.linalg.norm(M @ u - m.lam * u)
        assert res <= 1e-8 * m.lam
    # a medium that varies along x1 is solved as its full maxwell_operator,
    # on the one OpenBLAS thread every solve of a medium holds
    varied = eps.values.copy()
    varied[0, 0, 0] = 2.0
    eps = SampledEpsilon(grid, varied)
    assert harmonic_split(eps).slab is eps
    with discrete_op._one_blas_thread:
        general = interior_eigs([maxwell_operator(eps, (0.7, None, None))],
                                window, 100)
    split = bloch_modes(eps, [0.7], window, 100)
    assert [m.lam for m in split] == [m.lam for m in general]
    phase = np.exp(1j * 0.7 * grid.centers(0)[0])
    assert all(np.array_equal(s.field.values.ravel(), phase * g.field)
               for s, g in zip(split, general))
