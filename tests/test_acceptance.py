"""End-to-end acceptance suite.

Each test covers one numbered criterion and records a PASS/FAIL line that is
echoed in the terminal summary.  Shared heavy computations (the cross-section
constant ladder and the 2D gap/defect experiment) live in module fixtures.
"""

import time

import numpy as np
import pytest

import oracles
from conftest import record
from gapguide.cross_section import Box, Disk
from gapguide.discrete_op import (HarmonicField, HarmonicSplit,
                                  _one_blas_thread, curl, gradient,
                                  harmonic_split, maxwell_operator,
                                  scalar_matrix)
from gapguide.decay import ct_shape, fit_decay, profile, rank_correlation
from gapguide.eigen import (ModeResult, band_structure, bloch_modes,
                            defect_spectrum, find_gaps, interior_eigs)
from gapguide.existence import (GapInterval, Profile, TrialParams,
                                check_condition, minimal_n, quadrature_grid,
                                residual_closed_form, residual_quadrature)
from gapguide import eigen
from gapguide.errors import ValidationError
from gapguide.grids import GridSpec
from gapguide.media import (MediumSpec, SampledEpsilon, StripSpec,
                            build_medium, with_defect)
from gapguide.xsection import make_test_field, refine_extrapolate, solve_nu_vector

DISK = Disk(1.0)
PSI = Profile.bump(2)

# layered bulk: eps=9 slab of thickness 0.375 per unit period in x2,
# uniform along the guide axis x1 (supercell axial period 0.25)
BULK = MediumSpec(lattice=(0.25, 1.0), inclusions=(
    (Box((0.125, 0.1875)), 9.0),))
STRIP = StripSpec(Box((1.0,)), l=2.0, eps_inside=12.0)
GRID2 = GridSpec((4, 511), (1 / 16, 1 / 32), (0.0, -8.0))
K1_SWEEP = np.linspace(4.3, 6.3, 25)
DELTA = 0.15


@pytest.fixture(scope="module")
def nu_ladder():
    t0 = time.monotonic()
    ests = [solve_nu_vector(DISK, 2.0 / n) for n in (96, 128, 192)]
    best = refine_extrapolate(ests)
    return ests, best, time.monotonic() - t0


@pytest.fixture(scope="module")
def tm_gap():
    bands = oracles.tm_bands(0.0)
    return GapInterval(bands[0][1], bands[1][0])


@pytest.fixture(scope="module")
def bulk2d():
    return build_medium(BULK, GRID2)


@pytest.fixture(scope="module")
def experiment(bulk2d, tm_gap):
    """Criterion 7 computation: defect sweep plus bulk negative control."""
    t0 = time.monotonic()
    eps_d = with_defect(bulk2d, STRIP)
    ds = defect_spectrum(eps_d, STRIP, tm_gap, k1_samples=K1_SWEEP,
                         delta=DELTA, count=40)
    ds_bulk = defect_spectrum(bulk2d, STRIP, tm_gap, k1_samples=K1_SWEEP,
                              delta=DELTA, count=40)
    return ds, ds_bulk, time.monotonic() - t0


@pytest.fixture(scope="module")
def confinement_fits(experiment):
    ds, _, _ = experiment
    fits = [fit_decay(profile(m, STRIP, step=0.125)) for m in ds.modes]
    return fits


def test_criterion_01_cross_section_constant(nu_ladder):
    ests, best, elapsed = nu_ladder
    err = abs(best.value - oracles.J11_SQ) / oracles.J11_SQ
    ok = err < 0.01 and 1.5 <= best.order <= 2.5 and elapsed < 120
    record(f"CRITERION 1: {'PASS' if ok else 'FAIL'} - nu = {best.value:.5f} "
           f"(reference {oracles.J11_SQ:.5f}, rel err {err:.2e}), "
           f"order {best.order:.2f}, {elapsed:.0f}s")
    assert err < 0.01
    assert 1.5 <= best.order <= 2.5
    assert elapsed < 120


def test_criterion_02_infimum_characterization(nu_ladder):
    _, best, _ = nu_ladder
    nu = best.value
    rhos = [0.4, 0.3, 0.2, 0.1, 0.05]
    quots = [make_test_field(DISK, rho, 2 / 128).quotient for rho in rhos]
    one_sided = all(q >= nu * (1 - 1e-3) for q in quots)
    gap_pct = (quots[-1] - nu) / nu
    approach = abs(gap_pct) <= 0.05
    ok = one_sided and approach
    record(f"CRITERION 2: {'PASS' if ok else 'FAIL'} - quotients "
           f"{', '.join(f'{q:.1f}' for q in quots)} vs nu = {nu:.2f}; "
           f"one-sided bound {'holds' if one_sided else 'VIOLATED'}; "
           f"closest quotient is {100 * gap_pct:.0f}% above nu "
           f"({'within' if approach else 'not within'} 5%)")
    assert one_sided
    # The compact-support quotient has a strictly larger infimum than nu
    # (the clamped constraint alone is weaker than compact support), so no
    # margin brings it within 5%; this assertion documents the shortfall
    # honestly rather than relaxing the check.
    assert approach, (
        f"compactly supported quotients bottom out {100 * gap_pct:.0f}% above "
        f"nu; the 5% approach target is not attainable for this functional")


def test_criterion_03_residual_algebra():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        tf = make_test_field(DISK, float(rng.uniform(0.08, 0.3)), 2 / 64)
        tp = TrialParams(l=float(rng.uniform(0.5, 2.0)),
                         eps=float(rng.uniform(2.0, 12.0)),
                         mu=float(rng.uniform(1.0, 4.0)),
                         delta=float(rng.uniform(0.5, 2.0)),
                         n=int(rng.integers(4, 64)), psi=PSI, g=tf)
        quad = residual_quadrature(tp, quadrature_grid(tp))
        cf = residual_closed_form(tp).closed_form
        worst = max(worst, abs(quad - cf) / cf)
        assert abs(psi_ibp := PSI.ip_d2 + PSI.d1_norm_sq) <= 1e-8 * PSI.d1_norm_sq
        ip_lap, grad_norm_sq = oracles.field_ibp_terms(tf)
        assert abs(ip_lap + grad_norm_sq) <= 1e-8 * grad_norm_sq
    ok = worst <= 1e-6
    record(f"CRITERION 3: {'PASS' if ok else 'FAIL'} - closed form vs "
           f"quadrature agree to {worst:.2e} over 5 random configurations; "
           f"integration-by-parts identities hold to 1e-8")
    assert ok


def test_criterion_04_delta_net_mechanism():
    t0 = time.monotonic()
    tf = make_test_field(DISK, 0.05, 2 / 128)
    l, eps = 1.0, 12.0
    probe = TrialParams(l=l, eps=eps, mu=1.0, delta=1.0, n=1, psi=PSI, g=tf)
    floor = residual_closed_form(probe).terms[2]
    delta = 1.1 * np.sqrt(floor) / eps          # slightly above the floor
    gap = GapInterval(10.0, 30.0)
    mus = np.linspace(gap.alpha, gap.beta, 11)[1:-1]
    worst_ratio, max_n = 0.0, 0
    for mu in mus:
        tp = TrialParams(l=l, eps=eps, mu=float(mu), delta=delta, n=1,
                         psi=PSI, g=tf)
        n = minimal_n(tp)
        assert n is not None
        max_n = max(max_n, n)
        rep = residual_closed_form(TrialParams(l=l, eps=eps, mu=float(mu),
                                               delta=delta, n=n, psi=PSI, g=tf))
        assert rep.passes
        worst_ratio = max(worst_ratio, rep.closed_form / rep.threshold)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    record(f"CRITERION 4: {'PASS' if ok else 'FAIL'} - 9/9 sampled gap points "
           f"reached (delta = {delta:.2f}, largest n = {max_n}, worst "
           f"residual/budget = {worst_ratio:.3f}), {elapsed:.1f}s")
    assert ok


def test_criterion_05_discrete_operator_identities():
    # curl(grad) vanishes bitwise as a matrix
    grid = GridSpec((8, 8, 8), (1.0, 1.0, 1.0))
    wraps = (1.0, "pec", "pec")
    grad_img = float(abs(curl(grid, wraps) @ gradient(grid, wraps)).max())

    g3 = GridSpec((8, 8, 8), (1 / 8, 1 / 8, 1 / 8), (-0.5, -0.5, -0.5))
    media = [
        SampledEpsilon(g3, np.ones((8, 8, 8))),
        build_medium(MediumSpec(lattice=(1.0, 1.0, 1.0), inclusions=(
            (Box((0.25, 0.25, 0.25)), 4.0),)), g3),
        build_medium(BULK, GridSpec((4, 64), (1 / 16, 1 / 32), (0.0, -1.0))),
    ]
    worst_sym = 0.0
    for eps in media:
        rep = oracles.check_identities(eps)
        worst_sym = max(worst_sym, rep["max_symmetry_violation"])
        assert rep["min_quadratic_form"] >= -1e-12

    # homogeneous plane waves against the stencil symbol at 32^3
    n, h = 32, 1 / 32
    eps32 = SampledEpsilon(GridSpec((n, n, n), (h, h, h)), np.ones((n, n, n)))
    worst_symbol = 0.0
    for mk in ((1, 0, 0), (1, 1, 0), (2, 1, 1)):
        k = 2 * np.pi * np.asarray(mk, dtype=float)
        K = (np.exp(1j * k * h) - 1.0) / h
        r = np.array([1.0, 0.5 + 0.5j, -0.25])
        v = r - K * np.vdot(K, r) / np.vdot(K, K)
        idx = np.indices((n, n, n))
        phase = np.exp(1j * h * sum(k[a] * idx[a] for a in range(3)))
        u = np.stack([v[c] * phase for c in range(3)]).ravel()
        out = maxwell_operator(eps32, (k[0], 0.0, 0.0)) @ u
        lam = np.vdot(u, out).real / np.vdot(u, u).real
        pred = oracles.plane_wave_eigenvalue(k, eps32.grid.spacing, 1.0)
        worst_symbol = max(worst_symbol, abs(lam - pred) / pred)
    ok = grad_img == 0.0 and worst_sym <= 1e-12 and worst_symbol <= 5e-3
    record(f"CRITERION 5: {'PASS' if ok else 'FAIL'} - curl(grad) = "
           f"{grad_img:g}; worst symmetry violation {worst_sym:.1e} over "
           f"3 media x 20 fields; plane-wave symbol error {worst_symbol:.1e} "
           f"at 32^3")
    assert ok


def test_criterion_06_eigensolver_oracle(bulk2d, tm_gap):
    eps_d = with_defect(bulk2d, STRIP)
    A = scalar_matrix(eps_d, (5.0, None))          # 2044 unknowns
    ref = np.sort(np.linalg.eigvalsh(A.toarray()))
    window = (tm_gap.alpha + 0.01, tm_gap.beta - 0.01)
    want = ref[(ref > window[0]) & (ref < window[1])]
    assert len(want) >= 3
    found = interior_eigs([A], window, count=len(want) + 6)
    got = np.array([m.lam for m in found])
    assert len(got) == len(want)
    worst = float(np.max(np.abs(got - want) / np.abs(want)))
    ok = worst <= 1e-8
    record(f"CRITERION 6: {'PASS' if ok else 'FAIL'} - {len(want)} in-window "
           f"eigenvalues matched against dense eigvalsh to "
           f"{worst:.1e} relative")
    assert ok


def test_criterion_07_gap_and_defect_experiment(nu_ladder, tm_gap, bulk2d,
                                                experiment):
    # transfer-matrix verification of the gap through an independent 1D solve
    grid1 = GridSpec((512,), (1 / 512,), (-0.5,))
    eps1 = build_medium(MediumSpec(lattice=(1.0,), inclusions=(
        (Box((0.1875,)), 9.0),)), grid1)
    bt = band_structure(eps1, np.linspace(0, np.pi, 25), bands=6)
    gaps = find_gaps(bt, min_width=0.5)
    assert len(gaps) >= 1
    e_lo = abs(gaps[0].alpha - tm_gap.alpha) / tm_gap.alpha
    e_hi = abs(gaps[0].beta - tm_gap.beta) / tm_gap.beta

    _, nu, _ = nu_ladder
    rep = check_condition(STRIP.l, STRIP.eps_inside, tm_gap, nu)
    margin_ratio = (rep.lhs - rep.rhs) / rep.rhs

    ds, ds_bulk, elapsed = experiment
    covered = sum(1 for _, f in ds.coverage if f)
    ok = (e_lo < 0.01 and e_hi < 0.01 and margin_ratio > 0.5
          and covered == len(ds.coverage) and len(ds_bulk.modes) == 0
          and elapsed < 600)
    record(f"CRITERION 7: {'PASS' if ok else 'FAIL'} - gap edges verified to "
           f"{e_lo:.2%}/{e_hi:.2%}; condition margin {100 * margin_ratio:.0f}%; "
           f"coverage {covered}/{len(ds.coverage)} at delta = {ds.delta} "
           f"({len(ds.modes)} modes); negative control {len(ds_bulk.modes)} "
           f"modes; {elapsed:.0f}s")
    assert e_lo < 0.01 and e_hi < 0.01
    assert margin_ratio > 0.5
    assert covered == len(ds.coverage)
    assert len(ds_bulk.modes) == 0
    assert elapsed < 600


def test_criterion_08_confinement(experiment, confinement_fits, bulk2d):
    ds, _, _ = experiment
    rates = [f.rate for f in confinement_fits]
    r2s = [f.r2 for f in confinement_fits]
    min_rate, min_r2 = min(rates), min(r2s)

    # negative control: a bulk band mode is not localized, fitted rate ~ 0
    A = scalar_matrix(bulk2d, (1.0, None))
    vals = np.sort(np.linalg.eigvalsh(A.toarray()))
    band1 = vals[(vals > 1.2) & (vals < 1.45)]
    target = float(band1[len(band1) // 2])
    found = interior_eigs([A], (target - 0.01, target + 0.01), count=4)
    m = found[0]
    # the unsplit medium's one block: its density is |v|^2 on the grid
    fld = HarmonicField(HarmonicSplit(slab=bulk2d, grid=GRID2), 1.0, m.field)
    bulk_mode = ModeResult(lam=m.lam, field=fld, residual=m.residual, k1=1.0)
    bulk_fit = fit_decay(profile(bulk_mode, STRIP, step=0.125))
    ok = min_rate > 0 and min_r2 > 0.95 and abs(bulk_fit.rate) < 0.1 * min_rate
    record(f"CRITERION 8: {'PASS' if ok else 'FAIL'} - {len(rates)} modes: "
           f"rates in [{min_rate:.2f}, {max(rates):.2f}], min R^2 = "
           f"{min_r2:.4f}; bulk control rate {bulk_fit.rate:.3f} "
           f"(< 10% of {min_rate:.2f})")
    assert min_rate > 0
    assert min_r2 > 0.95
    assert abs(bulk_fit.rate) < 0.1 * min_rate


def test_criterion_09_rate_shape(bulk2d):
    # fix the axial momentum and read the fibered gap off the transfer matrix
    k1 = 1.0
    h1 = GRID2.spacing[0]
    keff = (2.0 / h1) * np.sin(k1 * h1 / 2.0)
    bands = oracles.tm_bands(keff)
    fgap = GapInterval(bands[0][1], bands[1][0])
    strip = StripSpec(Box((1.0,)), l=2.0, eps_inside=40.0)
    eps_d = with_defect(bulk2d, strip)
    ds = defect_spectrum(eps_d, strip, fgap, k1_samples=[k1], delta=DELTA,
                         count=40)
    lams = [m.lam for m in ds.modes]
    span = (max(lams) - min(lams)) / fgap.width
    fits = [fit_decay(profile(m, strip, step=0.125)) for m in ds.modes]
    corr = rank_correlation([f.rate for f in fits],
                            [ct_shape(l, fgap) for l in lams])
    ok = len(lams) >= 5 and span >= 0.5 and corr >= 0.9
    record(f"CRITERION 9: {'PASS' if ok else 'FAIL'} - {len(lams)} modes "
           f"spanning {100 * span:.0f}% of the fibered gap "
           f"({fgap.alpha:.3f}, {fgap.beta:.3f}); Spearman correlation "
           f"{corr:.4f} with sqrt((lam-alpha)(beta-lam))")
    assert len(lams) >= 5
    assert span >= 0.5
    assert corr >= 0.9


def test_criterion_10_three_dimensional_smoke(monkeypatch):
    # (a) homogeneous periodic 16^3 cell: every copy of the lowest plane-wave
    # shells, two polarizations of each wave vector, to 1%.  The cube is
    # constant along x1, so the shells are found over its 16 axial harmonic
    # blocks, each the one-cell slab's operator at Bloch momenta
    # (kappa, 0, 0); the full operator's shells are checked at 12^3 in
    # tests/test_eigen.py.  The window is centred on the shell's eigenvalue.
    n, h = 16, 1 / 16
    eps = SampledEpsilon(GridSpec((n, n, n), (h, h, h)), np.ones((n, n, n)))
    split = harmonic_split(eps)
    worst = worst_res = 0.0
    for mk, multiplicity in (((1, 0, 0), 12), ((1, 1, 0), 24),
                             ((1, 1, 1), 16)):
        k = 2 * np.pi * np.asarray(mk, dtype=float)
        pred = oracles.plane_wave_eigenvalue(k, eps.grid.spacing, 1.0)
        blocks = [maxwell_operator(split.slab, (kappa, 0.0, 0.0))
                  for kappa in split.kappas(k[0])]
        with _one_blas_thread:
            pairs = interior_eigs(blocks, (pred - 4.0, pred + 4.0),
                                  multiplicity)
        assert len(pairs) == multiplicity
        worst = max(worst, max(abs(m.lam - pred) / pred for m in pairs))
        worst_res = max(worst_res, max(m.residual / m.lam for m in pairs))
    # (b) defect supercell end to end; the guide is constant along x1, so
    # bloch_modes solves its 16 axial harmonic blocks.  The window holds 104
    # eigenvalues: count = 2 is refused after the inertia counts alone, and
    # count = 104 returns them all.  The reference values are interior_eigs
    # on the full 49,152-unknown maxwell_operator.
    t0 = time.monotonic()
    grid = GridSpec((16, 32, 32), (h, h, h), (0.0, -1.0, -1.0))
    spec = MediumSpec(lattice=(1.0,),
                      defect=StripSpec(Disk(1.0), l=0.4, eps_inside=12.0))
    eps_d = with_defect(build_medium(spec, grid), spec.defect)
    window = (25.0, 40.0)
    thresholds = []
    factor = eigen._factor

    def counted(A, sigma, thresh):
        thresholds.append(thresh)
        return factor(A, sigma, thresh)

    monkeypatch.setattr(eigen, "_factor", counted)
    with pytest.raises(ValidationError,
                       match="holds 104 eigenvalues, more than count = 2"):
        bloch_modes(eps_d, [0.7], window, count=2)
    counted_only = bool(thresholds) and set(thresholds) == {0.0}
    monkeypatch.undo()
    modes = bloch_modes(eps_d, [0.7], window, count=104)
    elapsed = time.monotonic() - t0
    lams = np.array([m.lam for m in modes])
    nearest = np.sort(lams[np.argsort(np.abs(lams - 32.5))[:2]])
    full = [32.291512303053, 32.441311537353]
    same = len(modes) == 104 and np.allclose(nearest, full, rtol=1e-10,
                                             atol=0)
    ok = worst <= 0.01 and counted_only and same
    record(f"CRITERION 10: {'PASS' if ok else 'FAIL'} - plane-wave "
           f"eigenvalues to {worst:.1e} (relative residuals up to "
           f"{worst_res:.1e}); defect supercell pipeline found "
           f"{len(modes)} interior modes, the two nearest 32.5 at "
           f"{nearest[0]:.12f} and {nearest[1]:.12f}, count=2 refused after "
           f"the inertia counts alone, in {elapsed:.0f}s")
    assert worst <= 0.01
    assert counted_only
    assert same
