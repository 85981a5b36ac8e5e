import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import stats
from hypothesis import strategies as st

import gapguide
from gapguide.cross_section import Box
from gapguide.decay import (DecayFit, DecayProfile, ct_shape, fit_decay,
                            profile, rank_correlation)
from gapguide.eigen import (ModeResult, _fraction_near, _near_strip,
                            defect_spectrum)
from gapguide.errors import IterationError, ValidationError
from gapguide.existence import GapInterval
from gapguide.grids import GridSpec
from gapguide.media import (MediumSpec, SampledEpsilon, StripSpec,
                            build_medium, with_defect)


def _synthetic(rate=2.0, pref=3.0, dmax=5.0, step=0.25):
    d = np.arange(0.0, dmax, step)
    return DecayProfile(distances=d, norms=pref * np.exp(-rate * d),
                        strip_radius=0.5, extent=dmax)


def test_fit_recovers_exact_exponential():
    fit = fit_decay(_synthetic(), d_min=0.5, d_max=4.0)
    assert fit.rate == pytest.approx(2.0, abs=1e-10)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.excluded == 0
    rec = fit.record()
    assert rec["rate"] == fit.rate and "model" in rec


def test_fit_constant_profile_gives_zero_rate():
    d = np.arange(0.0, 5.0, 0.25)
    p = DecayProfile(distances=d, norms=np.full_like(d, 0.7),
                     strip_radius=0.5, extent=5.0)
    fit = fit_decay(p, d_min=0.5, d_max=4.0)
    assert fit.rate == 0.0


def test_fit_matches_linregress():
    rng = np.random.default_rng(7)
    profiles = []
    for _ in range(50):
        # above the noise floor: log norms stay within 14 of the peak
        d = np.cumsum(rng.uniform(0.05, 0.3, rng.integers(5, 40)))
        profiles.append((d, 0.3 * rng.standard_normal(d.size)
                         - rng.uniform(0.2, 1.0) * d))
    d = np.arange(0.0, 5.0, 0.25)
    profiles.append((d, np.log(3.0) - 2.0 * d))          # an exact line
    profiles.append((d, np.full_like(d, np.log(0.7))))   # a flat profile
    for d, logs in profiles:
        p = DecayProfile(distances=d, norms=np.exp(logs), strip_radius=0.0,
                         extent=2 * d[-1])
        fit = fit_decay(p, d_min=0.0, d_max=d[-1])
        ref = stats.linregress(d, logs)
        assert fit.n_samples == d.size and fit.excluded == 0
        assert fit.rate == pytest.approx(max(0.0, -ref.slope), rel=1e-12)
        assert fit.prefactor == pytest.approx(np.exp(ref.intercept),
                                              rel=1e-12)
        if np.isnan(ref.rvalue):
            assert np.isnan(fit.r2) and fit.rate == 0.0
        else:
            assert fit.r2 == pytest.approx(ref.rvalue ** 2, rel=1e-12)


def test_fit_excludes_noise_floor():
    d = np.arange(0.0, 6.0, 0.25)
    norms = np.maximum(np.exp(-5.0 * d), 1e-14)   # eigensolver noise floor
    p = DecayProfile(distances=d, norms=norms, strip_radius=0.5,
                     extent=6.0)
    fit = fit_decay(p, d_min=0.5, d_max=5.75)
    assert fit.excluded > 0
    assert fit.rate == pytest.approx(5.0, rel=0.05)


def test_fit_window_guards():
    p = _synthetic()
    with pytest.raises(ValidationError):
        fit_decay(p, d_min=3.0, d_max=2.0)
    with pytest.raises(IterationError):
        fit_decay(p, d_min=4.4, d_max=4.9)       # too few samples


def test_profile_validation():
    with pytest.raises(ValidationError):
        DecayProfile(distances=np.array([1.0, 0.5]), norms=np.array([1.0, 1.0]),
                     strip_radius=0.5, extent=2.0)
    with pytest.raises(ValidationError):
        DecayProfile(distances=np.array([0.0, 1.0]), norms=np.array([1.0, -1.0]),
                     strip_radius=0.5, extent=2.0)


@dataclass(frozen=True)
class _Field:
    """A sampled 2D field and its density |values|^2 on the grid, the one
    read that profiles and localization make: an independent reference for
    a mode's `density()`."""

    values: np.ndarray
    grid: GridSpec

    def density(self):
        return np.abs(self.values) ** 2


def _mode(grid, values, lam=2.0, k1=5.0):
    return ModeResult(lam=lam, field=_Field(values, grid), residual=0.0,
                      k1=k1)


def test_profile_of_sampled_exponential_field():
    grid = GridSpec((4, 256), (1 / 16, 1 / 32), (0.0, -4.0))
    y = grid.centers(1)
    mode = _mode(grid, np.tile(np.exp(-2.0 * np.abs(y)), (4, 1)))
    strip = StripSpec(Box((1.0,)), l=0.5, eps_inside=12.0)
    prof = profile(mode, strip, step=0.25)
    assert prof.strip_radius == pytest.approx(0.5)
    # the windows run out to the wall: the outermost one sticks out
    assert prof.strip_radius + prof.distances[-1] + 1.0 > grid.extent(1)[1]
    fit = fit_decay(prof, d_min=0.5, d_max=2.4)
    assert fit.rate == pytest.approx(2.0, rel=1e-3)
    assert fit.r2 > 0.999999


@pytest.mark.parametrize("step", [0.0, -0.1])
def test_profile_rejects_a_step_that_is_not_positive(step):
    # a zero step divided by zero in np.arange; a negative one left no
    # sample and surfaced as a fit-window failure
    grid = GridSpec((4, 256), (1 / 16, 1 / 32), (0.0, -4.0))
    mode = _mode(grid, np.ones(grid.shape))
    strip = StripSpec(Box((1.0,)), l=0.5, eps_inside=12.0)
    with pytest.raises(ValidationError, match="step must be positive"):
        profile(mode, strip, step=step)


def test_profile_mirror_symmetry():
    # on a grid symmetric about x2 = 0, a lopsided field and its mirror
    # x2 -> -x2 have one profile: the two rays sample mirrored windows
    grid = GridSpec((4, 256), (1 / 16, 1 / 32), (0.0, -4.0))
    y = grid.centers(1)
    values = np.tile(np.exp(-np.abs(y)) * (1.5 + np.tanh(y)), (4, 1))
    strip = StripSpec(Box((1.0,)), l=0.5, eps_inside=12.0)
    prof = profile(_mode(grid, values), strip, step=0.5)
    mirror = profile(_mode(grid, values[:, ::-1]), strip, step=0.5)
    assert np.array_equal(prof.distances, mirror.distances)
    assert np.allclose(prof.norms, mirror.norms, rtol=1e-12)


def _window_norm(values, grid, centre):
    """Midpoint-rule L2 norm of a scalar field over the cells within 1 of
    `centre` on both axes, and whether that window holds no cell."""
    sel = np.ones(grid.shape, dtype=bool)
    for a in range(grid.ndim):
        keep = np.abs(grid.centers(a) - centre[a]) <= 1.0
        sel &= keep.reshape([-1 if b == a else 1 for b in range(grid.ndim)])
    total = np.sum(np.abs(values[sel]) ** 2)
    return float(np.sqrt(total * grid.cell_volume)), not sel.any()


def _window_loop(mode, strip, step):
    """The profile by one _window_norm call per window on each of the two
    rays: (distances, norms), dropping a distance whose window on some ray
    lies outside the grid or holds no cell."""
    grid = mode.field.grid
    radius = strip.l * strip.cross_section.inradius()
    lo, hi = grid.extent(1)
    centre = 0.5 * sum(grid.extent(0))
    dists = np.arange(0.0, max(hi, -lo) - radius + 0.5 * step, step)
    kept, norms = [], []
    for d in dists:
        total, keep = 0.0, True
        for s in (+1.0, -1.0):
            y = s * (radius + d)
            if y - 1.0 > hi or y + 1.0 < lo:
                keep = False
                continue
            n, empty = _window_norm(mode.field.values, grid, (centre, y))
            keep &= not empty
            total += n ** 2
        if keep:
            kept.append(d)
            norms.append(np.sqrt(total))
    return np.array(kept), np.array(norms)


@pytest.mark.parametrize("shape, spacing, origin", [
    ((4, 100), (1 / 16, 0.1), (0.0, -3.0)),     # empty windows near x2 = -4
    ((6, 60), (0.5, 0.125), (-1.0, -3.5)),      # wide axial window
    ((2, 40), (3.0, 0.25), (0.0, -5.0)),        # no axial cell in any window
])
def test_profile_matches_a_window_norm_loop(shape, spacing, origin):
    grid = GridSpec(shape, spacing, origin)
    rng = np.random.default_rng(7)
    y = grid.centers(1)
    values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * np.exp(-3.0 * np.abs(y))          # down to the fit's noise floor
    strip = StripSpec(Box((1.0,)), l=0.5, eps_inside=12.0)
    prof = profile(_mode(grid, values), strip, step=0.125)
    dists, norms = _window_loop(_mode(grid, values), strip, 0.125)
    assert np.array_equal(prof.distances, dists)
    assert np.allclose(prof.norms, norms, rtol=1e-14, atol=0)
    if shape == (4, 100):       # the window at x2 = -4 is inside but empty
        assert 3.375 in dists and 3.5 not in dists
    if shape == (2, 40):
        assert len(dists) == 0


@pytest.mark.parametrize("varies", [False, True])
def test_density_reads_match_the_lifted_field(varies):
    # localization, profiles and wall amplitudes read a mode's density();
    # from its lifted values as a _Field they agree to 1e-14
    grid = GridSpec((4, 255), (1 / 16, 1 / 32), (0.0, -4.0))
    strip = StripSpec(Box((1.0,)), l=1.5, eps_inside=12.0)
    eps = with_defect(build_medium(MediumSpec(lattice=(0.25, 1.0), inclusions=(
        (Box((0.125, 0.1875)), 9.0),)), grid), strip)
    if varies:          # one sample changed: solved as the whole operator
        values = eps.values.copy()
        values[0, 0] = 2.0
        eps = SampledEpsilon(grid, values)
    ds = defect_spectrum(eps, strip, GapInterval(1.50647, 5.24793),
                         k1_samples=[4.5, 5.0], delta=0.15, count=16)
    assert len(ds.modes) >= 2
    walls = []
    for m in ds.modes:
        lifted = _Field(m.field.values, grid)
        assert m.localization == pytest.approx(
            _fraction_near(lifted.density(), _near_strip(grid, strip)),
            rel=1e-14, abs=0)
        got = profile(m, strip, step=0.125)
        want = profile(ModeResult(lam=m.lam, field=lifted,
                                  residual=m.residual, k1=m.k1),
                       strip, step=0.125)
        assert np.array_equal(got.distances, want.distances)
        assert np.allclose(got.norms, want.norms, rtol=1e-14, atol=0)
        amp = np.abs(lifted.values)
        walls.append(max(np.max(amp[:, 0]), np.max(amp[:, -1]))
                     / np.max(amp))
    assert np.allclose(ds.wall_amplitudes, walls, rtol=1e-14, atol=0)


def test_profile_needs_2d_field():
    grid = GridSpec((8,), (0.5,))
    bad_field = type("F", (), {"values": np.zeros(8), "grid": grid})()
    bad = ModeResult(lam=1.0, field=bad_field, residual=0.0, k1=0.0)
    strip = StripSpec(Box((1.0,)), l=0.5, eps_inside=12.0)
    with pytest.raises(ValidationError):
        profile(bad, strip, step=0.25)


def test_ct_shape_values():
    gap = GapInterval(1.0, 4.0)
    assert ct_shape(1.0, gap) == 0.0
    assert ct_shape(4.0, gap) == 0.0
    assert ct_shape(2.5, gap) == pytest.approx(1.5)
    with pytest.raises(ValidationError):
        ct_shape(0.5, gap)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 3.0))
def test_ct_shape_symmetry(t):
    gap = GapInterval(1.0, 4.0)
    # compare squares: sqrt amplifies rounding of 1+t near the edge
    assert ct_shape(1.0 + t, gap) ** 2 == pytest.approx(
        ct_shape(4.0 - t, gap) ** 2, abs=1e-12)


def test_rank_correlation_extremes():
    rates = [0.5, 1.0, 2.0, 3.0]
    assert rank_correlation(rates, [1, 2, 3, 4]) == pytest.approx(1.0)
    assert rank_correlation(rates, [4, 3, 2, 1]) == pytest.approx(-1.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.floats(-3.0, 3.0)),
                min_size=2, max_size=30),
       st.booleans())
def test_rank_correlation_matches_spearmanr(pairs, tied_shapes):
    # small integer rates tie often; the shapes tie too when rounded
    rates = [float(r) for r, _ in pairs]
    shapes = [round(x) if tied_shapes else x for _, x in pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # scipy warns on constant input
        want = stats.spearmanr(rates, shapes).statistic
    got = rank_correlation(rates, shapes)
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_rank_correlation_of_constant_input_is_nan():
    assert np.isnan(rank_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    assert np.isnan(rank_correlation([0.5, 1.0, 2.0], [4.0, 4.0, 4.0]))
    with pytest.raises(ValidationError):
        rank_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


def test_import_leaves_scipy_stats_out():
    # a fresh interpreter that imports the same gapguide as this one
    src = str(Path(gapguide.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import gapguide, gapguide.cli; "
            "print(gapguide.__file__); print('scipy.stats' in sys.modules); "
            "print('scipy.ndimage' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0] == gapguide.__file__
    assert out[1:] == ["False", "False"]
