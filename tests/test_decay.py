import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapguide.cross_section import Interval
from gapguide.decay import (DecayFit, DecayProfile, ct_shape, fit_decay,
                            profile, rank_correlation)
from gapguide.discrete_op import ScalarField2
from gapguide.eigen import ModeResult
from gapguide.errors import IterationError, ValidationError
from gapguide.existence import GapInterval
from gapguide.grids import GridSpec
from gapguide.media import StripSpec


def _synthetic(rate=2.0, pref=3.0, dmax=5.0, step=0.25):
    d = np.arange(0.0, dmax, step)
    return DecayProfile(distances=d, norms=pref * np.exp(-rate * d),
                        half_side=1.0, strip_radius=0.5, extent=dmax)


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
                     half_side=1.0, strip_radius=0.5, extent=5.0)
    fit = fit_decay(p, d_min=0.5, d_max=4.0)
    assert fit.rate == 0.0


def test_fit_excludes_noise_floor():
    d = np.arange(0.0, 6.0, 0.25)
    norms = np.maximum(np.exp(-5.0 * d), 1e-14)   # eigensolver noise floor
    p = DecayProfile(distances=d, norms=norms, half_side=1.0,
                     strip_radius=0.5, extent=6.0)
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
                     half_side=1.0, strip_radius=0.5, extent=2.0)
    with pytest.raises(ValidationError):
        DecayProfile(distances=np.array([0.0, 1.0]), norms=np.array([1.0, -1.0]),
                     half_side=1.0, strip_radius=0.5, extent=2.0)


def _mode(grid, values, lam=2.0, k1=5.0):
    fld = ScalarField2(values, grid, bloch_k1=k1)
    return ModeResult(lam=lam, field=fld, residual=0.0, k1=k1)


def test_profile_of_sampled_exponential_field():
    grid = GridSpec((4, 256), (1 / 16, 1 / 32), (0.0, -4.0))
    y = grid.centers(1)
    mode = _mode(grid, np.tile(np.exp(-2.0 * np.abs(y)), (4, 1)))
    strip = StripSpec(Interval(1.0), l=0.5, eps_inside=12.0)
    prof = profile(mode, strip, step=0.25)
    assert prof.strip_radius == pytest.approx(0.5)
    assert prof.truncated                      # outermost windows exit the grid
    fit = fit_decay(prof, d_min=0.5, d_max=2.4)
    assert fit.rate == pytest.approx(2.0, rel=1e-3)
    assert fit.r2 > 0.999999


def test_profile_mirror_symmetry():
    grid = GridSpec((4, 256), (1 / 16, 1 / 32), (0.0, -4.0))
    y = grid.centers(1)
    mode = _mode(grid, np.tile(np.exp(-np.abs(y)), (4, 1)))
    strip = StripSpec(Interval(1.0), l=0.5, eps_inside=12.0)
    up = profile(mode, strip, step=0.5, rays=(+1.0,))
    dn = profile(mode, strip, step=0.5, rays=(-1.0,))
    n = min(len(up.norms), len(dn.norms))
    assert np.allclose(up.norms[:n], dn.norms[:n], rtol=1e-12)


def _window_norm(values, grid, centre):
    """Midpoint-rule L2 norm of a scalar field over the cells within 1 of
    `centre` on both axes, and whether that window holds no cell."""
    sel = np.ones(grid.shape, dtype=bool)
    for a in range(grid.ndim):
        keep = np.abs(grid.centers(a) - centre[a]) <= 1.0
        sel &= keep.reshape([-1 if b == a else 1 for b in range(grid.ndim)])
    total = np.sum(np.abs(values[sel]) ** 2)
    return float(np.sqrt(total * grid.cell_volume)), not sel.any()


def _window_loop(mode, strip, step, rays=(+1.0, -1.0)):
    """The profile by one _window_norm call per window: (distances, norms,
    truncated), dropping a distance whose window on some ray lies outside
    the grid or holds no cell."""
    grid = mode.field.grid
    radius = strip.l * strip.cross_section.inradius()
    lo, hi = grid.extent(1)
    centre = 0.5 * sum(grid.extent(0))
    dists = np.arange(0.0, max(hi, -lo) - radius + 0.5 * step, step)
    kept, norms, truncated = [], [], False
    for d in dists:
        total, keep = 0.0, True
        for s in rays:
            y = s * (radius + d)
            if y + 1.0 > hi or y - 1.0 < lo:
                truncated = True
                if y - 1.0 > hi or y + 1.0 < lo:
                    keep = False
                    continue
            n, empty = _window_norm(mode.field.values, grid, (centre, y))
            keep &= not empty
            total += n ** 2
        if keep:
            kept.append(d)
            norms.append(np.sqrt(total))
    return np.array(kept), np.array(norms), truncated


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
    strip = StripSpec(Interval(1.0), l=0.5, eps_inside=12.0)
    for rays in ((+1.0, -1.0), (-1.0,)):
        prof = profile(_mode(grid, values), strip, step=0.125, rays=rays)
        dists, norms, truncated = _window_loop(_mode(grid, values), strip,
                                               0.125, rays)
        assert prof.truncated == truncated
        assert np.array_equal(prof.distances, dists)
        assert np.allclose(prof.norms, norms, rtol=1e-14, atol=0)
    assert truncated
    if shape == (4, 100):       # the window at x2 = -4 is inside but empty
        assert 3.375 in dists and 3.5 not in dists
    if shape == (2, 40):
        assert len(dists) == 0


def test_profile_needs_2d_field():
    grid = GridSpec((8,), (0.5,))
    bad_field = type("F", (), {"values": np.zeros(8), "grid": grid})()
    bad = ModeResult(lam=1.0, field=bad_field, residual=0.0, k1=0.0)
    strip = StripSpec(Interval(1.0), l=0.5, eps_inside=12.0)
    with pytest.raises(ValidationError):
        profile(bad, strip)


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
