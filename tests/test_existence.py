import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gapguide.cross_section import Disk
from gapguide.errors import ResolutionError, ValidationError
from gapguide.existence import (GapInterval, Profile, TrialParams,
                                check_condition, gap_samples, minimal_n,
                                quadrature_grid, residual_closed_form,
                                residual_quadrature, trial_norm_quadrature)
from gapguide.grids import GridSpec
from gapguide.xsection import make_test_field


@pytest.fixture(scope="module")
def tf():
    return make_test_field(Disk(1.0), rho=0.15, h=2 / 48)


@pytest.fixture(scope="module")
def psi():
    return Profile.bump(2)


def test_gap_interval_validation_and_contains():
    with pytest.raises(ValidationError):
        GapInterval(2.0, 1.0)
    with pytest.raises(ValidationError):
        GapInterval(-1.0, 1.0)
    g = GapInterval(1.0, 4.0)
    assert g.width == 3.0
    assert g.contains(2.0, 0.5)
    assert not g.contains(3.8, 0.5)


def test_gap_samples_strictly_inside():
    g = GapInterval(1.0, 4.0)
    mus = gap_samples(g, 9)
    assert len(mus) == 9
    assert np.all(mus > g.alpha) and np.all(mus < g.beta)
    assert np.allclose(np.diff(mus), mus[1] - mus[0])


def test_profile_normalization_and_support(psi):
    assert psi.norm_sq == pytest.approx(1.0, abs=1e-14)
    x = np.linspace(-1.5, 1.5, 31)
    vals = psi(x)
    assert np.all(vals[np.abs(x) >= 1.0] == 0.0)
    # clamped edge: value and slope vanish at the support boundary
    assert abs(psi(np.array([0.999999]))[0]) < 1e-10
    assert abs(psi.d1(np.array([0.999999]))[0]) < 1e-9


def test_profile_ibp_identity_is_exact(psi):
    assert psi.ip_d2 == pytest.approx(-psi.d1_norm_sq, rel=1e-12)


def test_profile_scaled_keeps_unit_norm(psi):
    for n in (1, 5, 37):
        x = np.linspace(-n, n, 200001)
        val = np.trapezoid(psi.scaled(n)(x) ** 2, x)
        assert val == pytest.approx(1.0, abs=1e-6)


def test_check_condition_reference_case():
    rep = check_condition(1.0, 12.0, GapInterval(1.0, 4.0), nu=14.682)
    assert rep.passed
    assert rep.lhs == pytest.approx(36.0)
    assert rep.rhs == pytest.approx(29.364)
    assert rep.margin == pytest.approx(6.636)
    assert rep.delta_star == pytest.approx(14.682 / 12.0)
    assert bool(rep)


def test_check_condition_fails_on_equality_and_tiny_eps():
    nu = 14.682
    width = 2 * nu / 12.0
    assert not check_condition(1.0, 12.0, GapInterval(1.0, 1.0 + width), nu).passed
    assert not check_condition(1.0, 1e-6, GapInterval(1.0, 4.0), nu).passed
    with pytest.raises(ValidationError):
        check_condition(-1.0, 12.0, GapInterval(1.0, 4.0), nu)


def test_trial_params_validation(tf, psi):
    good = dict(l=1.0, eps=12.0, mu=2.5, delta=1.0, n=4, psi=psi, g=tf)
    TrialParams(**good)
    with pytest.raises(ValidationError):
        TrialParams(**{**good, "n": 0})
    with pytest.raises(ValidationError):
        TrialParams(**{**good, "delta": -0.5})
    bad_g = dataclasses.replace(tf, g=2 * tf.g)
    with pytest.raises(ValidationError):
        TrialParams(**{**good, "g": bad_g})
    assert TrialParams(**good).k == pytest.approx(np.sqrt(2.5 * 12.0))


def test_residual_terms_and_large_n_limit(tf, psi):
    tp = TrialParams(l=1.0, eps=12.0, mu=2.5, delta=1.0, n=4, psi=psi, g=tf)
    rep = residual_closed_form(tp)
    t1, t2, t3, t4 = rep.terms
    assert rep.closed_form == pytest.approx(t1 + t2 + t3 + t4)
    assert t1 > 0 and t2 > 0 and t3 > 0
    far = residual_closed_form(dataclasses.replace(tp, n=2**20))
    assert far.closed_form == pytest.approx(t3, rel=1e-3)


def test_minimal_n_is_minimal(tf, psi):
    probe = TrialParams(l=1.0, eps=12.0, mu=2.5, delta=1.0, n=1, psi=psi, g=tf)
    floor = residual_closed_form(probe).terms[2]
    delta = 1.1 * np.sqrt(floor) / probe.eps     # just above the floor budget
    tp = dataclasses.replace(probe, delta=delta)
    n = minimal_n(tp)
    assert n is not None and n >= 1
    thr = tp.delta**2 * tp.eps**2
    assert residual_closed_form(dataclasses.replace(tp, n=n)).closed_form < thr
    if n > 1:
        prev = residual_closed_form(dataclasses.replace(tp, n=n - 1)).closed_form
        assert prev >= thr


@pytest.mark.parametrize("factor", [1.0001, 1.1, 3.0])
@pytest.mark.parametrize("mu", [0.5, 20.0])
def test_minimal_n_matches_a_brute_force_scan(tf, psi, factor, mu):
    # factor scales delta above the floor budget; 1.0001 puts n near 60
    probe = TrialParams(l=1.0, eps=12.0, mu=mu, delta=1.0, n=1, psi=psi, g=tf)
    floor = residual_closed_form(probe).terms[2]
    tp = dataclasses.replace(probe, delta=factor * np.sqrt(floor) / probe.eps)
    thr = tp.delta**2 * tp.eps**2
    scan = next(m for m in range(1, 10_000) if residual_closed_form(
        dataclasses.replace(tp, n=m)).closed_form < thr)
    assert minimal_n(tp) == scan


def test_minimal_n_unreachable_below_the_floor(tf, psi):
    # l^2 delta eps at or below the field quotient: floor >= budget, no n works
    probe = TrialParams(l=1.0, eps=12.0, mu=2.5, delta=1.0, n=1, psi=psi, g=tf)
    floor = residual_closed_form(probe).terms[2]
    delta = 0.9 * np.sqrt(floor) / probe.eps
    assert minimal_n(dataclasses.replace(probe, delta=delta)) is None


def test_quadrature_matches_closed_form(tf, psi):
    tp = TrialParams(l=1.2, eps=8.0, mu=2.0, delta=1.0, n=12, psi=psi, g=tf)
    grid = quadrature_grid(tp)
    quad = residual_quadrature(tp, grid)
    assert quad == pytest.approx(residual_closed_form(tp).closed_form, rel=1e-6)
    assert trial_norm_quadrature(tp, grid) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("l, eps, mu, n", [(1.0, 12.0, 2.5, 8),
                                           (1.7, 3.0, 3.5, 30)])
def test_quadrature_matches_brute_force_parseval(tf, psi, l, eps, mu, n):
    tp = TrialParams(l=l, eps=eps, mu=mu, delta=1.0, n=n, psi=psi, g=tf)
    grid = quadrature_grid(tp, axial_cells=512)
    assert residual_quadrature(tp, grid) == pytest.approx(
        oracles.parseval_residual(tp, grid), rel=1e-12)


def test_quadrature_grid_guards(tf, psi):
    tp = TrialParams(l=1.0, eps=12.0, mu=2.5, delta=1.0, n=64, psi=psi, g=tf)
    with pytest.raises(ResolutionError):      # carrier under-resolved axially
        residual_quadrature(tp, quadrature_grid(tp, axial_cells=64))
    good = quadrature_grid(tp)
    bad = GridSpec((good.shape[0], 8, 8), good.spacing, good.origin)
    with pytest.raises(ValidationError):      # transverse grid must match g
        residual_quadrature(tp, bad)


@settings(max_examples=30, deadline=None)
@given(st.floats(1.1, 3.9))
def test_gap_contains_interior_points(mu):
    assert GapInterval(1.0, 4.0).contains(mu)
