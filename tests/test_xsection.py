import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gapguide.cross_section import Disk, Interval
from gapguide.errors import GeometryError, ValidationError
from gapguide.grids import GridSpec
from gapguide.xsection import (NuEstimate, _laplacian, divergence,
                               make_test_field, refine_extrapolate, smoothstep,
                               solve_nu_scalar, solve_nu_vector)


def test_scalar_constant_interval():
    # 1D Dirichlet Laplacian on (-1, 1): pi^2 / 4
    est = solve_nu_scalar(Interval(1.0), h=2 / 64)
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


def test_resolution_guard():
    with pytest.raises(GeometryError):
        solve_nu_vector(Disk(1.0), h=0.2)


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
    assert np.max(np.abs(divergence(tf))) <= 1e-12 * scale
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
    assert tf.ip_lap == pytest.approx(-tf.grad_norm_sq, rel=1e-8)


def test_test_field_margin_validation():
    with pytest.raises(GeometryError):
        make_test_field(Disk(1.0), rho=0.6, h=2 / 48)
    with pytest.raises(GeometryError):
        make_test_field(Disk(1.0), rho=0.0, h=2 / 48)


def test_refine_extrapolate_exact_second_order():
    hs = [0.2, 0.1, 0.05]
    exact, c = 14.0, 3.0
    ests = [(h, exact + c * h**2) for h in hs]
    out = refine_extrapolate(ests)
    assert out.value == pytest.approx(exact, abs=1e-10)
    assert out.order == pytest.approx(2.0, abs=1e-8)
    assert out.extrapolated


def test_refine_extrapolate_accepts_estimates_and_needs_three():
    ests = [NuEstimate(14.0 + h**2, h) for h in (0.2, 0.1, 0.05)]
    assert refine_extrapolate(ests).value == pytest.approx(14.0, abs=1e-10)
    with pytest.raises(ValidationError):
        refine_extrapolate(ests[:2])


def test_refine_extrapolate_warns_on_non_monotone():
    ests = [(0.2, 14.2), (0.1, 13.9), (0.05, 14.05)]
    with pytest.warns(RuntimeWarning):
        out = refine_extrapolate(ests)
    assert out.value == pytest.approx(14.05)
    assert not out.extrapolated


def test_nu_estimate_must_be_positive():
    with pytest.raises(ValidationError):
        NuEstimate(value=-1.0, grid_h=0.1)


def test_smoothstep_endpoints_and_derivative():
    t = np.array([-1.0, 0.0, 1.0, 2.0])
    assert np.allclose(smoothstep(t), [0.0, 0.0, 1.0, 1.0])
    eps = 1e-6
    assert smoothstep(np.array([eps]))[0] < 1e-12      # flat start (C^2)
    assert 1 - smoothstep(np.array([1 - eps]))[0] < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_smoothstep_monotone(a, b):
    lo, hi = sorted((a, b))
    assert smoothstep(np.array([hi]))[0] >= smoothstep(np.array([lo]))[0]
