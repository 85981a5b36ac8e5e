"""Sufficient condition for guided modes and the trial-field residual.

A spectral gap (alpha, beta) of the periodic background supports guided
modes of the defect strip whenever

    l^2 (beta - alpha) eps > 2 nu,

with nu the cross-section constant from :mod:`gapguide.xsection`.  The
certificate behind the inequality is explicit: for a target mu in the gap
and half-width delta, the strip-supported trial field

    w(x) = psi_n(x1) e^{i k x1} (0, g_l(x'))          k = sqrt(mu eps)

has squared residual || curl curl w - k^2 w ||^2 equal to a four-term
expression in 1D moments of psi and 2D moments of g; driving the
longitudinal scale n up pushes it below the budget delta^2 eps^2 as long
as the n-independent floor l^-4 ||Lap g||^2 stays under budget.  This
module evaluates the condition, the closed-form expansion, and an
independent quadrature of the same residual: the discrete Parseval sum over
every (k1, k2, k3) Fourier mode of the trial field, reordered exactly into
one sum over k1 of |a(k1)|^2 times a quadratic in k1^2 - k^2 whose four
coefficients are transverse sums, so it costs one 2D FFT per call yet keeps
the carrier and divergence terms the closed form drops.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ResolutionError, ValidationError
from .grids import GridSpec
from .xsection import NuEstimate, TestField, smoothstep_polynomial

__all__ = [
    "GapInterval", "Profile", "TrialParams", "ConditionReport",
    "ResidualReport", "check_condition", "residual_closed_form",
    "residual_quadrature", "trial_norm_quadrature", "minimal_n",
    "quadrature_grid", "gap_samples",
]


@dataclass(frozen=True)
class GapInterval:
    """Finite spectral gap (alpha, beta), frequency-squared units."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < self.beta < np.inf):
            raise ValidationError(
                f"need 0 < alpha < beta < inf, got ({self.alpha}, {self.beta})")

    @property
    def width(self) -> float:
        return self.beta - self.alpha

    def contains(self, mu: float, delta: float = 0.0) -> bool:
        """Is (mu - delta, mu + delta) inside the open gap?"""
        return self.alpha < mu - delta and mu + delta < self.beta


def gap_samples(gap: GapInterval, count: int = 9) -> np.ndarray:
    """Uniform grid of points strictly inside the gap."""
    return np.linspace(gap.alpha, gap.beta, count + 2)[1:-1]


class Profile:
    """Even, compactly supported C^k bump on [-1, 1] with unit L2 norm.

    Built from the polynomial smoothstep of the distance to the support
    edge, so values, derivatives and all moments are evaluated from exact
    polynomial algebra; no quadrature error enters the closed-form residual
    terms.
    """

    def __init__(self, half_poly: Polynomial):
        # half_poly is psi on [0, 1] (psi is even); normalize exactly
        nrm2 = 2.0 * float((half_poly**2).integ()(1.0))
        p = half_poly / np.sqrt(nrm2)
        self._p = p
        self._p1 = p.deriv(1)
        self._p2 = p.deriv(2)

    @classmethod
    def bump(cls, k: int = 2) -> "Profile":
        """Smoothstep-of-distance bump; k=2 gives the C^2 quintic profile."""
        # S_k(t) at t = 1 - x, x in [0, 1]
        return cls(smoothstep_polynomial(k)(Polynomial([1, -1])))

    def __call__(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.where(x < 1.0, self._p(np.minimum(x, 1.0)), 0.0)

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        a = np.abs(x)
        return np.where(a < 1.0, np.sign(x) * self._p1(np.minimum(a, 1.0)), 0.0)

    # exact moments ---------------------------------------------------------

    @property
    def norm_sq(self) -> float:
        return 2.0 * float((self._p**2).integ()(1.0))

    @property
    def d1_norm_sq(self) -> float:
        return 2.0 * float((self._p1**2).integ()(1.0))

    @property
    def d2_norm_sq(self) -> float:
        return 2.0 * float((self._p2**2).integ()(1.0))

    @property
    def ip_d2(self) -> float:
        """<psi'', psi>; equals -||psi'||^2 by parts, computed independently."""
        return 2.0 * float((self._p2 * self._p).integ()(1.0))

    def scaled(self, n: float):
        """Callable for psi_n(x) = n^(-1/2) psi(x/n) (unit norm for every n)."""
        return lambda x: self(np.asarray(x) / n) / np.sqrt(n)


@dataclass(frozen=True)
class TrialParams:
    """Everything defining the trial field w for one (mu, delta, n) attempt."""

    l: float
    eps: float
    mu: float
    delta: float
    n: float
    psi: Profile
    g: TestField

    def __post_init__(self):
        if min(self.l, self.eps, self.mu, self.delta) <= 0:
            raise ValidationError("l, eps, mu, delta must be positive")
        if self.n < 1:
            raise ValidationError("longitudinal scale n must be >= 1")
        if abs(self.psi.norm_sq - 1.0) > 1e-8:
            raise ValidationError("profile psi must have unit L2 norm")
        g_norm_sq = np.sum(self.g.g ** 2) * self.g.grid.cell_volume
        if abs(g_norm_sq - 1.0) > 1e-6:
            raise ValidationError("test field g must have unit L2 norm")

    @property
    def k(self) -> float:
        return float(np.sqrt(self.mu * self.eps))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the gap-width sufficient condition."""

    passed: bool
    lhs: float          # l^2 (beta - alpha) eps
    rhs: float          # 2 nu
    margin: float       # lhs - rhs
    delta_star: float   # nu / (l^2 eps): delta-net half-widths below this work

    def __bool__(self):
        return self.passed

    def record(self) -> dict:
        return {"passed": self.passed, "lhs": self.lhs, "rhs": self.rhs,
                "margin": self.margin, "delta_star": self.delta_star}


def check_condition(l: float, eps: float, gap: GapInterval,
                    nu: NuEstimate | float) -> ConditionReport:
    """Evaluate l^2 (beta - alpha) eps > 2 nu (strict)."""
    nu_val = nu.value if isinstance(nu, NuEstimate) else float(nu)
    if not (l > 0 and eps > 0 and nu_val > 0):
        raise ValidationError("l, eps and nu must be positive")
    lhs = l**2 * gap.width * eps
    rhs = 2.0 * nu_val
    return ConditionReport(passed=lhs > rhs, lhs=lhs, rhs=rhs,
                           margin=lhs - rhs, delta_star=nu_val / (l**2 * eps))


@dataclass(frozen=True)
class ResidualReport:
    """Four-term closed form of the squared trial residual vs its budget."""

    closed_form: float
    terms: tuple
    threshold: float
    passes: bool
    quadrature: float | None = None

    def record(self) -> dict:
        t1, t2, t3, t4 = self.terms
        return {"closed_form": self.closed_form, "threshold": self.threshold,
                "passes": self.passes, "quadrature": self.quadrature,
                "terms": {"axial_d2": t1, "axial_d1": t2,
                          "transverse_floor": t3, "cross": t4}}


def _stream_spectral_moments(tf: TestField):
    """Moments of the band-limited field spanned by the stream samples.

    The rotated gradient is formed in Fourier space, so the interpolant is
    exactly divergence free and its moments are exact for that interpolant;
    this is the same field the quadrature route integrates.
    Returns (||Lap g||^2, <Lap g, g>) for the unit-norm field.
    """
    h = tf.grid.spacing
    s_hat = np.fft.fft2(tf.stream)
    k1 = 2 * np.pi * np.fft.fftfreq(tf.stream.shape[0], d=h[0])
    k2 = 2 * np.pi * np.fft.fftfreq(tf.stream.shape[1], d=h[1])
    ksq = k1[:, None] ** 2 + k2[None, :] ** 2
    p = np.abs(s_hat) ** 2
    m2 = float(np.sum(ksq * p))        # ~ ||g||^2
    m4 = float(np.sum(ksq**2 * p))     # ~ ||grad g||^2 = -<Lap g, g>
    m6 = float(np.sum(ksq**3 * p))     # ~ ||Lap g||^2
    if m2 <= 0:
        raise ValidationError("test field stream is identically zero")
    return m6 / m2, -m4 / m2


def residual_closed_form(tp: TrialParams) -> ResidualReport:
    """Four-term expansion of ||curl curl w - k^2 w||^2.

    Axial moments come from exact polynomial integrals of the profile;
    transverse moments from the spectral interpolant of the test field.
    """
    lap_g, ip_g = _stream_spectral_moments(tp.g)
    n, l, k = tp.n, tp.l, tp.k
    t1 = n**-4 * tp.psi.d2_norm_sq
    t2 = 4.0 * k**2 * n**-2 * tp.psi.d1_norm_sq
    t3 = l**-4 * lap_g
    t4 = 2.0 * (n * l) ** -2 * tp.psi.ip_d2 * ip_g
    total = t1 + t2 + t3 + t4
    thr = tp.delta**2 * tp.eps**2
    return ResidualReport(closed_form=float(total), terms=(t1, t2, t3, t4),
                          threshold=float(thr), passes=bool(total < thr))


def quadrature_grid(tp: TrialParams, axial_cells: int = 4096) -> GridSpec:
    """3D tensor grid resolving the trial field's support.

    Axial box (-1.25 n, 1.25 n); transverse grid is the test field's own
    grid scaled by l, so the stream samples carry over unchanged.
    """
    half = 1.25 * tp.n
    tg = tp.g.grid
    shape = (int(axial_cells), tg.shape[0], tg.shape[1])
    spacing = (2 * half / axial_cells, tp.l * tg.spacing[0], tp.l * tg.spacing[1])
    origin = (-half, tp.l * tg.origin[0], tp.l * tg.origin[1])
    return GridSpec(shape=shape, spacing=spacing, origin=origin)


def _check_quadrature_grid(tp: TrialParams, grid: GridSpec):
    if grid.ndim != 3:
        raise ValidationError("quadrature grid must be 3D")
    tg = tp.g.grid
    if grid.shape[1:] != tg.shape:
        raise ValidationError("transverse grid shape must match the test field")
    for a in (1, 2):
        if abs(grid.spacing[a] - tp.l * tg.spacing[a - 1]) > 1e-9 * grid.spacing[a]:
            raise ValidationError(
                "transverse spacing must be the test-field grid scaled by l")
    lo, hi = grid.extent(0)
    if lo > -tp.n or hi < tp.n:
        raise ResolutionError("axial box does not contain supp psi_n")
    # resolve the carrier e^{ikx1}: at least 6 cells per wavelength
    if grid.spacing[0] * tp.k > np.pi / 3:
        raise ResolutionError("axial spacing under-resolves the carrier wave")


def _spectral_factors(tp: TrialParams, grid: GridSpec):
    """Fourier data of the separable trial field on the grid."""
    x1 = grid.centers(0)
    a = tp.psi.scaled(tp.n)(x1) * np.exp(1j * tp.k * x1)
    a_hat = np.fft.fft(a)
    kap1 = 2 * np.pi * np.fft.fftfreq(grid.shape[0], d=grid.spacing[0])

    s_hat = np.fft.fft2(tp.g.stream)
    kap2 = 2 * np.pi * np.fft.fftfreq(grid.shape[1], d=grid.spacing[1])
    kap3 = 2 * np.pi * np.fft.fftfreq(grid.shape[2], d=grid.spacing[2])
    # g = (d/dx3 s, -d/dx2 s) formed spectrally: divergence-free exactly
    g2_hat = 1j * kap3[None, :] * s_hat
    g3_hat = -1j * kap2[:, None] * s_hat
    tsq = kap2[:, None] ** 2 + kap3[None, :] ** 2
    gnorm_sq = np.sum(tsq * np.abs(s_hat) ** 2) / s_hat.size \
        * grid.spacing[1] * grid.spacing[2]
    g2_hat /= np.sqrt(gnorm_sq)
    g3_hat /= np.sqrt(gnorm_sq)
    return a_hat, kap1, g2_hat, g3_hat, kap2, kap3


def residual_quadrature(tp: TrialParams, grid: GridSpec) -> float:
    """Squared residual ||curl curl w - k^2 w||^2 by discrete Fourier quadrature.

    The Fourier coefficient of the vector residual at mode (k1, k') is
    a(k1) (-k1 d, c g2 + u2, c g3 + u3) with c = k1^2 - k^2, d = k'.g
    and u_j = |k'|^2 g_j - k_j d.  Its Parseval sum over all modes is
    reordered exactly as sum_k1 |a(k1)|^2 (k1^2 S_dd + c^2 S_gg
    + 2 c S_gu + S_uu) with transverse sums S_dd = sum |d|^2,
    S_gg = sum |g|^2, S_gu = sum Re(g^* . u) and S_uu = sum |u|^2.  It keeps
    the carrier and divergence terms the four-term algebra drops, so it
    cross-validates the closed form.  Warns with a refinement advisory when
    the two disagree by more than 1%.
    """
    _check_quadrature_grid(tp, grid)
    a_hat, kap1, g2_hat, g3_hat, kap2, kap3 = _spectral_factors(tp, grid)
    k2m = kap2[:, None]
    k3m = kap3[None, :]
    tsq = k2m**2 + k3m**2
    dot = k2m * g2_hat + k3m * g3_hat   # spectral div of g: identically ~0
    u2 = tsq * g2_hat - k2m * dot
    u3 = tsq * g3_hat - k3m * dot
    s_dd = np.sum(np.abs(dot) ** 2)
    s_gg = np.sum(np.abs(g2_hat) ** 2 + np.abs(g3_hat) ** 2)
    s_gu = np.sum((np.conj(g2_hat) * u2 + np.conj(g3_hat) * u3).real)
    s_uu = np.sum(np.abs(u2) ** 2 + np.abs(u3) ** 2)
    c = kap1**2 - tp.k**2
    acc = np.sum(np.abs(a_hat) ** 2
                 * (kap1**2 * s_dd + c**2 * s_gg + 2 * c * s_gu + s_uu))
    total = acc * grid.cell_volume / np.prod(grid.shape)
    cf = residual_closed_form(tp).closed_form
    if abs(total - cf) > 0.01 * abs(cf):
        warnings.warn(
            f"quadrature residual {total:.6g} vs closed form {cf:.6g}: "
            "refine the quadrature grid", RuntimeWarning)
    return float(total)


def trial_norm_quadrature(tp: TrialParams, grid: GridSpec) -> float:
    """||w|| on the quadrature grid (should be 1 to quadrature accuracy)."""
    _check_quadrature_grid(tp, grid)
    a_hat, _, g2_hat, g3_hat, _, _ = _spectral_factors(tp, grid)
    axial = np.sum(np.abs(a_hat) ** 2) / a_hat.size * grid.spacing[0]
    trans = np.sum(np.abs(g2_hat) ** 2 + np.abs(g3_hat) ** 2) / g2_hat.size \
        * grid.spacing[1] * grid.spacing[2]
    return float(np.sqrt(axial * trans))


def minimal_n(tp: TrialParams) -> int | None:
    """Smallest integer n with closed-form residual under the budget, or
    None ("unreachable") when the n-independent floor l^-4 ||Lap g||^2
    already meets or exceeds delta^2 eps^2.

    With t1..t4 the terms at n = 1, all nonnegative (<psi'', psi> <= 0 and
    <Lap g, g> <= 0), the residual is t1 x^2 + (t2 + t4) x + t3 in
    x = n^-2, falling strictly with n.  n starts at its positive root and
    steps (once at most, in practice) to residual(n) < budget <=
    residual(n - 1) in floating point.
    """
    thr = tp.delta**2 * tp.eps**2
    t1, t2, t3, t4 = residual_closed_form(replace(tp, n=1)).terms
    s, b = thr - t3, t2 + t4
    if s <= 0:
        return None

    def value(n):
        return residual_closed_form(replace(tp, n=n)).closed_form

    x = 2.0 * s / (b + math.sqrt(b * b + 4.0 * t1 * s))
    n = max(1, math.ceil(x**-0.5))
    while value(n) >= thr:
        n += 1
    while n > 1 and value(n - 1) < thr:
        n -= 1
    return n
