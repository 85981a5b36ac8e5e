"""Confinement analysis: windowed-norm decay profiles and exponential fits.

Guided modes are Bloch-periodic along the strip, so their local amplitude
away from the guide follows a pure exponential in the transverse distance;
the polynomial prefactor of the general localized-mode bound is not
measurable here and the pure-exponential model is used throughout (noted in
fit metadata).  Fitted rates are compared ordinally against the in-gap rate
shape sqrt((lam - alpha)(beta - lam)) -- only the shape is claimed, not
constants.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, IterationError
from .existence import GapInterval
from .media import StripSpec

__all__ = ["DecayProfile", "DecayFit", "profile", "fit_decay", "ct_shape",
           "rank_correlation"]


@dataclass(frozen=True)
class DecayProfile:
    """Windowed norms versus distance to the strip along both transverse
    rays."""

    distances: np.ndarray     # strictly increasing, nonnegative
    norms: np.ndarray         # summed over both rays at equal distance
    strip_radius: float
    extent: float             # largest transverse distance the grid supports

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        if np.any(d < 0) or np.any(np.diff(d) <= 0):
            raise ValidationError("distances must be nonnegative and increasing")
        if np.any(np.asarray(self.norms) < 0):
            raise ValidationError("windowed norms are nonnegative")


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential rate over a guarded distance window."""

    rate: float               # decay rate, clamped at 0
    prefactor: float
    d_min: float
    d_max: float
    r2: float
    n_samples: int
    excluded: int = 0         # nonpositive norms dropped inside the window
    model: str = "pure-exponential (Bloch-periodic axial mode)"

    def record(self) -> dict:
        return {"rate": self.rate, "prefactor": self.prefactor,
                "window": [self.d_min, self.d_max], "r2": self.r2,
                "n_samples": self.n_samples, "excluded": self.excluded,
                "model": self.model}


_HALF_SIDE = 1.0      # half the side of a profile window
_RAYS = (+1.0, -1.0)  # the transverse directions a profile marches along


@functools.lru_cache(maxsize=8)
def _windows(grid, radius: float, step: float) -> tuple:
    """The window geometry of `profile`, the same for every mode of a
    supercell: the transverse extent, the distances, the axial window
    cells, the per-ray x2 window indicators and the mask of kept distances
    (arrays read-only, shared by every caller)."""
    lo, hi = grid.extent(1)
    axial_center = 0.5 * sum(grid.extent(0))
    extent = max(hi, -lo) - radius
    dists = np.arange(0.0, extent + 0.5 * step, step)
    # window centres, one row per ray; a window is the cells within
    # _HALF_SIDE of its centre on both axes
    ys = np.multiply.outer(np.asarray(_RAYS), radius + dists)
    outside = (ys - _HALF_SIDE > hi) | (ys + _HALF_SIDE < lo)
    axial = np.abs(grid.centers(0) - axial_center) <= _HALF_SIDE
    inside = np.abs(grid.centers(1) - ys[..., None]) <= _HALF_SIDE
    empty = ~inside.any(axis=-1) | ~axial.any()
    kept = ~np.any(outside | empty, axis=0)
    for a in (dists, axial, inside, kept):
        a.flags.writeable = False
    return extent, dists, axial, inside, kept


def profile(mode, strip: StripSpec, step: float) -> DecayProfile:
    """Windowed norms marching outward from the strip along both transverse
    rays of a 2D supercell.

    `mode` carries a sampled field on `.field.grid`, of which only
    `.field.density()`, |values|^2 on the grid, is read: a `HarmonicField`
    gives it without lifting its grid field.  The windows are squares of
    half side `_HALF_SIDE` centred on the axial midpoint of the grid, and
    they run out to the walls: a distance whose window on some ray lies
    wholly outside the grid or holds no cell is dropped.  The window
    geometry is built once per grid, strip radius and step (`_windows`).
    `step` must be positive.
    """
    if not step > 0:
        raise ValidationError(f"profile step must be positive, not {step!r}")
    fld = mode.field
    grid = fld.grid
    if grid.ndim != 2:
        raise ValidationError("decay profiles expect a 2D supercell field")
    radius = strip.l * strip.cross_section.inradius()
    extent, dists, axial, inside, kept = _windows(grid, radius, float(step))
    # per x2 row, |v|^2 summed over the axial window; each window norm^2 is
    # then a sum of these nonnegative row sums (no differenced prefix sums)
    rows = np.sum(fld.density()[axial], axis=0)
    squares = (inside @ rows) * grid.cell_volume
    norms = np.sqrt(np.sum(squares, axis=0))
    return DecayProfile(distances=dists[kept], norms=norms[kept],
                        strip_radius=radius, extent=extent)


def fit_decay(p: DecayProfile, d_min: float | None = None,
              d_max: float | None = None) -> DecayFit:
    """Fit log(norm) = log(prefactor) - rate * dist over the guarded window.

    Default guards drop the near field (dist below one strip radius) and the
    outer quarter of the available transverse range (wall contamination);
    only the asymptotic slope carries meaning.  Nonpositive norms, and norms
    below 1e-8 times the profile peak (eigensolver noise floor, where the
    logarithm is meaningless), are excluded and counted.  At least five
    samples must remain.  The slope, intercept and r^2 are the closed-form
    least-squares ones (as scipy.stats.linregress computes them); where
    every log equals their mean (a flat profile), r^2 is NaN, as there.
    """
    if d_min is None:
        d_min = p.strip_radius
    if d_max is None:
        d_max = 0.75 * p.extent
    if d_max <= d_min:
        raise ValidationError(
            f"empty fit window [{d_min:g}, {d_max:g}] after guards")
    sel = (p.distances >= d_min) & (p.distances <= d_max)
    floor = 1e-8 * float(np.max(p.norms)) if len(p.norms) else 0.0
    pos = sel & (np.asarray(p.norms) > floor)
    excluded = int(np.count_nonzero(sel) - np.count_nonzero(pos))
    if np.count_nonzero(pos) < 5:
        raise IterationError(
            f"only {np.count_nonzero(pos)} usable samples in the fit window "
            "(need 5)")
    x = p.distances[pos]
    y = np.log(p.norms[pos])
    dx, dy = x - x.mean(), y - y.mean()
    sxx, sxy, syy = dx @ dx, dx @ dy, dy @ dy
    slope = sxy / sxx
    r2 = min(sxy * sxy / (sxx * syy), 1.0) if syy > 0 else np.nan
    return DecayFit(rate=max(0.0, -float(slope)),
                    prefactor=float(np.exp(y.mean() - slope * x.mean())),
                    d_min=float(d_min), d_max=float(d_max), r2=float(r2),
                    n_samples=int(len(x)), excluded=excluded)


def ct_shape(lam: float, gap: GapInterval) -> float:
    """In-gap rate shape sqrt((lam - alpha)(beta - lam)); edges give 0."""
    if lam < gap.alpha or lam > gap.beta:
        raise ValidationError(
            f"lambda {lam:g} outside the gap [{gap.alpha:g}, {gap.beta:g}]")
    return float(np.sqrt((lam - gap.alpha) * (gap.beta - lam)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, tied values sharing the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True,
                                   return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def rank_correlation(rates, shapes) -> float:
    """Spearman rank correlation (ordinal comparison only): the Pearson
    correlation of average ranks, as scipy.stats.spearmanr computes it.
    NaN when either input is constant or holds a NaN."""
    x, y = np.asarray(rates, dtype=float), np.asarray(shapes, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("rates and shapes must be equal-length lists")
    if np.isnan(x).any() or np.isnan(y).any():
        return np.nan
    rx, ry = _average_ranks(x), _average_ranks(y)
    rx, ry = rx - rx.mean(), ry - ry.mean()
    den = np.sqrt((rx @ rx) * (ry @ ry))
    return float(np.clip(rx @ ry / den, -1.0, 1.0)) if den > 0 else np.nan
