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

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import ValidationError, IterationError
from .existence import GapInterval
from .media import StripSpec

__all__ = ["DecayProfile", "DecayFit", "profile", "fit_decay", "ct_shape",
           "rank_correlation"]


@dataclass(frozen=True)
class DecayProfile:
    """Windowed norms versus distance to the strip along transverse rays."""

    distances: np.ndarray     # strictly increasing, nonnegative
    norms: np.ndarray         # summed over rays at equal distance
    half_side: float
    strip_radius: float
    extent: float             # largest transverse distance the grid supports
    lam: float = np.nan
    k1: float = np.nan
    truncated: bool = False   # some windows exited the grid

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        if np.any(d < 0) or np.any(np.diff(d) <= 0):
            raise ValidationError("distances must be nonnegative and increasing")
        if np.any(np.asarray(self.norms) < 0):
            raise ValidationError("windowed norms are nonnegative")

    def rows(self, d_lo=None, d_hi=None):
        """(dist, norm, log norm, in-window flag) rows for tabular output."""
        for d, n in zip(self.distances, self.norms):
            ok = ((d_lo is None or d >= d_lo) and (d_hi is None or d <= d_hi)
                  and n > 0)
            yield float(d), float(n), float(np.log(n)) if n > 0 else np.nan, ok


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


def profile(mode, strip: StripSpec, step: float = 0.25,
            rays=None) -> DecayProfile:
    """Windowed norms marching outward from the strip along transverse rays.

    `mode` carries a sampled field (`.field.values` on `.field.grid`) plus
    eigenvalue metadata; rays default to both transverse directions of a 2D
    supercell.  The windows are unit cubes centred on the axial midpoint of
    the grid; windows that stick out of the grid truncate the profile and
    set its flag.
    """
    half_side = 1.0
    fld = mode.field
    grid = fld.grid
    if grid.ndim != 2:
        raise ValidationError("decay profiles expect a 2D supercell field")
    radius = strip.l * strip.cross_section.inradius()
    if rays is None:
        rays = (+1.0, -1.0)
    lo, hi = grid.extent(1)
    axial_center = 0.5 * sum(grid.extent(0))
    extent = max(hi, -lo) - radius
    dists = np.arange(0.0, extent + 0.5 * step, step)
    # window centres, one row per ray; a window is the cells within
    # half_side of its centre on both axes
    ys = np.multiply.outer(np.asarray(rays, dtype=float), radius + dists)
    truncated = bool(np.any((ys + half_side > hi) | (ys - half_side < lo)))
    outside = (ys - half_side > hi) | (ys + half_side < lo)
    axial = np.abs(grid.centers(0) - axial_center) <= half_side
    inside = np.abs(grid.centers(1) - ys[..., None]) <= half_side
    empty = ~inside.any(axis=-1) | ~axial.any()
    # per x2 row, |v|^2 summed over the axial window; each window norm^2 is
    # then a sum of these nonnegative row sums (no differenced prefix sums)
    rows = np.sum(np.abs(fld.values[axial]) ** 2, axis=0)
    squares = (inside @ rows) * grid.cell_volume
    kept = ~np.any(outside | empty, axis=0)
    norms = np.sqrt(np.sum(squares, axis=0))
    return DecayProfile(distances=dists[kept], norms=norms[kept],
                        half_side=half_side, strip_radius=radius,
                        extent=extent, lam=getattr(mode, "lam", np.nan),
                        k1=getattr(mode, "k1", np.nan),
                        truncated=truncated)


def fit_decay(p: DecayProfile, d_min: float | None = None,
              d_max: float | None = None) -> DecayFit:
    """Fit log(norm) = log(prefactor) - rate * dist over the guarded window.

    Default guards drop the near field (dist below one strip radius) and the
    outer quarter of the available transverse range (wall contamination);
    only the asymptotic slope carries meaning.  Nonpositive norms, and norms
    below 1e-8 times the profile peak (eigensolver noise floor, where the
    logarithm is meaningless), are excluded and counted.  At least five
    samples must remain.
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
    res = stats.linregress(x, y)
    return DecayFit(rate=max(-res.slope, 0.0), prefactor=float(np.exp(res.intercept)),
                    d_min=float(d_min), d_max=float(d_max),
                    r2=float(res.rvalue**2), n_samples=int(len(x)),
                    excluded=excluded)


def ct_shape(lam: float, gap: GapInterval) -> float:
    """In-gap rate shape sqrt((lam - alpha)(beta - lam)); edges give 0."""
    if lam < gap.alpha or lam > gap.beta:
        raise ValidationError(
            f"lambda {lam:g} outside the gap [{gap.alpha:g}, {gap.beta:g}]")
    return float(np.sqrt((lam - gap.alpha) * (gap.beta - lam)))


def rank_correlation(rates, shapes) -> float:
    """Spearman rank correlation (ordinal comparison only)."""
    r = stats.spearmanr(np.asarray(rates), np.asarray(shapes)).statistic
    return float(r)
