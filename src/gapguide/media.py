"""Dielectric landscapes: periodic bulk, defect strip, sampled grids.

Lengths are in units of the lattice period.  Sampling is piecewise constant
at cell centers; samples inside the defect strip equal its dielectric value
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cross_section import CrossSection, Disk, Interval, MaskSection, Rect
from .errors import GeometryError, ResolutionError, ValidationError
from .grids import GridSpec


@dataclass(frozen=True)
class DiskInclusion:
    """Cylindrical rod (2D disk in the unit cell), dielectric eps inside."""

    center: tuple
    radius: float
    eps: float

    def contains(self, points):
        d = np.asarray(points)[..., : len(self.center)] - np.asarray(self.center)
        return np.sum(d * d, axis=-1) <= self.radius**2

    def min_feature(self):
        return 2.0 * self.radius


@dataclass(frozen=True)
class BoxInclusion:
    """Axis-aligned box [lo, hi] per axis; use degenerate axes for slabs."""

    lo: tuple
    hi: tuple
    eps: float

    def contains(self, points):
        pts = np.asarray(points)[..., : len(self.lo)]
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    def min_feature(self):
        return float(np.min(np.asarray(self.hi) - np.asarray(self.lo)))


@dataclass(frozen=True)
class StripSpec:
    """Infinite defect strip along x1 with transverse cross-section l * Omega."""

    cross_section: CrossSection
    l: float
    eps_inside: float

    def __post_init__(self):
        if self.l <= 0 or self.eps_inside <= 0:
            raise ValidationError("strip scale l and eps must be positive")

    def section(self) -> CrossSection:
        return self.cross_section.scale(self.l)

    def contains(self, transverse_points) -> np.ndarray:
        return self.section().contains(transverse_points)

    def distance(self, transverse_points) -> np.ndarray:
        """Distance from transverse coordinates to the scaled cross-section."""
        d = self.section().boundary_distance(transverse_points)
        return np.maximum(-d, 0.0)


@dataclass(frozen=True)
class MediumSpec:
    """Periodic bulk dielectric: background value plus inclusions in one cell."""

    lattice: tuple
    background: float = 1.0
    inclusions: tuple = ()
    defect: StripSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "lattice", tuple(float(a) for a in self.lattice))
        object.__setattr__(self, "inclusions", tuple(self.inclusions))
        vals = self.dielectric_values()
        if any(not np.isfinite(v) or v <= 0 for v in vals):
            raise ValidationError("dielectric values must lie in (0, inf)")
        for inc in self.inclusions:
            cell = np.asarray(self.lattice[: len(_inc_extent(inc))])
            if np.any(_inc_extent(inc) > cell):
                raise ValidationError("inclusion exceeds one unit cell")

    def dielectric_values(self):
        vals = [self.background] + [inc.eps for inc in self.inclusions]
        if self.defect is not None:
            vals.append(self.defect.eps_inside)
        return vals

    # -- JSON round trip ---------------------------------------------------

    def to_json(self) -> str:
        def enc_inc(inc):
            if isinstance(inc, DiskInclusion):
                return {"kind": "disk", "center": list(inc.center),
                        "radius": inc.radius, "eps": inc.eps}
            return {"kind": "box", "lo": list(inc.lo), "hi": list(inc.hi),
                    "eps": inc.eps}

        doc = {"lattice": list(self.lattice), "background": self.background,
               "inclusions": [enc_inc(i) for i in self.inclusions]}
        if self.defect is not None:
            doc["defect"] = {
                "cross_section": _enc_section(self.defect.cross_section),
                "l": self.defect.l, "eps": self.defect.eps_inside,
            }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MediumSpec":
        doc = json.loads(text)
        incs = []
        for d in doc.get("inclusions", []):
            if d["kind"] == "disk":
                incs.append(DiskInclusion(tuple(d["center"]), d["radius"], d["eps"]))
            elif d["kind"] == "box":
                incs.append(BoxInclusion(tuple(d["lo"]), tuple(d["hi"]), d["eps"]))
            else:
                raise ValidationError(f"unknown inclusion kind {d['kind']!r}")
        defect = None
        if "defect" in doc:
            dd = doc["defect"]
            defect = StripSpec(_dec_section(dd["cross_section"]), dd["l"], dd["eps"])
        return cls(tuple(doc["lattice"]), doc.get("background", 1.0),
                   tuple(incs), defect)


def _inc_extent(inc):
    if isinstance(inc, DiskInclusion):
        return np.full(len(inc.center), 2.0 * inc.radius)
    return np.asarray(inc.hi) - np.asarray(inc.lo)


def _enc_section(cs):
    if isinstance(cs, Disk):
        return {"kind": "disk", "radius": cs.radius, "center": list(cs.center)}
    if isinstance(cs, Rect):
        return {"kind": "rect", "half_widths": list(cs.half_widths),
                "center": list(cs.center)}
    if isinstance(cs, Interval):
        return {"kind": "interval", "half_width": cs.half_width, "center": cs.center}
    if isinstance(cs, MaskSection):
        rows = ["".join("1" if v else "0" for v in col)
                for col in cs.mask.T[::-1]]
        return {"kind": "mask", "rows": rows, "spacing": cs.spacing,
                "origin": list(cs.origin)}
    raise ValidationError(f"cannot serialize cross-section {type(cs).__name__}")


def _dec_section(d):
    kind = d["kind"]
    if kind == "disk":
        return Disk(d.get("radius", 1.0), tuple(d.get("center", (0.0, 0.0))))
    if kind == "rect":
        return Rect(tuple(d["half_widths"]), tuple(d.get("center", (0.0, 0.0))))
    if kind == "interval":
        return Interval(d.get("half_width", 1.0), d.get("center", 0.0))
    if kind == "mask":
        ms = MaskSection.from_ascii("\n".join(d["rows"]), d.get("spacing"))
        if "origin" in d:
            ms.origin = tuple(d["origin"])
        return ms
    raise ValidationError(f"unknown cross-section kind {kind!r}")


@dataclass(frozen=True)
class SampledEpsilon:
    """Per-cell dielectric samples on a grid."""

    grid: GridSpec
    values: np.ndarray
    bloch_period: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValidationError("sample array shape does not match grid")
        if np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValidationError("dielectric samples must lie in (0, inf)")
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build_medium(spec: MediumSpec, grid: GridSpec) -> SampledEpsilon:
    """Sample the periodic bulk dielectric eps0 on the grid (no defect)."""
    feats = [inc.min_feature() for inc in spec.inclusions]
    if feats:
        hmax = max(grid.spacing[: len(spec.lattice)])
        if min(feats) < 4.0 * hmax:
            raise ResolutionError(
                f"smallest inclusion ({min(feats):g}) needs >= 4 cells across, "
                f"grid spacing is {hmax:g}")
    mesh = grid.meshgrid()
    # wrap into the unit cell, centered at the origin
    cell = np.asarray(spec.lattice)
    wrapped = []
    for a, m in enumerate(mesh):
        if a < len(cell):
            p = cell[a]
            wrapped.append((m + p / 2) % p - p / 2)
        else:
            wrapped.append(m)
    pts = np.stack(wrapped, axis=-1)
    values = np.full(grid.shape, spec.background, dtype=float)
    for inc in spec.inclusions:
        values[inc.contains(pts)] = inc.eps
    return SampledEpsilon(grid=grid, values=values,
                          bloch_period=float(cell[0]))


def with_defect(eps0: SampledEpsilon, strip: StripSpec) -> SampledEpsilon:
    """Replace samples with transverse coordinate in l * Omega by eps_inside."""
    grid = eps0.grid
    section = strip.section()
    lo, hi = section.bbox()
    for a in range(1, grid.ndim):
        glo, ghi = grid.extent(a)
        if lo[a - 1] < glo or hi[a - 1] > ghi:
            raise GeometryError("strip cross-section exceeds transverse grid extent")
    mesh = grid.meshgrid()
    tpts = np.stack([mesh[a] for a in range(1, grid.ndim)], axis=-1)
    inside = section.contains(tpts)
    values = eps0.values.copy()
    values[inside] = strip.eps_inside
    return SampledEpsilon(grid=grid, values=values,
                          bloch_period=eps0.bloch_period)
