"""Dielectric landscapes: periodic bulk, defect strip, sampled grids.

Lengths are in units of the lattice period.  An inclusion is a
`(shape, eps)` pair: the shape, any `CrossSection`, spans the first
`shape.ndim` lattice axes and is extruded along the others.  Sampling is
piecewise constant at cell centers.  An inclusion is a closed set: a sample
with `boundary_distance >= 0` takes its eps.  The defect strip is open
(`contains`): a sample on its boundary keeps the bulk value, and samples
inside equal its dielectric value exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cross_section import Box, CrossSection, Disk, MaskSection
from .errors import GeometryError, ResolutionError, ValidationError
from .grids import GridSpec


@dataclass(frozen=True)
class StripSpec:
    """Infinite defect strip along x1 with open cross-section l * Omega."""

    cross_section: CrossSection
    l: float
    eps_inside: float

    def __post_init__(self):
        if self.l <= 0 or self.eps_inside <= 0:
            raise ValidationError("strip scale l and eps must be positive")

    def section(self) -> CrossSection:
        return self.cross_section.scale(self.l)

    def distance(self, transverse_points) -> np.ndarray:
        """Distance from transverse coordinates to the scaled cross-section."""
        d = self.section().boundary_distance(transverse_points)
        return np.maximum(-d, 0.0)


@dataclass(frozen=True)
class MediumSpec:
    """Periodic bulk dielectric: background plus `(shape, eps)` inclusions."""

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
        for shape, _ in self.inclusions:
            lo, hi = shape.bbox()
            cell = np.asarray(self.lattice[: shape.ndim])
            if len(cell) < shape.ndim or np.any(hi - lo > cell):
                raise ValidationError("inclusion exceeds one unit cell")

    def dielectric_values(self):
        vals = [self.background] + [eps for _, eps in self.inclusions]
        if self.defect is not None:
            vals.append(self.defect.eps_inside)
        return vals

    @classmethod
    def from_json(cls, text: str) -> "MediumSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValidationError(
                f"medium is a {type(doc).__name__}, not a JSON object")
        # a key left out takes the field's default
        given = {k: doc[k] for k in ("background", "inclusions", "defect")
                 if k in doc}
        if "inclusions" in given:
            given["inclusions"] = [(_dec_section(d), d["eps"])
                                   for d in given["inclusions"]]
        if "defect" in given:
            dd = given["defect"]
            given["defect"] = StripSpec(_dec_section(dd["cross_section"]),
                                        dd["l"], dd["eps"])
        return cls(doc["lattice"], **given)


def _dec_section(d):
    """The shape a JSON object describes, an inclusion's or a strip's.  A
    key left out takes the constructor's default; only `interval`'s
    `half_width` 1 is the decoder's own."""
    kind = d["kind"]
    if kind == "disk":
        return Disk(**{k: d[k] for k in ("radius", "center") if k in d})
    if kind == "rect":
        return Box(d["half_widths"], d.get("center"))
    if kind == "interval":
        return Box((d.get("half_width", 1.0),),
                   (d["center"],) if "center" in d else None)
    if kind == "box":
        lo, hi = (np.asarray(d[k], dtype=float) for k in ("lo", "hi"))
        return Box((hi - lo) / 2, (lo + hi) / 2)
    if kind == "mask":
        return MaskSection.from_ascii("\n".join(d["rows"]), d.get("spacing"),
                                      d.get("origin"))
    raise ValidationError(f"unknown shape kind {kind!r}")


@dataclass(frozen=True)
class SampledEpsilon:
    """Per-cell dielectric samples on a grid.

    The samples carry no lattice period: a caller sweeping the axial Bloch
    momentum k1 picks its samples itself (the CLI's default sweep takes the
    period from `MediumSpec.lattice`).
    """

    grid: GridSpec
    values: np.ndarray

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
    feats = [2.0 * shape.inradius() for shape, _ in spec.inclusions]
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
    for shape, eps in spec.inclusions:
        values[shape.boundary_distance(pts[..., : shape.ndim]) >= 0] = eps
    return SampledEpsilon(grid=grid, values=values)


def with_defect(eps0: SampledEpsilon, strip: StripSpec) -> SampledEpsilon:
    """Replace samples with transverse coordinate in the open set l * Omega
    by eps_inside; a sample on its boundary keeps eps0."""
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
    return SampledEpsilon(grid=grid, values=values)
