"""Uniform tensor grids used for sampling media and fields."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell grid.  Cell centers sit at origin + (i + 1/2) * spacing."""

    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...] = field(default=None)

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        spacing = tuple(float(h) for h in self.spacing)
        origin = self.origin
        if origin is None:
            origin = (0.0,) * len(shape)
        origin = tuple(float(o) for o in origin)
        if not (len(shape) == len(spacing) == len(origin)):
            raise ValidationError("shape, spacing and origin must have equal length")
        if any(n <= 0 for n in shape) or any(h <= 0 for h in spacing):
            raise ValidationError("grid shape and spacing must be positive")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def centers(self, axis: int) -> np.ndarray:
        n, h, o = self.shape[axis], self.spacing[axis], self.origin[axis]
        return o + (np.arange(n) + 0.5) * h

    def meshgrid(self):
        axes = [self.centers(a) for a in range(self.ndim)]
        return np.meshgrid(*axes, indexing="ij")

    def extent(self, axis: int) -> tuple[float, float]:
        return self.origin[axis], self.origin[axis] + self.shape[axis] * self.spacing[axis]
