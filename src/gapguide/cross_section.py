"""Shapes: the inclusions of the periodic medium and the strip's Omega.

One set of bounded shapes serves both roles: `Box` (an interval, rectangle
or block), `Disk` and `MaskSection`.  Each gives membership in the open set
(`contains`), the signed boundary distance (positive inside), its bounding
box and inradius, and boundary-crossing fractions along segments, which the
finite-difference solvers in :mod:`gapguide.xsection` use for curved-boundary
stencil corrections.  :mod:`gapguide.media` samples an inclusion as a closed
set (`boundary_distance >= 0`) and a strip cross-section as an open one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedGeometryError, ValidationError


class CrossSection:
    """Base class.  Subclasses are immutable value objects."""

    ndim: int

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean membership for points of shape (..., ndim)."""
        raise NotImplementedError

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def inradius(self) -> float:
        raise NotImplementedError

    def diameter(self) -> float:
        lo, hi = self.bbox()
        return float(np.linalg.norm(hi - lo))

    def scale(self, l: float) -> "CrossSection":
        raise NotImplementedError

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the boundary, positive inside, negative outside."""
        raise NotImplementedError

    def check_simply_connected(self) -> None:
        """Raise UnsupportedGeometryError if the domain has holes or pieces."""
        # analytic shapes are convex; masks override

    def crossing(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Fraction t in (0, 1] where segment q -> p first leaves the domain.

        q (inside) and p (outside) have shape (..., ndim); t has shape (...),
        0-d for a single segment.  The default bisects every segment at
        once on `contains` until its bracket is below 1e-13.
        """
        q, p = np.broadcast_arrays(np.asarray(q, dtype=float),
                                   np.asarray(p, dtype=float))
        a = np.zeros(q.shape[:-1])
        b = np.ones(q.shape[:-1])
        for _ in range(80):
            m = 0.5 * (a + b)
            inside = self.contains(q + m[..., None] * (p - q))
            a = np.where(inside, m, a)
            b = np.where(inside, b, m)
            if np.all(b - a < 1e-13):
                break
        return 0.5 * (a + b)


@dataclass(frozen=True)
class Disk(CrossSection):
    radius: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)
    ndim = 2

    def __post_init__(self):
        if not self.radius > 0:
            raise ValidationError(f"disk radius {self.radius!r} is not positive")
        c = np.asarray(self.center, dtype=float)
        if c.shape != (2,) or not np.all(np.isfinite(c)):
            raise ValidationError(
                f"disk center {self.center!r} is not 2 finite coordinates")
        object.__setattr__(self, "center", tuple(map(float, c)))

    def contains(self, points):
        d = np.asarray(points, dtype=float) - np.asarray(self.center)
        return np.sum(d * d, axis=-1) < self.radius**2

    def bbox(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def inradius(self):
        return self.radius

    def scale(self, l):
        return Disk(self.radius * l, np.asarray(self.center) * l)

    def boundary_distance(self, points):
        d = np.asarray(points, dtype=float) - np.asarray(self.center)
        return self.radius - np.sqrt(np.sum(d * d, axis=-1))

    def crossing(self, q, p):
        # exact: first root of |q + t (p - q)| = R on each segment
        c = np.asarray(self.center, dtype=float)
        q = np.asarray(q, dtype=float) - c
        d = np.asarray(p, dtype=float) - c - q
        a = np.sum(d * d, axis=-1)
        b = 2.0 * np.sum(q * d, axis=-1)
        cc = np.sum(q * q, axis=-1) - self.radius**2
        disc = b * b - 4 * a * cc
        if np.any(disc < 0):
            raise ValidationError("segment does not cross the circle")
        return (-b + np.sqrt(disc)) / (2 * a)


@dataclass(frozen=True)
class Box(CrossSection):
    """Axis-aligned box |x - center| < half_widths, one half-width per axis:
    an interval in 1D, a rectangle in 2D, a block in 3D.  The center
    defaults to the origin."""

    half_widths: tuple
    center: tuple = None

    def __post_init__(self):
        w = tuple(map(float, self.half_widths))
        c = (0.0,) * len(w) if self.center is None else tuple(
            map(float, self.center))
        if not w or min(w) <= 0 or len(c) != len(w):
            raise ValidationError(
                "box half_widths must be positive, one per center axis")
        object.__setattr__(self, "half_widths", w)
        object.__setattr__(self, "center", c)

    @property
    def ndim(self):
        return len(self.half_widths)

    def contains(self, points):
        d = np.abs(np.asarray(points, dtype=float) - np.asarray(self.center))
        return np.all(d < np.asarray(self.half_widths), axis=-1)

    def bbox(self):
        c = np.asarray(self.center)
        w = np.asarray(self.half_widths)
        return c - w, c + w

    def inradius(self):
        return min(self.half_widths)

    def scale(self, l):
        return Box(tuple(np.asarray(self.half_widths) * l),
                   tuple(np.asarray(self.center) * l))

    def boundary_distance(self, points):
        d = np.abs(np.asarray(points, dtype=float) - np.asarray(self.center))
        return np.min(np.asarray(self.half_widths) - d, axis=-1)


class MaskSection(CrossSection):
    """Cross-section rasterized as a 0/1 cell mask.  A None `spacing` fits
    the mask's longer side in 2; a None `origin` centres it."""

    ndim = 2

    def __init__(self, mask: np.ndarray, spacing=None, origin=None):
        # a read-only copy: edits to the caller's array must not reach
        # `contains` while `_edt` stays as built
        mask = np.array(mask, dtype=bool)
        if mask.ndim != 2 or not mask.any():
            raise ValidationError("mask must be a non-empty 2D boolean array")
        spacing = 2.0 / max(mask.shape) if spacing is None else float(spacing)
        if not 0 < spacing < np.inf:
            raise ValidationError(
                f"mask spacing {spacing!r} is not positive and finite")
        if origin is None:
            origin = -0.5 * spacing * np.asarray(mask.shape)
        origin = tuple(float(o) for o in origin)
        if len(origin) != 2:
            raise ValidationError(
                f"mask origin needs 2 coordinates, not {len(origin)}")
        mask.flags.writeable = False
        self.mask = mask
        self.spacing = spacing
        self.origin = origin
        # imported on use, so that `import gapguide` leaves scipy.ndimage out
        from scipy import ndimage
        # distance (in cells) from each inside cell to the nearest outside cell
        self._edt = ndimage.distance_transform_edt(mask)

    @classmethod
    def from_ascii(cls, text: str, spacing, origin) -> "MaskSection":
        """Parse an ASCII 0/1 grid (rows are lines, the first the top row)."""
        rows = [line for line in text.splitlines() if line.strip()]
        arr = np.array([[c == "1" for c in row.strip()] for row in rows])
        # file rows top-to-bottom -> grid axis 1 descending; transpose to (x, y)
        return cls(arr[::-1].T, spacing, origin)

    def _indices(self, points):
        pts = np.asarray(points, dtype=float)
        return np.floor((pts - np.asarray(self.origin)) / self.spacing).astype(int)

    def contains(self, points):
        idx = self._indices(points)
        ok = np.all((idx >= 0) & (idx < np.asarray(self.mask.shape)), axis=-1)
        out = np.zeros(ok.shape, dtype=bool)
        out[ok] = self.mask[tuple(idx[ok].T)]
        return out

    def bbox(self):
        lo = np.asarray(self.origin)
        return lo, lo + self.spacing * np.asarray(self.mask.shape)

    def inradius(self):
        return float(self._edt.max()) * self.spacing

    def scale(self, l):
        return MaskSection(self.mask, self.spacing * l,
                           origin=tuple(np.asarray(self.origin) * l))

    def boundary_distance(self, points):
        idx = self._indices(points)
        n = np.asarray(self.mask.shape)
        idx = np.clip(idx, 0, n - 1)
        d = self._edt[idx[..., 0], idx[..., 1]] * self.spacing
        inside = self.contains(points)
        return np.where(inside, d, -self.spacing)

    def check_simply_connected(self):
        from scipy import ndimage
        _, npieces = ndimage.label(self.mask)
        if npieces != 1:
            raise UnsupportedGeometryError(f"mask has {npieces} connected pieces")
        pad = np.pad(~self.mask, 1, constant_values=True)
        _, nholes = ndimage.label(pad)
        if nholes != 1:
            raise UnsupportedGeometryError("mask has interior holes")
