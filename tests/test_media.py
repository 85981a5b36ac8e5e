import json

import numpy as np
import pytest

from gapguide.cross_section import Box, Disk, MaskSection
from gapguide.errors import GeometryError, ResolutionError, ValidationError
from gapguide.grids import GridSpec
from gapguide.media import (MediumSpec, SampledEpsilon, StripSpec,
                            build_medium, with_defect)


def _rod_medium(radius=0.2, eps=9.0):
    return MediumSpec(lattice=(1.0, 1.0),
                      inclusions=((Disk(radius), eps),))


def test_rod_volume_fraction():
    grid = GridSpec((128, 128), (1 / 128, 1 / 128), (-0.5, -0.5))
    eps = build_medium(_rod_medium(), grid)
    frac = np.mean(eps.values == 9.0)
    assert frac == pytest.approx(np.pi * 0.2**2, rel=0.02)


def test_periodic_wrapping_repeats_the_cell():
    grid = GridSpec((64, 32), (1 / 32, 1 / 32), (0.0, -0.5))   # two periods axially
    eps = build_medium(_rod_medium(), grid)
    assert np.allclose(eps.values[:32], eps.values[32:])


def test_under_resolved_inclusion_raises():
    grid = GridSpec((8, 8), (1 / 8, 1 / 8), (-0.5, -0.5))
    with pytest.raises(ResolutionError):
        build_medium(_rod_medium(radius=0.05), grid)


def test_with_defect_is_idempotent_and_tracks_bounds():
    grid = GridSpec((4, 128), (1 / 16, 1 / 16), (0.0, -4.0))
    eps0 = build_medium(MediumSpec(lattice=(0.25, 1.0)), grid)
    strip = StripSpec(Box((1.0,)), l=1.5, eps_inside=12.0)
    d1 = with_defect(eps0, strip)
    d2 = with_defect(d1, strip)
    assert np.array_equal(d1.values, d2.values)
    # samples inside the strip take the defect value exactly
    y = grid.centers(1)
    inside = np.abs(y) <= 1.5 - 1e-9
    assert np.all(d1.values[:, inside] == 12.0)


def test_with_defect_rejects_oversized_strip():
    grid = GridSpec((4, 32), (1 / 16, 1 / 16), (0.0, -1.0))
    eps0 = build_medium(MediumSpec(lattice=(0.25, 1.0)), grid)
    with pytest.raises(GeometryError):
        with_defect(eps0, StripSpec(Box((1.0,)), l=2.0, eps_inside=12.0))


def test_medium_from_json_reads_every_kind():
    # inclusions and strips read the same shape kinds: a box's lo and hi
    # become its center and half-widths; a mask keeps its rows (first row
    # on top), spacing and origin
    sections = [
        ({"kind": "disk", "radius": 0.8, "center": [0.1, -0.2]},
         Disk(0.8, (0.1, -0.2))),
        ({"kind": "rect", "half_widths": [0.5, 0.25], "center": [0.0, 0.1]},
         Box((0.5, 0.25), (0.0, 0.1))),
        ({"kind": "interval", "half_width": 0.75, "center": 0.5},
         Box((0.75,), (0.5,))),
        ({"kind": "box", "lo": [-0.5], "hi": [1.5]}, Box((1.0,), (0.5,))),
    ]
    for section, want in sections:
        spec = MediumSpec.from_json(json.dumps({
            "lattice": [0.5, 1.0], "background": 2.0, "inclusions": [
                {"kind": "disk", "center": [0.0, 0.0], "radius": 0.2,
                 "eps": 4.0},
                {"kind": "box", "lo": [-0.1, -0.2], "hi": [0.1, 0.2],
                 "eps": 9.0},
                {"kind": "interval", "half_width": 0.125, "eps": 3.0}],
            "defect": {"cross_section": section, "l": 1.25, "eps": 12.0}}))
        assert spec.lattice == (0.5, 1.0) and spec.background == 2.0
        assert spec.inclusions == (
            (Disk(0.2), 4.0), (Box((0.1, 0.2)), 9.0), (Box((0.125,)), 3.0))
        assert spec.defect == StripSpec(want, l=1.25, eps_inside=12.0)
    mask = MediumSpec.from_json(json.dumps({
        "lattice": [1.0, 1.0],
        "defect": {"cross_section": {"kind": "mask", "rows": ["010", "111"],
                                     "spacing": 0.25, "origin": [-1.0, 0.5]},
                   "l": 2.0, "eps": 12.0}})).defect.cross_section
    assert isinstance(mask, MaskSection)
    assert np.array_equal(mask.mask, [[True, False], [True, True],
                                      [True, False]])
    assert (mask.spacing, mask.origin) == (0.25, (-1.0, 0.5))


def test_inclusions_are_closed_and_strips_open():
    # every cell centre is an odd multiple of 1/32, and so are the box's
    # faces and the points centre + (6, 8) / 32 of the disk's circle: those
    # samples lie on a boundary, where the two membership rules differ
    shapes = (Box((5 / 32, 7 / 32)), Disk(5 / 16, (1 / 32, 1 / 32)))
    grid = GridSpec((16, 16), (1 / 16, 1 / 16), (-0.5, -0.5))
    pts = np.stack(grid.meshgrid(), axis=-1)
    for shape in shapes:
        dist = shape.boundary_distance(pts)
        assert np.any(dist == 0)
        spec = MediumSpec((1.0, 1.0), inclusions=((shape, 9.0),))
        # an inclusion is closed: a sample on its boundary takes its eps
        assert np.array_equal(build_medium(spec, grid).values == 9.0,
                              dist >= 0)
    # a strip is open: a sample on its boundary keeps the background
    grid3 = GridSpec((2, 16, 16), (1 / 16,) * 3, (0.0, -0.5, -0.5))
    eps0 = build_medium(MediumSpec((1.0, 1.0, 1.0), 2.0), grid3)
    transverse = np.stack(grid3.meshgrid()[1:], axis=-1)
    for shape in shapes:
        dist = shape.boundary_distance(transverse)
        assert np.any(dist == 0)
        values = with_defect(eps0, StripSpec(shape, 1.0, 12.0)).values
        assert np.array_equal(values == 12.0, dist > 0)
        assert np.all(values[dist <= 0] == 2.0)


def test_medium_validation():
    with pytest.raises(ValidationError):
        MediumSpec(lattice=(1.0,), background=-1.0)
    with pytest.raises(ValidationError):   # inclusion larger than the cell
        MediumSpec(lattice=(1.0, 1.0),
                   inclusions=((Disk(0.8), 9.0),))
    with pytest.raises(ValidationError):   # more axes than the lattice
        MediumSpec(lattice=(1.0,), inclusions=((Disk(0.2), 9.0),))


def test_sampled_epsilon_validation():
    grid = GridSpec((4, 4), (1.0, 1.0))
    with pytest.raises(ValidationError):
        SampledEpsilon(grid, np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        SampledEpsilon(grid, np.ones((4, 5)))


def test_strip_distance():
    strip = StripSpec(Disk(1.0), l=2.0, eps_inside=12.0)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    d = strip.distance(pts)
    assert d[0] == 0.0 and d[1] == 0.0
    assert d[2] == pytest.approx(1.0)
