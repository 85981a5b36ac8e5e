import json

import numpy as np
import pytest

from gapguide.cross_section import Disk, Interval
from gapguide.errors import GeometryError, ResolutionError, ValidationError
from gapguide.grids import GridSpec
from gapguide.media import (BoxInclusion, DiskInclusion, MediumSpec,
                            SampledEpsilon, StripSpec, build_medium,
                            with_defect)


def _rod_medium(radius=0.2, eps=9.0):
    return MediumSpec(lattice=(1.0, 1.0),
                      inclusions=(DiskInclusion((0.0, 0.0), radius, eps),))


def test_rod_volume_fraction():
    grid = GridSpec((128, 128), (1 / 128, 1 / 128), (-0.5, -0.5))
    eps = build_medium(_rod_medium(), grid)
    frac = np.mean(eps.values == 9.0)
    assert frac == pytest.approx(np.pi * 0.2**2, rel=0.02)
    assert eps.bloch_period == pytest.approx(1.0)


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
    strip = StripSpec(Interval(1.0), l=1.5, eps_inside=12.0)
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
        with_defect(eps0, StripSpec(Interval(1.0), l=2.0, eps_inside=12.0))


def test_medium_json_round_trip():
    spec = MediumSpec(lattice=(0.5, 1.0), background=2.0,
                      inclusions=(BoxInclusion((-0.1, -0.2), (0.1, 0.2), 9.0),),
                      defect=StripSpec(Disk(0.8), l=1.25, eps_inside=12.0))
    back = MediumSpec.from_json(spec.to_json())
    assert back.lattice == spec.lattice
    assert back.background == spec.background
    assert back.inclusions == spec.inclusions
    assert back.defect.l == spec.defect.l
    assert back.defect.eps_inside == spec.defect.eps_inside
    assert json.loads(back.to_json()) == json.loads(spec.to_json())


def test_medium_validation():
    with pytest.raises(ValidationError):
        MediumSpec(lattice=(1.0,), background=-1.0)
    with pytest.raises(ValidationError):   # inclusion larger than the cell
        MediumSpec(lattice=(1.0, 1.0),
                   inclusions=(DiskInclusion((0.0, 0.0), 0.8, 9.0),))


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
