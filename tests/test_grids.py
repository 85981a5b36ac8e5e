import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapguide.grids import GridSpec


def test_centers_are_cell_midpoints():
    g = GridSpec(shape=(4,), spacing=(0.5,), origin=(-1.0,))
    assert np.allclose(g.centers(0), [-0.75, -0.25, 0.25, 0.75])


def test_extent_and_volume():
    g = GridSpec(shape=(4, 8), spacing=(0.5, 0.25), origin=(-1.0, 0.0))
    assert g.extent(0) == (-1.0, 1.0)
    assert g.extent(1) == (0.0, 2.0)
    assert g.cell_volume == pytest.approx(0.125)
    assert g.ndim == 2


def test_meshgrid_and_points_shapes():
    g = GridSpec(shape=(3, 5), spacing=(1.0, 1.0))
    mesh = g.meshgrid()
    assert len(mesh) == 2 and mesh[0].shape == (3, 5)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 20), st.floats(1e-3, 10.0), st.floats(-5.0, 5.0))
def test_centers_lie_strictly_inside_extent(n, h, o):
    g = GridSpec(shape=(n,), spacing=(h,), origin=(o,))
    lo, hi = g.extent(0)
    c = g.centers(0)
    assert np.all(c > lo) and np.all(c < hi)
    assert hi - lo == pytest.approx(n * h)
