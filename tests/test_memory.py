"""The modes of a medium constant along x1 hold block vectors, not grid
fields: the numpy bytes they keep alive, traced with tracemalloc."""

import tracemalloc

import numpy as np

from gapguide.cross_section import Box, Disk
from gapguide.eigen import bloch_modes, defect_spectrum
from gapguide.existence import GapInterval
from gapguide.grids import GridSpec
from gapguide.media import (MediumSpec, StripSpec, build_medium, with_defect)

NUMPY = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
GUIDE = MediumSpec(lattice=(0.25, 1.0), inclusions=(
    (Box((0.125, 0.1875)), 9.0),))


def _kept(call):
    """call()'s result and the bytes of the numpy buffers allocated in it
    that are still alive when it returns.  An untraced first call fills
    the module-level caches, so that only what the result holds counts."""
    call()
    tracemalloc.start()
    try:
        result = call()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return result, sum(t.size for t in snapshot.filter_traces([NUMPY]).traces)


def test_a_defect_sweep_keeps_one_block_vector_per_mode():
    # the 4 x 511 layered guide: 8 n2 bytes per kept mode, against the
    # 16 n1 n2 of its complex grid field, plus the split's diagonal,
    # off-diagonal and axial face weights (4 n2 floats), shared by all
    grid = GridSpec((4, 511), (1 / 16, 1 / 32), (0.0, -8.0))
    strip = StripSpec(Box((1.0,)), l=2.0, eps_inside=12.0)
    eps = with_defect(build_medium(GUIDE, grid), strip)
    n2 = grid.shape[1]
    ds, kept = _kept(lambda: defect_spectrum(
        eps, strip, GapInterval(1.50647, 5.24793), k1_samples=[4.3, 5.3, 6.3],
        delta=0.15, count=40))
    assert len(ds.modes) >= 10
    assert kept <= 8 * n2 * (len(ds.modes) + 4)
    assert all(m.field.vector.nbytes == 8 * n2 for m in ds.modes)


def test_bloch_modes_of_a_3d_guide_hold_one_block_of_bytes():
    # a guide constant along x1: each mode holds 1/n1 of its lifted field
    h = 1 / 12
    grid = GridSpec((4, 12, 12), (h, h, h), (0.0, -0.5, -0.5))
    strip = StripSpec(Disk(1.0), l=0.4, eps_inside=12.0)
    eps = with_defect(build_medium(MediumSpec(lattice=(1.0,)), grid), strip)
    modes, kept = _kept(lambda: bloch_modes(eps, [0.7], (2.0, 25.0), 100))
    assert len(modes) >= 20
    lifted = len(modes) * 16 * 3 * int(np.prod(grid.shape))
    assert kept <= lifted / grid.shape[0]
    assert sum(m.field.values.nbytes for m in modes) == lifted
