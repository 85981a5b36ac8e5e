import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapguide.cross_section import Box, Disk, MaskSection
from gapguide.errors import UnsupportedGeometryError, ValidationError


def test_interval_basics():
    iv = Box((1.5,), (0.5,))
    assert iv.contains(np.array([0.5]))
    assert iv.contains(np.array([[-0.9], [1.9]])).all()
    assert not iv.contains(np.array([2.1]))
    assert iv.inradius() == pytest.approx(1.5)
    assert iv.diameter() == pytest.approx(3.0)
    s = iv.scale(2.0)
    assert s.inradius() == pytest.approx(3.0)


def test_box_is_an_interval_a_rectangle_or_a_block():
    assert [Box((1.0,) * n).ndim for n in (1, 2, 3)] == [1, 2, 3]
    assert Box((2.0, 0.5)).center == (0.0, 0.0)
    block = Box((1.0, 2.0, 0.5), center=(0.0, 1.0, 0.0))
    assert block.contains(np.array([0.9, 2.9, -0.4]))
    assert not block.contains(np.array([0.9, 3.1, 0.0]))
    assert block.boundary_distance(np.array([0.0, 1.0, 0.25])) == 0.25
    assert block.inradius() == 0.5
    for bad in (dict(half_widths=(1.0, 0.0)), dict(half_widths=()),
                dict(half_widths=(1.0, 1.0), center=(0.0,))):
        with pytest.raises(ValidationError):
            Box(**bad)


def test_disk_boundary_distance_is_signed():
    d = Disk(radius=2.0)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    dist = d.boundary_distance(pts)
    assert dist[0] == pytest.approx(2.0)
    assert dist[1] == pytest.approx(1.0)
    assert dist[2] == pytest.approx(-1.0)       # negative outside


def test_disk_crossing_hits_the_circle_exactly():
    d = Disk(radius=1.0, center=(0.25, -0.5))
    q = np.array([0.3, -0.4])                  # inside
    p = np.array([1.8, 0.9])                   # outside
    t = d.crossing(q, p)
    b = q + t * (p - q)
    assert np.linalg.norm(b - np.array(d.center)) == pytest.approx(1.0, abs=1e-12)


def test_rect_inradius_and_bbox():
    r = Box(half_widths=(2.0, 0.5), center=(1.0, 0.0))
    assert r.inradius() == pytest.approx(0.5)
    lo, hi = r.bbox()
    assert np.allclose(lo, (-1.0, -0.5)) and np.allclose(hi, (3.0, 0.5))
    assert r.contains(np.array([2.9, 0.4]))
    assert not r.contains(np.array([2.9, 0.6]))


def test_scale_covariance_of_disk():
    d1 = Disk(radius=1.0)
    d2 = d1.scale(3.0)
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.9], [4.0, 0.0]])
    ref = Disk(radius=3.0)
    assert np.allclose(d2.boundary_distance(pts), ref.boundary_distance(pts))
    assert d2.inradius() == pytest.approx(3.0)


def _disk_ascii(n=41, r=0.45):
    ys = (np.arange(n) + 0.5) / n - 0.5
    rows = []
    for y in ys[::-1]:
        rows.append("".join("1" if x * x + y * y <= r * r else "0"
                            for x in ((np.arange(n) + 0.5) / n - 0.5)))
    return "\n".join(rows)


def test_mask_section_from_ascii_disk():
    ms = MaskSection.from_ascii(_disk_ascii(), 1.0 / 41, None)
    ms.check_simply_connected()
    assert ms.inradius() == pytest.approx(0.45, rel=0.1)
    lo, hi = ms.bbox()
    assert hi[0] - lo[0] == pytest.approx(1.0, rel=0.05)


def test_mask_section_keeps_a_read_only_copy_of_its_mask():
    x = (np.arange(40) + 0.5) / 20 - 1.0
    inside = x[:, None] ** 2 + x[None, :] ** 2 < 0.8
    ms = MaskSection(inside, 1 / 20, origin=(-1.0, -1.0))
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    contains, inradius = ms.contains(pts), ms.inradius()
    inside[:] = True            # the caller edits its own array
    assert np.array_equal(ms.contains(pts), contains)
    assert ms.inradius() == inradius
    assert not ms.mask.flags.writeable
    with pytest.raises(ValueError):
        ms.mask[0, 0] = True


def test_mask_section_rejects_holes_and_pieces():
    annulus = "\n".join(["1111111",
                         "1100011",
                         "1100011",
                         "1111111"])
    with pytest.raises(UnsupportedGeometryError):
        MaskSection.from_ascii(annulus, 0.1, None).check_simply_connected()
    two = "\n".join(["1100011",
                     "1100011"])
    with pytest.raises(UnsupportedGeometryError):
        MaskSection.from_ascii(two, 0.1, None).check_simply_connected()


@settings(max_examples=100, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_disk_contains_agrees_with_distance_sign(x, y):
    d = Disk(radius=1.7)
    p = np.array([x, y])
    assert bool(d.contains(p)) == bool(d.boundary_distance(p) >= 0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 4.0))
def test_interval_scaling_scales_distance(l):
    iv = Box((1.0,))
    pts = np.array([[0.0], [0.5], [2.0]])
    base = iv.boundary_distance(pts / l)
    assert np.allclose(iv.scale(l).boundary_distance(pts), l * base, atol=1e-12)


def _segments(cs, rng, n=200):
    """n segments from an inside point q to an outside point p."""
    lo, hi = cs.bbox()
    pad = 0.5 * (hi - lo)

    def draw(want_inside):
        pts = rng.uniform(lo - pad, hi + pad, size=(20 * n, cs.ndim))
        return pts[cs.contains(pts) == want_inside][:n]

    return draw(True), draw(False)


@pytest.mark.parametrize("cs", [
    Disk(radius=1.0, center=(0.25, -0.5)),
    Box(half_widths=(2.0, 0.5), center=(1.0, 0.0)),
    MaskSection.from_ascii(_disk_ascii(), 1.0 / 41, None),
    Box((1.5,), (0.5,)),
], ids=["disk", "rect", "mask", "interval"])
def test_batched_crossing_matches_single_segments(cs):
    q, p = _segments(cs, np.random.default_rng(3))
    t = cs.crossing(q, p)
    assert t.shape == (len(q),)
    single = [cs.crossing(qi, pi) for qi, pi in zip(q, p)]
    assert all(ti.shape == () for ti in single)
    assert np.array_equal(t, single)
    assert np.all((t > 0) & (t <= 1))
    # a (2, k) batch of the same segments gives the same fractions
    half = len(q) // 2
    t2 = cs.crossing(q[:2 * half].reshape(2, half, -1),
                     p[:2 * half].reshape(2, half, -1))
    assert np.array_equal(t2.ravel(), t[:2 * half])
