"""Every solve of a medium or a cross-section runs on one OpenBLAS thread
and is bitwise the same whatever the caller's count; a bare `interior_eigs`
call keeps the caller's threads, which pay off on a large LU (a shell of
the full 16^3 cube operator took 16.0-17.3 s wall and 31.5-33.9 s CPU at
two threads, 17.5-22.1 s wall at one)."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gapguide import discrete_op, eigen, xsection
from gapguide.cross_section import Box, Disk
from gapguide.discrete_op import (_blas_record, _one_blas_thread, _openblas,
                                  maxwell_operator, scalar_matrix)
from gapguide.eigen import (band_structure, bloch_modes, defect_spectrum,
                            interior_eigs)
from gapguide.errors import IterationError
from gapguide.existence import GapInterval
from gapguide.grids import GridSpec
from gapguide.media import (MediumSpec, SampledEpsilon, StripSpec,
                            build_medium, with_defect)
from gapguide.xsection import (make_test_field, solve_nu_scalar,
                               solve_nu_vector)

needs_openblas = pytest.mark.skipif(not _openblas(),
                                    reason="numpy and scipy without "
                                           "scipy_openblas")

LAYERED = MediumSpec(lattice=(1.0,), inclusions=(
    (Box((0.1875,)), 9.0),))
GUIDE = MediumSpec(lattice=(0.25, 1.0), inclusions=(
    (Box((0.125, 0.1875)), 9.0),))
GUIDE_GRID = GridSpec((4, 511), (1 / 16, 1 / 32), (0.0, -8.0))
GAP_WINDOW = (1.507, 5.247)       # the k1 = 0 gap of the layered bulk
# the mirror-symmetry classes of the unit disk's constant: the eighths
# (+, +, +), (+, +, -), (-, -, +) and (-, -, -) and the quarter (+, -), the
# transpose twinning (+, -) and (-, +); each is solved (one LU) or ruled
# out (one banded Cholesky)
DISK_CLASSES = 5


@pytest.fixture
def caller_threads():
    """Set the caller's count of every OpenBLAS library, through the
    handles of `_openblas`; restored afterwards."""
    libs = _openblas()
    before = _counts()

    def set_to(n):
        for lib in libs:
            lib.set_num_threads(n)
    yield set_to
    for lib, n in zip(libs, before):
        lib.set_num_threads(n)


def _counts():
    return [lib.get_num_threads() for lib in _openblas()]


def _guide():
    strip = StripSpec(Box((1.0,)), l=2.0, eps_inside=12.0)
    return with_defect(build_medium(GUIDE, GUIDE_GRID), strip)


def _varied_3d():
    """A 3D medium whose samples change along x1: one full operator."""
    grid = GridSpec((4, 8, 8), (1 / 8,) * 3, (0.0, -0.5, -0.5))
    values = np.ones(grid.shape)
    values[0, 2:6, 2:6] = 12.0
    return SampledEpsilon(grid, values)


def _modes(eps, k1s):
    return bloch_modes(eps, k1s, GAP_WINDOW, 40)


def _same_modes(a, b):
    return ([(m.k1, m.lam, m.residual) for m in a]
            == [(m.k1, m.lam, m.residual) for m in b]
            and all(np.array_equal(x.field.values, y.field.values)
                    for x, y in zip(a, b)))


def _count_xsection_classes(monkeypatch, record=None):
    """Count the classes a cross-section solve takes, each solved
    (`xsection._factor`) or ruled out (`xsection._ruled_out`), so that a
    compared or watched cross-section call is shown to solve, not to return
    a kept minimizer; `record` runs inside both."""
    factor, ruled_out, seen = xsection._factor, xsection._ruled_out, []

    def solved(A, sigma, thresh):
        if record is not None:
            record()
        seen.append("solved")
        return factor(A, sigma, thresh)

    def checked(A, B, best):
        if record is not None:
            record()
        out = ruled_out(A, B, best)
        if out:
            seen.append("ruled out")
        return out

    monkeypatch.setattr(xsection, "_factor", solved)
    monkeypatch.setattr(xsection, "_ruled_out", checked)
    return seen


@needs_openblas
def test_results_do_not_depend_on_the_callers_blas_threads(monkeypatch,
                                                           caller_threads):
    bulk = build_medium(LAYERED, GridSpec((512,), (1 / 512,), (-0.5,)))
    guide = _guide()
    varied = _varied_3d()
    classes = _count_xsection_classes(monkeypatch)
    runs = []
    for n in (1, 2):
        caller_threads(n)
        before = len(classes)
        nu = solve_nu_vector(Disk(1.0), 2 / 128)
        assert len(classes) == before + DISK_CLASSES
        assert classes[before:].count("solved") == 1
        bands = band_structure(bulk, np.linspace(0.0, np.pi, 25), bands=6)
        modes = _modes(guide, [4.3, 5.3, 6.3])
        full = bloch_modes(varied, [0.7], (2.0, 20.0), 100)
        assert _counts() == [n] * len(_openblas())
        runs.append((nu, bands, modes, full))
    (nu1, bands1, modes1, full1), (nu2, bands2, modes2, full2) = runs
    assert nu1.value == nu2.value
    assert nu1.achieved_quotient == nu2.achieved_quotient
    assert all(np.array_equal(a, b) for a, b
               in zip(bands1.eigenvalues, bands2.eigenvalues))
    assert len(modes1) > 0 and _same_modes(modes1, modes2)
    assert len(full1) > 0 and _same_modes(full1, full2)


@needs_openblas
def test_every_medium_solve_runs_on_one_thread(monkeypatch, caller_threads):
    seen = []
    factor = discrete_op._factor
    tridiagonal = eigen._tridiagonal_eigs
    ring = eigen._ring_eigs

    def recorded(A, sigma, thresh):
        seen.append(_counts())
        return factor(A, sigma, thresh)

    def recorded_tridiagonal(d, e, window):
        seen.append(_counts())
        return tridiagonal(d, e, window)

    def recorded_ring(d, e, sigma, phases, bands):
        seen.append(_counts())
        return ring(d, e, sigma, phases, bands)

    monkeypatch.setattr(eigen, "_factor", recorded)
    # the LU of a solved class and the banded Cholesky of a ruled-out one
    classes = _count_xsection_classes(
        monkeypatch, lambda: seen.append(_counts()))
    # the 2D guide's blocks are solved by bisection, without an LU
    monkeypatch.setattr(eigen, "_tridiagonal_eigs", recorded_tridiagonal)
    # 1D bands are bisected on the wrap bond's count, also without an LU
    monkeypatch.setattr(eigen, "_ring_eigs", recorded_ring)
    caller_threads(2)
    one, two = [1] * len(_openblas()), [2] * len(_openblas())

    def threads_in(call):
        seen.clear()
        call()
        assert seen
        distinct = {tuple(s) for s in seen}
        assert len(distinct) == 1
        return list(distinct.pop())

    layered = build_medium(LAYERED, GridSpec((64,), (1 / 64,), (-0.5,)))
    crystal = SampledEpsilon(GridSpec((8, 8), (1 / 8,) * 2, (-0.5, -0.5)),
                             np.where(np.eye(8) > 0, 9.0, 1.0))
    split_3d = with_defect(
        build_medium(MediumSpec(lattice=(1.0,)),
                     GridSpec((4, 8, 8), (1 / 8,) * 3, (0.0, -0.5, -0.5))),
        StripSpec(Disk(1.0), l=0.25, eps_inside=12.0))
    varied = _varied_3d()
    guide = _guide()
    strip = StripSpec(Box((1.0,)), l=2.0, eps_inside=12.0)
    assert threads_in(lambda: bloch_modes(layered, [0.5], (1.0, 60.0), 4)) \
        == one
    assert threads_in(lambda: _modes(guide, [5.0])) == one
    assert threads_in(lambda: bloch_modes(split_3d, [0.7], (2.0, 20.0),
                                          100)) == one
    assert threads_in(lambda: bloch_modes(varied, [0.7], (2.0, 20.0),
                                          100)) == one
    assert threads_in(lambda: defect_spectrum(
        guide, strip, GapInterval(*GAP_WINDOW), [5.0], delta=0.15,
        count=40)) == one
    assert threads_in(lambda: band_structure(layered, [0.0, 1.0], 4)) == one
    assert threads_in(lambda: band_structure(crystal, [0.0, 1.0], 4)) == one
    def solves_in(call):
        before = len(classes)
        threads = threads_in(call)
        assert len(classes) == before + DISK_CLASSES
        assert classes[before:].count("solved") == 1
        return threads

    assert solves_in(lambda: solve_nu_vector(Disk(1.0), 2 / 48)) == one
    assert solves_in(lambda: solve_nu_scalar(Disk(1.0), 2 / 48)) == one
    assert solves_in(lambda: make_test_field(Disk(1.0), 0.2, 2 / 48)) == one
    assert _counts() == two
    bare = scalar_matrix(layered, (0.5,))
    assert threads_in(lambda: interior_eigs([bare], (1.0, 60.0), 4)) == two
    assert threads_in(lambda: interior_eigs(
        [maxwell_operator(varied, (0.7, None, None))], (2.0, 20.0), 100)) \
        == two


@needs_openblas
def test_threaded_bloch_modes_match_serial(monkeypatch, caller_threads):
    caller_threads(2)
    guide = _guide()
    k1s = ([4.3, 5.0], [5.6, 6.3])
    serial = [_modes(guide, k) for k in k1s]
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(lambda k: _modes(guide, k), k1s))
    assert all(_same_modes(a, b) for a, b in zip(serial, threaded))
    assert _counts() == [2] * len(_openblas())

    # an error inside the pinned region still restores the caller's counts
    def fail(d, e, window):
        raise IterationError("tridiagonal eigensolve failed")

    monkeypatch.setattr(eigen, "_tridiagonal_eigs", fail)
    with ThreadPoolExecutor(2) as pool:
        futures = [pool.submit(_modes, guide, k) for k in k1s]
        for f in futures:
            with pytest.raises(IterationError):
                f.result()
    assert _counts() == [2] * len(_openblas())


def test_without_openblas_symbols_nothing_changes(monkeypatch,
                                                  caller_threads):
    guide = _guide()
    bulk = build_medium(LAYERED, GridSpec((128,), (1 / 128,), (-0.5,)))
    caller_threads(1)
    pinned = (_modes(guide, [5.0]), band_structure(bulk, [0.0, 2.0], 6))
    # the lookup finds nothing in modules that do not export the symbols
    monkeypatch.setattr(discrete_op, "_OPENBLAS_MODULES",
                        (("math", ""), ("no.such.module", "64_")))
    assert discrete_op._openblas.__wrapped__() == ()
    monkeypatch.setattr(discrete_op, "_openblas", lambda: ())
    assert _blas_record() == {"libraries": [], "solve_threads": None}
    with _one_blas_thread:
        pass
    bare = (_modes(guide, [5.0]), band_structure(bulk, [0.0, 2.0], 6))
    assert _same_modes(pinned[0], bare[0])
    assert all(np.array_equal(a, b) for a, b
               in zip(pinned[1].eigenvalues, bare[1].eigenvalues))


@needs_openblas
def test_blas_record_names_the_callers_threads(caller_threads):
    caller_threads(2)
    record = _blas_record()
    assert record["solve_threads"] == 1
    assert [lib["threads"] for lib in record["libraries"]] == \
        [2] * len(_openblas())
    assert all(lib["config"].startswith("OpenBLAS")
               for lib in record["libraries"])
    # inside a pinned region the record still names the caller's count
    with _one_blas_thread:
        assert _counts() == [1] * len(_openblas())
        assert _blas_record() == record


@needs_openblas
def test_nested_entries_from_many_threads_restore_the_callers_count(
        caller_threads):
    caller_threads(2)
    inside = []

    def enter_often(_):
        for _ in range(1000):
            with _one_blas_thread:
                with _one_blas_thread:
                    inside.append(_counts())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(enter_often, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(inside) == 8 * 1000
    assert all(c == [1] * len(_openblas()) for c in inside)
    assert _counts() == [2] * len(_openblas())
