"""Shared pytest plumbing: a criterion report section at the end of the run,
and a guard that every test leaves the OpenBLAS thread counts as it found
them."""

import pytest

from gapguide.discrete_op import _openblas

LINES = []


def record(line: str):
    LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def blas_threads_restored():
    """Fail a test that leaves an OpenBLAS thread count changed (and put it
    back, so that the tests after it run as before)."""
    libs = _openblas()
    before = [lib.get_num_threads() for lib in libs]
    yield
    after = [lib.get_num_threads() for lib in libs]
    for lib, n in zip(libs, before):
        lib.set_num_threads(n)
    if after != before:
        pytest.fail(f"OpenBLAS thread counts {before} were left at {after}")
