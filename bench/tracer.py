"""Per-layer timers and counters, measured from outside gapguide.

In a traced round the benchmark replaces the public functions a workload
calls with timing wrappers, in every gapguide module that binds them, and
wraps the matrix-free operator it hands to the eigensolver.  Nothing under
``src/`` changes; an untraced round runs the program untouched.

Times are summed over calls and include the calls they make, so a nested
layer's time is also inside its caller's (``eigen.defect_spectrum_s``
contains ``eigen.interior_eigs_s``), and calls made by the two threads of
``gapguide sweep`` add up.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import scipy.sparse.linalg as spla

# every per-layer metric a traced run reports, in the order it prints them
METRICS = (
    "xsection.solve_nu_vector_s", "xsection.solve_nu_scalar_s",
    "xsection.make_test_field_s", "xsection.make_test_field_calls",
    "existence.residual_quadrature_s", "existence.minimal_n_s",
    "existence.residual_closed_form_calls",
    "media.build_medium_s", "media.with_defect_s",
    "discrete_op.scalar_matrix_s", "discrete_op.scalar_matrix_calls",
    "discrete_op.maxwell_matvecs", "discrete_op.maxwell_matvec_s",
    "eigen.interior_eigs_s", "eigen.interior_eigs_calls",
    "eigen.eigenpairs_returned", "eigen.minres_overhead_s",
    "eigen.eigenpairs_missed",
    "eigen.defect_spectrum_s", "eigen.band_structure_s",
    "eigen.localization_kept", "eigen.localization_rejected",
    "decay.profile_s", "decay.fit_decay_s", "decay.profiles",
    "fields_io.write_s", "fields_io.bytes_written",
    "cli.bands_s", "cli.check_s", "cli.residual_s", "cli.defect_s",
    "cli.decay_s", "cli.sweep_s", "cli.report_s",
    "trace.overhead_s",
)


class NoTrace:
    """Stand-in for an untraced round: records nothing, wraps nothing."""

    def span(self, name):
        return nullcontext()

    def add(self, name, value=1):
        pass

    def operator(self, op):
        return op


class Tracer(NoTrace):
    """Accumulates timers and counters over the traced rounds of a run."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def add(self, name, value=1):
        with self._lock:
            self.totals[name] += value

    @contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def operator(self, op):
        return _CountingOperator(op, self)

    def metrics(self, rounds: int, overhead: float) -> dict:
        """Every per-layer metric, per traced round.

        `overhead` is the traced minus the untraced wall time of a round.
        """
        t = defaultdict(float, self.totals)
        t["eigen.minres_overhead_s"] = (t["_matfree_eigs_s"]
                                        - t["discrete_op.maxwell_matvec_s"])
        out = {name: t[name] / rounds for name in METRICS}
        out["trace.overhead_s"] = overhead
        return out

    # -- patching ------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap the traced gapguide functions for the duration of a round."""
        from gapguide import (decay, discrete_op, eigen, existence, fields_io,
                              media, xsection)

        timed = {
            xsection: ("solve_nu_vector", "solve_nu_scalar", "make_test_field"),
            existence: ("residual_quadrature", "minimal_n"),
            media: ("build_medium", "with_defect"),
            discrete_op: ("scalar_matrix",),
            eigen: ("band_structure",),
            decay: ("profile", "fit_decay"),
        }
        counted = {"make_test_field": "xsection.make_test_field_calls",
                   "scalar_matrix": "discrete_op.scalar_matrix_calls",
                   "profile": "decay.profiles"}
        try:
            for module, names in timed.items():
                layer = module.__name__.rsplit(".", 1)[1]
                for name in names:
                    self._patch(module, name, self._timed(
                        f"{layer}.{name}_s", counted.get(name)))
            self._patch(existence, "residual_closed_form", self._counted(
                "existence.residual_closed_form_calls"))
            self._patch(eigen, "interior_eigs", self._interior_eigs)
            self._patch(eigen, "defect_spectrum", self._defect_spectrum)
            for name in ("write_json", "write_csv", "write_field",
                         "emit_plot_script"):
                self._patch(fields_io, name, self._writer)
            yield self
        finally:
            for namespace, name, original in reversed(self._patches):
                setattr(namespace, name, original)
            self._patches.clear()

    def _patch(self, module, name, make_wrapper):
        """Replace `name` in every gapguide module that binds the original."""
        original = getattr(module, name)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").split(".")[0] == "gapguide"
                    and getattr(mod, name, None) is original):
                setattr(mod, name, wrapper)
                self._patches.append((mod, name, original))

    def _timed(self, metric, calls=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add(metric, time.perf_counter() - t0)
                    if calls:
                        self.add(calls)
            return wrapper
        return make

    def _counted(self, metric):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.add(metric)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _interior_eigs(self, fn):
        def wrapper(op, *args, **kwargs):
            t0 = time.perf_counter()
            found = fn(op, *args, **kwargs)
            dt = time.perf_counter() - t0
            self.add("eigen.interior_eigs_s", dt)
            self.add("eigen.interior_eigs_calls")
            self.add("eigen.eigenpairs_returned", len(found))
            if isinstance(op, spla.LinearOperator):
                self.add("_matfree_eigs_s", dt)
            if getattr(self._local, "in_defect", None) is not None:
                self._local.in_defect += len(found)
            return found
        return wrapper

    def _defect_spectrum(self, fn):
        def wrapper(*args, **kwargs):
            self._local.in_defect = 0
            t0 = time.perf_counter()
            try:
                ds = fn(*args, **kwargs)
            finally:
                self.add("eigen.defect_spectrum_s", time.perf_counter() - t0)
                returned, self._local.in_defect = self._local.in_defect, None
            self.add("eigen.localization_kept", len(ds.modes))
            self.add("eigen.localization_rejected", returned - len(ds.modes))
            return ds
        return wrapper

    def _writer(self, fn):
        """Bytes of every file written; time of the outermost write only
        (write_field calls write_json for its header)."""
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, "write_depth", 0)
            self._local.write_depth = depth + 1
            t0 = time.perf_counter()
            try:
                path = fn(*args, **kwargs)
            finally:
                self._local.write_depth = depth
                if depth == 0:
                    self.add("fields_io.write_s", time.perf_counter() - t0)
            self.add("fields_io.bytes_written", Path(path).stat().st_size)
            return path
        return wrapper


class _CountingOperator(spla.LinearOperator):
    """The operator handed to interior_eigs, counting and timing matvecs."""

    def __init__(self, op, tracer: Tracer):
        super().__init__(op.dtype, op.shape)
        self._op = op
        self._tracer = tracer

    def _matvec(self, x):
        t0 = time.perf_counter()
        y = self._op.matvec(x)
        self._tracer.add("discrete_op.maxwell_matvec_s",
                         time.perf_counter() - t0)
        self._tracer.add("discrete_op.maxwell_matvecs")
        return y
