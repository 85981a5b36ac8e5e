"""The three workloads of the gapguide benchmark.

A workload builds its inputs from the seed when it is created (set-up),
runs one round of operations in `run_round` (timed by run.py), and checks
that round's outputs in `check` (not timed).  Every round makes the same
`OPS` operations, so the share of failed operations is the same in every
run whatever its length.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import shutil
from pathlib import Path

import numpy as np

import checks
from gapguide import cli, discrete_op, eigen, existence, media, xsection
from gapguide.cross_section import Disk
from gapguide.grids import GridSpec


class OperationFailed(Exception):
    """An operation raised or a command exited with a non-zero code."""


class Workload:
    OPS = 0

    def __init__(self, seed: int, out: Path):
        self.rng = np.random.default_rng(seed)
        self.out = out
        self.done = 0

    def op(self, fn, *args, **kwargs):
        """One operation of a round; counted, and failures are fatal to it."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            raise OperationFailed(f"{getattr(fn, '__name__', fn)}: "
                                  f"{type(exc).__name__}: {exc}") from exc
        self.done += 1
        return result


# ---------------------------------------------------------------------------
# nu-ladder: the cross-section constant and the certificate built on it
# ---------------------------------------------------------------------------

DISK = Disk(1.0)
H_LADDER = (2 / 96, 2 / 128, 2 / 192)
H_CERT = 2 / 96
RHO_RANGES = ((0.05, 0.12), (0.12, 0.25), (0.25, 0.45))
NET_POINTS = 9


def _quadrature(tp):
    return existence.residual_quadrature(tp, existence.quadrature_grid(tp))


class NuLadder(Workload):
    """solve_nu_vector on three grids, extrapolation, scalar nu, and per
    margin rho a test field, closed form vs quadrature and a delta-net."""

    OPS = 3 + 1 + 1 + len(RHO_RANGES) * (4 + NET_POINTS)

    def __init__(self, seed, out):
        super().__init__(seed, out)
        u = self.rng.uniform
        self.psi = existence.Profile.bump(2)
        self.cert = []
        for lo, hi in RHO_RANGES:
            trial = dict(l=u(0.5, 2.0), eps=u(2.0, 12.0), mu=u(1.0, 4.0),
                         delta=u(0.5, 2.0), n=int(self.rng.integers(4, 65)))
            alpha = u(5.0, 15.0)
            mus = np.linspace(alpha, alpha + u(10.0, 20.0), NET_POINTS + 2)
            net = dict(l=u(0.8, 1.25), eps=u(8.0, 14.0), factor=u(1.02, 1.2),
                       mus=[float(m) for m in mus[1:-1]])
            self.cert.append((u(lo, hi), trial, net))

    def run_round(self, tr):
        op = self.op
        ests = [op(xsection.solve_nu_vector, DISK, h) for h in H_LADDER]
        best = op(xsection.refine_extrapolate, ests)
        scalar = op(xsection.solve_nu_scalar, DISK, H_CERT)
        certs = []
        for rho, trial, net in self.cert:
            tf = op(xsection.make_test_field, DISK, rho, H_CERT)
            tp = existence.TrialParams(psi=self.psi, g=tf, **trial)
            cf = op(existence.residual_closed_form, tp)
            quad = op(_quadrature, tp)
            probe = existence.TrialParams(l=net["l"], eps=net["eps"], mu=1.0,
                                          delta=1.0, n=1, psi=self.psi, g=tf)
            floor = op(existence.residual_closed_form, probe).terms[2]
            delta = net["factor"] * np.sqrt(floor) / net["eps"]
            trials = [existence.TrialParams(l=net["l"], eps=net["eps"], mu=mu,
                                            delta=delta, n=1, psi=self.psi,
                                            g=tf) for mu in net["mus"]]
            ns = [op(existence.minimal_n, t) for t in trials]
            certs.append((tf, cf.closed_form, quad, trials, ns))
        return best, scalar, certs

    def check(self, outputs):
        best, scalar, certs = outputs
        fails = checks.nu_failures(best.value, best.order, scalar.value)
        for tf, cf, quad, trials, ns in certs:
            fails += checks.test_field_failures(tf.g, H_CERT, tf.quotient)
            fails += checks.agreement_failures(cf, quad)
            for t, n in zip(trials, ns):
                thr = t.delta**2 * t.eps**2

                def value(m):
                    return existence.residual_closed_form(
                        dataclasses.replace(t, n=m)).closed_form

                if n is None:
                    fails += checks.minimal_n_failures(n, 0.0, None, thr)
                else:
                    fails += checks.minimal_n_failures(
                        n, value(n), value(n - 1) if n > 1 else None, thr)
        return fails


# ---------------------------------------------------------------------------
# guide-2d: the gapguide command line on the layered guide
# ---------------------------------------------------------------------------

BULK_1D = {"lattice": [1.0], "inclusions": [
    {"kind": "box", "lo": [-0.1875], "hi": [0.1875], "eps": 9.0}]}
GUIDE = {"lattice": [0.25, 1.0], "background": 1.0, "inclusions": [
    {"kind": "box", "lo": [-0.125, -0.1875], "hi": [0.125, 0.1875],
     "eps": 9.0}],
    "defect": {"cross_section": {"kind": "interval", "half_width": 1.0},
               "l": 2.0, "eps": 12.0}}
GRID2 = {"shape": [4, 511], "spacing": [1 / 16, 1 / 32], "origin": [0.0, -8.0]}
K1 = {"start": 4.3, "stop": 6.3, "num": 25}
SWEEP_K1 = {"start": 4.3, "stop": 6.3, "num": 9}
STAGES = ("Spectral gaps", "Existence condition", "Trial residual",
          "Gap coverage", "Confinement")


class Guide2D(Workload):
    """bands, check, residual, defect, decay, sweep and report through
    cli.main, then the library defect_spectrum on the bare bulk."""

    COMMANDS = ("bands", "check", "residual", "defect", "decay", "sweep",
                "report")
    OPS = len(COMMANDS) + 1

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.gap = checks.first_gap()
        self.k1_checked = float(np.linspace(K1["start"], K1["stop"],
                                            K1["num"])[self.rng.integers(25)])
        gap = list(self.gap)
        guide = dict(medium=GUIDE, grid=GRID2, gap=gap, count=40, delta=0.15)
        configs = {
            "bands": dict(medium=BULK_1D, bands=6, min_gap_width=0.5,
                          grid={"shape": [512], "spacing": [1 / 512],
                                "origin": [-0.5]},
                          k_samples={"start": 0.0, "stop": np.pi, "num": 25}),
            "check": dict(l=2.0, eps=12.0, gap=gap, nu=checks.J11_SQ),
            "residual": dict(l=1.0, eps=12.0, mu=self.rng.uniform(1.5, 5.0),
                             delta=self.rng.uniform(7.0, 9.0),
                             cross_section={"kind": "disk", "radius": 1.0},
                             h=2 / 64, rho=0.15, quadrature=True),
            "defect": dict(guide, k1_samples=K1),
            "decay": dict(guide, k1_samples=K1, step=0.125),
            "sweep": dict(guide, k1_samples=SWEEP_K1, nu=checks.J11_SQ,
                          l_values=[1.5, 2.0], eps_values=[9.0, 12.0]),
        }
        cfg_dir = out / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.argv = {}
        for cmd in self.COMMANDS:
            argv = [cmd, "--out", str(out / "artifacts"), "--seed", str(seed)]
            if cmd in configs:
                path = cfg_dir / f"{cmd}.json"
                path.write_text(json.dumps(dict(schema=1, **configs[cmd])))
                argv += ["--config", str(path)]
            if cmd == "sweep":
                argv += ["--threads", "2"]
            self.argv[cmd] = argv
        spec = media.MediumSpec.from_json(json.dumps(GUIDE))
        self.strip = spec.defect
        bare = media.MediumSpec(spec.lattice, spec.background, spec.inclusions)
        grid = GridSpec(tuple(GRID2["shape"]), tuple(GRID2["spacing"]),
                        tuple(GRID2["origin"]))
        self.bulk = media.build_medium(bare, grid)
        self.k1 = np.linspace(K1["start"], K1["stop"], K1["num"])
        self.reference = None

    def _command(self, cmd):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv[cmd])
        if rc != 0:
            raise RuntimeError(f"gapguide {cmd} exited with {rc}")

    def run_round(self, tr):
        for cmd in self.COMMANDS:
            with tr.span(f"cli.{cmd}_s"):
                self.op(self._command, cmd)
        control = self.op(eigen.defect_spectrum, self.bulk, self.strip,
                          existence.GapInterval(*self.gap), k1_samples=self.k1,
                          delta=0.15, count=40)
        return control

    def check(self, control):
        art = self.out / "artifacts"

        def doc(name):
            return json.loads((art / name).read_text())

        fails = checks.gap_failures(doc("gaps.json")["gaps"], self.gap)
        fails += checks.margin_failures(doc("check.json"), 2.0, 12.0,
                                        self.gap, checks.J11_SQ)
        res = doc("residual.json")
        fails += checks.agreement_failures(res["closed_form"],
                                           res["quadrature"])
        if not (res["passes"] and res["closed_form"] < res["threshold"]):
            fails.append("residual command: trial field misses its budget")
        fails += checks.coverage_failures(doc("coverage.json")["points"])
        with (art / "modes.csv").open() as fh:
            modes = [(float(r["k1"]), float(r["lambda"]))
                     for r in csv.DictReader(fh)]
        if self.reference is None:
            pad = 1e-3 * (self.gap[1] - self.gap[0])
            eps2 = checks.guide_eps(GRID2["shape"], GRID2["spacing"],
                                    GRID2["origin"], 2.0, 12.0)
            self.reference = checks.guide_eigenvalues(
                eps2, GRID2["shape"][0], GRID2["spacing"][0],
                GRID2["spacing"][1], self.k1_checked,
                (self.gap[0] + pad, self.gap[1] - pad))
        fails += checks.eigenvalue_failures(
            [lam for k, lam in modes if abs(k - self.k1_checked) < 1e-9],
            self.reference)
        fails += checks.decay_failures(doc("decay_fits.json")["fits"],
                                       len(modes))
        with (art / "existence_map.csv").open() as fh:
            cells = list(csv.DictReader(fh))
        if len(cells) != 4 or any(c["error"] or int(c["modes"]) < 0
                                  for c in cells):
            fails.append(f"sweep map: {cells}")
        fails += checks.control_failures(len(control.modes))
        fails += checks.report_failures((art / "summary.md").read_text(),
                                        STAGES)
        shutil.rmtree(art)
        return fails


# ---------------------------------------------------------------------------
# maxwell-3d: matrix-free interior eigensolves on plane-wave shells
# ---------------------------------------------------------------------------

N3 = 12
SHELLS = (((1, 0, 0), 12), ((1, 1, 0), 24), ((1, 1, 1), 16))


class Maxwell3D(Workload):
    """interior_eigs on the periodic homogeneous cube, one window per shell,
    asking for exactly the shell's multiplicity.

    The ARPACK start vector is interior_eigs' default, the same for every
    seed: with start vectors drawn from the seed, some seeds make ARPACK
    stop with error 3 (no shifts could be applied), so that failure could
    not keep the same share of operations in every run.
    """

    OPS = len(SHELLS)

    def __init__(self, seed, out):
        super().__init__(seed, out)
        h = 1.0 / N3
        eps = media.SampledEpsilon(GridSpec((N3,) * 3, (h,) * 3),
                                   np.ones((N3,) * 3))
        self.operator = discrete_op.maxwell_operator(
            eps, bloch_k1=0.0, transverse_bc="periodic")
        self.symbols = [checks.plane_wave_symbol(mk, h) for mk, _ in SHELLS]

    def run_round(self, tr):
        op = tr.operator(self.operator)
        found = []
        for (_, mult), sym in zip(SHELLS, self.symbols):
            pairs = self.op(eigen.interior_eigs, op, (sym - 4.0, sym + 4.0),
                            count=mult, tol=1e-8, inner_tol=1e-10)
            tr.add("eigen.eigenpairs_missed", mult - len(pairs))
            found.append([m.lam for m in pairs])
        return found

    def check(self, found):
        fails = []
        for (_, mult), sym, lams in zip(SHELLS, self.symbols, found):
            fails += checks.shell_failures(lams, sym, mult)
        return fails


WORKLOADS = {"nu-ladder": NuLadder, "guide-2d": Guide2D,
             "maxwell-3d": Maxwell3D}
