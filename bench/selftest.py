"""Self-test of the benchmark's checks: each must pass a right answer and
reject a deliberately wrong one.

    python3 bench/selftest.py

Exits with 1 if a check accepts a wrong answer or rejects a right one.  It
needs numpy and scipy but not gapguide, and runs in about a second.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

GAP = checks.first_gap()
H = 2 / 96


def _field(radius: float):
    """Divergence-free rotated gradient of a bump of the given support
    radius on the nu-ladder grid, with unit norm; returns (g, ||Lap g||)."""
    x = -1 - 3 * H + (np.arange(102) + 0.5) * H
    r2 = (x[:, None] ** 2 + x[None, :] ** 2) / radius**2
    s = np.where(r2 < 1, (1 - r2) ** 4, 0.0)
    d1 = (checks._shift(s, 0, 1) - checks._shift(s, 0, -1)) / (2 * H)
    d2 = (checks._shift(s, 1, 1) - checks._shift(s, 1, -1)) / (2 * H)
    g = np.stack([d2, -d1])
    g /= np.sqrt(np.sum(g * g)) * H
    lap = sum(checks._shift(g, a, s) for a in (1, 2) for s in (1, -1)) - 4 * g
    return g, float(np.sqrt(np.sum(lap * lap)) / H)


def _cases():
    g, q = _field(0.9)
    leaky = g.copy()
    leaky[0, 40:60, 40:60] += 0.01 * np.max(np.abs(g))
    fits = [{"rate": 3.2, "r2": 0.99}, {"rate": 4.1, "r2": 0.98}]
    ref = np.array([1.9, 2.4, 3.3])
    doc = {"margin": 2.0**2 * (GAP[1] - GAP[0]) * 12 - 2 * checks.J11_SQ,
           "passed": True}
    summary = "\n".join(f"## {s}" for s in ("Spectral gaps", "Confinement"))
    sym = checks.plane_wave_symbol((1, 1, 0), 1 / 12)
    j11, j01 = checks.J11_SQ, checks.J01_SQ
    # name: (check, right arguments, wrong arguments)
    return {
        "nu off by 1.1%": (checks.nu_failures, (j11 * 1.004, 2.0, j01),
                           (j11 * 1.011, 2.0, j01)),
        "scalar nu off by 1.1%": (checks.nu_failures, (j11, 2.0, j01),
                                  (j11, 2.0, j01 * 0.989)),
        "observed order 2.7": (checks.nu_failures, (j11, 2.45, j01),
                               (j11, 2.7, j01)),
        "test field not divergence free": (checks.test_field_failures,
                                           (g, H, q), (leaky, H, q)),
        "test field norm 1.01": (checks.test_field_failures, (g, H, q),
                                 (1.005 * g, H, q * 1.005)),
        "quotient misreported": (checks.test_field_failures, (g, H, q),
                                 (g, H, q * 1.0001)),
        # the same samples read on a grid twice as coarse: a field of
        # support radius 1.8, which is not supported inside the unit disk
        "quotient below nu": (checks.test_field_failures, (g, H, q),
                              (g / 2, 2 * H, q / 4)),
        "quadrature off by 2e-6": (checks.agreement_failures, (5.0, 5.000001),
                                   (5.0, 5.00001)),
        "minimal_n not minimal": (checks.minimal_n_failures,
                                  (5, 0.9, 1.1, 1.0), (5, 0.9, 0.95, 1.0)),
        "minimal_n over budget": (checks.minimal_n_failures,
                                  (1, 0.9, None, 1.0), (1, 1.0, None, 1.0)),
        "minimal_n gave up": (checks.minimal_n_failures, (2, 0.5, 1.5, 1.0),
                              (None, 0.0, None, 1.0)),
        "gap edge moved 1.2%": (checks.gap_failures, ([GAP], GAP),
                                ([(GAP[0], GAP[1] * 1.012)], GAP)),
        "check margin wrong": (checks.margin_failures,
                               (doc, 2.0, 12.0, GAP, j11),
                               (dict(doc, margin=doc["margin"] + 1e-3),
                                2.0, 12.0, GAP, j11)),
        "delta-net 8/9": (checks.coverage_failures, ([(1.0, True)] * 9,),
                          ([(1.0, True)] * 8 + [(2.0, False)],)),
        "eigenvalue off dense by 1e-7": (checks.eigenvalue_failures,
                                         (ref * (1 + 1e-10), ref),
                                         (ref * [1, 1 + 1e-7, 1], ref)),
        "eigenvalue dropped": (checks.eigenvalue_failures, (ref, ref),
                               (ref[:2], ref)),
        "decay fit R^2 0.9": (checks.decay_failures, (fits, 2),
                              (fits + [{"rate": 2.0, "r2": 0.9}], 3)),
        "decay rate 0": (checks.decay_failures, (fits, 2),
                         ([{"rate": 0.0, "r2": 0.99}], 1)),
        "bulk sweep reports modes": (checks.control_failures, (0,), (3,)),
        "summary lacks a stage": (checks.report_failures,
                                  (summary, ("Spectral gaps", "Confinement")),
                                  (summary, ("Spectral gaps", "Trial residual"))),
        "eigenvalue off the symbol": (checks.shell_failures,
                                      ([sym, sym * (1 + 1e-9)], sym, 24),
                                      ([sym, sym * (1 + 1e-5)], sym, 24)),
        "shell returned nothing": (checks.shell_failures, ([sym], sym, 24),
                                   ([], sym, 24)),
    }


def main() -> int:
    bad = 0
    for name, (check, right, wrong) in _cases().items():
        ok_right = check(*right) == []
        ok_wrong = check(*wrong) != []
        bad += not (ok_right and ok_wrong)
        print(f"{'ok  ' if ok_right and ok_wrong else 'FAIL'} {name}: "
              f"right {'accepted' if ok_right else 'REJECTED'}, wrong "
              f"{'rejected' if ok_wrong else 'ACCEPTED'}")
    print(f"{bad} of {len(_cases())} checks misjudged")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
