"""Exponential confinement of the guided modes.

Each in-gap mode decays exponentially away from the strip.  We march cube
windows outward, fit log(norm) against distance over a guarded window, and
compare the fitted rates -- ordinally -- against the in-gap rate shape
sqrt((lam - alpha)(beta - lam)) that resolvent estimates predict: modes near
mid-gap are the best confined, modes near the edges leak the furthest.
"""

import numpy as np

from gapguide import (Box, GapInterval, GridSpec, MediumSpec, StripSpec,
                      build_medium, ct_shape, defect_spectrum, fit_decay,
                      profile, rank_correlation, with_defect)

bulk = MediumSpec(lattice=(0.25, 1.0), inclusions=(
    (Box((0.125, 0.1875)), 9.0),))
grid2 = GridSpec((4, 511), (1 / 16, 1 / 32), (0.0, -8.0))
eps0 = build_medium(bulk, grid2)

# fix the axial momentum and use the gap of that fiber: the decay rate of a
# mode is set by its distance to the spectrum at its own momentum
k1 = 1.0
fgap = GapInterval(2.36, 5.42)
strip = StripSpec(Box((1.0,)), l=2.0, eps_inside=40.0)
ds = defect_spectrum(with_defect(eps0, strip), strip, fgap,
                     k1_samples=[k1], delta=0.15, count=40)
print(f"{len(ds.modes)} localized modes in the fibered gap "
      f"({fgap.alpha:.2f}, {fgap.beta:.2f}) at k1 = {k1}\n")

print(f"  {'lambda':>8}  {'rate':>6}  {'R^2':>7}  {'shape':>6}")
rates, shapes = [], []
for m in ds.modes:
    fit = fit_decay(profile(m, strip, step=0.125))
    rates.append(fit.rate)
    shapes.append(ct_shape(m.lam, fgap))
    print(f"  {m.lam:8.3f}  {fit.rate:6.2f}  {fit.r2:7.4f}  {shapes[-1]:6.3f}")

corr = rank_correlation(rates, shapes)
print(f"\nSpearman rank correlation of rate vs sqrt((lam-a)(b-lam)): "
      f"{corr:.3f}")
print("Mid-gap modes decay fastest; edge modes slowest -- the ordering the")
print("in-gap resolvent estimate predicts.")
