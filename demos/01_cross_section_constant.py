"""The cross-section constant nu.

The existence condition for guided modes, l^2 (beta - alpha) eps > 2 nu,
hinges on a single geometric constant of the waveguide cross-section: the
lowest eigenvalue of -Laplace on divergence-free vector fields vanishing on
the boundary.  Through the stream function this is the first clamped-plate
buckling eigenvalue.  This demo computes it on the unit disk, checks the
known closed form, and shows how it scales with the section.
"""

import numpy as np

from gapguide import (Box, Disk, refine_extrapolate, solve_nu_scalar,
                      solve_nu_vector)

J11_SQ = 3.8317059702075123**2       # first zero of J1, squared

print("== buckling constant on the unit disk ==")
estimates = []
for n in (48, 64, 96):
    est = solve_nu_vector(Disk(1.0), h=2.0 / n)
    estimates.append(est)
    print(f"  h = 2/{n:<3d}  nu_h = {est.value:.6f}")

best = refine_extrapolate(estimates)
print(f"  Richardson:  nu = {best.value:.6f}  (observed order {best.order:.2f})")
print(f"  closed form: j11^2 = {J11_SQ:.6f}  "
      f"(rel err {abs(best.value - J11_SQ) / J11_SQ:.2e})")

print("\n== scaling: nu(l * Omega) = nu(Omega) / l^2 ==")
for l in (0.5, 2.0):
    scaled = solve_nu_vector(Disk(l), h=2.0 * l / 96)
    print(f"  l = {l:<4g} nu = {scaled.value:10.4f}   "
          f"nu * l^2 = {scaled.value * l**2:.4f}")

print("\n== scalar analog (Dirichlet Laplacian) for intuition ==")
iv = solve_nu_scalar(Box((1.0,)), h=2 / 96)
dk = solve_nu_scalar(Disk(1.0), h=2 / 96)
print(f"  interval (-1, 1): {iv.value:.5f}   (pi^2/4 = {np.pi**2 / 4:.5f})")
print(f"  unit disk:        {dk.value:.5f}   (j01^2  = {2.404825557695773**2:.5f})")
print("\nThe vector constant exceeds the scalar one: divergence-freedom and")
print("the clamped boundary are stronger constraints than a Dirichlet wall.")
