"""A spectral gap, a defect strip, and the guided modes in between.

The bulk is a layered dielectric (an eps = 9 slab per unit period).  Its
band structure has a wide gap.  Inserting a strip of dielectric into a
supercell creates eigenvalues inside that gap -- localized guided modes --
while the bare bulk supercell, as a negative control, has none.
"""

import numpy as np

from gapguide import (Box, GapInterval, GridSpec, MediumSpec, StripSpec,
                      band_structure, build_medium, defect_spectrum, find_gaps,
                      with_defect)

print("== bulk band structure (1D reduction at axial momentum 0) ==")
grid1 = GridSpec((512,), (1 / 512,), (-0.5,))
layered = MediumSpec(lattice=(1.0,), inclusions=(
    (Box((0.1875,)), 9.0),))
bt = band_structure(build_medium(layered, grid1), np.linspace(0, np.pi, 25),
                    bands=6)
gap = find_gaps(bt, min_width=0.5)[0]
print(f"  first gap: ({gap.alpha:.4f}, {gap.beta:.4f}), "
      f"width {gap.width:.3f}")

print("\n== supercell with a defect strip ==")
bulk = MediumSpec(lattice=(0.25, 1.0), inclusions=(
    (Box((0.125, 0.1875)), 9.0),))
strip = StripSpec(Box((1.0,)), l=2.0, eps_inside=12.0)
grid2 = GridSpec((4, 511), (1 / 16, 1 / 32), (0.0, -8.0))
eps0 = build_medium(bulk, grid2)
eps_d = with_defect(eps0, strip)

k1 = np.linspace(4.3, 6.3, 9)
ds = defect_spectrum(eps_d, strip, gap, k1_samples=k1, delta=0.25, count=24)
print(f"  {len(ds.modes)} localized in-gap modes over {len(k1)} axial momenta")
print(f"  worst wall amplitude {max(ds.wall_amplitudes):.1e} "
      "(conducting-wall truncation is benign)")
print("  gap coverage (delta = 0.25):")
for mu, covered in ds.coverage:
    print(f"    mu = {mu:5.2f}  {'covered' if covered else 'NOT covered'}")

print("\n== negative control: same sweep on the bare bulk ==")
ds0 = defect_spectrum(eps0, strip, gap, k1_samples=k1, delta=0.25, count=24)
print(f"  localized modes without the defect: {len(ds0.modes)}")
