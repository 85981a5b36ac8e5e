"""Spectral gaps, guided modes, and confinement in dielectric waveguides.

The package computes the cross-section constant nu entering the guided-mode
existence condition l^2 (beta - alpha) eps > 2 nu, exercises the trial-field
construction that realizes a delta-net of approximate eigenvalues across a
spectral gap, assembles discrete curl-curl / scalar operators on supercells,
finds in-gap defect modes, and quantifies their exponential confinement.
"""

from .errors import (GapguideError, ValidationError, ConfigError,
                     ResolutionError, GeometryError, UnsupportedGeometryError,
                     IterationError, StructuralError)
from .grids import GridSpec
from .cross_section import CrossSection, Interval, Disk, Rect, MaskSection
from .media import (DiskInclusion, BoxInclusion, StripSpec, MediumSpec,
                    SampledEpsilon, build_medium, with_defect)
from .xsection import (NuEstimate, TestField, solve_nu_vector, solve_nu_scalar,
                       make_test_field, refine_extrapolate, smoothstep)
from .existence import (GapInterval, Profile, TrialParams, ConditionReport,
                        ResidualReport, gap_samples, check_condition,
                        residual_closed_form, residual_quadrature,
                        quadrature_grid, trial_norm_quadrature, minimal_n)
from .discrete_op import (ScalarField2, maxwell_operator, scalar_matrix,
                          check_identities, plane_wave_eigenvalue)
from .eigen import (BandTable, ModeResult, DefectSpectrum, band_structure,
                    find_gaps, interior_eigs, bloch_modes, defect_spectrum,
                    localization_fraction)
from .decay import (DecayProfile, DecayFit, profile, fit_decay, ct_shape,
                    rank_correlation)

__version__ = "0.1.0"
