"""Spectral gaps, guided modes, and confinement in dielectric waveguides.

The package computes the cross-section constant nu entering the guided-mode
existence condition l^2 (beta - alpha) eps > 2 nu, exercises the trial-field
construction that realizes a delta-net of approximate eigenvalues across a
spectral gap, assembles discrete curl-curl / scalar operators on supercells,
finds in-gap defect modes, and quantifies their exponential confinement.
"""

from .errors import (GapguideError, ValidationError, ResolutionError,
                     GeometryError, UnsupportedGeometryError, IterationError)
from .grids import GridSpec
from .cross_section import CrossSection, Box, Disk, MaskSection
from .media import (StripSpec, MediumSpec, SampledEpsilon, build_medium,
                    with_defect)
from .xsection import (NuEstimate, TestField, solve_nu_vector, solve_nu_scalar,
                       make_test_field, refine_extrapolate, smoothstep)
from .existence import (GapInterval, Profile, TrialParams, ConditionReport,
                        ResidualReport, gap_samples, check_condition,
                        residual_closed_form, residual_quadrature,
                        quadrature_grid, minimal_n)
from .discrete_op import maxwell_operator, scalar_matrix
from .eigen import (BandTable, ModeResult, DefectSpectrum, band_structure,
                    find_gaps, interior_eigs, bloch_modes, defect_spectrum)
from .decay import (DecayProfile, DecayFit, profile, fit_decay, ct_shape,
                    rank_correlation)

__version__ = "0.1.0"
