"""Cohomogeneity-one Ricci-flat and Spin(7) flows over Aloff-Wallach orbits.

The package realizes the Einstein condition for these metrics as a
polynomial dynamical system on R^8, provides the exact catalog of its
critical points with linearizations, shoots trajectories out of the cone
points and classifies their asymptotics (ALC / AC / escape), reconstructs
the metric coefficients along a trajectory, and certifies the polynomial
positivity facts that make the invariant-set arguments rigorous.
"""

__version__ = "0.1.0"

from .aw_algebra import (AWParams, BundleIndex, BundleTag, SpaceClass,
                         bundle, classify_space, normalize)
from .errors import (DegenerateRootError, DomainAnomalyError,
                     FormulaDiscrepancyError, InitializationError,
                     IntegrationError, InvalidParameterError,
                     InvalidRequestError, ReconstructionDomainError,
                     SolverIncompleteError, Spin7FlowError)
from .critical_points import (Catalog, CriticalFamily, CriticalPoint,
                              EigenData, FlowClass, FrameVector,
                              ReferenceFrame, catalog, eigen, jacobian,
                              reference_frame, solve_homogeneous_einstein,
                              unstable_frame)
from .exact import QuadExt, exact_sqrt, exact_str, parse_rational
from .phase_system import (Chirality, ConstraintResiduals, MembershipReport,
                           PhaseState, ScalarTerms, SetId, flow_rhs,
                           identity_checks, membership, reduced_z_rhs,
                           residuals, scalar_terms, vector_field, x_from_z)
from .shooting import (Asymptotics, MetricProfile, ShootSpec, SweepEntry,
                       Trajectory, boundary_face, classify, initial_state,
                       integrate, quadrant_grid, reconstruct_metric, sweep,
                       worker_count)
from .ratpoly import (Ball, Box, Certificate, Interval, RatPoly,
                      certify_nonneg, count_distinct_roots,
                      random_nonnegativity_audit, rational_string,
                      smallest_root_in_interval, sturm_sequence,
                      sylvester_matrix, sylvester_resultant, univariate_gcd)
from .polycert import (barrier, boundary_zero_report, certify_line_resultant,
                       certify_ray_resultant, implicit_derivatives,
                       line_resultant, line_slices, printed_line_resultant,
                       printed_ray_expansion, ray_slices, root_fn,
                       root_gap_hessian_det, rtilde, stated_boundary_zeros)

# polycert.slice is deliberately left off the package namespace so that
# star-imports never shadow the builtin; reach it as spin7flow.polycert.slice.
__all__ = [name for name in dir() if not name.startswith("_")]
