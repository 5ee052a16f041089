"""cauchykit: numerical Cauchy integrals on contours and arcs, the four
generalized Hilbert transforms, Plemelj boundary limits, the flat-plate
airfoil solution, and a heuristic exterior-singularity probe."""

from .cauchy import (BoundaryFunction, FunctionalValue, ResidualReport,
                     boundary_value, cauchy_functional,
                     complement_boundary_value, complement_functional,
                     derivative_bound_check, generalized_functional,
                     mean_value_check, one_sided_limit, pv_contour_integral,
                     uniform_convergence_residuals, validate_derivatives,
                     vanishing_contour_integral)
from .errors import (AccuracyWarning, CapabilityError, CauchyKitError,
                     ContractError, DomainError, EndpointError,
                     InvalidGridError, NonFiniteError, OnContourError,
                     ParseError, PrescriptionError)
from .geometry import (ClosedContour, JordanArc, PointClassification,
                       QuadratureGrid, build_unit_circle, circle,
                       classify_point, contour_integral, ellipse,
                       gauss_panel_grid, near_zone_width,
                       panels_from_breakpoints, periodic_trapezoid_grid,
                       pv_singular_weight, segment, validate_contour)
from .hilbert import (PeriodicFunction, RealLineFunction, TransformResult,
                      hilbert_circular, hilbert_circular_complementary,
                      hilbert_circular_complementary_inverse,
                      hilbert_circular_inverse, hilbert_complementary,
                      hilbert_complementary_inverse, hilbert_line,
                      hilbert_line_inverse, normalization_check,
                      parseval_check)
from .plemelj import (ArcDensity, SidedLimit, arc_cauchy_integral,
                      plemelj_limits, poincare_bertrand_residual,
                      reconstruct_from_jump)
from .airfoil import (FlowConfig, SheetDensity, chebyshev3_rule,
                      chebyshev4_rule, circulation, far_field_circulation,
                      finite_hilbert_inverse, finite_hilbert_transform,
                      flat_plate_complex_velocity, leading_edge_suction,
                      leading_edge_weight, lift, normal_force, pressure,
                      pressure_jump, sheet_velocity_field, surface_velocities)
from .singularities import (ProbeReport, SingularityPrescription,
                            catalog_function, exterior_annihilation_check,
                            pade_pole_probe, taylor_coefficients)

__version__ = "0.1.0"
