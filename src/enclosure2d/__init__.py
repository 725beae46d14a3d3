"""2D impedance-tomography toolkit: synthetic boundary data for the equation
div((sigma - i omega epsilon) grad u) = 0 with an embedded inclusion, and
reconstruction of the inclusion's convex hull and visible boundary by
exponential and Mittag-Leffler probe indicators."""

from .admittivity import (AdmittivityField, JumpReport, ReductionInput,
                          complex_admittivity, jump_analysis, reduce_background)
from .fem import (BoundaryBasis, DtNMatrix, SolveResult, analytic_two_layer_dtn,
                  assemble_dtn_matrix, dtn_pairing, energy_gap,
                  fourier_basis_for_mesh, nodal_basis_for_mesh, prop21_check)
from .indicator import (IndicatorSeries, RegionEstimate, SupportEstimate,
                        cone_carving, convex_hull_estimate, indicator_cgo,
                        indicator_ml, j_oracle, support_slope_fit,
                        transition_search_ml)
from .mesh import Mesh, ShapeSpec, build_disk_mesh, support_function_exact
from .mittag import MLParams, growth_sector, ml_deriv, ml_eval
from .probes import (ConeSpec, ProbeSpec, cgo_gradient, cgo_trace,
                     cone_avoids_shape, cone_contains, critical_cone_offset,
                     ml_probe_gradient, ml_probe_trace)

__version__ = "0.1.0"
