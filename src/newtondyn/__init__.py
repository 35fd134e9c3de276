"""Numerical dynamics toolkit for Newton maps of complex univariate and
real planar polynomial systems: forward basin classification, backward
(alpha-limit) iteration, cycle analysis, and a config-driven CLI.
"""

__version__ = "0.1.0"

from .poly import (
    MultiPoly,
    PlaneMap,
    UniComplexPoly,
    PolyParseError,
    parse_poly,
    parse_plane_map,
    univariate_complex_roots,
    system_real_roots,
    complex_poly_to_plane_map,
)
from .grid import (
    Window,
    BasinRaster,
    OccupancyRaster,
    CODE_CYCLE,
    CODE_ESCAPED,
    CODE_SINGULAR,
    CODE_UNDECIDED,
)
from .newton import (
    SingularJacobianError,
    ComplexRationalMap,
    NewtonComplexMap,
    NewtonPlaneMap,
    build_newton_complex,
    build_newton_plane,
    homogenize_newton,
    jacobian_at_infinity,
    ghost_lines,
    pullback_map,
)
from .forward import (
    ScanConfig,
    OrbitOutcome,
    classify_orbit,
    render_basins,
    parameter_scan,
)
from .backward import (
    BackwardOrbit,
    EmptyOrbitError,
    EmptySetError,
    backward_tree,
    counterimages,
    directed_pixel_distance,
    hausdorff_pixel_distance,
    hutchinson_iterate,
    random_backward_orbit,
)
from .analysis import (
    CycleRecord,
    enumerate_cycles_1d,
    BarnaReport,
    barna_check,
    BoundaryRaster,
    extract_boundary,
    BoundaryComparison,
    compare_alpha_boundary,
    GhostProbeConfig,
    GhostProbeReport,
    probe_ghost_attractor,
)
