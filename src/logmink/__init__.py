"""Numerical toolkit for the logarithmic Minkowski problem on the 2-sphere.

The package solves the support-function Monge-Ampere equation

    h * det(Hess h + h I) = f     on S^2

by a damped Newton iteration and by a normalized Gauss-curvature flow, and
provides the discrete convex geometry used to study its solutions: polytope
cone-volume and surface-area measures, minimum-volume enclosing ellipsoids
with John-type containment checks, and blow-down diagnostics for families of
bodies that degenerate.
"""

from .errors import (
    ConvergenceFailure,
    ConvexityError,
    DimensionDeficient,
    GenerationFailure,
    GridMismatch,
    InvalidParameter,
    LogminkError,
    OriginNotContained,
    StepFailure,
)
from .grid import (
    DEFAULT_BANDWIDTH,
    HarmonicCoeffs,
    ScalarField,
    SphericalGrid,
    analyze,
    build_grid,
    harmonic_field,
    integrate,
    synthesize,
    tangential_gradient,
)
from .solver import (
    DensityFunction,
    NewtonResult,
    SolveOptions,
    SupportFunction,
    holder_proxy_seminorm,
    linearized_operator,
    ma_residual,
    newton_solve,
)
from .convex import (
    BlowdownDiagnostics,
    DiscreteMeasure,
    Ellipsoid,
    Polytope,
    ball_offset_outer,
    blowdown_diagnostics,
    cone_volume_measure,
    convex_hull_3d,
    enclosing_ellipsoid,
    hausdorff_distance,
    measure_from_csv,
    measure_to_csv,
    polytope_from_obj,
    polytope_from_support,
    polytope_to_obj,
    surface_area_measure,
    volume,
    volume_from_support,
)
from .flow import FlowOptions, FlowResult, run_flow
from .experiments import (
    ExperimentReport,
    ExperimentSpec,
    gen_density,
    run_experiment,
    solve_with_inits,
)

__version__ = "0.1.0"
