"""greenbound: rigorous pointwise enclosures for the Dirichlet Poisson problem.

The package computes mathematically guaranteed lower/upper bounds of
solution values of -Laplace(u) = f with zero boundary data, on the unit
interval and on polygonal domains (including non-convex ones), by pairing
the source against sign-shifted test functions built from fundamental
solutions.
"""

from .errors import (
    CertificationError,
    DomainError,
    GeometryError,
    GreenboundError,
    InputError,
    NeedsSplitError,
    ParseError,
    PlacementError,
    SolveError,
    UnsupportedError,
)
from .expr import PiecewiseSource1D, SourceExpr, parse
from .fundsol import TestFunction2D, gamma
from .geometry import (
    CornerRefine,
    Polygon,
    Triangle,
    amano_sources,
    discretize_boundary,
)
from .interval import Box2, Interval, subdivide_min_max
from .mfs import boundary_extrema, solve_coefficients
from .oned import (
    BuildResult,
    GreenEvaluator,
    GridFunction1D,
    Verdict,
    build_sub,
    build_super,
    check_sub,
    check_super,
    green_value,
    optimal_constant_bounds,
    sweep,
)
from .quad import QuadConfig, pair_f_phi, singular_triangle
from .taylor import TaylorModel2, tm_compose_elem, tm_from_expr
from .twod import (
    EnclosureResult,
    MfsConfig,
    SignedSplit,
    SignVerdict,
    certify_sign,
    enclose_batch,
    enclose_point,
    shift_split,
)

__version__ = "0.1.0"
