"""Curvature of tangent bundles carrying natural metrics.

The library computes the full curvature tensor, sectional curvature, Ricci
tensor and scalar curvature of (TM, G) for a base manifold given in a
single chart and a natural metric G described by two scalar functions
(alpha, beta), and verifies every closed form against an independent
finite-difference curvature oracle on the 2n-dimensional bundle metric.
"""

from .basemanifold import (
    AdaptedFramePoint,
    BaseInvariants,
    ChartManifold,
    FrameCurvature,
    adapted_frame,
    base_invariants,
    conformal_polynomial,
    euclidean,
    frame_curvature,
    hyperbolic,
    make_manifold,
    sphere,
)
from .bundlemetric import (
    adapted_frame_vectors,
    induced_metric,
)
from .closedform import (
    TMSectional,
    minus_exp_flat_threshold,
    scalar_exp_specials,
    tm_curvature,
    tm_ricci,
    tm_scalar,
    tm_sectional,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    NonFiniteError,
    ParseError,
    SingularMetricError,
    StencilOutOfDomainError,
    TbcurvError,
    UnknownIdentifierError,
    ValidityError,
)
from .metricfamily import (
    FamilyValidation,
    NaturalMetricFamily,
    PRESET_NAMES,
    flatness_beta,
    preset,
)
from .oracle import (
    CurvatureReport,
    OracleConfig,
    compare,
    numeric_tm_curvature,
)
from .scalarfun import Jet2, ScalarFunction, parse

__version__ = "0.1.0"
