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
    rotate_completion,
    sphere,
)
from .bundlemetric import (
    adapted_frame_vectors,
    connection_split,
    frame_gram,
    induced_metric,
)
from .closedform import (
    ConstCurvSectional,
    ExpScalarResult,
    TMCurvatureTable,
    TMSectional,
    component_class_masks,
    gram_diagonal,
    minus_exp_flat_threshold,
    scalar_exp_specials,
    table_ricci_trace,
    table_scalar_trace,
    tm_curvature,
    tm_ricci,
    tm_scalar,
    tm_sectional,
    tm_sectional_constcurv,
)
from .errors import (
    ConditioningWarning,
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
    OracleResult,
    compare,
    numeric_tm_curvature,
)
from .scalarfun import Jet2, ScalarFunction, eval_jet, parse, to_text

__version__ = "0.1.0"
