"""Exact-arithmetic toolkit for Urysohn-style metric constructions.

Everything computes over arbitrary-precision rationals — equality and
comparisons in every contract are exact, never approximate.  The pieces:

* :mod:`ury.metric` — finite rational metric spaces, axiom validation with
  exact witnesses, and the canonical ``.dmat`` text format;
* :mod:`ury.construct` — the labeled enumeration of finite rational sets
  and the step-by-step prefix construction of the rational universal space;
* :mod:`ury.extension` — one-point extensions realizing prescribed radii
  and sphere-exact witnesses for finite ball families;
* :mod:`ury.tightspan` — Katetov functions, extremal projection, the
  Kuratowski embedding, and exact tight-span vertex enumeration;
* :mod:`ury.linf` — box/Helly intersection in max-norm space and the
  truncated null-sequence counterexample;
* :mod:`ury.embed` — exact backtracking search for isometric embeddings
  into a prefix and extension of partial isometries.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from .construct import (
    ConstructionMode,
    PrefixState,
    QLabel,
    StepRecord,
    build_prefix,
    calkin_wilf,
    calkin_wilf_index,
    cardinality_of_index,
    dump_prefix_text,
    index_of_subset,
    is_correctly_defined,
    load_prefix,
    load_prefix_text,
    save_prefix,
    subset_of_index,
    truncate_prefix,
)
from .embed import (
    EmbeddingResult,
    PartialIsometry,
    extend_partial_isometry,
    find_isometric_embedding,
)
from .errors import (
    DegeneratePath,
    DimensionMismatch,
    EmptyFamily,
    EmptySupport,
    Inadmissible,
    InvalidMode,
    InvalidPartialIsometry,
    MetricViolation,
    NonSquareInput,
    NotAdmissible,
    NotAdmissibleOnSubset,
    PairwiseInfeasible,
    ParseError,
    PrefixTooShort,
    SpaceMismatch,
    TooLarge,
    UryError,
)
from .extension import (
    AdmissibilityResult,
    Ball,
    BallFamily,
    CertificateEntry,
    ExtensionRequest,
    ReductionTrace,
    RemovalRecord,
    WitnessResult,
    admissible,
    ball_intersection_witness,
    extend_one_point,
    reduce_ball_family,
)
from .linf import (
    Box,
    BoxIntersection,
    C0Report,
    box_intersection,
    c0_counterexample,
    max_norm_ball,
    max_norm_distance,
)
from .metric import (
    FiniteMetricSpace,
    ValidationReport,
    Violation,
    parse_distance_matrix,
    parse_matrix_text,
    serialize_distance_matrix,
    serialize_matrix,
    validate_metric,
)
from .rational import Rational, as_rational, format_rational, parse_rational
from .tightspan import (
    HullCheckReport,
    KatetovFunction,
    PathHullCandidate,
    TightSpanVertexSet,
    chebyshev,
    extend_radius_function,
    extremal_below,
    is_admissible_function,
    is_extremal,
    kuratowski,
    sup_distance,
    tight_span_vertices,
    tripod_center,
    verify_hull_candidate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
