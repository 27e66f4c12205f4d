"""Exact-arithmetic invariants of twist rim surgery on embedded surfaces.

Knot-group presentations, Alexander polynomials via free differential
calculus, bounded coset enumeration, cyclic branched-cover homology,
and the smooth-vs-topological classifier for twist-surgered surfaces.
"""

from .alexander import (
    alexander_of_knot,
    alexander_polynomial,
    fox_derivative,
    torus_alexander,
)
from .covers import (
    CoverHomology,
    branched_cover_order,
    branched_cover_structure,
)
from .groups import (
    DEFAULT_COSET_BUDGET,
    AbelianInvariants,
    CosetTable,
    abelianization,
    todd_coxeter,
)
from .knots import (
    PD,
    Braid,
    ConnectedSum,
    KnotError,
    KnotExpr,
    KnotSemanticError,
    KnotSyntaxError,
    Mirror,
    TorusKnot,
    Unknot,
    braid_closure_components,
    mirror_braid,
    mirror_pd,
    parse_knot,
    render,
    torus_braid,
)
from .laurent import LaurentPoly, laurent_det, poly_text, resultant_with_cyclotomic
from .surgery import (
    Pi1Verdict,
    SurgeryParams,
    SurgeryReport,
    classify,
    congruent_pm1,
    cyclic_verdict,
    enumerate_examples,
    ribbon_certificate,
    twist_rim_presentation,
)
from .wirtinger import (
    GroupPresentation,
    presentation_connected_sum,
    presentation_of_knot,
    tietze_simplify,
    wirtinger_from_braid,
    wirtinger_from_pd,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "Braid",
    "ConnectedSum",
    "CosetTable",
    "CoverHomology",
    "DEFAULT_COSET_BUDGET",
    "GroupPresentation",
    "KnotError",
    "KnotExpr",
    "KnotSemanticError",
    "KnotSyntaxError",
    "LaurentPoly",
    "Mirror",
    "PD",
    "Pi1Verdict",
    "SurgeryParams",
    "SurgeryReport",
    "TorusKnot",
    "Unknot",
    "abelianization",
    "alexander_of_knot",
    "alexander_polynomial",
    "braid_closure_components",
    "branched_cover_order",
    "branched_cover_structure",
    "classify",
    "congruent_pm1",
    "cyclic_verdict",
    "enumerate_examples",
    "fox_derivative",
    "laurent_det",
    "mirror_braid",
    "mirror_pd",
    "parse_knot",
    "poly_text",
    "presentation_connected_sum",
    "presentation_of_knot",
    "render",
    "resultant_with_cyclotomic",
    "ribbon_certificate",
    "tietze_simplify",
    "todd_coxeter",
    "torus_alexander",
    "torus_braid",
    "twist_rim_presentation",
    "wirtinger_from_braid",
    "wirtinger_from_pd",
]
