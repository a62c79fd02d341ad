"""Exact local invariants of polynomial germs at the origin.

Diagrams of initial exponents, standard bases for local orders,
Hilbert-Samuel functions, dimension and flatness verdicts, effective
determinacy bounds, tangent cones, and randomized jet-perturbation
experiments, all over exact rational arithmetic.
"""

__version__ = "0.1.0"

from .diagram import (
    Diagram,
    HilbertSamuelTable,
    complement_count,
    diagrams_equal_up_to,
    has_axis_vertices,
    hilbert_samuel,
    product_structure,
    staircase_dimension,
    vertices_from_exponents,
)
from .errors import (
    DimensionMismatchError,
    GermlabError,
    NotFlatError,
    ParseError,
    ResourceLimitError,
    SingularMatrixError,
    UnitIdealError,
    ZeroPolynomialError,
)
from .experiments import (
    PerturbationSpec,
    approximation_experiment,
    determinacy_experiment,
    perturb,
)
from .germs import (
    MapGerm,
    analyze_germ,
    cm_certify,
    determinacy_order,
    dimension_at_origin,
    fibre_ideal,
    flatness_check,
    tangent_cone_ideal,
    tangent_cones_equal,
)
from .oracle import oracle_hs, oracle_staircase, truncated_quotient_dim
from .orders import (
    FORWARD,
    REVERSE,
    LocalOrder,
    PositiveLinearForm,
    compare_exponents,
    degree_form,
    degree_order,
)
from .poly import (
    JetContext,
    Poly,
    apply_linear_change,
    format_poly,
    initial_exponent,
    initial_form,
    initial_term,
    invert_matrix,
    jet_truncate,
)
from .standard_basis import (
    IdealPresentation,
    NormalFormResult,
    ResourceLimits,
    StandardRepresentation,
    becker_check,
    diagram_of_ideal,
    ideal_membership,
    s_series,
    standard_basis_complete,
    weak_normal_form,
)
from .textform import parse_poly
