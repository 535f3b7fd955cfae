"""Weighted Leavitt path algebras: graphs, Condition (LPA), unweighting, arithmetic."""

from types import ModuleType as _ModuleType

from .algebra import (
    NOT_HOMOGENEOUS,
    ZERO_ELEMENT,
    Algebra,
    AlgebraElement,
    AlgebraError,
    BudgetExceededError,
    Generator,
    MixedContextError,
    SpecialEdgeChoice,
    UnknownGeneratorError,
    Word,
    apply_generator_map,
    default_special_edges,
    evaluate_relation,
    identity_map,
    relation_instances,
    validate_choice,
)
from .exprs import ExpressionError, parse_element
from .fields import RATIONALS, FieldError, PrimeField, Rationals, field_from_name
from .graphs import (
    BadWeightError,
    DanglingEndpointError,
    DuplicateIdError,
    EdgeRecord,
    Graph,
    GraphError,
    GraphPath,
    GraphSyntaxError,
    UnknownEdgeError,
    UnknownVertexError,
    WeightedGraph,
    cycles_through,
    cyclic_components,
    graph_to_records,
    parse_graph,
    parse_weighted_graph,
    reaches,
    serialize_graph,
    serialize_weighted_graph,
    shortest_cycle,
    tree,
    weighted_edges,
    weighted_graph_from_records,
)
from .lpa import (
    LpaReport,
    LpaSatisfiedError,
    LpaViolation,
    WitnessSearchError,
    check_lpa,
    search_shape_word,
    witness_nodpath,
)
from .unweighting import (
    FamilyMap,
    FamilyVerification,
    LpaViolatedError,
    PreconditionViolatedError,
    ReservedIdError,
    TransformTrace,
    family_maps,
    make_ranges_sinks,
    strand_name,
    to_unweighted,
    unweight_sunk,
    verify_families,
)

# the names imported above, without the submodules that importing them binds
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
