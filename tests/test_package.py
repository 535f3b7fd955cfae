import wlpa

# Every change to the public names shows here, in a diff.
PUBLIC_NAMES = [
    "Algebra", "AlgebraElement", "AlgebraError", "BadWeightError",
    "BudgetExceededError", "DanglingEndpointError", "DuplicateIdError", "EdgeRecord",
    "ExpressionError", "FamilyMap", "FamilyVerification", "FieldError", "Generator",
    "Graph", "GraphError", "GraphPath", "GraphSyntaxError", "LpaReport",
    "LpaSatisfiedError", "LpaViolatedError", "LpaViolation", "MixedContextError",
    "NOT_HOMOGENEOUS", "PreconditionViolatedError", "PrimeField", "RATIONALS",
    "Rationals", "ReservedIdError", "SpecialEdgeChoice", "TransformTrace",
    "UnknownEdgeError", "UnknownGeneratorError", "UnknownVertexError", "WeightedGraph",
    "WitnessSearchError", "Word", "ZERO_ELEMENT", "apply_generator_map", "check_lpa",
    "cycles_through", "cyclic_components", "default_special_edges", "evaluate_relation",
    "family_maps", "field_from_name", "graph_to_records", "identity_map",
    "make_ranges_sinks", "parse_element", "parse_graph", "parse_weighted_graph",
    "reaches", "relation_instances", "search_shape_word", "serialize_graph",
    "serialize_weighted_graph", "shortest_cycle", "strand_name", "to_unweighted",
    "tree", "unweight_sunk", "validate_choice", "verify_families", "weighted_edges",
    "weighted_graph_from_records", "witness_nodpath",
]


def test_public_names_are_pinned():
    assert sorted(wlpa.__all__) == PUBLIC_NAMES


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from wlpa import *", namespace)
    # exactly the public names: no submodule (algebra, exprs, fields, ...) is bound
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES
