"""Weighted Leavitt path algebras: graphs, Condition (LPA), unweighting, arithmetic.

Each public name loads on first use (PEP 562): ``_HOMES`` maps it to the
submodule that defines it, and the module ``__getattr__`` imports that
submodule on the first access and caches the value here.  So ``import wlpa``
loads no submodule, a graph parse loads ``graphs`` alone, and each command
of ``wlpa.cli``, which reads the package through these names, loads only the
submodules it runs.  A submodule name (``wlpa.algebra``) resolves the same
way.
"""

# the home submodule of each public name
_HOMES = {name: home for home, names in (
    ("algebra", """NOT_HOMOGENEOUS ZERO_ELEMENT Algebra AlgebraElement AlgebraError
        BudgetExceededError Generator MixedContextError SpecialEdgeChoice
        UnknownGeneratorError Word apply_generator_map default_special_edges
        evaluate_relation identity_map relation_instances validate_choice"""),
    ("exprs", "ExpressionError parse_element"),
    ("fields", "RATIONALS FieldError PrimeField Rationals field_from_name"),
    ("graphs", """BadWeightError DanglingEndpointError DuplicateIdError EdgeRecord
        GraphError GraphPath GraphSyntaxError UnknownEdgeError UnknownVertexError
        WeightedGraph cycles_through cyclic_components graph_to_records parse_graph
        parse_weighted_graph reaches serialize_graph serialize_weighted_graph
        shortest_cycle tree weighted_edges weighted_graph_from_records"""),
    ("lpa", """LpaReport LpaSatisfiedError LpaViolation WitnessSearchError check_lpa
        search_shape_word witness_nodpath"""),
    ("unweighting", """FamilyMap FamilyVerification LpaViolatedError
        PreconditionViolatedError ReservedIdError TransformTrace family_maps
        make_ranges_sinks strand_name to_unweighted unweight_sunk verify_families"""),
) for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        # level 1 with no fromlist returns the submodule itself, wlpa.<home>
        value = getattr(__import__(_HOMES[name], globals(), None, (), 1), name)
    elif name in _HOMES.values():
        value = __import__(name, globals(), None, (), 1)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    # the module's own attributes, the public names and the submodules, loaded or not
    return sorted({*globals(), *_HOMES, *_HOMES.values()})
