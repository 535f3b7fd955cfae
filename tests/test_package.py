import ast
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import wlpa
from wlpa import (
    Generator,
    GraphError,
    GraphPath,
    LpaReport,
    LpaViolation,
    SpecialEdgeChoice,
    family_maps,
    parse_weighted_graph,
    to_unweighted,
    verify_families,
)

FIXTURES = Path(__file__).parent / "fixtures"

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


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, no site hooks: only what the package imports shows;
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B keeps the source tree clean
    src = Path(wlpa.__file__).resolve().parent.parent
    child = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import wlpa\n"
        "package = set(sys.modules)\n"
        "import wlpa.cli\n"
        "print((sorted(before), sorted(package - before), sorted(set(sys.modules) - package)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", child], check=True,
                         capture_output=True, text=True).stdout
    before, package, cli = map(set, ast.literal_eval(out))
    assert {"wlpa.lpa", "wlpa.unweighting", "fractions"} <= package and "wlpa.cli" in cli
    for added in (before, package, cli):
        assert not added & {"dataclasses", "inspect"}


def test_each_tuple_of_fields_is_immutable_and_replaces_to_its_own_type():
    _, trace = to_unweighted(parse_weighted_graph((FIXTURES / "fork.wg").read_text()))
    fwd, bwd = family_maps(trace)
    path = GraphPath.of(["a", "b"])
    # one instance of each class, a field to replace and its new value
    instances = [
        (Generator.edge("e", 2), "index", 1),
        (SpecialEdgeChoice((("v", "e"),)), "pairs", ()),
        (path, "edges", ("c",)),
        (LpaViolation("LPA4", weighted_edge="e", path=GraphPath.at("v"), cycle=path),
         "weighted_edge", "f"),
        (LpaReport(True), "satisfied", False),
        (trace, "Z", ()),
        (fwd, "direction", "backward"),
        (verify_families(fwd, bwd), "failures", ("a failure",)),
    ]
    assert sorted(type(obj).__name__ for obj, _, _ in instances) == [
        "FamilyMap", "FamilyVerification", "Generator", "GraphPath", "LpaReport",
        "LpaViolation", "SpecialEdgeChoice", "TransformTrace"]
    for obj, name, value in instances:
        for field in obj._fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            obj.extra = None  # no instance dict either
        changed = obj._replace(**{name: value})
        assert type(changed) is type(obj) and getattr(changed, name) == value
        assert changed != obj and changed._replace(**{name: getattr(obj, name)}) == obj
        assert obj == tuple(obj) and obj._asdict() == dict(zip(obj._fields, obj))
    assert repr(LpaReport(True)) == "LpaReport(satisfied=True, violations=())"
    assert repr(LpaViolation("LPA1", "v", ("a", "b"))) == (
        "LpaViolation(kind='LPA1', vertex='v', edges=('a', 'b'), weighted_edge=None, "
        "path=None, cycle=None)")


def test_graph_path_checks_its_fields_however_it_is_built():
    message = "path is either a base vertex or a nonempty edge list"
    path = GraphPath.of(["a", "b"])
    assert (len(path), len(GraphPath.at("v"))) == (2, 0)
    assert repr(path) == "GraphPath(vertex=None, edges=('a', 'b'))"
    for build in (GraphPath, lambda: GraphPath.of([]), lambda: GraphPath("v", ("a",)),
                  lambda: path._replace(vertex="v"), lambda: path._replace(edges=()),
                  lambda: GraphPath._make((None, ()))):
        with pytest.raises(GraphError, match=message):
            build()
    assert pickle.loads(pickle.dumps(path)) == path and copy.copy(path) == path
