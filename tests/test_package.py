import ast
import copy
import io
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
    check_lpa,
    family_maps,
    parse_weighted_graph,
    serialize_weighted_graph,
    to_unweighted,
    verify_families,
)
from wlpa.cli import run

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


SRC = Path(wlpa.__file__).resolve().parent.parent
SUBMODULES = ["algebra", "exprs", "fields", "graphs", "lpa", "unweighting"]


def _fresh(child):
    """Run ``child`` in a fresh interpreter that imports ``wlpa`` from this tree; its stdout."""
    # no site hooks: only what the package imports shows; -I ignores
    # PYTHONDONTWRITEBYTECODE, so -B keeps the source tree clean
    script = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n" + child
    return subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script], check=True,
                          capture_output=True, text=True).stdout


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from wlpa import *", namespace)
    # exactly the public names: no submodule (algebra, exprs, fields, ...) is bound
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES
    # the same as the first use of the package, which loads every submodule
    out = _fresh(
        "import wlpa\n"
        "namespace = {}\n"
        "exec('from wlpa import *', namespace)\n"
        "print(sorted(name for name in namespace if name != '__builtins__'))\n"
    )
    assert ast.literal_eval(out) == PUBLIC_NAMES


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # each step loads the submodules it needs and no more
    out = _fresh(
        "steps = [set(sys.modules)]\n"
        "import wlpa\n"
        "steps.append(set(sys.modules))\n"
        "wlpa.parse_weighted_graph('vertex v\\nedge e v v 2\\n')\n"
        "steps.append(set(sys.modules))\n"
        "import wlpa.cli\n"
        "steps.append(set(sys.modules))\n"
        "print([sorted(b - a) for a, b in zip(steps, steps[1:])])\n"
    )
    package, parse, cli = map(set, ast.literal_eval(out))
    assert package == {"wlpa"}
    assert {m for m in parse if m.startswith("wlpa.")} == {"wlpa.graphs"}
    assert {m for m in cli if m.startswith("wlpa.")} == {"wlpa.cli"}
    assert "fractions" not in package | parse
    for added in (package, parse, cli):
        assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv, stdin, code, homes", [
    (["validate"], "vertex v\n", 0, {"graphs", "fields"}),
    (["check-lpa"], "vertex v\n", 0, {"graphs", "fields", "lpa", "algebra"}),
    (["witness"], "vertex v\n", 3, {"graphs", "fields", "lpa", "algebra"}),
    (["transform", "--verify"], "vertex v\n", 0,
     {"graphs", "fields", "lpa", "algebra", "unweighting"}),
    (["growth", "3"], "vertex v\n", 0, {"graphs", "fields", "algebra"}),
    (["eval", "v"], "vertex v\n", 0, {"graphs", "fields", "algebra", "exprs"}),
    # an input error is matched against every error class, so it loads their submodules
    (["validate"], "vertex v\nvertex v\n", 1, set(SUBMODULES)),
    (["check-lpa", "--field", "mod:4"], "vertex v\n", 1, set(SUBMODULES)),
])
def test_each_command_loads_only_the_submodules_it_runs(argv, stdin, code, homes):
    # a fresh process, as the installed ``wlpa`` command is: what it loads is its own
    out = _fresh(
        "import io\n"
        "from wlpa import cli\n"
        "stdout, stderr = io.StringIO(), io.StringIO()\n"
        f"code = cli.run({argv + ['--input', '-']!r}, io.StringIO({stdin!r}), stdout, stderr)\n"
        "print(repr((code, stdout.getvalue(), stderr.getvalue())))\n"
        "print(sorted(m[5:] for m in sys.modules if m.startswith('wlpa.') and m != 'wlpa.cli'))\n"
    )
    result, loaded = map(ast.literal_eval, out.splitlines())
    # and it prints what the same command prints here, with every submodule loaded
    stdout, stderr = io.StringIO(), io.StringIO()
    here = run(argv + ["--input", "-"], io.StringIO(stdin), stdout, stderr)
    assert result == (here, stdout.getvalue(), stderr.getvalue()) and here == code
    assert set(loaded) == homes


def test_each_public_name_is_the_object_its_home_submodule_defines():
    out = _fresh(
        "import wlpa\n"
        "print([name for name in wlpa.__all__ if getattr(wlpa, name) is not\n"
        "       vars(sys.modules['wlpa.' + wlpa._HOMES[name]])[name]])\n"
        "print(sorted(m for m in sys.modules if m.startswith('wlpa.')))\n"
    )
    mismatched, loaded = map(ast.literal_eval, out.splitlines())
    assert mismatched == []
    assert loaded == [f"wlpa.{home}" for home in SUBMODULES]
    # the home is where the name is defined, not a module that imports it
    for name, home in wlpa._HOMES.items():
        body = ast.parse((SRC / "wlpa" / f"{home}.py").read_text(encoding="utf-8")).body
        assert name in {node.name for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))} | {
            target.id for node in body if isinstance(node, ast.Assign) for target in node.targets}, name


@pytest.mark.parametrize("home", SUBMODULES)
def test_each_submodule_resolves_after_a_bare_import(home):
    # the submodule is the first name the package is asked for
    out = _fresh(
        "import wlpa\n"
        f"print(wlpa.{home} is sys.modules['wlpa.{home}'])\n"
        f"from wlpa import {home}\n"
        f"print({home} is sys.modules['wlpa.{home}'])\n"
    )
    assert out.split() == ["True", "True"]


def test_dir_lists_the_public_names_the_submodules_and_the_module_attributes():
    names = dir(wlpa)
    assert names == sorted(names)
    assert set(PUBLIC_NAMES) | set(SUBMODULES) | {"__doc__", "__file__", "__path__"} <= set(names)
    with pytest.raises(AttributeError, match=r"^module 'wlpa' has no attribute 'no_such_name'$"):
        wlpa.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from wlpa import no_such_name", {})


def test_a_graph_and_a_report_pickled_here_load_in_a_fresh_interpreter():
    g = parse_weighted_graph((FIXTURES / "e2loops.wg").read_text())
    report = check_lpa(g)
    assert not report.satisfied
    data = pickle.dumps((g, report))
    out = _fresh(
        "import pickle\n"
        f"g, report = pickle.loads({data!r})\n"
        "import wlpa\n"
        "print(repr(wlpa.serialize_weighted_graph(g)))\n"
        "print(repr(report))\n"
    )
    text, report_repr = out.splitlines()
    assert ast.literal_eval(text) == serialize_weighted_graph(g)
    assert report_repr == repr(report)


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
