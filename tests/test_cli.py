import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from wlpa import (
    Algebra,
    EdgeRecord,
    Generator,
    WeightedGraph,
    parse_weighted_graph,
    serialize_weighted_graph,
)
import wlpa
from wlpa import algebra as algebra_module, lpa as lpa_module
from wlpa.cli import main, run
from wlpa.exprs import ExpressionError, parse_element
from wlpa.unweighting import family_maps

from graphgen import weighted_ring
from oracles import word_degree

FIXTURES = Path(__file__).parent / "fixtures"

E = Generator.edge
S = Generator.star


def invoke(*argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return str(FIXTURES / name)


# -- expression parsing ----------------------------------------------------


def algebra_for(name):
    return Algebra(parse_weighted_graph((FIXTURES / name).read_text()))


def test_expr_single_generator():
    algebra = algebra_for("e2loops.wg")
    assert parse_element(algebra, "b.2") == algebra.edge("b", 2)
    assert parse_element(algebra, "b.2*") == algebra.star("b", 2)
    assert parse_element(algebra, "v") == algebra.vertex("v")


def test_expr_products_and_sums():
    algebra = algebra_for("e2loops.wg")
    p = parse_element(algebra, "b.2 a.1 b.2*")
    assert p == algebra.word((E("b", 2), E("a", 1), S("b", 2)))
    combo = parse_element(algebra, "3/2 * v - b.2 a.1")
    expected = algebra.vertex("v").scaled("3/2") - algebra.word((E("b", 2), E("a", 1)))
    assert combo == expected


def test_expr_parentheses():
    algebra = algebra_for("e2loops.wg")
    value = parse_element(algebra, "b.2 (a.1 + v) b.2*")
    direct = parse_element(algebra, "b.2 a.1 b.2* + b.2 b.2*")
    assert value == direct


def test_expr_superscripted_identifiers():
    g6 = parse_weighted_graph((FIXTURES / "g6_stage2.wg").read_text())
    algebra = Algebra(g6)
    word = parse_element(algebra, "(h^(1))^(2).1")
    assert word == algebra.edge("(h^(1))^(2)", 1)
    assert parse_element(algebra, "x^(1)") == algebra.vertex("x^(1)")


def test_expr_errors():
    algebra = algebra_for("loop1.wg")
    for bad in ("", "a.1 +", "3 +", "a.2", "b.1", "unknown", "(a.1", "3/2"):
        with pytest.raises(ExpressionError):
            parse_element(algebra, bad)
    # the first bad generator in the text is the one reported, wherever it sits
    exact = {
        "v (a.1 a.2*) a.1": "unknown generator 'a.2*'",
        "(v + a.1) a.2": "unknown generator 'a.2'",
        "a.1 w a.1*": "unknown vertex 'w'",
        "a.2 +": "unknown generator 'a.2'",
        "a.1 b.1 (": "unknown generator 'b.1'",
        "3/2": "scalar prefix must be followed by '*'",
        "1/0 * v": "bad rational literal '1/0'",
        "(v ^(1))": "unexpected character '^' at position 3",
    }
    for bad, message in exact.items():
        with pytest.raises(ExpressionError) as info:
            parse_element(algebra, bad)
        assert str(info.value) == message
        assert invoke("eval", "--input", fx("loop1.wg"), bad) == (1, "", f"error: {message}\n")


def test_expr_digit_vertices_read_back():
    graph = "vertex 2\nvertex x\nedge 7 2 x\n"
    code, out, _ = invoke("basis", "--input", "-", "2", stdin_text=graph)
    assert code == 0 and "2" in out.split()
    for word in out.splitlines():
        assert invoke("eval", "--input", "-", word, stdin_text=graph) == (0, word + "\n", "")
    # a digit run followed by '*' stays a scalar prefix
    for text, value in (("1 * 2", "2"), ("2 * 2", "2 2"), ("2 2", "2"), ("-2 7.1", "-7.1")):
        assert invoke("eval", "--input", "-", text, stdin_text=graph) == (0, value + "\n", "")
    assert invoke("eval", "--input", "-", "2 * 2 * x", stdin_text=graph) == (
        1, "", "error: unexpected token '2'\n")


def test_eval_output_reads_back():
    # a scalar prefix may stand right before its factor, as eval prints it
    cases = (([fx("e2loops.wg")], "2 * b.1* b.1 + 1/2 * a.1", "2 v + 1/2 a.1 - 2 b.2* b.2"),
             ([fx("e2loops.wg"), "--field", "mod:7"], "-b.2 b.2* + 1/2 * b.1* b.1 - 3 * v",
              (FIXTURES / "eval_e2loops_mod7.txt").read_text().strip()))
    for args, text, printed in cases:
        assert invoke("eval", "--input", *args, text) == (0, printed + "\n", "")
        assert invoke("eval", "--input", *args, printed) == (0, printed + "\n", "")


# -- CLI exit codes and text output -----------------------------------------


def test_cli_check_lpa_satisfied():
    code, out, err = invoke("check-lpa", "--input", fx("g6.wg"))
    assert code == 0 and out.strip() == "satisfied" and err == ""


def test_cli_check_lpa_violated():
    code, out, _ = invoke("check-lpa", "--input", fx("e2loops.wg"))
    assert code == 3
    assert "LPA2" in out and "LPA4" in out


def test_cli_validate():
    code, out, _ = invoke("validate", "--input", fx("g6.wg"))
    assert code == 0 and out.strip() == "ok: 6 vertices, 9 edges"


def test_cli_input_errors():
    code, _, err = invoke("validate", "--input", fx("missing.wg"))
    assert code == 1 and "cannot read" in err
    code, _, err = invoke(
        "validate", "--input", "-", stdin_text="edge a v v 1"
    )
    assert code == 1 and "unknown source" in err


def test_cli_rejects_a_graph_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.wg"
    path.write_bytes(b"vertex v\xff\n")
    assert invoke("validate", "--input", str(path)) == (1, "", (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff"
        " in position 8: invalid start byte\n"))


def test_cli_eval():
    code, out, _ = invoke("eval", "--input", fx("loop1.wg"), "a.1* a.1")
    assert code == 0 and out.strip() == "v"
    code, _, err = invoke("eval", "--input", fx("loop1.wg"), "a.3")
    assert code == 1 and "error" in err


def test_cli_eval_mod_field():
    code, out, _ = invoke(
        "eval", "--input", fx("loop1.wg"), "--field", "mod:2", "v + v"
    )
    assert code == 0 and out.strip() == "0"
    code, _, err = invoke(
        "eval", "--input", fx("loop1.wg"), "--field", "mod:4", "v"
    )
    assert code == 1 and "prime" in err


def test_cli_growth_table():
    code, out, _ = invoke("growth", "--input", fx("e2loops.wg"), "12")
    assert code == 0
    table = [line.split("\t") for line in out.strip().splitlines()]
    values = {int(n): int(c) for n, c in table}
    assert values[0] == 1 and values[12] >= 2 ** 4
    assert all(values[n] <= values[n + 1] for n in range(12))


def test_cli_zero_dim_table():
    code, out, _ = invoke("zero-dim", "--input", fx("loop1.wg"), "4")
    assert code == 0
    assert out.strip().splitlines()[-1] == "4\t1"


def test_cli_witness():
    code, out, _ = invoke("witness", "--input", fx("e2loops.wg"))
    assert code == 0 and out.strip() == "b.2 a.1 b.2*"
    code, out, _ = invoke("witness", "--input", fx("g6.wg"))
    assert code == 3 and "no witness" in out


def test_cli_basis():
    code, out, _ = invoke("basis", "--input", fx("loop1.wg"), "2")
    assert code == 0
    assert out.strip().splitlines() == ["v", "a.1", "a.1*", "a.1 a.1", "a.1* a.1*"]


def test_cli_basis_budget():
    code, _, err = invoke(
        "basis", "--input", fx("e2loops.wg"), "12", "--budget", "1000"
    )
    assert code == 1 and "budget" in err


def test_cli_basis_budget_counts_words_explored():
    # `basis 0` explores the vertex words only, not the letters of length 1
    for budget in ("1", "2"):
        assert invoke("basis", "--input", fx("loop1.wg"), "0", "--budget", budget) == (
            0, "v\n", "")
    assert invoke("basis", "--input", fx("loop1.wg"), "1", "--budget", "2") == (
        1, "", "error: enumeration exceeded the budget of 2 words\n")


def test_cli_basis_default_budget_is_checked_before_any_word_is_built(monkeypatch):
    # basis 9 on e2loops.wg explores 1,477,267 words, past the default 10**5
    def no_words(self):
        raise AssertionError("a word was built")

    monkeypatch.setattr(Algebra, "_generators", no_words)
    assert invoke("basis", "9", "--input", fx("e2loops.wg")) == (
        1, "", "error: enumeration exceeded the budget of 100000 words\n")


def test_cli_negative_budget_is_rejected_before_anything_is_counted(monkeypatch):
    # the option reader lets the sign through; the enumeration rejects it
    def no_counts(self, *args, **kwargs):
        raise AssertionError("nod-words were counted")

    monkeypatch.setattr(Algebra, "nodword_counts", no_counts)
    for max_len in ("0", "2"):
        assert invoke("basis", max_len, "--budget", "-1", "--input", fx("e2loops.wg")) == (
            1, "", "error: budget must be >= 0\n")


def test_cli_huge_length_on_finitely_many_nod_words():
    # the default budget is charged only for lengths that hold a nod-word
    assert invoke("basis", "1000000000", "--input", "-", stdin_text="vertex v\n") == (
        0, "v\n", "")
    # a table walks to the longest nod-word and repeats the last total after it
    text = "vertex u\nvertex v\nedge e u v 2\n"
    algebra = Algebra(parse_weighted_graph(text))
    for command, count in (("growth", algebra.growth),
                           ("zero-dim", algebra.zero_component_count)):
        code, out, _ = invoke(command, "6", "--input", "-", stdin_text=text)
        assert code == 0
        assert out == "".join(f"{n}\t{count(n)}\n" for n in range(7))


@pytest.mark.parametrize("command", ["growth", "zero-dim"])
def test_cli_table_walks_once(monkeypatch, command):
    calls = dict.fromkeys(["nodword_counts", "growth", "zero_component_count"], 0)
    for name in calls:
        def counted(self, *args, _name=name, _method=getattr(Algebra, name), **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(Algebra, name, counted)
    code, out, _ = invoke(command, "--input", fx("e2loops.wg"), "12")
    assert code == 0 and len(out.splitlines()) == 13
    assert calls == {"nodword_counts": 1, "growth": 0, "zero_component_count": 0}


@st.composite
def _small_graph_texts(draw):
    nv = draw(st.integers(0, 4))
    lines = [f"vertex v{i}" for i in range(nv)]
    if nv:
        ends = st.integers(0, nv - 1)
        edges = draw(st.lists(st.tuples(ends, ends, st.integers(1, 3)), max_size=5))
        lines += [f"edge e{k} v{s} v{r} {w}" for k, (s, r, w) in enumerate(edges)]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, database=None)
@given(_small_graph_texts(), st.sampled_from(["growth", "zero-dim", "basis"]),
       st.integers(-2, 5), st.none() | st.integers(0, 200))
def test_cli_tables_are_total_and_count_built_words(text, command, max_len, budget):
    alg = Algebra(parse_weighted_graph(text))
    # bounds the words built below without reading any nod-word counter
    small = len(alg.nonvertex_generators()) ** max(max_len, 0) <= 20_000
    argv = [command, str(max_len), "--input", "-"]
    if command == "basis":
        if budget is None:
            assume(small)  # under the default budget every word would be built
        else:
            argv += ["--budget", str(budget)]
    code, out, err = invoke(*argv, stdin_text=text)
    assert code in (0, 1) and "Traceback" not in err
    if max_len < 0:
        assert (code, out, err) == (1, "", "error: max_len must be >= 0\n")
        return
    if not small:
        return
    words = alg.enumerate_nodwords(max_len)
    if command == "basis":
        assert (code == 1) == (len(words) > (10**5 if budget is None else budget))
        return
    zero = (0,) * alg.grading_length
    lengths = [0 if w[0].kind == "vertex" else len(w) for w in words
               if command == "growth" or word_degree(alg, w) == zero]
    assert code == 0
    assert out.splitlines() == [f"{n}\t{sum(k <= n for k in lengths)}"
                                for n in range(max_len + 1)]


_TOTALITY_FIELDS = ["rational", "mod:2", "mod:7", "mod:2305843009213693951"]
_EXPR_TOKENS = ["v0", "v1", "e0.1", "e0.2*", "e1.1*", "e2.1", "+", "-", "1/2 *", "3 *",
                "(", ")"]


@settings(max_examples=120, deadline=None, database=None)
@given(_small_graph_texts(), st.sampled_from(_TOTALITY_FIELDS),
       st.lists(st.sampled_from(_EXPR_TOKENS), min_size=1, max_size=8).map(" ".join))
def test_cli_other_commands_are_total(text, field, expression):
    results = {}
    for argv in (["validate"], ["check-lpa"], ["witness"], ["eval", expression],
                 ["transform", "--verify"]):
        code, out, err = invoke(*argv, "--input", "-", "--field", field, stdin_text=text)
        assert code in (0, 1, 3) and "Traceback" not in err, (argv, code, err)
        results[argv[0]] = code, out
    if results["check-lpa"][0] == 0:
        code, out = results["transform"]
        assert code == 0 and "# verify: ok" in out


def test_cli_transform_violated():
    code, out, _ = invoke("transform", "--input", fx("e2loops.wg"))
    assert code == 3 and "LPA2" in out


def test_cli_transform_verify_exit():
    code, out, _ = invoke("transform", "--input", fx("fork.wg"), "--verify")
    assert code == 0 and "# verify: ok" in out


def test_cli_transform_verify_failure_exits_1(monkeypatch):
    # the forward image of the first letter doubled: v v = v no longer holds
    def doubled_family_maps(trace, field):
        fwd, bwd = family_maps(trace, field=field)
        images = ({w: 2 * c for w, c in fwd.images[0].items()},) + fwd.images[1:]
        return fwd._replace(images=images), bwd

    # the command reads the package's name, so the package is where to replace it
    monkeypatch.setattr(wlpa, "family_maps", doubled_family_maps)
    argv = ("transform", "--verify", "--input", fx("fork.wg"))
    code, out, err = invoke(*argv)
    assert (code, err) == (1, "family verification failed\n")
    assert "# verify: FAILED\n" in out
    code, out, err = invoke(*argv, "--format", "machine")
    assert (code, err) == (1, "family verification failed\n")
    verify = json.loads(out)["verify"]
    assert verify["ok"] is False
    assert {"forward (i) u u", "roundtrip source u", "roundtrip target u"} <= set(verify["failures"])


@pytest.mark.parametrize("name", ["g6.wg", "fork.wg"])
def test_cli_transform_verify_mod_field(name):
    verified = {}
    for field in ("rational", "mod:7"):
        code, out, _ = invoke("transform", "--verify", "--field", field,
                              "--input", fx(name), "--format", "machine")
        assert code == 0
        verified[field] = json.loads(out)["verify"]
        assert verified[field]["ok"] and verified[field]["failures"] == []
    assert verified["mod:7"]["counts"] == verified["rational"]["counts"]


@pytest.mark.parametrize("text, vertices, count", [("", [], 0), ("vertex a\n", ["a"], 1)])
def test_cli_transform_verify_edge_graphs(text, vertices, count):
    # no letters, or one vertex letter: each map is an empty or one-entry table
    argv = ("transform", "--verify", "--field", "mod:7", "--input", "-")
    graph_text = "".join(f"vertex {v}\n" for v in vertices)
    counts = ["backward_relations", "forward_relations", "roundtrip_source", "roundtrip_target"]
    assert invoke(*argv, stdin_text=text) == (0, (
        "# stage 1\n# Z: \n# gv: \n" + (graph_text or "\n") + "# stage 2\n"
        + (graph_text or "\n") + "# verify: ok\n"
        + "".join(f"# {key}: {count}\n" for key in counts)), "")
    code, out, err = invoke(*argv, "--format", "machine", stdin_text=text)
    graph = {"vertices": vertices, "edges": []}
    assert (code, json.loads(out), err) == (0, {
        "command": "transform", "satisfied": True, "stage1": graph, "stage2": graph,
        "trace": {"Z": [], "gv": {}},
        "verify": {"ok": True, "failures": [], "counts": {
            "forward_relations": count, "backward_relations": count,
            "roundtrip_source": count, "roundtrip_target": count}}}, "")


@pytest.mark.parametrize("name, codes", [("g6.wg", (0, 3, 0)), ("fan3.wg", (3, 0, 3))])
def test_cli_searches_the_zone_once_per_question(monkeypatch, name, codes):
    # searches rooted at all the weighted ranges, tree's included, since it
    # searches through graphs.breadth_first: the one that decides (LPA), and
    # in transform the trace's Z, or on fan3 (LPA3 only, an acyclic zone) the
    # decision of the report; the per-edge searches of a report are not counted
    from wlpa import graphs

    ranges = [e.range for e in parse_weighted_graph(Path(fx(name)).read_text()).edges
              if e.weight > 1]
    original = graphs.breadth_first
    searches = 0

    def counted(g, roots):
        nonlocal searches
        roots = list(roots)
        searches += roots == ranges
        return original(g, roots)

    monkeypatch.setattr(graphs, "breadth_first", counted)
    monkeypatch.setattr(lpa_module, "breadth_first", counted)
    for argv, code, expected in zip((["check-lpa"], ["witness"], ["transform", "--verify"]),
                                    codes, (1, 1, 2)):
        searches = 0
        assert invoke(*argv, "--input", fx(name))[0] == code
        assert searches == expected, argv


def test_cli_check_lpa_long_satisfying_ring():
    text = serialize_weighted_graph(weighted_ring(1200, {5: 2, 400: 3, 801: 2}))
    code, out, err = invoke("check-lpa", "--input", "-", stdin_text=text)
    assert (code, out, err) == (0, "satisfied\n", "")


def test_cli_entered_ring_reports_one_lpa4_site():
    # one cycle of 10^4 vertices, entered from outside by a weight-2 edge
    ring = weighted_ring(10_000, {})
    g = WeightedGraph(ring.vertices + ("u",),
                      ring.edges + (EdgeRecord("h", "u", "v0", 2),))
    text = serialize_weighted_graph(g)
    for command in ("check-lpa", "transform"):
        code, out, err = invoke(command, "--input", "-", "--format", "machine",
                                stdin_text=text)
        assert (code, err) == (3, "")
        violations = json.loads(out)["violations"]
        assert [(v["kind"], v["weighted_edge"], v["path"], len(v["cycle"]))
                for v in violations] == [("LPA4", "h", [], 10_000)]
    code, out, err = invoke("witness", "--input", "-", stdin_text=text)
    assert (code, err) == (0, "")
    assert out.split() == ["h.2"] + [f"e{i}.1" for i in range(10_000)] + ["h.2*"]


@pytest.mark.parametrize("command", ["growth", "zero-dim", "basis"])
def test_cli_negative_table_length_rejected(command):
    code, out, err = invoke(command, "--input", fx("loop1.wg"), "-5")
    assert (code, out, err) == (1, "", "error: max_len must be >= 0\n")


def test_cli_counts_read_as_ascii_digits():
    # lengths and budgets are read by graphs.parse_natural, as every number from the input
    for text in ("1_0", "+3", "\u0663", " 2", "2 ", "--1", "-", ""):
        error = f"error: argument {{}}: not a number in ASCII digits: {text!r}\n"
        for command in ("growth", "zero-dim", "basis"):
            assert invoke(command, "--input", fx("loop1.wg"), "--", text) == (
                1, "", error.format("max_len"))
        assert invoke("basis", "--input", fx("loop1.wg"), f"--budget={text}", "2") == (
            1, "", error.format("--budget"))
    assert invoke("growth", "--input", fx("loop1.wg"), "002") == (0, "0\t1\n1\t3\n2\t5\n", "")


@pytest.mark.parametrize("option", ["--source", "--range"])
def test_cli_basis_unknown_vertex_rejected(option):
    code, out, err = invoke("basis", "--input", fx("loop1.wg"), "2", option, "nosuch")
    assert (code, out) == (1, "") and "nosuch" in err


def test_cli_eval_nesting_bounded():
    code, out, err = invoke("eval", "--input", fx("loop1.wg"), "(" * 3000 + "v" + ")" * 3000)
    assert (code, out) == (1, "") and "nest" in err and "Traceback" not in err
    flat = invoke("eval", "--input", fx("loop1.wg"), "a.1 a.1 + 2*v")
    nested = invoke("eval", "--input", fx("loop1.wg"), "(" * 50 + "a.1 a.1 + 2*v" + ")" * 50)
    assert nested == flat and flat[0] == 0


@pytest.mark.parametrize("error", [RecursionError("maximum recursion depth exceeded"),
                                   MemoryError()])
def test_cli_last_resort_guard(monkeypatch, error):
    def exhausted(graph):
        raise error

    monkeypatch.setattr(wlpa, "check_lpa", exhausted)
    code, out, err = invoke("check-lpa", "--input", fx("g6.wg"))
    detail = f": {error}" if str(error) else ""
    assert (code, out) == (1, "")
    assert err == f"error: resource limit reached ({type(error).__name__}{detail})\n"


@pytest.mark.parametrize("command", ["growth", "zero-dim"])
def test_cli_table_longer_than_an_index_reaches_the_guard(command):
    # a lone vertex has no nod-word of length 1, so the table is padded to
    # 2**63 + 1 rows, a length no list can have: it fails before allocating
    code, out, err = invoke(command, "--input", "-", str(2**63), stdin_text="vertex v\n")
    assert (code, out) == (1, "")
    assert err == ("error: resource limit reached (OverflowError: "
                   "cannot fit 'int' into an index-sized integer)\n")


def test_cli_fixed_inputs_do_not_reach_the_guard():
    deep = "(" * 3000 + "v" + ")" * 3000
    assert invoke("eval", "--input", fx("loop1.wg"), deep) == (
        1, "", "error: parentheses nest deeper than 100\n")
    ring = weighted_ring(10_000, {})
    g = WeightedGraph(ring.vertices + ("u",),
                      ring.edges + (EdgeRecord("h", "u", "v0", 2),))
    code, out, err = invoke("check-lpa", "--input", "-",
                            stdin_text=serialize_weighted_graph(g))
    assert (code, err) == (3, "") and out.startswith("LPA4: cycle e0 e1 ")


def test_cli_special_override():
    code, out, _ = invoke(
        "basis", "--input", fx("l23.wg"), "1", "--special", "v=e2"
    )
    assert code == 0
    code, _, err = invoke(
        "basis", "--input", fx("e2loops.wg"), "1", "--special", "v=a"
    )
    assert code == 1 and "maximal" in err
    code, _, err = invoke(
        "basis", "--input", fx("e2loops.wg"), "1", "--special", "w=a"
    )
    assert code == 1
    # witness of a satisfying graph builds no algebra, yet the choice is checked
    code, _, err = invoke("witness", "--input", fx("fork.wg"), "--special", "u=a")
    assert code == 1 and "maximal" in err


@pytest.mark.parametrize("entry,message", [
    # an entry with an empty side is malformed
    ("=b", "bad --special entry '=b'; expected vertex=edge"),
    ("v=", "bad --special entry 'v='; expected vertex=edge"),
    ("=", "bad --special entry '='; expected vertex=edge"),
    ("v =", "bad --special entry 'v ='; expected vertex=edge"),
    ("x=b", "--special names sinks or unknown vertices: x"),
])
def test_cli_special_entry_errors(entry, message):
    code, out, err = invoke("growth", "2", "--input", fx("e2loops.wg"), "--special", entry)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("spec", ["v=a,v=b", "v=b,v=a", "v=b,v=b"])
def test_cli_special_names_each_vertex_once(spec):
    # neither entry wins, whichever comes last and whether or not they agree
    assert invoke("growth", "3", "--input", fx("e2loops.wg"), "--special", spec) == (
        1, "", "error: --special names vertex 'v' twice\n")


def test_cli_special_sides_are_stripped():
    expected = (FIXTURES / "growth_e2loops.txt").read_text()
    for spec in (" v = b ", "v=b", " v=b ,"):
        assert invoke("growth", "6", "--input", fx("e2loops.wg"), "--special", spec) == \
            (0, expected, "")


@pytest.mark.parametrize("argv,code,builds", [
    (["growth", "2", "--input", fx("e2loops.wg"), "--special", "v=b"], 0, 1),
    (["witness", "--input", fx("e2loops.wg"), "--special", "v=b"], 0, 0),  # fails (LPA)
    (["witness", "--input", fx("fork.wg"), "--special", "u=b"], 3, 0),  # satisfies (LPA)
], ids=["growth", "witness-failing", "witness-satisfying"])
def test_cli_checks_a_special_choice_once(monkeypatch, argv, code, builds):
    checked, built = [], []
    check, build = algebra_module.validate_choice, algebra_module.Algebra.__init__
    monkeypatch.setattr(algebra_module, "validate_choice",
                        lambda g, c: checked.append(c) or check(g, c))
    monkeypatch.setattr(lpa_module, "validate_choice",
                        lambda g, c: checked.append(c) or check(g, c))
    monkeypatch.setattr(algebra_module.Algebra, "__init__",
                        lambda self, *args: built.append(args) or build(self, *args))
    assert invoke(*argv)[0] == code
    assert len(checked) == 1 and len(built) == builds


@pytest.mark.parametrize("command", [["validate"], ["check-lpa"], ["transform", "--verify"]])
def test_cli_special_rejected_where_unused(command):
    code, out, err = invoke(*command, "--input", fx("fork.wg"), "--special", "u=b")
    assert code == 1 and out == "" and "--special" in err


def test_cli_special_changes_normal_form():
    _, default_out, _ = invoke("eval", "--input", fx("l23.wg"), "e1.1 e1.2*")
    _, other_out, _ = invoke(
        "eval", "--input", fx("l23.wg"), "--special", "v=e2", "e1.1 e1.2*"
    )
    assert default_out != other_out


@pytest.mark.parametrize("spec", ["mod:\u0667", "mod:1_1", "mod:+7", "mod: 7", "mod:\uff17"])
def test_cli_field_modulus_is_ascii_digits(spec):
    # int() would read these as 7, 11, 7, 7 and 7
    code, out, err = invoke("eval", "--input", fx("loop1.wg"), "--field", spec, "v")
    assert (code, out, err) == (1, "", f"error: bad field spec {spec!r}\n")


def test_cli_usage_errors():
    code, _, err = invoke("frobnicate", "--input", fx("g6.wg"))
    assert code == 1
    code, _, err = invoke("check-lpa")
    assert code == 1


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: wlpa [-h]"),
    (["eval", "--help"], "usage: wlpa eval [-h]"),
    (["transform", "-h", "--input", "x"], "usage: wlpa transform [-h]"),
])
def test_cli_help_goes_to_the_given_stdout(argv, usage, capsys):
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert out.startswith(usage) and out.endswith("\n")
    assert capsys.readouterr() == ("", "")


def test_cli_main_prints_help_and_exits_zero(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["wlpa", "eval", "--help"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: wlpa eval [-h]") and err == ""


# -- golden files: machine format, text format for .txt --------------------

_L23_EXPRESSION = "e2.1 e1.1 e1.1* e2.1* - e1.1* e1.1 e1.2* + 3 * e3.1* e3.1 e1.2 e1.1*"
_NESTED_EXPRESSION = "2 * (h^(1))^(12) + ((e^(3))^(10))^(2).2* ((e^(3))^(10))^(2).2"


@pytest.mark.parametrize(
    "golden, argv, expected_code",
    [
        ("checklpa_e2loops.json",
         ["check-lpa", "--input", fx("e2loops.wg"), "--format", "machine"], 3),
        ("transform_g6.json",
         ["transform", "--input", fx("g6.wg"), "--verify", "--format", "machine"], 0),
        ("eval_loop1.json",
         ["eval", "--input", fx("loop1.wg"), "--format", "machine", "a.1* a.1"], 0),
        ("witness_e2loops.json",
         ["witness", "--input", fx("e2loops.wg"), "--format", "machine"], 0),
        ("checklpa_lpa_all.json",
         ["check-lpa", "--input", fx("lpa_all.wg"), "--format", "machine"], 3),
        # mod 7 the v terms cancel (-1 + 1/2 - 3 = -7/2) and -1/2 wraps to 3
        ("eval_e2loops_mod7.json",
         ["eval", "--input", fx("e2loops.wg"), "--field", "mod:7", "--format", "machine",
          "-b.2 b.2* + 1/2 * b.1* b.1 - 3 * v"], 0),
        ("eval_e2loops_mod7.txt",
         ["eval", "--input", fx("e2loops.wg"), "--field", "mod:7",
          "-b.2 b.2* + 1/2 * b.1* b.1 - 3 * v"], 0),
        ("growth_e2loops.txt", ["growth", "6", "--input", fx("e2loops.wg")], 0),
        ("zerodim_l23.txt", ["zero-dim", "4", "--input", fx("l23.wg")], 0),
        ("basis_l23_special.txt",
         ["basis", "2", "--input", fx("l23.wg"), "--special", "v=e2"], 0),
        # stage 2 holds all six cases and the nested name (h^(1))^(2)
        ("transform_g6.txt", ["transform", "--verify", "--input", fx("g6.wg")], 0),
        # (iii) rules with other pairs, (iv) rules whose special edge is last
        # in its out-list, and a vertex absorbed between letters
        ("eval_l23_special.txt",
         ["eval", "--input", fx("l23.wg"), "--special", "v=e3", _L23_EXPRESSION], 0),
        ("eval_l23_mod5.json",
         ["eval", "--input", fx("l23.wg"), "--field", "mod:5", "--format", "machine",
          _L23_EXPRESSION], 0),
        # in-line pairs, a closed cyclic terminal, and weighted edges on
        # cycles of their own range trees
        ("checklpa_lpa_fan.json",
         ["check-lpa", "--input", fx("lpa_fan.wg"), "--format", "machine"], 3),
        # LPA3 only with an acyclic zone: the word comes from the nod-word search
        ("witness_fan3.json",
         ["witness", "--input", fx("fan3.wg"), "--format", "machine"], 0),
        # the first LPA4 site: the loop l, and the terminal cycle t3 t4
        ("witness_lpa_all.json",
         ["witness", "--input", fx("lpa_all.wg"), "--format", "machine"], 0),
        ("witness_lpa_fan.json",
         ["witness", "--input", fx("lpa_fan.wg"), "--format", "machine"], 0),
        ("basis_l23_special.json",
         ["basis", "2", "--input", fx("l23.wg"), "--special", "v=e2", "--format", "machine"], 0),
        # a vertex and a weight-2 edge whose names nest
        ("eval_nested.txt", ["eval", "--input", fx("nested.wg"), _NESTED_EXPRESSION], 0),
        # the nod-word search follows --special: e1.2 e1.2* is a nod-word
        # unless e1 is the special edge at v1
        ("witness_lpa1_loop_e1.json",
         ["witness", "--input", fx("lpa1_loop.wg"), "--special", "v1=e1", "--format",
          "machine"], 0),
        ("witness_lpa1_loop_e2.json",
         ["witness", "--input", fx("lpa1_loop.wg"), "--special", "v1=e2", "--format",
          "machine"], 0),
    ],
)
def test_cli_machine_golden(golden, argv, expected_code):
    code, out, _ = invoke(*argv)
    assert code == expected_code
    assert out == (FIXTURES / golden).read_text()
    if golden.endswith(".json"):
        json.loads(out)  # well-formed


def test_cli_basis_rejects_a_special_edge_of_less_than_maximal_weight():
    code, out, err = invoke("basis", "1", "--input", fx("e2loops.wg"), "--special", "v=a")
    assert (code, out) == (1, "")
    assert err == "error: special edge 'a' has weight 1, not the maximal weight 2 at 'v'\n"


def test_cli_transform_machine_payload():
    code, out, _ = invoke(
        "transform", "--input", fx("fork.wg"), "--format", "machine"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"] == {"Z": ["v3"], "gv": {"v3": "b"}}
    assert [e["id"] for e in payload["stage2"]["edges"]] == ["a", "b^(1)", "b^(2)"]
