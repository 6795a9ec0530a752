"""Dependency pairs, the approximated call graph, and the decrease criterion."""
from __future__ import annotations

import importlib.util
import sys

import pytest

from treeterm import analysis
from treeterm.analysis import (
    NONE,
    STRICT,
    WEAK,
    DependencyGraph,
    DependencyPair,
    build_graph,
    check_criterion,
    check_scc,
    decrease,
    extract_dps,
    find_cycle,
    find_indices,
    is_nontrivial,
    pattern_unifiable,
    sccs,
)
from treeterm.report import build_report, dp_label, failure_message, to_dot, verdict_lines
from treeterm.syntax import parse_pattern, parse_system, print_pattern
from treeterm.terms import pattern_subst
from treeterm.typecheck import validate_system
from conftest import APP_PATH, FGIH_PATH, SYSTEMS, load_validated
from helpers import (
    all_weak_text,
    clique_text,
    deep_pattern_text,
    embeds_strict,
    embeds_weak,
    graph_from_edges,
    reference_edges,
    reference_extract_dps,
    reference_find_indices,
    ring_text,
    successors,
    unify_patterns,
    wide_text,
)


def pat(text: str):
    return parse_pattern(text)


def system(text: str):
    validated = validate_system(parse_system(text))
    assert not isinstance(validated, list), validated
    return validated


# ---------------------------------------------------------------------------
# Dependency pair extraction

def test_app_dependency_pairs(app_validated):
    dps = extract_dps(app_validated)
    assert [dp_label(d) for d in dps] == [
        "f♯ -> app♯(node(leaf,leaf),leaf)",
        "f♯ -> g♯(node(leaf,leaf))",
        "g♯(leaf) -> f♯",
    ]
    assert [d.rule_index for d in dps] == [1, 1, 3]


def test_fgih_dependency_pairs(fgih_validated):
    dps = extract_dps(fgih_validated)
    assert [dp_label(d) for d in dps] == [
        "f♯(node(a,b)) -> g♯(node(a,b))",
        "f♯(node(a,b)) -> i♯(node(a,b))",
        "g♯(node(a,b)) -> f♯(a)",
        "g♯(node(a,b)) -> i♯(a)",
        "g♯(leaf) -> f♯(bot)",
        "g♯(leaf) -> h♯(leaf)",
        "i♯(node(a,b)) -> i♯(a)",
        "i♯(node(a,b)) -> i♯(b)",
        "h♯(node(a,b)) -> h♯(a)",
    ]
    assert [d.rule_index for d in dps] == [0, 0, 1, 1, 2, 2, 3, 3, 5]


def test_duplicate_call_sites_collapse():
    vs = system(
        "symbol f : forall a. B(a) -> B(a) recursive 1;\n"
        "symbol g : forall a. B(a) -> B(a) recursive 1;\n"
        "rule f[a] x -> g[a] (g[a] x);\n"
    )
    assert [dp_label(d) for d in extract_dps(vs)] == ["f♯(a) -> g♯(a)"]


def test_canonical_renaming_ignores_source_names():
    vs1 = system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[node(a,b)] (Node x y) -> f[a] x;\n"
    )
    vs2 = system(
        "symbol f : forall p. B(p) -> B(leaf) recursive 1;\n"
        "rule f[node(q,r)] (Node x y) -> f[q] x;\n"
    )
    assert extract_dps(vs1) == extract_dps(vs2)


def same_objects(xs, ys) -> bool:
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


def test_canonical_rules_keep_their_own_patterns():
    """A rule whose variables are already named `a, b, ...` in order of first
    occurrence, as every ring and clique rule is, gives pairs holding its own
    pattern objects; a rule named otherwise gives equal pairs of new ones."""
    written = system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[node(a,b)] (Node x y) -> f[a] x;\n"
    )
    renamed = system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[node(b,a)] (Node x y) -> f[b] x;\n"
    )
    assert extract_dps(written) == extract_dps(renamed)
    for vs, kept in ((written, True), (renamed, False), (system(ring_text(5)), True),
                     (system(clique_text(4)), True)):
        rules = {vr.index: vr for vr in vs.rules}
        for dp in extract_dps(vs):
            vr = rules[dp.rule_index]
            assert same_objects(dp.lhs_args, vr.recursive_patterns) is kept
            assert any(same_objects(dp.rhs_args, args) for _, args in vr.call_sites) is kept


PERFBENCH = SYSTEMS.parent / "perfbench"


def perfbench_texts(workload: str, monkeypatch) -> list[str]:
    """The system texts of the seed-1 ops of a perfbench check workload."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up here
    spec.loader.exec_module(workloads)
    return [op.text for op in workloads.build(workload, 1)[0]]


@pytest.mark.parametrize("source", ["systems", "perfbench-ring", "perfbench-clique", "perfbench-wide"])
def test_extract_dps_matches_the_full_renaming(source, monkeypatch):
    """Keeping already-canonical patterns as written changes no pair, no
    pair's order and no rule index."""
    texts = ([path.read_text(encoding="utf-8") for path in sorted(SYSTEMS.glob("*.trs"))
              if path.stem != "nonminimal"] if source == "systems"
             else perfbench_texts(source.removeprefix("perfbench-"), monkeypatch))
    for text in texts:
        vs = system(text)
        got, want = extract_dps(vs), reference_extract_dps(vs)
        assert got == want
        assert [dp.rule_index for dp in got] == [dp.rule_index for dp in want]


def test_rule_index_does_not_affect_equality():
    a = DependencyPair("f", (pat("a"),), "g", (pat("a"),), rule_index=0)
    b = DependencyPair("f", (pat("a"),), "g", (pat("a"),), rule_index=7)
    assert a == b
    assert len({a, b}) == 1


# ---------------------------------------------------------------------------
# Unification

@pytest.mark.parametrize(
    "p,q,ok",
    [
        ("leaf", "leaf", True),
        ("leaf", "bot", False),
        ("bot", "bot", True),
        ("node(a,leaf)", "node(leaf,b)", True),
        ("node(leaf,leaf)", "leaf", False),
        ("a", "node(b,leaf)", True),
        ("a", "node(a,leaf)", False),  # occurs check
        ("node(a,a)", "node(leaf,bot)", False),
        ("bot", "node(a,b)", False),
    ],
)
def test_unify_patterns_table(p, q, ok):
    got = unify_patterns(pat(p), pat(q))
    assert (got is not None) is ok


def test_unify_produces_common_instance():
    p, q = pat("node(a,leaf)"), pat("node(node(b,c),b)")
    subst = unify_patterns(p, q)
    assert subst is not None
    assert pattern_subst(p, subst) == pattern_subst(q, subst)
    assert print_pattern(pattern_subst(p, subst)) == "node(node(leaf,c),leaf)"


def test_unify_is_idempotent():
    subst = unify_patterns(pat("node(a,b)"), pat("node(b,leaf)"))
    assert subst is not None
    for value in subst.values():
        assert pattern_subst(value, subst) == value


def test_unify_rejects_wildcards():
    with pytest.raises(ValueError):
        unify_patterns(pat("_"), pat("leaf"))
    with pytest.raises(ValueError):
        unify_patterns(pat("leaf"), pat("node(_,a)"))


@pytest.mark.parametrize(
    "p,q,ok",
    [
        ("node(a,a)", "node(leaf,bot)", True),  # renamed apart and linearised
        ("a", "a", True),
        ("bot", "node(a,b)", False),
        ("_", "leaf", True),
        ("node(_,_)", "node(leaf,leaf)", True),
        ("leaf", "bot", False),
        ("node(leaf,a)", "node(b,bot)", True),
    ],
)
def test_pattern_unifiable_table(p, q, ok):
    assert pattern_unifiable(pat(p), pat(q)) is ok


# ---------------------------------------------------------------------------
# Graph construction

def test_app_graph_edges(app_validated):
    g = build_graph(extract_dps(app_validated))
    assert sorted(g.edges) == [(2, 0), (2, 1)]
    assert g.adjacency[2] == (0, 1)
    assert g.adjacency[0] == ()


def test_fgih_graph_edges(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    assert sorted(g.edges) == [
        (0, 2), (0, 3), (1, 6), (1, 7), (2, 0), (2, 1),
        (3, 6), (3, 7), (6, 6), (6, 7), (7, 6), (7, 7), (8, 8),
    ]


EDGE_MIX = SYSTEMS / "edge-mix.trs"


def test_non_recursive_call_patterns_do_not_block_edges():
    vs = load_validated(EDGE_MIX)
    dps = extract_dps(vs)
    assert [dp_label(d) for d in dps] == [
        "f♯(a) -> g♯(a,leaf)",
        "g♯(node(a,b)) -> f♯(a)",
    ]
    # the g call carries both of g's patterns, while g's own pair keeps only
    # its one recursive position: the second pattern does not constrain it
    assert sorted(build_graph(dps).edges) == [(0, 1), (1, 0)]
    verdict = check_criterion(vs)
    assert verdict.terminating
    assert verdict_lines("mix", vs.system, verdict)[4:] == [
        "  SCC {0, 1}: ι[f]=1, ι[g]=1; strict: [1]; weak: [0]",
    ]


def test_edge_requires_matching_symbol():
    vs = system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "symbol g : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> g[a] x;\n"
    )
    g = build_graph(extract_dps(vs))
    assert sorted(g.edges) == []


# g's pairs fall into two pattern groups, {0, 2} and {1, 3}; the f pair
# unifies with both, so its successors (0, 1, 2, 3) merge the two.
INTERLEAVED_GROUPS = """\
symbol f : forall a. B(a) -> B(_) recursive 1;
symbol g : forall a. B(a) -> B(_) recursive 1;
rule g[node(a,b)] (Node[a,b] x y) -> f[a] x;
rule g[leaf] Leaf -> f[leaf] Leaf;
rule g[node(a,b)] (Node[a,b] x y) -> f[b] y;
rule g[leaf] Leaf -> g[leaf] Leaf;
rule f[a] x -> g[a] x;
"""


@pytest.mark.parametrize("vs", [
    pytest.param(load_validated(APP_PATH), id="app"),
    pytest.param(load_validated(FGIH_PATH), id="fgih"),
    pytest.param(load_validated(EDGE_MIX), id="arity-mismatch"),
    pytest.param(system(clique_text(6)), id="clique-6"),
    pytest.param(system(wide_text(5, 3)), id="wide-5x3"),
    pytest.param(system(wide_text(4, 1)), id="wide-4x1"),
    pytest.param(system(ring_text(7)), id="ring-7"),
    pytest.param(system(INTERLEAVED_GROUPS), id="interleaved-groups"),
])
def test_bucketed_edges_match_all_pairs(vs):
    dps = extract_dps(vs)
    assert build_graph(dps).edges == reference_edges(dps)


def test_build_graph_tests_each_callee_pattern_group_once(monkeypatch):
    """The 20 pairs of a clique-20 symbol share their patterns, so each of the
    400 pairs is tested once, not once per pair of its callee (8000)."""
    dps = extract_dps(system(clique_text(20)))
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return pattern_unifiable(p, q)

    monkeypatch.setattr(analysis, "pattern_unifiable", counting)
    g = build_graph(dps)
    assert len(calls) == 400
    assert len(g.edges) == 8000
    assert g.edges == reference_edges(dps)


def test_adjacency_is_sorted_and_built_once(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    assert g.adjacency is g.adjacency
    assert all(list(s) == sorted(s) for s in g.adjacency)
    assert sorted((a, b) for a, succ in enumerate(g.adjacency) for b in succ) == sorted(g.edges)


@pytest.mark.parametrize("vs", [
    *(pytest.param(load_validated(path), id=path.stem) for path in sorted(SYSTEMS.glob("*.trs"))
      if path.stem != "nonminimal"),
    pytest.param(system(clique_text(8)), id="clique-8"),
    pytest.param(system(clique_text(6, frozenset({(1, 4), (4, 2), (2, 1)}))), id="clique-6-cycle3"),
    pytest.param(system(clique_text(7, frozenset({(0, 3), (3, 5), (0, 6), (2, 3)}))), id="clique-7-dag4"),
    pytest.param(system(INTERLEAVED_GROUPS), id="interleaved-groups"),
])
def test_adjacency_lists_the_edges_in_sorted_order(vs):
    """The DOT file and the JSON report read their edges from `adjacency`."""
    verdict = check_criterion(vs)
    edges = sorted(verdict.graph.edges)
    assert [(a, b) for a, succ in enumerate(verdict.graph.adjacency) for b in succ] == edges
    assert build_report("x", "unknown", verdict=verdict)["edges"] == [[a, b] for a, b in edges]
    dot_edges = [line for line in to_dot(verdict).splitlines() if line.startswith("  n") and "[" not in line]
    assert dot_edges == [f"  n{a} -> n{b};" for a, b in edges]


# ---------------------------------------------------------------------------
# Strongly connected components

def test_app_sccs_all_trivial(app_validated):
    g = build_graph(extract_dps(app_validated))
    comps = sccs(g)
    assert comps == [(0,), (1,), (2,)]
    assert not any(is_nontrivial(c, g) for c in comps)


def test_fgih_sccs(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    comps = sccs(g)
    assert comps == [(0, 2), (1,), (3,), (4,), (5,), (6, 7), (8,)]
    assert [c for c in comps if is_nontrivial(c, g)] == [(0, 2), (6, 7), (8,)]


def test_single_node_with_self_loop_is_nontrivial():
    g = graph_from_edges((DependencyPair("f", (), "f", ()),), frozenset({(0, 0)}))
    assert sccs(g) == [(0,)]
    assert is_nontrivial((0,), g)


DEEP = 20_000


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_sccs_on_deep_graphs_do_not_recurse(closed):
    nodes = (DependencyPair("f", (), "f", ()),) * DEEP
    edges = {(i, i + 1) for i in range(DEEP - 1)} | ({(DEEP - 1, 0)} if closed else set())
    comps = sccs(graph_from_edges(nodes, frozenset(edges)))
    assert comps == ([tuple(range(DEEP))] if closed else [(i,) for i in range(DEEP)])


def test_scc_work_is_quadratic_in_the_clique_size():
    # clique-n has n^2 pairs and n^3 edges, but `build_graph` hands every
    # caller of fj the one tuple of fj's pairs, and `sccs` walks each of the
    # n shared tuples once.  The successor entries it reads, counted on the
    # iterators of the graph's tuples, grow as n^2: doubling n gives ×4,
    # bounded at ×4.5, where reading every edge gives ×8.
    reads = []

    class Counted(tuple):
        def __iter__(self):
            for w in tuple.__iter__(self):
                reads.append(w)
                yield w

    work = {}
    for n in (10, 20):
        g = build_graph(extract_dps(system(clique_text(n))))
        counted = {id(succ): Counted(succ) for succ in g.adjacency}
        reads.clear()
        assert sccs(DependencyGraph(g.nodes, tuple(counted[id(s)] for s in g.adjacency))) == [
            tuple(range(n * n))]
        work[n] = len(reads)
    assert work[10] > 0
    assert work[20] <= 4.5 * work[10]


# ---------------------------------------------------------------------------
# Pattern embedding

@pytest.mark.parametrize(
    "p,q,strict,weak",
    [
        ("leaf", "leaf", False, True),
        ("a", "a", False, True),
        ("a", "b", False, False),
        ("node(a,b)", "node(a,b)", False, True),
        ("node(leaf,leaf)", "leaf", True, True),
        ("node(a,b)", "a", True, True),
        ("node(a,b)", "b", True, True),
        ("node(node(leaf,leaf),leaf)", "node(leaf,leaf)", True, True),
        ("node(bot,leaf)", "bot", True, True),
        ("leaf", "node(leaf,leaf)", False, False),
        ("a", "node(a,b)", False, False),
        ("bot", "bot", False, True),
        ("node(_,leaf)", "leaf", False, False),  # wildcards block embedding
        ("node(leaf,leaf)", "_", False, False),
        ("_", "_", False, True),  # plain equality still holds weakly
    ],
)
def test_pattern_embedding_table(p, q, strict, weak):
    assert embeds_strict(pat(p), pat(q)) is strict
    assert embeds_weak(pat(p), pat(q)) is weak
    assert decrease(pat(p), pat(q)) == (STRICT if strict else WEAK if weak else NONE)


def test_decrease_work_is_quadratic_in_the_pattern_depth(monkeypatch):
    # The recursive definition revisits the same subterm pairs, about 3^d
    # calls for two spines of depth d: `check` took 1.5 s on
    # deep-pattern-12 and 9.3 s on deep-pattern-14.  `decrease` lists the subterms of both
    # patterns once and fills one table cell per pair of them, so the cells
    # count its work; a pattern against a variable, leaf or bot is a walk
    # of the pattern alone.  Doubling d doubles both lists: ×4, bounded at
    # ×4.5.
    cells = []

    def listing(p):
        out = subterms(p)
        cells.append(len(out) if out is not None else 0)
        return out

    subterms = analysis._subterms
    monkeypatch.setattr(analysis, "_subterms", listing)
    work = {}
    for d in (20, 40):
        cells.clear()
        verdict = check_criterion(system(deep_pattern_text(d)))
        assert not verdict.terminating and dict(verdict.failure.indices) == {"f": 2}
        work[d] = sum(cells[i] * cells[i + 1] for i in range(0, len(cells), 2))
    assert work[20] > 0
    assert work[40] <= 4.5 * work[20]


def test_strict_embedding_is_transitive_on_samples():
    chain = ["node(node(node(leaf,leaf),leaf),bot)", "node(node(leaf,leaf),leaf)", "node(leaf,leaf)", "leaf"]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            assert decrease(pat(chain[i]), pat(chain[j])) == STRICT


# ---------------------------------------------------------------------------
# Cycle detection

def test_find_cycle_detects_self_loop():
    got = find_cycle([0], successors({(0, 0)}))
    assert got == (0,)


def test_find_cycle_detects_two_cycle():
    got = find_cycle([0, 1], successors({(0, 1), (1, 0)}))
    assert got is not None
    assert set(got) == {0, 1}


def test_find_cycle_none_on_dag():
    assert find_cycle([0, 1, 2], successors({(0, 1), (1, 2), (0, 2)})) is None


def test_find_cycle_restricted_to_given_nodes():
    # the 1 -> 0 return edge exists but node 1 is out of scope
    assert find_cycle([0], successors({(0, 1), (1, 0)})) is None


# ---------------------------------------------------------------------------
# Component checks

def test_check_scc_fgih_f_g_loop(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    result = check_scc((0, 2), g, {"f": 1, "g": 1}, 1)
    assert result.ok
    assert result.strict == (2,)
    assert result.weak == (0,)


def test_check_scc_searches_cycles_over_the_weak_nodes_edges_only(fgih_validated, monkeypatch):
    # handing find_cycle every edge of the graph made each component and
    # candidate assignment cost O(E), quadratic over many small components;
    # check_scc hands over the graph's own successor table, and find_cycle
    # reads the successor list of each weak node once and of no other node
    seen = []

    class ReadLog:
        """A successor table that logs every node whose list is read."""

        def __init__(self, succ):
            self.succ, self.read = succ, []

        def __getitem__(self, v):
            self.read.append(v)
            return self.succ[v]

        def __len__(self):
            return len(self.succ)

    def recording(nodes, succ):
        log = ReadLog(succ)
        seen.append((tuple(nodes), log))
        return find_cycle(nodes, log)

    monkeypatch.setattr(analysis, "find_cycle", recording)
    verdict = check_criterion(fgih_validated)
    g = verdict.graph
    assert verdict.terminating and any(weak for weak, _ in seen)
    for weak, log in seen:
        assert log.succ is g.adjacency
        # no cycle among the weak nodes, so every one of them is visited
        assert sorted(log.read) == sorted(weak)
        read_edges = {(v, w) for v in log.read for w in log.succ[v]}
        assert read_edges == {(v, w) for (v, w) in g.edges if v in weak}


def test_check_scc_rejects_missing_index(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    with pytest.raises(ValueError):
        check_scc((0, 2), g, {"f": 1}, 1)
    with pytest.raises(ValueError):
        check_scc((0, 2), g, {"f": 1, "g": 2}, 1)


def test_find_indices_fgih(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    found = find_indices((0, 2), g)
    assert found.nodes == (0, 2)
    assert found.indices == (("f", 1), ("g", 1))
    assert found.ok
    assert found.strict == (2,)


def test_find_indices_reports_best_near_miss():
    vs = system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> f[node(a,a)] (Node[a,a] x x);\n"
    )
    g = build_graph(extract_dps(vs))
    found = find_indices((0,), g)
    assert not found.ok
    assert found.search_space == 1
    assert found.indices == (("f", 1),)
    assert found.failing_node == 0


def count_check_scc(monkeypatch) -> list[dict[str, int]]:
    """The index assignments of every later `check_scc` call."""
    calls = []

    def counting(scc, g, indices, search_space):
        calls.append(indices)
        return check_scc(scc, g, indices, search_space)

    monkeypatch.setattr(analysis, "check_scc", counting)
    return calls


@pytest.mark.parametrize("j", [None, 3])
def test_find_indices_runs_check_scc_on_few_candidates(j, monkeypatch):
    # wide-8×4 has 4^8 assignments, and trying them in order took 65536
    # check_scc calls in both cases: with j=3 the certificate, ι=4
    # everywhere, is the last one.  Only the k assignments with equal
    # indices pass every node; the tables decide each of them, so
    # check_scc runs once, on the result.
    calls = count_check_scc(monkeypatch)
    verdict = check_criterion(system(wide_text(8, 4, j)))
    assert verdict.terminating == (j is not None)
    assert len(calls) == 1


def test_all_weak_search_stops_at_the_first_leaf(monkeypatch):
    # all-weak-16×4 has 4^16 assignments, and every one passes every node
    # weakly; the nodes that no index pair makes strict hold the ring, so
    # the first assignment is the near-miss, found without trying another.
    calls = count_check_scc(monkeypatch)
    verdict = check_criterion(system(all_weak_text(16, 4)))
    failure = verdict.failure
    assert failure.search_space == 4 ** 16
    assert dict(failure.indices) == {f"f{i}": 1 for i in range(16)}
    assert failure.failing_node is None and sorted(failure.cycle) == list(range(16))
    assert len(calls) == 1


def strict_only_where_it_breaks(n: int, k: int) -> str:
    """all-weak-n×k with f0's first pattern made `node(leaf,leaf)`, in its
    own rule and in the call that the last symbol makes to it.  Under ι(f0)
    = 1, f0's pair decreases strictly and the last symbol's pair cannot
    decrease at all, since `leaf` does not embed `node(leaf,leaf)`; under
    any other ι(f0) every pair decreases weakly and the ring stays weak.
    The pairs that no index makes strict form a path, not a cycle, so the
    search cannot stop at its root."""
    big, trees = "node(leaf,leaf)", " ".join(["Leaf"] * (k - 1))
    rest = ",leaf" * (k - 1)
    text = all_weak_text(n, k)
    text = text.replace(f"rule f0[leaf{rest}] Leaf {trees}",
                        f"rule f0[{big}{rest}] (Node[leaf,leaf] Leaf Leaf) {trees}")
    return text.replace(f"-> f0[leaf{rest}] Leaf {trees}",
                        f"-> f0[{big}{rest}] (Node[leaf,leaf] Leaf Leaf) {trees}")


def test_forward_check_cuts_what_the_root_cannot_settle(monkeypatch):
    g = build_graph(extract_dps(system(strict_only_where_it_breaks(4, 3))))
    assert sccs(g) == [(0, 1, 2, 3)]
    assert find_indices((0, 1, 2, 3), g) == reference_find_indices((0, 1, 2, 3), g)
    # n = 12: 3^12 assignments.  Once ι(f0) = 2 has passed every node,
    # every branch is cut where its surely non-strict pairs close the ring.
    calls = count_check_scc(monkeypatch)
    failure = check_criterion(system(strict_only_where_it_breaks(12, 3))).failure
    assert failure.search_space == 3 ** 12
    assert dict(failure.indices) == {"f0": 2, **{f"f{i}": 1 for i in range(1, 12)}}
    assert failure.failing_node is None and sorted(failure.cycle) == list(range(12))
    assert len(calls) == 1


def test_criterion_wide_12x4_shrinking():
    verdict = check_criterion(system(wide_text(12, 4, 3)))
    assert verdict.terminating
    (cert,) = verdict.certificates
    assert cert.nodes == tuple(range(12))
    assert dict(cert.indices) == {f"f{i}": 4 for i in range(12)}
    assert cert.strict == tuple(range(12))


def test_criterion_wide_12x4_without_shrinking():
    verdict = check_criterion(system(wide_text(12, 4, None)))
    assert not verdict.terminating
    failure = verdict.failure
    assert failure.search_space == 4 ** 12
    assert dict(failure.indices) == {f"f{i}": 1 for i in range(12)}
    assert failure.failing_node is None
    assert sorted(failure.cycle) == list(range(12))
    assert "without a strict decrease" in failure_message(verdict)


def test_criterion_app(app_validated):
    verdict = check_criterion(app_validated)
    assert verdict.terminating
    assert verdict.certificates == ()
    assert verdict.failure is None


def test_criterion_fgih(fgih_validated):
    verdict = check_criterion(fgih_validated)
    assert verdict.terminating
    certs = verdict.certificates
    assert [c.nodes for c in certs] == [(0, 2), (6, 7), (8,)]
    assert [dict(c.indices) for c in certs] == [{"f": 1, "g": 1}, {"i": 1}, {"h": 1}]
    assert certs[0].strict == (2,)
    assert certs[0].weak == (0,)
    assert certs[1].strict == (6, 7)
    assert certs[2].strict == (8,)


def test_criterion_weak_only_loop_is_inconclusive():
    vs = system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> f[a] x;\n"
    )
    verdict = check_criterion(vs)
    assert not verdict.terminating
    failure = verdict.failure
    assert failure is not None
    assert failure.nodes == (0,)
    assert failure.search_space == 1
    assert failure.cycle == (0,)
    assert "without a strict decrease" in failure_message(verdict)


def test_criterion_growing_argument_is_inconclusive():
    vs = system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> f[node(a,a)] (Node[a,a] x x);\n"
    )
    verdict = check_criterion(vs)
    assert not verdict.terminating
    failure = verdict.failure
    assert failure is not None
    assert failure.search_space == 1
    assert failure.failing_node == 0
    assert "does not weakly decrease" in failure_message(verdict)


def test_criterion_zero_recursive_positions_is_inconclusive():
    vs = system("symbol f : B(leaf) recursive 0;\nrule f -> f;\n")
    verdict = check_criterion(vs)
    assert not verdict.terminating
    assert verdict.failure.search_space == 0
    assert "no recursive argument positions" in failure_message(verdict)


def test_criterion_ring_2000():
    verdict = check_criterion(system(ring_text(2000)))
    assert verdict.terminating
    assert (len(verdict.graph.nodes), len(verdict.graph.edges)) == (2000, 2000)
    (cert,) = verdict.certificates
    assert cert.nodes == tuple(range(2000))
    assert dict(cert.indices) == {f"f{i}": 1 for i in range(2000)}


def test_criterion_no_rules_trivially_terminating():
    vs = system("symbol f : forall a. B(a) -> B(leaf) recursive 1;\n")
    verdict = check_criterion(vs)
    assert verdict.terminating
    assert verdict.graph.nodes == ()


# ---------------------------------------------------------------------------
# DOT export

def test_to_dot_is_deterministic(fgih_validated):
    assert to_dot(check_criterion(fgih_validated)) == to_dot(check_criterion(fgih_validated))


def test_to_dot_contents(fgih_validated):
    dot = to_dot(check_criterion(fgih_validated))
    assert dot.startswith("digraph dependency_pairs {")
    assert dot.rstrip().endswith("}")
    assert '"g♯(leaf) -> f♯(bot)"' in dot  # node labels use pair notation
    assert dot.count(" -> ") >= 13  # 13 edges plus arrows inside labels
    assert "penwidth=2" in dot  # strict nodes highlighted
    assert "fillcolor" in dot  # nontrivial components shaded


def test_to_dot_without_nontrivial_components(app_validated):
    dot = to_dot(check_criterion(app_validated))
    assert "penwidth=2" not in dot
    assert "fillcolor" not in dot
    assert dot.count("n0") >= 1
