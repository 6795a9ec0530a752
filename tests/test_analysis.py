"""Dependency pairs, the approximated call graph, and the decrease criterion."""
from __future__ import annotations

import pytest

from treeterm import analysis
from treeterm.analysis import (
    DependencyGraph,
    DependencyPair,
    IndexSearchFailure,
    build_graph,
    check_criterion,
    check_scc,
    dp_label,
    embeds_strict,
    embeds_weak,
    extract_dps,
    find_cycle,
    find_indices,
    is_nontrivial,
    pattern_unifiable,
    sccs,
    to_dot,
)
from treeterm.syntax import parse_pattern, parse_system, print_pattern
from treeterm.terms import pattern_subst
from treeterm.typecheck import validate_system
from conftest import APP_PATH, FGIH_PATH, load_validated
from helpers import clique_text, reference_edges, ring_text, unify_patterns, wide_text


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


EDGE_MIX = (
    "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
    "symbol g : forall a b. B(a) -> B(b) -> B(leaf) recursive 1;\n"
    "rule f[a] x -> g[a,leaf] x Leaf;\n"
    "rule g[node(a,b),c] (Node x y) -> \\z:B(c). f[a] x;\n"
)


def test_edge_requires_matching_arity():
    vs = system(EDGE_MIX)
    dps = extract_dps(vs)
    assert [dp_label(d) for d in dps] == [
        "f♯(a) -> g♯(a,leaf)",
        "g♯(node(a,b)) -> f♯(a)",
    ]
    # the g call carries two patterns but g's own pairs expose one
    # recursive position, so no edge targets the g node
    assert sorted(build_graph(dps).edges) == [(1, 0)]


def test_edge_requires_matching_symbol():
    vs = system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "symbol g : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> g[a] x;\n"
    )
    g = build_graph(extract_dps(vs))
    assert sorted(g.edges) == []


@pytest.mark.parametrize("vs", [
    pytest.param(load_validated(APP_PATH), id="app"),
    pytest.param(load_validated(FGIH_PATH), id="fgih"),
    pytest.param(system(EDGE_MIX), id="arity-mismatch"),
    pytest.param(system(clique_text(6)), id="clique-6"),
    pytest.param(system(wide_text(5, 3)), id="wide-5x3"),
    pytest.param(system(wide_text(4, 1)), id="wide-4x1"),
    pytest.param(system(ring_text(7)), id="ring-7"),
])
def test_bucketed_edges_match_all_pairs(vs):
    dps = extract_dps(vs)
    assert build_graph(dps).edges == reference_edges(dps)


def test_adjacency_is_sorted_and_built_once(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    assert g.adjacency is g.adjacency
    assert all(list(s) == sorted(s) for s in g.adjacency)
    assert sorted((a, b) for a, succ in enumerate(g.adjacency) for b in succ) == sorted(g.edges)


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
    g = DependencyGraph(nodes=(DependencyPair("f", (), "f", ()),), edges=frozenset({(0, 0)}))
    assert sccs(g) == [(0,)]
    assert is_nontrivial((0,), g)


DEEP = 20_000


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_sccs_on_deep_graphs_do_not_recurse(closed):
    nodes = (DependencyPair("f", (), "f", ()),) * DEEP
    edges = {(i, i + 1) for i in range(DEEP - 1)} | ({(DEEP - 1, 0)} if closed else set())
    comps = sccs(DependencyGraph(nodes, frozenset(edges)))
    assert comps == ([tuple(range(DEEP))] if closed else [(i,) for i in range(DEEP)])


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


def test_strict_embedding_is_transitive_on_samples():
    chain = ["node(node(node(leaf,leaf),leaf),bot)", "node(node(leaf,leaf),leaf)", "node(leaf,leaf)", "leaf"]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            assert embeds_strict(pat(chain[i]), pat(chain[j]))


# ---------------------------------------------------------------------------
# Cycle detection

def test_find_cycle_detects_self_loop():
    got = find_cycle([0], frozenset({(0, 0)}))
    assert got == (0,)


def test_find_cycle_detects_two_cycle():
    got = find_cycle([0, 1], frozenset({(0, 1), (1, 0)}))
    assert got is not None
    assert set(got) == {0, 1}


def test_find_cycle_none_on_dag():
    assert find_cycle([0, 1, 2], frozenset({(0, 1), (1, 2), (0, 2)})) is None


def test_find_cycle_restricted_to_given_nodes():
    # the 1 -> 0 return edge exists but node 1 is out of scope
    assert find_cycle([0], frozenset({(0, 1), (1, 0)})) is None


# ---------------------------------------------------------------------------
# Component checks

def test_check_scc_fgih_f_g_loop(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    result = check_scc((0, 2), g, {"f": 1, "g": 1})
    assert result.ok
    assert result.strict == (2,)
    assert result.weak == (0,)


def test_check_scc_searches_cycles_over_the_weak_nodes_edges_only(fgih_validated, monkeypatch):
    # handing find_cycle every edge of the graph made each component and
    # candidate assignment cost O(E), quadratic over many small components
    seen = []

    def recording(nodes, edges):
        seen.append((tuple(nodes), edges))
        return find_cycle(nodes, edges)

    monkeypatch.setattr(analysis, "find_cycle", recording)
    verdict = check_criterion(fgih_validated)
    g = verdict.graph
    assert verdict.terminating and seen
    for weak, edges in seen:
        assert edges == {(v, w) for (v, w) in g.edges if v in weak}


def test_check_scc_rejects_missing_index(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    with pytest.raises(ValueError):
        check_scc((0, 2), g, {"f": 1})
    with pytest.raises(ValueError):
        check_scc((0, 2), g, {"f": 1, "g": 2})


def test_find_indices_fgih(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    found = find_indices((0, 2), g)
    assert isinstance(found, tuple)
    indices, result = found
    assert indices == {"f": 1, "g": 1}
    assert result.ok
    assert result.strict == (2,)


def test_find_indices_reports_best_near_miss():
    vs = system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> f[node(a,a)] (Node[a,a] x x);\n"
    )
    g = build_graph(extract_dps(vs))
    found = find_indices((0,), g)
    assert isinstance(found, IndexSearchFailure)
    assert found.search_space == 1
    assert found.best_indices == {"f": 1}
    assert not found.best_check.ok


@pytest.mark.parametrize("j", [None, 3])
def test_find_indices_runs_check_scc_on_few_candidates(j, monkeypatch):
    # wide-8×4 has 4^8 assignments, and trying them in order took 65536
    # check_scc calls in both cases: with j=3 the certificate, ι=4
    # everywhere, is the last one.  Only the k assignments with equal
    # indices pass every node, plus the reported near-miss.
    calls = []

    def counting(scc, g, indices):
        calls.append(indices)
        return check_scc(scc, g, indices)

    monkeypatch.setattr(analysis, "check_scc", counting)
    verdict = check_criterion(system(wide_text(8, 4, j)))
    assert verdict.terminating == (j is not None)
    assert len(calls) <= 4 + 1


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
    assert dict(failure.best_indices) == {f"f{i}": 1 for i in range(12)}
    assert failure.failing_node is None
    assert sorted(failure.cycle) == list(range(12))
    assert "without a strict decrease" in failure.message


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
    assert failure.scc == (0,)
    assert failure.search_space == 1
    assert failure.cycle == (0,)
    assert "without a strict decrease" in failure.message


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
    assert "does not weakly decrease" in failure.message


def test_criterion_zero_recursive_positions_is_inconclusive():
    vs = system("symbol f : B(leaf) recursive 0;\nrule f -> f;\n")
    verdict = check_criterion(vs)
    assert not verdict.terminating
    assert verdict.failure.search_space == 0
    assert "no recursive argument positions" in verdict.failure.message


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
    g = build_graph(extract_dps(fgih_validated))
    verdict = check_criterion(fgih_validated)
    assert to_dot(g, verdict) == to_dot(g, verdict)


def test_to_dot_contents(fgih_validated):
    g = build_graph(extract_dps(fgih_validated))
    verdict = check_criterion(fgih_validated)
    dot = to_dot(g, verdict)
    assert dot.startswith("digraph dependency_pairs {")
    assert dot.rstrip().endswith("}")
    assert '"g♯(leaf) -> f♯(bot)"' in dot  # node labels use pair notation
    assert dot.count(" -> ") >= 13  # 13 edges plus arrows inside labels
    assert "penwidth=2" in dot  # strict nodes highlighted
    assert "fillcolor" in dot  # nontrivial components shaded


def test_to_dot_without_verdict(app_validated):
    g = build_graph(extract_dps(app_validated))
    dot = to_dot(g)
    assert "penwidth=2" not in dot
    assert dot.count("n0") >= 1
