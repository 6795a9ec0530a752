"""Acceptance gate: seven end-to-end requirements for the whole package.

Each criterion prints one PASS/FAIL line directly to the real stdout so the
run log always shows the verdicts, whether or not capture is active.
"""
from __future__ import annotations

import functools
import json
import random
import sys
import time
from itertools import product

from treeterm.analysis import (
    DependencyPair,
    _canonicalize,
    build_graph,
    check_criterion,
    extract_dps,
    find_cycle,
    is_nontrivial,
    sccs,
)
from treeterm.cli import main
from treeterm.rewrite import (
    FuelExhausted,
    NormalForms,
    erased_rules,
    match_lhs,
    normalize,
    pattern_form,
)
from treeterm.syntax import parse_system, print_erased, print_system
from treeterm.terms import (
    App,
    EApp,
    ELeaf,
    ENode,
    ESym,
    Lam,
    PatApp,
    PatLam,
    PLeaf,
    PNode,
    PVar,
    SymbolRef,
    erase,
    erased_free_vars,
    erased_subst,
    pattern_subst,
    pattern_vars,
)
from treeterm.typecheck import pattern_sub, type_sub
from conftest import APP_PATH, FGIH_PATH, NONMINIMAL_PATH, load, load_validated
from helpers import (
    closed_pattern_above,
    ground_trees,
    has_simple_cycle,
    neutral_normal_form,
    pattern_above,
    pattern_below,
    random_closed_pattern,
    random_digraph,
    random_pattern,
    random_system,
    random_type,
    random_valuation,
    strictly_above_pattern,
    strictly_embedding_term,
    successors,
    term_arity,
    term_matching_pattern,
    term_with_pattern_form,
    tree_like_normal_form,
    type_above,
    type_below,
    unify_patterns,
    weakly_above_pattern,
)
from oracle import (
    apply_valuation,
    match_patterns,
    term_embeds_strict,
    term_embeds_weak,
    term_matches,
    term_size,
)

FGIH_EDGES = {
    (0, 2), (0, 3), (1, 6), (1, 7), (2, 0), (2, 1),
    (3, 6), (3, 7), (6, 6), (6, 7), (7, 6), (7, 7), (8, 8),
}


VERDICT_LINES: list[str] = []


def announce(line: str) -> None:
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                announce(f"ACCEPTANCE {number} FAIL: {label}")
                raise
            announce(f"ACCEPTANCE {number} PASS: {label} ({time.perf_counter() - started:.2f}s)")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# 1. First worked example

@criterion(1, "higher-order example: 3 pairs, 2 edges, acyclic, terminating")
def test_criterion_1_first_example():
    started = time.perf_counter()
    vsys = load_validated(APP_PATH)
    dps = extract_dps(vsys)
    assert len(dps) == 3
    graph = build_graph(dps)
    assert set(graph.edges) == {(2, 0), (2, 1)}
    assert find_cycle(list(range(len(dps))), graph.adjacency) is None
    assert not any(is_nontrivial(c, graph) for c in sccs(graph))
    verdict = check_criterion(vsys)
    assert verdict.terminating
    assert main(["check", str(APP_PATH)]) == 0
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 2. Second worked example

@criterion(2, "mutual-recursion example: 9 pairs, 13 edges, 3 components, unit indices")
def test_criterion_2_second_example():
    started = time.perf_counter()
    vsys = load_validated(FGIH_PATH)
    dps = extract_dps(vsys)
    assert len(dps) == 9
    graph = build_graph(dps)
    assert set(graph.edges) == FGIH_EDGES
    components = sccs(graph)
    assert [c for c in components if is_nontrivial(c, graph)] == [(0, 2), (6, 7), (8,)]
    verdict = check_criterion(vsys)
    assert verdict.terminating
    assert [c.nodes for c in verdict.certificates] == [(0, 2), (6, 7), (8,)]
    for cert in verdict.certificates:
        assert all(index == 1 for _, index in cert.indices)
    assert main(["check", str(FGIH_PATH)]) == 0
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 3. Rejection gate

@criterion(3, "ill-refined fixture rejected before analysis; its loop exhausts the reducer")
def test_criterion_3_rejection_gate(capsys):
    started = time.perf_counter()
    code = main(["check", str(NONMINIMAL_PATH), "--json", "-"])
    out = capsys.readouterr().out
    assert code == 2
    report = json.loads(out)
    assert report["outcome"] == "invalid"
    assert any(d["code"] == "E-MIN-PATTERN-MISMATCH" for d in report["diagnostics"])
    # validation failure short-circuits: no analysis artifacts in the report
    assert report["dependencyPairs"] == []
    assert report["edges"] == []
    assert report["sccs"] == []
    assert report["certificates"] == []

    code = main(["reduce", str(NONMINIMAL_PATH), "--term", "f Leaf Leaf", "--fuel", "10000"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FUEL EXHAUSTED")
    assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 4. Normalization sweep

@criterion(4, "all symbols on all trees of depth <= 3 normalize; identities hold")
def test_criterion_4_normalization_sweep():
    trees = ground_trees(3)
    assert len(trees) == 26
    exhausted = 0
    for path in (APP_PATH, FGIH_PATH):
        system = load(path)
        for name, info in system.signature:
            arity = term_arity(info.type)
            for combo in product(trees, repeat=arity):
                term = ESym(name)
                for arg in combo:
                    term = EApp(term, arg)
                if isinstance(normalize(term, system, fuel=10000), FuelExhausted):
                    exhausted += 1
    assert exhausted == 0

    first = load(APP_PATH)
    out = normalize(ESym("f"), first, fuel=10000)
    assert isinstance(out, NormalForms) and out.forms == frozenset({ELeaf()})

    second = load(FGIH_PATH)
    for t in trees:
        out = normalize(EApp(ESym("i"), t), second, fuel=10000)
        assert isinstance(out, NormalForms) and out.forms == frozenset({t})


# ---------------------------------------------------------------------------
# 5. Semantic lemma sweep

FGIH_SYSTEM = load(FGIH_PATH)
SMALL_TREES = ground_trees(2)


def _reducible_term(rng: random.Random):
    kind = rng.choice(["tree", "call", "call", "neutral", "leaf"])
    if kind == "tree":
        return rng.choice(SMALL_TREES)
    if kind == "leaf":
        return ELeaf()
    if kind == "neutral":
        return neutral_normal_form(rng)
    symbol = rng.choice(("f", "g", "i", "h"))
    return EApp(ESym(symbol), rng.choice(SMALL_TREES))


def _matching_problem(rng: random.Random):
    def position(var_pool):
        kind = rng.choice(["var", "var", "node", "leaf", "shared-node"])
        if kind == "leaf":
            return ELeaf(), PLeaf()
        if kind == "var":
            return _reducible_term(rng), PVar(rng.choice(var_pool))
        if kind == "node":
            left, right = _reducible_term(rng), _reducible_term(rng)
            tree = EApp(EApp(ENode(), left), right)
            return tree, PNode(PVar(var_pool[0]), PVar(var_pool[1]))
        shared = _reducible_term(rng)
        tree = EApp(EApp(ENode(), shared), shared)
        return tree, PNode(PVar(var_pool[0]), PVar(var_pool[0]))

    if rng.random() < 0.5:
        t, p = position(("a", "b"))
        return [t], [p]
    t1, p1 = position(("a", "b"))
    t2, p2 = position(("c", "d"))
    return [t1, t2], [p1, p2]


def _call_sites_with_args(t, pats=(), args=()):
    sites = []
    if isinstance(t, SymbolRef):
        sites.append((t.name, pats, args))
    elif isinstance(t, PatApp):
        sites.extend(_call_sites_with_args(t.fun, (t.pattern,) + pats, args))
    elif isinstance(t, App):
        sites.extend(_call_sites_with_args(t.fun, (), (t.arg,) + args))
        sites.extend(_call_sites_with_args(t.arg))
    elif isinstance(t, (Lam, PatLam)):
        sites.extend(_call_sites_with_args(t.body))
    return sites


def _canonical_pair(head, recursive_patterns, callee, patterns):
    lhs_args, rhs_args = _canonicalize(tuple(recursive_patterns), tuple(patterns))
    return DependencyPair(head, lhs_args, callee, rhs_args)


def _realized_chain_count(path) -> int:
    """Fire rule pairs concretely and require an edge for every chain."""
    vsys = load_validated(path)
    system = vsys.system
    dps = list(extract_dps(vsys))
    graph = build_graph(tuple(dps))
    rules = erased_rules(system)
    chains = 0
    for vr in vsys.rules:
        sites = _call_sites_with_args(vr.rule.rhs)
        if not sites:
            continue
        lhs_vars = sorted(erased_free_vars(rules[vr.index].lhs))
        for combo in product(SMALL_TREES, repeat=len(lhs_vars)):
            sigma = dict(zip(lhs_vars, combo))
            for callee, patterns, arg_terms in sites:
                source = dps.index(_canonical_pair(
                    vr.rule.head, vr.recursive_patterns, callee, patterns))
                value_sets = []
                for arg in arg_terms:
                    out = normalize(erased_subst(erase(arg), sigma), system, fuel=10000)
                    if isinstance(out, FuelExhausted):
                        value_sets = None
                        break
                    value_sets.append(sorted(out.forms, key=print_erased))
                if value_sets is None:
                    continue
                for values in product(*value_sets):
                    candidate = ESym(callee)
                    for value in values:
                        candidate = EApp(candidate, value)
                    for fired in rules:
                        if match_lhs(fired.lhs, candidate) is None:
                            continue
                        second = vsys.rules[fired.rule_index]
                        for next_callee, next_patterns, _ in _call_sites_with_args(second.rule.rhs):
                            target = dps.index(_canonical_pair(
                                second.rule.head, second.recursive_patterns,
                                next_callee, next_patterns))
                            assert (source, target) in graph.edges, (
                                f"realized chain {dps[source]} ~> {dps[target]} has no edge"
                            )
                            chains += 1
    return chains


@criterion(5, "semantic lemmas and chain soundness on large random samples")
def test_criterion_5_semantic_sweep():
    started = time.perf_counter()
    rng = random.Random(20260818)

    # (a) strict embedding of normal forms shrinks the tree size: 1000 pairs
    for _ in range(1000):
        u = tree_like_normal_form(rng, 2)
        v = strictly_embedding_term(rng, u)
        assert term_embeds_strict(v, u)
        assert term_size(v) > term_size(u)

    # (b) pattern order survives valuation application: 500 instances
    for _ in range(500):
        q = random_pattern(rng, 2, ("a", "b"))
        p = pattern_below(rng, q)
        assert pattern_sub(p, q)
        theta = random_valuation(rng, pattern_vars(p) | pattern_vars(q))
        for inst in apply_valuation(p, theta):
            assert any(pattern_sub(inst, other) for other in apply_valuation(q, theta))

    # (b) recovered valuations describe exactly the reachable shapes: 500
    matched = 0
    while matched < 500:
        ts, ps = _matching_problem(rng)
        theta = match_patterns(ts, ps, FGIH_SYSTEM)
        if theta is None:
            continue
        for t, p in zip(ts, ps):
            out = normalize(t, FGIH_SYSTEM)
            assert isinstance(out, NormalForms)
            forms = {pattern_form(v) for v in out.forms}
            for q in apply_valuation(p, theta):
                assert q in forms
        matched += 1

    # (b) pattern embedding transfers to matching terms: 500 strict + 500 weak
    for _ in range(500):
        q = random_closed_pattern(rng, 2, wild=False)
        v2 = term_matching_pattern(rng, q)
        p_strict = strictly_above_pattern(rng, q)
        assert term_embeds_strict(term_with_pattern_form(rng, p_strict), v2)
        p_weak = weakly_above_pattern(rng, q)
        assert term_embeds_weak(term_with_pattern_form(rng, p_weak), v2)

    # (b) matching is monotone along the pattern order: 500
    for _ in range(500):
        r = random_closed_pattern(rng, 2)
        v = term_matching_pattern(rng, r, neutral_anywhere=True)
        s = closed_pattern_above(rng, r)
        assert term_matches(v, r)
        assert pattern_sub(r, s)
        assert term_matches(v, s)

    # (c) concretely realized two-step call chains all have edges
    chains = _realized_chain_count(FGIH_PATH) + _realized_chain_count(APP_PATH)
    assert chains >= 100, f"only {chains} chains realized"

    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 6. Acyclicity reference

def _assert_cycle_real(cycle, edges):
    assert cycle, "empty cycle reported"
    for i, node in enumerate(cycle):
        assert (node, cycle[(i + 1) % len(cycle)]) in edges


@criterion(6, "weak-node cycle search agrees with brute-force enumeration")
def test_criterion_6_acyclicity_reference():
    for n in (1, 2, 3):
        nodes = list(range(n))
        slots = [(i, j) for i in nodes for j in nodes]
        for bits in range(2 ** len(slots)):
            edges = frozenset(e for k, e in enumerate(slots) if bits >> k & 1)
            for strict_bits in range(2 ** n):
                weak = [v for v in nodes if not strict_bits >> v & 1]
                found = find_cycle(weak, successors(edges))
                assert (found is not None) == has_simple_cycle(weak, edges)
                if found is not None:
                    _assert_cycle_real(found, edges)

    rng = random.Random(606)
    for _ in range(200):
        n = rng.randint(4, 6)
        edges = random_digraph(rng, n, rng.uniform(0.15, 0.5))
        weak = [v for v in range(n) if rng.random() < 0.6]
        found = find_cycle(weak, successors(edges))
        assert (found is not None) == has_simple_cycle(weak, edges)
        if found is not None:
            _assert_cycle_real(found, edges)


# ---------------------------------------------------------------------------
# 7. Infrastructure sweep

def _abstract(rng: random.Random, p, pool, assigned):
    if rng.random() < 0.3:
        if p in assigned:
            return PVar(assigned[p])
        if len(assigned) < len(pool):
            name = pool[len(assigned)]
            assigned[p] = name
            return PVar(name)
    if isinstance(p, PNode):
        return PNode(_abstract(rng, p.left, pool, assigned),
                     _abstract(rng, p.right, pool, assigned))
    return p


@criterion(7, "round-trips, subtype laws, and most-general unifiers at scale")
def test_criterion_7_infrastructure():
    rng = random.Random(71)

    for _ in range(500):
        system = random_system(rng)
        assert parse_system(print_system(system)) == system

    for _ in range(500):
        p = random_pattern(rng, 4)
        assert pattern_sub(p, p)
        q = random_pattern(rng, 4)
        low, high = pattern_below(rng, q), pattern_above(rng, q)
        assert pattern_sub(low, q) and pattern_sub(q, high) and pattern_sub(low, high)

    for _ in range(300):
        t = random_type(rng, 4)
        assert type_sub(t, t)
        low, high = type_below(rng, t), type_above(rng, t)
        assert type_sub(low, t) and type_sub(t, high) and type_sub(low, high)

    for _ in range(500):
        skeleton = random_closed_pattern(rng, 3, wild=False)
        p = _abstract(rng, skeleton, ("a", "b"), {})
        q = _abstract(rng, skeleton, ("c", "d"), {})
        sigma = unify_patterns(p, q)
        assert sigma is not None, "skeleton-sharing pair must unify"
        joined = pattern_subst(p, sigma)
        assert joined == pattern_subst(q, sigma)
        assert all(pattern_subst(v, sigma) == v for v in sigma.values())
        assert unify_patterns(joined, skeleton) is not None
