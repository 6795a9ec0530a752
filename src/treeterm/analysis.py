"""Termination analysis via type-level dependency pairs.

Each call from a rule's left-hand side to a defined symbol in its right-hand
side yields a dependency pair over the pattern arguments involved.  Pairs are
connected in a graph when the callee patterns can describe a common tree, and
termination follows when every cycle of every strongly connected component
strictly shrinks some recursive argument position.
"""
from __future__ import annotations

import math
import string
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .syntax import print_pattern
from .terms import (
    AnnotatedTerm,
    App,
    Lam,
    PatApp,
    PatLam,
    Pattern,
    PNode,
    PVar,
    PWild,
    SymbolRef,
    pattern_subst,
)
from .typecheck import ValidatedSystem


# ---------------------------------------------------------------------------
# Dependency pairs

@dataclass(frozen=True)
class DependencyPair:
    lhs_symbol: str
    lhs_args: tuple[Pattern, ...]
    rhs_symbol: str
    rhs_args: tuple[Pattern, ...]
    rule_index: int = field(default=0, compare=False)


def dp_label(dp: DependencyPair) -> str:
    def side(symbol: str, args: tuple[Pattern, ...]) -> str:
        rendered = ",".join(print_pattern(p) for p in args)
        return f"{symbol}♯({rendered})" if args else f"{symbol}♯"

    return f"{side(dp.lhs_symbol, dp.lhs_args)} -> {side(dp.rhs_symbol, dp.rhs_args)}"


def _call_sites(t: AnnotatedTerm) -> list[tuple[str, tuple[Pattern, ...]]]:
    out: list[tuple[str, tuple[Pattern, ...]]] = []

    def visit(u: AnnotatedTerm, acc: tuple[Pattern, ...]) -> None:
        if isinstance(u, SymbolRef):
            out.append((u.name, acc))
        elif isinstance(u, PatApp):
            visit(u.fun, (u.pattern,) + acc)
        elif isinstance(u, App):
            visit(u.fun, ())
            visit(u.arg, ())
        elif isinstance(u, (Lam, PatLam)):
            visit(u.body, ())

    visit(t, ())
    return out


def _canonical_name(i: int) -> str:
    letters = string.ascii_lowercase
    return letters[i] if i < len(letters) else f"x{i}"


def _canonicalize(
    lhs_args: tuple[Pattern, ...], rhs_args: tuple[Pattern, ...]
) -> tuple[tuple[Pattern, ...], tuple[Pattern, ...]]:
    mapping: dict[str, Pattern] = {}

    def scan(p: Pattern) -> None:
        if isinstance(p, PVar):
            if p.name not in mapping:
                mapping[p.name] = PVar(_canonical_name(len(mapping)))
        elif isinstance(p, PNode):
            scan(p.left)
            scan(p.right)

    for p in lhs_args + rhs_args:
        scan(p)
    return (
        tuple(pattern_subst(p, mapping) for p in lhs_args),
        tuple(pattern_subst(p, mapping) for p in rhs_args),
    )


def extract_dps(vsys: ValidatedSystem) -> tuple[DependencyPair, ...]:
    """One pair per defined-symbol call in a right-hand side, deduplicated
    after canonical variable renaming."""
    pairs: list[DependencyPair] = []
    seen: set[DependencyPair] = set()
    for vr in vsys.rules:
        for callee, args in _call_sites(vr.rule.rhs):
            if vsys.signature.get(callee) is None:
                continue
            lhs, rhs = _canonicalize(vr.min.recursive_patterns, args)
            dp = DependencyPair(vr.rule.head, lhs, callee, rhs, rule_index=vr.index)
            if dp not in seen:
                seen.add(dp)
                pairs.append(dp)
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Pattern unification

def _shapes_agree(p: Pattern, q: Pattern) -> bool:
    if isinstance(p, (PVar, PWild)) or isinstance(q, (PVar, PWild)):
        return True
    if isinstance(p, PNode) and isinstance(q, PNode):
        return _shapes_agree(p.left, q.left) and _shapes_agree(p.right, q.right)
    return type(p) is type(q)


def pattern_unifiable(p: Pattern, q: Pattern) -> bool:
    """Compatibility of two pattern shapes, reading each variable and wildcard
    occurrence as independently arbitrary.

    Read that way both patterns are linear with disjoint variables, so they
    unify exactly when their constructors agree wherever both have one (the
    estimated dependency graph of Arts & Giesl, TCS 2000).
    """
    return _shapes_agree(p, q)


# ---------------------------------------------------------------------------
# Dependency graph

@dataclass(frozen=True)
class DependencyGraph:
    nodes: tuple[DependencyPair, ...]
    edges: frozenset[tuple[int, int]]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The sorted successors of every node, built on first use."""
        succ: list[list[int]] = [[] for _ in self.nodes]
        for a, b in self.edges:
            succ[a].append(b)
        return tuple(tuple(sorted(s)) for s in succ)


def build_graph(dps: tuple[DependencyPair, ...]) -> DependencyGraph:
    """Draw an edge when a pair's callee can be the next pair's caller:
    same symbol, same arity, and componentwise compatible patterns.

    Callers are bucketed by (symbol, arity), so each pair is only tested
    against the pairs its callee can start.
    """
    callers: dict[tuple[str, int], list[int]] = {}
    for j, b in enumerate(dps):
        callers.setdefault((b.lhs_symbol, len(b.lhs_args)), []).append(j)
    edges = set()
    for i, a in enumerate(dps):
        for j in callers.get((a.rhs_symbol, len(a.rhs_args)), ()):
            if all(pattern_unifiable(pa, pb) for pa, pb in zip(a.rhs_args, dps[j].lhs_args)):
                edges.add((i, j))
    return DependencyGraph(dps, frozenset(edges))


def sccs(g: DependencyGraph) -> list[tuple[int, ...]]:
    """Strongly connected components, each sorted, listed by smallest member.

    Tarjan's algorithm with an explicit stack of (node, successor iterator)
    frames, so the depth of the graph is not bounded by Python's recursion.
    """
    adjacency = g.adjacency
    index_of = [-1] * len(g.nodes)
    low = [0] * len(g.nodes)
    on_stack = [False] * len(g.nodes)
    stack: list[int] = []
    frames: list[tuple[int, Iterator[int]]] = []
    counter = 0
    out: list[tuple[int, ...]] = []

    def visit(v: int) -> None:
        nonlocal counter
        index_of[v] = low[v] = counter
        counter += 1
        stack.append(v)
        on_stack[v] = True
        frames.append((v, iter(adjacency[v])))

    for root in range(len(g.nodes)):
        if index_of[root] >= 0:
            continue
        visit(root)
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if index_of[w] < 0:
                    visit(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index_of[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    out.append(tuple(sorted(component)))
    return sorted(out, key=lambda c: c[0])


def is_nontrivial(scc: tuple[int, ...], g: DependencyGraph) -> bool:
    """A component matters only if it contains an edge."""
    if len(scc) > 1:
        return True
    (v,) = scc
    return (v, v) in g.edges


# ---------------------------------------------------------------------------
# Pattern embedding

def _has_wildcard(p: Pattern) -> bool:
    if isinstance(p, PWild):
        return True
    if isinstance(p, PNode):
        return _has_wildcard(p.left) or _has_wildcard(p.right)
    return False


def embeds_strict(p: Pattern, q: Pattern) -> bool:
    """p strictly embeds q: q fits inside a proper sub-shape of p.

    Wildcards stand for unknown shapes, so any wildcard occurrence defeats
    the strict relation.
    """
    if _has_wildcard(p) or _has_wildcard(q):
        return False
    if not isinstance(p, PNode):
        return False
    if embeds_weak(p.left, q) or embeds_weak(p.right, q):
        return True
    if isinstance(q, PNode):
        return (
            embeds_strict(p.left, q.left) and embeds_weak(p.right, q.right)
        ) or (
            embeds_weak(p.left, q.left) and embeds_strict(p.right, q.right)
        )
    return False


def embeds_weak(p: Pattern, q: Pattern) -> bool:
    """Syntactic equality or strict embedding."""
    return p == q or embeds_strict(p, q)


# ---------------------------------------------------------------------------
# Cycle criterion

IndexAssignment = dict[str, int]


@dataclass(frozen=True)
class SccCheck:
    ok: bool
    strict: tuple[int, ...]
    weak: tuple[int, ...]
    failing_node: int | None = None
    cycle: tuple[int, ...] | None = None


def find_cycle(nodes: list[int], edges: frozenset[tuple[int, int]]) -> tuple[int, ...] | None:
    """Some cycle lying entirely within the given node set, or None."""
    allowed = set(nodes)
    color: dict[int, int] = {}
    parent: dict[int, int] = {}
    succ: dict[int, list[int]] = {v: [] for v in allowed}
    for a, w in edges:
        if a in allowed and w in allowed:
            succ[a].append(w)
    for ws in succ.values():
        ws.sort()

    for start in sorted(allowed):
        if color.get(start):
            continue
        stack = [(start, iter(succ[start]))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color.get(w, 0) == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
                if color.get(w) == 1:
                    cycle = [v]
                    u = v
                    while u != w:
                        u = parent[u]
                        cycle.append(u)
                    cycle.reverse()
                    return tuple(cycle)
            if not advanced:
                color[v] = 2
                stack.pop()
    return None


def check_scc(scc: tuple[int, ...], g: DependencyGraph, indices: IndexAssignment) -> SccCheck:
    """Decide the decrease condition for one component under an index choice.

    Every node must weakly decrease from its caller index to its callee
    index, and after removing strictly decreasing nodes no cycle may remain.
    """
    strict: list[int] = []
    weak: list[int] = []
    for i in scc:
        dp = g.nodes[i]
        for symbol in (dp.lhs_symbol, dp.rhs_symbol):
            if symbol not in indices:
                raise ValueError(f"index assignment lacks symbol {symbol!r}")
        fi = indices[dp.lhs_symbol]
        gi = indices[dp.rhs_symbol]
        if not (1 <= fi <= len(dp.lhs_args)) or not (1 <= gi <= len(dp.rhs_args)):
            raise ValueError(f"index assignment out of range for node {i}")
        p = dp.lhs_args[fi - 1]
        q = dp.rhs_args[gi - 1]
        if embeds_strict(p, q):
            strict.append(i)
        elif embeds_weak(p, q):
            weak.append(i)
        else:
            return SccCheck(False, tuple(strict), tuple(weak), failing_node=i)
    # Only the weak nodes' own edges: scanning all of g.edges here would cost
    # O(E) per component and candidate assignment.
    cycle = find_cycle(weak, frozenset((v, w) for v in weak for w in g.adjacency[v]))
    if cycle is not None:
        return SccCheck(False, tuple(strict), tuple(weak), cycle=cycle)
    return SccCheck(True, tuple(strict), tuple(weak))


@dataclass(frozen=True)
class IndexSearchFailure:
    search_space: int
    best_indices: IndexAssignment | None = None
    best_check: SccCheck | None = None


def find_indices(
    scc: tuple[int, ...], g: DependencyGraph
) -> tuple[IndexAssignment, SccCheck] | IndexSearchFailure:
    """Search recursive-argument indices for the component, smallest first.

    Candidate counts come from the caller arities seen in the component; a
    symbol without recursive arguments leaves nothing to search.

    The result is that of trying every assignment in lexicographic order
    with `check_scc`: the first that works, or else the first with the
    longest prefix of passing nodes.  A depth-first search over the sorted
    symbols finds it without visiting them all.  Each node carries a table
    of which index pairs weakly decrease and is checked at the later of its
    two symbols; a branch is cut once a decided node fails at a position no
    later than the best prefix found so far, since every assignment below it
    fails there too and comes later.  `check_scc` runs only on assignments
    where every node passes, and once more on the near-miss it reports.
    """
    arity: dict[str, int] = {}
    for i in scc:
        dp = g.nodes[i]
        arity.setdefault(dp.lhs_symbol, len(dp.lhs_args))
    for i in scc:
        dp = g.nodes[i]
        if dp.rhs_symbol not in arity:
            # cannot happen for a component with internal edges
            raise ValueError(f"symbol {dp.rhs_symbol!r} never occurs as a caller in the component")
    symbols = sorted(arity)
    space = math.prod(arity[s] for s in symbols)
    if space == 0:
        return IndexSearchFailure(search_space=0)
    if space == 1:  # one candidate: no tables to build
        indices = dict.fromkeys(symbols, 1)
        result = check_scc(scc, g, indices)
        if result.ok:
            return indices, result
        return IndexSearchFailure(search_space=1, best_indices=indices, best_check=result)
    level = {s: d for d, s in enumerate(symbols)}
    # checks[d]: (position in scc, caller level, callee level, weak table)
    # for the nodes whose later symbol is symbols[d]
    checks: list[list[tuple[int, int, int, list[list[bool]]]]] = [[] for _ in symbols]
    for pos, i in enumerate(scc):
        dp = g.nodes[i]
        kf, kg = arity[dp.lhs_symbol], arity[dp.rhs_symbol]
        if kf > len(dp.lhs_args) or kg > len(dp.rhs_args):
            raise ValueError(f"index assignment out of range for node {i}")
        table = [[embeds_weak(p, q) for q in dp.rhs_args[:kg]] for p in dp.lhs_args[:kf]]
        a, b = level[dp.lhs_symbol], level[dp.rhs_symbol]
        checks[max(a, b)].append((pos, a, b, table))

    size, last = len(scc), len(symbols) - 1
    chosen = [-1] * len(symbols)  # zero-based index per level
    # first_fail[d]: the earliest position failing among nodes checked
    # above level d, or `size` when none fails
    first_fail = [size] * len(symbols)
    best: tuple[int, ...] | None = None
    best_score = -1
    d = 0
    while d >= 0:
        if chosen[d] + 1 == arity[symbols[d]]:
            chosen[d] = -1
            d -= 1
            continue
        chosen[d] += 1
        fail = first_fail[d]
        for pos, a, b, table in checks[d]:
            if pos < fail and not table[chosen[a]][chosen[b]]:
                fail = pos
        if fail < size and fail <= best_score:
            continue  # nothing below can work or beat the best near-miss
        if d < last:
            first_fail[d + 1] = fail
            d += 1
            continue
        combo = tuple(c + 1 for c in chosen)
        if fail == size:
            indices = dict(zip(symbols, combo))
            result = check_scc(scc, g, indices)
            if result.ok:
                return indices, result
        if fail > best_score:
            best, best_score = combo, fail
    assert best is not None
    best_indices = dict(zip(symbols, best))
    return IndexSearchFailure(
        search_space=space, best_indices=best_indices, best_check=check_scc(scc, g, best_indices)
    )


# ---------------------------------------------------------------------------
# Verdict

@dataclass(frozen=True)
class SccCertificate:
    nodes: tuple[int, ...]
    indices: tuple[tuple[str, int], ...]
    strict: tuple[int, ...]
    weak: tuple[int, ...]


@dataclass(frozen=True)
class CriterionFailure:
    scc: tuple[int, ...]
    search_space: int
    message: str
    best_indices: tuple[tuple[str, int], ...] | None = None
    failing_node: int | None = None
    cycle: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Verdict:
    terminating: bool
    graph: DependencyGraph
    components: tuple[tuple[int, ...], ...]
    certificates: tuple[SccCertificate, ...]
    failure: CriterionFailure | None = None


def check_criterion(vsys: ValidatedSystem) -> Verdict:
    """Run the whole pipeline on a validated system and certify or give up.

    Components are processed independently and deterministically; the result
    is a function of the system alone.
    """
    graph = build_graph(extract_dps(vsys))
    components = tuple(sccs(graph))
    certificates: list[SccCertificate] = []
    for scc in components:
        if not is_nontrivial(scc, graph):
            continue
        found = find_indices(scc, graph)
        if isinstance(found, IndexSearchFailure):
            if found.search_space == 0:
                message = (
                    "a symbol in the component has no recursive argument positions"
                )
            elif found.best_check is not None and found.best_check.failing_node is not None:
                label = dp_label(graph.nodes[found.best_check.failing_node])
                message = (
                    f"no index assignment works; closest candidate fails at node "
                    f"{found.best_check.failing_node} ({label}), which does not "
                    "weakly decrease"
                )
            else:
                assert found.best_check is not None
                cyc = found.best_check.cycle or ()
                message = (
                    "no index assignment works; closest candidate leaves the cycle "
                    f"{' -> '.join(str(i) for i in cyc)} without a strict decrease"
                )
            return Verdict(
                terminating=False,
                graph=graph,
                components=components,
                certificates=tuple(certificates),
                failure=CriterionFailure(
                    scc=scc,
                    search_space=found.search_space,
                    message=message,
                    best_indices=tuple(sorted(found.best_indices.items())) if found.best_indices else None,
                    failing_node=found.best_check.failing_node if found.best_check else None,
                    cycle=found.best_check.cycle if found.best_check else None,
                ),
            )
        indices, result = found
        certificates.append(SccCertificate(
            nodes=scc,
            indices=tuple(sorted(indices.items())),
            strict=result.strict,
            weak=result.weak,
        ))
    return Verdict(
        terminating=True,
        graph=graph,
        components=components,
        certificates=tuple(certificates),
    )


# ---------------------------------------------------------------------------
# DOT export

_PALETTE = ("lightblue", "lightsalmon", "palegreen", "khaki", "plum", "lightgrey")


def to_dot(g: DependencyGraph, verdict: Verdict | None = None) -> str:
    """Render the graph deterministically; byte-identical across runs."""
    lines = ["digraph dependency_pairs {"]
    if verdict is None:
        components, strict_nodes = sccs(g), set()
    else:
        components = verdict.components
        strict_nodes = {i for cert in verdict.certificates for i in cert.strict}
    color_of: dict[int, str] = {}
    nontrivial = [scc for scc in components if is_nontrivial(scc, g)]
    for rank, scc in enumerate(nontrivial):
        for i in scc:
            color_of[i] = _PALETTE[rank % len(_PALETTE)]
    for i, dp in enumerate(g.nodes):
        attrs = [f'label="{dp_label(dp)}"']
        if i in color_of:
            attrs.append(f'style=filled fillcolor="{color_of[i]}"')
        if i in strict_nodes:
            attrs.append("penwidth=2")
        lines.append(f"  n{i} [{' '.join(attrs)}];")
    for a, b in sorted(g.edges):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
