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
from collections import Counter
from collections.abc import Iterator, Sequence
from itertools import chain

from .terms import Pattern, PLeaf, PNode, PVar, PWild, Record, pattern_subst
from .typecheck import ValidatedSystem


# ---------------------------------------------------------------------------
# Dependency pairs

class DependencyPair(Record, ignore=("rule_index",), hashed=True, rule_index=0):
    __slots__ = ("lhs_symbol", "lhs_args", "rhs_symbol", "rhs_args", "rule_index")


def _canonical_name(i: int) -> str:
    letters = string.ascii_lowercase
    return letters[i] if i < len(letters) else f"x{i}"


def _canonicalize(
    lhs_args: tuple[Pattern, ...], rhs_args: tuple[Pattern, ...]
) -> tuple[tuple[Pattern, ...], tuple[Pattern, ...]]:
    """Both tuples with their variables renamed `a, b, ...` in first-occurrence
    order, or the tuples themselves when they are named so already."""
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
    if all(name == var.name for name, var in mapping.items()):
        return lhs_args, rhs_args
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
        for ref, args in vr.call_sites:
            lhs, rhs = _canonicalize(vr.recursive_patterns, args)
            dp = DependencyPair(vr.rule.head, lhs, ref.name, rhs, rule_index=vr.index)
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

class DependencyGraph(Record, derived=("components",)):
    """The pairs, and the sorted successors of every pair; `edges` is the
    set of (i, j) pairs that `adjacency` lists, built when read, and
    `components` the tuple of its SCCs, kept by the first `sccs` call."""

    __slots__ = ("nodes", "adjacency", "components")

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, succ in enumerate(self.adjacency) for j in succ)


def build_graph(dps: tuple[DependencyPair, ...]) -> DependencyGraph:
    """Draw an edge when a pair's callee can be the next pair's caller: the
    same symbol, and compatible patterns at each of the next pair's
    positions.

    A call carries all its callee's pattern arguments, while the callee's own
    pairs keep only its recursive ones, so the call's other arguments do not
    constrain the next pair.  The test reads only the two pattern tuples, so
    the pairs are filed by caller symbol and then by caller patterns, which
    `extract_dps` names canonically, and each pair is tested once per
    pattern group of its callee: a group that passes joins the pair's
    successors whole, in ascending order.
    """
    filed: dict[tuple[str, tuple[Pattern, ...]], list[int]] = {}
    for j, b in enumerate(dps):
        filed.setdefault((b.lhs_symbol, b.lhs_args), []).append(j)
    groups: dict[str, list[tuple[tuple[Pattern, ...], tuple[int, ...]]]] = {}
    for (symbol, args), members in filed.items():
        groups.setdefault(symbol, []).append((args, tuple(members)))
    adjacency: list[tuple[int, ...]] = []
    for a in dps:
        found = []
        for args, members in groups.get(a.rhs_symbol, ()):
            if all(map(pattern_unifiable, a.rhs_args, args)):
                found.append(members)
        adjacency.append(found[0] if len(found) == 1 else tuple(sorted(chain.from_iterable(found))))
    return DependencyGraph(dps, tuple(adjacency))


def sccs(g: DependencyGraph) -> list[tuple[int, ...]]:
    """Strongly connected components, each sorted, listed by smallest member.

    Tarjan's algorithm with an explicit stack of (node, successor iterator)
    frames, so the depth of the graph is not bounded by Python's recursion.
    A successor tuple held by several nodes is walked once, as one extra node
    between its holders and its members: paths between pairs stay, and the
    work is the nodes plus the distinct tuples' sizes.  The components are
    kept in `g.components`; each call returns a new list.
    """
    if hasattr(g, "components"):
        return list(g.components)
    n = len(g.nodes)
    holders = Counter(map(id, g.adjacency))
    adjacency, hub = list(g.adjacency), {}
    for v, succ in enumerate(g.adjacency):
        if holders[id(succ)] > 1:
            if id(succ) not in hub:
                hub[id(succ)] = len(adjacency)
                adjacency.append(succ)
            adjacency[v] = (hub[id(succ)],)
    index_of = [-1] * len(adjacency)
    low = [0] * len(adjacency)
    on_stack = [False] * len(adjacency)
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

    for root in range(n):
        if index_of[root] >= 0:
            continue
        visit(root)
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if index_of[w] < 0:
                    visit(w)
                    break
                if on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
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
                        if w < n:
                            component.append(w)
                        if w == v:
                            break
                    if component:
                        out.append(tuple(sorted(component)))
    DependencyGraph.components.__set__(g, tuple(sorted(out, key=lambda c: c[0])))
    return list(g.components)


def is_nontrivial(scc: tuple[int, ...], g: DependencyGraph) -> bool:
    """A component matters only if it contains an edge."""
    if len(scc) > 1:
        return True
    (v,) = scc
    return v in g.adjacency[v]


# ---------------------------------------------------------------------------
# Pattern embedding

NONE, WEAK, STRICT = 0, 1, 2
# two nodes, no child of the first embedding the second: their code from their children's
_JOIN = ((NONE, NONE, NONE), (NONE, WEAK, STRICT), (NONE, STRICT, STRICT))


def _subterms(p: Pattern) -> list[tuple[object, int, int]] | None:
    """The subterms of p, children first, or None if p holds a wildcard: a
    node as (None, left, right), with its children's positions, and any
    other as (key, -1, -1), keyed by its variable, or 0 for leaf, 1 for bot."""
    order, work = [], [p]
    while work:  # root, right, left: the reverse lists children first
        x = work.pop()
        if type(x) is PWild:
            return None
        order.append(x)
        if type(x) is PNode:
            work += (x.left, x.right)
    order.reverse()
    at = {id(x): i for i, x in reversed(list(enumerate(order)))}  # first positions
    return [(None, at[id(x.left)], at[id(x.right)]) if type(x) is PNode
            else (x.name if type(x) is PVar else 0 if type(x) is PLeaf else 1, -1, -1)
            for x in order]


def decrease(p: Pattern, q: Pattern) -> int:
    """How p embeds q: STRICT when q fits inside a proper sub-shape of p,
    else WEAK when they are equal, else NONE; p weakly embeds q unless NONE.

    A wildcard on either side leaves only equality.  Otherwise p strictly
    embeds q when a child of p weakly embeds q, or when both are nodes and
    one child of p strictly embeds the same child of q and the other weakly.
    For two nodes, every pair of their subterms is decided once, children
    first, into a table of |p|·|q| codes, as in the dynamic programs for
    tree inclusion (Kilpeläinen & Mannila, SIAM J. Comput. 24, 1995).
    """
    if p is q or type(p) is not PNode or type(q) is PWild:
        return WEAK if p is q or p == q else NONE
    if type(q) is not PNode:  # a variable, leaf or bot: strict when it occurs in p
        found, work = False, [p.left, p.right]
        while work:
            x = work.pop()
            if type(x) is PNode:
                work += (x.left, x.right)
            elif type(x) is PWild:
                return NONE
            elif x is q or type(x) is type(q) is PVar and x.name == q.name:
                found = True
        return STRICT if found else NONE
    if p == q:
        return WEAK
    ps, qs = _subterms(p), _subterms(q)
    if ps is None or qs is None:
        return NONE
    rows: list[list[int]] = []
    for key, pl, pr in ps:
        if key is not None:
            rows.append([WEAK if k == key else NONE for k, _, _ in qs])
        else:
            left, right = rows[pl], rows[pr]
            rows.append([STRICT if left[j] or right[j] else NONE if k is not None
                         else _JOIN[left[ql]][right[qr]] for j, (k, ql, qr) in enumerate(qs)])
    return rows[-1][-1]


# ---------------------------------------------------------------------------
# Cycle criterion

class SccCheck(Record, failing_node=None, cycle=None, search_space=1):
    """The decrease check of the component `nodes` under `indices`, sorted
    by symbol.

    `strict` and `weak` list the nodes that decrease strictly and weakly,
    up to `failing_node`, the first that does not decrease.  Otherwise
    `cycle` is a cycle of weak nodes, if there is one.  `search_space` counts
    the candidate assignments of the index search, 1 unless given, and is
    0, with no indices, when a symbol in the component has no recursive
    argument.
    """

    __slots__ = ("nodes", "indices", "strict", "weak", "failing_node", "cycle", "search_space")

    @property
    def ok(self) -> bool:
        return self.search_space > 0 and self.failing_node is None and self.cycle is None


def find_cycle(nodes: list[int], successors: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Some cycle lying entirely within the given node set, or None.

    `successors[v]` lists the successors of node v in ascending order; only
    the given nodes' entries are read."""
    color = dict.fromkeys(nodes, 0)  # 1 while on the stack, 2 once done
    parent: dict[int, int] = {}
    for start in sorted(color):
        if color[start]:
            continue
        stack = [(start, iter(successors[start]))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            for w in it:
                seen = color.get(w)  # None: outside the node set
                if seen == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, iter(successors[w])))
                    break
                if seen == 1:
                    cycle = [v]
                    u = v
                    while u != w:
                        u = parent[u]
                        cycle.append(u)
                    cycle.reverse()
                    return tuple(cycle)
            else:
                color[v] = 2
                stack.pop()
    return None


def check_scc(
    scc: tuple[int, ...], g: DependencyGraph, indices: dict[str, int], search_space: int
) -> SccCheck:
    """Decide the decrease condition for one component under an index choice.

    Every node must weakly decrease from its caller index to its callee
    index, and after removing strictly decreasing nodes no cycle may remain.
    The result carries `search_space` as given.
    """
    strict: list[int] = []
    weak: list[int] = []

    def result(failing_node: int | None = None, cycle: tuple[int, ...] | None = None) -> SccCheck:
        return SccCheck(scc, tuple(sorted(indices.items())), tuple(strict), tuple(weak),
                        failing_node, cycle, search_space)

    for i in scc:
        dp = g.nodes[i]
        for symbol in (dp.lhs_symbol, dp.rhs_symbol):
            if symbol not in indices:
                raise ValueError(f"index assignment lacks symbol {symbol!r}")
        fi = indices[dp.lhs_symbol]
        gi = indices[dp.rhs_symbol]
        if not (1 <= fi <= len(dp.lhs_args)) or not (1 <= gi <= len(dp.rhs_args)):
            raise ValueError(f"index assignment out of range for node {i}")
        code = decrease(dp.lhs_args[fi - 1], dp.rhs_args[gi - 1])
        if code == NONE:
            return result(failing_node=i)
        (strict if code == STRICT else weak).append(i)
    # Only the weak nodes' successors are read: scanning every edge here
    # would cost O(E) per component and candidate assignment.
    return result(cycle=find_cycle(weak, g.adjacency))


def find_indices(scc: tuple[int, ...], g: DependencyGraph) -> SccCheck:
    """Search recursive-argument indices for the component, smallest first.

    Candidate counts come from the caller arities seen in the component; a
    symbol without recursive arguments leaves nothing to search.

    The result is that of trying every assignment in lexicographic order
    with `check_scc`: the first that works, or else the first with the
    longest prefix of passing nodes, with the number of assignments as its
    `search_space`.  A depth-first search over the sorted symbols finds it
    from one table per node of the `decrease` codes of its index pairs.  A
    node is checked at the later of its two symbols; a branch is cut once a
    decided node fails at a position no later than the best prefix found so
    far, since every assignment below it fails there too and comes later.
    A node is surely non-strict when no index pair makes it strict, or once
    its pair is chosen and is not.  If these nodes hold a cycle, no
    assignment below works (forward checking, Haralick & Elliott, 1980): a
    leaf where every node passes works exactly when they hold none, and once
    one has failed, it is the best near-miss and such branches are cut.
    `check_scc` runs once, on the result.
    """
    arity: dict[str, int] = {}
    for i in scc:
        dp = g.nodes[i]
        arity.setdefault(dp.lhs_symbol, len(dp.lhs_args))
    for i in scc:
        if (callee := g.nodes[i].rhs_symbol) not in arity:  # never in a component with internal edges
            raise ValueError(f"symbol {callee!r} never occurs as a caller in the component")
    symbols = sorted(arity)
    space = math.prod(arity[s] for s in symbols)
    if space == 0:
        return SccCheck(scc, (), (), (), search_space=0)
    if space == 1:  # one candidate: no tables to build
        return check_scc(scc, g, dict.fromkeys(symbols, 1), space)
    level = {s: d for d, s in enumerate(symbols)}
    # checks[d]: (position in scc, caller level, callee level, decrease
    # table) for the nodes whose later symbol is symbols[d]
    checks: list[list[tuple[int, int, int, list[list[int]]]]] = [[] for _ in symbols]
    never = []  # the nodes that no index pair makes strict
    for pos, i in enumerate(scc):
        dp = g.nodes[i]
        kf, kg = arity[dp.lhs_symbol], arity[dp.rhs_symbol]
        if kf > len(dp.lhs_args) or kg > len(dp.rhs_args):
            raise ValueError(f"index assignment out of range for node {i}")
        table = [[decrease(p, q) for q in dp.rhs_args[:kg]] for p in dp.lhs_args[:kf]]
        a, b = level[dp.lhs_symbol], level[dp.rhs_symbol]
        checks[max(a, b)].append((pos, a, b, table))
        if not any(STRICT in row for row in table):
            never.append(i)
    size, last = len(scc), len(symbols) - 1
    chosen = [-1] * len(symbols)  # zero-based index per level
    # first_fail[d]: the earliest position failing among nodes checked
    # above level d, or `size` when none fails; sure[d]: the nodes surely
    # non-strict above level d, and cyclic[d]: whether they hold a cycle
    first_fail = [size] * len(symbols)
    sure = [frozenset(never)] * len(symbols)
    cyclic = [find_cycle(never, g.adjacency) is not None] * len(symbols)
    best, best_score, d = None, -1, 0
    while d >= 0:
        if chosen[d] + 1 == arity[symbols[d]]:
            chosen[d] = -1
            d -= 1
            continue
        chosen[d] += 1
        fail, new = first_fail[d], []
        for pos, a, b, table in checks[d]:
            code = table[chosen[a]][chosen[b]]
            if code == WEAK:
                new.append(scc[pos])
            elif code == NONE and pos < fail:
                fail = pos
        if fail < size and fail <= best_score:
            continue  # nothing below can work or beat the best near-miss
        below = sure[d].union(new) if new else sure[d]
        # a cycle that is new passes through a new node and its successor there
        grown = len(below) > len(sure[d]) and any(w in below for v in new for w in g.adjacency[v])
        cycle = cyclic[d] or grown and find_cycle(list(below), g.adjacency) is not None
        if cycle and best_score == size:
            continue  # nothing below can work or beat the best near-miss
        if d < last:
            first_fail[d + 1], sure[d + 1], cyclic[d + 1] = fail, below, cycle
            d += 1
            continue
        combo = tuple(c + 1 for c in chosen)
        if fail == size and not cycle:
            return check_scc(scc, g, dict(zip(symbols, combo)), space)
        if fail > best_score:
            best, best_score = combo, fail
    assert best is not None
    return check_scc(scc, g, dict(zip(symbols, best)), space)


# ---------------------------------------------------------------------------
# Verdict

class Verdict(Record, failure=None):
    __slots__ = ("graph", "components", "certificates", "failure")

    @property
    def terminating(self) -> bool:
        return self.failure is None


def check_criterion(vsys: ValidatedSystem) -> Verdict:
    """Run the whole pipeline on a validated system and certify or give up.

    Components are processed independently and deterministically; the result
    is a function of the system alone.
    """
    graph = build_graph(extract_dps(vsys))
    components = tuple(sccs(graph))
    certificates: list[SccCheck] = []
    for scc in components:
        if is_nontrivial(scc, graph):
            found = find_indices(scc, graph)
            if not found.ok:
                return Verdict(graph, components, tuple(certificates), found)
            certificates.append(found)
    return Verdict(graph, components, tuple(certificates))
