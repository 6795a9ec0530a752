"""Seeded benchmark inputs, each with its expected answer from construction.

Every input is built here from the seed, and every expected answer follows
from how the input was built; nothing in this module runs treeterm.  The op
lists come back already ordered for a time-limited run (see `spread`).
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
WORKLOADS = ("ring", "clique", "wide", "reduce")

# Inverse golden ratio: consecutive ranks land far apart in the run order.
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Expected:
    """What `treeterm check --json` must report for a generated system."""

    terminating: bool
    symbols: int
    rules: int
    pairs: int
    edges: int
    # TERMINATING: the index every symbol gets, and the (caller, callee)
    # symbol edges of the pairs that only weakly decrease.
    index: int | None = None
    weak: frozenset[tuple[str, str]] = frozenset()
    # UNKNOWN: assignments tried, and the symbol edges the residual cycle uses.
    search_space: int | None = None
    cycle: frozenset[tuple[str, str]] | None = None


@dataclass(frozen=True)
class CheckOp:
    label: str
    size: int
    text: str
    expected: Expected


@dataclass(frozen=True)
class ReduceOp:
    label: str
    size: int
    system: str
    term: str
    expected: tuple[str, ...]


# ---------------------------------------------------------------------------
# Run order

def spread(ops: list, rng: random.Random) -> list:
    """Reorder ops given cheapest first so that every prefix samples the whole
    cost range evenly.  A run stops when its time is up, usually inside a
    pass; this keeps the partial pass representative of the full one."""
    offset = rng.random()
    order = sorted(range(len(ops)), key=lambda r: (offset + r * _GOLDEN) % 1.0)
    return [ops[r] for r in order]


def log_strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """Log-uniform sizes in [lo, hi], one draw per stratum, ascending."""
    return [round(lo * (hi / lo) ** ((r + rng.random()) / count)) for r in range(count)]


# ---------------------------------------------------------------------------
# ring-n: a cycle of n unary symbols, each strictly shrinking its argument

def ring_text(n: int) -> str:
    lines = [f"symbol f{i} : forall a. B(a) -> B(_) recursive 1;" for i in range(n)]
    for i in range(n):
        lines.append(f"rule f{i}[node(a,b)] (Node[a,b] x y) -> f{(i + 1) % n}[a] x;")
        lines.append(f"rule f{i}[leaf] Leaf -> Leaf;")
    return "\n".join(lines) + "\n"


def ring_expected(n: int) -> Expected:
    return Expected(True, symbols=n, rules=2 * n, pairs=n, edges=n, index=1)


# Ring-n above about 990 dies with RecursionError in the recursive Tarjan of
# `analysis.sccs`.  The timed ops stay well below that, so no op fails; run.py
# probes RING_DEFECT_N, untimed, in the traced run to keep the defect in view.
RING_MAX_N = 800
RING_DEFECT_N = 1300


def ring_op(n: int) -> CheckOp:
    return CheckOp(f"ring-{n}", n, ring_text(n), ring_expected(n))


def ring_ops(rng: random.Random, count: int = 100) -> list[CheckOp]:
    return [ring_op(n) for n in log_strata(rng, count, 10, RING_MAX_N)]


# ---------------------------------------------------------------------------
# clique-n: every symbol calls every symbol; some calls pass the tree through

def clique_text(n: int, passthrough: frozenset[tuple[int, int]]) -> str:
    lines = [f"symbol f{i} : forall a. B(a) -> B(_) recursive 1;" for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (i, j) in passthrough:
                rhs = f"f{j}[node(a,b)] (Node[a,b] x y)"
            else:
                rhs = f"f{j}[a] x"
            lines.append(f"rule f{i}[node(a,b)] (Node[a,b] x y) -> {rhs};")
    return "\n".join(lines) + "\n"


def clique_expected(n: int, passthrough: frozenset[tuple[int, int]], cyclic: bool) -> Expected:
    edges = frozenset((f"f{i}", f"f{j}") for i, j in passthrough)
    common = dict(symbols=n, rules=n * n, pairs=n * n, edges=n ** 3)
    if cyclic:
        # Only the pass-through pairs are weak, and they form one simple cycle.
        return Expected(False, search_space=1, cycle=edges, **common)
    return Expected(True, index=1, weak=edges, **common)


def clique_passthrough(rng: random.Random, n: int, cyclic: bool) -> frozenset[tuple[int, int]]:
    if cyclic:
        members = rng.sample(range(n), rng.randint(1, 3))
        return frozenset(zip(members, members[1:] + members[:1]))
    position = {s: p for p, s in enumerate(rng.sample(range(n), n))}
    forward = [(a, b) for a in range(n) for b in range(n) if position[a] < position[b]]
    return frozenset(rng.sample(forward, rng.randint(1, n)))


def clique_ops(rng: random.Random, count: int = 100) -> list[CheckOp]:
    ops = []
    cyclic_slot = rng.randrange(4)
    for r, n in enumerate(log_strata(rng, count, 4, 20)):
        cyclic = r % 4 == cyclic_slot
        passthrough = clique_passthrough(rng, n, cyclic)
        kind = "cycle" if cyclic else "dag"
        ops.append(CheckOp(f"clique-{n}/{kind}{len(passthrough)}", n,
                           clique_text(n, passthrough),
                           clique_expected(n, passthrough, cyclic)))
    return ops


# ---------------------------------------------------------------------------
# wide-n×k: a ring of n symbols with k tree arguments, at most one shrinking

def wide_text(n: int, k: int, j: int | None, rng: random.Random) -> str:
    params = [f"a{p}" for p in range(k)]
    arrows = " -> ".join(f"B({a})" for a in params)
    lines = [f"symbol f{i} : forall {' '.join(params)}. {arrows} -> B(_) recursive {k};"
             for i in range(n)]
    lhs_pats, lhs_args = list(params), [f"x{p}" for p in range(k)]
    rhs_pats, rhs_args = list(params), list(lhs_args)
    if j is not None:
        lhs_pats[j], lhs_args[j] = "node(b,c)", "(Node[b,c] y z)"
        rhs_pats[j], rhs_args[j] = "b", "y"
    rules = [
        f"rule f{i}[{','.join(lhs_pats)}] {' '.join(lhs_args)} -> "
        f"f{(i + 1) % n}[{','.join(rhs_pats)}] {' '.join(rhs_args)};"
        for i in range(n)
    ]
    rng.shuffle(rules)
    return "\n".join(lines + rules) + "\n"


def wide_expected(n: int, k: int, j: int | None) -> Expected:
    common = dict(symbols=n, rules=n, pairs=n, edges=n)
    if j is None:
        # Every equal assignment leaves the whole ring weak; unequal ones
        # break weak decrease.  So all k^n are tried and the ring remains.
        ring = frozenset((f"f{i}", f"f{(i + 1) % n}") for i in range(n))
        return Expected(False, search_space=k ** n, cycle=ring, **common)
    return Expected(True, index=j + 1, **common)


def wide_ops(rng: random.Random) -> list[CheckOp]:
    """Every (n, k, j-or-none) for n in 3..8 and k in 2..4: 72 systems, of
    which the 18 without a shrinking argument are the near-miss quarter."""
    variants = []
    for n, k in itertools.product(range(3, 9), range(2, 5)):
        for j in (None, *range(k)):
            # Assignments the smallest-first search tries before it stops.
            tried = k ** n if j is None else j * k ** (n - 1) + 1
            variants.append((tried, n, k, j))
    variants.sort(key=lambda v: (v[0], v[1], v[2], -1 if v[3] is None else v[3]))
    ops = []
    for tried, n, k, j in variants:
        name = f"wide-{n}x{k}/" + ("none" if j is None else f"j{j}")
        ops.append(CheckOp(name, tried, wide_text(n, k, j, rng), wide_expected(n, k, j)))
    return ops


def verify_check(expected: Expected, report_json: str) -> str | None:
    """The mismatch kind between a `check --json` report and the expected
    answer, or None when they agree."""
    doc = json.loads(report_json)
    want_outcome = "terminating" if expected.terminating else "unknown"
    if doc["outcome"] != want_outcome:
        return "outcome"
    if (len(doc["symbols"]), len(doc["rules"])) != (expected.symbols, expected.rules):
        return "size"
    pairs = doc["dependencyPairs"]
    if (len(pairs), len(doc["edges"])) != (expected.pairs, expected.edges):
        return "graph"
    symbol_edge = [(p["lhsSymbol"], p["rhsSymbol"]) for p in pairs]
    every_node = list(range(len(pairs)))
    if expected.terminating:
        if doc["failure"] is not None or len(doc["certificates"]) != 1:
            return "certificate"
        cert = doc["certificates"][0]
        weak = {symbol_edge[i] for i in cert["weak"]}
        if (cert["nodes"] != every_node
                or cert["indices"] != {f"f{i}": expected.index for i in range(expected.symbols)}
                or sorted(cert["strict"] + cert["weak"]) != every_node
                or len(weak) != len(cert["weak"]) or weak != expected.weak):
            return "certificate"
        return None
    failure = doc["failure"]
    if doc["certificates"] or failure is None:
        return "failure"
    cycle = failure["cycle"] or []
    chained = all(symbol_edge[a][1] == symbol_edge[b][0]
                  for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    if (failure["scc"] != every_node
            or failure["searchSpace"] != expected.search_space
            or not chained
            or len(set(cycle)) != len(cycle)
            or {symbol_edge[i] for i in cycle} != expected.cycle):
        return "failure"
    return None


# ---------------------------------------------------------------------------
# reduce: every fixture symbol on every ground tree of depth <= 3

Tree = tuple | None  # None is Leaf, (left, right) is Node left right


def ground_trees(depth: int) -> list[Tree]:
    if depth == 0:
        return [None]
    smaller = ground_trees(depth - 1)
    return [None] + [(a, b) for a in smaller for b in smaller]


def tree_nodes(t: Tree) -> int:
    return 0 if t is None else 1 + tree_nodes(t[0]) + tree_nodes(t[1])


def tree_text(t: Tree) -> str:
    """A tree in the erased-term syntax `treeterm reduce` prints."""
    return "Leaf" if t is None else f"Node {tree_arg(t[0])} {tree_arg(t[1])}"


def tree_arg(t: Tree) -> str:
    return "Leaf" if t is None else f"({tree_text(t)})"


def applied_text(head: str, args: tuple[Tree, ...]) -> str:
    return " ".join([head, *(tree_arg(a) for a in args)])


def reduce_expected(system: str, symbol: str, args: tuple[Tree, ...]) -> tuple[str, ...]:
    """Normal forms by hand from the fixture rules (see fixtures/*.trs)."""
    if system == "app.trs":
        if symbol == "app":  # app t u -> (\x. \y. x y) t u -> t u
            t, u = args
            return ("Leaf " + tree_arg(u),) if t is None else (f"{tree_text(t)} {tree_arg(u)}",)
        return ("Leaf",)  # f -> app ... -> g (Node Leaf Leaf) -> Leaf; g t -> Leaf or f
    (t,) = args
    if symbol == "i":
        return (tree_text(t),)
    if symbol == "h":  # walks the left spine down to h Leaf, which is stuck
        return ("h Leaf",)
    if symbol == "g" and t is None:  # g Leaf -> f (h Leaf), stuck: h Leaf is no Node
        return ("f (h Leaf)",)
    return ("f Leaf",)  # f and g on a Node recurse into the left child, down to f Leaf


REDUCE_SYMBOLS = {
    "app.trs": {"app": 2, "f": 0, "g": 1},
    "fgih.trs": {"f": 1, "g": 1, "h": 1, "i": 1},
}


def reduce_ops() -> list[ReduceOp]:
    """807 ops, grouped by symbol and ascending in tree size within a group,
    so that the deep `f` and `g` calls on fgih take adjacent ranks."""
    trees = ground_trees(3)
    ops = []
    for system, arities in REDUCE_SYMBOLS.items():
        for symbol, arity in arities.items():
            group = []
            for args in itertools.product(trees, repeat=arity):
                size = sum(tree_nodes(a) for a in args)
                term = applied_text(symbol, args)
                group.append(ReduceOp(f"{system}: {term}", size, system, term,
                                      reduce_expected(system, symbol, args)))
            ops.extend(sorted(group, key=lambda op: op.size))
    return ops


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------

def build(workload: str, seed: int) -> tuple[list, object]:
    """The run order of a workload's ops for a seed, and a cheap op to warm
    up with before timing."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ring":
        ops = ring_ops(rng)
    elif workload == "clique":
        ops = clique_ops(rng)
    elif workload == "wide":
        ops = wide_ops(rng)
    elif workload == "reduce":
        ops = reduce_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return spread(ops, rng), min(ops, key=lambda op: op.size)
