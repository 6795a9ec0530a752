"""Reduction on erased terms.

Rules fire by plain syntactic matching of their erased left-hand sides, beta
redexes contract with capture-avoiding substitution, and both close under
every term context including lambda bodies, so normal forms are strong.
Normalization explores the reduction graph exhaustively with memoization and
reports every normal form reachable from the start term.
"""
from __future__ import annotations

from dataclasses import dataclass

from .syntax import print_erased
from .terms import (
    EApp,
    ELam,
    ELeaf,
    ENode,
    ErasedTerm,
    ESym,
    EVar,
    Pattern,
    PBottom,
    PLeaf,
    PNode,
    PWild,
    RewriteSystem,
    alpha_canonical,
    erase,
    erase_constructor,
    erased_subst,
)


@dataclass(frozen=True)
class ErasedRule:
    lhs: ErasedTerm
    rhs: ErasedTerm
    rule_index: int


def erased_rules(sys: RewriteSystem) -> tuple[ErasedRule, ...]:
    """Erase each rule: the lhs keeps only the head symbol and its
    constructor arguments, the rhs drops annotations wholesale."""
    out = []
    for index, rule in enumerate(sys.rules):
        lhs: ErasedTerm = ESym(rule.head)
        for arg in rule.recursive_args:
            lhs = EApp(lhs, erase_constructor(arg))
        out.append(ErasedRule(lhs, erase(rule.rhs), index))
    return tuple(out)


def match_lhs(lhs: ErasedTerm, t: ErasedTerm) -> dict[str, ErasedTerm] | None:
    """First-order syntactic matching; a repeated variable must meet
    syntactically equal subterms."""
    binding: dict[str, ErasedTerm] = {}
    work = [(lhs, t)]
    while work:
        l, u = work.pop()
        if isinstance(l, EVar):
            if l.name in binding:
                if binding[l.name] != u:
                    return None
            else:
                binding[l.name] = u
        elif isinstance(l, EApp):
            if not isinstance(u, EApp):
                return None
            work.append((l.fun, u.fun))
            work.append((l.arg, u.arg))
        elif l != u:
            return None
    return binding


def _step(t: ErasedTerm, rules: tuple[ErasedRule, ...]) -> frozenset[ErasedTerm]:
    out: set[ErasedTerm] = set()
    for r in rules:
        binding = match_lhs(r.lhs, t)
        if binding is not None:
            out.add(erased_subst(r.rhs, binding))
    if isinstance(t, EApp) and isinstance(t.fun, ELam):
        out.add(erased_subst(t.fun.body, {t.fun.binder: t.arg}))
    if isinstance(t, EApp):
        for u in _step(t.fun, rules):
            out.add(EApp(u, t.arg))
        for u in _step(t.arg, rules):
            out.add(EApp(t.fun, u))
    elif isinstance(t, ELam):
        for u in _step(t.body, rules):
            out.add(ELam(t.binder, u))
    return frozenset(out)


@dataclass(frozen=True)
class NormalForms:
    forms: frozenset[ErasedTerm]


@dataclass(frozen=True)
class FuelExhausted:
    frontier: tuple[ErasedTerm, ...]
    steps: int


ReductionOutcome = NormalForms | FuelExhausted


def normalize(t: ErasedTerm, sys: RewriteSystem, fuel: int = 10000) -> ReductionOutcome:
    """Exhaustive search of the reduction graph from t.

    States are memoized under alpha-canonical keys and fuel counts expanded
    states.  Reaching a state that is still being explored means the graph
    has a cycle, i.e. an infinite reduction; the search stops right there
    and reports the budget outcome rather than a misleading set of normal
    forms.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    rules = erased_rules(sys)
    normals: set[ErasedTerm] = set()
    color: dict[ErasedTerm, int] = {}
    expanded = 0

    def expand(k: ErasedTerm) -> list[ErasedTerm]:
        nonlocal expanded
        expanded += 1
        succ = {alpha_canonical(u) for u in _step(k, rules)}
        if not succ:
            normals.add(k)
        return sorted(succ, key=print_erased)

    def exhausted(blocked: ErasedTerm, stack: list) -> FuelExhausted:
        greys = [entry[0] for entry in stack]
        frontier = tuple(sorted({blocked, *greys}, key=print_erased))
        return FuelExhausted(frontier=frontier, steps=expanded)

    root = alpha_canonical(t)
    color[root] = 1
    stack: list[tuple[ErasedTerm, object]] = [(root, iter(expand(root)))]
    while stack:
        k, it = stack[-1]
        advanced = False
        for w in it:  # type: ignore[union-attr]
            state = color.get(w, 0)
            if state == 1:
                return exhausted(w, stack)
            if state == 2:
                continue
            if expanded >= fuel:
                return exhausted(w, stack)
            color[w] = 1
            stack.append((w, iter(expand(w))))
            advanced = True
            break
        if not advanced:
            color[k] = 2
            stack.pop()
    return NormalForms(frozenset(normals))


def is_value(t: ErasedTerm) -> bool:
    """Lambdas, Leaf, and fully applied Node are the values; a partially
    applied Node is not."""
    if isinstance(t, (ELam, ELeaf)):
        return True
    return isinstance(t, EApp) and isinstance(t.fun, EApp) and isinstance(t.fun.fun, ENode)


def is_neutral(t: ErasedTerm) -> bool:
    return not is_value(t)


def node_parts(t: ErasedTerm) -> tuple[ErasedTerm, ErasedTerm] | None:
    """The two children when t is a fully applied Node, else None."""
    if isinstance(t, EApp) and isinstance(t.fun, EApp) and isinstance(t.fun.fun, ENode):
        return t.fun.arg, t.arg
    return None


def pattern_form(v: ErasedTerm) -> Pattern:
    """The pattern shape of a normal form: neutral terms are opaque, trees
    map to their spine, lambdas to the wildcard."""
    if is_neutral(v):
        return PBottom()
    if isinstance(v, ELeaf):
        return PLeaf()
    parts = node_parts(v)
    if parts is not None:
        return PNode(pattern_form(parts[0]), pattern_form(parts[1]))
    return PWild()
