"""Semantic constructions used to cross-check the analysis.

These functions interpret patterns against erased normal forms, read through
their pattern shape (`treeterm.rewrite.pattern_form`): the matching relation
between values and closed patterns, valuations sending pattern variables to
sets of closed patterns, a matching procedure that recovers a valuation from
concrete arguments, and an embedding preorder with its size measure.  Nothing here feeds the verdict;
the point is an independent implementation the property tests can compare
against.
"""
from __future__ import annotations

from itertools import product

from treeterm.rewrite import FuelExhausted, normalize, pattern_form
from treeterm.terms import (
    EApp,
    ELam,
    ELeaf,
    ENode,
    ErasedTerm,
    Pattern,
    PLeaf,
    PNode,
    PVar,
    PWild,
    RewriteSystem,
)
from helpers import alpha_eq_erased, pattern_is_closed


class FuelExhaustedError(Exception):
    """Raised when an argument of match_patterns cannot be normalized
    within the step budget."""

    def __init__(self, outcome: FuelExhausted):
        self.outcome = outcome
        super().__init__(f"normalization budget spent after {outcome.steps} states")


Valuation = dict[str, frozenset[Pattern]]


def is_value(t: ErasedTerm) -> bool:
    """Lambdas, Leaf, and fully applied Node are the values; a partially
    applied Node is not."""
    if isinstance(t, (ELam, ELeaf)):
        return True
    return node_parts(t) is not None


def is_neutral(t: ErasedTerm) -> bool:
    return not is_value(t)


def node_parts(t: ErasedTerm) -> tuple[ErasedTerm, ErasedTerm] | None:
    """The two children when t is a fully applied Node, else None."""
    if isinstance(t, EApp) and isinstance(t.fun, EApp) and isinstance(t.fun.fun, ENode):
        return t.fun.arg, t.arg
    return None


def term_matches(v: ErasedTerm, p: Pattern) -> bool:
    """Whether a normal form inhabits a closed pattern: wildcards and
    neutral terms match unconditionally, trees match componentwise."""
    if not pattern_is_closed(p):
        raise ValueError("term_matches requires a closed pattern")
    if isinstance(p, PWild):
        return True
    if is_neutral(v):
        return True
    if isinstance(p, PNode):
        parts = node_parts(v)
        return (
            parts is not None
            and term_matches(parts[0], p.left)
            and term_matches(parts[1], p.right)
        )
    if isinstance(p, PLeaf):
        return isinstance(v, ELeaf)
    return False


def apply_valuation(p: Pattern, theta: Valuation) -> frozenset[Pattern]:
    """All closed patterns obtained by replacing each variable occurrence
    with an independent choice from the valuation."""
    if isinstance(p, PVar):
        if p.name not in theta:
            raise ValueError(f"valuation lacks variable {p.name!r}")
        return theta[p.name]
    if isinstance(p, PNode):
        lefts = apply_valuation(p.left, theta)
        rights = apply_valuation(p.right, theta)
        return frozenset(PNode(a, b) for a, b in product(lefts, rights))
    return frozenset((p,))


def match_patterns(
    ts: list[ErasedTerm] | tuple[ErasedTerm, ...],
    ps: list[Pattern] | tuple[Pattern, ...],
    sys: RewriteSystem,
    fuel: int = 10000,
) -> Valuation | None:
    """Recover a valuation from concrete arguments against their patterns.

    A variable collects the pattern forms of all normal forms of its term
    (repeated variables must meet equal terms up to renaming), leaf demands
    the Leaf term, and a node pattern decomposes a fully applied Node.
    Anything else leaves the match undefined.
    """
    if len(ts) != len(ps):
        return None
    bound: dict[str, ErasedTerm] = {}
    theta: Valuation = {}
    work = list(zip(ts, ps))
    while work:
        t, p = work.pop(0)
        if isinstance(p, PVar):
            if p.name in bound:
                if not alpha_eq_erased(bound[p.name], t):
                    return None
                continue
            outcome = normalize(t, sys, fuel)
            if isinstance(outcome, FuelExhausted):
                raise FuelExhaustedError(outcome)
            bound[p.name] = t
            theta[p.name] = frozenset(pattern_form(v) for v in outcome.forms)
        elif isinstance(p, PLeaf) and isinstance(t, ELeaf):
            continue
        elif isinstance(p, PNode):
            parts = node_parts(t)
            if parts is None:
                return None
            work.append((parts[0], p.left))
            work.append((parts[1], p.right))
        else:
            return None
    return theta


def term_embeds_strict(t: ErasedTerm, u: ErasedTerm) -> bool:
    """u fits strictly inside t: only a tree node can strictly embed, via a
    child or componentwise with one strict side."""
    parts_t = node_parts(t)
    if parts_t is None:
        return False
    t1, t2 = parts_t
    if term_embeds_weak(t1, u) or term_embeds_weak(t2, u):
        return True
    parts_u = node_parts(u)
    if parts_u is None:
        return False
    u1, u2 = parts_u
    return (
        term_embeds_strict(t1, u1) and term_embeds_weak(t2, u2)
    ) or (
        term_embeds_weak(t1, u1) and term_embeds_strict(t2, u2)
    )


def term_embeds_weak(t: ErasedTerm, u: ErasedTerm) -> bool:
    """Reflexive-ish companion of the strict embedding on tree-like normal
    forms: equal leaves, any two neutral terms, componentwise on trees, or
    an outright strict embedding.  Lambdas embed nothing and are embedded
    by nothing weakly."""
    if isinstance(t, ELeaf) and isinstance(u, ELeaf):
        return True
    if is_neutral(t) and is_neutral(u):
        return True
    if term_embeds_strict(t, u):
        return True
    parts_t = node_parts(t)
    parts_u = node_parts(u)
    if parts_t is not None and parts_u is not None:
        return term_embeds_weak(parts_t[0], parts_u[0]) and term_embeds_weak(
            parts_t[1], parts_u[1]
        )
    return False


def term_size(v: ErasedTerm) -> int:
    """Tree size of a normal form: nodes count one plus their children,
    everything else counts zero."""
    parts = node_parts(v)
    if parts is None:
        return 0
    return term_size(parts[0]) + term_size(parts[1]) + 1
