"""Reduction on erased terms.

Rules fire by plain syntactic matching of their erased left-hand sides, beta
redexes contract with capture-avoiding substitution, and both close under
every term context including lambda bodies, so normal forms are strong.

Normalization is one post-order walk over the terms reachable from the
start term, on an explicit stack, with one memo of normal-form sets per call,
so each term is decided once.  A term is *rigid* when the head of its
application spine is `Node`, `Leaf` or a variable, or when it is a lambda.
A rigid term is never a redex at its root and stays rigid, so its children
are its arguments (a lambda's body), which reduce independently: its normal
forms are the head applied to every combination of theirs.  The children of
a *flexible* term, headed by a symbol or by an applied lambda, are its
one-step reducts, and its normal forms are the union of theirs, or the term
itself when it has none.  Divergence is found exactly: a term met again while
it is being decided lies on a cycle of reductions, or inside its own reduct.
No set of normal forms may grow past the fuel: each of them is a distinct
reachable term, so a set that large means the reduction graph is larger than
the fuel allows, and combining the forms of independent arguments cannot
build more terms than that.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterator

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
    Record,
    RewriteSystem,
    alpha_canonical,
    erase,
    erased_subst,
)


class ErasedRule(Record):
    __slots__ = ("lhs", "rhs", "rule_index")


def erased_rules(sys: RewriteSystem) -> tuple[ErasedRule, ...]:
    """Erase each rule: the lhs keeps only the head symbol and its
    constructor arguments, the rhs drops annotations wholesale."""
    out = []
    for index, rule in enumerate(sys.rules):
        lhs: ErasedTerm = ESym(rule.head)
        for arg in rule.recursive_args:
            lhs = EApp(lhs, erase(arg))
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
        elif l is not u and l != u:  # Leaf and Node are shared instances
            return None
    return binding


RuleIndex = dict[tuple[str, int], tuple[ErasedRule, ...]]


def rule_index(rules: tuple[ErasedRule, ...]) -> RuleIndex:
    """The rules by head symbol and number of arguments, in rule order: a
    term can only match the rules filed under its own spine head and length."""
    index: dict[tuple[str, int], list[ErasedRule]] = {}
    for r in rules:
        head, n = r.lhs, 0
        while isinstance(head, EApp):
            head, n = head.fun, n + 1
        assert isinstance(head, ESym)
        index.setdefault((head.name, n), []).append(r)
    return {key: tuple(group) for key, group in index.items()}


def _step(t: ErasedTerm, rules: RuleIndex) -> dict[ErasedTerm, None]:
    """Every one-step reduct of t, once each, in a fixed structural order:
    the redexes at the root of each spine prefix, shortest prefix first,
    then the reducts inside the head and inside each argument, left to right."""
    out: dict[ErasedTerm, None] = {}
    if isinstance(t, ELam):
        for u in _step(t.body, rules):
            out[ELam(t.binder, u)] = None
        return out
    prefixes = []  # reversed below: prefixes[k] is the head applied to k arguments
    u = t
    while isinstance(u, EApp):
        prefixes.append(u)
        u = u.fun
    prefixes.append(u)
    prefixes.reverse()
    head = u
    args = [p.arg for p in prefixes[1:]]  # type: ignore[union-attr]

    def rebuild(k: int, replaced: ErasedTerm) -> ErasedTerm:
        """t with its prefix of k arguments replaced."""
        for a in args[k:]:
            replaced = EApp(replaced, a)
        return replaced

    if isinstance(head, ESym):
        for k, prefix in enumerate(prefixes):
            for r in rules.get((head.name, k), ()):
                binding = match_lhs(r.lhs, prefix)
                if binding is not None:
                    out[rebuild(k, erased_subst(r.rhs, binding))] = None
    elif isinstance(head, ELam):
        if args:
            out[rebuild(1, erased_subst(head.body, {head.binder: args[0]}))] = None
        for u in _step(head.body, rules):
            out[rebuild(0, ELam(head.binder, u))] = None
    for i, a in enumerate(args):
        if not a.inert:
            for u in _step(a, rules):
                out[rebuild(i + 1, EApp(prefixes[i], u))] = None
    return out


def _parts(t: ErasedTerm) -> list[ErasedTerm] | None:
    """The parts of a rigid term: a lambda's body, or the head of an
    application spine and its arguments in order; None for a flexible term."""
    if isinstance(t, ELam):
        return [t.body]
    parts = []
    while isinstance(t, EApp):
        parts.append(t.arg)
        t = t.fun
    if isinstance(t, (ESym, ELam)):
        return None
    parts.append(t)
    parts.reverse()
    return parts


def _has_lambda(t: ErasedTerm) -> bool:
    work = [t]
    while work:
        u = work.pop()
        if isinstance(u, ELam):
            return True
        if isinstance(u, EApp):
            work += (u.fun, u.arg)
    return False


class NormalForms(Record):
    __slots__ = ("forms",)


class FuelExhausted(Record):
    __slots__ = ("frontier", "steps")


ReductionOutcome = NormalForms | FuelExhausted

# A frame of the walk: a term, whether it is rigid, an iterator over its
# children and the normal forms of those decided so far.
_Frame = tuple[ErasedTerm, bool, Iterator[ErasedTerm], list[tuple[ErasedTerm, ...]]]


def _exhausted(stop: ErasedTerm, stack: list[_Frame], expanded: int) -> FuelExhausted:
    """The outcome of a walk that stopped at `stop`: the frontier is that
    term and the flexible terms above the last rigid one on the stack."""
    frontier = [stop]
    for term, rigid, _, _ in reversed(stack):
        if rigid:
            break
        frontier.append(term)
    return FuelExhausted(tuple(sorted(dict.fromkeys(frontier), key=print_erased)), expanded)


def normalize(t: ErasedTerm, sys: RewriteSystem, fuel: int = 10000) -> ReductionOutcome:
    """Every normal form of t, or FuelExhausted if t may diverge.

    One post-order walk on an explicit stack decides each term once, with
    one memo from term to its normal forms (None while it is being
    decided).  Fuel counts the flexible terms decided and also bounds the
    size of every set of normal forms.  The outcome is FuelExhausted when
    the fuel runs out, when a term is met again while it is being decided
    (a cycle, or a term inside its own reduct), or when a term has more
    normal forms than the fuel.  Its frontier is the term where the walk
    stopped, with the flexible terms above the last rigid one on the stack.
    Normal forms are alpha-canonical.  The rule index, and whether a
    right-hand side holds a lambda, are kept in the system's `erased` slot
    from its first call on.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    if not hasattr(sys, "erased"):  # the first call on sys
        rules = erased_rules(sys)
        RewriteSystem.erased.__set__(sys, (rule_index(rules), any(_has_lambda(r.rhs) for r in rules)))
    index, lambda_rhs = sys.erased
    canonical = lambda_rhs or _has_lambda(t)
    memo: dict[ErasedTerm, tuple[ErasedTerm, ...] | None] = {}
    expanded = 0
    stack: list[_Frame] = [(t, True, iter((t,)), [])]  # the root, as the one part of a rigid frame
    while True:
        term, rigid, children, done = stack[-1]
        for u in children:
            if u.inert:
                done.append((u,))
                continue
            if canonical and rigid:  # a reduct is canonical already
                u = alpha_canonical(u)
            found = memo.get(u, ())  # one lookup: a term's forms are never empty
            if found:
                done.append(found)
                continue
            if found is None:
                return _exhausted(u, stack, expanded)
            parts = _parts(u)
            if parts is None:
                if expanded >= fuel:
                    return _exhausted(u, stack, expanded)
                expanded += 1
                succ = _step(u, index)
                if canonical:
                    succ = dict.fromkeys(alpha_canonical(v) for v in succ)
                stack.append((u, False, iter(succ), []))
            else:
                stack.append((u, True, iter(parts), []))
            memo[u] = None
            break
        else:
            if len(stack) == 1:
                return NormalForms(frozenset(done[0]))
            if not rigid:
                if len(done) == 1:
                    forms = done[0]
                else:
                    forms = tuple(dict.fromkeys(chain.from_iterable(done))) if done else (term,)
                    if len(forms) > fuel:
                        return _exhausted(term, stack, expanded)
            elif isinstance(term, ELam):  # a lambda occurs, so terms are canonical
                forms = tuple(alpha_canonical(ELam(term.binder, v)) for v in done[0])
            else:
                out = list(done[0])  # the head
                for f in done[1:]:
                    if len(out) * len(f) > fuel:
                        return _exhausted(term, stack, expanded)
                    out = [EApp(g, v) for g in out for v in f]
                forms = tuple(alpha_canonical(v) for v in out) if canonical else tuple(out)
            memo[term] = forms
            stack.pop()
            stack[-1][3].append(forms)


def pattern_form(v: ErasedTerm) -> Pattern:
    """The pattern shape of a normal form: trees map to their spine, lambdas
    to the wildcard, and neutral terms, which are opaque, to the empty
    pattern."""
    if isinstance(v, ELeaf):
        return PLeaf()
    if isinstance(v, ELam):
        return PWild()
    if isinstance(v, EApp) and isinstance(v.fun, EApp) and isinstance(v.fun.fun, ENode):
        return PNode(pattern_form(v.fun.arg), pattern_form(v.arg))
    return PBottom()
