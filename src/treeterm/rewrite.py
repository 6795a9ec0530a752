"""Reduction on erased terms.

Rules fire by plain syntactic matching of their erased left-hand sides, beta
redexes contract with capture-avoiding substitution, and both close under
every term context including lambda bodies, so normal forms are strong.

Normalization computes every normal form reachable from the start term, with
one memo table of normal-form sets per call.  A term is *rigid* when the head
of its application spine is `Node`, `Leaf` or a variable, or when it is a
lambda.  A rigid term is never a redex at its root and stays rigid, so its
arguments (a lambda's body) reduce independently: its normal forms are the
head applied to every combination of theirs, and it diverges exactly when one
of them does.  Only *flexible* terms, headed by a symbol or by an applied
lambda, get an exhaustive depth-first search of their reduction graph, and a
rigid state met there is answered from the memo.  Divergence is found
exactly: a search that meets a state on its own stack has found a cycle, and
a term whose normal forms are asked for while they are being computed
reduces to a term that contains it.  No set of normal forms may grow past
the fuel: each of them is a distinct reachable state, so a set that large
means the reduction graph is larger than the fuel allows, and combining the
forms of independent arguments cannot build more terms than that.
"""
from __future__ import annotations

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
    erase_constructor,
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


def _rigid(t: ErasedTerm) -> bool:
    if isinstance(t, ELam):
        return True
    while isinstance(t, EApp):
        t = t.fun
    return isinstance(t, (ENode, ELeaf, EVar))


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


class _Diverges(Exception):
    """The search stops: a cycle, a term inside its own reduct, or no fuel."""

    def __init__(self, frontier: tuple[ErasedTerm, ...]):
        self.frontier = frontier


class _Reducer:
    """The state of one `normalize` call.

    `memo` maps each term whose normal forms were asked for (under its
    alpha-canonical key when lambdas can occur) to those forms, or to None
    while they are being computed.  `expanded` counts the flexible states
    expanded so far, against `fuel`, which also caps each set of forms."""

    def __init__(self, rules: RuleIndex, fuel: int, canonical: bool):
        self.rules = rules
        self.fuel = fuel
        self.canonical = canonical
        self.expanded = 0
        self.memo: dict[ErasedTerm, tuple[ErasedTerm, ...] | None] = {}

    def forms(self, t: ErasedTerm) -> tuple[ErasedTerm, ...]:
        if t.inert:
            return (t,)
        if self.canonical:
            t = alpha_canonical(t)
        found = self.memo.get(t, ())  # one lookup: a term's forms are never empty
        if found:
            return found
        if found is None:
            raise _Diverges((t,))
        self.memo[t] = None
        found = self._split(t) if _rigid(t) else self._search(t)
        self.memo[t] = found
        return found

    def _split(self, t: ErasedTerm) -> tuple[ErasedTerm, ...]:
        """The normal forms of a rigid term, from those of its parts."""
        if isinstance(t, ELam):
            out = [ELam(t.binder, u) for u in self.forms(t.body)]
        else:
            args = []
            head = t
            while isinstance(head, EApp):
                args.append(head.arg)
                head = head.fun
            choices = []
            for a in reversed(args):  # a loop, not a comprehension: one frame less per level
                choices.append(self.forms(a))
            out = [head]
            for forms in choices:
                if len(out) * len(forms) > self.fuel:
                    raise _Diverges((t,))
                out = [EApp(f, u) for f in out for u in forms]
        if self.canonical:
            return tuple(alpha_canonical(v) for v in out)
        return tuple(out)

    def _search(self, root: ErasedTerm) -> tuple[ErasedTerm, ...]:
        """Depth-first search of the flexible states reachable from root."""
        normals: dict[ErasedTerm, None] = {}
        color: dict[ErasedTerm, bool] = {}  # True while on the stack
        stack: list[tuple[ErasedTerm, Iterator[ErasedTerm]]] = []

        def push(k: ErasedTerm) -> None:
            if self.expanded >= self.fuel:
                raise _Diverges((k, *(s for s, _ in stack)))
            self.expanded += 1
            succ = _step(k, self.rules)
            if self.canonical:
                succ = dict.fromkeys(alpha_canonical(u) for u in succ)
            if not succ:
                normals[k] = None
            color[k] = True
            stack.append((k, iter(succ)))

        push(root)
        while stack:
            k, it = stack[-1]
            for w in it:
                if _rigid(w):
                    normals.update(dict.fromkeys(self.forms(w)))
                    if len(normals) > self.fuel:
                        raise _Diverges((w, *(s for s, _ in stack)))
                    continue
                on_stack = color.get(w)
                if on_stack:
                    raise _Diverges((w, *(s for s, _ in stack)))
                if on_stack is None:
                    push(w)
                    break
            else:
                color[k] = False
                stack.pop()
        return tuple(normals)


def normalize(t: ErasedTerm, sys: RewriteSystem, fuel: int = 10000) -> ReductionOutcome:
    """Every normal form of t, or FuelExhausted if t may diverge.

    Fuel counts expanded flexible states and also bounds the size of every
    set of normal forms.  The outcome is FuelExhausted when the fuel runs
    out, when a search meets a state on its own stack (a cycle), when a term
    reduces to one that contains it, or when a term has more normal forms
    than the fuel.  Its frontier is the search stack with the state it could
    not take, or the term that reappeared or has too many forms.  Normal
    forms are alpha-canonical.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    rules = erased_rules(sys)
    canonical = _has_lambda(t) or any(_has_lambda(r.rhs) for r in rules)
    reducer = _Reducer(rule_index(rules), fuel, canonical)
    try:
        forms = reducer.forms(t)
    except _Diverges as stop:
        frontier = tuple(sorted(dict.fromkeys(stop.frontier), key=print_erased))
        return FuelExhausted(frontier=frontier, steps=reducer.expanded)
    return NormalForms(frozenset(forms))


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
