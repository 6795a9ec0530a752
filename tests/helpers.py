"""Shared generators and brute-force references for the test suite.

Everything here is deterministic given a seeded random.Random instance so
the acceptance runs are reproducible.
"""
from __future__ import annotations

import random
import re
from collections import defaultdict, deque
from itertools import count, permutations, product

from treeterm.analysis import (
    NONE,
    STRICT,
    WEAK,
    DependencyGraph,
    DependencyPair,
    SccCheck,
    check_scc,
    pattern_unifiable,
)
from treeterm.rewrite import (
    ErasedRule,
    FuelExhausted,
    NormalForms,
    ReductionOutcome,
    _step,
    erased_rules,
    match_lhs,
    rule_index,
)
from treeterm.syntax import KEYWORDS, ParseError, print_erased
from treeterm.terms import (
    AnnotatedTerm,
    App,
    Arrow,
    Base,
    ConLeaf,
    ConNode,
    ConVar,
    EApp,
    ELam,
    ELeaf,
    ENode,
    ErasedTerm,
    ESym,
    EVar,
    Forall,
    Lam,
    LeafCon,
    NodeCon,
    PatApp,
    PatLam,
    Pattern,
    PBottom,
    PLeaf,
    PNode,
    PVar,
    PWild,
    RefinementType,
    RewriteRule,
    RewriteSystem,
    Signature,
    SymbolInfo,
    SymbolRef,
    TermVar,
    alpha_canonical,
    erased_subst,
    fresh_name,
    pattern_subst,
    pattern_vars,
    type_free_vars,
    type_subst,
)
from treeterm.typecheck import Context, pattern_sub, synthesize, type_sub

# ---------------------------------------------------------------------------
# References: pattern and type predicates, type checking, unification,
# one-step reduction

def pattern_is_minimal(p: Pattern) -> bool:
    """True when p contains neither a wildcard nor the empty pattern."""
    if isinstance(p, (PWild, PBottom)):
        return False
    if isinstance(p, PNode):
        return pattern_is_minimal(p.left) and pattern_is_minimal(p.right)
    return True


def pattern_is_closed(p: Pattern) -> bool:
    return not pattern_vars(p)


def pattern_size(p: Pattern) -> int:
    """Number of node constructors in p."""
    if isinstance(p, PNode):
        return 1 + pattern_size(p.left) + pattern_size(p.right)
    return 0


def _has_wildcard(p: Pattern) -> bool:
    if isinstance(p, PWild):
        return True
    if isinstance(p, PNode):
        return _has_wildcard(p.left) or _has_wildcard(p.right)
    return False


def embeds_strict(p: Pattern, q: Pattern) -> bool:
    """p strictly embeds q: q fits inside a proper sub-shape of p.

    Wildcards stand for unknown shapes, so any wildcard occurrence defeats
    the strict relation.  The recursive definition, exponential in the depth
    of p; `analysis.decrease` decides it once per pair of subterms.
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


def reference_decrease(p: Pattern, q: Pattern) -> int:
    """The code `analysis.decrease` gives, from the two relations above."""
    return STRICT if embeds_strict(p, q) else WEAK if embeds_weak(p, q) else NONE


def subst_pattern(t: RefinementType, var: str, p: Pattern) -> RefinementType:
    """Substitute a single pattern variable in a type, avoiding capture."""
    return type_subst(t, {var: p})


def alpha_eq_type(a: RefinementType, b: RefinementType) -> bool:
    def pat_eq(p: Pattern, q: Pattern, ea: dict[str, int], eb: dict[str, int]) -> bool:
        if isinstance(p, PVar) and isinstance(q, PVar):
            ka = ea.get(p.name, p.name)
            kb = eb.get(q.name, q.name)
            return ka == kb
        if type(p) is not type(q):
            return False
        if isinstance(p, PNode):
            assert isinstance(q, PNode)
            return pat_eq(p.left, q.left, ea, eb) and pat_eq(p.right, q.right, ea, eb)
        return True

    def go(x: RefinementType, y: RefinementType, ea: dict[str, int], eb: dict[str, int], depth: int) -> bool:
        if isinstance(x, Base) and isinstance(y, Base):
            return pat_eq(x.pattern, y.pattern, ea, eb)
        if isinstance(x, Arrow) and isinstance(y, Arrow):
            return go(x.dom, y.dom, ea, eb, depth) and go(x.cod, y.cod, ea, eb, depth)
        if isinstance(x, Forall) and isinstance(y, Forall):
            ea2 = dict(ea)
            eb2 = dict(eb)
            ea2[x.binder] = depth
            eb2[y.binder] = depth
            return go(x.body, y.body, ea2, eb2, depth + 1)
        return False

    return go(a, b, {}, {}, 0)


def check(sig: Signature, ctx: Context, t: AnnotatedTerm, ty: RefinementType) -> bool:
    """True when the synthesized type of t is a subtype of ty."""
    return type_sub(synthesize(sig, ctx, t), ty)


def sequential_instantiate(ty: RefinementType, patterns: list[Pattern]) -> RefinementType | None:
    """Reference instantiation of a pattern-application spine, one pattern at a
    time, as `synthesize` did before it substituted a whole spine at once;
    None when a pattern meets no quantifier."""
    for p in patterns:
        if not isinstance(ty, Forall):
            return None
        ty = type_subst(ty.body, {ty.binder: p})
    return ty


def reference_type_sub(t: RefinementType, u: RefinementType) -> bool:
    """Reference subtyping that renames one quantifier level at a time, as
    `type_sub` did before it renamed a whole common prefix at once."""
    if isinstance(t, Base) and isinstance(u, Base):
        return pattern_sub(t.pattern, u.pattern)
    if isinstance(t, Arrow) and isinstance(u, Arrow):
        return reference_type_sub(u.dom, t.dom) and reference_type_sub(t.cod, u.cod)
    if isinstance(t, Forall) and isinstance(u, Forall):
        common = fresh_name(t.binder, type_free_vars(t.body) | type_free_vars(u.body))
        tb = type_subst(t.body, {t.binder: PVar(common)})
        ub = type_subst(u.body, {u.binder: PVar(common)})
        return reference_type_sub(tb, ub)
    return False


def alpha_eq_erased(a: ErasedTerm, b: ErasedTerm) -> bool:
    return alpha_canonical(a) == alpha_canonical(b)


def _assert_no_wildcard(p: Pattern) -> None:
    if isinstance(p, PWild):
        raise ValueError("unification input must not contain wildcards")
    if isinstance(p, PNode):
        _assert_no_wildcard(p.left)
        _assert_no_wildcard(p.right)


def _occurs(name: str, p: Pattern) -> bool:
    if isinstance(p, PVar):
        return p.name == name
    if isinstance(p, PNode):
        return _occurs(name, p.left) or _occurs(name, p.right)
    return False


def unify_patterns(p: Pattern, q: Pattern) -> dict[str, Pattern] | None:
    """Most general unifier of two wildcard-free patterns, or None.

    The empty pattern is an ordinary constant here, and binding a variable
    to a pattern containing it fails the occurs check.
    """
    _assert_no_wildcard(p)
    _assert_no_wildcard(q)
    subst: dict[str, Pattern] = {}

    def bind(name: str, value: Pattern) -> bool:
        value = pattern_subst(value, subst)
        if isinstance(value, PVar) and value.name == name:
            return True
        if _occurs(name, value):
            return False
        for key in list(subst):
            subst[key] = pattern_subst(subst[key], {name: value})
        subst[name] = value
        return True

    work = [(p, q)]
    while work:
        a, b = work.pop()
        a = pattern_subst(a, subst)
        b = pattern_subst(b, subst)
        if isinstance(a, PVar):
            if not bind(a.name, b):
                return None
        elif isinstance(b, PVar):
            if not bind(b.name, a):
                return None
        elif isinstance(a, PNode) and isinstance(b, PNode):
            work.append((a.left, b.left))
            work.append((a.right, b.right))
        elif type(a) is not type(b):
            return None
    return subst


def step(t: ErasedTerm, sys: RewriteSystem) -> frozenset[ErasedTerm]:
    """All one-step reducts of t at any position."""
    return frozenset(_step(t, rule_index(erased_rules(sys))))


# ---------------------------------------------------------------------------
# The exhaustive reducer that `rewrite.normalize` replaced, kept as the
# reference it is compared against: it searches every interleaving of
# redexes, so it is exact but exponential in the number of independent ones.

def reference_step(t: ErasedTerm, rules: tuple[ErasedRule, ...]) -> frozenset[ErasedTerm]:
    out: set[ErasedTerm] = set()
    for r in rules:
        binding = match_lhs(r.lhs, t)
        if binding is not None:
            out.add(erased_subst(r.rhs, binding))
    if isinstance(t, EApp) and isinstance(t.fun, ELam):
        out.add(erased_subst(t.fun.body, {t.fun.binder: t.arg}))
    if isinstance(t, EApp):
        for u in reference_step(t.fun, rules):
            out.add(EApp(u, t.arg))
        for u in reference_step(t.arg, rules):
            out.add(EApp(t.fun, u))
    elif isinstance(t, ELam):
        for u in reference_step(t.body, rules):
            out.add(ELam(t.binder, u))
    return frozenset(out)


def reference_normalize(t: ErasedTerm, sys: RewriteSystem, fuel: int = 10000) -> ReductionOutcome:
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
        succ = {alpha_canonical(u) for u in reference_step(k, rules)}
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


# ---------------------------------------------------------------------------
# The one-scan tokenizer that `syntax.tokenize` replaced, kept as the
# reference it is compared against: one pass over the whole text, with
# newlines matched as tokens of their own and kinds found by string tests.

_REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<newline>\n)
      | [^\S\n]+ | \#[^\n]*
      | (?P<token>->|/\\|\\|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[()\[\],;:.])
      | (?P<other>.)
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, line_start = 1, 0
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "newline":
            line += 1
            line_start = m.end()
        elif group is not None:
            value = m.group()
            col = m.start() - line_start + 1
            if group == "other":
                raise ParseError(f"unexpected character {value!r}", line, col)
            if value.isdigit():
                kind = "nat"
            elif value.isidentifier() and value != "_" and value not in KEYWORDS:
                kind = "ident"
            else:  # keywords, "_", punctuation, arrows and lambdas are their own kind
                kind = value
            tokens.append((kind, value, line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Enumerations

def ground_trees(max_depth: int) -> list[ErasedTerm]:
    """All ground constructor trees of depth at most max_depth."""
    if max_depth <= 0:
        return [ELeaf()]
    smaller = ground_trees(max_depth - 1)
    out: list[ErasedTerm] = [ELeaf()]
    for a, b in product(smaller, smaller):
        out.append(EApp(EApp(ENode(), a), b))
    return out


def closed_patterns(max_depth: int, include_wild: bool = True) -> list[Pattern]:
    """All closed patterns of depth at most max_depth."""
    atoms: list[Pattern] = [PLeaf(), PBottom()]
    if include_wild:
        atoms.append(PWild())
    if max_depth <= 0:
        return atoms
    smaller = closed_patterns(max_depth - 1, include_wild)
    return atoms + [PNode(a, b) for a, b in product(smaller, smaller)]


# two rules with one left-hand side: not confluent, so `c t` has two normal forms
CHOICE_TEXT = (
    "symbol c : forall a. B(a) -> B(_) recursive 1;\n"
    "rule c[a] x -> x;\n"
    "rule c[a] x -> Node[_,_] x Leaf;\n"
)


def choice_spine(depth: int) -> ErasedTerm:
    """A right spine of `depth` Nodes, each with `c Leaf` on its left: under
    CHOICE_TEXT it has 2**depth normal forms."""
    t: ErasedTerm = ELeaf()
    for _ in range(depth):
        t = EApp(EApp(ENode(), EApp(ESym("c"), ELeaf())), t)
    return t


def spine_tree(depth: int) -> ErasedTerm:
    """A left spine of `depth` Nodes, each with a Leaf on its right."""
    t: ErasedTerm = ELeaf()
    for _ in range(depth):
        t = EApp(EApp(ENode(), t), ELeaf())
    return t


def full_tree(depth: int) -> ErasedTerm:
    """The complete tree of the given depth: 2**depth - 1 Nodes."""
    t: ErasedTerm = ELeaf()
    for _ in range(depth):
        t = EApp(EApp(ENode(), t), t)
    return t


def term_arity(ty: RefinementType) -> int:
    """Number of term arguments a symbol of this type expects."""
    while isinstance(ty, Forall):
        ty = ty.body
    count = 0
    while isinstance(ty, Arrow):
        count += 1
        ty = ty.cod
    return count


# ---------------------------------------------------------------------------
# Random patterns and types

PVAR_POOL = ("a", "b", "c", "d")
TVAR_POOL = ("x", "y", "z", "w")


def random_pattern(rng: random.Random, depth: int, vars: tuple[str, ...] = PVAR_POOL,
                   wild: bool = True, bottom: bool = True) -> Pattern:
    choices = ["leaf", "var"]
    if wild:
        choices.append("wild")
    if bottom:
        choices.append("bot")
    if depth > 0:
        choices.extend(["node", "node"])
    kind = rng.choice(choices)
    if kind == "leaf":
        return PLeaf()
    if kind == "var":
        return PVar(rng.choice(vars))
    if kind == "wild":
        return PWild()
    if kind == "bot":
        return PBottom()
    return PNode(
        random_pattern(rng, depth - 1, vars, wild, bottom),
        random_pattern(rng, depth - 1, vars, wild, bottom),
    )


def freshen(p: Pattern, prefix: str) -> Pattern:
    """Reference linearisation: every variable and wildcard occurrence becomes
    its own variable, named prefix0, prefix1, ... from left to right."""
    names = count()

    def go(u: Pattern) -> Pattern:
        if isinstance(u, (PVar, PWild)):
            return PVar(f"{prefix}{next(names)}")
        if isinstance(u, PNode):
            left = go(u.left)
            return PNode(left, go(u.right))
        return u

    return go(p)


def random_closed_pattern(rng: random.Random, depth: int, wild: bool = True,
                          bottom: bool = True) -> Pattern:
    return _closed(rng, depth, wild, bottom)


def _closed(rng: random.Random, depth: int, wild: bool, bottom: bool) -> Pattern:
    choices = ["leaf"]
    if wild:
        choices.append("wild")
    if bottom:
        choices.append("bot")
    if depth > 0:
        choices.extend(["node", "node"])
    kind = rng.choice(choices)
    if kind == "leaf":
        return PLeaf()
    if kind == "wild":
        return PWild()
    if kind == "bot":
        return PBottom()
    return PNode(_closed(rng, depth - 1, wild, bottom), _closed(rng, depth - 1, wild, bottom))


def pattern_below(rng: random.Random, q: Pattern) -> Pattern:
    """Some pattern p with p below q in the subtype order on patterns."""
    if rng.random() < 0.2:
        return PBottom()
    if isinstance(q, PWild):
        return random_pattern(rng, 2)
    if isinstance(q, PNode):
        return PNode(pattern_below(rng, q.left), pattern_below(rng, q.right))
    return q


def pattern_above(rng: random.Random, p: Pattern) -> Pattern:
    """Some pattern q with p below q."""
    if rng.random() < 0.2:
        return PWild()
    if isinstance(p, PBottom):
        return random_pattern(rng, 2)
    if isinstance(p, PNode):
        return PNode(pattern_above(rng, p.left), pattern_above(rng, p.right))
    return p


def closed_pattern_above(rng: random.Random, p: Pattern) -> Pattern:
    """Like pattern_above but never introduces variables (p closed)."""
    if rng.random() < 0.2:
        return PWild()
    if isinstance(p, PBottom):
        return _closed(rng, 2, wild=True, bottom=True)
    if isinstance(p, PNode):
        return PNode(closed_pattern_above(rng, p.left), closed_pattern_above(rng, p.right))
    return p


def random_type(rng: random.Random, depth: int, vars: tuple[str, ...] = PVAR_POOL) -> RefinementType:
    choices = ["base", "base"]
    if depth > 0:
        choices.extend(["arrow", "forall"])
    kind = rng.choice(choices)
    if kind == "base":
        return Base(random_pattern(rng, min(depth, 2), vars))
    if kind == "arrow":
        return Arrow(random_type(rng, depth - 1, vars), random_type(rng, depth - 1, vars))
    binder = rng.choice(vars)
    return Forall(binder, random_type(rng, depth - 1, vars))


def type_below(rng: random.Random, t: RefinementType) -> RefinementType:
    """A subtype of t (contravariant in arrow domains)."""
    if isinstance(t, Base):
        return Base(pattern_below(rng, t.pattern))
    if isinstance(t, Arrow):
        return Arrow(type_above(rng, t.dom), type_below(rng, t.cod))
    return Forall(t.binder, type_below(rng, t.body))


def type_above(rng: random.Random, t: RefinementType) -> RefinementType:
    if isinstance(t, Base):
        return Base(pattern_above(rng, t.pattern))
    if isinstance(t, Arrow):
        return Arrow(type_below(rng, t.dom), type_above(rng, t.cod))
    return Forall(t.binder, type_above(rng, t.body))


# ---------------------------------------------------------------------------
# Embedding-ordered pattern pairs (wildcard-free, closed)

def weakly_above_pattern(rng: random.Random, q: Pattern) -> Pattern:
    if rng.random() < 0.5:
        return q
    return strictly_above_pattern(rng, q)


def strictly_above_pattern(rng: random.Random, q: Pattern) -> Pattern:
    """A wildcard-free pattern strictly embedding q (q wildcard-free)."""
    options = ["wrap-left", "wrap-right"]
    if isinstance(q, PNode):
        options.extend(["comp-left", "comp-right"])
    kind = rng.choice(options)
    junk = _closed(rng, 1, wild=False, bottom=True)
    if kind == "wrap-left":
        return PNode(weakly_above_pattern(rng, q), junk)
    if kind == "wrap-right":
        return PNode(junk, weakly_above_pattern(rng, q))
    assert isinstance(q, PNode)
    if kind == "comp-left":
        return PNode(strictly_above_pattern(rng, q.left), weakly_above_pattern(rng, q.right))
    return PNode(weakly_above_pattern(rng, q.left), strictly_above_pattern(rng, q.right))


# ---------------------------------------------------------------------------
# Erased terms with prescribed shapes

def neutral_normal_form(rng: random.Random) -> ErasedTerm:
    """A neutral erased term with no redex and no rule symbol inside."""
    head = EVar(rng.choice(("n", "m", "k")))
    term: ErasedTerm = head
    for _ in range(rng.randint(0, 2)):
        arg: ErasedTerm = rng.choice((ELeaf(), EVar("q"), ELam("z", EVar("z"))))
        term = EApp(term, arg)
    return term


def term_with_pattern_form(rng: random.Random, p: Pattern) -> ErasedTerm:
    """A normal form v with pattern form exactly p (p closed, wildcard-free)."""
    if isinstance(p, PLeaf):
        return ELeaf()
    if isinstance(p, PBottom):
        return neutral_normal_form(rng)
    if isinstance(p, PNode):
        return EApp(
            EApp(ENode(), term_with_pattern_form(rng, p.left)),
            term_with_pattern_form(rng, p.right),
        )
    raise ValueError(f"unsupported pattern for shaping: {p!r}")


def term_matching_pattern(rng: random.Random, p: Pattern, neutral_anywhere: bool = False) -> ErasedTerm:
    """A normal form v that matches closed pattern p."""
    if neutral_anywhere and rng.random() < 0.3:
        return neutral_normal_form(rng)
    if isinstance(p, PWild):
        return rng.choice((
            ELam("z", EVar("z")),
            ELeaf(),
            EApp(EApp(ENode(), ELeaf()), ELeaf()),
            neutral_normal_form(rng),
        ))
    if isinstance(p, PBottom):
        return neutral_normal_form(rng)
    if isinstance(p, PLeaf):
        return ELeaf()
    assert isinstance(p, PNode)
    return EApp(
        EApp(ENode(), term_matching_pattern(rng, p.left, neutral_anywhere)),
        term_matching_pattern(rng, p.right, neutral_anywhere),
    )


def _is_full_node(t: ErasedTerm) -> bool:
    return isinstance(t, EApp) and isinstance(t.fun, EApp) and isinstance(t.fun.fun, ENode)


def tree_like_normal_form(rng: random.Random, depth: int) -> ErasedTerm:
    """A normal form shaped like a tree: leaf, neutral, or node of such."""
    return term_matching_pattern(rng, _closed(rng, depth, wild=False, bottom=True))


def weakly_embedding_term(rng: random.Random, u: ErasedTerm) -> ErasedTerm:
    if rng.random() < 0.5:
        return u
    return strictly_embedding_term(rng, u)


def strictly_embedding_term(rng: random.Random, u: ErasedTerm) -> ErasedTerm:
    """A normal form strictly embedding u (u tree-like, never a lambda)."""
    options = ["wrap-left", "wrap-right"]
    if _is_full_node(u):
        options.extend(["comp-left", "comp-right"])
    kind = rng.choice(options)
    junk = tree_like_normal_form(rng, 1) if rng.random() < 0.8 else ELam("z", EVar("z"))
    if kind == "wrap-left":
        return EApp(EApp(ENode(), weakly_embedding_term(rng, u)), junk)
    if kind == "wrap-right":
        return EApp(EApp(ENode(), junk), weakly_embedding_term(rng, u))
    u1, u2 = u.fun.arg, u.arg
    if kind == "comp-left":
        return EApp(EApp(ENode(), strictly_embedding_term(rng, u1)), weakly_embedding_term(rng, u2))
    return EApp(EApp(ENode(), weakly_embedding_term(rng, u1)), strictly_embedding_term(rng, u2))


def random_valuation(rng: random.Random, names: frozenset[str], depth: int = 2) -> dict[str, frozenset[Pattern]]:
    return {
        name: frozenset(
            _closed(rng, depth, wild=True, bottom=True)
            for _ in range(rng.randint(1, 3))
        )
        for name in names
    }


def random_erased_term(rng: random.Random, symbols: tuple[str, ...], depth: int,
                       bound: tuple[str, ...] = ()) -> ErasedTerm:
    choices = ["leaf", "tree"]
    if bound:
        choices.append("var")
    if symbols:
        choices.append("sym")
    if depth > 0:
        choices.extend(["app", "lam", "node"])
    kind = rng.choice(choices)
    if kind == "leaf":
        return ELeaf()
    if kind == "tree":
        return rng.choice(ground_trees(2))
    if kind == "var":
        return EVar(rng.choice(bound))
    if kind == "sym":
        return ESym(rng.choice(symbols))
    if kind == "app":
        return EApp(
            random_erased_term(rng, symbols, depth - 1, bound),
            random_erased_term(rng, symbols, depth - 1, bound),
        )
    if kind == "lam":
        binder = f"x{len(bound)}"
        return ELam(binder, random_erased_term(rng, symbols, depth - 1, bound + (binder,)))
    return EApp(
        EApp(ENode(), random_erased_term(rng, symbols, depth - 1, bound)),
        random_erased_term(rng, symbols, depth - 1, bound),
    )


# ---------------------------------------------------------------------------
# Random well-formed system syntax (for parser round-trips)

SYMBOL_POOL = ("s", "t0", "u0", "fn", "gn", "aux", "step1", "walk")


def random_constructor(rng: random.Random, depth: int) -> ConLeaf | ConVar | ConNode:
    kinds = ["var", "leaf"]
    if depth > 0:
        kinds.extend(["node", "node"])
    kind = rng.choice(kinds)
    if kind == "var":
        return ConVar(rng.choice(TVAR_POOL))
    if kind == "leaf":
        return ConLeaf()
    if rng.random() < 0.5:
        ann_left, ann_right = None, None
    else:
        ann_left = random_pattern(rng, 1)
        ann_right = random_pattern(rng, 1)
    return ConNode(ann_left, ann_right,
                   random_constructor(rng, depth - 1),
                   random_constructor(rng, depth - 1))


def random_annotated_term(rng: random.Random, symbols: tuple[str, ...], depth: int,
                          bound: tuple[str, ...] = ()) -> object:
    choices = ["leaf", "node"]
    if bound:
        choices.extend(["var", "var"])
    if symbols:
        choices.append("sym")
    if depth > 0:
        choices.extend(["app", "lam", "patlam", "patapp"])
    kind = rng.choice(choices)
    if kind == "leaf":
        return LeafCon()
    if kind == "node":
        return NodeCon()
    if kind == "var":
        return TermVar(rng.choice(bound))
    if kind == "sym":
        return SymbolRef(rng.choice(symbols))
    if kind == "app":
        return App(
            random_annotated_term(rng, symbols, depth - 1, bound),
            random_annotated_term(rng, symbols, depth - 1, bound),
        )
    if kind == "lam":
        binder = rng.choice(TVAR_POOL)
        return Lam(binder, random_type(rng, 1),
                   random_annotated_term(rng, symbols, depth - 1, bound + (binder,)))
    if kind == "patlam":
        return PatLam(rng.choice(PVAR_POOL),
                      random_annotated_term(rng, symbols, depth - 1, bound))
    return PatApp(
        random_annotated_term(rng, symbols, depth - 1, bound),
        random_pattern(rng, 1),
    )


def random_system(rng: random.Random) -> RewriteSystem:
    """A syntactically well-formed system; not necessarily type-correct."""
    names = tuple(rng.sample(SYMBOL_POOL, rng.randint(1, 3)))
    signature = Signature({})
    quant_counts: dict[str, int] = {}
    for name in names:
        k = rng.randint(0, 2)
        extra = rng.randint(0, 1)
        quants = tuple(f"a{i}" for i in range(k + extra))
        tail: RefinementType = Base(random_pattern(rng, 2, quants or PVAR_POOL))
        ty = tail
        for q in reversed(quants[:k]):
            ty = Arrow(Base(PVar(q)), ty)
        for q in reversed(quants):
            ty = Forall(q, ty)
        signature.entries[name] = SymbolInfo(ty, k)
        quant_counts[name] = len(quants)
    rules = []
    for _ in range(rng.randint(0, 3)):
        head = rng.choice(names)
        pats = tuple(random_pattern(rng, 2) for _ in range(quant_counts[head]))
        cons = tuple(random_constructor(rng, 1) for _ in range(rng.randint(0, 2)))
        rhs = random_annotated_term(rng, names, 3)
        rules.append(RewriteRule(head, pats, cons, rhs))
    return RewriteSystem(signature, tuple(rules))


# ---------------------------------------------------------------------------
# Brute-force graph reference

def has_simple_cycle(nodes: list[int], edges: frozenset[tuple[int, int]]) -> bool:
    """Exhaustive simple-cycle existence among the given nodes."""
    allowed = list(nodes)
    for length in range(1, len(allowed) + 1):
        for tup in permutations(allowed, length):
            closed = all(
                (tup[i], tup[(i + 1) % length]) in edges for i in range(length)
            )
            if closed:
                return True
    return False


def successors(edges: frozenset[tuple[int, int]]) -> defaultdict[int, list[int]]:
    """The ascending successor list of every node, as `find_cycle` reads them."""
    out: defaultdict[int, list[int]] = defaultdict(list)
    for a, b in sorted(edges):
        out[a].append(b)
    return out


def graph_from_edges(nodes: tuple[DependencyPair, ...],
                     edges: frozenset[tuple[int, int]]) -> DependencyGraph:
    """The dependency graph on nodes with the given edges."""
    succ = successors(edges)
    return DependencyGraph(nodes, tuple(tuple(succ[v]) for v in range(len(nodes))))


def random_digraph(rng: random.Random, n: int, density: float = 0.3) -> frozenset[tuple[int, int]]:
    return frozenset(
        (i, j)
        for i in range(n)
        for j in range(n)
        if rng.random() < density
    )


def reference_sccs(n: int, edges: frozenset[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Strongly connected components by mutual reachability: a BFS from every
    node, components sorted and listed by smallest member."""
    succ: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in edges:
        succ[a].add(b)

    def reachable(v: int) -> set[int]:
        seen, todo = {v}, deque([v])
        while todo:
            for w in succ[todo.popleft()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    reach = [reachable(v) for v in range(n)]
    components = {tuple(sorted(w for w in reach[v] if v in reach[w])) for v in range(n)}
    return sorted(components)


def reference_extract_dps(vsys) -> tuple[DependencyPair, ...]:
    """The dependency pairs of a validated system with the variables of
    every pair renamed `a, b, ...` in first-occurrence order, whether or
    not they are named so already; the first of equal pairs is kept."""
    pairs: dict[DependencyPair, None] = {}
    for vr in vsys.rules:
        for ref, args in vr.call_sites:
            names: dict[str, Pattern] = {}
            work = list(reversed(vr.recursive_patterns + args))
            while work:
                p = work.pop()
                if isinstance(p, PVar) and p.name not in names:
                    i = len(names)
                    names[p.name] = PVar("abcdefghijklmnopqrstuvwxyz"[i] if i < 26 else f"x{i}")
                elif isinstance(p, PNode):
                    work += (p.right, p.left)
            lhs = tuple(pattern_subst(p, names) for p in vr.recursive_patterns)
            rhs = tuple(pattern_subst(p, names) for p in args)
            pairs.setdefault(DependencyPair(vr.rule.head, lhs, ref.name, rhs, rule_index=vr.index))
    return tuple(pairs)


def reference_edges(dps: tuple[DependencyPair, ...]) -> frozenset[tuple[int, int]]:
    """The dependency-graph edges by testing all pairs of pairs; a call's
    patterns past the next pair's recursive ones are not compared."""
    return frozenset(
        (i, j)
        for i, a in enumerate(dps)
        for j, b in enumerate(dps)
        if a.rhs_symbol == b.lhs_symbol
        and all(pattern_unifiable(pa, pb) for pa, pb in zip(a.rhs_args, b.lhs_args))
    )


def reference_find_indices(scc: tuple[int, ...], g: DependencyGraph) -> SccCheck:
    """The index search by running `check_scc` on every assignment in
    lexicographic order."""
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
    space = 1
    for s in symbols:
        space *= arity[s]
    if space == 0:
        return SccCheck(scc, (), (), (), search_space=0)
    best: SccCheck | None = None
    for combo in product(*(range(1, arity[s] + 1) for s in symbols)):
        result = check_scc(scc, g, dict(zip(symbols, combo)), space)
        if result.ok:
            return result
        if best is None or len(result.strict) + len(result.weak) > len(best.strict) + len(best.weak):
            best = result
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Generated system families

def ring_text(n: int) -> str:
    """ring-n: n unary symbols, each shrinking its tree and calling the next."""
    lines = [f"symbol f{i} : forall a. B(a) -> B(_) recursive 1;" for i in range(n)]
    for i in range(n):
        lines.append(f"rule f{i}[node(a,b)] (Node[a,b] x y) -> f{(i + 1) % n}[a] x;")
        lines.append(f"rule f{i}[leaf] Leaf -> Leaf;")
    return "\n".join(lines) + "\n"


def clique_text(n: int, passthrough: frozenset[tuple[int, int]] = frozenset()) -> str:
    """clique-n: every one of n unary symbols calls every symbol on a subtree,
    except that fi passes its whole tree to fj for each (i, j) in
    `passthrough`, as in the perfbench clique workload."""
    lines = [f"symbol f{i} : forall a. B(a) -> B(_) recursive 1;" for i in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = f"f{j}[node(a,b)] (Node[a,b] x y)" if (i, j) in passthrough else f"f{j}[a] x"
            lines.append(f"rule f{i}[node(a,b)] (Node[a,b] x y) -> {rhs};")
    return "\n".join(lines) + "\n"


def wide_text(n: int, k: int, j: int | None = -1) -> str:
    """wide-n×k: a ring of n symbols with k tree arguments; each rule keeps
    every argument but the j-th (the last by default), which it shrinks.
    With j None nothing shrinks, so no index assignment works.  wide-self-k
    is wide-1×k with j None: its one rule applies its symbol to a spine of k
    patterns."""
    params = [f"a{p}" for p in range(k)]
    arrows = " -> ".join(f"B({a})" for a in params)
    lines = [f"symbol f{i} : forall {' '.join(params)}. {arrows} -> B(_) recursive {k};"
             for i in range(n)]
    lhs_pats, lhs_args = list(params), [f"x{p}" for p in range(k)]
    rhs_pats, rhs_args = list(params), list(lhs_args)
    if j is not None:
        lhs_pats[j], lhs_args[j] = "node(b,c)", "(Node[b,c] y z)"
        rhs_pats[j], rhs_args[j] = "b", "y"
    for i in range(n):
        lines.append(f"rule f{i}[{','.join(lhs_pats)}] {' '.join(lhs_args)} -> "
                     f"f{(i + 1) % n}[{','.join(rhs_pats)}] {' '.join(rhs_args)};")
    return "\n".join(lines) + "\n"


def patlam_text(k: int) -> str:
    """patlam-k: one symbol whose result type is quantified k times under an
    arrow, and one rule whose right-hand side abstracts k patterns under other
    names, so validation checks a k-quantifier prefix against another."""
    quantified = f"(forall {' '.join(f'a{p}' for p in range(k))}. B(a0) -> B(a0))"
    abstraction = "".join(f"/\\b{p}. " for p in range(k))
    return (f"symbol h : B(leaf) -> {quantified} recursive 0;\n"
            f"rule h -> \\z:B(leaf). {abstraction}\\x:B(b0). x;\n")


def all_weak_text(n: int, k: int) -> str:
    """all-weak-n×k: a ring of n symbols with k tree arguments, each rule
    calling the next symbol on the same k `Leaf`s.  Every index pair
    decreases weakly and none strictly, so no assignment works."""
    params = [f"a{p}" for p in range(k)]
    arrows = " -> ".join(f"B({a})" for a in params)
    leaves, trees = ",".join(["leaf"] * k), " ".join(["Leaf"] * k)
    lines = [f"symbol f{i} : forall {' '.join(params)}. {arrows} -> B(leaf) recursive {k};"
             for i in range(n)]
    lines += [f"rule f{i}[{leaves}] {trees} -> f{(i + 1) % n}[{leaves}] {trees};" for i in range(n)]
    return "\n".join(lines) + "\n"


def deep_pattern_text(d: int) -> str:
    """deep-pattern-d: one rule whose first pattern is a left spine of d
    nodes over `leaf`, and whose call passes the same spine over the
    variable c.  Deciding the first index pair walks both spines and finds
    no decrease; the second decreases only weakly, so the verdict is
    UNKNOWN."""
    def spine(p: str) -> str:
        for _ in range(d):
            p = f"node({p},leaf)"
        return p

    def tree(p: str, bottom: str) -> str:
        # a tree of type B(spine(p)) with `bottom` of type B(p) at its bottom
        for _ in range(d):
            bottom, p = f"(Node[{p},leaf] {bottom} Leaf)", f"node({p},leaf)"
        return bottom

    return ("symbol f : forall a b. B(a) -> B(b) -> B(_) recursive 2;\n"
            f"rule f[{spine('leaf')}, c] {tree('leaf', 'Leaf')} y -> "
            f"f[{spine('c')}, c] {tree('c', 'y')} y;\n")
