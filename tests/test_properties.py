"""Randomised invariants across the whole library."""
from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from treeterm.analysis import (
    STRICT,
    WEAK,
    DependencyGraph,
    DependencyPair,
    build_graph,
    decrease,
    find_indices,
    pattern_unifiable,
    sccs,
)
from treeterm.cli import _load
from treeterm.rewrite import FuelExhausted, NormalForms, normalize, pattern_form
from treeterm.syntax import (
    ParseError,
    parse_erased_term,
    parse_pattern,
    parse_system,
    parse_type,
    print_erased,
    print_pattern,
    print_rule,
    print_system,
    print_term,
    print_type,
    scan,
    tokenize,
)
from treeterm.terms import (
    Arrow,
    Base,
    ConLeaf,
    ConNode,
    ConVar,
    EApp,
    ENode,
    ESym,
    Forall,
    PatApp,
    PBottom,
    PLeaf,
    PNode,
    PVar,
    PWild,
    TermVar,
    alpha_canonical,
    pattern_subst,
    pattern_vars,
    quantifier_prefix,
    type_free_vars,
    type_subst,
)
from treeterm.typecheck import (
    ABSENT,
    POSITIVE,
    Context,
    TypeCheckError,
    min_type_lhs,
    pattern_sub,
    polarity,
    synthesize,
    type_sub,
    validate_signature,
)
from conftest import APP_PATH, FGIH_PATH, NONMINIMAL_PATH, load
from helpers import (
    CHOICE_TEXT,
    PVAR_POOL,
    alpha_eq_erased,
    alpha_eq_type,
    closed_pattern_above,
    closed_patterns,
    freshen,
    graph_from_edges,
    ground_trees,
    pattern_above,
    pattern_below,
    pattern_is_closed,
    pattern_is_minimal,
    pattern_size,
    random_closed_pattern,
    random_erased_term,
    random_pattern,
    random_system,
    random_type,
    random_valuation,
    reference_decrease,
    reference_edges,
    reference_find_indices,
    reference_normalize,
    reference_sccs,
    reference_tokenize,
    reference_type_sub,
    sequential_instantiate,
    step,
    strictly_above_pattern,
    subst_pattern,
    term_arity,
    term_matching_pattern,
    term_with_pattern_form,
    type_above,
    type_below,
    unify_patterns,
    weakly_above_pattern,
)
from oracle import (
    FuelExhaustedError,
    apply_valuation,
    match_patterns,
    term_embeds_strict,
    term_embeds_weak,
    term_matches,
)

FGIH = load(FGIH_PATH)
APP = load(APP_PATH)
NONMINIMAL = load(NONMINIMAL_PATH)
CHOICE = parse_system(CHOICE_TEXT)
EMPTY = parse_system("")


# ---------------------------------------------------------------------------
# Strategies

@st.composite
def patterns(draw, max_depth: int = 4):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        return draw(st.sampled_from([PLeaf(), PBottom(), PWild(), PVar("a"), PVar("b")]))
    kind = draw(st.sampled_from(["leaf", "bot", "wild", "var", "node", "node"]))
    if kind == "leaf":
        return PLeaf()
    if kind == "bot":
        return PBottom()
    if kind == "wild":
        return PWild()
    if kind == "var":
        return PVar(draw(st.sampled_from(["a", "b", "c"])))
    return PNode(draw(patterns(depth - 1)), draw(patterns(depth - 1)))


@st.composite
def types(draw, max_depth: int = 3):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        return Base(draw(patterns(2)))
    kind = draw(st.sampled_from(["base", "arrow", "forall"]))
    if kind == "base":
        return Base(draw(patterns(2)))
    if kind == "arrow":
        return Arrow(draw(types(depth - 1)), draw(types(depth - 1)))
    return Forall(draw(st.sampled_from(["a", "b"])), draw(types(depth - 1)))


@st.composite
def rngs(draw):
    return random.Random(draw(st.integers(0, 2**32 - 1)))


@st.composite
def prefixed_types(draw):
    """A type under a prefix of up to four quantifiers named a, b or c, so
    binders repeat and patterns drawn over the same names can be captured."""
    ty = draw(types())
    for binder in draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=4)):
        ty = Forall(binder, ty)
    return ty


@st.composite
def constructor_terms(draw, max_depth: int = 3):
    kinds = ["var", "leaf", "node", "annotated"] if max_depth else ["var", "leaf"]
    kind = draw(st.sampled_from(kinds))
    if kind == "var":
        return ConVar(draw(st.sampled_from(["x", "y", "z"])))
    if kind == "leaf":
        return ConLeaf()
    annotations = (draw(patterns(2)), draw(patterns(2))) if kind == "annotated" else (None, None)
    return ConNode(*annotations, draw(constructor_terms(max_depth - 1)),
                   draw(constructor_terms(max_depth - 1)))


def wrap_prefixes(draw, elements: list[str]) -> str:
    """Join the elements of a spine, with redundant parentheses around
    randomly chosen prefixes of it (the whole spine included)."""
    ends = sorted(draw(st.lists(st.integers(1, len(elements)), max_size=3)))
    text = "(" * len(ends) + elements[0]
    for i, element in enumerate(elements[1:], 1):
        text += ")" * ends.count(i) + element
    return text + ")" * ends.count(len(elements))


def pattern_groups(draw, pats) -> list[str]:
    """The patterns split into `[p,...]` groups at random points."""
    if not pats:
        return []
    bounds = [0, *(i for i in range(1, len(pats)) if draw(st.booleans())), len(pats)]
    return ["[" + ",".join(map(print_pattern, pats[a:b])) + "]" for a, b in zip(bounds, bounds[1:])]


def written_argument(draw, c) -> str:
    """A constructor argument as an atom, with redundant parentheses."""
    extra = draw(st.integers(0, 2))
    if isinstance(c, ConVar):
        text = c.name
    elif isinstance(c, ConLeaf):
        text = "Leaf"
    else:
        annotations = [] if c.ann_left is None else [c.ann_left, c.ann_right]
        elements = ["Node", *pattern_groups(draw, annotations),
                    " " + written_argument(draw, c.left), " " + written_argument(draw, c.right)]
        text = "(" + wrap_prefixes(draw, elements) + ")"
    return "(" * extra + text + ")" * extra


# ---------------------------------------------------------------------------
# Printer/parser round-trips

@given(patterns())
def test_pattern_roundtrip(p):
    assert parse_pattern(print_pattern(p)) == p


@given(types())
def test_type_roundtrip(t):
    assert parse_type(print_type(t)) == t


@given(rngs())
def test_erased_term_roundtrip(rng):
    syms = ("f", "g")
    t = random_erased_term(rng, syms, 4)
    assert parse_erased_term(print_erased(t), frozenset(syms)) == t


@given(st.data(), st.sampled_from(["f", "x"]), st.lists(patterns(2), max_size=3),
       st.lists(constructor_terms(), max_size=3))
def test_left_hand_side_parentheses_are_transparent(data, head, pats, args):
    elements = [head, *pattern_groups(data.draw, pats),
                *(" " + written_argument(data.draw, a) for a in args)]
    prelude = "symbol f : B(leaf) recursive 0;\n"
    (rule,) = parse_system(f"{prelude}rule {wrap_prefixes(data.draw, elements)} -> Leaf;\n").rules
    assert (rule.head, rule.pattern_args, rule.recursive_args) == (head, tuple(pats), tuple(args))
    (canonical,) = parse_system(prelude + print_rule(rule) + "\n").rules
    assert rule == canonical
    assert (rule.loc.line, rule.loc.col) == (canonical.loc.line, canonical.loc.col) == (2, 1)


@given(rngs())
@settings(max_examples=150)
def test_system_roundtrip(rng):
    sys = random_system(rng)
    assert parse_system(print_system(sys)) == sys


# Tokens, blanks (str.splitlines ends a line at "\r", "\x0b", "\x0c",
# "\x1c", "\x85" and "\u2028"; the tokenizer does not), comments, line ends
# and characters that start no token.
TEXT_FRAGMENTS = ("symbol", "rule", "forall", "recursive", "B", "leaf", "node", "bot", "Leaf",
                  "Node", "_", "f0", "x_1", "Bx", "0", "42", "->", "/\\", "\\", "-", "/",
                  *"()[],;:.", " ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028",
                  "# c\x85 d", "#\u2028x", "#", "\n", "\r\n", "$", "\u00e9", "\u00e9t\u00e9")


def tokenize_outcome(tokenize_text, text: str):
    try:
        return tokenize_text(text)
    except ParseError as err:
        return err.message, err.line, err.col


@given(st.lists(st.sampled_from(TEXT_FRAGMENTS), max_size=40).map("".join))
@example("")
@example("rule f x -> x;\r\n")
@example("# only a comment\x85\r\nf\u2028 g")
@settings(max_examples=500)
def test_tokenize_agrees_with_reference(text):
    assert tokenize_outcome(tokenize, text) == tokenize_outcome(reference_tokenize, text)


def scan_tokens(text: str) -> list[tuple[str, str]]:
    return list(zip(*scan(text)))


@given(st.lists(st.sampled_from(TEXT_FRAGMENTS), max_size=40).map("".join))
@example("")
@example("  \n\t")
@example("f # c\n  ")
@example("# only a comment\x85\r\nf\u2028 g")
@example("f\n\x0c$")
@settings(max_examples=500)
def test_scan_agrees_with_tokenize(text):
    # the parser's scan reads the same (kind, text) tokens, or fails with the
    # same ParseError, message and position
    expected = tokenize_outcome(tokenize, text)
    if isinstance(expected, list):
        expected = [tok[:2] for tok in expected]
    assert tokenize_outcome(scan_tokens, text) == expected


@given(st.lists(st.sampled_from(TEXT_FRAGMENTS), max_size=40).map("".join))
@example("# a comment\rsymbol f : B(leaf) recursive 0;\nrule f -> g;\n")
@example("\r$")
@settings(max_examples=300)
def test_cli_reads_the_text_parse_system_reads(tmp_path_factory, text):
    # a file holding the text as UTF-8 loads as the text parses, with the same
    # ParseError message and position if it does not
    path = tmp_path_factory.getbasetemp() / "system.trs"
    path.write_bytes(text.encode())
    loaded = _load(str(path), say=lambda _: None)
    expected = tokenize_outcome(parse_system, text)
    if isinstance(loaded, ParseError):
        loaded = loaded.message, loaded.line, loaded.col
    assert loaded == expected


# ---------------------------------------------------------------------------
# Type substitution

@given(types(), st.sampled_from(["a", "b", "c"]))
def test_subst_variable_for_itself_is_identity(t, name):
    assert alpha_eq_type(subst_pattern(t, name, PVar(name)), t)


@given(types(), patterns(2))
def test_subst_absent_variable_is_identity(t, p):
    assume("q" not in type_free_vars(t))
    assert subst_pattern(t, "q", p) == t


# ---------------------------------------------------------------------------
# Alpha handling of erased terms

@given(rngs())
def test_alpha_canonical_idempotent(rng):
    t = random_erased_term(rng, ("f",), 4)
    c = alpha_canonical(t)
    assert alpha_canonical(c) == c
    assert alpha_eq_erased(t, c)


# ---------------------------------------------------------------------------
# Subtyping

@given(patterns())
def test_pattern_sub_reflexive(p):
    assert pattern_sub(p, p)


def test_pattern_sub_transitive_on_pool():
    rng = random.Random(11)
    pool = [random_pattern(rng, 4) for _ in range(18)] + closed_patterns(1)
    related = [(p, q) for p in pool for q in pool if pattern_sub(p, q)]
    for p, q in related:
        for r in pool:
            if pattern_sub(q, r):
                assert pattern_sub(p, r), (print_pattern(p), print_pattern(q), print_pattern(r))


@given(types())
def test_type_sub_reflexive(t):
    assert type_sub(t, t)


@given(rngs())
def test_type_sub_constructed_chain(rng):
    t = random_type(rng, 3)
    lo, hi = type_below(rng, t), type_above(rng, t)
    assert type_sub(lo, t)
    assert type_sub(t, hi)
    assert type_sub(lo, hi)


def renamed_prefix(t):
    """t with each binder of its quantifier prefix renamed apart, an
    alpha-variant that names no binder as t does."""
    if not isinstance(t, Forall):
        return t
    body = type_subst(t.body, {t.binder: PVar(t.binder + "1")})
    return Forall(t.binder + "1", renamed_prefix(body))


def rebound_prefix(t, rng):
    """t with each binder of its quantifier prefix replaced by a, b or c and
    its body left as it is, so occurrences may change binders or go free."""
    if not isinstance(t, Forall):
        return t
    return Forall(rng.choice("abc"), rebound_prefix(t.body, rng))


@given(prefixed_types(), prefixed_types(), rngs(), st.sampled_from(["alpha", "rebound", "other"]))
@settings(max_examples=300)
def test_type_sub_matches_one_level_at_a_time(t, other, rng, relation):
    """Renaming a whole common quantifier prefix at once decides as renaming
    it one level at a time: against an alpha-variant of a supertype, against
    the same with its binders renamed but not their occurrences, and against
    any type, with a prefix of any length."""
    above = type_above(rng, t)
    u = {"alpha": renamed_prefix(above), "rebound": rebound_prefix(above, rng), "other": other}[relation]
    assert type_sub(t, u) == reference_type_sub(t, u)
    assert type_sub(u, t) == reference_type_sub(u, t)
    if relation == "alpha":
        assert type_sub(t, u)


@given(prefixed_types(), st.data())
@settings(max_examples=300)
def test_spine_instantiation_matches_one_pattern_at_a_time(ty, data):
    """A pattern-application spine instantiated at once gives the type of
    substituting its patterns one at a time, up to the names of binders; a
    pattern that meets no quantifier gives the same error at the same
    application, its type the same up to the names of binders."""
    depth = len(quantifier_prefix(ty)[0])
    spine = data.draw(st.lists(patterns(2), min_size=1, max_size=depth + 2))
    terms = [TermVar("f")]
    for i, p in enumerate(spine):
        terms.append(PatApp(terms[-1], p, loc=i))
    ctx = Context((("f", ty),))
    expected = sequential_instantiate(ty, spine)
    if expected is not None:
        assert alpha_eq_type(synthesize(EMPTY.signature, ctx, terms[-1]), expected)
        return
    failing = next(i for i in range(len(spine)) if sequential_instantiate(ty, spine[: i + 1]) is None)
    with pytest.raises(TypeCheckError) as err:
        synthesize(EMPTY.signature, ctx, terms[-1])
    assert (err.value.code, err.value.loc) == ("E-EXPECTED-POLY", failing)
    head = f"term {print_term(terms[failing])!r} of type "
    tail = " is applied to a pattern but is not quantified"
    assert err.value.message.startswith(head) and err.value.message.endswith(tail)
    printed = err.value.message[len(head): -len(tail)]
    assert alpha_eq_type(parse_type(printed), sequential_instantiate(ty, spine[:failing]))


@given(rngs())
def test_pattern_sub_constructed_chain(rng):
    q = random_pattern(rng, 3)
    lo, hi = pattern_below(rng, q), pattern_above(rng, q)
    assert pattern_sub(lo, q)
    assert pattern_sub(q, hi)
    assert pattern_sub(lo, hi)


# ---------------------------------------------------------------------------
# Minimal typing

def test_min_typing_deterministic_and_minimal():
    for system in (FGIH, APP):
        splits = validate_signature(system.signature)
        for rule in system.rules:
            first = min_type_lhs(rule, splits)
            second = min_type_lhs(rule, splits)
            assert first == second
            # the bound variables are those of every pattern argument
            assert first[2] == set().union(*map(pattern_vars, rule.pattern_args))
            recursive_patterns = rule.pattern_args[: len(rule.recursive_args)]
            assert all(pattern_is_minimal(p) for p in recursive_patterns)


@given(rngs())
@settings(max_examples=150)
def test_accepted_signatures_have_positive_recursive_quantifiers(rng):
    sys = random_system(rng)
    splits = validate_signature(sys.signature)
    assume(isinstance(splits, dict))
    for name, info in sys.signature:
        quants, _, rest = splits[name]
        for binder in quants[: info.recursive_count]:
            assert polarity(binder, rest) in (POSITIVE, ABSENT)


# ---------------------------------------------------------------------------
# Unification

ASSIGN_POOL = closed_patterns(1, include_wild=False)


@given(rngs())
@settings(max_examples=150)
def test_unifier_is_most_general(rng):
    vars = ("a", "b")
    p = random_pattern(rng, 3, vars, wild=False)
    q = random_pattern(rng, 3, vars, wild=False)
    mgu = unify_patterns(p, q)
    names = sorted(pattern_vars(p) | pattern_vars(q))
    if len(names) > 2:
        return
    for combo in product(ASSIGN_POOL, repeat=len(names)):
        tau = dict(zip(names, combo))
        if pattern_subst(p, tau) == pattern_subst(q, tau):
            assert mgu is not None, "brute force found a unifier the algorithm missed"
            narrowed = pattern_subst(p, mgu)
            assert unify_patterns(narrowed, pattern_subst(p, tau)) is not None


@given(rngs())
def test_pattern_unifiable_symmetric_and_reflexive(rng):
    p = random_pattern(rng, 3, wild=False)
    q = random_pattern(rng, 3, wild=False)
    assert pattern_unifiable(p, p)
    assert pattern_unifiable(p, q) == pattern_unifiable(q, p)


@given(patterns(), patterns())
@settings(max_examples=300)
def test_pattern_unifiable_is_unification_of_linearised_patterns(p, q):
    # the shape check must agree with running the unifier on the patterns
    # made linear, with the variables of the two sides kept apart
    assert pattern_unifiable(p, q) == (unify_patterns(freshen(p, "l"), freshen(q, "r")) is not None)


# ---------------------------------------------------------------------------
# Dependency graph

@st.composite
def digraphs(draw, max_nodes: int = 12):
    # self-loops and nodes without edges are both drawn
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return 0, frozenset()
    node = st.integers(0, n - 1)
    return n, frozenset(draw(st.sets(st.tuples(node, node), max_size=3 * n)))


@given(digraphs())
@settings(max_examples=300)
def test_sccs_are_the_mutual_reachability_classes(graph):
    n, edges = graph
    nodes = (DependencyPair("f", (), "f", ()),) * n
    assert sccs(graph_from_edges(nodes, edges)) == reference_sccs(n, edges)


@st.composite
def shared_successor_graphs(draw, max_nodes: int = 12):
    """A graph whose nodes hold their successors from a pool of a few tuple
    objects, the empty tuple among them, so most tuples are shared, as
    `build_graph` shares them; a node often holds a tuple with itself in it."""
    n = draw(st.integers(0, max_nodes))
    node = st.integers(0, max(n - 1, 0))
    pool = [()] + [tuple(sorted(draw(st.sets(node, min_size=1, max_size=n))))
                   for _ in range(draw(st.integers(0, 3)) if n else 0)]
    adjacency = tuple(pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n))
    return DependencyGraph((DependencyPair("f", (), "f", ()),) * n, adjacency)


@given(shared_successor_graphs())
@settings(max_examples=300)
def test_sccs_over_shared_successor_tuples(graph):
    n = len(graph.nodes)
    first = sccs(graph)
    assert first == reference_sccs(n, graph.edges)
    second = sccs(graph)
    assert second == first and second is not first
    fresh = graph_from_edges(graph.nodes, graph.edges)  # equal, built anew, nothing kept
    assert fresh == graph and sccs(fresh) == first


@given(rngs())
@settings(max_examples=150)
def test_bucketed_edges_match_all_pairs_on_random_pairs(rng):
    def args() -> tuple:
        return tuple(random_pattern(rng, 2) for _ in range(rng.randint(0, 2)))

    # Callers draw their patterns from 1-3 tuples per symbol, so several pairs
    # share one pattern group, and a call can unify with some of a symbol's
    # groups and not with others.
    groups = {f: [args() for _ in range(rng.randint(1, 3))] for f in "fg"}
    callers = [rng.choice("fg") for _ in range(rng.randint(0, 12))]
    dps = tuple(DependencyPair(f, rng.choice(groups[f]), rng.choice("fg"), args()) for f in callers)
    g = build_graph(dps)
    assert g.edges == reference_edges(dps)
    assert [(a, b) for a, succ in enumerate(g.adjacency) for b in succ] == sorted(g.edges)


# Index-search components draw their patterns from here.  Equal patterns
# decrease weakly, a pattern strictly embeds its own subpatterns, and a
# wildcard decreases only into an equal one.
_A, _B = PVar("a"), PVar("b")
INDEX_PATTERNS = (_A, _B, PLeaf(), PBottom(), PWild(), PNode(_A, _B),
                  PNode(PNode(_A, _B), PLeaf()), PNode(PWild(), _A))


@st.composite
def index_components(draw):
    """A component for the index search: 1-4 symbols of arity 1-3, 1-6
    pairs between them and random edges, which need not make it strongly
    connected.  Most callee patterns come from the caller's own patterns or
    their subpatterns, so decreases are common.  In a third of the draws
    they are the caller's own patterns only, so that most pairs decrease
    weakly or not at all, and often none strictly."""
    symbols = "fghi"[:draw(st.integers(1, 4))]
    arity = {s: draw(st.integers(1, 3)) for s in symbols}
    callers = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=6))
    weak_only = draw(st.integers(0, 2)) == 0
    nodes = []
    for f in callers:
        lhs = tuple(draw(st.sampled_from(INDEX_PATTERNS)) for _ in range(arity[f]))
        below = st.sampled_from(lhs).flatmap(
            lambda p: st.sampled_from((p, p.left, p.right) if isinstance(p, PNode) else (p,)))
        callee = (st.sampled_from(lhs) if weak_only
                  else st.one_of(below, below, below, st.sampled_from(INDEX_PATTERNS)))
        g = draw(st.sampled_from(sorted(set(callers))))
        nodes.append(DependencyPair(f, lhs, g, tuple(draw(callee) for _ in range(arity[g]))))
    node = st.integers(0, len(nodes) - 1)
    edges = frozenset(draw(st.sets(st.tuples(node, node), max_size=3 * len(nodes))))
    return tuple(range(len(nodes))), graph_from_edges(tuple(nodes), edges)


# ι=1 leaves the self-loop weak, a cycle with every node passing; only the
# later ι=2 works.  A search that stops exploring once its best near-miss
# covers the whole component misses it.
CYCLE_BEFORE_SUCCESS = ((0,), graph_from_edges(
    (DependencyPair("f", (_A, PNode(_A, _B)), "f", (_A, _A)),), frozenset({(0, 0)})))
# ι=(1,1) and ι=(2,2) both pass node 0 and fail node 1; the first must stay
# the near-miss.
TIED_NEAR_MISSES = ((0, 1), graph_from_edges(
    (DependencyPair("f", (_A, _B), "g", (_A, _B)),
     DependencyPair("g", (_A, _B), "f", (PLeaf(), PLeaf()))),
    frozenset({(0, 1), (1, 0)})))


@given(index_components())
@example(CYCLE_BEFORE_SUCCESS)
@example(TIED_NEAR_MISSES)
@settings(max_examples=300)
def test_index_search_matches_exhaustive_enumeration(component):
    scc, g = component
    assert find_indices(scc, g) == reference_find_indices(scc, g)


# ---------------------------------------------------------------------------
# Pattern embedding

@given(rngs())
def test_strict_embedding_implies_weak_and_shrinks(rng):
    q = random_closed_pattern(rng, 2, wild=False)
    t = strictly_above_pattern(rng, q)
    assert decrease(t, q) == STRICT
    assert decrease(q, q) == WEAK
    assert pattern_size(t) > pattern_size(q)


@given(rngs())
def test_weak_embedding_never_grows(rng):
    q = random_closed_pattern(rng, 2, wild=False)
    t = weakly_above_pattern(rng, q)
    assert decrease(t, q) in (WEAK, STRICT)
    assert pattern_size(t) >= pattern_size(q)


def subpatterns(p):
    """p and every pattern below it."""
    out, todo = [], [p]
    while todo:
        out.append(todo.pop())
        if isinstance(out[-1], PNode):
            todo += (out[-1].left, out[-1].right)
    return out


@given(rngs())
@settings(max_examples=400)
def test_decrease_agrees_with_reference(rng):
    # patterns over two variables, leaf, bot and, in half the draws,
    # wildcards; q is drawn apart from p, below p, or as a node over a
    # pattern below p, and both directions are compared, so that strict
    # decreases, equal subpatterns and wildcards under a node all come up
    wild = rng.random() < 0.5
    p = random_pattern(rng, rng.randint(0, 4), PVAR_POOL[:2], wild=wild)
    kind = rng.choice(("apart", "below", "wrapped"))
    if kind == "apart":
        q = random_pattern(rng, rng.randint(0, 3), PVAR_POOL[:2], wild=wild)
    else:
        q = rng.choice(subpatterns(p))
    if kind == "wrapped":
        other = random_pattern(rng, 1, PVAR_POOL[:2], wild=wild)
        q = PNode(q, other) if rng.random() < 0.5 else PNode(other, q)
    assert decrease(p, q) == reference_decrease(p, q)
    assert decrease(q, p) == reference_decrease(q, p)


# ---------------------------------------------------------------------------
# Reduction

@given(rngs())
@settings(max_examples=60, deadline=None)
def test_normal_forms_do_not_step(rng):
    t = random_erased_term(rng, ("f", "g", "i", "h"), 3)
    out = normalize(t, FGIH, fuel=400)
    assume(isinstance(out, NormalForms))
    for v in out.forms:
        assert step(v, FGIH) == frozenset()


@given(rngs())
@settings(max_examples=60, deadline=None)
def test_symbol_free_reduction_is_confluent(rng):
    t = random_erased_term(rng, (), 4)
    out = normalize(t, EMPTY, fuel=400)
    assume(isinstance(out, NormalForms))
    assert len(out.forms) == 1


def agrees_with_reference(t, system, fuel: int) -> bool:
    """Where the exhaustive reference reducer finishes (normal forms, or a
    cycle found before its fuel ran out), normalize gives the same kind of
    outcome and the same normal forms.  Says whether the reference finished."""
    expected = reference_normalize(t, system, fuel)
    if isinstance(expected, FuelExhausted) and expected.steps >= fuel:
        return False
    got = normalize(t, system, fuel)
    assert type(got) is type(expected), print_erased(t)
    if isinstance(expected, NormalForms):
        assert got.forms == expected.forms, print_erased(t)
    return True


def test_normalize_agrees_with_reference_on_ground_calls():
    # every fixture symbol on every ground tree of depth <= 3
    trees = ground_trees(3)
    finished = 0
    for system in (APP, FGIH, NONMINIMAL):
        for name, info in system.signature:
            for args in product(trees, repeat=term_arity(info.type)):
                t = ESym(name)
                for a in args:
                    t = EApp(t, a)
                finished += agrees_with_reference(t, system, 10000)
    assert finished == 807 + 26 * 26


@given(rngs(), st.sampled_from(["app", "fgih", "nonminimal", "choice"]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_normalize_agrees_with_reference(rng, name, free_variable):
    system = {"app": APP, "fgih": FGIH, "nonminimal": NONMINIMAL, "choice": CHOICE}[name]
    symbols = tuple(s for s, _ in system.signature)
    t = random_erased_term(rng, symbols, 4, ("y",) if free_variable else ())
    agrees_with_reference(t, system, 2000)


# ---------------------------------------------------------------------------
# Semantic lemmas, small scale

@given(rngs())
def test_valuation_application_respects_pattern_order(rng):
    q = random_pattern(rng, 2, ("a", "b"))
    p = pattern_below(rng, q)
    theta = random_valuation(rng, pattern_vars(p) | pattern_vars(q))
    for inst in apply_valuation(p, theta):
        assert any(pattern_sub(inst, other) for other in apply_valuation(q, theta))


@given(rngs())
@settings(deadline=None)
def test_matching_collects_every_pattern_form(rng):
    sub = term_matching_pattern(rng, random_closed_pattern(rng, 1, wild=False, bottom=False))
    t = EApp(EApp(ENode(), sub), sub)
    theta = match_patterns([t], [parse_pattern("node(a,a)")], FGIH)
    assert theta is not None
    forms = {pattern_form(v) for v in normalize(t, FGIH).forms}
    for q in apply_valuation(parse_pattern("node(a,a)"), theta):
        assert q in forms


@given(rngs())
def test_pattern_embedding_transfers_to_terms(rng):
    q = random_closed_pattern(rng, 2, wild=False)
    p = strictly_above_pattern(rng, q)
    v1 = term_with_pattern_form(rng, p)
    v2 = term_matching_pattern(rng, q)
    assert term_embeds_strict(v1, v2)


@given(rngs())
def test_weak_pattern_embedding_transfers_to_terms(rng):
    q = random_closed_pattern(rng, 2, wild=False)
    p = weakly_above_pattern(rng, q)
    v1 = term_with_pattern_form(rng, p)
    v2 = term_matching_pattern(rng, q)
    assert term_embeds_weak(v1, v2)


@given(rngs())
def test_matching_is_monotone_along_pattern_order(rng):
    r = random_closed_pattern(rng, 2)
    v = term_matching_pattern(rng, r, neutral_anywhere=True)
    s = closed_pattern_above(rng, r)
    assert term_matches(v, r)
    assert pattern_sub(r, s)
    assert term_matches(v, s)


@given(rngs())
@settings(deadline=None)
def test_recovered_valuations_are_closed_and_nonempty(rng):
    t = random_erased_term(rng, ("i", "h"), 3)
    try:
        theta = match_patterns([t], [parse_pattern("a")], FGIH, fuel=400)
    except FuelExhaustedError:
        assume(False)
    assume(theta is not None)
    for values in theta.values():
        assert values
        assert all(pattern_is_closed(p) for p in values)
