"""Parser, printer, erasure, and substitution behavior."""
from __future__ import annotations

import pytest

from treeterm.syntax import (
    ParseError,
    parse_erased_term,
    parse_pattern,
    parse_system,
    parse_term,
    parse_type,
    print_erased,
    print_pattern,
    print_rule,
    print_system,
    print_term,
    print_type,
)
from treeterm.terms import (
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
    ESym,
    EVar,
    Forall,
    Lam,
    PatApp,
    PatLam,
    PBottom,
    PLeaf,
    PNode,
    PVar,
    PWild,
    SymbolRef,
    TermVar,
    alpha_canonical,
    erase,
    erase_constructor,
    erased_free_vars,
    erased_subst,
    fresh_name,
    pattern_subst,
    pattern_vars,
    quantifier_prefix,
    term_free_pattern_vars,
    term_free_term_vars,
    type_free_vars,
    type_subst,
)
from conftest import FGIH_PATH, load
from helpers import (
    alpha_eq_erased,
    alpha_eq_type,
    pattern_is_closed,
    pattern_is_minimal,
    pattern_size,
)


# ---------------------------------------------------------------------------
# Patterns

def test_parse_pattern_shapes():
    assert parse_pattern("leaf") == PLeaf()
    assert parse_pattern("bot") == PBottom()
    assert parse_pattern("_") == PWild()
    assert parse_pattern("alpha") == PVar("alpha")
    assert parse_pattern("node(leaf, node(a, _))") == PNode(
        PLeaf(), PNode(PVar("a"), PWild())
    )


def test_pattern_predicates():
    p = parse_pattern("node(a,node(leaf,_))")
    assert pattern_vars(p) == frozenset({"a"})
    assert not pattern_is_minimal(p)
    assert not pattern_is_closed(p)
    assert pattern_is_minimal(parse_pattern("node(a,leaf)"))
    assert pattern_is_closed(parse_pattern("node(_,bot)"))
    assert pattern_size(parse_pattern("node(node(leaf,leaf),leaf)")) == 2


def test_pattern_subst_parallel():
    p = parse_pattern("node(a,b)")
    out = pattern_subst(p, {"a": PVar("b"), "b": PVar("a")})
    assert out == parse_pattern("node(b,a)")


@pytest.mark.parametrize("text", ["leaf", "bot", "_", "a", "node(node(a,_),bot)"])
def test_pattern_round_trip(text):
    assert print_pattern(parse_pattern(text)) == text.replace(" ", "")


# ---------------------------------------------------------------------------
# Types

def test_parse_type_structure():
    t = parse_type("forall a b. (B(a) -> B(b)) -> B(a) -> B(b)")
    assert t == Forall(
        "a",
        Forall(
            "b",
            Arrow(
                Arrow(Base(PVar("a")), Base(PVar("b"))),
                Arrow(Base(PVar("a")), Base(PVar("b"))),
            ),
        ),
    )


def test_arrow_is_right_associative():
    t = parse_type("B(leaf) -> B(leaf) -> B(leaf)")
    assert isinstance(t, Arrow) and isinstance(t.cod, Arrow)


def test_type_round_trip_collapses_foralls():
    text = "forall a b. B(a) -> B(node(b,_))"
    assert print_type(parse_type(text)) == text


def test_type_free_vars_and_prefix():
    t = parse_type("forall a. B(a) -> B(c)")
    assert type_free_vars(t) == frozenset({"c"})
    names, body = quantifier_prefix(t)
    assert names == ("a",) and isinstance(body, Arrow)


def test_type_subst_capture_avoiding():
    # substituting a pattern mentioning b under a binder named b must rename
    t = parse_type("forall b. B(a) -> B(b)")
    out = type_subst(t, {"a": PVar("b")})
    assert isinstance(out, Forall)
    assert out.binder != "b"
    assert alpha_eq_type(out, parse_type("forall c. B(b) -> B(c)"))


def test_alpha_eq_type():
    assert alpha_eq_type(parse_type("forall a. B(a)"), parse_type("forall b. B(b)"))
    assert not alpha_eq_type(parse_type("forall a. B(a)"), parse_type("forall a. B(leaf)"))


def test_fresh_name_avoids():
    assert fresh_name("a", {"a", "a2"}) == "a3"
    assert fresh_name("x", set()) == "x"


# ---------------------------------------------------------------------------
# Terms

def test_parse_term_spine():
    t = parse_term("g[node(a,b)] (Node[a,b] x y)", frozenset({"g"}))
    assert isinstance(t, App)
    assert isinstance(t.fun, PatApp)
    assert t.fun.pattern == parse_pattern("node(a,b)")
    assert isinstance(t.fun.fun, SymbolRef) and t.fun.fun.name == "g"
    inner = t.arg
    assert isinstance(inner, App) and isinstance(inner.fun, App)
    assert isinstance(inner.fun.fun, PatApp)


def test_parse_term_lambdas():
    t = parse_term(r"\x:B(a). /\b. x", frozenset())
    assert isinstance(t, Lam) and t.annot == Base(PVar("a"))
    assert isinstance(t.body, PatLam) and t.body.binder == "b"
    assert t.body.body == TermVar("x", loc=None)


def test_pattern_group_printing():
    t = parse_term("g[a,b] x", frozenset({"g"}))
    assert print_term(t) == "g[a,b] x"


def test_print_term_parenthesizes_arguments():
    t = parse_term("f (g x) y", frozenset({"f", "g"}))
    assert print_term(t) == "f (g x) y"


def test_free_variable_queries():
    t = parse_term(r"\x:B(a). g[b] x y", frozenset({"g"}))
    assert term_free_term_vars(t) == frozenset({"y"})
    assert term_free_pattern_vars(t) == frozenset({"a", "b"})


@pytest.mark.parametrize(
    "text",
    [
        r"\x:B(a). \y:(B(a) -> B(b)). y x",
        "g[node(a,b)] (Node[a,b] x y)",
        r"/\a. g[a] Leaf",
        "Node Leaf (g[leaf] Leaf)",
    ],
)
def test_term_round_trip(text):
    symbols = frozenset({"g"})
    t = parse_term(text, symbols)
    assert parse_term(print_term(t), symbols) == t


# ---------------------------------------------------------------------------
# System parsing

def test_system_round_trip_fixture():
    system = load(FGIH_PATH)
    assert parse_system(print_system(system)) == system


def test_lhs_splits_into_patterns_and_constructors():
    text = (
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[node(a,b)] (Node[a,b] x y) -> Leaf;\n"
    )
    system = parse_system(text)
    rule = system.rules[0]
    assert rule.head == "f"
    assert rule.pattern_args == (parse_pattern("node(a,b)"),)
    assert rule.recursive_args == (
        ConNode(PVar("a"), PVar("b"), ConVar("x"), ConVar("y")),
    )


def test_unannotated_constructor_allowed():
    text = (
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] (Node x y) -> Leaf;\n"
    )
    rule = parse_system(text).rules[0]
    assert rule.recursive_args == (ConNode(None, None, ConVar("x"), ConVar("y")),)


def test_non_constructor_lhs_argument_rejected():
    text = (
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "symbol g : B(leaf) recursive 0;\n"
        "rule f[a] (g) -> Leaf;\n"
    )
    with pytest.raises(ParseError):
        parse_system(text)


def test_duplicate_symbol_rejected():
    text = (
        "symbol f : B(leaf) recursive 0;\n"
        "symbol f : B(leaf) recursive 0;\n"
    )
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert "f" in str(err.value)


def test_keyword_cannot_name_symbol():
    with pytest.raises(ParseError):
        parse_system("symbol rule : B(leaf) recursive 0;")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_system("symbol f : B(leaf recursive 0;")
    assert err.value.line == 1
    assert err.value.col > 1


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\nsymbol f : B(leaf) recursive 0;  # trailing\nrule f -> Leaf;\n"
    system = parse_system(text)
    assert len(system.rules) == 1


def test_empty_input_parses_to_empty_system():
    system = parse_system("")
    assert system.rules == ()
    assert list(system.signature) == []


def test_print_system_empty():
    assert print_system(parse_system("")) == ""


# ---------------------------------------------------------------------------
# Erasure

def test_erase_drops_pattern_structure():
    symbols = frozenset({"g"})
    t = parse_term(r"/\a. g[a] (Node[a,leaf] x Leaf)", symbols)
    assert erase(t) == EApp(ESym("g"), EApp(EApp(ENode(), EVar("x")), ELeaf()))


def test_erase_lambda_keeps_binder_drops_annotation():
    t = parse_term(r"\x:B(a). x", frozenset())
    assert erase(t) == ELam("x", EVar("x"))


def test_erase_constructor_shapes():
    c = ConNode(PVar("a"), PVar("b"), ConVar("x"), ConLeaf())
    assert erase_constructor(c) == EApp(EApp(ENode(), EVar("x")), ELeaf())
    assert erase_constructor(ConVar("y")) == EVar("y")
    assert erase_constructor(ConLeaf()) == ELeaf()


# ---------------------------------------------------------------------------
# Erased terms: substitution and alpha

def test_erased_subst_capture_avoiding():
    # (\y. x y)[x := y] must rename the binder, not capture
    t = ELam("y", EApp(EVar("x"), EVar("y")))
    out = erased_subst(t, {"x": EVar("y")})
    assert isinstance(out, ELam)
    assert out.binder != "y"
    assert out.body == EApp(EVar("y"), EVar(out.binder))


def test_erased_subst_parallel_not_sequential():
    t = EApp(EVar("x"), EVar("y"))
    out = erased_subst(t, {"x": EVar("y"), "y": EVar("x")})
    assert out == EApp(EVar("y"), EVar("x"))


def test_alpha_canonical_identifies_renamings():
    a = ELam("x", ELam("y", EApp(EVar("x"), EVar("y"))))
    b = ELam("p", ELam("q", EApp(EVar("p"), EVar("q"))))
    assert alpha_canonical(a) == alpha_canonical(b)
    assert alpha_eq_erased(a, b)
    assert not alpha_eq_erased(a, ELam("x", ELam("y", EApp(EVar("y"), EVar("x")))))


def test_alpha_canonical_avoids_free_variable_clash():
    # a free variable named like a canonical binder must not be captured
    t = ELam("x", EApp(EVar("x"), EVar("v0")))
    out = alpha_canonical(t)
    assert isinstance(out, ELam)
    assert out.binder != "v0"
    assert erased_free_vars(out) == frozenset({"v0"})


def test_erased_free_vars():
    t = ELam("x", EApp(EVar("x"), EApp(EVar("y"), ESym("f"))))
    assert erased_free_vars(t) == frozenset({"y"})


# ---------------------------------------------------------------------------
# Erased term parsing

def test_parse_erased_term_basic():
    t = parse_erased_term(r"\x. f x (Node Leaf Leaf)", frozenset({"f"}))
    assert t == ELam(
        "x",
        EApp(EApp(ESym("f"), EVar("x")), EApp(EApp(ENode(), ELeaf()), ELeaf())),
    )


def test_parse_erased_term_unknown_names_are_variables():
    t = parse_erased_term("free Leaf", frozenset({"f"}))
    assert t == EApp(EVar("free"), ELeaf())


def test_parse_erased_term_rejects_annotations_and_patterns():
    with pytest.raises(ParseError):
        parse_erased_term("f[leaf]", frozenset({"f"}))
    with pytest.raises(ParseError):
        parse_erased_term(r"\x:B(a). x", frozenset())
    with pytest.raises(ParseError):
        parse_erased_term(r"/\a. Leaf", frozenset())


def test_print_erased_round_trip():
    text = r"\x. \y. x (Node y Leaf)"
    t = parse_erased_term(text, frozenset())
    assert parse_erased_term(print_erased(t), frozenset()) == t


# ---------------------------------------------------------------------------
# Printing details

def test_print_rule_format():
    system = load(FGIH_PATH)
    assert print_rule(system.rules[4]) == "rule i[leaf] Leaf -> Leaf;"


def test_print_type_parenthesizes_arrow_domain():
    t = Arrow(Arrow(Base(PLeaf()), Base(PLeaf())), Base(PLeaf()))
    assert print_type(t) == "(B(leaf) -> B(leaf)) -> B(leaf)"


def test_print_term_merges_pattern_groups():
    t = PatApp(PatApp(SymbolRef("g"), PVar("a")), PVar("b"))
    assert print_term(t) == "g[a,b]"
