"""Parser, printer, erasure, and substitution behavior."""
from __future__ import annotations

import signal

import pytest

from treeterm import syntax
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
    scan,
    tokenize,
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
    NodeCon,
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
    erased_free_vars,
    erased_subst,
    fresh_name,
    pattern_subst,
    pattern_vars,
    quantifier_prefix,
    scan_term,
    type_free_vars,
    type_subst,
)
from treeterm.typecheck import validate_system
from conftest import FGIH_PATH, load
from helpers import (
    alpha_eq_erased,
    alpha_eq_type,
    pattern_is_closed,
    pattern_is_minimal,
    pattern_size,
    ring_text,
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
    term_vars, pat_vars, _ = scan_term(t)
    assert term_vars == frozenset({"y"})
    assert pat_vars == frozenset({"a", "b"})


def test_scan_term_respects_binders():
    # a pattern abstraction binds its variable in patterns and annotations below it
    t = parse_term(r"/\b. \x:B(node(b,d)). g[b,c] x", frozenset({"g"}))
    assert scan_term(t)[:2] == (frozenset(), frozenset({"c", "d"}))
    # the inner lambda binds only its own occurrence of x
    t = parse_term(r"g[a] x (\x:B(a). x y)", frozenset({"g"}))
    assert scan_term(t)[:2] == (frozenset({"x", "y"}), frozenset({"a"}))


def test_scan_term_lists_call_sites_left_to_right():
    t = parse_term("f[a,b] (g[c] x) (f Leaf)", frozenset({"f", "g"}))
    sites = scan_term(t)[2]
    assert [(ref.name, tuple(print_pattern(p) for p in pats)) for ref, pats in sites] == [
        ("f", ("a", "b")), ("g", ("c",)), ("f", ()),
    ]
    assert [str(ref.loc) for ref, _ in sites] == ["1:1", "1:9", "1:18"]


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


LHS_PRELUDE = (
    "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
    "symbol g : B(leaf) recursive 0;\n"
)


@pytest.mark.parametrize("lhs,canonical", [
    ("(f[a]) x", "f[a] x"),
    ("(f x) y", "f x y"),
    ("f[a][b]", "f[a,b]"),
    ("(x)", "x"),
    ("f ((Node[a,b] x) y)", "f (Node[a,b] x y)"),
    ("f ((Node) x y)", "f (Node x y)"),
    ("((f)[a] ((Node)[a][b] (x) ((Leaf))))", "f[a] (Node[a,b] x Leaf)"),
])
def test_lhs_parentheses_are_transparent(lhs, canonical):
    (rule,) = parse_system(f"{LHS_PRELUDE}rule {lhs} -> Leaf;\n").rules
    (expected,) = parse_system(f"{LHS_PRELUDE}rule {canonical} -> Leaf;\n").rules
    assert rule == expected
    assert (rule.loc.line, rule.loc.col) == (expected.loc.line, expected.loc.col) == (3, 1)


LHS_SHAPE = "rule left-hand side must be a symbol applied to pattern arguments"
LHS_ARGUMENT = "rule left-hand side arguments must be constructor terms"


@pytest.mark.parametrize("lhs,message", [
    # a pattern group after the first constructor argument
    ("f x [a]", LHS_SHAPE),
    ("(f x)[a]", LHS_SHAPE),
    ("f (Node x [a] y)", LHS_ARGUMENT),
    ("f ((Node x)[a] y)", LHS_ARGUMENT),
    # a Node with one or three annotations, or without two arguments
    ("f (Node[a] x y)", LHS_ARGUMENT),
    ("f (Node[a,b,c] x y)", LHS_ARGUMENT),
    ("f ((Node[a][b])[c] x y)", LHS_ARGUMENT),
    ("f Node", LHS_ARGUMENT),
    ("f (Node[a,b])", LHS_ARGUMENT),
    ("f (Node x)", LHS_ARGUMENT),
    ("f (Node x y z)", LHS_ARGUMENT),
    ("f ((Node x y) z)", LHS_ARGUMENT),
    # a declared symbol as an argument
    ("f g", LHS_ARGUMENT),
    ("f[a] (g)", LHS_ARGUMENT),
    ("f (Node g x)", LHS_ARGUMENT),
    # other arguments that are no constructor terms
    ("f (x y)", LHS_ARGUMENT),
    ("f (x[a])", LHS_ARGUMENT),
    ("f (Leaf x)", LHS_ARGUMENT),
    ("f (\\y:B(a). y)", LHS_ARGUMENT),
    # a head that is not an identifier
    ("Leaf", LHS_SHAPE),
    ("Node x y", LHS_SHAPE),
    ("(Node[a,b] x) y", LHS_SHAPE),
    ("\\y:B(a). y", LHS_SHAPE),
    ("(/\\a. f[a]) x", LHS_SHAPE),
])
def test_malformed_lhs_rejected(lhs, message):
    with pytest.raises(ParseError) as err:
        parse_system(f"{LHS_PRELUDE}rule {lhs} -> Leaf;\n")
    assert err.value.message.startswith(message)


def test_unclosed_lhs_parenthesis_rejected():
    with pytest.raises(ParseError) as err:
        parse_system("symbol f : forall a. B(a) -> B(leaf) recursive 1;\nrule (f[a] x -> Leaf;\n")
    assert (err.value.line, err.value.col, err.value.expected) == (2, 14, (")",))


def test_lhs_builds_no_annotated_terms(monkeypatch):
    built = []
    init = NodeCon.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(syntax.NodeCon, "__init__", counting_init)
    parse_term("Node x y")
    assert len(built) == 1  # the count sees the parser's constructions
    built.clear()
    parse_system(ring_text(50))
    assert built == []


def counted_tokenize(monkeypatch) -> list[str]:
    """The texts `syntax.tokenize` is called on from now on."""
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(syntax, "tokenize", counting)
    return calls


def test_a_valid_parse_works_out_no_position(monkeypatch):
    calls = counted_tokenize(monkeypatch)
    with pytest.raises(ParseError):
        parse_system("rule f -> ;")
    assert len(calls) == 1  # the count sees the parser's position table
    calls.clear()
    parse_system(ring_text(50))
    parse_system(FGIH_PATH.read_text())  # opens with comment lines
    assert calls == []


def test_locations_are_worked_out_once_when_one_is_read(monkeypatch):
    calls = counted_tokenize(monkeypatch)
    path = FGIH_PATH.parent / "invalid" / "arg-type.blanks.trs"
    system = parse_system(path.read_bytes().decode())  # keeps the CRLF line ends
    assert calls == []
    diags = validate_system(system)
    # the positions that parsing into (line, col) tokens gave (CRLF, a tab
    # and a form feed come before the argument)
    assert [str(d.loc) for d in diags] == ["6:19"]
    assert [str(r.loc) for r in system.rules] == ["6:1"]
    assert [(i.loc.line, i.loc.col) for _, i in system.signature] == [(3, 1), (4, 1)]
    assert len(calls) == 1


@pytest.mark.parametrize("text", [
    "symbol f : B(leaf) recursive 0;" + " " * 10**6,
    " " * 10**6 + "symbol f : B(leaf) recursive 0;",
    "symbol f : B(leaf) recursive 0;\n#" + "x" * 10**6,
    "# c\n" * 10**5 + "symbol f : B(leaf) recursive 0;",
    "\n" * 10**6 + "symbol f : B(leaf) recursive 0;",
], ids=["trailing-blanks", "leading-blanks", "long-comment", "comment-lines", "newlines"])
@pytest.mark.parametrize("tail", ["", "\nrule", " $"],
                         ids=["valid", "parse-error", "bad-character"])
def test_scanning_is_linear_in_blanks_and_comments(text, tail):
    # a token regex without an end-of-text alternative retries a trailing
    # run of blanks from each of its positions: 18 s for 32,000 blanks.  The
    # alarm stops a parse that takes longer than a second.
    def too_slow(signum, frame):
        raise TimeoutError("parsing took more than 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        parse_system(text + tail)
    except ParseError:
        assert tail
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_tokenize_positions():
    text = "# comment\nsymbol\r\nf\t:"
    assert [(t[0], t[2], t[3]) for t in tokenize(text)] == [
        ("symbol", 2, 1), ("ident", 3, 1), (":", 3, 3), ("eof", 3, 4),
    ]
    # only "\n" ends a line: "\x0c" is a blank and "\u2028" stays in its comment
    text = "f\x0c:. # x\u2028 y\n_"
    assert [(t[0], t[2], t[3]) for t in tokenize(text)] == [
        ("ident", 1, 1), (":", 1, 3), (".", 1, 4), ("_", 2, 1), ("eof", 2, 2),
    ]
    with pytest.raises(ParseError) as err:
        tokenize("f x\n  y $ z")
    assert (err.value.message, err.value.line, err.value.col) == ("unexpected character '$'", 2, 5)


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
    assert erase(c) == EApp(EApp(ENode(), EVar("x")), ELeaf())
    assert erase(ConVar("y")) == EVar("y")
    assert erase(ConLeaf()) == ELeaf()


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


# ---------------------------------------------------------------------------
# One term syntax: annotated, constructor and erased terms print alike

@pytest.mark.parametrize("text,erased", [
    ("Node[a,b] x (Node y Leaf)", "Node x (Node y Leaf)"),
    ("Node x Leaf", "Node x Leaf"),
    ("Node[leaf,node(a,_)] (Node[a,b] x y) (Node Leaf z)", "Node (Node x y) (Node Leaf z)"),
])
def test_constructor_terms_print_and_erase_as_the_terms_they_read_as(text, erased):
    (rule,) = parse_system(f"{LHS_PRELUDE}rule f[a] ({text}) -> Leaf;\n").rules
    (constructor,) = rule.recursive_args
    annotated = parse_term(text)
    assert print_term(constructor) == print_term(annotated) == text
    assert print_rule(rule) == f"rule f[a] ({text}) -> Leaf;"
    assert erase(constructor) == erase(annotated) == parse_erased_term(erased, frozenset())
    assert print_term(erase(constructor)) == erased


@pytest.mark.parametrize("text,erased", [
    (r"\x:(B(a) -> B(b)). /\c. x[c] (g[c] Leaf)", r"\x. x (g Leaf)"),
    (r"(\y:B(a). y) (Node[a,a] Leaf) g", r"(\y. y) (Node Leaf) g"),
    (r"g (\y:B(a). y)", r"g (\y. y)"),
])
def test_erased_terms_print_as_their_annotated_counterparts(text, erased):
    symbols = frozenset({"g"})
    t = erase(parse_term(text, symbols))
    assert print_term(t) == print_erased(t) == erased
    assert parse_erased_term(erased, symbols) == t


def test_print_erased_is_print_term():
    assert syntax.print_erased is syntax.print_term
