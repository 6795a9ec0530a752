"""Subtyping, polarity, signature validation, synthesis, and minimal typing."""
from __future__ import annotations

import pytest

from treeterm.syntax import (
    parse_pattern,
    parse_system,
    parse_term,
    parse_type,
    print_pattern,
    print_type,
)
from treeterm.terms import Base, PVar
from treeterm.typecheck import (
    Context,
    EMPTY_CONTEXT,
    LEAF_TYPE,
    NODE_TYPE,
    Polarity,
    TypeCheckError,
    check,
    decompose_symbol,
    min_type_lhs,
    pattern_sub,
    polarity,
    synthesize,
    type_sub,
    validate_rule,
    validate_signature,
    validate_system,
)
from conftest import FGIH_PATH, APP_PATH, NONMINIMAL_PATH, load


def sub(a: str, b: str) -> bool:
    return pattern_sub(parse_pattern(a), parse_pattern(b))


def tsub(a: str, b: str) -> bool:
    return type_sub(parse_type(a), parse_type(b))


# ---------------------------------------------------------------------------
# Pattern order

@pytest.mark.parametrize(
    "p,q,expected",
    [
        ("node(leaf,bot)", "_", True),
        ("bot", "node(leaf,leaf)", True),
        ("bot", "a", True),
        ("a", "a", True),
        ("a", "b", False),
        ("leaf", "leaf", True),
        ("node(leaf,a)", "node(leaf,a)", True),
        ("node(bot,leaf)", "node(a,_)", True),
        ("node(leaf,leaf)", "leaf", False),
        ("leaf", "node(_,_)", False),
        ("_", "leaf", False),
        ("_", "_", True),
        ("a", "_", True),
        ("node(a,b)", "node(_,b)", True),
        ("node(_,b)", "node(a,b)", False),
    ],
)
def test_pattern_sub_table(p, q, expected):
    assert sub(p, q) is expected


def test_pattern_sub_is_reflexive_on_samples():
    for text in ["leaf", "bot", "_", "a", "node(node(a,_),bot)"]:
        assert sub(text, text)


# ---------------------------------------------------------------------------
# Type order

def test_type_sub_base_covariant():
    assert tsub("B(bot)", "B(leaf)")
    assert tsub("B(leaf)", "B(_)")
    assert not tsub("B(leaf)", "B(bot)")


def test_type_sub_arrow_contravariant_domain():
    assert tsub("B(_) -> B(leaf)", "B(leaf) -> B(leaf)")
    assert not tsub("B(bot) -> B(leaf)", "B(leaf) -> B(leaf)")
    assert tsub("B(leaf) -> B(bot)", "B(leaf) -> B(leaf)")


def test_type_sub_forall_renames_binders():
    assert tsub("forall a. B(a) -> B(a)", "forall b. B(b) -> B(b)")
    assert not tsub("forall a. B(a) -> B(a)", "forall b. B(b) -> B(leaf)")


def test_type_sub_mismatched_shapes():
    assert not tsub("B(leaf)", "B(leaf) -> B(leaf)")
    assert not tsub("forall a. B(a)", "B(leaf)")


# ---------------------------------------------------------------------------
# Polarity

def test_polarity_cases():
    assert polarity("a", parse_type("B(a)")) is Polarity.POSITIVE
    assert polarity("a", parse_type("B(a) -> B(leaf)")) is Polarity.NEGATIVE
    assert polarity("a", parse_type("B(a) -> B(a)")) is Polarity.BOTH
    assert polarity("a", parse_type("B(leaf)")) is Polarity.ABSENT
    # double flip
    assert polarity("a", parse_type("(B(a) -> B(leaf)) -> B(leaf)")) is Polarity.POSITIVE
    # shadowed by a quantifier
    assert polarity("a", parse_type("forall a. B(a)")) is Polarity.ABSENT
    assert polarity("a", parse_type("forall b. B(a)")) is Polarity.POSITIVE


# ---------------------------------------------------------------------------
# Signature validation

def test_fixture_signatures_are_valid():
    for path in (APP_PATH, FGIH_PATH):
        assert validate_signature(load(path).signature) == []


def sig_of(text: str):
    return parse_system(text).signature


def test_signature_duplicate_quantifiers_rejected():
    diags = validate_signature(sig_of("symbol f : forall a a. B(a) -> B(a) -> B(leaf) recursive 2;"))
    assert [d.code for d in diags] == ["E-SIG-DISTINCT"]


def test_signature_recursive_count_exceeds_quantifiers():
    diags = validate_signature(sig_of("symbol f : forall a. B(a) -> B(leaf) recursive 2;"))
    assert [d.code for d in diags] == ["E-SIG-RECURSIVE-COUNT"]


def test_signature_domain_must_be_quantifier_base():
    diags = validate_signature(sig_of("symbol f : forall a. B(leaf) -> B(a) recursive 1;"))
    assert [d.code for d in diags] == ["E-SIG-SHAPE"]


def test_signature_missing_argument_positions():
    diags = validate_signature(sig_of("symbol f : forall a. B(a) recursive 1;"))
    assert [d.code for d in diags] == ["E-SIG-SHAPE"]


def test_signature_negative_polarity_rejected():
    diags = validate_signature(sig_of("symbol f : forall a. B(a) -> B(a) -> B(leaf) recursive 1;"))
    assert [d.code for d in diags] == ["E-SIG-POLARITY"]


def test_signature_absent_result_occurrence_is_fine():
    # the recursive quantifier may simply not occur in the result
    assert validate_signature(sig_of("symbol g : forall a. B(a) -> B(leaf) recursive 1;")) == []


def test_signature_declared_smaller_than_maximal_is_fine():
    # declaring fewer recursive arguments than the shape would allow is legal
    assert validate_signature(sig_of(
        "symbol app : forall a b. (B(a) -> B(b)) -> B(a) -> B(b) recursive 0;"
    )) == []


def test_decompose_symbol_shapes():
    sig = load(FGIH_PATH).signature
    quants, domains, rest = decompose_symbol("i", sig)
    assert quants == ("a",)
    assert domains == (Base(PVar("a")),)
    assert rest == Base(PVar("a"))
    with pytest.raises(TypeCheckError) as err:
        decompose_symbol("nope", sig)
    assert err.value.code == "E-UNDECLARED-SYMBOL"


# ---------------------------------------------------------------------------
# Contexts

def test_context_lookup_and_extend():
    ctx = EMPTY_CONTEXT.extend("x", parse_type("B(a)"))
    assert ctx.lookup("x") == parse_type("B(a)")
    assert ctx.lookup("y") is None
    assert str(ctx) == "x : B(a)"
    with pytest.raises(TypeCheckError) as err:
        ctx.extend("x", parse_type("B(b)"))
    assert err.value.code == "E-SHADOWED"


def test_context_free_pattern_vars():
    ctx = EMPTY_CONTEXT.extend("x", parse_type("B(a)")).extend("y", parse_type("B(node(b,_))"))
    assert ctx.free_pattern_vars() == frozenset({"a", "b"})


# ---------------------------------------------------------------------------
# Synthesis

def synth(text: str, sig_text: str = "", ctx: Context = EMPTY_CONTEXT):
    sig = parse_system(sig_text).signature
    symbols = frozenset(name for name, _ in sig)
    return synthesize(sig, ctx, parse_term(text, symbols))


def test_synthesize_constructors():
    assert synth("Leaf") == LEAF_TYPE
    assert synth("Node") == NODE_TYPE
    assert print_type(synth("Node[leaf,leaf] Leaf Leaf")) == "B(node(leaf,leaf))"


def test_synthesize_node_with_variable_patterns():
    ctx = EMPTY_CONTEXT.extend("x", parse_type("B(a)")).extend("y", parse_type("B(b)"))
    got = synth("Node[a,b] x y", ctx=ctx)
    assert print_type(got) == "B(node(a,b))"


def test_synthesize_subsumption_at_argument():
    # Leaf : B(leaf) is accepted where B(_) is expected
    lam = r"(\x:B(_). x) Leaf"
    assert print_type(synth(lam)) == "B(_)"


def test_synthesize_argument_type_mismatch():
    with pytest.raises(TypeCheckError) as err:
        synth(r"(\x:B(bot). x) Leaf")
    assert err.value.code == "E-ARG-TYPE"


def test_synthesize_not_a_function():
    with pytest.raises(TypeCheckError) as err:
        synth("Leaf Leaf")
    assert err.value.code == "E-EXPECTED-FUNCTION"


def test_synthesize_unbound_variable():
    with pytest.raises(TypeCheckError) as err:
        synth("x")
    assert err.value.code == "E-UNBOUND-VAR"


def test_synthesize_undeclared_symbol():
    sig = parse_system("").signature
    with pytest.raises(TypeCheckError) as err:
        synthesize(sig, EMPTY_CONTEXT, parse_term("f", frozenset({"f"})))
    assert err.value.code == "E-UNDECLARED-SYMBOL"


def test_synthesize_pattern_application():
    got = synth("g[node(leaf,leaf)]", "symbol g : forall a. B(a) -> B(leaf) recursive 1;")
    assert print_type(got) == "B(node(leaf,leaf)) -> B(leaf)"


def test_synthesize_pattern_application_requires_forall():
    with pytest.raises(TypeCheckError) as err:
        synth("Leaf[leaf]")
    assert err.value.code == "E-EXPECTED-POLY"


def test_synthesize_pattern_lambda():
    got = synth(r"/\a. \x:B(a). x")
    assert print_type(got) == "forall a. B(a) -> B(a)"


def test_pattern_lambda_cannot_capture_context_variable():
    ctx = EMPTY_CONTEXT.extend("x", parse_type("B(a)"))
    with pytest.raises(TypeCheckError) as err:
        synth(r"/\a. x", ctx=ctx)
    assert err.value.code == "E-PATTERN-CAPTURE"


def test_check_subsumes():
    sig = parse_system("").signature
    t = parse_term("Leaf", frozenset())
    assert check(sig, EMPTY_CONTEXT, t, parse_type("B(_)"))
    assert not check(sig, EMPTY_CONTEXT, t, parse_type("B(bot)"))


# ---------------------------------------------------------------------------
# Minimal typing

def test_min_type_fgih_node_rule():
    system = load(FGIH_PATH)
    result = min_type_lhs(system.rules[3], system.signature)  # i[node(a,b)] (Node[a,b] x y)
    assert str(result.context) == "x : B(a), y : B(b)"
    assert print_type(result.lhs_type) == "B(node(a,b))"
    assert [print_pattern(p) for p in result.recursive_patterns] == ["node(a,b)"]


def test_min_type_fgih_leaf_rule_gives_wildcard_type():
    system = load(FGIH_PATH)
    result = min_type_lhs(system.rules[2], system.signature)  # g[leaf] Leaf
    assert str(result.context) == ""
    assert print_type(result.lhs_type) == "B(_)"
    assert [print_pattern(p) for p in result.recursive_patterns] == ["leaf"]


def test_min_type_app_leaf_rule_gives_leaf_type():
    system = load(APP_PATH)
    result = min_type_lhs(system.rules[3], system.signature)  # g[leaf] Leaf (app system)
    assert print_type(result.lhs_type) == "B(leaf)"


def test_min_type_zero_argument_rule():
    system = load(APP_PATH)
    result = min_type_lhs(system.rules[1], system.signature)  # f -> ...
    assert result.context == EMPTY_CONTEXT
    assert print_type(result.lhs_type) == "B(leaf)"
    assert result.recursive_patterns == ()


def test_min_type_fresh_variables_for_extra_quantifiers():
    system = load(APP_PATH)
    result = min_type_lhs(system.rules[0], system.signature)  # app[a,b] -> ...
    assert print_type(result.lhs_type) == "(B(a) -> B(b)) -> B(a) -> B(b)"


def test_min_type_rejects_forced_pattern_mismatch():
    system = load(NONMINIMAL_PATH)
    with pytest.raises(TypeCheckError) as err:
        min_type_lhs(system.rules[0], system.signature)
    assert err.value.code == "E-MIN-PATTERN-MISMATCH"


def rule_of(text: str):
    system = parse_system(text)
    return system.rules[0], system.signature


def test_min_type_rejects_repeated_variable_across_positions():
    rule, sig = rule_of(
        "symbol f : forall a b. B(a) -> B(b) recursive 1;\n"
        "rule f[a,a] x -> x;\n"
    )
    with pytest.raises(TypeCheckError) as err:
        min_type_lhs(rule, sig)
    assert err.value.code == "E-MIN-FRESH-VAR"


def test_min_type_rejects_nonvariable_in_fresh_position():
    rule, sig = rule_of(
        "symbol f : forall a b. B(a) -> B(b) recursive 1;\n"
        "rule f[a,leaf] x -> x;\n"
    )
    with pytest.raises(TypeCheckError) as err:
        min_type_lhs(rule, sig)
    assert err.value.code == "E-MIN-FRESH-VAR"


def test_min_type_rejects_wrong_pattern_arity():
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f x -> Leaf;\n"
    )
    with pytest.raises(TypeCheckError) as err:
        min_type_lhs(rule, sig)
    assert err.value.code == "E-MIN-ARITY"


def test_min_type_rejects_wrong_constructor_arity():
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] -> Leaf;\n"
    )
    with pytest.raises(TypeCheckError) as err:
        min_type_lhs(rule, sig)
    assert err.value.code == "E-MIN-ARITY"


def test_min_type_rejects_nonlinear_constructor_variables():
    # two term variables cannot share one pattern variable
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[node(a,a)] (Node[a,a] x y) -> Leaf;\n"
    )
    with pytest.raises(TypeCheckError) as err:
        min_type_lhs(rule, sig)
    assert err.value.code == "E-MIN-PATTERN-MISMATCH"


def test_min_type_rejects_wildcard_pattern_argument():
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[node(_,b)] (Node x y) -> Leaf;\n"
    )
    with pytest.raises(TypeCheckError) as err:
        min_type_lhs(rule, sig)
    assert err.value.code == "E-MIN-PATTERN-MISMATCH"


def test_min_type_rejects_annotation_disagreement():
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[node(a,b)] (Node[b,a] x y) -> Leaf;\n"
    )
    with pytest.raises(TypeCheckError) as err:
        min_type_lhs(rule, sig)
    assert err.value.code == "E-MIN-ANNOT-MISMATCH"


def test_min_type_accepts_unannotated_constructors():
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[node(a,b)] (Node x y) -> Leaf;\n"
    )
    result = min_type_lhs(rule, sig)
    assert str(result.context) == "x : B(a), y : B(b)"


# ---------------------------------------------------------------------------
# Rule validation

def test_validate_rule_rejects_free_term_variable():
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> y;\n"
    )
    diags = validate_rule(rule, sig, 0)
    assert isinstance(diags, list)
    assert [d.code for d in diags] == ["E-FREE-VAR"]


def test_validate_rule_rejects_free_pattern_variable():
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "symbol g : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> g[c] x;\n"
    )
    diags = validate_rule(rule, sig, 0)
    assert isinstance(diags, list)
    assert [d.code for d in diags] == ["E-PATTERN-VAR"]


def test_validate_rule_rejects_partial_pattern_application():
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "symbol two : forall a b. B(a) -> B(b) -> B(leaf) recursive 2;\n"
        "rule f[a] x -> two[a] x x;\n"
    )
    diags = validate_rule(rule, sig, 0)
    assert isinstance(diags, list)
    assert [d.code for d in diags] == ["E-PARTIAL-PATTERN-APP"]


def test_validate_rule_rejects_ill_typed_rhs():
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(bot) recursive 1;\n"
        "rule f[a] x -> Leaf;\n"
    )
    diags = validate_rule(rule, sig, 0)
    assert isinstance(diags, list)
    assert [d.code for d in diags] == ["E-RHS-TYPE"]


def test_validate_rule_accepts_rhs_subtype():
    # rhs of type B(leaf) where lhs type is B(_) is fine
    rule, sig = rule_of(
        "symbol f : forall a. B(a) -> B(_) recursive 1;\n"
        "rule f[a] x -> Leaf;\n"
    )
    validated = validate_rule(rule, sig, 0)
    assert not isinstance(validated, list)


# ---------------------------------------------------------------------------
# System validation

def test_all_fixture_rules_valid():
    for path in (APP_PATH, FGIH_PATH):
        validated = validate_system(load(path))
        assert not isinstance(validated, list)
        assert len(validated.rules) == len(load(path).rules)


def test_validate_system_accumulates_diagnostics():
    system = parse_system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> y;\n"
        "rule f[a] x -> z;\n"
    )
    diags = validate_system(system)
    assert isinstance(diags, list)
    assert [d.code for d in diags] == ["E-FREE-VAR", "E-FREE-VAR"]
    assert [d.rule_index for d in diags] == [0, 1]


def test_validate_system_signature_errors_short_circuit():
    system = parse_system(
        "symbol f : forall a a. B(a) -> B(a) -> B(leaf) recursive 2;\n"
        "rule f[a,b] x y -> Leaf;\n"
    )
    diags = validate_system(system)
    assert isinstance(diags, list)
    assert [d.code for d in diags] == ["E-SIG-DISTINCT"]


def test_nonminimal_fixture_rejected():
    diags = validate_system(load(NONMINIMAL_PATH))
    assert isinstance(diags, list)
    assert [d.code for d in diags] == ["E-MIN-PATTERN-MISMATCH"]
