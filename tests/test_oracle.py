"""Semantic pattern interpretation used to cross-check the analysis."""
from __future__ import annotations

import pytest

from treeterm.rewrite import pattern_form
from treeterm.syntax import (
    parse_erased_term,
    parse_pattern,
    parse_system,
    print_pattern,
)
from treeterm.terms import ELam, ELeaf, EVar
from conftest import FGIH_PATH, load
from oracle import (
    FuelExhaustedError,
    apply_valuation,
    match_patterns,
    term_embeds_strict,
    term_embeds_weak,
    term_matches,
    term_size,
)


FGIH = load(FGIH_PATH)
FGIH_SYMS = frozenset(name for name, _ in FGIH.signature)


def et(text: str, symbols=frozenset()):
    return parse_erased_term(text, symbols)


def pat(text: str):
    return parse_pattern(text)


# ---------------------------------------------------------------------------
# Pattern forms

@pytest.mark.parametrize(
    "text,expected",
    [
        ("Leaf", "leaf"),
        ("Node Leaf Leaf", "node(leaf,leaf)"),
        (r"\x. x", "_"),
        ("q", "bot"),
        ("q Leaf", "bot"),
        (r"Node Leaf (\x. x)", "node(leaf,_)"),
        ("Node (q Leaf) Leaf", "node(bot,leaf)"),
        ("Node (Node Leaf Leaf) (Node Leaf Leaf)", "node(node(leaf,leaf),node(leaf,leaf))"),
        ("Node Leaf", "bot"),  # a partial constructor application is neutral
    ],
)
def test_pattern_form_table(text, expected):
    assert print_pattern(pattern_form(et(text))) == expected


# ---------------------------------------------------------------------------
# Matching values against closed patterns

@pytest.mark.parametrize(
    "text,p,expected",
    [
        ("Leaf", "leaf", True),
        ("Leaf", "_", True),
        ("Leaf", "node(leaf,leaf)", False),
        ("Leaf", "bot", False),
        ("q", "bot", True),  # neutral terms match every closed pattern
        ("q", "leaf", True),
        ("q", "node(node(leaf,leaf),leaf)", True),
        ("Node Leaf Leaf", "node(leaf,leaf)", True),
        ("Node Leaf Leaf", "node(leaf,bot)", False),
        ("Node (q Leaf) Leaf", "node(node(leaf,leaf),leaf)", True),
        ("Node Leaf Leaf", "leaf", False),
        (r"\x. x", "_", True),
        (r"\x. x", "leaf", False),
        ("Node Leaf Leaf", "_", True),
        ("Node Leaf Leaf", "node(_,leaf)", True),
    ],
)
def test_term_matches_table(text, p, expected):
    assert term_matches(et(text), pat(p)) is expected


def test_term_matches_rejects_open_pattern():
    with pytest.raises(ValueError):
        term_matches(ELeaf(), pat("a"))
    with pytest.raises(ValueError):
        term_matches(ELeaf(), pat("node(a,leaf)"))


# ---------------------------------------------------------------------------
# Valuations

def test_apply_valuation_substitutes_each_occurrence_independently():
    theta = {"a": frozenset({pat("leaf"), pat("node(leaf,leaf)")})}
    got = apply_valuation(pat("node(a,a)"), theta)
    assert {print_pattern(p) for p in got} == {
        "node(leaf,leaf)",
        "node(leaf,node(leaf,leaf))",
        "node(node(leaf,leaf),leaf)",
        "node(node(leaf,leaf),node(leaf,leaf))",
    }


def test_apply_valuation_constants_pass_through():
    theta: dict = {}
    for text in ("leaf", "bot", "_"):
        assert apply_valuation(pat(text), theta) == frozenset({pat(text)})


def test_apply_valuation_missing_variable():
    with pytest.raises(ValueError):
        apply_valuation(pat("node(a,b)"), {"a": frozenset({pat("leaf")})})


# ---------------------------------------------------------------------------
# Recovering valuations by matching

def test_match_patterns_variable_collects_normal_forms():
    theta = match_patterns([et("i (Node Leaf Leaf)", FGIH_SYMS)], [pat("a")], FGIH)
    assert theta == {"a": frozenset({pat("node(leaf,leaf)")})}


def test_match_patterns_decomposes_node():
    theta = match_patterns(
        [et("Node Leaf (Node Leaf Leaf)")],
        [pat("node(a,b)")],
        FGIH,
    )
    assert theta == {
        "a": frozenset({pat("leaf")}),
        "b": frozenset({pat("node(leaf,leaf)")}),
    }


def test_match_patterns_leaf_requires_literal_leaf():
    assert match_patterns([et("Leaf")], [pat("leaf")], FGIH) == {}
    # i Leaf would reduce to Leaf, but matching never reduces at leaf patterns
    assert match_patterns([et("i Leaf", FGIH_SYMS)], [pat("leaf")], FGIH) is None


def test_match_patterns_node_requires_literal_node():
    assert match_patterns([et("i (Node Leaf Leaf)", FGIH_SYMS)], [pat("node(a,b)")], FGIH) is None


def test_match_patterns_repeated_variable_needs_alpha_equal_terms():
    t1 = ELam("x", EVar("x"))
    t2 = ELam("y", EVar("y"))
    theta = match_patterns([t1, t2], [pat("a"), pat("a")], FGIH)
    assert theta is not None
    assert theta["a"] == frozenset({pat("_")})
    assert match_patterns([t1, ELeaf()], [pat("a"), pat("a")], FGIH) is None


def test_match_patterns_length_mismatch():
    assert match_patterns([ELeaf()], [], FGIH) is None
    assert match_patterns([], [pat("leaf")], FGIH) is None


def test_match_patterns_neutral_argument_under_variable():
    theta = match_patterns([et("q")], [pat("a")], FGIH)
    assert theta == {"a": frozenset({pat("bot")})}


def test_match_patterns_propagates_fuel_exhaustion():
    looping = parse_system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> f[a] x;\n"
    )
    with pytest.raises(FuelExhaustedError) as err:
        match_patterns([et("f Leaf", frozenset({"f"}))], [pat("a")], looping, fuel=50)
    assert err.value.outcome.steps >= 1


def test_match_patterns_bottom_pattern_never_matches_directly():
    assert match_patterns([et("q")], [pat("bot")], FGIH) is None


# ---------------------------------------------------------------------------
# Embedding of normal forms

LEAF = "Leaf"
TREE = "Node Leaf Leaf"
BIG = "Node (Node Leaf Leaf) Leaf"


@pytest.mark.parametrize(
    "t,u,strict,weak",
    [
        (TREE, LEAF, True, True),
        (BIG, TREE, True, True),
        (BIG, LEAF, True, True),
        (LEAF, LEAF, False, True),
        (LEAF, TREE, False, False),
        (TREE, TREE, False, True),  # componentwise weak congruence
        (BIG, BIG, False, True),
        ("q", "m", False, True),  # any two neutral terms relate weakly
        ("q Leaf", "q", False, True),
        (LEAF, "q", False, False),
        ("q", LEAF, False, False),
        (r"\x. x", r"\x. x", False, False),  # lambdas stay unrelated
        (r"\x. x", LEAF, False, False),
        (TREE, r"\x. x", False, False),
        ("Node (q Leaf) Leaf", "q", True, True),  # neutral child embeds neutral
        ("Node Leaf q", "q Leaf", True, True),
    ],
)
def test_term_embedding_table(t, u, strict, weak):
    assert term_embeds_strict(et(t), et(u)) is strict
    assert term_embeds_weak(et(t), et(u)) is weak


def test_strict_embedding_decreases_size():
    pairs = [(TREE, LEAF), (BIG, TREE), (BIG, LEAF), ("Node (q Leaf) Leaf", "q")]
    for t, u in pairs:
        assert term_size(et(t)) > term_size(et(u))


@pytest.mark.parametrize(
    "text,size",
    [
        ("Leaf", 0),
        ("q", 0),
        (r"\x. x", 0),
        ("Node Leaf Leaf", 1),
        ("Node (Node Leaf Leaf) Leaf", 2),
        ("Node (Node Leaf Leaf) (Node Leaf Leaf)", 3),
        ("Node (q Leaf) Leaf", 1),  # neutral children weigh nothing
    ],
)
def test_term_size_table(text, size):
    assert term_size(et(text)) == size
