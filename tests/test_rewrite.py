"""Reduction of erased terms: matching, stepping, and normal-form search."""
from __future__ import annotations

import time

import pytest

from treeterm import rewrite
from treeterm.rewrite import (
    FuelExhausted,
    NormalForms,
    erased_rules,
    match_lhs,
    normalize,
    rule_index,
)
from treeterm.syntax import parse_erased_term, parse_system, print_erased
from treeterm.terms import EApp, ELam, ELeaf, ENode, ESym, EVar, alpha_canonical, erased_subst
from conftest import APP_PATH, FGIH_PATH, load
from helpers import (
    CHOICE_TEXT,
    alpha_eq_erased,
    choice_spine,
    ground_trees,
    reference_normalize,
    step,
)
from oracle import is_neutral, is_value, node_parts


def et(text: str, symbols=frozenset()):
    return parse_erased_term(text, symbols)


def tree(text: str):
    return parse_erased_term(text, frozenset())


FGIH = load(FGIH_PATH)
FGIH_SYMS = frozenset(name for name, _ in FGIH.signature)
APP = load(APP_PATH)
APP_SYMS = frozenset(name for name, _ in APP.signature)
CHOICE = parse_system(CHOICE_TEXT)


def fg(text: str):
    return et(text, FGIH_SYMS)


def ap(text: str):
    return et(text, APP_SYMS)


def forms_of(outcome):
    assert isinstance(outcome, NormalForms)
    return {print_erased(f) for f in outcome.forms}


# ---------------------------------------------------------------------------
# Rule erasure

def test_erased_rules_shape():
    rules = erased_rules(FGIH)
    assert len(rules) == len(FGIH.rules)
    borrow = rules[3]  # i[node(a,b)] (Node[a,b] x y) -> ...
    assert borrow.lhs == EApp(ESym("i"), EApp(EApp(ENode(), EVar("x")), EVar("y")))
    assert borrow.rule_index == 3
    leaf_rule = rules[4]  # i[leaf] Leaf -> Leaf
    assert leaf_rule.lhs == EApp(ESym("i"), ELeaf())
    assert leaf_rule.rhs == ELeaf()


def test_erased_rules_zero_argument_lhs():
    rules = erased_rules(APP)
    heads = [r.lhs for r in rules]
    assert ESym("f") in heads  # the nullary rule keeps a bare symbol lhs


# ---------------------------------------------------------------------------
# Matching

def test_match_binds_variables():
    lhs = EApp(ESym("i"), EApp(EApp(ENode(), EVar("x")), EVar("y")))
    t = fg("i (Node Leaf (Node Leaf Leaf))")
    binding = match_lhs(lhs, t)
    assert binding == {"x": ELeaf(), "y": tree("Node Leaf Leaf")}


def test_match_fails_on_shape():
    lhs = EApp(ESym("i"), ELeaf())
    assert match_lhs(lhs, fg("i (Node Leaf Leaf)")) is None
    assert match_lhs(lhs, fg("g Leaf")) is None


def test_match_repeated_variable_requires_identical_subterms():
    lhs = EApp(EApp(ESym("w"), EVar("x")), EVar("x"))
    syms = frozenset({"w"})
    assert match_lhs(lhs, et("w Leaf Leaf", syms)) == {"x": ELeaf()}
    assert match_lhs(lhs, et("w Leaf (Node Leaf Leaf)", syms)) is None


def test_match_is_syntactic_not_alpha():
    lhs = EApp(EApp(ESym("w"), EVar("x")), EVar("x"))
    syms = frozenset({"w"})
    t = et(r"w (\a. a) (\b. b)", syms)
    assert match_lhs(lhs, t) is None  # alpha-equal but not identical


# ---------------------------------------------------------------------------
# Single steps

def test_step_at_head():
    got = step(fg("i Leaf"), FGIH)
    assert {print_erased(t) for t in got} == {"Leaf"}


def test_step_under_node_and_application():
    got = step(fg("Node (i Leaf) Leaf"), FGIH)
    assert {print_erased(t) for t in got} == {"Node Leaf Leaf"}


def test_step_under_lambda():
    got = step(fg(r"\z. i Leaf"), FGIH)
    assert any(alpha_eq_erased(t, fg(r"\z. Leaf")) for t in got)


def test_step_beta_redex():
    got = step(et(r"(\x. Node x x) Leaf"), parse_system(""))
    assert {print_erased(t) for t in got} == {"Node Leaf Leaf"}


def test_step_beta_avoids_capture():
    # (\x. \y. x) y  -- the bound y must not capture the free one
    t = EApp(ELam("x", ELam("y", EVar("x"))), EVar("y"))
    got = step(t, parse_system(""))
    assert len(got) == 1
    (reduct,) = got
    assert alpha_eq_erased(reduct, ELam("z", EVar("y")))
    assert not alpha_eq_erased(reduct, ELam("z", EVar("z")))


def test_step_whole_rhs_is_single_reduct():
    got = step(ap("f"), APP)
    assert {print_erased(t) for t in got} == {"app g (Node Leaf Leaf)"}


def test_step_collects_every_redex_position():
    got = step(fg("Node (i Leaf) (g (Node Leaf Leaf))"), FGIH)
    assert {print_erased(t) for t in got} == {
        "Node Leaf (g (Node Leaf Leaf))",
        "Node (i Leaf) (f (i Leaf))",
    }


def test_step_on_normal_form_is_empty():
    for text in ("Leaf", "Node Leaf Leaf", r"\x. x"):
        assert step(fg(text), FGIH) == frozenset()


def test_step_ignores_rule_order():
    # the same system with its rule lines reversed steps identically
    text = open(FGIH_PATH).read()
    decls = [l for l in text.splitlines() if l.strip().startswith("symbol")]
    rules = [l for l in text.splitlines() if l.strip().startswith("rule")]
    flipped = parse_system("\n".join(decls + rules[::-1]) + "\n")
    t = fg("g (Node Leaf Leaf)")
    assert step(t, FGIH) == step(t, flipped)


# ---------------------------------------------------------------------------
# Normalisation

def test_normalize_ground_tree_is_its_own_form():
    t = fg("Node Leaf (Node Leaf Leaf)")
    out = normalize(t, FGIH)
    assert isinstance(out, NormalForms)
    assert out.forms == frozenset({alpha_canonical(t)})


def test_normalize_identity_traversal():
    for t in ground_trees(3):
        out = normalize(EApp(ESym("i"), t), FGIH)
        assert out.forms == frozenset({alpha_canonical(t)})


def test_normalize_app_f_reaches_leaf():
    out = normalize(ap("f"), APP)
    assert forms_of(out) == {"Leaf"}


def test_normalize_joins_branches():
    out = normalize(fg("g (i (Node (Node Leaf Leaf) Leaf))"), FGIH)
    assert forms_of(out) == {"f Leaf"}


def test_normalize_combines_every_form_of_each_argument():
    out = normalize(et("Node (c Leaf) (c Leaf)", frozenset({"c"})), CHOICE)
    assert forms_of(out) == {
        f"Node {a} {b}" for a in ("Leaf", "(Node Leaf Leaf)") for b in ("Leaf", "(Node Leaf Leaf)")
    }


def test_normalize_caps_normal_forms_at_fuel():
    # one expanded state (c Leaf) and four normal forms: each form is a
    # reachable state, so a fuel below four cannot cover the graph
    t = et("Node (c Leaf) (c Leaf)", frozenset({"c"}))
    assert len(normalize(t, CHOICE, fuel=4).forms) == 4
    out = normalize(t, CHOICE, fuel=3)
    assert isinstance(out, FuelExhausted)
    assert out.steps == 1
    assert [print_erased(u) for u in out.frontier] == ["Node (c Leaf) (c Leaf)"]


def test_normalize_caps_the_union_of_a_flexible_terms_forms():
    # each reduct of d has two normal forms, and the union of the three
    # distinct forms is past a fuel of two
    system = parse_system(
        CHOICE_TEXT
        + "symbol d : B(_) recursive 0;\n"
        "rule d -> Node[_,leaf] (c[leaf] Leaf) Leaf;\n"
        "rule d -> Node[leaf,_] Leaf (c[leaf] Leaf);\n"
    )
    d = et("d", frozenset({"c", "d"}))
    out = normalize(d, system, fuel=2)
    assert isinstance(out, FuelExhausted)
    assert out.steps == 2
    assert out.frontier == (ESym("d"),)
    assert forms_of(normalize(d, system, fuel=3)) == {
        "Node Leaf Leaf", "Node (Node Leaf Leaf) Leaf", "Node Leaf (Node Leaf Leaf)",
    }


def test_normalize_stops_before_building_exponentially_many_forms():
    # c Leaf is searched once and memoized, so almost no fuel is spent;
    # the 2**30 combinations must still be refused, not built
    started = time.perf_counter()
    out = normalize(choice_spine(30), CHOICE)
    assert time.perf_counter() - started < 1.0
    assert isinstance(out, FuelExhausted)
    assert out.steps == 1


def test_normalize_stores_alpha_canonical_forms():
    out = normalize(et(r"(\x. \y. x) Leaf"), parse_system(""))
    (form,) = out.forms
    assert form == alpha_canonical(form)
    assert alpha_eq_erased(form, ELam("q", ELeaf()))


def test_normalize_detects_cycle():
    looping = parse_system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> f[a] x;\n"
    )
    out = normalize(et("f Leaf", frozenset({"f"})), looping)
    assert isinstance(out, FuelExhausted)
    assert out.steps >= 1
    assert any(print_erased(t) == "f Leaf" for t in out.frontier)


def test_normalize_detects_term_inside_its_own_reduct():
    # f Leaf -> Node (f Leaf) Leaf never repeats a whole state, but the rigid
    # reduct contains the term, so the reduction is infinite
    growing = parse_system(
        "symbol f : forall a. B(a) -> B(_) recursive 1;\n"
        "rule f[a] x -> Node[_,leaf] (f[a] x) Leaf;\n"
    )
    out = normalize(et("f Leaf", frozenset({"f"})), growing)
    assert isinstance(out, FuelExhausted)
    assert out.steps == 1
    assert [print_erased(t) for t in out.frontier] == ["f Leaf"]


def test_normalize_decides_each_shared_state_once():
    # the reducts X of f (f (f Leaf)) each start a flexible path under \y. X y
    # that meets the same states; deciding each state once keeps the walk
    # within the reference's budget (it needs 647 units, the reference 648)
    t = ap("app (f (f (f Leaf)))")
    out = normalize(t, APP, fuel=2000)
    assert out == reference_normalize(t, APP, fuel=2000)
    assert isinstance(normalize(t, APP, fuel=700), NormalForms)


def test_normalize_keeps_equal_arguments_apart():
    # app.trs has lambdas, so terms are alpha-canonicalized; the two equal
    # arguments of a rigid term are still two positions of its forms
    out = normalize(ap("Node f f"), APP)
    assert out == NormalForms(frozenset({tree("Node Leaf Leaf")}))


def test_rule_index_files_rules_by_head_and_argument_count():
    index = rule_index(erased_rules(APP))
    assert sorted(index) == [("app", 0), ("f", 0), ("g", 1)]
    assert [r.rule_index for r in index[("g", 1)]] == [2, 3]


def test_normalize_erases_a_systems_rules_once(monkeypatch):
    calls = []

    def counting(sys):
        calls.append(sys)
        return erased_rules(sys)

    monkeypatch.setattr(rewrite, "erased_rules", counting)
    system = load(FGIH_PATH)
    first = normalize(fg("f (Node Leaf Leaf)"), system)
    assert normalize(fg("f (Node Leaf Leaf)"), system) == first
    assert calls == [system]


def test_normalize_frontier_is_sorted():
    looping = parse_system(
        "symbol f : forall a. B(a) -> B(leaf) recursive 1;\n"
        "symbol g : forall a. B(a) -> B(leaf) recursive 1;\n"
        "rule f[a] x -> g[a] x;\n"
        "rule g[a] x -> f[a] x;\n"
    )
    out = normalize(et("f Leaf", frozenset({"f", "g"})), looping)
    assert isinstance(out, FuelExhausted)
    printed = [print_erased(t) for t in out.frontier]
    assert printed == sorted(printed)


def test_normalize_fuel_budget_exhausts():
    out = normalize(ap("f"), APP, fuel=1)
    assert isinstance(out, FuelExhausted)
    assert out.steps == 1
    assert out.frontier  # something was still pending


def test_normalize_rejects_nonpositive_fuel():
    with pytest.raises(ValueError):
        normalize(ELeaf(), FGIH, fuel=0)
    with pytest.raises(ValueError):
        normalize(ELeaf(), FGIH, fuel=-3)


def test_normalize_rule_instances_step_to_rhs_instances():
    # every ground instance of a rule lhs reduces, in one step, to the
    # matching instance of its rhs
    trees = ground_trees(2)
    for rule in erased_rules(FGIH):
        binding_vars = sorted(_vars(rule.lhs))
        if len(binding_vars) > 2:
            continue
        for assignment in _assignments(binding_vars, trees[:4]):
            lhs = erased_subst(rule.lhs, assignment)
            rhs = erased_subst(rule.rhs, assignment)
            assert any(alpha_eq_erased(got, rhs) for got in step(lhs, FGIH))


def _vars(t, bound=frozenset()):
    if isinstance(t, EVar):
        return set() if t.name in bound else {t.name}
    if isinstance(t, EApp):
        return _vars(t.fun, bound) | _vars(t.arg, bound)
    if isinstance(t, ELam):
        return _vars(t.body, bound | {t.name})
    return set()


def _assignments(names, trees):
    if not names:
        yield {}
        return
    head, *rest = names
    for t in trees:
        for tail in _assignments(rest, trees):
            yield {head: t, **tail}


# ---------------------------------------------------------------------------
# Value and neutral classification

@pytest.mark.parametrize(
    "text,value",
    [
        ("Leaf", True),
        (r"\x. x", True),
        ("Node Leaf Leaf", True),
        ("Node Leaf (Node Leaf Leaf)", True),
        ("Node", False),
        ("Node Leaf", False),
        ("q", False),
        ("q Leaf", False),
    ],
)
def test_is_value_table(text, value):
    t = et(text)
    assert is_value(t) is value
    assert is_neutral(t) is (not value)


def test_node_parts():
    t = tree("Node Leaf (Node Leaf Leaf)")
    parts = node_parts(t)
    assert parts == (ELeaf(), tree("Node Leaf Leaf"))
    assert node_parts(ELeaf()) is None
    assert node_parts(et("Node Leaf")) is None
