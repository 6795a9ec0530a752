"""The record base class: immutability, equality, hashing and deep values."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import treeterm
from treeterm import analysis, cli, report, rewrite, syntax, terms, typecheck  # noqa: F401
from treeterm.analysis import DependencyPair
from treeterm.terms import (
    Arrow,
    Base,
    EApp,
    ELeaf,
    ENode,
    ESym,
    EVar,
    LeafCon,
    Loc,
    PLeaf,
    PNode,
    PVar,
    PWild,
    Record,
    RewriteRule,
    SymbolInfo,
    TermVar,
)
from treeterm.typecheck import Context

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)

# Classes whose own __init__ needs arguments of a particular kind.
EXAMPLES = {
    EApp: lambda: EApp(ELeaf(), ELeaf()),
}


def example(cls: type) -> Record:
    if cls in EXAMPLES:
        return EXAMPLES[cls]()
    return cls(*range(len(cls._fields)))


def test_every_record_class_is_listed():
    # the 40 classes that were dataclasses, plus EApp and ELam, less the
    # tokenizer's Token, which became a plain tuple, and Loc, which holds a
    # parse's shared position table and a token index
    assert len(RECORDS) == 40
    assert {cls.__module__ for cls in RECORDS} == {
        f"treeterm.{m}" for m in ("analysis", "rewrite", "terms", "typecheck")
    }


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_slotted_and_immutable(cls):
    value = example(cls)
    assert not hasattr(value, "__dict__")
    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == example(cls)
    assert hash(value) == hash(example(cls))


def test_equality_needs_the_same_class():
    assert EVar("x") != ESym("x")
    assert PLeaf() != PWild()


def test_locations_are_slotted_and_immutable():
    loc = Loc(([(1, 2), (3, 4)], 1))
    assert not hasattr(loc, "__dict__")
    for name in ("line", "col", "other"):
        with pytest.raises(AttributeError):
            setattr(loc, name, None)
    assert (loc.line, loc.col, str(loc)) == (3, 4, "3:4")
    assert loc == Loc(([(3, 4)], 0)) != Loc(([(3, 5)], 0))
    assert not loc != Loc(([(3, 4)], 0))
    assert hash(loc) == hash(Loc(([(3, 4)], 0)))


def test_locations_work_out_their_table_once():
    calls = []
    table = [lambda: calls.append(1) or [(1, 1), (2, 5)]]
    first, second = Loc((table, 0)), Loc((table, 1))
    assert calls == []
    assert (str(second), str(first), second.col) == ("2:5", "1:1", 5)
    assert calls == [1]


def test_locations_do_not_count():
    a = TermVar("x", loc=Loc(([(1, 1)], 0)))
    b = TermVar("x", loc=Loc(([(2, 2)], 0)))
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == "TermVar(name='x')"


def test_unequal_fields_of_the_same_class():
    t = Base(PLeaf())
    # a differing scalar field
    assert SymbolInfo(t, 1) != SymbolInfo(t, 2)
    # tuple fields of different lengths
    assert (RewriteRule("f", (PVar("a"),), (), LeafCon())
            != RewriteRule("f", (PVar("a"), PVar("b")), (), LeafCon()))
    # differing scalars inside a tuple field
    assert Context((("x", t),)) != Context((("y", t),))
    # equal contexts hash alike, through the tuples in their fields
    assert hash(Context((("x", t),))) == hash(Context((("x", Base(PLeaf())),)))


def test_dependency_pair_equality_ignores_the_rule_index():
    a = DependencyPair("f", (PVar("a"),), "g", (PLeaf(),), rule_index=0)
    b = DependencyPair("f", (PVar("a"),), "g", (PLeaf(),), rule_index=3)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_defaults_and_keywords():
    assert TermVar("x").loc is None
    assert DependencyPair("f", (), "g", ()).rule_index == 0
    assert typecheck.Diagnostic("E", "m", symbol="f") == typecheck.Diagnostic("E", "m", None, None, "f")
    assert analysis.SccCheck((0,), (), (), ()).search_space == 1


def test_field_less_classes_share_one_instance():
    assert PLeaf() is PLeaf()
    assert ENode() is ENode()


def test_import_does_not_load_dataclasses():
    src = Path(treeterm.__file__).resolve().parent.parent
    probe = "import sys, treeterm, treeterm.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-B", "-c", probe], capture_output=True,
                            text=True, check=True, env={"PYTHONPATH": str(src)})
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Deep values: equality and hashing walk an explicit stack

DEPTH = 10**5


def pattern_chain(leaf) -> PNode:
    p = leaf
    for _ in range(DEPTH):
        p = PNode(p, PVar("a"))
    return p


def node_spine(leaf) -> EApp:
    t = leaf
    for _ in range(DEPTH):
        t = EApp(EApp(ENode(), t), ELeaf())
    return t


def arrow_chain(leaf) -> Arrow:
    t = Base(leaf)
    for _ in range(DEPTH):
        t = Arrow(Base(PVar("a")), t)
    return t


@pytest.mark.parametrize("build, leaf, other_leaf", [
    (pattern_chain, PLeaf(), PWild()),
    (node_spine, ELeaf(), ESym("f")),
    (arrow_chain, PLeaf(), PWild()),
], ids=["pnode-chain", "eapp-spine", "arrow-chain"])
def test_deep_values_compare_and_hash_without_recursion(build, leaf, other_leaf):
    assert DEPTH > sys.getrecursionlimit()
    first, second, other = build(leaf), build(leaf), build(other_leaf)
    assert first != other
    assert first == second
    assert hash(first) == hash(second)


def test_deep_values_print_without_recursion():
    t = ELeaf()
    for _ in range(10**4):
        t = EApp(ESym("i"), t)
    assert 10**4 > sys.getrecursionlimit()
    assert repr(t).count("EApp(") == 10**4


def test_repr_writes_fields_and_tuples_as_python_does():
    rule = RewriteRule("f", (), (PVar("a"),), (PLeaf(), (PWild(), "x")))
    assert repr(rule) == ("RewriteRule(head='f', pattern_args=(), recursive_args=(PVar(name='a'),), "
                          "rhs=(PLeaf(), (PWild(), 'x')))")
