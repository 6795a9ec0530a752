"""Abstract syntax of pattern-refined tree rewrite systems.

Patterns approximate binary-tree shapes, refinement types attach patterns to
the base type of trees, and annotated terms carry explicit pattern
applications and abstractions.  This module also houses substitution,
alpha-canonical renaming and the erasure from annotated terms to the untyped
runtime language.  The textual format lives in `syntax`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Mapping, Union


@dataclass(frozen=True)
class Loc:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Patterns

@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PLeaf:
    pass


@dataclass(frozen=True)
class PNode:
    left: Pattern
    right: Pattern


@dataclass(frozen=True)
class PWild:
    pass


@dataclass(frozen=True)
class PBottom:
    pass


Pattern = Union[PVar, PLeaf, PNode, PWild, PBottom]


def pattern_vars(p: Pattern) -> frozenset[str]:
    if isinstance(p, PVar):
        return frozenset((p.name,))
    if isinstance(p, PNode):
        return pattern_vars(p.left) | pattern_vars(p.right)
    return frozenset()


def pattern_subst(p: Pattern, mapping: Mapping[str, Pattern]) -> Pattern:
    """Parallel substitution of pattern variables; patterns bind nothing."""
    if isinstance(p, PVar):
        return mapping.get(p.name, p)
    if isinstance(p, PNode):
        return PNode(pattern_subst(p.left, mapping), pattern_subst(p.right, mapping))
    return p


# ---------------------------------------------------------------------------
# Refinement types

@dataclass(frozen=True)
class Base:
    pattern: Pattern


@dataclass(frozen=True)
class Arrow:
    dom: RefinementType
    cod: RefinementType


@dataclass(frozen=True)
class Forall:
    binder: str
    body: RefinementType


RefinementType = Union[Base, Arrow, Forall]


def type_free_vars(t: RefinementType) -> frozenset[str]:
    if isinstance(t, Base):
        return pattern_vars(t.pattern)
    if isinstance(t, Arrow):
        return type_free_vars(t.dom) | type_free_vars(t.cod)
    return type_free_vars(t.body) - {t.binder}


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    if base not in avoid:
        return base
    i = 2
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def type_subst(t: RefinementType, mapping: Mapping[str, Pattern]) -> RefinementType:
    """Capture-avoiding parallel substitution of pattern variables in a type."""
    if isinstance(t, Base):
        return Base(pattern_subst(t.pattern, mapping))
    if isinstance(t, Arrow):
        return Arrow(type_subst(t.dom, mapping), type_subst(t.cod, mapping))
    live = {k: v for k, v in mapping.items() if k != t.binder}
    relevant = {k: v for k, v in live.items() if k in type_free_vars(t.body)}
    if not relevant:
        return Forall(t.binder, type_subst(t.body, live)) if live else t
    captured = frozenset().union(*(pattern_vars(v) for v in relevant.values()))
    binder = t.binder
    body = t.body
    if binder in captured:
        renamed = fresh_name(binder, captured | type_free_vars(body) | set(relevant))
        body = type_subst(body, {binder: PVar(renamed)})
        binder = renamed
    return Forall(binder, type_subst(body, relevant))


def quantifier_prefix(t: RefinementType) -> tuple[tuple[str, ...], RefinementType]:
    names: list[str] = []
    while isinstance(t, Forall):
        names.append(t.binder)
        t = t.body
    return tuple(names), t


# ---------------------------------------------------------------------------
# Annotated terms

@dataclass(frozen=True)
class TermVar:
    name: str
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SymbolRef:
    name: str
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LeafCon:
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class NodeCon:
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class App:
    fun: AnnotatedTerm
    arg: AnnotatedTerm
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PatApp:
    fun: AnnotatedTerm
    pattern: Pattern
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Lam:
    binder: str
    annot: RefinementType
    body: AnnotatedTerm
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PatLam:
    binder: str
    body: AnnotatedTerm
    loc: Loc | None = field(default=None, compare=False, repr=False)


AnnotatedTerm = Union[TermVar, SymbolRef, LeafCon, NodeCon, App, PatApp, Lam, PatLam]


def term_free_term_vars(t: AnnotatedTerm) -> frozenset[str]:
    if isinstance(t, TermVar):
        return frozenset((t.name,))
    if isinstance(t, App):
        return term_free_term_vars(t.fun) | term_free_term_vars(t.arg)
    if isinstance(t, PatApp):
        return term_free_term_vars(t.fun)
    if isinstance(t, Lam):
        return term_free_term_vars(t.body) - {t.binder}
    if isinstance(t, PatLam):
        return term_free_term_vars(t.body)
    return frozenset()


def term_free_pattern_vars(t: AnnotatedTerm) -> frozenset[str]:
    if isinstance(t, App):
        return term_free_pattern_vars(t.fun) | term_free_pattern_vars(t.arg)
    if isinstance(t, PatApp):
        return term_free_pattern_vars(t.fun) | pattern_vars(t.pattern)
    if isinstance(t, Lam):
        return term_free_pattern_vars(t.body) | type_free_vars(t.annot)
    if isinstance(t, PatLam):
        return term_free_pattern_vars(t.body) - {t.binder}
    return frozenset()


def call_sites(t: AnnotatedTerm) -> list[tuple[SymbolRef, tuple[Pattern, ...]]]:
    """Every symbol occurrence in t, left to right, with the patterns it is
    applied to directly."""
    out: list[tuple[SymbolRef, tuple[Pattern, ...]]] = []

    def visit(u: AnnotatedTerm, applied: tuple[Pattern, ...]) -> None:
        if isinstance(u, SymbolRef):
            out.append((u, applied))
        elif isinstance(u, PatApp):
            visit(u.fun, (u.pattern,) + applied)
        elif isinstance(u, App):
            visit(u.fun, ())
            visit(u.arg, ())
        elif isinstance(u, (Lam, PatLam)):
            visit(u.body, ())

    visit(t, ())
    return out


# ---------------------------------------------------------------------------
# Constructor terms (rule left-hand side arguments)

@dataclass(frozen=True)
class ConVar:
    name: str


@dataclass(frozen=True)
class ConLeaf:
    pass


@dataclass(frozen=True)
class ConNode:
    # annotations are None when the source omitted them; minimal typing checks the others
    ann_left: Pattern | None
    ann_right: Pattern | None
    left: ConstructorTerm
    right: ConstructorTerm


ConstructorTerm = Union[ConVar, ConLeaf, ConNode]


# ---------------------------------------------------------------------------
# Erased terms (the untyped runtime language)
#
# Every erased term has `inert`: no symbol and no lambda occurs in it, so it
# has no redex and is its own only normal form.

@dataclass(frozen=True)
class EVar:
    name: str
    inert: ClassVar[bool] = True


@dataclass(frozen=True)
class ESym:
    name: str
    inert: ClassVar[bool] = False


@dataclass(frozen=True)
class ELeaf:
    inert: ClassVar[bool] = True


@dataclass(frozen=True)
class ENode:
    inert: ClassVar[bool] = True


_set = object.__setattr__


class _Compound:
    """An immutable erased term with children.  Its hash is computed once,
    from the children's, and equality walks both terms with an explicit
    stack, so deep terms compare without recursion."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        work = [(self, other)]
        while work:
            a, b = work.pop()
            if a is b:
                continue
            kind = type(a)
            if kind is not type(b):
                return False
            if kind is EApp:
                if a._hash != b._hash:
                    return False
                work.append((a.fun, b.fun))
                work.append((a.arg, b.arg))
            elif kind is ELam:
                if a._hash != b._hash or a.binder != b.binder:
                    return False
                work.append((a.body, b.body))
            elif a != b:
                return False
        return True

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class EApp(_Compound):
    __slots__ = ("fun", "arg", "inert")
    _fields = ("fun", "arg")

    def __init__(self, fun: ErasedTerm, arg: ErasedTerm):
        _set(self, "fun", fun)
        _set(self, "arg", arg)
        _set(self, "inert", fun.inert and arg.inert)
        _set(self, "_hash", hash((fun, arg)))


class ELam(_Compound):
    __slots__ = ("binder", "body")
    _fields = ("binder", "body")
    inert = False

    def __init__(self, binder: str, body: ErasedTerm):
        _set(self, "binder", binder)
        _set(self, "body", body)
        _set(self, "_hash", hash((binder, body)))


ErasedTerm = Union[EVar, ESym, ELeaf, ENode, EApp, ELam]


def erase(t: AnnotatedTerm) -> ErasedTerm:
    """Drop pattern applications, pattern abstractions and type annotations."""
    if isinstance(t, TermVar):
        return EVar(t.name)
    if isinstance(t, SymbolRef):
        return ESym(t.name)
    if isinstance(t, LeafCon):
        return ELeaf()
    if isinstance(t, NodeCon):
        return ENode()
    if isinstance(t, App):
        return EApp(erase(t.fun), erase(t.arg))
    if isinstance(t, PatApp):
        return erase(t.fun)
    if isinstance(t, Lam):
        return ELam(t.binder, erase(t.body))
    return erase(t.body)


def erase_constructor(l: ConstructorTerm) -> ErasedTerm:
    if isinstance(l, ConVar):
        return EVar(l.name)
    if isinstance(l, ConLeaf):
        return ELeaf()
    return EApp(EApp(ENode(), erase_constructor(l.left)), erase_constructor(l.right))


def erased_free_vars(t: ErasedTerm) -> frozenset[str]:
    if isinstance(t, EVar):
        return frozenset((t.name,))
    if isinstance(t, EApp):
        return erased_free_vars(t.fun) | erased_free_vars(t.arg)
    if isinstance(t, ELam):
        return erased_free_vars(t.body) - {t.binder}
    return frozenset()


def erased_subst(t: ErasedTerm, mapping: Mapping[str, ErasedTerm]) -> ErasedTerm:
    """Capture-avoiding parallel substitution of term variables."""
    if isinstance(t, EVar):
        return mapping.get(t.name, t)
    if isinstance(t, EApp):
        return EApp(erased_subst(t.fun, mapping), erased_subst(t.arg, mapping))
    if isinstance(t, ELam):
        live = {k: v for k, v in mapping.items() if k != t.binder and k in erased_free_vars(t.body)}
        if not live:
            return t
        captured = frozenset().union(*(erased_free_vars(v) for v in live.values()))
        binder = t.binder
        body = t.body
        if binder in captured:
            renamed = fresh_name(binder, captured | erased_free_vars(body) | set(live))
            body = erased_subst(body, {binder: EVar(renamed)})
            binder = renamed
        return ELam(binder, erased_subst(body, live))
    return t


def alpha_canonical(t: ErasedTerm) -> ErasedTerm:
    """Rename binders to depth-indexed names; alpha-equal terms map to equal trees."""
    fv = erased_free_vars(t)

    def name_at(depth: int) -> str:
        candidate = f"v{depth}"
        while candidate in fv:
            candidate += "_"
        return candidate

    def go(u: ErasedTerm, depth: int, env: Mapping[str, str]) -> ErasedTerm:
        if isinstance(u, EVar):
            return EVar(env.get(u.name, u.name))
        if isinstance(u, EApp):
            return EApp(go(u.fun, depth, env), go(u.arg, depth, env))
        if isinstance(u, ELam):
            fresh = name_at(depth)
            inner = dict(env)
            inner[u.binder] = fresh
            return ELam(fresh, go(u.body, depth + 1, inner))
        return u

    return go(t, 0, {})


# ---------------------------------------------------------------------------
# Rules, signatures, systems

@dataclass(frozen=True)
class SymbolInfo:
    type: RefinementType
    recursive_count: int
    quantifier_count: int
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass
class Signature:
    entries: dict[str, SymbolInfo] = field(default_factory=dict)

    def get(self, name: str) -> SymbolInfo | None:
        return self.entries.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __iter__(self) -> Iterator[tuple[str, SymbolInfo]]:
        return iter(self.entries.items())


@dataclass(frozen=True)
class RewriteRule:
    head: str
    pattern_args: tuple[Pattern, ...]
    recursive_args: tuple[ConstructorTerm, ...]
    rhs: AnnotatedTerm
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass
class RewriteSystem:
    signature: Signature
    rules: tuple[RewriteRule, ...]
