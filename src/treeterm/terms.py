"""Abstract syntax of pattern-refined tree rewrite systems.

Patterns approximate binary-tree shapes, refinement types attach patterns to
the base type of trees, and annotated terms carry explicit pattern
applications and abstractions.  This module also houses substitution,
alpha-canonical renaming and the erasure from annotated and constructor terms
to the untyped runtime language.  The textual format lives in `syntax`.
"""
from __future__ import annotations

from typing import Iterator, Mapping, Union

_set = object.__setattr__


class Record:
    """An immutable value with named fields: the base of every syntax node
    and result type.

    A subclass names its fields in `__slots__` and gives their defaults as
    class keywords; the base builds its `__init__`.  `derived` slots are
    filled by the subclass's own `__init__` and are not fields.  Fields in
    `ignore` are left out of equality and hashing, and so is a source
    location from the repr.  The hash lives in a slot: a `hashed` class
    computes it when an instance is built, from its children's; the others
    compute it on first use, by a walk that fills in the children's first.
    Equality holds between records of the same class only.  It compares the
    hashes of `hashed` records first and walks the children on an explicit
    stack, so values of any depth compare without recursion.  A class
    without fields has one shared instance.
    """

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()
    _hashed = False

    def __init_subclass__(cls, derived=(), ignore=(), hashed=False, **defaults):
        cls._fields = tuple(f for f in cls.__dict__["__slots__"] if f not in derived)
        cls._compared = tuple(f for f in cls._fields if f not in ignore)
        cls._shown = tuple(f for f in cls._fields if f in cls._compared or f != "loc")
        cls._salt = hash(cls.__name__)
        cls._hashed = hashed
        if not cls._fields:
            shared = object.__new__(cls)
            _set(shared, "_hash", cls._salt)
            cls.__new__ = staticmethod(lambda cls: shared)
        elif "__init__" not in cls.__dict__:
            cls.__init__ = _make_init(cls, defaults, hashed)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        stack = [self]
        while stack:
            node = stack[-1]
            pending = [c for c in _records_in(node) if not hasattr(c, "_hash")]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            values = tuple(getattr(node, f) for f in node._compared)
            _set(node, "_hash", hash((node._salt, values)))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        if self._hashed and self._hash != other._hash:
            return False
        work: list[tuple[object, object]] = []
        a, b = self, other
        while True:
            for f in a._compared:
                x = getattr(a, f)
                y = getattr(b, f)
                if x is y:
                    continue
                if type(x) is tuple or isinstance(x, Record):
                    work.append((x, y))
                elif x != y:
                    return False
            # on to the next pair of records of the same class
            while True:
                if not work:
                    return True
                a, b = work.pop()
                if type(a) is tuple:
                    if type(b) is not tuple or len(a) != len(b):
                        return False
                    work.extend(zip(a, b))
                elif not isinstance(a, Record):
                    if a != b:
                        return False
                elif type(b) is not type(a) or a._hashed and a._hash != b._hash:
                    return False
                else:
                    break

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__name__}({fields})"


def _records_in(node: Record) -> list[Record]:
    """The records among the compared fields of node, inside tuples too."""
    out = []
    work = [getattr(node, f) for f in node._compared]
    while work:
        v = work.pop()
        if isinstance(v, Record):
            out.append(v)
        elif type(v) is tuple:
            work.extend(v)
    return out


def _make_init(cls: type, defaults: dict, hashed: bool):
    """An `__init__` taking the fields of cls, positionally or by keyword."""
    fields = cls._fields
    env = {f"_{f}": getattr(cls, f).__set__ for f in fields}
    lines = [f"    _{f}(self, {f})" for f in fields]
    if hashed:
        env["_hash"] = Record._hash.__set__
        env["_salt"] = cls._salt
        lines.append(f"    _hash(self, hash((_salt, {', '.join(cls._compared)})))")
    exec(f"def __init__(self, {', '.join(fields)}):\n" + "\n".join(lines), env)
    init = env["__init__"]
    init.__defaults__ = tuple(defaults[f] for f in fields if f in defaults) or None
    init.__qualname__ = f"{cls.__name__}.__init__"
    return init


class Loc(tuple):
    """The source location of token `index` of one parse, built as
    `Loc((table, index))`: a tuple, so that the parser builds it without a
    Python call.  All locations of a parse share `table`: until one of them
    is read it holds a function that works out the (line, col) of every
    token, and then those pairs.  Equality and hashing go by line and
    column."""

    __slots__ = ()

    def position(self) -> tuple[int, int]:
        table, index = self
        if callable(table[0]):
            table[:] = table[0]()
        return table[index]

    line = property(lambda self: self.position()[0])
    col = property(lambda self: self.position()[1])

    def __eq__(self, other: object) -> bool:
        return self.position() == other.position() if type(other) is Loc else NotImplemented

    def __ne__(self, other: object) -> bool:
        return self.position() != other.position() if type(other) is Loc else NotImplemented

    def __hash__(self) -> int:
        return hash(self.position())

    def __str__(self) -> str:
        return "%d:%d" % self.position()

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Patterns

class PVar(Record, hashed=True):
    __slots__ = ("name",)


class PLeaf(Record):
    __slots__ = ()


class PNode(Record, hashed=True):
    __slots__ = ("left", "right")


class PWild(Record):
    __slots__ = ()


class PBottom(Record):
    __slots__ = ()


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

class Base(Record, hashed=True):
    __slots__ = ("pattern",)


class Arrow(Record):
    __slots__ = ("dom", "cod")


class Forall(Record):
    __slots__ = ("binder", "body")


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

# Every annotated term keeps the location it was parsed from, which equality
# ignores.

class TermVar(Record, ignore=("loc",), loc=None):
    __slots__ = ("name", "loc")


class SymbolRef(Record, ignore=("loc",), loc=None):
    __slots__ = ("name", "loc")


class LeafCon(Record, ignore=("loc",), loc=None):
    __slots__ = ("loc",)


class NodeCon(Record, ignore=("loc",), loc=None):
    __slots__ = ("loc",)


class App(Record, ignore=("loc",), loc=None):
    __slots__ = ("fun", "arg", "loc")


class PatApp(Record, ignore=("loc",), loc=None):
    __slots__ = ("fun", "pattern", "loc")


class Lam(Record, ignore=("loc",), loc=None):
    __slots__ = ("binder", "annot", "body", "loc")


class PatLam(Record, ignore=("loc",), loc=None):
    __slots__ = ("binder", "body", "loc")


AnnotatedTerm = Union[TermVar, SymbolRef, LeafCon, NodeCon, App, PatApp, Lam, PatLam]


CallSite = tuple[SymbolRef, tuple[Pattern, ...]]


def scan_term(t: AnnotatedTerm) -> tuple[frozenset[str], frozenset[str], tuple[CallSite, ...]]:
    """The free term variables, the free pattern variables and the call
    sites of t, in one walk.  The call sites are every symbol occurrence,
    left to right, with the patterns it is applied to directly."""
    term_vars: set[str] = set()
    pat_vars: set[str] = set()
    sites: list[CallSite] = []

    def visit(u: AnnotatedTerm, applied: tuple[Pattern, ...],
              bound: frozenset[str], pat_bound: frozenset[str]) -> None:
        if isinstance(u, TermVar):
            if u.name not in bound:
                term_vars.add(u.name)
        elif isinstance(u, SymbolRef):
            sites.append((u, applied))
        elif isinstance(u, PatApp):
            pat_vars.update(pattern_vars(u.pattern) - pat_bound)
            visit(u.fun, (u.pattern,) + applied, bound, pat_bound)
        elif isinstance(u, App):
            visit(u.fun, (), bound, pat_bound)
            visit(u.arg, (), bound, pat_bound)
        elif isinstance(u, Lam):
            pat_vars.update(type_free_vars(u.annot) - pat_bound)
            visit(u.body, (), bound | {u.binder}, pat_bound)
        elif isinstance(u, PatLam):
            visit(u.body, (), bound, pat_bound | {u.binder})

    visit(t, (), frozenset(), frozenset())
    return frozenset(term_vars), frozenset(pat_vars), tuple(sites)


# ---------------------------------------------------------------------------
# Constructor terms (rule left-hand side arguments)

class ConVar(Record):
    __slots__ = ("name",)


class ConLeaf(Record):
    __slots__ = ()


class ConNode(Record):
    # annotations are None when the source omitted them; minimal typing checks the others
    __slots__ = ("ann_left", "ann_right", "left", "right")


ConstructorTerm = Union[ConVar, ConLeaf, ConNode]


# ---------------------------------------------------------------------------
# Erased terms (the untyped runtime language)
#
# Every erased term has `inert`: no symbol and no lambda occurs in it, so it
# has no redex and is its own only normal form.

class EVar(Record, hashed=True):
    __slots__ = ("name",)
    inert = True


class ESym(Record, hashed=True):
    __slots__ = ("name",)
    inert = False


class ELeaf(Record):
    __slots__ = ()
    inert = True


class ENode(Record):
    __slots__ = ()
    inert = True


class EApp(Record, derived=("inert",), hashed=True):
    __slots__ = ("fun", "arg", "inert")

    # Written out because the reducer builds EApps in its inner loop.  The
    # generated `__init__`, with `inert` filled by a function and the hash
    # taken through each child's `__hash__`, made `EApp(EApp(n, l), l)` ~1.6x
    # slower and a reduce pass over the seed-1 ops 6-8% slower (two sets of
    # 10 alternating in-process passes, 2 shared vCPUs).  The setters are
    # module globals because the slot descriptors exist only after the class
    # body has run, and reading them from the class on each call cost ~20%.
    def __init__(self, fun: ErasedTerm, arg: ErasedTerm):
        _set_fun(self, fun)
        _set_arg(self, arg)
        _set_inert(self, fun.inert and arg.inert)
        _set_hash(self, hash((_EAPP_SALT, fun._hash, arg._hash)))


_set_fun, _set_arg, _set_inert = EApp.fun.__set__, EApp.arg.__set__, EApp.inert.__set__
_set_hash = Record._hash.__set__
_EAPP_SALT = EApp._salt


class ELam(Record, hashed=True):
    __slots__ = ("binder", "body")
    inert = False


ErasedTerm = Union[EVar, ESym, ELeaf, ENode, EApp, ELam]


def erase(t: AnnotatedTerm | ConstructorTerm) -> ErasedTerm:
    """Drop pattern applications, pattern abstractions and type annotations;
    a constructor term erases as the annotated term it reads as."""
    if type(t) is TermVar or type(t) is ConVar:
        return EVar(t.name)
    if type(t) is SymbolRef:
        return ESym(t.name)
    if type(t) is LeafCon or type(t) is ConLeaf:
        return ELeaf()
    if type(t) is NodeCon:
        return ENode()
    if type(t) is App:
        return EApp(erase(t.fun), erase(t.arg))
    if type(t) is ConNode:
        return EApp(EApp(ENode(), erase(t.left)), erase(t.right))
    if type(t) is PatApp:
        return erase(t.fun)
    if type(t) is Lam:
        return ELam(t.binder, erase(t.body))
    return erase(t.body)


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

class SymbolInfo(Record, ignore=("loc",), loc=None):
    __slots__ = ("type", "recursive_count", "loc")


class Signature(Record):
    """The declared symbols, by name, in declaration order."""

    __slots__ = ("entries",)

    def get(self, name: str) -> SymbolInfo | None:
        return self.entries.get(name)

    def __iter__(self) -> Iterator[tuple[str, SymbolInfo]]:
        return iter(self.entries.items())


class RewriteRule(Record, ignore=("loc",), loc=None):
    __slots__ = ("head", "pattern_args", "recursive_args", "rhs", "loc")


class RewriteSystem(Record):
    __slots__ = ("signature", "rules")
