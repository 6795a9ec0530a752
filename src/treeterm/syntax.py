"""Syntax for pattern-refined tree rewrite systems.

Patterns approximate binary-tree shapes, refinement types attach patterns to
the base type of trees, and annotated terms carry explicit pattern
applications and abstractions.  This module also houses the parser and
printer for the textual .trs format and the erasure from annotated terms to
the untyped runtime language.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union


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


def subst_pattern(t: RefinementType, var: str, p: Pattern) -> RefinementType:
    """Substitute a single pattern variable in a type, avoiding capture."""
    return type_subst(t, {var: p})


def quantifier_prefix(t: RefinementType) -> tuple[tuple[str, ...], RefinementType]:
    names: list[str] = []
    while isinstance(t, Forall):
        names.append(t.binder)
        t = t.body
    return tuple(names), t


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
    # annotations are None when the source omitted them; minimal typing fills them in
    ann_left: Pattern | None
    ann_right: Pattern | None
    left: ConstructorTerm
    right: ConstructorTerm


ConstructorTerm = Union[ConVar, ConLeaf, ConNode]


def constructor_term_vars(l: ConstructorTerm) -> list[str]:
    """Term variables of l in first-occurrence order, without duplicates."""
    out: list[str] = []

    def go(c: ConstructorTerm) -> None:
        if isinstance(c, ConVar):
            if c.name not in out:
                out.append(c.name)
        elif isinstance(c, ConNode):
            go(c.left)
            go(c.right)

    go(l)
    return out


# ---------------------------------------------------------------------------
# Erased terms (the untyped runtime language)

@dataclass(frozen=True)
class EVar:
    name: str


@dataclass(frozen=True)
class ESym:
    name: str


@dataclass(frozen=True)
class ELeaf:
    pass


@dataclass(frozen=True)
class ENode:
    pass


@dataclass(frozen=True)
class EApp:
    fun: ErasedTerm
    arg: ErasedTerm


@dataclass(frozen=True)
class ELam:
    binder: str
    body: ErasedTerm


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


def alpha_eq_erased(a: ErasedTerm, b: ErasedTerm) -> bool:
    return alpha_canonical(a) == alpha_canonical(b)


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


# ---------------------------------------------------------------------------
# Lexer

class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


KEYWORDS = frozenset({
    "symbol", "rule", "forall", "recursive", "B", "leaf", "node", "bot", "Leaf", "Node",
})

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<arrow>->)
      | (?P<patlam>/\\)
      | (?P<lam>\\)
      | (?P<nat>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[()\[\],;:.])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        col = pos - line_start + 1
        pos = m.end()
        group = m.lastgroup
        value = m.group()
        if group in ("ws", "comment"):
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + value.rindex("\n") + 1
            continue
        if group == "ident":
            if value == "_":
                tokens.append(Token("_", value, line, col))
            elif value in KEYWORDS:
                tokens.append(Token(value, value, line, col))
            else:
                tokens.append(Token("ident", value, line, col))
        elif group == "punct":
            tokens.append(Token(value, value, line, col))
        elif group == "arrow":
            tokens.append(Token("->", value, line, col))
        elif group == "lam":
            tokens.append(Token("\\", value, line, col))
        elif group == "patlam":
            tokens.append(Token("/\\", value, line, col))
        else:
            tokens.append(Token("nat", value, line, col))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_ATOM_STARTERS = frozenset({"ident", "Leaf", "Node", "("})


class _Parser:
    def __init__(self, tokens: list[Token], symbols: frozenset[str]):
        self.tokens = tokens
        self.symbols = symbols
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.col, (kind,))
        return self.advance()

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col, expected)

    # -- patterns

    def pattern(self) -> Pattern:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return PVar(tok.text)
        if tok.kind == "leaf":
            self.advance()
            return PLeaf()
        if tok.kind == "bot":
            self.advance()
            return PBottom()
        if tok.kind == "_":
            self.advance()
            return PWild()
        if tok.kind == "node":
            self.advance()
            self.expect("(")
            left = self.pattern()
            self.expect(",")
            right = self.pattern()
            self.expect(")")
            return PNode(left, right)
        raise self.fail("expected a pattern", ("ident", "leaf", "node", "bot", "_"))

    # -- types

    def type_(self) -> RefinementType:
        if self.peek().kind == "forall":
            self.advance()
            binders = [self.expect("ident").text]
            while self.peek().kind == "ident":
                binders.append(self.advance().text)
            self.expect(".")
            body = self.type_()
            for name in reversed(binders):
                body = Forall(name, body)
            return body
        left = self.atype()
        if self.peek().kind == "->":
            self.advance()
            return Arrow(left, self.type_())
        return left

    def atype(self) -> RefinementType:
        tok = self.peek()
        if tok.kind == "B":
            self.advance()
            self.expect("(")
            p = self.pattern()
            self.expect(")")
            return Base(p)
        if tok.kind == "(":
            self.advance()
            t = self.type_()
            self.expect(")")
            return t
        raise self.fail("expected a type", ("B", "("))

    # -- terms

    def term(self) -> AnnotatedTerm:
        tok = self.peek()
        if tok.kind == "\\":
            self.advance()
            binder = self.expect("ident").text
            self.expect(":")
            annot = self.type_()
            self.expect(".")
            return Lam(binder, annot, self.term(), loc=Loc(tok.line, tok.col))
        if tok.kind == "/\\":
            self.advance()
            binder = self.expect("ident").text
            self.expect(".")
            return PatLam(binder, self.term(), loc=Loc(tok.line, tok.col))
        return self.app()

    def app(self) -> AnnotatedTerm:
        t = self.atom()
        while True:
            tok = self.peek()
            if tok.kind in _ATOM_STARTERS:
                t = App(t, self.atom(), loc=Loc(tok.line, tok.col))
            elif tok.kind == "[":
                self.advance()
                t = PatApp(t, self.pattern(), loc=Loc(tok.line, tok.col))
                while self.peek().kind == ",":
                    self.advance()
                    t = PatApp(t, self.pattern(), loc=Loc(tok.line, tok.col))
                self.expect("]")
            else:
                return t

    def atom(self) -> AnnotatedTerm:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            loc = Loc(tok.line, tok.col)
            if tok.text in self.symbols:
                return SymbolRef(tok.text, loc=loc)
            return TermVar(tok.text, loc=loc)
        if tok.kind == "Leaf":
            self.advance()
            return LeafCon(loc=Loc(tok.line, tok.col))
        if tok.kind == "Node":
            self.advance()
            return NodeCon(loc=Loc(tok.line, tok.col))
        if tok.kind == "(":
            self.advance()
            t = self.term()
            self.expect(")")
            return t
        raise self.fail("expected a term", ("ident", "Leaf", "Node", "("))

    # -- declarations

    def symbol_decl(self) -> tuple[str, SymbolInfo]:
        start = self.expect("symbol")
        name_tok = self.expect("ident")
        self.expect(":")
        ty = self.type_()
        self.expect("recursive")
        count_tok = self.expect("nat")
        self.expect(";")
        quants, _ = quantifier_prefix(ty)
        info = SymbolInfo(
            type=ty,
            recursive_count=int(count_tok.text),
            quantifier_count=len(quants),
            loc=Loc(start.line, start.col),
        )
        return name_tok.text, info

    def rule_decl(self) -> RewriteRule:
        start = self.expect("rule")
        lhs = self.term()
        self.expect("->")
        rhs = self.term()
        self.expect(";")
        loc = Loc(start.line, start.col)
        head, pats, args = self._split_lhs(lhs, loc)
        return RewriteRule(head, pats, args, rhs, loc=loc)

    def _split_lhs(
        self, lhs: AnnotatedTerm, loc: Loc
    ) -> tuple[str, tuple[Pattern, ...], tuple[ConstructorTerm, ...]]:
        args: list[ConstructorTerm] = []
        t = lhs
        while isinstance(t, App):
            args.append(self._to_constructor(t.arg, loc))
            t = t.fun
        args.reverse()
        pats: list[Pattern] = []
        while isinstance(t, PatApp):
            pats.append(t.pattern)
            t = t.fun
        pats.reverse()
        if isinstance(t, (TermVar, SymbolRef)):
            return t.name, tuple(pats), tuple(args)
        where = getattr(t, "loc", None) or loc
        raise ParseError(
            "rule left-hand side must be a symbol applied to pattern arguments "
            "and then constructor arguments",
            where.line,
            where.col,
        )

    def _to_constructor(self, t: AnnotatedTerm, loc: Loc) -> ConstructorTerm:
        if isinstance(t, TermVar):
            return ConVar(t.name)
        if isinstance(t, LeafCon):
            return ConLeaf()
        if isinstance(t, App) and isinstance(t.fun, App):
            head = t.fun.fun
            left = self._to_constructor(t.fun.arg, loc)
            right = self._to_constructor(t.arg, loc)
            if isinstance(head, NodeCon):
                return ConNode(None, None, left, right)
            if (
                isinstance(head, PatApp)
                and isinstance(head.fun, PatApp)
                and isinstance(head.fun.fun, NodeCon)
            ):
                return ConNode(head.fun.pattern, head.pattern, left, right)
        where = getattr(t, "loc", None) or loc
        raise ParseError(
            "rule left-hand side arguments must be constructor terms "
            "(variables, Leaf, or Node with zero or two pattern annotations)",
            where.line,
            where.col,
        )

    def system(self) -> RewriteSystem:
        signature = Signature()
        rules: list[RewriteRule] = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "symbol":
                name, info = self.symbol_decl()
                if name in signature.entries:
                    raise ParseError(f"symbol {name!r} declared twice", tok.line, tok.col)
                signature.entries[name] = info
            elif tok.kind == "rule":
                rules.append(self.rule_decl())
            else:
                raise self.fail("expected a declaration", ("symbol", "rule"))
        return RewriteSystem(signature, tuple(rules))


def _declared_symbols(tokens: list[Token]) -> frozenset[str]:
    names = set()
    for i, tok in enumerate(tokens):
        if tok.kind == "symbol" and i + 1 < len(tokens) and tokens[i + 1].kind == "ident":
            names.add(tokens[i + 1].text)
    return frozenset(names)


def parse_system(text: str) -> RewriteSystem:
    """Parse a .trs source text into a rewrite system.

    Identifier occurrences in terms resolve to symbol references when the
    name is declared anywhere in the file, and to term variables otherwise.
    Arity and typing problems are left to validation.
    """
    tokens = tokenize(text)
    return _Parser(tokens, _declared_symbols(tokens)).system()


def parse_pattern(text: str) -> Pattern:
    parser = _Parser(tokenize(text), frozenset())
    p = parser.pattern()
    parser.expect("eof")
    return p


def parse_type(text: str) -> RefinementType:
    parser = _Parser(tokenize(text), frozenset())
    t = parser.type_()
    parser.expect("eof")
    return t


def parse_term(text: str, symbols: frozenset[str] = frozenset()) -> AnnotatedTerm:
    parser = _Parser(tokenize(text), symbols)
    t = parser.term()
    parser.expect("eof")
    return t


class _ErasedParser(_Parser):
    def term(self) -> ErasedTerm:  # type: ignore[override]
        tok = self.peek()
        if tok.kind == "\\":
            self.advance()
            binder = self.expect("ident").text
            self.expect(".")
            return ELam(binder, self.term())
        t = self.eatom()
        while self.peek().kind in _ATOM_STARTERS:
            t = EApp(t, self.eatom())
        return t

    def eatom(self) -> ErasedTerm:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            if tok.text in self.symbols:
                return ESym(tok.text)
            return EVar(tok.text)
        if tok.kind == "Leaf":
            self.advance()
            return ELeaf()
        if tok.kind == "Node":
            self.advance()
            return ENode()
        if tok.kind == "(":
            self.advance()
            t = self.term()
            self.expect(")")
            return t
        raise self.fail("expected a term", ("ident", "Leaf", "Node", "("))


def parse_erased_term(text: str, symbols: frozenset[str]) -> ErasedTerm:
    """Parse an erased term: plain lambdas and applications, no annotations."""
    parser = _ErasedParser(tokenize(text), symbols)
    t = parser.term()
    parser.expect("eof")
    return t


# ---------------------------------------------------------------------------
# Printer

def print_pattern(p: Pattern) -> str:
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PLeaf):
        return "leaf"
    if isinstance(p, PNode):
        return f"node({print_pattern(p.left)},{print_pattern(p.right)})"
    if isinstance(p, PWild):
        return "_"
    return "bot"


def print_type(t: RefinementType) -> str:
    if isinstance(t, Base):
        return f"B({print_pattern(t.pattern)})"
    if isinstance(t, Arrow):
        dom = print_type(t.dom)
        if isinstance(t.dom, (Arrow, Forall)):
            dom = f"({dom})"
        return f"{dom} -> {print_type(t.cod)}"
    binders = [t.binder]
    body = t.body
    while isinstance(body, Forall):
        binders.append(body.binder)
        body = body.body
    return f"forall {' '.join(binders)}. {print_type(body)}"


def _term_is_atom(t: AnnotatedTerm) -> bool:
    return isinstance(t, (TermVar, SymbolRef, LeafCon, NodeCon))


def print_term(t: AnnotatedTerm) -> str:
    if isinstance(t, TermVar) or isinstance(t, SymbolRef):
        return t.name
    if isinstance(t, LeafCon):
        return "Leaf"
    if isinstance(t, NodeCon):
        return "Node"
    if isinstance(t, Lam):
        annot = print_type(t.annot)
        if isinstance(t.annot, (Arrow, Forall)):
            annot = f"({annot})"
        return f"\\{t.binder}:{annot}. {print_term(t.body)}"
    if isinstance(t, PatLam):
        return f"/\\{t.binder}. {print_term(t.body)}"
    # application spine with pattern groups merged
    items: list[tuple[str, object]] = []
    u: AnnotatedTerm = t
    while True:
        if isinstance(u, App):
            items.append(("term", u.arg))
            u = u.fun
        elif isinstance(u, PatApp):
            group = [u.pattern]
            v = u.fun
            while isinstance(v, PatApp):
                group.append(v.pattern)
                v = v.fun
            group.reverse()
            items.append(("patterns", group))
            u = v
        else:
            break
    items.reverse()
    head = print_term(u)
    if not _term_is_atom(u):
        head = f"({head})"
    parts = [head]
    for kind, payload in items:
        if kind == "patterns":
            parts[-1] += "[" + ",".join(print_pattern(p) for p in payload) + "]"  # type: ignore[union-attr]
        else:
            arg = payload
            text = print_term(arg)  # type: ignore[arg-type]
            if not _term_is_atom(arg):  # type: ignore[arg-type]
                text = f"({text})"
            parts.append(text)
    return " ".join(parts)


def print_constructor(l: ConstructorTerm) -> str:
    if isinstance(l, ConVar):
        return l.name
    if isinstance(l, ConLeaf):
        return "Leaf"
    head = "Node"
    if l.ann_left is not None and l.ann_right is not None:
        head += f"[{print_pattern(l.ann_left)},{print_pattern(l.ann_right)}]"
    parts = [head]
    for child in (l.left, l.right):
        text = print_constructor(child)
        if isinstance(child, ConNode):
            text = f"({text})"
        parts.append(text)
    return " ".join(parts)


def print_rule(r: RewriteRule) -> str:
    lhs = r.head
    if r.pattern_args:
        lhs += "[" + ",".join(print_pattern(p) for p in r.pattern_args) + "]"
    for arg in r.recursive_args:
        text = print_constructor(arg)
        if isinstance(arg, ConNode):
            text = f"({text})"
        lhs += f" {text}"
    return f"rule {lhs} -> {print_term(r.rhs)};"


def print_system(sys: RewriteSystem) -> str:
    """Render a system in the .trs format; parsing the result reproduces it."""
    lines = [
        f"symbol {name} : {print_type(info.type)} recursive {info.recursive_count};"
        for name, info in sys.signature
    ]
    lines.extend(print_rule(r) for r in sys.rules)
    return "\n".join(lines) + ("\n" if lines else "")


def print_erased(t: ErasedTerm) -> str:
    if isinstance(t, EVar) or isinstance(t, ESym):
        return t.name
    if isinstance(t, ELeaf):
        return "Leaf"
    if isinstance(t, ENode):
        return "Node"
    if isinstance(t, ELam):
        return f"\\{t.binder}. {print_erased(t.body)}"
    parts = []
    u: ErasedTerm = t
    while isinstance(u, EApp):
        parts.append(u.arg)
        u = u.fun
    parts.reverse()
    head = print_erased(u)
    if isinstance(u, ELam):
        head = f"({head})"
    out = [head]
    for arg in parts:
        text = print_erased(arg)
        if isinstance(arg, (EApp, ELam)):
            text = f"({text})"
        out.append(text)
    return " ".join(out)
