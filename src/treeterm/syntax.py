"""The textual .trs format of pattern-refined tree rewrite systems: the
tokenizer, the parser and the printers.

The abstract syntax they read and write lives in `terms`.
"""
from __future__ import annotations

import re

from .terms import (
    AnnotatedTerm,
    App,
    Arrow,
    Base,
    ConLeaf,
    ConNode,
    ConstructorTerm,
    ConVar,
    EApp,
    ELam,
    ELeaf,
    ENode,
    ErasedTerm,
    ESym,
    EVar,
    Forall,
    Lam,
    LeafCon,
    Loc,
    NodeCon,
    PatApp,
    PatLam,
    Pattern,
    PBottom,
    PLeaf,
    PNode,
    PVar,
    PWild,
    Record,
    RefinementType,
    RewriteRule,
    RewriteSystem,
    Signature,
    SymbolInfo,
    SymbolRef,
    TermVar,
)


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


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")


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
        if group == "nat":
            kind = "nat"
        elif group == "ident" and value != "_" and value not in KEYWORDS:
            kind = "ident"
        else:  # keywords, "_", punctuation, arrows and lambdas are their own kind
            kind = value
        tokens.append(Token(kind, value, line, col))
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
        info = SymbolInfo(
            type=ty,
            recursive_count=int(count_tok.text),
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
        where = t.loc or loc
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
        where = t.loc or loc
        raise ParseError(
            "rule left-hand side arguments must be constructor terms "
            "(variables, Leaf, or Node with zero or two pattern annotations)",
            where.line,
            where.col,
        )

    def system(self) -> RewriteSystem:
        symbols: dict[str, SymbolInfo] = {}
        rules: list[RewriteRule] = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "symbol":
                name, info = self.symbol_decl()
                if name in symbols:
                    raise ParseError(f"symbol {name!r} declared twice", tok.line, tok.col)
                symbols[name] = info
            elif tok.kind == "rule":
                rules.append(self.rule_decl())
            else:
                raise self.fail("expected a declaration", ("symbol", "rule"))
        return RewriteSystem(Signature(symbols), tuple(rules))


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
    # application spine, outermost argument first; adjacent pattern
    # arguments print as one [p,...] group
    parts: list[str] = []
    u: AnnotatedTerm = t
    while isinstance(u, (App, PatApp)):
        if isinstance(u, App):
            text = print_term(u.arg)
            parts.append(" " + (text if _term_is_atom(u.arg) else f"({text})"))
            u = u.fun
        else:
            group: list[str] = []
            while isinstance(u, PatApp):
                group.append(print_pattern(u.pattern))
                u = u.fun
            parts.append("[" + ",".join(reversed(group)) + "]")
    head = print_term(u)
    if not _term_is_atom(u):
        head = f"({head})"
    return head + "".join(reversed(parts))


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
