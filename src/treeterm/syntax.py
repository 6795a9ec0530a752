"""The textual .trs format of pattern-refined tree rewrite systems: the
tokenizer, which is one regular-expression scan; the recursive-descent
parser, which reads each rule's left-hand side straight into its head,
pattern arguments and constructor terms; and the printers.

The abstract syntax they read and write lives in `terms`.
"""
from __future__ import annotations

import re
from itertools import pairwise
from typing import Callable, TypeVar

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

T = TypeVar("T")


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


KEYWORDS = frozenset({"symbol", "rule", "forall", "recursive", "B", "leaf", "node", "bot",
                      "Leaf", "Node"})

# A newline, blanks or a comment, a token, or any other character (an error).
_TOKEN_RE = re.compile(
    r"""(?P<newline>\n)
      | [^\S\n]+ | \#[^\n]*
      | (?P<token>->|/\\|\\|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[()\[\],;:.])
      | (?P<other>.)
    """,
    re.VERBOSE,
)


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "newline":
            line += 1
            line_start = m.end()
        elif group is not None:
            value = m.group()
            col = m.start() - line_start + 1
            if group == "other":
                raise ParseError(f"unexpected character {value!r}", line, col)
            if value.isdigit():
                kind = "nat"
            elif value.isidentifier() and value != "_" and value not in KEYWORDS:
                kind = "ident"
            else:  # keywords, "_", punctuation, arrows and lambdas are their own kind
                kind = value
            tokens.append(Token(kind, value, line, col))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_ATOM_STARTERS = frozenset({"ident", "Leaf", "Node", "("})
_TERM_EXPECTED = ("ident", "Leaf", "Node", "(")
_LHS_ERROR = ("rule left-hand side must be a symbol applied to pattern arguments "
              "and then constructor arguments")
_ARGUMENT_ERROR = ("rule left-hand side arguments must be constructor terms "
                   "(variables, Leaf, or Node with zero or two pattern annotations)")


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

    def pattern_group(self) -> list[Pattern]:
        self.expect("[")
        pats = [self.pattern()]
        while self.peek().kind == ",":
            self.advance()
            pats.append(self.pattern())
        self.expect("]")
        return pats

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
                loc = Loc(tok.line, tok.col)
                for p in self.pattern_group():
                    t = PatApp(t, p, loc=loc)
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
        raise self.fail("expected a term", _TERM_EXPECTED)

    # -- erased terms: plain lambdas and applications, no annotations

    def erased_term(self) -> ErasedTerm:
        tok = self.peek()
        if tok.kind == "\\":
            self.advance()
            binder = self.expect("ident").text
            self.expect(".")
            return ELam(binder, self.erased_term())
        t = self.erased_atom()
        while self.peek().kind in _ATOM_STARTERS:
            t = EApp(t, self.erased_atom())
        return t

    def erased_atom(self) -> ErasedTerm:
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
            t = self.erased_term()
            self.expect(")")
            return t
        raise self.fail("expected a term", _TERM_EXPECTED)

    # -- rule left-hand sides

    def spine(self, error: str, argument: bool) -> tuple[Token, list[Pattern], list[ConstructorTerm]]:
        """Read a head token, its pattern groups and then its constructor
        arguments.  Parentheses may wrap any prefix, as in terms; an
        `argument` is one token or one parenthesized spine.  A lambda head or
        a pattern group after an argument raises `error` at the head."""
        opened = 0
        while self.peek().kind == "(":
            self.advance()
            opened += 1
        head = self.peek()
        if head.kind in ("\\", "/\\"):
            raise ParseError(error, head.line, head.col)
        if head.kind not in _ATOM_STARTERS:
            raise self.fail("expected a term", _TERM_EXPECTED)
        self.advance()
        pats: list[Pattern] = []
        args: list[ConstructorTerm] = []
        while opened or not argument:
            kind = self.peek().kind
            if kind == "[":
                if args:
                    raise ParseError(error, head.line, head.col)
                pats += self.pattern_group()
            elif kind in _ATOM_STARTERS:
                args.append(self.constructor(*self.spine(_ARGUMENT_ERROR, True)))
            elif kind == ")" and opened:
                self.advance()
                opened -= 1
            else:
                break
        if opened:
            self.expect(")")
        return head, pats, args

    def constructor(self, head: Token, pats: list[Pattern],
                    args: list[ConstructorTerm]) -> ConstructorTerm:
        if head.kind == "Node" and len(pats) in (0, 2) and len(args) == 2:
            return ConNode(*(pats or (None, None)), *args)
        if head.kind == "Leaf" and not (pats or args):
            return ConLeaf()
        if head.kind == "ident" and not (pats or args) and head.text not in self.symbols:
            return ConVar(head.text)
        raise ParseError(_ARGUMENT_ERROR, head.line, head.col)

    # -- declarations

    def symbol_decl(self) -> tuple[str, SymbolInfo]:
        start = self.expect("symbol")
        name_tok = self.expect("ident")
        self.expect(":")
        ty = self.type_()
        self.expect("recursive")
        count_tok = self.expect("nat")
        self.expect(";")
        return name_tok.text, SymbolInfo(ty, int(count_tok.text), loc=Loc(start.line, start.col))

    def rule_decl(self) -> RewriteRule:
        start = self.expect("rule")
        head, pats, args = self.spine(_LHS_ERROR, False)
        if head.kind != "ident":
            raise ParseError(_LHS_ERROR, head.line, head.col)
        self.expect("->")
        rhs = self.term()
        self.expect(";")
        return RewriteRule(head.text, tuple(pats), tuple(args), rhs, loc=Loc(start.line, start.col))

    def system(self) -> RewriteSystem:
        symbols: dict[str, SymbolInfo] = {}
        rules: list[RewriteRule] = []
        while (tok := self.peek()).kind != "eof":
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


def parse_system(text: str) -> RewriteSystem:
    """Parse a .trs source text into a rewrite system.

    Identifier occurrences in terms resolve to symbol references when the
    name is declared anywhere in the file, and to term variables otherwise.
    Arity and typing problems are left to validation.
    """
    tokens = tokenize(text)
    declared = frozenset(b.text for a, b in pairwise(tokens) if a.kind == "symbol" and b.kind == "ident")
    return _Parser(tokens, declared).system()


def _read_all(text: str, read: Callable[[_Parser], T], symbols: frozenset[str] = frozenset()) -> T:
    """Parse all of `text` with the `_Parser` method `read`."""
    parser = _Parser(tokenize(text), symbols)
    result = read(parser)
    parser.expect("eof")
    return result


def parse_pattern(text: str) -> Pattern:
    return _read_all(text, _Parser.pattern)


def parse_type(text: str) -> RefinementType:
    return _read_all(text, _Parser.type_)


def parse_term(text: str, symbols: frozenset[str] = frozenset()) -> AnnotatedTerm:
    return _read_all(text, _Parser.term, symbols)


def parse_erased_term(text: str, symbols: frozenset[str]) -> ErasedTerm:
    """Parse an erased term: plain lambdas and applications, no annotations."""
    return _read_all(text, _Parser.erased_term, symbols)


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
    return f"{head} {_print_argument(l.left)} {_print_argument(l.right)}"


def _print_argument(l: ConstructorTerm) -> str:
    return f"({print_constructor(l)})" if isinstance(l, ConNode) else print_constructor(l)


def print_rule(r: RewriteRule) -> str:
    lhs = r.head
    if r.pattern_args:
        lhs += "[" + ",".join(print_pattern(p) for p in r.pattern_args) + "]"
    lhs += "".join(" " + _print_argument(arg) for arg in r.recursive_args)
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
