"""The textual .trs format of pattern-refined tree rewrite systems: the
tokenizer, which scans one line at a time into plain (kind, text, line,
col) tuples; the recursive-descent parser, which reads the token kinds
from a list and each rule's left-hand side straight into its head,
pattern arguments and constructor terms; and the printers.

The abstract syntax they read and write lives in `terms`.
"""
from __future__ import annotations

import re
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
# Keywords, "_" and punctuation are their own kind; other words are "ident".
_KINDS = {s: s for s in (*KEYWORDS, "_", "->", "/\\", "\\", *"()[],;:.")}

# Blanks, then a token, a comment, any other character (an error), or the
# end of the line.  The lines come from splitting at "\n" only.
_TOKEN_RE = re.compile(
    r"""\s*(?: (?P<ident>[A-Za-z_][A-Za-z0-9_]*) | (?P<punct>[()\[\],;:.]|->|/\\|\\)
             | (?P<nat>[0-9]+) | \#.* | (?P<other>.) | \Z)
    """,
    re.VERBOSE,
)

Token = tuple[str, str, int, int]  # kind, text, line, column


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append, kind_of, scan = tokens.append, _KINDS.get, _TOKEN_RE.finditer
    lines = text.split("\n")
    for line, chars in enumerate(lines, 1):
        for m in scan(chars):
            group = m.lastgroup
            if group is None:  # a comment or the end of the line
                break
            value = m[group]
            if group == "other":
                raise ParseError(f"unexpected character {value!r}", line, m.start(group) + 1)
            append((kind_of(value, group), value, line, m.start(group) + 1))
    append(("eof", "", len(lines), len(lines[-1]) + 1))
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
    """Reads `tokens` from position `i`; `kinds` holds their kinds, in order."""

    def __init__(self, tokens: list[Token], symbols: frozenset[str]):
        self.tokens = tokens
        self.kinds = [tok[0] for tok in tokens]
        self.symbols = symbols
        self.i = 0

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1] or 'end of input'!r}", tok[2], tok[3], (kind,))
        self.i += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.tokens[self.i]
        return ParseError(message, tok[2], tok[3], expected)

    # -- patterns

    def pattern(self) -> Pattern:
        kind = self.kinds[self.i]
        if kind == "ident":
            name = self.tokens[self.i][1]
            self.i += 1
            return PVar(name)
        if kind == "leaf":
            self.i += 1
            return PLeaf()
        if kind == "bot":
            self.i += 1
            return PBottom()
        if kind == "_":
            self.i += 1
            return PWild()
        if kind == "node":
            self.i += 1
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
        while self.kinds[self.i] == ",":
            self.i += 1
            pats.append(self.pattern())
        self.expect("]")
        return pats

    # -- types

    def type_(self) -> RefinementType:
        if self.kinds[self.i] == "forall":
            self.i += 1
            binders = [self.expect("ident")[1]]
            while self.kinds[self.i] == "ident":
                binders.append(self.tokens[self.i][1])
                self.i += 1
            self.expect(".")
            body = self.type_()
            for name in reversed(binders):
                body = Forall(name, body)
            return body
        left = self.atype()
        if self.kinds[self.i] == "->":
            self.i += 1
            return Arrow(left, self.type_())
        return left

    def atype(self) -> RefinementType:
        kind = self.kinds[self.i]
        if kind == "B":
            self.i += 1
            self.expect("(")
            p = self.pattern()
            self.expect(")")
            return Base(p)
        if kind == "(":
            self.i += 1
            t = self.type_()
            self.expect(")")
            return t
        raise self.fail("expected a type", ("B", "("))

    # -- terms

    def term(self) -> AnnotatedTerm:
        tok = self.tokens[self.i]
        if tok[0] == "\\":
            self.i += 1
            binder = self.expect("ident")[1]
            self.expect(":")
            annot = self.type_()
            self.expect(".")
            return Lam(binder, annot, self.term(), Loc(tok[2], tok[3]))
        if tok[0] == "/\\":
            self.i += 1
            binder = self.expect("ident")[1]
            self.expect(".")
            return PatLam(binder, self.term(), Loc(tok[2], tok[3]))
        return self.app()

    def app(self) -> AnnotatedTerm:
        t = self.atom()
        while True:
            kind = self.kinds[self.i]
            if kind in _ATOM_STARTERS:
                tok = self.tokens[self.i]
                t = App(t, self.atom(), Loc(tok[2], tok[3]))
            elif kind == "[":
                tok = self.tokens[self.i]
                loc = Loc(tok[2], tok[3])
                for p in self.pattern_group():
                    t = PatApp(t, p, loc)
            else:
                return t

    def atom(self) -> AnnotatedTerm:
        tok = self.tokens[self.i]
        kind = tok[0]
        if kind == "ident":
            self.i += 1
            if tok[1] in self.symbols:
                return SymbolRef(tok[1], Loc(tok[2], tok[3]))
            return TermVar(tok[1], Loc(tok[2], tok[3]))
        if kind == "Leaf":
            self.i += 1
            return LeafCon(Loc(tok[2], tok[3]))
        if kind == "Node":
            self.i += 1
            return NodeCon(Loc(tok[2], tok[3]))
        if kind == "(":
            self.i += 1
            t = self.term()
            self.expect(")")
            return t
        raise self.fail("expected a term", _TERM_EXPECTED)

    # -- erased terms: plain lambdas and applications, no annotations

    def erased_term(self) -> ErasedTerm:
        if self.kinds[self.i] == "\\":
            self.i += 1
            binder = self.expect("ident")[1]
            self.expect(".")
            return ELam(binder, self.erased_term())
        t = self.erased_atom()
        while self.kinds[self.i] in _ATOM_STARTERS:
            t = EApp(t, self.erased_atom())
        return t

    def erased_atom(self) -> ErasedTerm:
        kind, text, _, _ = self.tokens[self.i]
        if kind == "ident":
            self.i += 1
            if text in self.symbols:
                return ESym(text)
            return EVar(text)
        if kind == "Leaf":
            self.i += 1
            return ELeaf()
        if kind == "Node":
            self.i += 1
            return ENode()
        if kind == "(":
            self.i += 1
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
        kinds = self.kinds
        opened = 0
        while kinds[self.i] == "(":
            self.i += 1
            opened += 1
        head = self.tokens[self.i]
        if head[0] in ("\\", "/\\"):
            raise ParseError(error, head[2], head[3])
        if head[0] not in _ATOM_STARTERS:
            raise self.fail("expected a term", _TERM_EXPECTED)
        self.i += 1
        pats: list[Pattern] = []
        args: list[ConstructorTerm] = []
        while opened or not argument:
            kind = kinds[self.i]
            if kind == "[":
                if args:
                    raise ParseError(error, head[2], head[3])
                pats += self.pattern_group()
            elif kind == "ident" or kind == "Leaf":  # a one-token argument
                args.append(self.constructor(self.tokens[self.i], [], []))
                self.i += 1
            elif kind in _ATOM_STARTERS:
                args.append(self.constructor(*self.spine(_ARGUMENT_ERROR, True)))
            elif kind == ")" and opened:
                self.i += 1
                opened -= 1
            else:
                break
        if opened:
            self.expect(")")
        return head, pats, args

    def constructor(self, head: Token, pats: list[Pattern],
                    args: list[ConstructorTerm]) -> ConstructorTerm:
        kind, text, line, col = head
        if kind == "Node" and len(pats) in (0, 2) and len(args) == 2:
            return ConNode(*(pats or (None, None)), *args)
        if kind == "Leaf" and not (pats or args):
            return ConLeaf()
        if kind == "ident" and not (pats or args) and text not in self.symbols:
            return ConVar(text)
        raise ParseError(_ARGUMENT_ERROR, line, col)

    # -- declarations

    def symbol_decl(self) -> tuple[str, SymbolInfo]:
        start = self.expect("symbol")
        name = self.expect("ident")[1]
        self.expect(":")
        ty = self.type_()
        self.expect("recursive")
        _, digits, line, col = self.expect("nat")
        self.expect(";")
        try:
            count = int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise ParseError("recursive count has too many digits", line, col) from None
        return name, SymbolInfo(ty, count, Loc(start[2], start[3]))

    def rule_decl(self) -> RewriteRule:
        start = self.expect("rule")
        head, pats, args = self.spine(_LHS_ERROR, False)
        if head[0] != "ident":
            raise ParseError(_LHS_ERROR, head[2], head[3])
        self.expect("->")
        rhs = self.term()
        self.expect(";")
        return RewriteRule(head[1], tuple(pats), tuple(args), rhs, Loc(start[2], start[3]))

    def system(self) -> RewriteSystem:
        symbols: dict[str, SymbolInfo] = {}
        rules: list[RewriteRule] = []
        while (kind := self.kinds[self.i]) != "eof":
            if kind == "symbol":
                _, _, line, col = self.tokens[self.i]
                name, info = self.symbol_decl()
                if name in symbols:
                    raise ParseError(f"symbol {name!r} declared twice", line, col)
                symbols[name] = info
            elif kind == "rule":
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
    parser = _Parser(tokenize(text), frozenset())
    kinds, tokens = parser.kinds, parser.tokens
    declared = set()
    i = 0
    for _ in range(kinds.count("symbol")):  # the last token is `eof`, never `symbol`
        i = kinds.index("symbol", i) + 1
        if kinds[i] == "ident":
            declared.add(tokens[i][1])
    parser.symbols = frozenset(declared)
    return parser.system()


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
