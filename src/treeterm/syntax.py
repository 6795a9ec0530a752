"""The textual .trs format of pattern-refined tree rewrite systems: the
scan, which reads the kinds and texts of all tokens with one regex over the
whole text; the tokenizer, which alone knows lines and columns and runs the
same regex over the whole text once a location or an error is first read; the
recursive-descent parser, which reads the scan's lists and each rule's
left-hand side into its head, patterns and constructor terms; and the printers.
One printer, `print_term`, prints annotated, constructor and erased terms, the
three families of the one term syntax, and `print_erased` is `print_term`.

The abstract syntax they read and write lives in `terms`.
"""
from __future__ import annotations

import re
import string
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
    quantifier_prefix,
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
# Keywords, "_" and punctuation are their own kind.  Any other text that the
# scan reads is a word, a number, the end of the text, or a character that
# starts no token ("other"), by its first character.
_KINDS = {s: s for s in (*KEYWORDS, "_", "->", "/\\", "\\", *"()[],;:.")}
_FIRST_KINDS = {**dict.fromkeys(string.ascii_letters + "_", "ident"),
                **dict.fromkeys(string.digits, "nat"), "": "eof"}

_IDENT, _PUNCT, _NAT = r"[A-Za-z_][A-Za-z0-9_]*", r"[()\[\],;:.]|->|/\\|\\", r"[0-9]+"
# Blanks and comments, then a token, any other character, or the end of the
# text, which a trailing run of blanks reaches in one match.
_SCAN_RE = re.compile(rf"\s*(?:#.*\s*)*({_IDENT}|{_PUNCT}|{_NAT}|\S|\Z)")

Token = tuple[str, str, int, int]  # kind, text, line, column


def _kind(text: str) -> str:
    return _KINDS.get(text) or _FIRST_KINDS.get(text[:1], "other")


def tokenize(text: str) -> list[Token]:
    """The tokens of text with their lines and columns, from one `_SCAN_RE`
    scan of the whole text.  Only "\\n" ends a line, and "\\r" is a blank;
    the line breaks are counted between consecutive tokens only."""
    tokens: list[Token] = []
    append, kinds = tokens.append, {}
    line, line_start, last = 1, 0, 0  # line_start: where the current line begins
    for m in _SCAN_RE.finditer(text):
        start, value = m.start(1), m[1]
        if (nl := text.rfind("\n", last, start)) >= 0:
            line, line_start = line + 1 + text.count("\n", last, nl), nl + 1
        last = start
        if not value:  # the end of the text
            break
        kind = kinds.get(value) or kinds.setdefault(value, _kind(value))
        if kind == "other":
            raise ParseError(f"unexpected character {value!r}", line, start - line_start + 1)
        append((kind, value, line, start - line_start + 1))
    append(("eof", "", line, last - line_start + 1))
    return tokens


def scan(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the tokens `tokenize` reads, without their
    positions.  Each distinct text is classified once.  A character that
    starts no token raises `tokenize`'s ParseError."""
    texts = _SCAN_RE.findall(text)
    if texts[-2:] == ["", ""]:  # trailing blanks reach the end, then the end matches again
        texts.pop()
    kinds = {t: _kind(t) for t in set(texts)}
    if "other" in kinds.values():
        tokenize(text)
    return list(map(kinds.__getitem__, texts)), texts


# ---------------------------------------------------------------------------
# Parser

_ATOM_STARTERS = frozenset({"ident", "Leaf", "Node", "("})
_TERM_EXPECTED = ("ident", "Leaf", "Node", "(")
_LHS_ERROR = ("rule left-hand side must be a symbol applied to pattern arguments "
              "and then constructor arguments")
_ARGUMENT_ERROR = ("rule left-hand side arguments must be constructor terms "
                   "(variables, Leaf, or Node with zero or two pattern annotations)")


class _Parser:
    """Reads the scanned `kinds` and `texts` of a text from position `i`;
    `table` is the position table that its locations share (see `Loc`)."""

    def __init__(self, text: str, symbols: frozenset[str]):
        self.kinds, self.texts = scan(text)
        self.table = [lambda: [tok[2:] for tok in tokenize(text)]]
        self.symbols = symbols
        self.i = 0

    def expect(self, kind: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            raise self.fail(f"unexpected {self.texts[i] or 'end of input'!r}", (kind,))
        self.i = i + 1
        return self.texts[i]

    def fail(self, message: str, expected: tuple[str, ...] = (),
             at: int | None = None) -> ParseError:  # at the current token by default
        line, col = Loc((self.table, self.i if at is None else at)).position()
        return ParseError(message, line, col, expected)

    # -- patterns

    def pattern(self) -> Pattern:
        kind = self.kinds[self.i]
        if kind == "ident":
            name = self.texts[self.i]
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
            binders = [self.expect("ident")]
            while self.kinds[self.i] == "ident":
                binders.append(self.texts[self.i])
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
        i = self.i
        kind = self.kinds[i]
        if kind == "\\":
            self.i = i + 1
            binder = self.expect("ident")
            self.expect(":")
            annot = self.type_()
            self.expect(".")
            return Lam(binder, annot, self.term(), Loc((self.table, i)))
        if kind == "/\\":
            self.i = i + 1
            binder = self.expect("ident")
            self.expect(".")
            return PatLam(binder, self.term(), Loc((self.table, i)))
        return self.app()

    def app(self) -> AnnotatedTerm:
        t = self.atom()
        while True:
            kind = self.kinds[self.i]
            if kind in _ATOM_STARTERS:
                loc = Loc((self.table, self.i))
                t = App(t, self.atom(), loc)
            elif kind == "[":
                loc = Loc((self.table, self.i))
                for p in self.pattern_group():
                    t = PatApp(t, p, loc)
            else:
                return t

    def atom(self) -> AnnotatedTerm:
        i = self.i
        kind = self.kinds[i]
        if kind == "ident":
            self.i = i + 1
            name = self.texts[i]
            if name in self.symbols:
                return SymbolRef(name, Loc((self.table, i)))
            return TermVar(name, Loc((self.table, i)))
        if kind == "Leaf":
            self.i = i + 1
            return LeafCon(Loc((self.table, i)))
        if kind == "Node":
            self.i = i + 1
            return NodeCon(Loc((self.table, i)))
        if kind == "(":
            self.i = i + 1
            t = self.term()
            self.expect(")")
            return t
        raise self.fail("expected a term", _TERM_EXPECTED)

    # -- erased terms: plain lambdas and applications, no annotations

    def erased_term(self) -> ErasedTerm:
        if self.kinds[self.i] == "\\":
            self.i += 1
            binder = self.expect("ident")
            self.expect(".")
            return ELam(binder, self.erased_term())
        t = self.erased_atom()
        while self.kinds[self.i] in _ATOM_STARTERS:
            t = EApp(t, self.erased_atom())
        return t

    def erased_atom(self) -> ErasedTerm:
        kind, text = self.kinds[self.i], self.texts[self.i]
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

    def spine(self, error: str, argument: bool) -> tuple[int, list[Pattern], list[ConstructorTerm]]:
        """Read a head token, its pattern groups and then its constructor
        arguments, and return the head's index with them.  Parentheses may
        wrap any prefix, as in terms; an `argument` is one token or one
        parenthesized spine.  A lambda head or a pattern group after an
        argument raises `error` at the head."""
        kinds = self.kinds
        opened = 0
        while kinds[self.i] == "(":
            self.i += 1
            opened += 1
        head = self.i
        if kinds[head] in ("\\", "/\\"):
            raise self.fail(error, at=head)
        if kinds[head] not in _ATOM_STARTERS:
            raise self.fail("expected a term", _TERM_EXPECTED)
        self.i += 1
        pats: list[Pattern] = []
        args: list[ConstructorTerm] = []
        while opened or not argument:
            kind = kinds[self.i]
            if kind == "[":
                if args:
                    raise self.fail(error, at=head)
                pats += self.pattern_group()
            elif kind == "ident" or kind == "Leaf":  # a one-token argument
                args.append(self.constructor(self.i, [], []))
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

    def constructor(self, head: int, pats: list[Pattern],
                    args: list[ConstructorTerm]) -> ConstructorTerm:
        kind, text = self.kinds[head], self.texts[head]
        if kind == "Node" and len(pats) in (0, 2) and len(args) == 2:
            return ConNode(*(pats or (None, None)), *args)
        if kind == "Leaf" and not (pats or args):
            return ConLeaf()
        if kind == "ident" and not (pats or args) and text not in self.symbols:
            return ConVar(text)
        raise self.fail(_ARGUMENT_ERROR, at=head)

    # -- declarations

    def symbol_decl(self) -> tuple[str, SymbolInfo]:
        loc = Loc((self.table, self.i))
        self.expect("symbol")
        name = self.expect("ident")
        self.expect(":")
        ty = self.type_()
        self.expect("recursive")
        at = self.i
        digits = self.expect("nat")
        self.expect(";")
        try:
            count = int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise self.fail("recursive count has too many digits", at=at) from None
        return name, SymbolInfo(ty, count, loc)

    def rule_decl(self) -> RewriteRule:
        loc = Loc((self.table, self.i))
        self.expect("rule")
        head, pats, args = self.spine(_LHS_ERROR, False)
        if self.kinds[head] != "ident":
            raise self.fail(_LHS_ERROR, at=head)
        self.expect("->")
        rhs = self.term()
        self.expect(";")
        return RewriteRule(self.texts[head], tuple(pats), tuple(args), rhs, loc)

    def system(self) -> RewriteSystem:
        symbols: dict[str, SymbolInfo] = {}
        rules: list[RewriteRule] = []
        while (kind := self.kinds[self.i]) != "eof":
            if kind == "symbol":
                start = self.i
                name, info = self.symbol_decl()
                if name in symbols:
                    raise self.fail(f"symbol {name!r} declared twice", at=start)
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
    parser = _Parser(text, frozenset())
    kinds, texts = parser.kinds, parser.texts
    declared = set()
    i = 0
    for _ in range(kinds.count("symbol")):  # the last token is `eof`, never `symbol`
        i = kinds.index("symbol", i) + 1
        if kinds[i] == "ident":
            declared.add(texts[i])
    parser.symbols = frozenset(declared)
    return parser.system()


def _read_all(text: str, read: Callable[[_Parser], T], symbols: frozenset[str] = frozenset()) -> T:
    """Parse all of `text` with the `_Parser` method `read`."""
    parser = _Parser(text, symbols)
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
    binders, body = quantifier_prefix(t)
    return f"forall {' '.join(binders)}. {print_type(body)}"


# The atoms of the three term families, by class, with their text, where ""
# stands for the atom's name; and the classes of their application nodes.
_ATOMS = {**dict.fromkeys((TermVar, SymbolRef, ConVar, EVar, ESym), ""),
          LeafCon: "Leaf", NodeCon: "Node", ConLeaf: "Leaf", ELeaf: "Leaf", ENode: "Node"}
_SPINES = frozenset({App, PatApp, EApp})


def print_term(t: AnnotatedTerm | ConstructorTerm | ErasedTerm) -> str:
    """Print a term of the one term syntax by the class of each node: annotated
    terms, a rule's constructor arguments as the annotated terms they read as,
    and erased terms as their annotated counterparts without annotations."""
    cls = type(t)
    if cls in _ATOMS:
        return _ATOMS[cls] or t.name
    if cls is ConNode:
        head = "Node"
        if t.ann_left is not None and t.ann_right is not None:
            head += f"[{print_pattern(t.ann_left)},{print_pattern(t.ann_right)}]"
        return f"{head} {_argument(t.left)} {_argument(t.right)}"
    if cls is ELam:
        return f"\\{t.binder}. {print_term(t.body)}"
    if cls is Lam:
        annot = print_type(t.annot)
        if isinstance(t.annot, (Arrow, Forall)):
            annot = f"({annot})"
        return f"\\{t.binder}:{annot}. {print_term(t.body)}"
    if cls is PatLam:
        return f"/\\{t.binder}. {print_term(t.body)}"
    # application spine, outermost argument first; adjacent pattern
    # arguments print as one [p,...] group
    parts: list[str] = []
    while cls in _SPINES:
        if cls is PatApp:
            group: list[str] = []
            while type(t) is PatApp:
                group.append(print_pattern(t.pattern))
                t = t.fun
            parts.append("[" + ",".join(reversed(group)) + "]")
        else:
            parts.append(" " + _argument(t.arg))
            t = t.fun
        cls = type(t)
    parts.append(_argument(t))
    return "".join(reversed(parts))


def _argument(t: AnnotatedTerm | ConstructorTerm | ErasedTerm) -> str:
    """t as an argument or the head of a spine: in parentheses unless an atom."""
    cls = type(t)
    if cls in _ATOMS:
        return _ATOMS[cls] or t.name
    return f"({print_term(t)})"


print_erased = print_term


def print_rule(r: RewriteRule) -> str:
    lhs = r.head
    if r.pattern_args:
        lhs += "[" + ",".join(print_pattern(p) for p in r.pattern_args) + "]"
    lhs += "".join(" " + _argument(arg) for arg in r.recursive_args)
    return f"rule {lhs} -> {print_term(r.rhs)};"


def print_system(sys: RewriteSystem) -> str:
    """Render a system in the .trs format; parsing the result reproduces it."""
    lines = [
        f"symbol {name} : {print_type(info.type)} recursive {info.recursive_count};"
        for name, info in sys.signature
    ]
    lines.extend(print_rule(r) for r in sys.rules)
    return "\n".join(lines) + ("\n" if lines else "")
