"""Type checking for pattern-refined rewrite systems.

Subtyping follows the pattern order (more precise shapes below vaguer ones),
synthesis is algorithmic with subsumption applied at application arguments,
and rule left-hand sides are checked against the forced minimal typing: each
term variable gets a distinct pattern variable and every recursive argument's
pattern annotation is determined by its structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .syntax import print_pattern, print_term, print_type
from .terms import (
    AnnotatedTerm,
    App,
    Arrow,
    Base,
    ConNode,
    ConstructorTerm,
    ConVar,
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
    SymbolRef,
    TermVar,
    constructor_term_vars,
    fresh_name,
    pattern_subst,
    pattern_vars,
    quantifier_prefix,
    term_free_pattern_vars,
    term_free_term_vars,
    type_free_vars,
    type_subst,
)


class TypeCheckError(Exception):
    def __init__(
        self,
        code: str,
        message: str,
        loc: Loc | None = None,
        expected: RefinementType | None = None,
        actual: RefinementType | None = None,
    ):
        self.code = code
        self.message = message
        self.loc = loc
        self.expected = expected
        self.actual = actual
        where = f"{loc}: " if loc else ""
        super().__init__(f"{where}{code}: {message}")


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    loc: Loc | None = None
    rule_index: int | None = None
    symbol: str | None = None

    def __str__(self) -> str:
        parts = [f"{self.code}: {self.message}"]
        if self.loc is not None:
            parts.append(f"at {self.loc}")
        return " ".join(parts)


def _diag_from_error(e: TypeCheckError, rule_index: int | None = None, symbol: str | None = None) -> Diagnostic:
    return Diagnostic(e.code, e.message, loc=e.loc, rule_index=rule_index, symbol=symbol)


# ---------------------------------------------------------------------------
# Subtyping

def pattern_sub(p: Pattern, q: Pattern) -> bool:
    """Pattern order: below a wildcard, above the empty pattern, congruent otherwise."""
    if isinstance(q, PWild):
        return True
    if isinstance(p, PBottom):
        return True
    if isinstance(p, PVar) and isinstance(q, PVar):
        return p.name == q.name
    if isinstance(p, PLeaf) and isinstance(q, PLeaf):
        return True
    if isinstance(p, PNode) and isinstance(q, PNode):
        return pattern_sub(p.left, q.left) and pattern_sub(p.right, q.right)
    return False


def type_sub(t: RefinementType, u: RefinementType) -> bool:
    """Subtyping: covariant bases, contravariant domains, congruent quantifiers."""
    if isinstance(t, Base) and isinstance(u, Base):
        return pattern_sub(t.pattern, u.pattern)
    if isinstance(t, Arrow) and isinstance(u, Arrow):
        return type_sub(u.dom, t.dom) and type_sub(t.cod, u.cod)
    if isinstance(t, Forall) and isinstance(u, Forall):
        common = fresh_name(t.binder, type_free_vars(t.body) | type_free_vars(u.body))
        tb = type_subst(t.body, {t.binder: PVar(common)})
        ub = type_subst(u.body, {u.binder: PVar(common)})
        return type_sub(tb, ub)
    return False


# ---------------------------------------------------------------------------
# Polarity

class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    BOTH = "both"
    ABSENT = "absent"


def _flip(p: Polarity) -> Polarity:
    if p is Polarity.POSITIVE:
        return Polarity.NEGATIVE
    if p is Polarity.NEGATIVE:
        return Polarity.POSITIVE
    return p


def _join(a: Polarity, b: Polarity) -> Polarity:
    if a is Polarity.ABSENT:
        return b
    if b is Polarity.ABSENT:
        return a
    if a is b:
        return a
    return Polarity.BOTH


def polarity(var: str, t: RefinementType) -> Polarity:
    """Sign of the occurrences of a pattern variable in a type."""
    if isinstance(t, Base):
        return Polarity.POSITIVE if var in pattern_vars(t.pattern) else Polarity.ABSENT
    if isinstance(t, Arrow):
        return _join(_flip(polarity(var, t.dom)), polarity(var, t.cod))
    if t.binder == var:
        return Polarity.ABSENT
    return polarity(var, t.body)


# ---------------------------------------------------------------------------
# Signature validation

def decompose_symbol(name: str, sig: Signature) -> tuple[tuple[str, ...], tuple[RefinementType, ...], RefinementType]:
    """Split a symbol's type into quantifiers, recursive domains, and the rest."""
    info = sig.get(name)
    if info is None:
        raise TypeCheckError("E-UNDECLARED-SYMBOL", f"symbol {name!r} is not declared")
    quants, body = quantifier_prefix(info.type)
    k = info.recursive_count
    if k > len(quants):
        raise TypeCheckError(
            "E-SIG-RECURSIVE-COUNT",
            f"symbol {name!r} declares {k} recursive arguments but only "
            f"{len(quants)} quantifiers",
            loc=info.loc,
        )
    domains: list[RefinementType] = []
    rest = body
    for i in range(k):
        if not isinstance(rest, Arrow):
            raise TypeCheckError(
                "E-SIG-SHAPE",
                f"symbol {name!r} declares {k} recursive arguments but its type "
                f"has only {i} argument positions",
                loc=info.loc,
            )
        domains.append(rest.dom)
        rest = rest.cod
    for i, dom in enumerate(domains):
        want = Base(PVar(quants[i]))
        if dom != want:
            raise TypeCheckError(
                "E-SIG-SHAPE",
                f"recursive argument {i + 1} of symbol {name!r} must have type "
                f"B({quants[i]}), found {print_type(dom)}",
                loc=info.loc,
            )
    return quants, tuple(domains), rest


def validate_signature(sig: Signature) -> list[Diagnostic]:
    """Check every symbol against the required type shape; empty list means valid."""
    diags: list[Diagnostic] = []
    for name, info in sig:
        quants, _ = quantifier_prefix(info.type)
        if len(set(quants)) != len(quants):
            diags.append(Diagnostic(
                "E-SIG-DISTINCT",
                f"quantifiers of symbol {name!r} are not pairwise distinct",
                loc=info.loc,
                symbol=name,
            ))
            continue
        try:
            _, _, rest = decompose_symbol(name, sig)
        except TypeCheckError as e:
            diags.append(_diag_from_error(e, symbol=name))
            continue
        for i in range(info.recursive_count):
            pol = polarity(quants[i], rest)
            if pol not in (Polarity.POSITIVE, Polarity.ABSENT):
                diags.append(Diagnostic(
                    "E-SIG-POLARITY",
                    f"quantifier {quants[i]!r} of symbol {name!r} occurs "
                    f"{pol.value} in the result type",
                    loc=info.loc,
                    symbol=name,
                ))
    return diags


# ---------------------------------------------------------------------------
# Contexts and synthesis

@dataclass(frozen=True)
class Context:
    bindings: tuple[tuple[str, RefinementType], ...] = ()

    def lookup(self, name: str) -> RefinementType | None:
        for n, t in self.bindings:
            if n == name:
                return t
        return None

    def extend(self, name: str, t: RefinementType, loc: Loc | None = None) -> Context:
        if self.lookup(name) is not None:
            raise TypeCheckError(
                "E-SHADOWED", f"variable {name!r} is bound twice", loc=loc
            )
        return Context(self.bindings + ((name, t),))

    def free_pattern_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for _, t in self.bindings:
            out |= type_free_vars(t)
        return out

    def __str__(self) -> str:
        return ", ".join(f"{n} : {print_type(t)}" for n, t in self.bindings)


EMPTY_CONTEXT = Context()

NODE_TYPE: RefinementType = Forall(
    "a",
    Forall(
        "b",
        Arrow(Base(PVar("a")), Arrow(Base(PVar("b")), Base(PNode(PVar("a"), PVar("b"))))),
    ),
)

LEAF_TYPE: RefinementType = Base(PLeaf())


def synthesize(sig: Signature, ctx: Context, t: AnnotatedTerm) -> RefinementType:
    """Compute the type of an annotated term, subsuming at application arguments."""
    if isinstance(t, TermVar):
        ty = ctx.lookup(t.name)
        if ty is None:
            raise TypeCheckError("E-UNBOUND-VAR", f"unbound variable {t.name!r}", loc=t.loc)
        return ty
    if isinstance(t, SymbolRef):
        info = sig.get(t.name)
        if info is None:
            raise TypeCheckError("E-UNDECLARED-SYMBOL", f"symbol {t.name!r} is not declared", loc=t.loc)
        return info.type
    if isinstance(t, LeafCon):
        return LEAF_TYPE
    if isinstance(t, NodeCon):
        return NODE_TYPE
    if isinstance(t, App):
        fun_ty = synthesize(sig, ctx, t.fun)
        if not isinstance(fun_ty, Arrow):
            raise TypeCheckError(
                "E-EXPECTED-FUNCTION",
                f"term {print_term(t.fun)!r} of type {print_type(fun_ty)} is applied "
                "to an argument but has no function type",
                loc=t.loc,
                actual=fun_ty,
            )
        arg_ty = synthesize(sig, ctx, t.arg)
        if not type_sub(arg_ty, fun_ty.dom):
            raise TypeCheckError(
                "E-ARG-TYPE",
                f"argument {print_term(t.arg)!r} has type {print_type(arg_ty)}, "
                f"which is not a subtype of {print_type(fun_ty.dom)}",
                loc=t.loc,
                expected=fun_ty.dom,
                actual=arg_ty,
            )
        return fun_ty.cod
    if isinstance(t, PatApp):
        fun_ty = synthesize(sig, ctx, t.fun)
        if not isinstance(fun_ty, Forall):
            raise TypeCheckError(
                "E-EXPECTED-POLY",
                f"term {print_term(t.fun)!r} of type {print_type(fun_ty)} is applied "
                "to a pattern but is not quantified",
                loc=t.loc,
                actual=fun_ty,
            )
        return type_subst(fun_ty.body, {fun_ty.binder: t.pattern})
    if isinstance(t, Lam):
        inner = ctx.extend(t.binder, t.annot, loc=t.loc)
        return Arrow(t.annot, synthesize(sig, inner, t.body))
    # PatLam
    if t.binder in ctx.free_pattern_vars():
        raise TypeCheckError(
            "E-PATTERN-CAPTURE",
            f"pattern binder {t.binder!r} already occurs free in the context",
            loc=t.loc,
        )
    return Forall(t.binder, synthesize(sig, ctx, t.body))


def check(sig: Signature, ctx: Context, t: AnnotatedTerm, ty: RefinementType) -> bool:
    """True when the synthesized type of t is a subtype of ty."""
    return type_sub(synthesize(sig, ctx, t), ty)


# ---------------------------------------------------------------------------
# Minimal typing of left-hand sides

@dataclass(frozen=True)
class MinTypingResult:
    context: Context
    lhs_type: RefinementType
    recursive_patterns: tuple[Pattern, ...]


def _template(c: ConstructorTerm) -> Pattern:
    # placeholders are '$'-prefixed, which the lexer cannot produce
    if isinstance(c, ConVar):
        return PVar("$" + c.name)
    if isinstance(c, ConNode):
        return PNode(_template(c.left), _template(c.right))
    return PLeaf()


def min_type_lhs(rule: RewriteRule, sig: Signature) -> MinTypingResult:
    """Match a rule's left-hand side against its forced minimal typing.

    The recursive arguments determine their patterns up to the choice of one
    pattern variable per term variable; the rule's written pattern arguments
    must realize exactly that choice, followed by fresh variables for the
    non-recursive quantifier positions.
    """
    quants, _, rest = decompose_symbol(rule.head, sig)
    info = sig.get(rule.head)
    assert info is not None
    n, k = info.quantifier_count, info.recursive_count
    if len(rule.pattern_args) != n:
        raise TypeCheckError(
            "E-MIN-ARITY",
            f"rule for {rule.head!r} has {len(rule.pattern_args)} pattern "
            f"arguments, expected {n}",
            loc=rule.loc,
        )
    if len(rule.recursive_args) != k:
        raise TypeCheckError(
            "E-MIN-ARITY",
            f"rule for {rule.head!r} has {len(rule.recursive_args)} recursive "
            f"arguments, expected {k}",
            loc=rule.loc,
        )

    templates = [_template(l) for l in rule.recursive_args]
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def match(template: Pattern, given: Pattern) -> bool:
        if isinstance(template, PVar):
            if not isinstance(given, PVar):
                return False
            bound = mapping.get(template.name)
            if bound is None:
                if given.name in used:
                    return False
                mapping[template.name] = given.name
                used.add(given.name)
                return True
            return bound == given.name
        if isinstance(template, PLeaf):
            return isinstance(given, PLeaf)
        assert isinstance(template, PNode)
        return (
            isinstance(given, PNode)
            and match(template.left, given.left)
            and match(template.right, given.right)
        )

    for i in range(k):
        if not match(templates[i], rule.pattern_args[i]):
            raise TypeCheckError(
                "E-MIN-PATTERN-MISMATCH",
                f"pattern argument {i + 1} of the rule for {rule.head!r} is "
                f"{print_pattern(rule.pattern_args[i])}, but the minimal typing of "
                "its recursive argument forces the shape "
                f"{print_pattern(pattern_subst(templates[i], {ph: PVar(ph[1:]) for ph in _placeholders(templates[i])}))} "
                "with one distinct variable per term variable",
                loc=rule.loc,
            )
    for j in range(k, n):
        arg = rule.pattern_args[j]
        if not isinstance(arg, PVar) or arg.name in used:
            raise TypeCheckError(
                "E-MIN-FRESH-VAR",
                f"pattern argument {j + 1} of the rule for {rule.head!r} must be "
                "a fresh pattern variable",
                loc=rule.loc,
            )
        used.add(arg.name)

    rename = {ph: PVar(name) for ph, name in mapping.items()}
    recursive_patterns = tuple(pattern_subst(t, rename) for t in templates)

    def check_annotations(c: ConstructorTerm) -> None:
        if not isinstance(c, ConNode):
            return
        for ann, child in ((c.ann_left, c.left), (c.ann_right, c.right)):
            if ann is not None:
                forced = pattern_subst(_template(child), rename)
                if ann != forced:
                    raise TypeCheckError(
                        "E-MIN-ANNOT-MISMATCH",
                        f"constructor annotation {print_pattern(ann)} in the rule for "
                        f"{rule.head!r} disagrees with the forced pattern "
                        f"{print_pattern(forced)}",
                        loc=rule.loc,
                    )
        check_annotations(c.left)
        check_annotations(c.right)

    for arg in rule.recursive_args:
        check_annotations(arg)

    ctx = EMPTY_CONTEXT
    for arg in rule.recursive_args:
        for var in constructor_term_vars(arg):
            if ctx.lookup(var) is None:
                ctx = ctx.extend(var, Base(PVar(mapping["$" + var])))

    phi = {quants[i]: rule.pattern_args[i] for i in range(n)}
    lhs_type = type_subst(rest, phi)
    return MinTypingResult(ctx, lhs_type, recursive_patterns)


def _placeholders(p: Pattern) -> frozenset[str]:
    return frozenset(v for v in pattern_vars(p) if v.startswith("$"))


# ---------------------------------------------------------------------------
# Rule and system validation

@dataclass(frozen=True)
class ValidatedRule:
    rule: RewriteRule
    min: MinTypingResult
    index: int = 0


@dataclass
class ValidatedSystem:
    system: RewriteSystem
    rules: tuple[ValidatedRule, ...]

    @property
    def signature(self) -> Signature:
        return self.system.signature


def _pattern_app_arities(t: AnnotatedTerm, out: list[tuple[str, int, Loc | None]], depth: int = 0) -> None:
    if isinstance(t, SymbolRef):
        out.append((t.name, depth, t.loc))
    elif isinstance(t, PatApp):
        _pattern_app_arities(t.fun, out, depth + 1)
    elif isinstance(t, App):
        _pattern_app_arities(t.fun, out, 0)
        _pattern_app_arities(t.arg, out, 0)
    elif isinstance(t, (Lam, PatLam)):
        _pattern_app_arities(t.body, out, 0)


def validate_rule(rule: RewriteRule, sig: Signature, index: int = 0) -> ValidatedRule | list[Diagnostic]:
    """Check one rule; returns the validated rule or the list of problems."""
    try:
        mtr = min_type_lhs(rule, sig)
    except TypeCheckError as e:
        return [_diag_from_error(e, rule_index=index, symbol=rule.head)]

    diags: list[Diagnostic] = []
    lhs_vars = {v for arg in rule.recursive_args for v in constructor_term_vars(arg)}
    for name in sorted(term_free_term_vars(rule.rhs) - lhs_vars):
        diags.append(Diagnostic(
            "E-FREE-VAR",
            f"right-hand side variable {name!r} does not occur on the left-hand side",
            loc=rule.loc,
            rule_index=index,
            symbol=rule.head,
        ))
    allowed_pattern_vars = frozenset().union(
        frozenset(), *(pattern_vars(p) for p in rule.pattern_args)
    )
    for name in sorted(term_free_pattern_vars(rule.rhs) - allowed_pattern_vars):
        diags.append(Diagnostic(
            "E-PATTERN-VAR",
            f"right-hand side pattern variable {name!r} is not introduced by the "
            "left-hand side",
            loc=rule.loc,
            rule_index=index,
            symbol=rule.head,
        ))

    occurrences: list[tuple[str, int, Loc | None]] = []
    _pattern_app_arities(rule.rhs, occurrences)
    for name, applied, loc in occurrences:
        info = sig.get(name)
        if info is not None and applied != info.quantifier_count:
            diags.append(Diagnostic(
                "E-PARTIAL-PATTERN-APP",
                f"symbol {name!r} is applied to {applied} pattern arguments, "
                f"expected {info.quantifier_count}",
                loc=loc or rule.loc,
                rule_index=index,
                symbol=rule.head,
            ))

    if diags:
        return diags

    try:
        ok = check(sig, mtr.context, rule.rhs, mtr.lhs_type)
    except TypeCheckError as e:
        return [_diag_from_error(e, rule_index=index, symbol=rule.head)]
    if not ok:
        rhs_ty = synthesize(sig, mtr.context, rule.rhs)
        return [Diagnostic(
            "E-RHS-TYPE",
            f"right-hand side has type {print_type(rhs_ty)}, which is not a "
            f"subtype of the left-hand side type {print_type(mtr.lhs_type)}",
            loc=rule.loc,
            rule_index=index,
            symbol=rule.head,
        )]
    return ValidatedRule(rule, mtr, index)


def validate_system(sys: RewriteSystem) -> ValidatedSystem | list[Diagnostic]:
    """Validate the signature and every rule; returns all problems when invalid."""
    diags = validate_signature(sys.signature)
    if diags:
        return diags
    validated: list[ValidatedRule] = []
    for i, rule in enumerate(sys.rules):
        result = validate_rule(rule, sys.signature, index=i)
        if isinstance(result, list):
            diags.extend(result)
        else:
            validated.append(result)
    if diags:
        return diags
    return ValidatedSystem(sys, tuple(validated))
