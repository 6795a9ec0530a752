"""Type checking for pattern-refined rewrite systems.

Subtyping follows the pattern order (more precise shapes below vaguer ones),
synthesis is algorithmic with subsumption applied at application arguments,
and rule left-hand sides are checked against the forced minimal typing: each
term variable gets a distinct pattern variable and every recursive argument's
pattern annotation is determined by its structure.
"""
from __future__ import annotations

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
    Record,
    RefinementType,
    RewriteRule,
    RewriteSystem,
    Signature,
    SymbolInfo,
    SymbolRef,
    TermVar,
    fresh_name,
    pattern_vars,
    quantifier_prefix,
    scan_term,
    type_free_vars,
    type_subst,
)


class TypeCheckError(Exception):
    def __init__(self, code: str, message: str, loc: Loc | None = None):
        self.code = code
        self.message = message
        self.loc = loc
        where = f"{loc}: " if loc else ""
        super().__init__(f"{where}{code}: {message}")


class Diagnostic(Record, loc=None, rule_index=None, symbol=None):
    __slots__ = ("code", "message", "loc", "rule_index", "symbol")

    def __str__(self) -> str:
        parts = [f"{self.code}: {self.message}"]
        if self.loc is not None:
            parts.append(f"at {self.loc}")
        return " ".join(parts)


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
        # rename the common prefix apart from the free variables, once per side
        avoid = {*type_free_vars(t), *type_free_vars(u)}
        t_names: dict[str, Pattern] = {}
        u_names: dict[str, Pattern] = {}
        while isinstance(t, Forall) and isinstance(u, Forall):
            common = fresh_name(t.binder, avoid)
            avoid.add(common)
            t_names[t.binder] = u_names[u.binder] = PVar(common)
            t, u = t.body, u.body
        return type_sub(type_subst(t, t_names), type_subst(u, u_names))
    return False


# ---------------------------------------------------------------------------
# Polarity

POSITIVE = "positive"
NEGATIVE = "negative"
BOTH = "both"
ABSENT = "absent"
_FLIP = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE}


def _join(a: str, b: str) -> str:
    if a == ABSENT or a == b:
        return b
    return a if b == ABSENT else BOTH


def polarity(var: str, t: RefinementType) -> str:
    """Sign of the occurrences of a pattern variable in a type: one of
    POSITIVE, NEGATIVE, BOTH and ABSENT."""
    if isinstance(t, Base):
        return POSITIVE if var in pattern_vars(t.pattern) else ABSENT
    if isinstance(t, Arrow):
        dom = polarity(var, t.dom)
        return _join(_FLIP.get(dom, dom), polarity(var, t.cod))
    if t.binder == var:
        return ABSENT
    return polarity(var, t.body)


# ---------------------------------------------------------------------------
# Signature validation

Split = tuple[tuple[str, ...], tuple[RefinementType, ...], RefinementType]


def decompose_symbol(name: str, info: SymbolInfo) -> Split:
    """Split a symbol's type into quantifiers, recursive domains and the rest; check the shape."""
    quants, body = quantifier_prefix(info.type)
    if len(set(quants)) != len(quants):
        raise TypeCheckError(
            "E-SIG-DISTINCT",
            f"quantifiers of symbol {name!r} are not pairwise distinct",
            loc=info.loc,
        )
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
        if not (type(dom) is Base and type(dom.pattern) is PVar and dom.pattern.name == quants[i]):
            raise TypeCheckError(
                "E-SIG-SHAPE",
                f"recursive argument {i + 1} of symbol {name!r} must have type "
                f"B({quants[i]}), found {print_type(dom)}",
                loc=info.loc,
            )
    return quants, tuple(domains), rest


def validate_signature(sig: Signature) -> dict[str, Split] | list[Diagnostic]:
    """Check every symbol's type; returns the split of each by name, or the list of problems."""
    splits: dict[str, Split] = {}
    diags: list[Diagnostic] = []
    for name, info in sig:
        try:
            splits[name] = decompose_symbol(name, info)
        except TypeCheckError as e:
            diags.append(Diagnostic(e.code, e.message, loc=e.loc, symbol=name))
            continue
        quants, domains, rest = splits[name]
        for q in quants[: len(domains)]:
            pol = polarity(q, rest)
            if pol not in (POSITIVE, ABSENT):
                diags.append(Diagnostic(
                    "E-SIG-POLARITY",
                    f"quantifier {q!r} of symbol {name!r} occurs "
                    f"{pol} in the result type",
                    loc=info.loc,
                    symbol=name,
                ))
    return diags or splits


# ---------------------------------------------------------------------------
# Contexts and synthesis

class Context(Record, bindings=()):
    __slots__ = ("bindings",)

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
            )
        arg_ty = synthesize(sig, ctx, t.arg)
        if not type_sub(arg_ty, fun_ty.dom):
            raise TypeCheckError(
                "E-ARG-TYPE",
                f"argument {print_term(t.arg)!r} has type {print_type(arg_ty)}, "
                f"which is not a subtype of {print_type(fun_ty.dom)}",
                loc=t.loc,
            )
        return fun_ty.cod
    if isinstance(t, PatApp):
        spine = [t]  # the pattern applications of one head, outermost first
        while isinstance(spine[-1].fun, PatApp):
            spine.append(spine[-1].fun)
        body, mapping = synthesize(sig, ctx, spine[-1].fun), {}
        for app in reversed(spine):
            if not isinstance(body, Forall):
                raise TypeCheckError(
                    "E-EXPECTED-POLY",
                    f"term {print_term(app.fun)!r} of type {print_type(type_subst(body, mapping))} "
                    "is applied to a pattern but is not quantified",
                    loc=app.loc,
                )
            mapping[body.binder] = app.pattern  # an inner binder shadows an outer one
            body = body.body
        return type_subst(body, mapping)  # one substitution for the whole spine
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


# ---------------------------------------------------------------------------
# Minimal typing of left-hand sides

def _template(c: ConstructorTerm) -> Pattern:
    """The shape of a constructor term, with its term variables as pattern variables."""
    if isinstance(c, ConVar):
        return PVar(c.name)
    if isinstance(c, ConNode):
        return PNode(_template(c.left), _template(c.right))
    return PLeaf()


def min_type_lhs(
    rule: RewriteRule, splits: dict[str, Split]
) -> tuple[Context, RefinementType, set[str]]:
    """Match a rule's left-hand side against its forced minimal typing;
    returns the context of its term variables, its type, and the pattern
    variables its pattern arguments bind.

    The recursive arguments determine their patterns up to the choice of one
    pattern variable per term variable; the rule's written pattern arguments
    must realize exactly that choice, followed by fresh variables for the
    non-recursive quantifier positions.  The right-hand side is left to
    `validate_rule`.
    """
    if rule.head not in splits:
        raise TypeCheckError("E-UNDECLARED-SYMBOL", f"symbol {rule.head!r} is not declared", rule.loc)
    quants, domains, rest = splits[rule.head]
    n, k = len(quants), len(domains)
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

    mapping: dict[str, str] = {}  # term variable -> pattern variable, a bijection
    # the pattern variables bound so far; once every argument matches, those
    # of every pattern argument, as the recursive ones hold nothing else
    used: set[str] = set()
    # (annotation, written pattern at its position) where the two differ
    annotation_mismatches: list[tuple[Pattern, Pattern]] = []

    def match(c: ConstructorTerm, given: Pattern) -> bool:
        if isinstance(c, ConVar):
            if not isinstance(given, PVar):
                return False
            bound = mapping.get(c.name)
            if bound is None:
                if given.name in used:
                    return False
                mapping[c.name] = given.name
                used.add(given.name)
                return True
            return bound == given.name
        if not isinstance(c, ConNode):
            return isinstance(given, PLeaf)
        if not isinstance(given, PNode):
            return False
        for ann, written in ((c.ann_left, given.left), (c.ann_right, given.right)):
            if ann is not None and ann != written:
                annotation_mismatches.append((ann, written))
        return match(c.left, given.left) and match(c.right, given.right)

    for i in range(k):
        if not match(rule.recursive_args[i], rule.pattern_args[i]):
            raise TypeCheckError(
                "E-MIN-PATTERN-MISMATCH",
                f"pattern argument {i + 1} of the rule for {rule.head!r} is "
                f"{print_pattern(rule.pattern_args[i])}, but the minimal typing of "
                "its recursive argument forces the shape "
                f"{print_pattern(_template(rule.recursive_args[i]))} "
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
    if annotation_mismatches:
        ann, written = annotation_mismatches[0]
        raise TypeCheckError(
            "E-MIN-ANNOT-MISMATCH",
            f"constructor annotation {print_pattern(ann)} in the rule for "
            f"{rule.head!r} disagrees with the forced pattern "
            f"{print_pattern(written)}",
            loc=rule.loc,
        )

    ctx = Context(tuple((var, Base(PVar(p))) for var, p in mapping.items()))
    lhs_type = type_subst(rest, {quants[i]: rule.pattern_args[i] for i in range(n)})
    return ctx, lhs_type, used


# ---------------------------------------------------------------------------
# Rule and system validation

class ValidatedRule(Record):
    """A rule that type-checks, with the context and type of its left-hand
    side and the call sites of its right-hand side, as `scan_term` finds them."""

    __slots__ = ("rule", "context", "lhs_type", "call_sites", "index")

    @property
    def recursive_patterns(self) -> tuple[Pattern, ...]:
        """The minimal patterns of the recursive arguments: once the rule
        validates, these are its written pattern arguments."""
        return self.rule.pattern_args[: len(self.rule.recursive_args)]


class ValidatedSystem(Record):
    __slots__ = ("system", "rules")


def validate_rule(
    rule: RewriteRule, sig: Signature, splits: dict[str, Split], index: int = 0
) -> ValidatedRule | list[Diagnostic]:
    """Check one rule; returns the validated rule or the list of problems."""

    def diag(code: str, message: str, loc: Loc | None = rule.loc) -> Diagnostic:
        return Diagnostic(code, message, loc=loc, rule_index=index, symbol=rule.head)

    try:
        ctx, lhs_type, lhs_pattern_vars = min_type_lhs(rule, splits)
    except TypeCheckError as e:
        return [diag(e.code, e.message, e.loc)]

    term_vars, pat_vars, sites = scan_term(rule.rhs)
    diags: list[Diagnostic] = []
    lhs_vars = {name for name, _ in ctx.bindings}
    for name in sorted(term_vars - lhs_vars):
        diags.append(diag(
            "E-FREE-VAR",
            f"right-hand side variable {name!r} does not occur on the left-hand side",
        ))
    for name in sorted(pat_vars - lhs_pattern_vars):
        diags.append(diag(
            "E-PATTERN-VAR",
            f"right-hand side pattern variable {name!r} is not introduced by the "
            "left-hand side",
        ))

    for ref, patterns in sites:
        split = splits.get(ref.name)
        if split is not None and len(patterns) != len(split[0]):
            diags.append(diag(
                "E-PARTIAL-PATTERN-APP",
                f"symbol {ref.name!r} is applied to {len(patterns)} pattern arguments, "
                f"expected {len(split[0])}",
                ref.loc or rule.loc,
            ))

    if diags:
        return diags

    try:
        rhs_ty = synthesize(sig, ctx, rule.rhs)
    except TypeCheckError as e:
        return [diag(e.code, e.message, e.loc)]
    if not type_sub(rhs_ty, lhs_type):
        return [diag(
            "E-RHS-TYPE",
            f"right-hand side has type {print_type(rhs_ty)}, which is not a "
            f"subtype of the left-hand side type {print_type(lhs_type)}",
        )]
    return ValidatedRule(rule, ctx, lhs_type, sites, index)


def validate_system(sys: RewriteSystem) -> ValidatedSystem | list[Diagnostic]:
    """Validate the signature and every rule; returns all problems when invalid."""
    splits = validate_signature(sys.signature)
    if isinstance(splits, list):
        return splits
    diags: list[Diagnostic] = []
    validated: list[ValidatedRule] = []
    for i, rule in enumerate(sys.rules):
        result = validate_rule(rule, sys.signature, splits, index=i)
        if isinstance(result, list):
            diags.extend(result)
        else:
            validated.append(result)
    if diags:
        return diags
    return ValidatedSystem(sys, tuple(validated))
