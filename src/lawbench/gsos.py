"""Rule tables and their inductive extension to term-level one-step maps.

A rule describes how an operation observes its arguments: for each
argument it declares an output placeholder and a derivative placeholder
(and, under the ``gsos`` format, optionally a placeholder for the argument
itself).  The conclusion gives the output as an expression over the output
placeholders and, for every input letter, a successor term over the
placeholders.  A successor may case-split on a Boolean output placeholder.

Constant families get one rule with an index placeholder, so a single
entry covers the whole family (output ``c``, successor ``[0]`` describes
every ``[c]``).  Successor templates may also embed output placeholders
inside constant indices, which is how a rule like
``(x * y)' = x' * y + [x(0)] * y'`` mentions the head output ``[x(0)]``.

``extend_lambda`` pushes a whole term of observed leaves through the
table: it is the unique structural extension of the rules, and the pair
it returns (the term with leaves replaced by their states, plus the
composite step) is the distributive-law component at that term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Union

from .behaviour import OutputAlgebra, Step
from .errors import (
    AlphabetMismatch,
    MissingRule,
    PlaceholderViolation,
    PreservationNotCertified,
    SymbolicCaseSplit,
    UnboundVariable,
)
from .polynomials import Poly
from .terms import App, Const, Signature, Term, Var, format_term, variables
from .theories import NormalForm, Theory

SIMPLE = "simple"
GSOS = "gsos"


@dataclass(frozen=True)
class OutAtom:
    name: str


@dataclass(frozen=True)
class OutConst:
    value: Union[int, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class OutApp:
    op: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


OutExpr = Union[OutAtom, OutConst, OutApp]


def eval_out(expr: OutExpr, alg: OutputAlgebra, env: Mapping[str, Any]):
    if isinstance(expr, OutAtom):
        try:
            return env[expr.name]
        except KeyError:
            raise PlaceholderViolation(
                f"output expression uses undeclared placeholder {expr.name!r}"
            ) from None
    if isinstance(expr, OutConst):
        return alg.coerce(expr.value)
    return alg.apply(expr.op, [eval_out(a, alg, env) for a in expr.args])


def out_atoms(expr: OutExpr) -> frozenset[str]:
    if isinstance(expr, OutAtom):
        return frozenset({expr.name})
    if isinstance(expr, OutApp):
        acc: frozenset[str] = frozenset()
        for a in expr.args:
            acc |= out_atoms(a)
        return acc
    return frozenset()


def format_out(expr: OutExpr) -> str:
    if isinstance(expr, OutAtom):
        return expr.name
    if isinstance(expr, OutConst):
        return str(expr.value)
    if expr.op in ("+", "*"):
        prec = 1 if expr.op == "+" else 2

        def wrap(sub: OutExpr) -> str:
            text = format_out(sub)
            if isinstance(sub, OutApp) and sub.op in ("+", "*"):
                inner = 1 if sub.op == "+" else 2
                if inner < prec:
                    return f"({text})"
            return text

        return f" {expr.op} ".join(wrap(a) for a in expr.args)
    return f"{expr.op}({', '.join(format_out(a) for a in expr.args)})"


@dataclass(frozen=True)
class ArgObs:
    """Placeholders declared for one argument position."""

    out: str
    deriv: str
    name: str | None = None


@dataclass(frozen=True)
class Plain:
    term: Term


@dataclass(frozen=True)
class CaseSplit:
    scrutinee: str
    if_zero: Term
    if_one: Term


NextTemplate = Union[Plain, CaseSplit]


@dataclass(frozen=True)
class Rule:
    symbol: str
    args: tuple[ArgObs, ...]
    output: OutExpr
    next: NextTemplate
    is_family: bool = False
    index_name: str | None = None
    binder: str = "l"

    def placeholders(self) -> tuple[set[str], set[str]]:
        """(term placeholders, output placeholders) this rule declares."""
        term_ph = {a.deriv for a in self.args}
        term_ph |= {a.name for a in self.args if a.name is not None}
        out_ph = {a.out for a in self.args}
        if self.index_name is not None:
            out_ph.add(self.index_name)
        return term_ph, out_ph

    def templates(self) -> tuple[Term, ...]:
        if isinstance(self.next, Plain):
            return (self.next.term,)
        return (self.next.if_zero, self.next.if_one)


@dataclass(frozen=True)
class GsosSpec:
    """A complete rule table over a signature, in one of two formats:
    ``simple`` rules never mention an argument itself, only its observed
    output and derivative; ``gsos`` rules may reuse the argument."""

    signature: Signature
    rules: tuple[Rule, ...]
    format: str = GSOS

    def __post_init__(self):
        if self.format not in (SIMPLE, GSOS):
            raise ValueError(f"unknown rule format {self.format!r}")
        seen = set()
        for rule in self.rules:
            key = (rule.symbol, rule.is_family)
            if key in seen:
                raise PlaceholderViolation(
                    f"duplicate rule for {rule.symbol!r}"
                )
            seen.add(key)
            self._validate_rule(rule)

    def _validate_rule(self, rule: Rule) -> None:
        sig = self.signature
        if rule.is_family:
            sig.family(rule.symbol)
            if rule.args:
                raise PlaceholderViolation(
                    f"family rule {rule.symbol!r} cannot take arguments"
                )
            if rule.index_name is None:
                raise PlaceholderViolation(
                    f"family rule {rule.symbol!r} needs an index placeholder"
                )
        else:
            arity = sig.arity(rule.symbol)
            if arity != len(rule.args):
                raise PlaceholderViolation(
                    f"rule for {rule.symbol!r} declares {len(rule.args)} "
                    f"arguments but the symbol has arity {arity}"
                )
        if self.format == SIMPLE:
            for arg in rule.args:
                if arg.name is not None:
                    raise PlaceholderViolation(
                        f"simple rule for {rule.symbol!r} must not name "
                        f"its arguments"
                    )
        term_ph, out_ph = rule.placeholders()
        declared = [a.out for a in rule.args] + [a.deriv for a in rule.args]
        declared += [a.name for a in rule.args if a.name is not None]
        if rule.index_name is not None:
            declared.append(rule.index_name)
        if len(set(declared)) != len(declared):
            raise PlaceholderViolation(
                f"rule for {rule.symbol!r} declares a placeholder twice"
            )
        for atom in out_atoms(rule.output):
            if atom not in out_ph:
                raise PlaceholderViolation(
                    f"rule for {rule.symbol!r}: output uses undeclared "
                    f"placeholder {atom!r}"
                )
        if isinstance(rule.next, CaseSplit) and rule.next.scrutinee not in out_ph:
            raise PlaceholderViolation(
                f"rule for {rule.symbol!r}: case split on undeclared "
                f"placeholder {rule.next.scrutinee!r}"
            )
        for template in rule.templates():
            for token in variables(template):
                if token not in term_ph:
                    raise PlaceholderViolation(
                        f"rule for {rule.symbol!r}: successor uses "
                        f"undeclared placeholder {token!r}"
                    )
            self._validate_template_spine(rule, template, out_ph)

    def _validate_template_spine(self, rule: Rule, template: Term,
                                 out_ph: set[str]) -> None:
        if isinstance(template, Var):
            return
        if isinstance(template, Const):
            self.signature.family(template.family)
            if isinstance(template.index, Poly):
                stray = template.index.atoms() - out_ph
                if stray:
                    raise PlaceholderViolation(
                        f"rule for {rule.symbol!r}: constant index uses "
                        f"undeclared placeholders {sorted(stray)}"
                    )
            return
        arity = self.signature.arity(template.symbol)
        if arity != len(template.args):
            raise PlaceholderViolation(
                f"rule for {rule.symbol!r}: successor applies "
                f"{template.symbol!r} at the wrong arity"
            )
        for arg in template.args:
            self._validate_template_spine(rule, arg, out_ph)

    def rule_for(self, symbol: str, family: bool = False) -> Rule:
        for rule in self.rules:
            if rule.symbol == symbol and rule.is_family == family:
                return rule
        kind = "family" if family else "symbol"
        raise MissingRule(f"no rule for {kind} {symbol!r}")


@dataclass(frozen=True)
class DistLaw:
    """A rule table together with the input alphabet and output algebra;
    the data of a distributive law presented symbol by symbol."""

    spec: GsosSpec
    alphabet: tuple[str, ...]
    outputs: OutputAlgebra

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if not self.alphabet or len(set(self.alphabet)) != len(self.alphabet):
            raise AlphabetMismatch("alphabet must be nonempty and duplicate-free")
        for rule in self.spec.rules:
            if isinstance(rule.next, CaseSplit) and self.outputs.kind != "bool":
                raise SymbolicCaseSplit(
                    f"rule for {rule.symbol!r} case-splits, which needs "
                    f"Boolean outputs"
                )
            if rule.is_family and self.outputs.kind != "rational":
                raise PlaceholderViolation(
                    f"family rule {rule.symbol!r} needs rational outputs"
                )

    @property
    def signature(self) -> Signature:
        return self.spec.signature


LeafObs = tuple[Term, Step]


def _instantiate_template(template: Term, term_env: Mapping[str, Term],
                          poly_env: Mapping[str, Poly]) -> Term:
    if isinstance(template, Var):
        return term_env[template.name]
    if isinstance(template, Const):
        index = template.index
        if isinstance(index, Poly) and index.atoms():
            return Const(template.family, index.substitute(poly_env))
        return template
    return App(template.symbol,
               tuple(_instantiate_template(a, term_env, poly_env)
                     for a in template.args))


def apply_rule(law: DistLaw, symbol: str, args: list[tuple[Term, Any, dict]],
               family: bool = False, index=None) -> Step:
    """Instantiate one rule: ``args`` holds, per argument position, the
    argument itself, its output value and its successors per letter."""
    rule = law.spec.rule_for(symbol, family)
    alg = law.outputs
    out_env: dict[str, Any] = {}
    for spec_arg, (_, out_value, _) in zip(rule.args, args):
        out_env[spec_arg.out] = alg.coerce(out_value)
    if rule.is_family:
        out_env[rule.index_name] = alg.coerce(index)

    output = eval_out(rule.output, alg, out_env)

    poly_env = {name: value for name, value in out_env.items()
                if isinstance(value, Poly)}
    template = rule.next
    if isinstance(template, CaseSplit):
        scrutinee = out_env[template.scrutinee]
        try:
            bit = alg.concrete(scrutinee)
        except ValueError:
            raise SymbolicCaseSplit(
                f"rule for {symbol!r} splits on {template.scrutinee!r} = "
                f"{alg.format(scrutinee)}, which is not concrete"
            ) from None

    moves = {}
    for letter in law.alphabet:
        if isinstance(template, CaseSplit):
            body = template.if_one if bit else template.if_zero
        else:
            body = template.term
        term_env: dict[str, Term] = {}
        for spec_arg, (state, _, deriv) in zip(rule.args, args):
            term_env[spec_arg.deriv] = deriv[letter]
            if spec_arg.name is not None:
                term_env[spec_arg.name] = state
        moves[letter] = _instantiate_template(body, term_env, poly_env)
    return Step.of(output, moves)


def extend_lambda(law: DistLaw, term: Term,
                  env: Mapping[str, LeafObs]) -> tuple[Term, Step]:
    """Extend the rule table over a whole term of observed leaves.

    ``env`` maps each leaf token to a pair of its state (any term) and its
    one-step observation, whose successors are themselves terms.  The
    result pairs the input with every leaf replaced by its state (the
    copointed first component) with the composite observation.
    """

    # Successor templates reuse argument subterms, so iterated steps build
    # dags; memoise on identity to visit each shared node once.
    memo: dict[int, tuple[Term, Step]] = {}

    def go(t: Term) -> tuple[Term, Step]:
        found = memo.get(id(t))
        if found is not None:
            return found
        if isinstance(t, Var):
            try:
                result = env[t.name]
            except KeyError:
                raise UnboundVariable(
                    f"no observation for leaf {t.name!r}"
                ) from None
        elif isinstance(t, Const):
            step = apply_rule(law, t.family, [], family=True, index=t.index)
            result = (t, step)
        else:
            pieces = [go(a) for a in t.args]
            args = [(state, step.output, step.next_map)
                    for state, step in pieces]
            step = apply_rule(law, t.symbol, args)
            result = (App(t.symbol, tuple(state for state, _ in pieces)), step)
        memo[id(t)] = result
        return result

    return go(term)


def quotient_lambda(th: Theory, law: DistLaw, nf: NormalForm,
                    env: Mapping[str, LeafObs],
                    certified: bool | None = None,
                    strict: bool = False) -> Step:
    """The induced one-step map on normal forms: pick a representative,
    extend the law over it, and normalise the successors.

    The result is representative-independent exactly when the law
    preserves the theory's equations; callers that know certification
    failed should say so, which downgrades to a warning (or an error when
    strict) plus a spot check over alternative representatives."""
    if certified is False:
        message = ("law is not certified to preserve the theory; "
                   "quotient-level steps may depend on the representative")
        if strict:
            raise PreservationNotCertified(message)
        warnings.warn(message, PreservationNotCertified, stacklevel=2)

    rep = th.representative(nf)
    _, step = extend_lambda(law, rep, env)
    result = Step.of(step.output,
                     {l: th.normalize(s) for l, s in step.moves})

    if certified is False and th.semiring is None:
        for other in th.class_members(rep, limit=2):
            if other == rep:
                continue
            _, alt = extend_lambda(law, other, env)
            alt_result = Step.of(alt.output,
                                 {l: th.normalize(s) for l, s in alt.moves})
            if not law.outputs.equal(alt_result.output, result.output) \
                    or alt_result.moves != result.moves:
                raise PreservationNotCertified(
                    "quotient step differs between representatives "
                    f"{format_term(rep)} and {format_term(other)}"
                )
    return result


@dataclass(frozen=True)
class SquareViolation:
    term: Term
    kind: str  # "output" or "next"
    letter: str | None
    left: str
    right: str


@dataclass
class SquareReport:
    checked: int
    violations: list[SquareViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


def morphism_square_check(th: Theory, law: DistLaw,
                          samples) -> SquareReport:
    """Check, input by input, that normalising after the term-level step
    equals stepping the normal form: the square making the quotient map a
    morphism from the term-level law to the induced one."""
    alg = law.outputs
    violations: list[SquareViolation] = []
    checked = 0
    for term, env in samples:
        checked += 1
        _, step = extend_lambda(law, term, env)
        left = Step.of(step.output, {l: th.normalize(s) for l, s in step.moves})
        right = quotient_lambda(th, law, th.normalize(term), env)
        if not alg.equal(left.output, right.output):
            violations.append(SquareViolation(
                term, "output", None,
                alg.format(left.output), alg.format(right.output)))
            continue
        for letter in law.alphabet:
            if left.next(letter) != right.next(letter):
                violations.append(SquareViolation(
                    term, "next", letter,
                    str(left.next(letter)), str(right.next(letter))))
                break
    return SquareReport(checked, violations)
