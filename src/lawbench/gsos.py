"""Rule tables and their inductive extension to term-level one-step maps.

A rule describes how an operation observes its arguments: for each
argument it declares an output placeholder and a derivative placeholder
(and, under the ``gsos`` format, optionally a placeholder for the argument
itself).  The conclusion gives the output as a term over the output
algebra's operations, with the output placeholders as variables and a
literal as the nullary symbol its text names (``App("1/2")``), and, for
every input letter, a successor term over the placeholders.  A successor
may case-split on a Boolean output placeholder.

Constant families get one rule with an index placeholder, so a single
entry covers the whole family (output ``c``, successor ``[0]`` describes
every ``[c]``).  Successor templates may also embed output placeholders
inside constant indices, which is how a rule like
``(x * y)' = x' * y + [x(0)] * y'`` mentions the head output ``[x(0)]``.

``apply_rule`` is the rule table lambda : Sigma(X x BX) => BTX at one
symbol: it takes one observed state, a (state, ``Step``) pair, per
argument.  A rule's output and successor templates are fixed data, so
they are compiled when the law is built (``DistLaw.compiled``): each into
a straight-line program over its placeholders' slots, the output in the
output algebra and the templates in terms; a ``QuotientStepper`` on the
folded route compiles the templates into the theory's semiring when it
is built.  ``apply_rule`` runs the programs; a constant indexed by one
output placeholder (``[a]``) takes that output as it is, without
substituting into the index.

``extend_lambda`` pushes a whole term of observed leaves through the
table: it is evaluation (``terms.evaluate``) in the algebra of (state,
step) pairs whose operation is ``apply_rule``, the paper's extension of
the rule table along the free monad.  The pair it returns (the term with
leaves replaced by their states, plus the composite step) is the
distributive-law component at that term.

``QuotientStepper`` is the law on the quotient by a theory: it steps
normal forms.  For the builtin theories under a pointwise ``+`` rule it
adds up the steps of a form's products, read straight into the theory's
semiring (``apply_rule`` with the semiring programs instead of the term
programs), so no successor term is built; otherwise it normalises the
step of the canonical representative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping, Union

from .behaviour import OutputAlgebra, Step
from .errors import (
    AlphabetMismatch,
    MissingRule,
    PlaceholderViolation,
    SymbolicCaseSplit,
    UnboundVariable,
    UnknownSymbol,
)
from .polynomials import Poly
from .terms import (App, Const, Signature, Term, Var, evaluate, format_term,
                    rebuild, subterms)
from .theories import NormalForm, Theory

SIMPLE = "simple"
GSOS = "gsos"


@functools.cache
def _literal(alg: OutputAlgebra, text: str):
    try:
        return alg.coerce(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise UnknownSymbol(
            f"{text!r} is not a literal of the {alg.kind} outputs") from None


# -- compiled terms ------------------------------------------------------------
#
# A rule's output and successor templates are fixed data, so each is read
# into its target algebra once, as a straight-line program, and a flat
# loop runs the program per application.  Instruction i puts the value
# of one distinct subterm in slot i, in post-order, so the root's value
# is the last:
#
#   (_APPLY, fn, i, j)       fn of the values in slots i and j
#   (_CALL, fn, slots, None) fn of the values in the listed slots
#   (_BOUND, None, name, None)
#                            the value bound to a placeholder
#   (_FIXED, None, value, None)
#                            a value known when the term is read
#   (_INDEX, fn, name, None) fn of the output value bound to ``name``: a
#                            constant whose index is that one placeholder
#   (_SUBST, fn, index, None)
#                            fn of a constant's polynomial index with the
#                            output values substituted in
_APPLY, _CALL, _BOUND, _FIXED, _INDEX, _SUBST = range(6)

Program = tuple[tuple, ...]


def _compile(term: Term, var: Callable[[str], tuple],
             const: Callable[[Const], tuple],
             app: Callable[[App, list[int]], tuple]) -> Program:
    """The program of ``term``: ``var``, ``const`` and ``app`` give a
    node's instruction, ``app`` from the slots of its arguments.  They
    are called in ``evaluate``'s order, each distinct subterm once, so
    any depth compiles, and a reading that raises while compiling raises
    the error that evaluating the term would raise first."""
    program: list[tuple] = []

    def emit(instruction: tuple) -> int:
        program.append(instruction)
        return len(program) - 1

    evaluate(term, lambda name: emit(var(name)), lambda t: emit(const(t)),
             lambda t, slots: emit(app(t, slots)), {})
    return tuple(program)


def _run(program: Program, bound: Mapping[str, Any],
         poly_env: Mapping[str, Poly]):
    """The value a program computes with ``bound`` for its placeholders
    and ``poly_env`` for the output values its constant indices name."""
    values: list = []
    push = values.append
    for kind, fn, a, b in program:
        if kind == _APPLY:
            push(fn(values[a], values[b]))
        elif kind == _BOUND:
            push(bound[a])
        elif kind == _FIXED:
            push(a)
        elif kind == _INDEX:
            push(fn(poly_env[a]))
        elif kind == _SUBST:
            push(fn(a.substitute(poly_env)))
        else:
            push(fn(*[values[i] for i in a]))
    return values[-1]


def _bound(name: str) -> tuple:
    return (_BOUND, None, name, None)


def _operation(fn: Callable, slots: list[int]) -> tuple:
    if len(slots) == 2:
        return (_APPLY, fn, slots[0], slots[1])
    return (_CALL, fn, tuple(slots), None)


def _output_program(expr: Term, alg: OutputAlgebra) -> Program:
    """Read a rule's output term into the output algebra: a variable is
    an output placeholder, a nullary symbol the literal its name spells,
    and any other application an operation of the output algebra, a
    binary one its function in ``alg.ops``, since every value is coerced.
    ``GsosSpec`` has already rejected constants and undeclared
    placeholders in outputs, so none is met here."""
    def app(t: App, slots: list[int]) -> tuple:
        if not slots:
            return (_FIXED, None, _literal(alg, t.symbol), None)
        symbol, apply = t.symbol, alg.apply
        alg.check_op(symbol)
        if len(slots) == 2:
            return _operation(alg.ops[symbol], slots)
        return _operation(lambda *args: apply(symbol, list(args)), slots)

    return _compile(expr, _bound, None, app)


def _template_program(template: Term, rational: bool,
                      leaf: Callable[[Term], Any],
                      scalar: Callable[[Const], Callable[[Poly], Any]],
                      operation: Callable[[App], Callable]) -> Program:
    """Read a successor template into a target algebra: a variable is a
    placeholder, bound per application (``GsosSpec`` has already rejected
    undeclared ones); a constant or nullary symbol is its ``leaf`` value,
    except that under ``rational`` outputs a constant whose index
    mentions output values is ``scalar(t)`` of the index with them
    substituted in; any other application is its ``operation``."""
    def const(t: Const) -> tuple:
        value = leaf(t)  # also checks the family of an index read later
        index = t.index
        # A constant polynomial index is stored as its Fraction, so a Poly
        # index mentions output values.
        if rational and isinstance(index, Poly):
            name = _placeholder(index)
            if name is not None:
                return (_INDEX, scalar(t), name, None)
            return (_SUBST, scalar(t), index, None)
        return (_FIXED, None, value, None)

    def app(t: App, slots: list[int]) -> tuple:
        if not slots:
            return (_FIXED, None, leaf(t), None)
        return _operation(operation(t), slots)

    return _compile(template, _bound, const, app)


def _placeholder(index: Poly) -> str | None:
    """The placeholder an index is, when it is exactly one."""
    if len(index.terms) == 1:
        (mono, coeff), = index.terms
        if coeff == 1 and len(mono) == 1 and mono[0][1] == 1:
            return mono[0][0]
    return None


def _builder(t: App) -> Callable[..., Term]:
    symbol = t.symbol
    return lambda *args: App(symbol, args)


def _term_program(template: Term, rational: bool) -> Program:
    """The term reading of a successor template: placeholders become
    their bound terms, and the output values a constant's index mentions
    are substituted in."""
    return _template_program(template, rational, lambda t: t,
                             lambda t: functools.partial(Const, t.family),
                             _builder)


def _semiring_program(th: Theory, template: Term, rational: bool) -> Program:
    """The reading of a successor template in a builtin theory's
    semiring (``semiring_algebra``), placeholders read as their bound
    values."""
    _, const, app = th.algebra
    ops = {"+": th.semiring.add, "*": th.semiring.mul}

    def leaf(t: Term):
        return const(t) if isinstance(t, Const) else app(t, [])

    def operation(t: App) -> Callable:
        if len(t.args) == 2 and t.symbol in ops:
            return ops[t.symbol]
        # No other application has a meaning in the semiring: the algebra
        # raises its error, whatever the arguments.
        return app(t, [None] * len(t.args))

    return _template_program(template, rational, leaf,
                             lambda t: th.semiring.const, operation)


@dataclass(frozen=True)
class ArgObs:
    """Placeholders declared for one argument position."""

    out: str
    deriv: str
    name: str | None = None


@dataclass(frozen=True)
class CaseSplit:
    scrutinee: str
    if_zero: Term
    if_one: Term


NextTemplate = Union[Term, CaseSplit]


@dataclass(frozen=True)
class Rule:
    """The rule for one operation, or with an ``index_name`` for one
    constant family."""

    symbol: str
    args: tuple[ArgObs, ...]
    output: Term
    next: NextTemplate
    index_name: str | None = None

    @property
    def is_family(self) -> bool:
        return self.index_name is not None

    def templates(self) -> tuple[Term, ...]:
        if isinstance(self.next, CaseSplit):
            return (self.next.if_zero, self.next.if_one)
        return (self.next,)


@dataclass(frozen=True)
class GsosSpec:
    """A complete rule table over a signature, one rule per symbol (an
    operation and a constant family never share a name)."""

    signature: Signature
    rules: tuple[Rule, ...]

    def __post_init__(self):
        by_symbol: dict[str, Rule] = {}
        for rule in self.rules:
            if rule.symbol in by_symbol:
                raise PlaceholderViolation(
                    f"duplicate rule for {rule.symbol!r}"
                )
            by_symbol[rule.symbol] = rule
            self._validate_rule(rule)
        object.__setattr__(self, "_by_symbol", by_symbol)

    @property
    def format(self) -> str:
        """``simple`` when no rule mentions an argument itself, only its
        observed output and derivative; ``gsos`` when some rule names an
        argument to reuse it."""
        named = any(arg.name is not None
                    for rule in self.rules for arg in rule.args)
        return GSOS if named else SIMPLE

    def _validate_rule(self, rule: Rule) -> None:
        sig = self.signature
        if rule.is_family:
            sig.family(rule.symbol)
            if rule.args:
                raise PlaceholderViolation(
                    f"family rule {rule.symbol!r} cannot take arguments"
                )
        else:
            arity = sig.arity(rule.symbol)
            if arity != len(rule.args):
                raise PlaceholderViolation(
                    f"rule for {rule.symbol!r} declares {len(rule.args)} "
                    f"arguments but the symbol has arity {arity}"
                )
        outs = [a.out for a in rule.args]
        if rule.is_family:
            outs.append(rule.index_name)
        terms = [a.deriv for a in rule.args]
        terms += [a.name for a in rule.args if a.name is not None]
        out_ph, term_ph = set(outs), set(terms)
        if len(out_ph | term_ph) != len(outs) + len(terms):
            raise PlaceholderViolation(
                f"rule for {rule.symbol!r} declares a placeholder twice"
            )
        for t in subterms(rule.output):
            if isinstance(t, Const):
                raise PlaceholderViolation(
                    f"rule for {rule.symbol!r}: output contains the "
                    f"constant {format_term(t)}")
            if isinstance(t, Var) and t.name not in out_ph:
                raise PlaceholderViolation(
                    f"rule for {rule.symbol!r}: output uses undeclared "
                    f"placeholder {t.name!r}"
                )
        if isinstance(rule.next, CaseSplit) and rule.next.scrutinee not in out_ph:
            raise PlaceholderViolation(
                f"rule for {rule.symbol!r}: case split on undeclared "
                f"placeholder {rule.next.scrutinee!r}"
            )
        for t in (t for template in rule.templates()
                  for t in subterms(template)):
            if isinstance(t, Var) and t.name not in term_ph:
                raise PlaceholderViolation(
                    f"rule for {rule.symbol!r}: successor uses "
                    f"undeclared placeholder {t.name!r}"
                )
            if isinstance(t, Const):
                sig.family(t.family)
                if isinstance(t.index, Poly):
                    stray = t.index.atoms() - out_ph
                    if stray:
                        raise PlaceholderViolation(
                            f"rule for {rule.symbol!r}: constant index uses "
                            f"undeclared placeholders {sorted(stray)}"
                        )
            elif isinstance(t, App) and sig.arity(t.symbol) != len(t.args):
                raise PlaceholderViolation(
                    f"rule for {rule.symbol!r}: successor applies "
                    f"{t.symbol!r} at the wrong arity"
                )

    def rule_for(self, symbol: str) -> Rule:
        rule = self._by_symbol.get(symbol)
        if rule is None:
            kind = ("family" if any(f.name == symbol
                                    for f in self.signature.families)
                    else "symbol")
            raise MissingRule(f"no rule for {kind} {symbol!r}")
        return rule


@dataclass(frozen=True)
class DistLaw:
    """A rule table together with the input alphabet and output algebra;
    the data of a distributive law presented symbol by symbol.

    ``letters`` is the alphabet sorted, the order of every step's moves.
    ``compiled`` maps each symbol to its rule, the rule's output's
    program in the output algebra and its templates' programs in terms,
    keyed by template; all are compiled when the law is built."""

    spec: GsosSpec
    alphabet: tuple[str, ...]
    outputs: OutputAlgebra
    letters: tuple[str, ...] = field(init=False, repr=False, compare=False)
    compiled: dict = field(init=False, repr=False, compare=False)

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
        rational = self.outputs.kind == "rational"
        object.__setattr__(self, "letters", tuple(sorted(self.alphabet)))
        object.__setattr__(self, "compiled", {
            rule.symbol: (
                rule, _output_program(rule.output, self.outputs),
                {t: _term_program(t, rational) for t in rule.templates()})
            for rule in self.spec.rules})

    @property
    def signature(self) -> Signature:
        return self.spec.signature


LeafObs = tuple[Term, Step]


def apply_rule(law: DistLaw, symbol: str, args: list[tuple[Any, Step]],
               index=None, programs: Mapping | None = None) -> Step:
    """Instantiate one rule: ``args`` holds, per argument position, the
    argument's state and its step, and ``index`` a constant's index.
    ``programs`` holds the successor templates' programs per symbol; by
    default they are the law's, read as terms, and the quotient stepper
    passes its semiring programs."""
    compiled = law.compiled.get(symbol)
    if compiled is None:
        law.spec.rule_for(symbol)  # raises MissingRule
    rule, output_program, templates = compiled
    alg = law.outputs
    out_env: dict[str, Any] = {}
    for spec_arg, (_, step) in zip(rule.args, args):
        out_env[spec_arg.out] = alg.coerce(step.output)
    if rule.index_name is not None:
        out_env[rule.index_name] = alg.coerce(index)

    output = _run(output_program, out_env, {})

    template = rule.next
    if isinstance(template, CaseSplit):
        # Case splits need Boolean outputs (``DistLaw``), so this is a bit.
        body = template.if_one if out_env[template.scrutinee] else template.if_zero
    else:
        body = template
    program = (templates if programs is None else programs[symbol])[body]

    named = {a.name: state for a, (state, _) in zip(rule.args, args)
             if a.name is not None}
    moves = {}
    for letter in law.letters:
        bound = named.copy()
        for spec_arg, (_, step) in zip(rule.args, args):
            bound[spec_arg.deriv] = step.moves[letter]
        # Only rational outputs, all Polys, have programs that read them.
        moves[letter] = _run(program, bound, out_env)
    return Step(output, moves)


def extend_lambda(law: DistLaw, term: Term, env: Mapping[str, LeafObs],
                  memo: dict[Term, tuple[Term, Step]] | None = None
                  ) -> tuple[Term, Step]:
    """Extend the rule table over a whole term of observed leaves.

    ``env`` maps each leaf token to a pair of its state (any term) and its
    one-step observation, whose successors are themselves terms.  The
    result pairs the input with every leaf replaced by its state (the
    copointed first component) with the composite observation.

    ``memo`` maps each term already extended to its result.  A subterm's
    result depends only on the subterm, ``law`` and ``env``, so a caller
    that keeps those fixed may pass one memo to many calls; by default
    each call has its own.
    """
    def var(name: str) -> LeafObs:
        try:
            return env[name]
        except KeyError:
            raise UnboundVariable(f"no observation for leaf {name!r}") from None

    def const(t: Const) -> tuple[Term, Step]:
        return t, apply_rule(law, t.family, [], index=t.index)

    def app(t: App, pieces: list[tuple[Term, Step]]) -> tuple[Term, Step]:
        return (rebuild(t, [state for state, _ in pieces]),
                apply_rule(law, t.symbol, pieces))

    return evaluate(term, var, const, app, {} if memo is None else memo)


def pointwise_plus(law: DistLaw) -> str | None:
    """The ``+`` rule's output operation if the rule is pointwise, as
    ``QuotientStepper`` defines it, else None."""
    rule, _, _ = law.compiled.get("+", (None, None, None))
    if rule is None or len(rule.args) != 2 \
            or any(arg.name is not None for arg in rule.args) \
            or isinstance(rule.next, CaseSplit):
        return None
    left, right = rule.args
    outs = (Var(left.out), Var(right.out))
    derivs = (Var(left.deriv), Var(right.deriv))
    output, succ = rule.output, rule.next
    pointwise = (isinstance(output, App) and output.symbol in ("+", "max")
                 and output.symbol in law.outputs.ops
                 and output.args in (outs, outs[::-1])
                 and isinstance(succ, App) and succ.symbol == "+"
                 and succ.args in (derivs, derivs[::-1]))
    return output.symbol if pointwise else None


class QuotientStepper:
    """The law on the quotient of the free monad by ``th``, with the
    leaves observed by ``env``: ``step`` maps a normal form to its output
    and the normal form of each successor.

    For a builtin theory whose ``+`` rule is pointwise (``out = a + b`` or
    ``max(a, b)`` and ``next = x + y``, each either way round, unnamed
    arguments, no case split) no term is built: a sum steps to the sum of
    its summands' steps, the output operation over their outputs and one
    semiring ``sum`` of their successors per letter.  A summand, a product
    of leaves, is stepped as ``extend_lambda`` would, but with every
    successor template read straight into the theory's semiring (the
    reading ``semiring_algebra`` makes, compiled when the stepper is
    built) and placeholders bound to folded values.  Folding is a semiring
    homomorphism and both semirings add commutatively, so the result
    equals normalising ``extend_lambda`` at the canonical representative,
    certified or not.  Each product suffix's observed state, (folded value,
    step), is cached under its factors (atoms, behind a leading scalar if
    any), so a summand costs one rule application per factor not seen
    before; the cache lives as long as the stepper, one command's runs.

    Every other theory or rule table takes the term path: representative,
    extension, normalisation, with one ``normalize`` memo (``memo``) for
    the stepper's run."""

    def __init__(self, th: Theory, law: DistLaw,
                 env: Mapping[str, LeafObs]):
        self.th, self.law, self.env = th, law, env
        self._plus = pointwise_plus(law) if th.semiring is not None else None
        self._leaves: dict[Term, tuple[Any, Step]] = {}
        self._products: dict[tuple, tuple[Any, Step]] = {}
        self.memo: dict = {}
        if self._plus is not None:
            # The rules this route applies: ``*`` and the leaves'.
            rational = law.outputs.kind == "rational"
            self._programs = {
                symbol: {t: _semiring_program(th, t, rational)
                         for t in rule.templates()}
                for symbol, (rule, _, _) in law.compiled.items()
                if symbol == "*" or not rule.args}
        # States matter only to gsos rules that name an argument.
        self._product_states = any(arg.name is not None
                                   for rule in law.spec.rules
                                   if rule.symbol == "*" for arg in rule.args)

    def normalized(self, step: Step) -> Step:
        """A step of terms with its successors normalised under ``memo``."""
        return Step(step.output, {l: self.th.normalize(s, self.memo)
                                  for l, s in step.moves.items()})

    def step(self, nf: NormalForm) -> Step:
        th = self.th
        if self._plus is None:
            return self.normalized(extend_lambda(
                self.law, th.representative(nf), self.env)[1])
        steps = [self._product(atoms if scalar is None else (scalar, *atoms))
                 for scalar, atoms in nf.summands()]
        if not steps:
            # The empty sum is one leaf, which ``_leaf`` caches.
            steps = [self._leaf(th.representative(nf))]
        _, step = steps[0]
        output, moves = step.output, step.moves
        if len(steps) > 1:
            output = self.law.outputs.apply(self._plus,
                                            [s.output for _, s in steps])
            moves = {l: th.semiring.sum([s.moves[l] for _, s in steps])
                     for l in moves}
        return Step(output, {l: th.form(v) for l, v in moves.items()})

    def _product(self, factors: tuple) -> tuple[Any, Step]:
        cache = self._products
        found = cache.get(factors)
        if found is not None:
            return found
        if not factors:
            found = cache[factors] = self._leaf(App("1"))
            return found
        # Every suffix of a cached product is cached too: start from the
        # longest one and add the missing factors in front.
        start = 1
        while start < len(factors) and factors[start:] not in cache:
            start += 1
        acc = cache[factors[start:]] if start < len(factors) else None
        for i in range(start - 1, -1, -1):
            factor = factors[i]
            leaf = self._leaf(self.th.leaf(factor) if isinstance(factor, str)
                              else Const(self.th.family, factor))
            if acc is None:
                acc = leaf
            else:
                step = apply_rule(self.law, "*", [leaf, acc],
                                  programs=self._programs)
                state = (self.th.semiring.mul(leaf[0], acc[0])
                         if self._product_states else None)
                acc = state, step
            cache[factors[i:]] = acc
        return acc

    def _leaf(self, t: Term) -> tuple[Any, Step]:
        found = self._leaves.get(t)
        if found is not None:
            return found
        algebra = self.th.algebra

        def value(term: Term):
            return evaluate(term, *algebra, {})

        if isinstance(t, Var):
            try:
                state, step = self.env[t.name]
            except KeyError:
                raise UnboundVariable(
                    f"no observation for leaf {t.name!r}"
                ) from None
            found = value(state), Step(step.output, {
                l: value(s) for l, s in step.moves.items()})
        else:
            symbol, index = ((t.family, t.index) if isinstance(t, Const)
                             else (t.symbol, None))
            found = value(t), apply_rule(self.law, symbol, [], index=index,
                                         programs=self._programs)
        self._leaves[t] = found
        return found
