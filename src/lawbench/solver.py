"""Solve corecursive equation systems against a rule table.

A system assigns every variable one concrete observation whose successors
are terms over the variables.  The operational model extends those
observations to all terms: leaves look up the system, applications go
through the rule table, exactly the structural recursion that makes the
term algebra a model of the rules.  By construction the model solves the
system: the model of a variable is its defining step.

Every run steps one model, ``model``: the law on the quotient by the
system's theory (``gsos.QuotientStepper``, under a pointwise ``+`` rule
adding up the steps of a form's products).  A system without a theory
runs on the quotient by the free theory, whose normal forms are the
terms themselves, so its runs are plain unfolding.  A run's start term
takes one step through the rule table (``operational_model``) and its
successors are normalised; from then on every state is a normal form,
stepped by the model, whose caches last as long as the caller keeps it:
one run, or every run of ``induced_algebra_check``.  That step is the
rule table's step at the canonical representative, normalised, so the
states stay small without changing any answer.  Two consistency checks
compare routes that must agree whenever the law preserves the theory:

  * ``quotient_commute_check``: unfolding terms without a theory and
    normal forms under the quotient law gives the same outputs and
    congruent states.  Each distinct (plain state, quotient state, depth
    left) triple is checked, each start term extended, each plain subterm
    stepped and folded and each quotient state stepped once; states
    compare by folded value, and the memos last for one check;

  * ``induced_algebra_check``: the behaviour of a composite state equals
    the semantic composition of its leaves' behaviours, computed by
    folding the composite's normal form into a truncated semiring
    (convolution of stream prefixes for polynomials, union and
    concatenation of truncated languages for finite languages).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .behaviour import Step
from .errors import AlphabetMismatch, LawbenchError, UnboundVariable
from .gsos import DistLaw, LeafObs, QuotientStepper, extend_lambda
from .terms import (
    App,
    Term,
    Var,
    enumerate_terms,
    evaluate,
    format_term,
    variables,
)
from .theories import (
    LANGUAGES,
    POLYNOMIALS,
    Equiv,
    NormalForm,
    Semiring,
    Theory,
    free_theory,
    semiring_algebra,
)


@dataclass
class CorecSystem:
    """Variables with one defining observation each, plus the rule table
    (and optionally the theory) everything runs against.  ``leaves``, the
    leaf environment of every model, pairs each variable with its step."""

    variables: tuple[str, ...]
    phi: dict[str, Step]
    law: DistLaw
    theory: Theory | None = None
    leaves: dict[str, LeafObs] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        # Normal forms keep variables and nullary symbols alike as atoms,
        # and read an atom back as the symbol of that name.
        sig = self.law.signature
        for name in self.variables:
            if sig.has_op(name) or any(f.name == name for f in sig.families):
                raise LawbenchError(
                    f"variable {name!r} is named like a symbol of the "
                    f"signature"
                )
        alg = self.law.outputs
        if set(self.phi) != set(self.variables):
            raise UnboundVariable(
                "system must define exactly its declared variables"
            )
        coerced = {}
        for name, step in self.phi.items():
            if tuple(step.moves) != self.law.letters:
                raise AlphabetMismatch(
                    f"variable {name!r} does not observe the alphabet "
                    f"{list(self.law.letters)}"
                )
            output = alg.coerce(step.output)
            if not alg.is_concrete(output):
                raise LawbenchError(
                    f"variable {name!r} needs a concrete output"
                )
            for succ in step.moves.values():
                self._check_term(succ)
            coerced[name] = Step(output, step.moves)
        self.phi = coerced
        self.leaves = {x: (Var(x), coerced[x]) for x in self.variables}

    def _check_term(self, term: Term) -> None:
        self.law.signature.validate(term)
        for token in variables(term):
            if token not in self.variables:
                raise UnboundVariable(
                    f"successor mentions undefined variable {token!r}"
                )


def operational_model(sys: CorecSystem, term: Term,
                      memo: dict | None = None) -> Step:
    """The unique extension of the system's observations to terms;
    ``memo`` is an ``extend_lambda`` memo for this system."""
    _, step = extend_lambda(sys.law, term, sys.leaves, memo)
    return step


def model(sys: CorecSystem) -> QuotientStepper:
    """The one model every run of the system steps: the quotient law of
    its theory, or of the free theory when it has none, with every
    variable observed through its defining step."""
    th = sys.theory
    if th is None:
        th = free_theory(sys.law.signature)
    return QuotientStepper(th, sys.law, sys.leaves)


def unfold(sys: CorecSystem, term: Term, word: Iterable[str]):
    """Run the model along a word; returns the final output and state.
    After the first step the state is a normal form, and the final state
    is returned as its representative."""
    quotient = model(sys)
    step, state = quotient.normalized(operational_model(sys, term)), None
    for letter in word:
        state = step.next(letter)
        step = quotient.step(state)
    final = term if state is None else quotient.th.representative(state)
    return sys.law.outputs.concrete(step.output), final


def _table(sys: CorecSystem, quotient: QuotientStepper, term: Term,
           maxlen: int) -> dict[tuple[str, ...], object]:
    alg = sys.law.outputs
    table: dict[tuple[str, ...], object] = {}
    todo = [((), quotient.normalized(operational_model(sys, term)))]
    while todo:
        word, step = todo.pop()
        table[word] = alg.concrete(step.output)
        if len(word) < maxlen:
            todo.extend((word + (letter,), quotient.step(step.next(letter)))
                        for letter in reversed(sys.law.alphabet))
    return table


def behaviour_table(sys: CorecSystem, term: Term,
                    maxlen: int) -> dict[tuple[str, ...], object]:
    """Outputs at every word of length at most ``maxlen``, keyed in
    depth-first order, letters in alphabet order; the walk keeps its
    words on a stack, so any length runs."""
    return _table(sys, model(sys), term, maxlen)


def _prefix(sys: CorecSystem, quotient: QuotientStepper, term: Term,
            n: int) -> list[Fraction]:
    if len(sys.law.alphabet) != 1:
        raise AlphabetMismatch("stream prefixes need a one-letter alphabet")
    if n < 1:
        return []
    letter, alg = sys.law.alphabet[0], sys.law.outputs
    step = quotient.normalized(operational_model(sys, term))
    out = [alg.concrete(step.output)]
    for _ in range(n - 1):
        step = quotient.step(step.next(letter))
        out.append(alg.concrete(step.output))
    return out


def stream_prefix(sys: CorecSystem, term: Term, n: int) -> list[Fraction]:
    """The first ``n`` outputs along the unique letter of a singleton
    alphabet."""
    return _prefix(sys, model(sys), term, n)


@dataclass(frozen=True)
class CommuteViolation:
    term: str
    word: str
    kind: str  # "output" or "state"
    plain: str
    quotient: str


@dataclass
class CommuteReport:
    checked: int
    violations: list[CommuteViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


def quotient_commute_check(sys: CorecSystem, max_term_size: int = 4,
                           depth: int = 4) -> CommuteReport:
    """Compare plain and normalised unfolding over all enumerated terms
    and words within the bounds.

    The plain side steps terms through the rule table with no theory and
    normalises them only to compare.  Its states are dags that share most
    of their subterms with one another, so the check keeps one
    ``extend_lambda`` memo and the quotient stepper's ``normalize`` memo,
    both keyed by the term, for the whole walk and drops them when it
    returns: each distinct subterm is stepped and folded once per check.
    A start term is extended once: its quotient step is its plain step,
    normalised.  Below it, ``Theory.equiv`` compares the plain state with
    the quotient state's representative (a builtin theory by their folded
    values), and each quotient state is stepped once.

    What the check finds below a node depends only on the node's plain
    state, its quotient state and the depth left, not on the seed or the
    word that reached it.  So the walk checks each distinct triple once,
    keeping the number of nodes below it and its violations, as (word
    suffix, kind, plain, quotient) in depth-first order, and a triple met
    again adds that count and those violations under the current seed and
    word.  ``checked`` still counts every term/word pair, and the report
    is the one an unmemoised walk gives.  The walk keeps its nodes on an
    explicit stack, so a deep word does not recurse."""
    if sys.theory is None:
        raise LawbenchError("quotient commutation needs a theory")
    th = sys.theory
    alg = sys.law.outputs
    steps: dict = {}
    quotient = model(sys)
    quot: dict[NormalForm, tuple[Step, Term]] = {}
    # (plain state, quotient state, depth left) -> (nodes, violations)
    below: dict[tuple, tuple[int, tuple]] = {}

    def check(node: tuple) -> tuple[tuple, tuple]:
        """The node's own violations and its children as (letter, node)."""
        state_plain, state_quot, left = node
        step_plain = operational_model(sys, state_plain, steps)
        own: tuple = ()
        if state_quot is state_plain:  # a start term
            step_quot = quotient.normalized(step_plain)
        else:
            if state_quot not in quot:
                quot[state_quot] = (quotient.step(state_quot),
                                    th.representative(state_quot))
            step_quot, term_quot = quot[state_quot]
            out_plain = alg.concrete(step_plain.output)
            out_quot = alg.concrete(step_quot.output)
            if out_plain != out_quot:
                own = (("", "output", str(out_plain), str(out_quot)),)
            elif th.equiv(state_plain, term_quot,
                          quotient.memo).equiv is not Equiv.EQUAL:
                own = (("", "state", format_term(state_plain),
                        format_term(term_quot)),)
        children: tuple = ()
        if left > 0:
            children = tuple(
                (letter, (step_plain.next(letter), step_quot.next(letter),
                          left - 1))
                for letter in step_plain.moves)
        return own, children

    checked = 0
    violations: list[CommuteViolation] = []
    for term in enumerate_terms(sys.law.signature, set(sys.variables),
                                max_term_size):
        # Post-order: a node's entry comes back with its check once every
        # child below it is done.  Depth left falls along every edge, so
        # a node is never below itself.
        root = (term, term, depth)
        stack: list = [(root, None)]
        while stack:
            node, result = stack.pop()
            if result is None:
                if node in below:
                    continue
                own, children = check(node)
                stack.append((node, (own, children)))
                stack.extend((child, None) for _, child in reversed(children))
                continue
            own, children = result
            count, found = 1, list(own)
            for letter, child in children:
                n, sub = below[child]
                count += n
                found.extend((letter + word, kind, p, q)
                             for word, kind, p, q in sub)
            below[node] = (count, tuple(found))
        count, found = below[root]
        checked += count
        if found:
            label = format_term(term)
            violations.extend(CommuteViolation(label, *v) for v in found)
    return CommuteReport(checked, violations)


@dataclass
class AlgebraReport:
    ok: bool
    operational: object
    induced: object


def _series(horizon: int, atom: Callable[[str], list]) -> Semiring:
    """Rational streams cut at the horizon, under pointwise sum and
    convolution: where polynomial normal forms behave."""

    def scalar(value) -> list[Fraction]:
        return [Fraction(value) if k == 0 else Fraction(0)
                for k in range(horizon)]

    def convolve(left: list, right: list) -> list[Fraction]:
        return [sum((left[i] * right[k - i] for i in range(k + 1)),
                    start=Fraction(0))
                for k in range(horizon)]

    return Semiring("truncated series", scalar(0), scalar(1),
                    lambda left, right: [a + b for a, b in zip(left, right)],
                    convolve, atom, scalar)


def _languages(horizon: int, atom: Callable[[str], frozenset]) -> Semiring:
    """Languages cut at words of the horizon's length, under union and
    concatenation: where finite-language normal forms behave."""

    def concat(left: frozenset, right: frozenset) -> frozenset:
        return frozenset(u + v for u in left for v in right
                         if len(u) + len(v) <= horizon)

    return Semiring("truncated languages", frozenset(), frozenset({()}),
                    operator.or_, concat, atom)


def _accepted(sys: CorecSystem, quotient: QuotientStepper, term: Term,
              horizon: int) -> frozenset:
    table = _table(sys, quotient, term, horizon)
    return frozenset(w for w, out in table.items() if out == 1)


# Per normal-form semiring: its truncation, how a state is observed in
# it by a run of the check's model, and how an observation is reported.
_TRUNCATIONS = {
    POLYNOMIALS: (_series, _prefix, list),
    LANGUAGES: (_languages, _accepted, sorted),
}


def induced_algebra_check(sys: CorecSystem, outer: Term,
                          horizon: int = 5) -> AlgebraReport:
    """Behaviour of the flattened composite versus the induced algebra on
    the leaves' behaviours, both truncated at the horizon: the normal
    form of the outer term, folded into the truncated semiring with each
    atom read as its leaf's behaviour.  The composite and its leaves are
    observed by runs of one model, so a product step met in one run is
    not taken again in another."""
    th = sys.theory
    if th is None:
        raise LawbenchError("the induced algebra needs a theory")
    if th.semiring not in _TRUNCATIONS:
        raise LawbenchError(
            "the induced algebra is only computed for the builtin theories"
        )
    truncate, observe, report = _TRUNCATIONS[th.semiring]
    quotient = model(sys)
    rep = th.representative(th.normalize(outer))
    operational = observe(sys, quotient, outer, horizon)

    leaves: dict[str, object] = {}

    def leaf(atom: str):
        if atom not in leaves:
            leaves[atom] = observe(sys, quotient, th.leaf(atom), horizon)
        return leaves[atom]

    induced = evaluate(rep, *semiring_algebra(truncate(horizon, leaf),
                                              th.generators, th.family), {})
    operational, induced = report(operational), report(induced)
    return AlgebraReport(operational == induced, operational, induced)
