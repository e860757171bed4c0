"""Solve corecursive equation systems against a rule table.

A system assigns every variable one concrete observation whose successors
are terms over the variables.  The operational model extends those
observations to all terms: leaves look up the system, applications go
through the rule table, exactly the structural recursion that makes the
term algebra a model of the rules.  By construction the model solves the
system: the model of a variable is its defining step.

``unfold`` iterates the model along an input word; with a theory attached
the state is renormalised after every step, which keeps states small and
realises the quotient-level unfolding.  Two consistency checks compare
routes that must agree whenever the law preserves the theory:

  * ``quotient_commute_check``: unfolding with and without intermediate
    normalisation gives the same outputs and congruent final states;

  * ``induced_algebra_check``: the behaviour of a composite state equals
    the semantic composition of its leaves' behaviours, computed by
    folding the composite's normal form into a truncated semiring
    (convolution of stream prefixes for polynomials, union and
    concatenation of truncated languages for finite languages).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .behaviour import Step
from .errors import AlphabetMismatch, LawbenchError, UnboundVariable
from .gsos import DistLaw, extend_lambda
from .terms import (
    App,
    Term,
    Var,
    enumerate_terms,
    format_term,
    substitute,
    variables,
)
from .theories import LANGUAGES, POLYNOMIALS, Equiv, Semiring, Theory, fold


@dataclass
class CorecSystem:
    """Variables with one defining observation each, plus the rule table
    (and optionally the theory) everything runs against."""

    variables: tuple[str, ...]
    phi: dict[str, Step]
    law: DistLaw
    theory: Theory | None = None

    def __post_init__(self):
        self.variables = tuple(self.variables)
        alg = self.law.outputs
        if set(self.phi) != set(self.variables):
            raise UnboundVariable(
                "system must define exactly its declared variables"
            )
        coerced = {}
        for name, step in self.phi.items():
            if step.letters != tuple(sorted(self.law.alphabet)):
                raise AlphabetMismatch(
                    f"variable {name!r} does not observe the alphabet "
                    f"{sorted(self.law.alphabet)}"
                )
            output = alg.coerce(step.output)
            if not alg.is_concrete(output):
                raise LawbenchError(
                    f"variable {name!r} needs a concrete output"
                )
            for _, succ in step.moves:
                self._check_term(succ)
            coerced[name] = Step(output, step.moves)
        self.phi = coerced

    def _check_term(self, term: Term) -> None:
        self.law.signature.validate(term)
        for token in variables(term):
            if token not in self.variables:
                raise UnboundVariable(
                    f"successor mentions undefined variable {token!r}"
                )


def operational_model(sys: CorecSystem, term: Term) -> Step:
    """The unique extension of the system's observations to terms."""
    env = {x: (Var(x), sys.phi[x]) for x in sys.variables}
    _, step = extend_lambda(sys.law, term, env)
    return step


def _normal_rep(sys: CorecSystem, term: Term) -> Term:
    return sys.theory.representative(sys.theory.normalize(term))


def unfold(sys: CorecSystem, term: Term, word: Iterable[str]):
    """Run the model along a word; returns the final output and state.
    With a theory attached the state is normalised after every step."""
    state = term
    for letter in word:
        if letter not in sys.law.alphabet:
            raise AlphabetMismatch(f"letter {letter!r} not in the alphabet")
        state = operational_model(sys, state).next(letter)
        if sys.theory is not None:
            state = _normal_rep(sys, state)
    output = operational_model(sys, state).output
    return sys.law.outputs.concrete(output), state


def behaviour_table(sys: CorecSystem, term: Term,
                    maxlen: int) -> dict[tuple[str, ...], object]:
    """Outputs at every word of length at most ``maxlen``."""
    alg = sys.law.outputs
    table: dict[tuple[str, ...], object] = {}

    def walk(state: Term, word: tuple[str, ...]) -> None:
        step = operational_model(sys, state)
        table[word] = alg.concrete(step.output)
        if len(word) < maxlen:
            for letter in sys.law.alphabet:
                succ = step.next(letter)
                if sys.theory is not None:
                    succ = _normal_rep(sys, succ)
                walk(succ, word + (letter,))

    walk(term, ())
    return table


def stream_prefix(sys: CorecSystem, term: Term, n: int) -> list[Fraction]:
    """The first ``n`` outputs along the unique letter of a singleton
    alphabet."""
    if len(sys.law.alphabet) != 1:
        raise AlphabetMismatch("stream prefixes need a one-letter alphabet")
    letter = sys.law.alphabet[0]
    out: list[Fraction] = []
    state = term
    alg = sys.law.outputs
    for _ in range(n):
        step = operational_model(sys, state)
        out.append(alg.concrete(step.output))
        state = step.next(letter)
        if sys.theory is not None:
            state = _normal_rep(sys, state)
    return out


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
    and words within the bounds."""
    if sys.theory is None:
        raise LawbenchError("quotient commutation needs a theory")
    plain = replace(sys, theory=None)
    alg = sys.law.outputs
    violations: list[CommuteViolation] = []
    checked = 0

    # Walk the word tree once per seed so each prefix is unfolded a single
    # time; the plain state grows with every step, so re-running it from
    # scratch for every word would repeat the expensive deep unfoldings.
    def walk(label: str, word: tuple[str, ...],
             state_plain: Term, state_quot: Term) -> None:
        nonlocal checked
        checked += 1
        step_plain = operational_model(plain, state_plain)
        step_quot = operational_model(sys, state_quot)
        out_plain = alg.concrete(step_plain.output)
        out_quot = alg.concrete(step_quot.output)
        if out_plain != out_quot:
            violations.append(CommuteViolation(
                label, "".join(word), "output",
                str(out_plain), str(out_quot)))
        elif sys.theory.equiv(state_plain, state_quot) is not Equiv.EQUAL:
            violations.append(CommuteViolation(
                label, "".join(word), "state",
                format_term(state_plain), format_term(state_quot)))
        if len(word) < depth:
            for letter in step_plain.letters:
                walk(label, word + (letter,), step_plain.next(letter),
                     _normal_rep(sys, step_quot.next(letter)))

    for term in enumerate_terms(sys.law.signature, set(sys.variables),
                                max_term_size):
        walk(format_term(term), (), term, term)
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


def _accepted(sys: CorecSystem, term: Term, horizon: int) -> frozenset:
    table = behaviour_table(sys, term, horizon)
    return frozenset(w for w, out in table.items() if out == 1)


# Per normal-form semiring: its truncation, how a state is observed in
# it, and how an observation is reported.  ``stream_prefix`` is looked up
# when called, so a wrapper re-bound on this module (bench/spans.py)
# sees these calls too.
_TRUNCATIONS = {
    POLYNOMIALS: (_series,
                  lambda sys, term, horizon: stream_prefix(sys, term, horizon),
                  list),
    LANGUAGES: (_languages, _accepted, sorted),
}


def _atom_state(sys: CorecSystem, atom: str,
                leaf_env: Mapping[str, Term]) -> Term:
    if atom in leaf_env:
        return leaf_env[atom]
    if atom in sys.variables:
        return Var(atom)
    if sys.law.signature.has_op(atom, 0):
        return App(atom)
    raise UnboundVariable(f"no state for leaf {atom!r}")


def induced_algebra_check(sys: CorecSystem, outer: Term,
                          leaf_env: Mapping[str, Term] | None = None,
                          horizon: int = 5) -> AlgebraReport:
    """Behaviour of the flattened composite versus the induced algebra on
    the leaves' behaviours, both truncated at the horizon: the normal
    form of the outer term, folded into the truncated semiring with each
    atom read as its leaf's behaviour."""
    th = sys.theory
    if th is None:
        raise LawbenchError("the induced algebra needs a theory")
    if th.semiring not in _TRUNCATIONS:
        raise LawbenchError(
            "the induced algebra is only computed for the builtin theories"
        )
    truncate, observe, report = _TRUNCATIONS[th.semiring]
    leaf_env = dict(leaf_env or {})
    for token in variables(outer):
        leaf_env.setdefault(token, Var(token))
    rep = th.representative(th.normalize(outer))
    operational = observe(sys, substitute(outer, leaf_env), horizon)

    leaves: dict[str, object] = {}

    def leaf(atom: str):
        if atom not in leaves:
            state = _atom_state(sys, atom, leaf_env)
            leaves[atom] = observe(sys, state, horizon)
        return leaves[atom]

    induced = fold(rep, truncate(horizon, leaf), th.generators, th.family)
    operational, induced = report(operational), report(induced)
    return AlgebraReport(operational == induced, operational, induced)
