"""Context-free grammars in Greibach normal form as equation systems.

A grammar here is a Moore-style coalgebra on its nonterminals: each
nonterminal has an empty-word bit and, per letter, a finite set of
sentential forms (words of nonterminals) it can step to.  ``to_corec``
turns that into a corecursive equation system over the Boolean rule
table ``cfg_law``: the sets become sums of products, normalised states
are finite languages of nonterminals, and membership is plain unfolding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .behaviour import BOOL_OUTPUTS, Step
from .errors import InvalidGrammar
from .gsos import ArgObs, CaseSplit, DistLaw, Rule
from .solver import CorecSystem, model, unfold
from .terms import App, Signature, Term, Var, variables
from .theories import LangForm, Theory, idempotent_semiring

Body = tuple[str, ...]


def cfg_signature() -> Signature:
    return Signature((("+", 2), ("*", 2), ("0", 0), ("1", 0)))


def cfg_theory() -> Theory:
    return idempotent_semiring(cfg_signature())


def cfg_law(alphabet: Sequence[str]) -> DistLaw:
    """Rule table for language expressions: union, concatenation and the
    two constant languages, with the concatenation derivative splitting
    on whether the head accepts the empty word."""
    x, y = Var("dx"), Var("dy")
    dx_y = App("*", (x, Var("y")))
    rules = (
        Rule("0", (), App("0"), App("0")),
        Rule("1", (), App("1"), App("0")),
        Rule("+",
             (ArgObs("ox", "dx"), ArgObs("oy", "dy")),
             App("max", (Var("ox"), Var("oy"))),
             App("+", (x, y))),
        Rule("*",
             (ArgObs("ox", "dx"), ArgObs("oy", "dy", name="y")),
             App("min", (Var("ox"), Var("oy"))),
             CaseSplit("ox",
                       if_zero=dx_y,
                       if_one=App("+", (dx_y, y)))),
    )
    return DistLaw(cfg_signature(), rules, tuple(alphabet), BOOL_OUTPUTS)


@dataclass
class GnfGrammar:
    """Productions ``x -> a w`` with ``w`` a word of nonterminals, plus an
    empty-word bit per nonterminal.  ``prods`` is total: every missing
    (nonterminal, letter) pair is filled with the empty set."""

    nonterminals: tuple[str, ...]
    alphabet: tuple[str, ...]
    empty: dict[str, int]
    prods: dict[str, dict[str, frozenset[Body]]]
    start: Term = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.nonterminals = tuple(self.nonterminals)
        self.alphabet = tuple(self.alphabet)
        if not self.nonterminals:
            raise InvalidGrammar("a grammar needs at least one nonterminal")
        if len(set(self.nonterminals)) != len(self.nonterminals):
            raise InvalidGrammar("duplicate nonterminal declaration")
        if not self.alphabet or len(set(self.alphabet)) != len(self.alphabet):
            raise InvalidGrammar("the alphabet must be nonempty and duplicate-free")
        if set(self.nonterminals) & set(self.alphabet):
            raise InvalidGrammar("nonterminals and letters must not overlap")
        if set(self.empty) - set(self.nonterminals):
            raise InvalidGrammar("empty-word bit for an undeclared nonterminal")
        self.empty = {x: int(self.empty.get(x, 0)) for x in self.nonterminals}
        if any(bit not in (0, 1) for bit in self.empty.values()):
            raise InvalidGrammar("empty-word bits must be 0 or 1")

        total: dict[str, dict[str, frozenset[Body]]] = {}
        for x, by_letter in self.prods.items():
            if x not in self.nonterminals:
                raise InvalidGrammar(f"production for undeclared nonterminal {x!r}")
            for letter, bodies in by_letter.items():
                if letter not in self.alphabet:
                    raise InvalidGrammar(
                        f"production {x!r} -{letter}-> uses an undeclared letter")
                for body in bodies:
                    for sym in body:
                        if sym not in self.nonterminals:
                            raise InvalidGrammar(
                                f"production body mentions undeclared {sym!r}")
        for x in self.nonterminals:
            by_letter = self.prods.get(x, {})
            total[x] = {a: frozenset(tuple(b) for b in by_letter.get(a, ()))
                        for a in self.alphabet}
        self.prods = total

        if self.start is None:
            self.start = Var(self.nonterminals[0])
        cfg_signature().validate(self.start)
        for token in variables(self.start):
            if token not in self.nonterminals:
                raise InvalidGrammar(f"start expression mentions undeclared {token!r}")


def to_corec(g: GnfGrammar) -> CorecSystem:
    """One equation per nonterminal: the empty-word bit is the output and
    each letter maps to the theory's representative of the finite
    language of production bodies."""
    th = cfg_theory()
    phi = {x: Step.of(g.empty[x],
                      {a: th.representative(LangForm(g.prods[x][a]))
                       for a in g.alphabet})
           for x in g.nonterminals}
    return CorecSystem(g.nonterminals, phi, cfg_law(g.alphabet), th)


def member(g: GnfGrammar, word: Iterable[str]) -> int:
    """Does the start expression generate the word?  Unfolds the equation
    system with normalisation after every step."""
    sys = to_corec(g)
    out, _ = unfold(sys, g.start, tuple(word))
    return int(out)


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    counterexample: tuple[str, ...] | None = None

    def __str__(self) -> str:
        if self.equivalent:
            return "Equivalent"
        return f"Counterexample({''.join(self.counterexample) or 'eps'})"


def equiv_upto(g: GnfGrammar, t1: Term, t2: Term, maxlen: int) -> EquivResult:
    """Breadth-first joint unfolding of two language expressions up to the
    length bound, on pairs of normal forms stepped by the quotient law and
    memoized; the returned counterexample is length-lexicographically
    least."""
    sys = to_corec(g)
    th = sys.theory
    for t in (t1, t2):
        sys.law.signature.validate(t)
        for token in variables(t):
            if token not in g.nonterminals:
                raise InvalidGrammar(f"term mentions undeclared {token!r}")

    quotient = model(sys)
    start = (th.normalize(t1), th.normalize(t2))
    queue = deque([((), *start)])
    seen = {(start[0].words, start[1].words)}
    alg = sys.law.outputs
    while queue:
        word, left, right = queue.popleft()
        left_step = quotient.step(left)
        right_step = quotient.step(right)
        if alg.concrete(left_step.output) != alg.concrete(right_step.output):
            return EquivResult(False, word)
        if len(word) == maxlen:
            continue
        for letter in sys.law.alphabet:
            l_next = left_step.next(letter)
            r_next = right_step.next(letter)
            pair = (l_next.words, r_next.words)
            if pair in seen:
                continue
            seen.add(pair)
            queue.append((word + (letter,), l_next, r_next))
    return EquivResult(True)
