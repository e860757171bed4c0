"""Moore-style behaviour: output algebras and one-step observations.

A behaviour step pairs an output value with a successor for every input
letter.  Successors are whatever the surrounding construction needs
(state tokens, terms, normal forms); the step type is generic in them.

Outputs live in one of two algebras:

  * ``bool``      the Boolean semiring; values are the bits 0 and 1, as
                  in the paper's functor 2 x X^A for languages;
  * ``rational``  exact rationals; values are polynomials over named
                  atoms, so symbolic equality is polynomial identity,
                  which over the rationals coincides with agreement at
                  every point.

Every bit is concrete; a rational output is concrete when its polynomial
is constant.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import AlphabetMismatch, UnknownSymbol
from .polynomials import Poly


class OutputAlgebra:
    """Operations and constants for one output kind, and symbolic atoms
    for rational outputs.  ``ops`` maps each operation's name to its
    function on two coerced values.  Each kind has one shared instance
    (``output_algebra``), so algebras compare by identity."""

    def __init__(self, kind: str):
        if kind not in ("bool", "rational"):
            raise ValueError(f"unknown output kind {kind!r}")
        self.kind = kind
        self.ops = ({"min": min, "max": max} if kind == "bool"
                    else {"+": operator.add, "*": operator.mul})

    def coerce(self, value) -> Any:
        if self.kind == "bool":
            if value in (0, 1):
                return int(value)
            raise ValueError(f"Boolean outputs must be 0 or 1, got {value!r}")
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    def atom(self, name: str) -> Poly:
        if self.kind == "bool":
            raise ValueError("Boolean outputs are bits and have no atoms")
        return Poly.atom(name)

    def check_op(self, op: str) -> None:
        if op not in self.ops:
            raise UnknownSymbol(f"{op!r} is not an operation of the {self.kind} outputs")

    def apply(self, op: str, args: list) -> Any:
        args = [self.coerce(a) for a in args]
        self.check_op(op)
        if not args:
            raise ValueError(f"{op} needs at least one argument")
        return functools.reduce(self.ops[op], args)

    def equal(self, left, right) -> bool:
        return self.coerce(left) == self.coerce(right)

    def is_concrete(self, value) -> bool:
        return self.kind == "bool" or self.coerce(value).is_constant

    def concrete(self, value):
        value = self.coerce(value)
        return value if self.kind == "bool" else value.constant_value()

    def format(self, value) -> str:
        return str(self.coerce(value))

    def __repr__(self) -> str:
        return f"OutputAlgebra({self.kind!r})"


BOOL_OUTPUTS = OutputAlgebra("bool")
RATIONAL_OUTPUTS = OutputAlgebra("rational")


def output_algebra(kind: str) -> OutputAlgebra:
    """The shared algebra of one output kind."""
    try:
        return {"bool": BOOL_OUTPUTS, "rational": RATIONAL_OUTPUTS}[kind]
    except KeyError:
        raise ValueError(f"unknown output kind {kind!r}") from None


@dataclass(frozen=True)
class Step:
    """One observation: an output plus a successor per input letter.
    ``moves`` maps the letters, in sorted order, to their successors and
    is never mutated; ``of`` sorts a mapping built elsewhere."""

    output: Any
    moves: dict[str, Any]

    @staticmethod
    def of(output, moves: Mapping[str, Any]) -> "Step":
        return Step(output, dict(sorted(moves.items())))

    def next(self, letter: str):
        if letter in self.moves:
            return self.moves[letter]
        raise AlphabetMismatch(f"step has no successor for letter {letter!r}")
