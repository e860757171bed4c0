"""Moore-style behaviour: output algebras and one-step observations.

A behaviour step pairs an output value with a successor for every input
letter.  Successors are whatever the surrounding construction needs
(state tokens, terms, normal forms); the step type is generic in them.

Outputs live in one of two algebras:

  * ``bool``      the Boolean semiring; values are truth functions over
                  named atoms, canonicalised as minimal truth tables, so
                  two symbolic outputs are equal iff they agree under
                  every assignment;
  * ``rational``  exact rationals; values are polynomials over named
                  atoms, so symbolic equality is polynomial identity,
                  which over the rationals coincides with agreement at
                  every point.

Concrete values are the constant members of each algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping

from .errors import AlphabetMismatch, UnknownSymbol
from .polynomials import Poly


@dataclass(frozen=True)
class BoolFunc:
    """A Boolean function canonicalised over its relevant atoms."""

    atoms: tuple[str, ...]
    table: tuple[int, ...]

    @staticmethod
    def const(value) -> "BoolFunc":
        value = int(value)
        if value not in (0, 1):
            raise ValueError(f"Boolean outputs must be 0 or 1, got {value!r}")
        return BoolFunc((), (value,))

    @staticmethod
    def atom(name: str) -> "BoolFunc":
        return BoolFunc((name,), (0, 1))

    @staticmethod
    def _minimize(atoms: tuple[str, ...], table: tuple[int, ...]) -> "BoolFunc":
        atoms = tuple(atoms)
        table = tuple(table)
        changed = True
        while changed:
            changed = False
            for j in range(len(atoms)):
                bit = 1 << j
                if all(table[i] == table[i ^ bit] for i in range(len(table))):
                    table = tuple(table[i] for i in range(len(table)) if not i & bit)
                    atoms = atoms[:j] + atoms[j + 1:]
                    changed = True
                    break
        return BoolFunc(atoms, table)

    def evaluate(self, env: Mapping[str, int]) -> int:
        idx = 0
        for j, a in enumerate(self.atoms):
            if int(env[a]):
                idx |= 1 << j
        return self.table[idx]

    @staticmethod
    def combine(op: Callable[[int, int], int], f: "BoolFunc", g: "BoolFunc") -> "BoolFunc":
        atoms = tuple(sorted(set(f.atoms) | set(g.atoms)))
        table = []
        for i in range(1 << len(atoms)):
            env = {a: (i >> j) & 1 for j, a in enumerate(atoms)}
            table.append(op(f.evaluate(env), g.evaluate(env)))
        return BoolFunc._minimize(atoms, tuple(table))

    @property
    def is_constant(self) -> bool:
        return not self.atoms

    def __str__(self) -> str:
        if self.is_constant:
            return str(self.table[0])
        bits = "".join(str(b) for b in self.table)
        return f"bool({','.join(self.atoms)};{bits})"


class OutputAlgebra:
    """Operations, constants and symbolic atoms for one output kind."""

    def __init__(self, kind: str):
        if kind not in ("bool", "rational"):
            raise ValueError(f"unknown output kind {kind!r}")
        self.kind = kind
        if kind == "bool":
            self.ops = {"min": 2, "max": 2}
            self.samples: tuple = (0, 1)
        else:
            self.ops = {"+": 2, "*": 2}
            self.samples = (Fraction(0), Fraction(1), Fraction(2), Fraction(-1),
                            Fraction(1, 2))

    def coerce(self, value) -> Any:
        if self.kind == "bool":
            if isinstance(value, BoolFunc):
                return value
            return BoolFunc.const(value)
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    def atom(self, name: str) -> Any:
        return BoolFunc.atom(name) if self.kind == "bool" else Poly.atom(name)

    def apply(self, op: str, args: list) -> Any:
        args = [self.coerce(a) for a in args]
        if op not in self.ops:
            raise UnknownSymbol(f"{op!r} is not an operation of the {self.kind} outputs")
        if not args:
            raise ValueError(f"{op} needs at least one argument")
        acc = args[0]
        for nxt in args[1:]:
            if self.kind == "bool":
                fn = min if op == "min" else max
                acc = BoolFunc.combine(fn, acc, nxt)
            else:
                acc = acc + nxt if op == "+" else acc * nxt
        return acc

    def equal(self, left, right) -> bool:
        return self.coerce(left) == self.coerce(right)

    def is_concrete(self, value) -> bool:
        value = self.coerce(value)
        return value.is_constant

    def concrete(self, value):
        value = self.coerce(value)
        if self.kind == "bool":
            if not value.is_constant:
                raise ValueError(f"{value} is not a concrete Boolean")
            return value.table[0]
        return value.constant_value()

    def evaluate(self, value, env):
        value = self.coerce(value)
        return value.evaluate(env)

    def format(self, value) -> str:
        return str(self.coerce(value))

    def __eq__(self, other) -> bool:
        return isinstance(other, OutputAlgebra) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash(("OutputAlgebra", self.kind))

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
    """One observation: an output plus a successor per input letter."""

    output: Any
    moves: tuple[tuple[str, Any], ...]

    @staticmethod
    def of(output, next_map: Mapping[str, Any]) -> "Step":
        return Step(output, tuple(sorted(next_map.items())))

    @property
    def letters(self) -> tuple[str, ...]:
        return tuple(letter for letter, _ in self.moves)

    @property
    def next_map(self) -> dict[str, Any]:
        return dict(self.moves)

    def next(self, letter: str):
        for name, succ in self.moves:
            if name == letter:
                return succ
        raise AlphabetMismatch(f"step has no successor for letter {letter!r}")


def words_upto(alphabet: tuple[str, ...], maxlen: int) -> Iterator[tuple[str, ...]]:
    """All words of length at most ``maxlen``, shortest first, then in
    alphabet order."""
    frontier: list[tuple[str, ...]] = [()]
    yield ()
    for _ in range(maxlen):
        frontier = [w + (a,) for w in frontier for a in alphabet]
        yield from frontier
