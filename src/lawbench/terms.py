"""Free terms over a first-order signature.

A ``Signature`` declares operation symbols with fixed arities plus any
number of indexed constant families.  A term is an immutable tree built
from three node kinds:

  ``Var(name)``            a leaf token,
  ``App(symbol, args)``    an operation applied to subterms,
  ``Const(family, index)`` a member of an indexed constant family.

Indices are exact rationals, or polynomials over index parameters when an
equation scheme or a rule quantifies over the index (``[a+b]`` is the
constant indexed by the sum of the parameters ``a`` and ``b``).  A
polynomial index that happens to be constant collapses to the rational it
denotes, so ``Const(f, 2)`` and ``Const(f, Poly.const(2))`` are equal.

Substitution treats terms as the free monad over the signature: ``Var`` is
the unit and ``substitute`` is the multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import (
    ArityMismatch,
    SignatureMismatch,
    UnboundVariable,
    UnknownSymbol,
)
from .polynomials import Poly


@dataclass(frozen=True)
class ConstantFamily:
    """An indexed family of constants with a finite sample set used when
    terms are enumerated."""

    name: str
    domain: str = "rational"
    samples: tuple[Fraction, ...] = (Fraction(0), Fraction(1))

    def __post_init__(self):
        object.__setattr__(
            self, "samples", tuple(Fraction(s) for s in self.samples)
        )


@dataclass(frozen=True)
class Signature:
    ops: tuple[tuple[str, int], ...]
    families: tuple[ConstantFamily, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple((s, int(k)) for s, k in self.ops))
        names = [s for s, _ in self.ops] + [f.name for f in self.families]
        if len(set(names)) != len(names):
            raise UnknownSymbol(f"duplicate symbol declarations in {names}")

    def arity(self, symbol: str) -> int:
        for name, k in self.ops:
            if name == symbol:
                return k
        raise UnknownSymbol(f"symbol {symbol!r} is not declared")

    def has_op(self, symbol: str, arity: int | None = None) -> bool:
        return any(
            name == symbol and (arity is None or k == arity)
            for name, k in self.ops
        )

    def family(self, name: str) -> ConstantFamily:
        for fam in self.families:
            if fam.name == name:
                return fam
        raise UnknownSymbol(f"constant family {name!r} is not declared")

    def validate(self, term: "Term") -> None:
        if isinstance(term, Var):
            return
        if isinstance(term, Const):
            self.family(term.family)
            return
        arity = self.arity(term.symbol)
        if arity != len(term.args):
            raise ArityMismatch(
                f"{term.symbol!r} declared with arity {arity}, applied to "
                f"{len(term.args)} arguments"
            )
        for arg in term.args:
            self.validate(arg)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple["Term", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Const:
    family: str
    index: Union[Fraction, Poly] = field(default=Fraction(0))

    def __post_init__(self):
        index = self.index
        if isinstance(index, Poly) and index.is_constant:
            index = index.constant_value()
        elif isinstance(index, int):
            index = Fraction(index)
        object.__setattr__(self, "index", index)


Term = Union[Var, App, Const]


def substitute(term: Term, mapping: Mapping[str, Term],
               signature: Signature | None = None) -> Term:
    """Replace every leaf token by its image; the monad multiplication.

    Every variable of ``term`` must be in the mapping.  When a signature is
    supplied the result is validated against it and a failure is reported
    as ``SignatureMismatch``.
    """

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            try:
                return mapping[t.name]
            except KeyError:
                raise UnboundVariable(f"no binding for variable {t.name!r}") from None
        if isinstance(t, App):
            return App(t.symbol, tuple(go(a) for a in t.args))
        return t

    result = go(term)
    if signature is not None:
        try:
            signature.validate(result)
        except (UnknownSymbol, ArityMismatch) as exc:
            raise SignatureMismatch(str(exc)) from exc
    return result


def variables(term: Term) -> tuple[str, ...]:
    """Leaf tokens in first-occurrence order, without duplicates."""
    seen: dict[str, None] = {}

    def go(t: Term) -> None:
        if isinstance(t, Var):
            seen.setdefault(t.name)
        elif isinstance(t, App):
            for a in t.args:
                go(a)

    go(term)
    return tuple(seen)


def term_size(term: Term) -> int:
    if isinstance(term, App):
        return 1 + sum(term_size(a) for a in term.args)
    return 1


def index_atoms(term: Term) -> frozenset[str]:
    """Atoms occurring in polynomial indices anywhere in the term."""
    if isinstance(term, Const):
        return term.index.atoms() if isinstance(term.index, Poly) else frozenset()
    if isinstance(term, App):
        out: frozenset[str] = frozenset()
        for a in term.args:
            out |= index_atoms(a)
        return out
    return frozenset()


def positions(term: Term) -> Iterator[tuple[int, ...]]:
    yield ()
    if isinstance(term, App):
        for i, arg in enumerate(term.args):
            for pos in positions(arg):
                yield (i,) + pos


def subterm_at(term: Term, pos: tuple[int, ...]) -> Term:
    for i in pos:
        term = term.args[i]
    return term


def replace_at(term: Term, pos: tuple[int, ...], new: Term) -> Term:
    if not pos:
        return new
    args = list(term.args)
    args[pos[0]] = replace_at(args[pos[0]], pos[1:], new)
    return App(term.symbol, tuple(args))


def _node_key(term: Term):
    if isinstance(term, Var):
        return (0, term.name)
    if isinstance(term, Const):
        return (1, term.family, str(term.index))
    return (2, term.symbol, tuple(_node_key(a) for a in term.args))


def term_sort_key(term: Term):
    """A total order on terms: size first, then structure."""
    return (term_size(term), _node_key(term))


def enumerate_terms(signature: Signature, variables: frozenset[str] | set[str] | tuple,
                    max_size: int) -> Iterator[Term]:
    """All terms of size at most ``max_size``, smallest first.

    Size is the node count.  Within one size, variables come first in
    sorted order, then constants in declaration order, then applications
    by symbol declaration order with argument tuples in enumeration order.
    The stream is duplicate-free and complete.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    leaves: list[Term] = [Var(v) for v in sorted(variables)]
    leaves += [App(sym) for sym, k in signature.ops if k == 0]
    leaves += [Const(f.name, s) for f in signature.families for s in f.samples]
    by_size: dict[int, list[Term]] = {1: leaves}

    def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            if total >= 1:
                yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for size in range(2, max_size + 1):
        bucket: list[Term] = []
        for sym, k in signature.ops:
            if k == 0:
                continue
            for split in compositions(size - 1, k):
                choices = [by_size.get(s, []) for s in split]
                stack: list[tuple[Term, ...]] = [()]
                for pool in choices:
                    stack = [args + (t,) for args in stack for t in pool]
                bucket.extend(App(sym, args) for args in stack)
        by_size[size] = bucket

    for size in range(1, max_size + 1):
        yield from by_size[size]


_INFIX = {"+": 1, "*": 2}
_ATOM_PREC = 3


def _format_index(index) -> str:
    return str(index)


def format_term(term: Term) -> str:
    """Render a term with infix ``+`` and ``*``; canonical right nesting
    prints without parentheses."""

    def go(t: Term, context: int) -> str:
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Const):
            return f"[{_format_index(t.index)}]"
        if t.symbol in _INFIX and len(t.args) == 2:
            prec = _INFIX[t.symbol]
            text = f"{go(t.args[0], prec + 1)} {t.symbol} {go(t.args[1], prec)}"
            return f"({text})" if prec < context else text
        if not t.args:
            return t.symbol
        return f"{t.symbol}({', '.join(go(a, 0) for a in t.args)})"

    return go(term, 0)
