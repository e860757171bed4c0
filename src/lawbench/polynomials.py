"""Multivariate polynomials with exact rational coefficients.

A polynomial is stored as a dict from monomial to coefficient, with no
zero coefficients, so dict equality coincides with polynomial identity.
A monomial is a sorted tuple of (atom, power) pairs over string atoms,
with every power positive.  A coefficient is an ``int`` exactly when it
is integral and a ``Fraction`` otherwise: both are exact, an ``int`` is
much cheaper to add and multiply, and the two compare and hash alike.
At the API the value of a constant is a ``Fraction`` (``constant_value``
and ``evaluate``).

``terms``, the terms as a tuple of (monomial, coefficient) pairs in
graded-lexicographic order, is sorted on first read and kept: arithmetic
never sorts, and most of its intermediate results are never read in
order.  Monomials are ordered first by total degree, then by the
expanded atom sequence (``x^2`` is ``x, x``).  The sort key
``(degree, ((atom, -power), ...))`` gives that order without expanding
powers: at equal degree the first differing pair decides, and a smaller
atom, or else a higher power of the same atom, comes first.  The hash is
order-free, the hash of the set of terms, and is computed once, when
first asked for.

The public constructor canonicalises whatever it is given: it coerces
coefficients, merges repeated atoms and sorts each monomial, and merges
repeated monomials.  Arithmetic builds its results through
``Poly._canonical`` instead, which takes a dict from canonical monomials
to coefficients, drops the zeros and turns integral ``Fraction``s into
``int``s, and does nothing else; so ``Poly.sum`` (and ``+``, its
two-operand case) merges term dicts, and ``*`` accumulates products of
terms in one dict.  The scalar product, ``*`` with a nonzero constant on
either side, multiplies each coefficient by the constant and keeps the
monomials; a product by 1 is the other operand itself.

These polynomials do double duty: they are the canonical forms of the
commutative-semiring theory, the symbolic values of rational outputs, and
the index expressions of indexed constants (an index such as a sum or
product of index parameters is just a polynomial over those parameters).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Monomial = tuple[tuple[str, int], ...]
Coefficient = Union[int, Fraction]

_UNIT: Monomial = ()


def _mono_key(mono: Monomial):
    degree = 0
    pairs = []
    for atom, power in mono:
        degree += power
        pairs.append((atom, -power))
    return (degree, tuple(pairs))


def _term_key(term: tuple[Monomial, Coefficient]):
    return _mono_key(term[0])


def _mono_mul(left: Monomial, right: Monomial) -> Monomial:
    if not left:
        return right
    if not right:
        return left
    powers = dict(left)
    for atom, power in right:
        powers[atom] = powers.get(atom, 0) + power
    return tuple(sorted(powers.items()))


def _nonzero(acc: dict[Monomial, Coefficient]) -> dict[Monomial, Coefficient]:
    """``acc`` without its zero coefficients, each integral ``Fraction``
    an ``int``."""
    out = {}
    for mono, coeff in acc.items():
        if coeff:
            if type(coeff) is not int and coeff.denominator == 1:
                coeff = coeff.numerator
            out[mono] = coeff
    return out


def _coerce(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot treat {value!r} as a polynomial")


class Poly:
    __slots__ = ("_coeffs", "_terms", "_hash")

    def __init__(self, terms=()):
        acc: dict[Monomial, Coefficient] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mono, coeff in items:
            powers: dict[str, int] = {}
            for atom, power in mono:
                powers[atom] = powers.get(atom, 0) + power
            mono = tuple(sorted((a, p) for a, p in powers.items() if p))
            acc[mono] = acc.get(mono, 0) + Fraction(coeff)
        self._coeffs = _nonzero(acc)
        self._terms = self._hash = None

    @classmethod
    def _canonical(cls, acc: dict[Monomial, Coefficient]) -> "Poly":
        """The polynomial of canonical monomials with exact coefficients:
        zeros are dropped and integral ``Fraction``s become ``int``s,
        nothing else."""
        poly = object.__new__(cls)
        poly._coeffs = _nonzero(acc)
        poly._terms = poly._hash = None
        return poly

    @staticmethod
    def const(value) -> "Poly":
        if type(value) is not int:
            value = Fraction(value)
        return Poly._canonical({_UNIT: value})

    @staticmethod
    def atom(name: str) -> "Poly":
        return Poly._canonical({((name, 1),): 1})

    @property
    def terms(self) -> tuple[tuple[Monomial, Coefficient], ...]:
        if self._terms is None:
            self._terms = tuple(sorted(self._coeffs.items(), key=_term_key))
        return self._terms

    def atoms(self) -> frozenset[str]:
        return frozenset(a for mono in self._coeffs for a, _ in mono)

    @property
    def is_constant(self) -> bool:
        coeffs = self._coeffs
        return not coeffs or (len(coeffs) == 1 and _UNIT in coeffs)

    def constant_value(self) -> Fraction:
        if self.is_constant:
            return Fraction(self._coeffs.get(_UNIT, 0))
        raise ValueError(f"{self} is not a constant polynomial")

    @staticmethod
    def sum(polys) -> "Poly":
        """The sum of any number of polynomials: their terms merged in one
        dict, canonicalised once."""
        polys = [poly for poly in polys if poly._coeffs]
        if len(polys) < 2:
            return polys[0] if polys else Poly._canonical({})
        acc = dict(polys[0]._coeffs)
        for poly in polys[1:]:
            for mono, coeff in poly._coeffs.items():
                acc[mono] = acc[mono] + coeff if mono in acc else coeff
        return Poly._canonical(acc)

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        return Poly.sum((self, other)) if other._coeffs else self

    __radd__ = __add__

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        left, right = self._coeffs, other._coeffs
        if len(right) == 1 and _UNIT in right:
            return self._scaled(right[_UNIT])
        if len(left) == 1 and _UNIT in left:
            return other._scaled(left[_UNIT])
        acc: dict[Monomial, Coefficient] = {}
        right = right.items()
        for m1, c1 in left.items():
            for m2, c2 in right:
                mono = _mono_mul(m1, m2)
                coeff = c1 * c2
                acc[mono] = acc[mono] + coeff if mono in acc else coeff
        return Poly._canonical(acc)

    __rmul__ = __mul__

    def _scaled(self, factor: Coefficient) -> "Poly":
        """The scalar product by a nonzero constant: every coefficient
        times it, over the same monomials, since a product of nonzero
        rationals is nonzero."""
        if factor == 1:
            return self
        return Poly._canonical({mono: coeff * factor
                                for mono, coeff in self._coeffs.items()})

    def substitute(self, mapping) -> "Poly":
        """Replace atoms by polynomials; atoms absent from the mapping stay.

        Each term is built in one pass: atoms that stay go into its
        monomial, atoms mapped to constants into its coefficient, and
        only atoms mapped to other polynomials are multiplied out."""
        acc: dict[Monomial, Coefficient] = {}
        for mono, coeff in self._coeffs.items():
            kept = []
            spread = []
            for atom, power in mono:
                if atom not in mapping:
                    kept.append((atom, power))
                    continue
                base = _coerce(mapping[atom])
                if base.is_constant:
                    coeff = coeff * base._coeffs.get(_UNIT, 0) ** power
                else:
                    spread += [base._coeffs.items()] * power
            part = {tuple(kept): coeff}
            for items in spread:
                grown: dict[Monomial, Coefficient] = {}
                for m1, c1 in part.items():
                    for m2, c2 in items:
                        m = _mono_mul(m1, m2)
                        c = c1 * c2
                        grown[m] = grown[m] + c if m in grown else c
                part = grown
            for m, c in part.items():
                acc[m] = acc[m] + c if m in acc else c
        return Poly._canonical(acc)

    def evaluate(self, env) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self._coeffs.items():
            value = coeff
            for atom, power in mono:
                value *= Fraction(env[atom]) ** power
            total += value
        return total

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # Hashed on first use: most results of arithmetic are never hashed.
        if self._hash is None:
            self._hash = hash(frozenset(self._coeffs.items()))
        return self._hash

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            factors = [a for a, p in mono for _ in range(p)]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(coeff)] + factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __reduce__(self):
        # The stored hash depends on this process's string hashing.
        return Poly, (self.terms,)

