"""Multivariate polynomials with exact rational coefficients.

A polynomial is stored as a sorted tuple of (monomial, coefficient) pairs
with all zero coefficients dropped, so structural equality coincides with
polynomial identity.  A monomial is a sorted tuple of (atom, power) pairs
over string atoms, with every power positive; every coefficient is a
``Fraction``.  Monomials are ordered graded-lexicographically: first by
total degree, then by the expanded atom sequence (``x^2`` is ``x, x``).
The sort key ``(degree, ((atom, -power), ...))`` gives that order without
expanding powers: at equal degree the first differing pair decides, and a
smaller atom, or else a higher power of the same atom, comes first.

The public constructor canonicalises whatever it is given: it coerces
coefficients, merges repeated atoms and sorts each monomial, and merges
repeated monomials.  Arithmetic builds its results through
``Poly._canonical`` instead, which takes a dict from canonical monomials
to ``Fraction`` coefficients, drops the zero coefficients and sorts the
terms, and does nothing else; so ``Poly.sum`` (and ``+``, its two-operand
case) merges term dicts, and ``*`` accumulates products of terms in one
dict.  The scalar product, ``*`` with a nonzero constant on either side,
is the exception: it multiplies each coefficient by the constant and
keeps the terms as they are, already sorted and nonzero, and a product
by 1 is the other operand itself.  A polynomial's hash is computed once,
when first asked for.

These polynomials do double duty: they are the canonical forms of the
commutative-semiring theory, the symbolic values of rational outputs, and
the index expressions of indexed constants (an index such as a sum or
product of index parameters is just a polynomial over those parameters).
"""

from __future__ import annotations

from fractions import Fraction

Monomial = tuple[tuple[str, int], ...]

_UNIT: Monomial = ()
_ONE = Fraction(1)


def _mono_key(mono: Monomial):
    degree = 0
    pairs = []
    for atom, power in mono:
        degree += power
        pairs.append((atom, -power))
    return (degree, tuple(pairs))


def _term_key(term: tuple[Monomial, Fraction]):
    return _mono_key(term[0])


def _sorted_terms(acc: dict[Monomial, Fraction]):
    return tuple(sorted(((mono, coeff) for mono, coeff in acc.items() if coeff),
                        key=_term_key))


def _mono_mul(left: Monomial, right: Monomial) -> Monomial:
    if not left:
        return right
    if not right:
        return left
    powers = dict(left)
    for atom, power in right:
        powers[atom] = powers.get(atom, 0) + power
    return tuple(sorted(powers.items()))


def _coerce(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot treat {value!r} as a polynomial")


class Poly:
    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=()):
        acc: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mono, coeff in items:
            powers: dict[str, int] = {}
            for atom, power in mono:
                powers[atom] = powers.get(atom, 0) + power
            mono = tuple(sorted((a, p) for a, p in powers.items() if p))
            acc[mono] = acc.get(mono, 0) + Fraction(coeff)
        self._terms = _sorted_terms(acc)
        self._hash = None

    @classmethod
    def _canonical(cls, acc: dict[Monomial, Fraction]) -> "Poly":
        """The polynomial of canonical monomials with ``Fraction``
        coefficients: zeros are dropped and the terms sorted, nothing else."""
        poly = object.__new__(cls)
        poly._terms = _sorted_terms(acc)
        poly._hash = None
        return poly

    @staticmethod
    def const(value) -> "Poly":
        return Poly._canonical({_UNIT: Fraction(value)})

    @staticmethod
    def atom(name: str) -> "Poly":
        return Poly._canonical({((name, 1),): _ONE})

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        return self._terms

    def atoms(self) -> frozenset[str]:
        return frozenset(a for mono, _ in self._terms for a, _ in mono)

    @property
    def is_constant(self) -> bool:
        return all(mono == _UNIT for mono, _ in self._terms)

    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if self.is_constant:
            return self._terms[0][1]
        raise ValueError(f"{self} is not a constant polynomial")

    @staticmethod
    def sum(polys) -> "Poly":
        """The sum of any number of polynomials: their terms merged in one
        dict, canonicalised once."""
        polys = [poly for poly in polys if poly._terms]
        if len(polys) < 2:
            return polys[0] if polys else Poly._canonical({})
        acc = dict(polys[0]._terms)
        for poly in polys[1:]:
            for mono, coeff in poly._terms:
                acc[mono] = acc[mono] + coeff if mono in acc else coeff
        return Poly._canonical(acc)

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        return Poly.sum((self, other)) if other._terms else self

    __radd__ = __add__

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other._is_scalar():
            return self._scaled(other)
        if self._is_scalar():
            return other._scaled(self)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms:
            for m2, c2 in other._terms:
                mono = _mono_mul(m1, m2)
                coeff = c1 * c2
                acc[mono] = acc[mono] + coeff if mono in acc else coeff
        return Poly._canonical(acc)

    __rmul__ = __mul__

    def _is_scalar(self) -> bool:
        terms = self._terms
        return len(terms) == 1 and not terms[0][0]

    def _scaled(self, scalar: "Poly") -> "Poly":
        """The scalar product by a constant polynomial with one term:
        every coefficient times the scalar's, in the same order, since
        the monomials do not change and a product of nonzero rationals is
        nonzero."""
        factor = scalar._terms[0][1]
        if factor == 1:
            return self
        poly = object.__new__(Poly)
        poly._terms = tuple([(mono, coeff * factor)
                             for mono, coeff in self._terms])
        poly._hash = None
        return poly

    def substitute(self, mapping) -> "Poly":
        """Replace atoms by polynomials; atoms absent from the mapping stay.

        Each term is built in one pass: atoms that stay go into its
        monomial, atoms mapped to constants into its coefficient, and
        only atoms mapped to other polynomials are multiplied out."""
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms:
            kept = []
            spread = []
            for atom, power in mono:
                if atom not in mapping:
                    kept.append((atom, power))
                    continue
                base = _coerce(mapping[atom])
                if base.is_constant:
                    coeff = coeff * base.constant_value() ** power
                else:
                    spread += [base._terms] * power
            part = {tuple(kept): coeff}
            for terms in spread:
                grown: dict[Monomial, Fraction] = {}
                for m1, c1 in part.items():
                    for m2, c2 in terms:
                        m = _mono_mul(m1, m2)
                        c = c1 * c2
                        grown[m] = grown[m] + c if m in grown else c
                part = grown
            for m, c in part.items():
                acc[m] = acc[m] + c if m in acc else c
        return Poly._canonical(acc)

    def evaluate(self, env) -> Fraction:
        total = Fraction(0)
        for mono, coeff in self._terms:
            value = coeff
            for atom, power in mono:
                value *= Fraction(env[atom]) ** power
            total += value
        return total

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self._terms == other._terms

    def __hash__(self) -> int:
        # Hashed on first use: most results of arithmetic are never hashed.
        if self._hash is None:
            self._hash = hash(self._terms)
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self._terms:
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
        return Poly, (self._terms,)
