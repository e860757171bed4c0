"""Equational theories realised by canonical normal forms.

A theory quotients the free terms over its signature by the congruence its
equation schemes generate.  The quotient is never built as a set of
equivalence classes; instead each theory provides

  ``normalize``       term -> canonical normal form (the quotient map),
  ``representative``  normal form -> term (a section of ``normalize``),
  ``equiv``           decides or bounds the congruence on two terms.

Two theories are built in with complete normalizers.  The quotient of
each is a free semiring, so normalising is one ``fold`` of ``+ * 0 1``,
atoms and constants into that semiring, and a representative is one
right-nested sum of right-nested products:

  * commutative semiring over the rationals, with one indexed constant
    family and optional extra nullary generators: ``POLYNOMIALS``, with
    rational coefficients over the variables and generators
    (``[2] * (v + v)`` normalises to the polynomial ``4*v``);

  * idempotent semiring with constants 0 and 1: ``LANGUAGES``, finite
    sets of words over the variables and generators
    (``1 + x * (y + x)`` normalises to ``{eps, xy, xx}``).

Everything else goes through the generic kind: a bounded bidirectional
rewrite search over the schemes.  Its ``equiv`` answers Equal when the
searches meet, Distinct only on a sound separator (both equivalence
classes exhausted and disjoint, or differing values in a user-supplied
finite model), and Unknown otherwise.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Union

from .errors import (
    NotInTheorySignature,
    UnboundVariable,
    UnknownSymbol,
)
from .polynomials import Poly
from .terms import (
    App,
    Const,
    Signature,
    Term,
    Var,
    index_atoms,
    positions,
    replace_at,
    substitute,
    subterm_at,
    term_sort_key,
    variables,
)


class Equiv(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class EquationScheme:
    """One equation between terms over metavariables.

    ``index_metavars`` lists parameters ranging over the rationals that
    may appear inside constant indices, so a single scheme can state a
    family of equations such as ``[a+b] = [a] + [b]``.
    """

    name: str
    metavars: tuple[str, ...]
    lhs: Term
    rhs: Term
    index_metavars: tuple[str, ...] = ()

    def __post_init__(self):
        declared = set(self.metavars)
        used = set(variables(self.lhs)) | set(variables(self.rhs))
        if not used <= declared:
            raise UnboundVariable(
                f"scheme {self.name!r} uses undeclared metavariables "
                f"{sorted(used - declared)}"
            )
        idx = index_atoms(self.lhs) | index_atoms(self.rhs)
        if not idx <= set(self.index_metavars):
            raise UnboundVariable(
                f"scheme {self.name!r} uses undeclared index parameters "
                f"{sorted(idx - set(self.index_metavars))}"
            )


def instantiate_scheme(scheme: EquationScheme,
                       assignment: Mapping[str, Term]) -> tuple[Term, Term]:
    """Substitute terms for the metavariables on both sides."""
    return (substitute(scheme.lhs, assignment),
            substitute(scheme.rhs, assignment))


def _shortlex(word: tuple[str, ...]):
    return (len(word), word)


@dataclass(frozen=True)
class PolyForm:
    poly: Poly

    def summands(self):
        """(scalar, atoms) per monomial, in the polynomial's order; the
        scalar is None where it is a 1 that multiplies some atom."""
        for mono, coeff in self.poly.terms:
            atoms = [a for a, p in mono for _ in range(p)]
            yield (None if coeff == 1 and atoms else coeff), atoms

    def __str__(self) -> str:
        return str(self.poly)


@dataclass(frozen=True)
class LangForm:
    words: frozenset[tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "words", frozenset(tuple(w) for w in self.words))

    def summands(self):
        """(None, word) per word, shortest first."""
        for word in sorted(self.words, key=_shortlex):
            yield None, word

    def __str__(self) -> str:
        if not self.words:
            return "{}"
        body = ", ".join("".join(w) if w else "eps"
                         for w in sorted(self.words, key=_shortlex))
        return "{" + body + "}"


@dataclass(frozen=True)
class TermForm:
    term: Term

    def __str__(self) -> str:
        from .terms import format_term

        return format_term(self.term)


NormalForm = Union[PolyForm, LangForm, TermForm]


@dataclass(frozen=True)
class FiniteModel:
    """A finite interpretation of the signature, used as a sound separator."""

    carrier: tuple
    ops: Mapping[str, Callable]
    families: Mapping[str, Callable] = field(default_factory=dict)

    def evaluate(self, term: Term, assignment: Mapping[str, object]):
        if isinstance(term, Var):
            return assignment[term.name]
        if isinstance(term, Const):
            try:
                fn = self.families[term.family]
            except KeyError:
                raise UnknownSymbol(
                    f"model does not interpret family {term.family!r}"
                ) from None
            return fn(term.index)
        try:
            fn = self.ops[term.symbol]
        except KeyError:
            raise UnknownSymbol(
                f"model does not interpret symbol {term.symbol!r}"
            ) from None
        return fn(*(self.evaluate(a, assignment) for a in term.args))


@dataclass(frozen=True)
class Semiring:
    """A target for ``fold``: the units, the two operations, the image of
    an atom (a variable or a nullary generator) and the image of a
    constant's index.  A semiring without ``const`` has no scalar family;
    its units are named by the nullary symbols 0 and 1 instead."""

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    atom: Callable[[str], Any]
    const: Callable[[Any], Any] | None = None


def _poly_const(index) -> Poly:
    return index if isinstance(index, Poly) else Poly.const(index)


def _concat(left: frozenset, right: frozenset) -> frozenset:
    return frozenset(u + v for u in left for v in right)


POLYNOMIALS = Semiring("commutative-semiring", Poly(), Poly.const(1),
                       operator.add, operator.mul, Poly.atom, _poly_const)
LANGUAGES = Semiring("idempotent-semiring", frozenset(), frozenset({()}),
                     operator.or_, _concat,
                     lambda name: frozenset({(name,)}))


def fold(term: Term, semiring: Semiring, generators: tuple[str, ...],
         family: str | None):
    """Interpret a term in a semiring: ``+`` and ``*`` are its operations,
    variables and the nullary ``generators`` are atoms, and constants of
    ``family`` are scalars.  Operational unfoldings share subterms heavily
    and nest deeply, so the walk keeps an explicit stack and memoises on
    object identity: it is linear in the dag and never recurses."""
    memo: dict[int, Any] = {}
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        t, children_done = stack.pop()
        if id(t) in memo:
            continue
        if children_done:
            left, right = t.args
            op = semiring.add if t.symbol == "+" else semiring.mul
            memo[id(t)] = op(memo[id(left)], memo[id(right)])
        elif isinstance(t, Var):
            memo[id(t)] = semiring.atom(t.name)
        elif isinstance(t, Const):
            if semiring.const is None:
                raise NotInTheorySignature(
                    f"{semiring.name} terms cannot contain indexed constants"
                )
            if t.family != family:
                raise NotInTheorySignature(
                    f"family {t.family!r} not part of this theory"
                )
            memo[id(t)] = semiring.const(t.index)
        elif t.symbol in ("+", "*") and len(t.args) == 2:
            # Left child on top, so errors surface in left-to-right order.
            stack += ((t, True), (t.args[1], False), (t.args[0], False))
        elif not t.args and t.symbol in generators:
            memo[id(t)] = semiring.atom(t.symbol)
        elif not t.args and semiring.const is None and t.symbol in ("0", "1"):
            memo[id(t)] = semiring.zero if t.symbol == "0" else semiring.one
        else:
            raise NotInTheorySignature(
                f"symbol {t.symbol!r} has no {semiring.name} meaning"
            )
    return memo[id(term)]


COMMUTATIVE = "commutative-semiring"
IDEMPOTENT = "idempotent-semiring"
GENERIC = "generic"

# Per kind: the semiring normal forms live in (None for the bounded
# search) and the form that wraps them.
_NORMAL_FORMS = {
    COMMUTATIVE: (POLYNOMIALS, PolyForm),
    IDEMPOTENT: (LANGUAGES, LangForm),
    GENERIC: (None, TermForm),
}

_V, _U, _W = Var("v"), Var("u"), Var("w")


def _plus(x: Term, y: Term) -> Term:
    return App("+", (x, y))


def _times(x: Term, y: Term) -> Term:
    return App("*", (x, y))


def _right_nested(op: str, parts: list[Term], empty: Term) -> Term:
    if not parts:
        return empty
    acc = parts[-1]
    for part in reversed(parts[:-1]):
        acc = App(op, (part, acc))
    return acc


class Theory:
    """Handle bundling a signature, its schemes and the quotient maps."""

    def __init__(self, kind: str, signature: Signature,
                 schemes: tuple[EquationScheme, ...],
                 model: FiniteModel | None = None,
                 max_depth: int = 5, max_visited: int = 10_000):
        if kind not in _NORMAL_FORMS:
            raise ValueError(f"unknown theory kind {kind!r}")
        self.kind = kind
        self.semiring, self._form = _NORMAL_FORMS[kind]
        self.signature = signature
        self.schemes = tuple(schemes)
        self.model = model
        self.max_depth = max_depth
        self.max_visited = max_visited
        self._explore_cache: dict[Term, tuple[frozenset, bool]] = {}
        self.family: str | None = None
        self.generators: tuple[str, ...] = ()
        if self.semiring is not None:
            self._check_signature()

    def _check_signature(self) -> None:
        """Binary ``+`` and ``*``, the units (exactly one constant family
        when the semiring has scalars, the nullary 0 and 1 otherwise), and
        any number of nullary generators besides."""
        sig, name = self.signature, self.kind
        scalars = self.semiring.const is not None
        needed = {"+": 2, "*": 2}
        if not scalars:
            needed.update({"0": 0, "1": 0})
        for sym, k in needed.items():
            if not sig.has_op(sym, k):
                raise NotInTheorySignature(
                    f"{name} needs {sym!r} with arity {k}"
                )
        if scalars and len(sig.families) != 1:
            raise NotInTheorySignature(
                f"{name} needs exactly one constant family"
            )
        if not scalars and sig.families:
            raise NotInTheorySignature(
                f"{name} does not admit constant families"
            )
        gens = []
        for sym, k in sig.ops:
            if sym in needed:
                continue
            if k != 0:
                raise NotInTheorySignature(
                    f"{name} admits only nullary extras, got {sym!r}/{k}"
                )
            if sym in ("0", "1"):
                raise NotInTheorySignature(
                    f"constant {sym!r} would shadow the family; use "
                    f"[{sym}] instead"
                )
            gens.append(sym)
        self.family = sig.families[0].name if scalars else None
        self.generators = tuple(gens)

    # -- normal forms ------------------------------------------------------

    def normalize(self, term: Term) -> NormalForm:
        if self.semiring is None:
            cls, _ = self._explore(term)
            return TermForm(min(cls, key=term_sort_key))
        return self._form(fold(term, self.semiring, self.generators,
                               self.family))

    def representative(self, nf: NormalForm) -> Term:
        """A term that normalises back to ``nf``; the canonical section:
        each summand is its scalar, if any, times its atoms."""
        if isinstance(nf, TermForm):
            return nf.term
        products = []
        for scalar, atoms in nf.summands():
            factors = [self._atom_term(a) for a in atoms]
            if scalar is not None:
                factors.insert(0, Const(self.family, scalar))
            products.append(_right_nested("*", factors, App("1")))
        zero = App("0") if self.family is None else Const(self.family, 0)
        return _right_nested("+", products, zero)

    def _atom_term(self, atom: str) -> Term:
        if self.signature.has_op(atom, 0):
            return App(atom)
        return Var(atom)

    # -- the congruence ------------------------------------------------------

    def equiv(self, left: Term, right: Term) -> Equiv:
        if self.semiring is not None:
            return Equiv.EQUAL if self.normalize(left) == self.normalize(right) \
                else Equiv.DISTINCT
        if left == right:
            return Equiv.EQUAL
        left_cls, left_done = self._explore(left)
        right_cls, right_done = self._explore(right)
        if left_cls & right_cls:
            return Equiv.EQUAL
        if left_done and right_done:
            return Equiv.DISTINCT
        if self.model is not None and self._model_separates(left, right):
            return Equiv.DISTINCT
        return Equiv.UNKNOWN

    def _model_separates(self, left: Term, right: Term) -> bool:
        names = sorted(set(variables(left)) | set(variables(right)))
        for values in itertools.product(self.model.carrier, repeat=len(names)):
            env = dict(zip(names, values))
            if self.model.evaluate(left, env) != self.model.evaluate(right, env):
                return True
        return False

    def _one_step(self, term: Term) -> tuple[set[Term], bool]:
        """Rewrites reachable in one step, plus whether they are all of
        them.  A direction whose target mentions metavariables the pattern
        does not bind (such as expanding [0] to [0]*v) has infinitely many
        instances; it is skipped and the step set flagged incomplete."""
        out: set[Term] = set()
        complete = True
        for pos in positions(term):
            sub = subterm_at(term, pos)
            for scheme in self.schemes:
                for pat, other in ((scheme.lhs, scheme.rhs),
                                   (scheme.rhs, scheme.lhs)):
                    binding = _match(pat, sub, set(scheme.metavars))
                    if binding is None:
                        continue
                    if not set(variables(other)) <= set(binding):
                        complete = False
                        continue
                    out.add(replace_at(term, pos, substitute(other, binding)))
        out.discard(term)
        return out, complete

    def _explore(self, term: Term) -> tuple[frozenset, bool]:
        """The equivalence class reachable within the search bounds and
        whether it was exhausted (making negative answers sound)."""
        if term in self._explore_cache:
            return self._explore_cache[term]
        seen = {term}
        frontier = [term]
        exhausted = True
        for _ in range(self.max_depth):
            if not frontier:
                break
            new = []
            for t in frontier:
                steps, complete = self._one_step(t)
                if not complete:
                    exhausted = False
                for s in steps:
                    if s not in seen:
                        seen.add(s)
                        new.append(s)
                if len(seen) > self.max_visited:
                    exhausted = False
                    new = []
                    break
            frontier = new
        if frontier:
            exhausted = False
        result = (frozenset(seen), exhausted)
        self._explore_cache[term] = result
        return result

    def class_members(self, term: Term, limit: int = 2) -> list[Term]:
        """Smallest explored members of the class, for spot checks."""
        cls, _ = self._explore(term)
        return sorted(cls, key=term_sort_key)[:limit]

    # -- quotient monad structure ---------------------------------------------

    def unit(self, name: str) -> NormalForm:
        return self.normalize(Var(name))

    def quotient_mu(self, outer: Term,
                    leaves: Mapping[str, NormalForm]) -> NormalForm:
        """Multiplication of the quotient monad: replace every leaf of the
        outer term by a representative of its normal form, flatten, and
        normalise.  The result does not depend on the representatives."""
        reps = {token: self.representative(nf) for token, nf in leaves.items()}
        return self.normalize(substitute(outer, reps))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Theory)
                and self.kind == other.kind
                and self.signature == other.signature
                and self.schemes == other.schemes
                and self.model == other.model)

    def __repr__(self) -> str:
        return f"Theory({self.kind!r}, {len(self.schemes)} schemes)"


def _match(pattern: Term, term: Term, metavars: set[str],
           binding: dict[str, Term] | None = None) -> dict[str, Term] | None:
    if binding is None:
        binding = {}
    if isinstance(pattern, Var) and pattern.name in metavars:
        bound = binding.get(pattern.name)
        if bound is None:
            binding = dict(binding)
            binding[pattern.name] = term
            return binding
        return binding if bound == term else None
    if isinstance(pattern, Var):
        return binding if pattern == term else None
    if isinstance(pattern, Const):
        return binding if pattern == term else None
    if not isinstance(term, App) or term.symbol != pattern.symbol \
            or len(term.args) != len(pattern.args):
        return None
    for p, t in zip(pattern.args, term.args):
        binding = _match(p, t, metavars, binding)
        if binding is None:
            return None
    return binding


def commutative_semiring(signature: Signature) -> Theory:
    """The ten axioms of a commutative semiring whose scalars are one
    indexed constant family over the rationals."""
    family = signature.families[0].name if signature.families else None
    if family is None:
        raise NotInTheorySignature(
            "commutative-semiring needs a constant family for its scalars"
        )
    zero, one = Const(family, 0), Const(family, 1)
    pa, pb = Poly.atom("a"), Poly.atom("b")
    schemes = (
        EquationScheme("plus-assoc", ("v", "u", "w"),
                       _plus(_plus(_V, _U), _W), _plus(_V, _plus(_U, _W))),
        EquationScheme("plus-unit", ("v",), _plus(zero, _V), _V),
        EquationScheme("plus-comm", ("v", "u"), _plus(_V, _U), _plus(_U, _V)),
        EquationScheme("times-assoc", ("v", "u", "w"),
                       _times(_times(_V, _U), _W), _times(_V, _times(_U, _W))),
        EquationScheme("times-unit", ("v",), _times(one, _V), _V),
        EquationScheme("times-comm", ("v", "u"), _times(_V, _U), _times(_U, _V)),
        EquationScheme("distrib", ("v", "u", "w"),
                       _times(_V, _plus(_U, _W)),
                       _plus(_times(_V, _U), _times(_V, _W))),
        EquationScheme("times-zero", ("v",), _times(zero, _V), zero),
        EquationScheme("const-plus", (),
                       Const(family, pa + pb),
                       _plus(Const(family, pa), Const(family, pb)),
                       index_metavars=("a", "b")),
        EquationScheme("const-times", (),
                       Const(family, pa * pb),
                       _times(Const(family, pa), Const(family, pb)),
                       index_metavars=("a", "b")),
    )
    return Theory(COMMUTATIVE, signature, schemes)


def idempotent_semiring(signature: Signature) -> Theory:
    """The eleven axioms of an idempotent semiring with 0 and 1."""
    zero, one = App("0"), App("1")
    schemes = (
        EquationScheme("plus-assoc", ("v", "u", "w"),
                       _plus(_plus(_V, _U), _W), _plus(_V, _plus(_U, _W))),
        EquationScheme("plus-comm", ("v", "u"), _plus(_V, _U), _plus(_U, _V)),
        EquationScheme("plus-unit", ("v",), _plus(_V, zero), _V),
        EquationScheme("plus-idem", ("v",), _plus(_V, _V), _V),
        EquationScheme("times-assoc", ("v", "u", "w"),
                       _times(_times(_V, _U), _W), _times(_V, _times(_U, _W))),
        EquationScheme("times-unit-left", ("v",), _times(one, _V), _V),
        EquationScheme("times-unit-right", ("v",), _times(_V, one), _V),
        EquationScheme("annihilate-left", ("v",), _times(zero, _V), zero),
        EquationScheme("annihilate-right", ("v",), _times(_V, zero), zero),
        EquationScheme("distrib-left", ("v", "u", "w"),
                       _times(_V, _plus(_U, _W)),
                       _plus(_times(_V, _U), _times(_V, _W))),
        EquationScheme("distrib-right", ("v", "u", "w"),
                       _times(_plus(_V, _U), _W),
                       _plus(_times(_V, _W), _times(_U, _W))),
    )
    return Theory(IDEMPOTENT, signature, schemes)


def generic_theory(signature: Signature, schemes: tuple[EquationScheme, ...],
                   model: FiniteModel | None = None,
                   max_depth: int = 5, max_visited: int = 10_000) -> Theory:
    return Theory(GENERIC, signature, schemes, model=model,
                  max_depth=max_depth, max_visited=max_visited)


def free_theory(signature: Signature) -> Theory:
    """No equations: normal forms are the terms themselves."""
    return Theory(GENERIC, signature, ())
