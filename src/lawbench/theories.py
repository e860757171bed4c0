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
finite model), and Unknown otherwise.  A term's one-step rewrites are its
value in an algebra, so a search steps each distinct subterm once; they
come in a fixed order, so a class cut off at ``max_visited``, and its
normal form, are deterministic.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
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
    evaluate,
    format_term,
    index_atoms,
    rebuild,
    substitute,
    term_size,
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


def _shortlex(word: tuple[str, ...]):
    return (len(word), word)


@dataclass(frozen=True)
class PolyForm:
    poly: Poly

    def summands(self):
        """(scalar, atoms) per monomial, in the polynomial's order; the
        scalar is None where it is a 1 that multiplies some atom."""
        for mono, coeff in self.poly.terms:
            atoms = tuple(a for a, p in mono for _ in range(p))
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
        return format_term(self.term)


NormalForm = Union[PolyForm, LangForm, TermForm]


@dataclass(frozen=True)
class FiniteModel:
    """A finite interpretation of the signature, used as a sound separator."""

    carrier: tuple
    ops: Mapping[str, Callable]
    families: Mapping[str, Callable] = field(default_factory=dict)

    def evaluate(self, term: Term, assignment: Mapping[str, object]):
        def meaning(table: Mapping[str, Callable], kind: str, name: str):
            try:
                return table[name]
            except KeyError:
                raise UnknownSymbol(
                    f"model does not interpret {kind} {name!r}") from None

        return evaluate(
            term, assignment.__getitem__,
            lambda t: meaning(self.families, "family", t.family)(t.index),
            lambda t, args: meaning(self.ops, "symbol", t.symbol)(*args))


@dataclass(frozen=True)
class Semiring:
    """A target for ``fold``: the units, the two operations, the image of
    an atom (a variable or a nullary generator) and the image of a
    constant's index.  A semiring without ``const`` has no scalar family;
    its units are named by the nullary symbols 0 and 1 instead.  ``sum``,
    given by the builtin semirings, adds up a whole list at once."""

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    atom: Callable[[str], Any]
    const: Callable[[Any], Any] | None = None
    sum: Callable[[list], Any] | None = None


def _poly_const(index) -> Poly:
    return index if isinstance(index, Poly) else Poly.const(index)


def _concat(left: frozenset, right: frozenset) -> frozenset:
    return frozenset(u + v for u in left for v in right)


POLYNOMIALS = Semiring("commutative-semiring", Poly(), Poly.const(1),
                       operator.add, operator.mul, Poly.atom, _poly_const,
                       Poly.sum)
LANGUAGES = Semiring("idempotent-semiring", frozenset(), frozenset({()}),
                     operator.or_, _concat,
                     lambda name: frozenset({(name,)}),
                     sum=lambda values: frozenset().union(*values))


def semiring_algebra(semiring: Semiring, generators: tuple[str, ...],
                     family: str | None):
    """``evaluate``'s three callables into a semiring: ``+`` and ``*`` are
    its operations, variables and the nullary ``generators`` are atoms,
    constants of ``family`` are scalars, and, without scalars, the nullary
    0 and 1 are the units.  Anything else is ``NotInTheorySignature``."""
    atom, scalar, name = semiring.atom, semiring.const, semiring.name
    ops = {"+": semiring.add, "*": semiring.mul}
    units = {} if scalar else {"0": semiring.zero, "1": semiring.one}

    def const(t: Const):
        if scalar is None:
            raise NotInTheorySignature(
                f"{name} terms cannot contain indexed constants")
        if t.family != family:
            raise NotInTheorySignature(
                f"family {t.family!r} not part of this theory")
        return scalar(t.index)

    def app(t: App, args: list):
        symbol = t.symbol
        if len(args) == 2 and symbol in ops:
            return ops[symbol](*args)
        if not args and symbol in generators:
            return atom(symbol)
        if not args and symbol in units:
            return units[symbol]
        raise NotInTheorySignature(f"symbol {symbol!r} has no {name} meaning")

    return atom, const, app


def fold(term: Term, semiring: Semiring, generators: tuple[str, ...],
         family: str | None, memo: dict[Term, Any] | None = None):
    """Interpret a term in a semiring (``semiring_algebra``), each distinct
    subterm once.  A caller that folds many terms with the same arguments
    may pass one ``memo``; by default each call has its own."""
    return evaluate(term, *semiring_algebra(semiring, generators, family),
                    {} if memo is None else memo)


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


def _right_nested(op: str, parts: list[Term],
                  empty: Term | None = None) -> Term:
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
        self.semiring, self.form = _NORMAL_FORMS[kind]
        self.signature = signature
        self.schemes = tuple(schemes)
        self.model = model
        self.max_depth = max_depth
        self.max_visited = max_visited
        self._explore_cache: dict[Term, tuple[frozenset, bool]] = {}
        self.family: str | None = None
        self.generators: tuple[str, ...] = ()
        self.algebra = None  # semiring_algebra, for the builtin kinds
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
        self.algebra = semiring_algebra(self.semiring, self.generators,
                                        self.family)

    # -- normal forms ------------------------------------------------------

    def normalize(self, term: Term,
                  memo: dict[Term, Any] | None = None) -> NormalForm:
        """The canonical normal form of ``term``.  ``memo`` is a ``fold``
        memo the caller keeps across calls; the bounded search has its
        own cache and ignores it."""
        if self.semiring is None:
            cls, _ = self._explore(term)
            least = min(map(term_size, cls))
            return TermForm(min((t for t in cls if term_size(t) == least),
                                key=term_sort_key))
        return self.form(evaluate(term, *self.algebra,
                                  {} if memo is None else memo))

    def representative(self, nf: NormalForm) -> Term:
        """A term that normalises back to ``nf``; the canonical section:
        each summand is its scalar, if any, times its atoms."""
        if isinstance(nf, TermForm):
            return nf.term
        products = []
        for scalar, atoms in nf.summands():
            factors = [self.leaf(a) for a in atoms]
            if scalar is not None:
                factors.insert(0, Const(self.family, scalar))
            products.append(_right_nested("*", factors, App("1")))
        zero = App("0") if self.family is None else Const(self.family, 0)
        return _right_nested("+", products, zero)

    def leaf(self, atom: str) -> Term:
        """The representative's leaf for an atom: a nullary generator, or
        else a variable."""
        if self.signature.has_op(atom, 0):
            return App(atom)
        return Var(atom)

    # -- the congruence ------------------------------------------------------

    def equiv(self, left: Term, right: Term,
              memo: dict[Term, Any] | None = None) -> Equiv:
        """Whether the theory identifies the two terms.  ``memo`` is a
        ``normalize`` memo that serves both sides, kept by a caller that
        compares many terms: a builtin kind's fold depends on the term
        alone, so a subterm met on either side, or again in a later call,
        is folded once.  The bounded search ignores it."""
        if self.semiring is not None:
            if memo is None:
                memo = {}
            return Equiv.EQUAL if self.normalize(left, memo) \
                == self.normalize(right, memo) else Equiv.DISTINCT
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

    @cached_property
    def _rewrites(self):
        """Each scheme read both ways, as (pattern, target, closed) in
        scheme order, lhs-to-rhs first; ``closed`` says the pattern binds
        every metavariable of the target.  Grouped by the root a subterm
        needs for the pattern to match: an application's symbol, or the
        class ``Const``; a bare metavariable matches every root, so it is
        in every group, and ``wildcards`` is the group of any other root.
        Built on the first search: the builtin kinds fold, and never
        need it."""
        both = []
        for scheme in self.schemes:
            for pattern, target in ((scheme.lhs, scheme.rhs),
                                    (scheme.rhs, scheme.lhs)):
                closed = set(variables(target)) <= set(variables(pattern))
                root = (pattern.symbol if isinstance(pattern, App)
                        else None if isinstance(pattern, Var) else Const)
                both.append((root, (pattern, target, closed)))
        by_root = {key: tuple(d for root, d in both if root in (None, key))
                   for key, _ in both if key is not None}
        wildcards = tuple(d for root, d in both if root is None)
        return by_root, wildcards

    def _one_step(self, term: Term, memo: dict[Term, Any]
                  ) -> tuple[dict[Term, None], bool]:
        """Rewrites reachable in one step, without duplicates, plus whether
        they are all of them.  A direction whose target mentions
        metavariables the pattern does not bind (such as expanding [0] to
        [0]*v) has infinitely many instances; it is skipped and the step
        set flagged incomplete.

        A node's value in the algebra is its rewrites at the root (schemes
        in order, lhs-to-rhs first), then each argument's in turn, rebuilt
        under the node: positions in pre-order.  ``_explore`` cuts classes
        off in this order, so it is part of the contract.  ``memo`` keeps
        the values of subterms already stepped, for the terms of one
        search; only the top term is dropped from its own steps."""
        by_root, wildcards = self._rewrites

        def at_root(sub: Term, directions) -> tuple[dict[Term, None], bool]:
            out: dict[Term, None] = {}
            complete = True
            for pattern, target, closed in directions:
                binding = _match(pattern, sub, {})
                if binding is None:
                    continue
                if not closed:
                    complete = False
                    continue
                out[evaluate(target, binding.__getitem__, rebuild,
                             rebuild)] = None
            return out, complete

        def app(t: App, args: list) -> tuple[dict[Term, None], bool]:
            out, complete = at_root(t, by_root.get(t.symbol, wildcards))
            symbol, children = t.symbol, t.args
            for i, (steps, done) in enumerate(args):
                complete = complete and done
                if steps:
                    before, after = children[:i], children[i + 1:]
                    for s in steps:
                        out[App(symbol, (*before, s, *after))] = None
            return out, complete

        steps, complete = evaluate(
            term, lambda name: at_root(Var(name), wildcards),
            lambda t: at_root(t, by_root.get(Const, wildcards)), app, memo)
        steps = dict(steps)
        steps.pop(term, None)
        return steps, complete

    def _explore(self, term: Term) -> tuple[frozenset, bool]:
        """The equivalence class reachable within the search bounds and
        whether it was exhausted (making negative answers sound).  The
        frontier is walked, and each term's steps taken, in generation
        order, so a class cut off at ``max_visited`` depends on the term
        alone, not on hash values.  One ``_one_step`` memo serves the whole
        search and is dropped with it."""
        if term in self._explore_cache:
            return self._explore_cache[term]
        seen = {term}
        frontier = [term]
        exhausted = True
        memo: dict[Term, Any] = {}
        for _ in range(self.max_depth):
            if not frontier:
                break
            new = []
            for t in frontier:
                steps, complete = self._one_step(t, memo)
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


def _match(pattern: Term, term: Term,
           binding: dict[str, Term]) -> dict[str, Term] | None:
    """Extend ``binding`` so that the pattern instantiates to ``term``;
    every variable of a scheme is a metavariable.  The (pattern, term)
    pairs still to match are on an explicit stack, left argument on top."""
    stack = [(pattern, term)]
    while stack:
        pattern, term = stack.pop()
        kind = pattern.__class__
        if kind is Var:
            bound = binding.get(pattern.name)
            if bound is None:
                binding[pattern.name] = term
            elif bound != term:
                return None
        elif kind is Const:
            if pattern != term:
                return None
        elif term.__class__ is not App or term.symbol != pattern.symbol \
                or len(term.args) != len(pattern.args):
            return None
        else:
            stack.extend(zip(pattern.args[::-1], term.args[::-1]))
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
