"""Equational theories realised by canonical normal forms.

A theory quotients the free terms over its signature by the congruence its
equation schemes generate.  The quotient is never built as a set of
equivalence classes; instead each theory provides

  ``normalize``       term -> canonical normal form (the quotient map),
  ``representative``  normal form -> term (a section of ``normalize``),
  ``equiv``           decides or bounds the congruence on two terms.

Two theories are built in with complete normalizers.  The quotient of
each is a free semiring, so normalising is one fold of ``+ * 0 1``,
atoms and constants into that semiring, and a representative is one
right-nested sum of right-nested products:

  * commutative semiring over the rationals, with one indexed constant
    family and optional extra nullary generators: ``POLYNOMIALS``, with
    rational coefficients over the variables and generators
    (``[2] * (v + v)`` normalises to the polynomial ``4*v``);

  * idempotent semiring with constants 0 and 1: ``LANGUAGES``, finite
    sets of words over the variables and generators
    (``1 + x * (y + x)`` normalises to ``{eps, xy, xx}``).

Everything else goes through the generic kind, by one of two routes.

  * Rewriting, when the schemes are a convergent rewrite system (Knuth &
    Bendix 1970; Baader & Nipkow, *Term Rewriting and All That*, ch. 6):
    every scheme orients into a rule ``l -> r`` with ``l`` larger than
    ``r``, ``l`` not a variable and no metavariable more often in ``r``
    than in ``l``, so every step shrinks the term and rewriting
    terminates; no scheme has index parameters; and every critical pair
    of the rules joins, so by Newman's lemma the normal form is unique.
    ``normalize`` is that normal form, the unique least member of the
    class, and ``equiv`` compares normal forms.  Distinct always comes
    with a witness: fresh rationals for the index symbols of the two
    terms under which the normal forms still differ; without one the
    search below decides.  Of the ten commutative-semiring axioms taken
    alone, plus-unit, times-unit, times-zero and distrib (read as
    factoring) orient.  The critical-pair check treats one shape
    specially: a run of one-argument applications, such as the side
    ``g(g(...g(v)))``, is unified and compared in one step, so such a
    side is checked in time linear in its depth; any other deep side,
    such as a spine of binary applications, is walked level by level.

  * A bounded bidirectional rewrite search over the schemes otherwise.
    Its ``equiv`` answers Equal when the searches meet, Distinct when both
    equivalence classes are exhausted and disjoint, and Unknown otherwise,
    naming the cause: ``max_visited`` or the depth bound reached, or a
    direction skipped because its target has metavariables its pattern
    does not bind.  A term's one-step rewrites are its value in an
    algebra, so a search steps each distinct subterm once; they come in a
    fixed order, so a class cut off at ``max_visited``, and its normal
    form, are deterministic.
"""

from __future__ import annotations

import enum
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Mapping, Union

from .errors import NotInTheorySignature, UnboundVariable
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
    subterms,
    term_size,
    term_sort_key,
    variables,
)


class Equiv(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Answer:
    """An ``equiv`` verdict with its grounds, for a generic theory:
    ``reason`` names the bound or skipped direction that left a search
    Unknown, or says that rewriting found distinct normal forms, and
    ``values`` are the index values under which those differ."""

    equiv: Equiv
    reason: str | None = None
    values: tuple[tuple[str, Fraction], ...] = ()

    @property
    def value(self) -> str:
        """The verdict's name, as ``Equiv.value``."""
        return self.equiv.value


_ANSWERS = {e: Answer(e) for e in Equiv}


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
class Semiring:
    """What ``semiring_algebra`` reads: the units, the two operations, the
    image of an atom (a variable or a nullary generator) and the image of
    a constant's index.  A semiring without ``const`` has no scalar family;
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
                 max_depth: int = 5, max_visited: int = 10_000):
        if kind not in _NORMAL_FORMS:
            raise ValueError(f"unknown theory kind {kind!r}")
        self.kind = kind
        self.semiring, self.form = _NORMAL_FORMS[kind]
        self.signature = signature
        self.schemes = tuple(schemes)
        self.max_depth = max_depth
        self.max_visited = max_visited
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
        """The canonical normal form of ``term``.  ``memo`` is a memo the
        caller keeps across calls, keyed by the term: a builtin kind's
        ``evaluate`` memo, or the generic kind's normal forms or searched
        classes."""
        if memo is None:
            memo = {}
        if self.semiring is not None:
            return self.form(evaluate(term, *self.algebra, memo))
        rules = self._convergent
        if rules is not None:
            # Without rules, as in the free theory, every term is normal.
            return TermForm(_normal_form(term, rules, memo) if rules
                            else term)
        cls, _ = self._explore(term, memo)
        least = min(map(term_size, cls))
        return TermForm(min((t for t in cls if term_size(t) == least),
                            key=term_sort_key))

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
              memo: dict[Term, Any] | None = None) -> Answer:
        """Whether the theory identifies the two terms, with the grounds
        of a generic Distinct or Unknown.  ``memo`` is a ``normalize``
        memo that serves both sides, kept by a caller that compares many
        terms: what it holds depends on the term alone, so a subterm met
        on either side, or again in a later call, is worked out once."""
        if memo is None:
            memo = {}
        if self.semiring is not None:
            # Folded values are canonical: Polys, frozensets of words.
            same = (evaluate(left, *self.algebra, memo)
                    == evaluate(right, *self.algebra, memo))
            answer = _ANSWERS[Equiv.EQUAL if same else Equiv.DISTINCT]
        elif left == right:
            answer = _ANSWERS[Equiv.EQUAL]
        else:
            answer = None
            if self._convergent is not None:
                answer = self._rewrite_answer(left, right, memo)
                # ``memo`` holds normal forms here, so the search that
                # decides instead keeps its classes apart.
                memo = {}
            if answer is None:
                answer = self._search_answer(left, right, memo)
        return answer

    def _rewrite_answer(self, left: Term, right: Term,
                        memo: dict) -> Answer | None:
        """Equal when the normal forms are; Distinct when they still
        differ once each index symbol of the two terms is given a fresh
        rational, distinct from the others and from the schemes' literal
        indices; None, for the search to decide, when they do not."""
        rules = self._convergent
        if _normal_form(left, rules, memo) == _normal_form(right, rules, memo):
            return _ANSWERS[Equiv.EQUAL]
        names = sorted(index_atoms(left) | index_atoms(right))
        fresh = (v for v in map(Fraction, itertools.count(2))
                 if v not in self._literals)
        values = dict(zip(names, fresh))
        if values:
            def const(t: Const) -> Const:
                if isinstance(t.index, Poly):
                    return Const(t.family, t.index.evaluate(values))
                return t

            concrete: dict[Term, Term] = {}
            left, right = (evaluate(t, Var, const, rebuild, concrete)
                           for t in (left, right))
            if _normal_form(left, rules, memo) \
                    == _normal_form(right, rules, memo):
                return None
        return Answer(Equiv.DISTINCT, "normal forms differ",
                      tuple(values.items()))

    def _search_answer(self, left: Term, right: Term, memo: dict) -> Answer:
        """The bounded search's answer; an Unknown names each side's cut."""
        left_cls, left_cut = self._explore(left, memo)
        right_cls, right_cut = self._explore(right, memo)
        if left_cls & right_cls:
            return _ANSWERS[Equiv.EQUAL]
        if left_cut is None and right_cut is None:
            return _ANSWERS[Equiv.DISTINCT]
        return Answer(Equiv.UNKNOWN, "; ".join(
            f"{side} side: {cut}"
            for side, cut in (("left", left_cut), ("right", right_cut))
            if cut is not None))

    @cached_property
    def _convergent(self) -> dict[str, tuple[tuple[Term, Term], ...]] | None:
        """The schemes as convergent rewrite rules ``(l, r)``, grouped by
        the root symbol of ``l`` (every ``l`` is an application with
        arguments, being larger than ``r``); None when some scheme does
        not orient, has index parameters, or a critical pair does not
        join, which leaves the generic kind to the bounded search.  Built
        on first use, once per theory."""
        rules = []
        for scheme in self.schemes:
            rule = None if scheme.index_metavars else (
                _orient(scheme.lhs, scheme.rhs)
                or _orient(scheme.rhs, scheme.lhs))
            if rule is None:
                return None
            rules.append(rule)
        by_root: dict[str, tuple] = {}
        for rule in rules:
            by_root[rule[0].symbol] = by_root.get(rule[0].symbol, ()) + (rule,)
        return by_root if _critical_pairs_join(rules, by_root) else None

    @cached_property
    def _literals(self) -> frozenset:
        """The indices of the constants the schemes mention."""
        return frozenset(t.index for scheme in self.schemes
                         for side in (scheme.lhs, scheme.rhs)
                         for t in subterms(side) if isinstance(t, Const))

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

    def _explore(self, term: Term, memo: dict[Term, Any] | None = None
                 ) -> tuple[frozenset, str | None]:
        """The equivalence class reachable within the search bounds, and
        the cause that left it possibly incomplete, or None when it was
        exhausted (which makes negative answers sound).  The frontier is
        walked, and each term's steps taken, in generation order, so a
        class cut off at ``max_visited`` depends on the term alone, not on
        hash values.  ``memo`` keeps each term's result for the caller;
        one ``_one_step`` memo serves the whole search and is dropped with
        it."""
        if memo is None:
            memo = {}
        found = memo.get(term)
        if found is not None:
            return found
        seen = {term}
        frontier = [term]
        skipped = False
        cause = None
        steps_memo: dict[Term, Any] = {}
        for _ in range(self.max_depth):
            if not frontier:
                break
            new = []
            for t in frontier:
                steps, complete = self._one_step(t, steps_memo)
                skipped = skipped or not complete
                for s in steps:
                    if s not in seen:
                        seen.add(s)
                        new.append(s)
                if len(seen) > self.max_visited:
                    cause = (f"max_visited {self.max_visited} reached "
                             f"at {len(seen)} terms")
                    new = []
                    break
            frontier = new
        if frontier:
            cause = (f"depth bound {self.max_depth} reached "
                     f"at {len(seen)} terms")
        elif skipped and cause is None:
            cause = "a direction with unbound metavariables skipped"
        memo[term] = found = (frozenset(seen), cause)
        return found

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
                and self.schemes == other.schemes)

    def __repr__(self) -> str:
        return f"Theory({self.kind!r}, {len(self.schemes)} schemes)"


def _match(pattern: Term, term: Term,
           binding: dict[str, Term]) -> dict[str, Term] | None:
    """Extend ``binding`` so that the pattern instantiates to ``term``;
    every variable of a scheme is a metavariable.  The (pattern, term)
    pairs still to match are on an explicit stack, left argument on top.
    A term smaller than the pattern is no instance of it."""
    if pattern._size > term._size:
        return None
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


# -- convergent rewriting ------------------------------------------------------


def _occurrences(term: Term) -> Counter:
    """How often each variable occurs in the term, read as a tree."""
    return evaluate(term, lambda name: Counter((name,)), lambda t: Counter(),
                    lambda t, args: sum(args, Counter()), {})


def _orient(big: Term, small: Term) -> tuple[Term, Term] | None:
    """``big -> small`` as a rule whose every step shrinks the term: the
    left side larger and not a variable, and no variable more often on the
    right than on the left."""
    if big.__class__ is Var or term_size(big) <= term_size(small):
        return None
    have, need = _occurrences(big), _occurrences(small)
    if any(count > have[name] for name, count in need.items()):
        return None
    return big, small


def _normal_form(term: Term, rules: Mapping[str, tuple],
                 memo: dict[Term, Term]) -> Term:
    """The normal form of ``term`` under ``rules`` (by root symbol),
    innermost first.  ``memo`` maps every term met to its normal form.
    The walk keeps an explicit stack of (term, alias) entries: a term to
    normalise once its arguments are (alias None), or a term whose normal
    form is that of its alias, taken when the alias is done."""
    stack: list = [(term, None)]
    while stack:
        t, alias = stack.pop()
        if alias is not None:
            memo[t] = memo[alias]
            continue
        if t in memo:
            continue
        if t.__class__ is not App or not t.args:
            memo[t] = t  # every rule's left side has arguments
            continue
        missing = [(a, None) for a in t.args if a not in memo]
        if missing:
            stack.append((t, None))
            stack.extend(reversed(missing))
            continue
        s = App(t.symbol, tuple(memo[a] for a in t.args))
        if s in memo:
            memo[t] = memo[s]
            continue
        reduct = _root_step(s, rules)
        if reduct is None:
            memo[s] = memo[t] = s
            continue
        if s is not t:
            stack.append((t, s))
        stack += [(s, reduct), (reduct, None)]
    return memo[term]


def _root_step(term: App, rules: Mapping[str, tuple]) -> Term | None:
    """The first rule's rewrite of ``term`` at its root, if one applies."""
    for lhs, rhs in rules.get(term.symbol, ()):
        binding = _match(lhs, term, {})
        if binding is not None:
            return evaluate(rhs, binding.__getitem__, rebuild, rebuild, {})
    return None


def _variables(term: Term, memo: dict[Term, frozenset]) -> frozenset:
    return evaluate(term, lambda name: frozenset((name,)),
                    lambda t: frozenset(),
                    lambda t, args: frozenset().union(*args), memo)


def _run(term: Term, runs: dict[Term, tuple]) -> tuple[list, list, int]:
    """The run of one-argument applications from ``term`` down, as
    (nodes, symbols, index of ``term``): ``nodes`` ends with the first
    node below that is not one, and ``symbols`` are the run's symbols.
    Every node of a run maps to the same lists in ``runs``, so a deep
    spine is walked once, and two runs compare by one comparison of list
    slices, in C, not level by level."""
    found = runs.get(term)
    if found is not None:
        return found
    nodes, t = [], term
    while t.__class__ is App and len(t.args) == 1 and t not in runs:
        nodes.append(t)
        t = t.args[0]
    fresh = len(nodes)
    if t in runs:
        below, _, i = runs[t]
        nodes += below[i:]
    else:
        nodes.append(t)
        fresh += 1
    symbols = [n.symbol for n in nodes[:-1]]
    for i in range(fresh):
        runs[nodes[i]] = (nodes, symbols, i)
    return runs[term]


def _unify(left: Term, right: Term, free: dict[Term, frozenset],
           runs: dict[Term, tuple]) -> dict[str, Term] | None:
    """A most general unifier of the two terms, as triangular bindings (a
    bound term may mention bound variables), or None.  The pairs still to
    unify are on an explicit stack, the leftmost taken at once; two runs
    of one-argument applications (``_run``) are passed in one step.
    ``free`` is a ``_variables`` memo for the occurs check."""
    sigma: dict[str, Term] = {}
    stack = [(left, right)]
    while stack:
        a, b = stack.pop()
        while True:
            while a.__class__ is Var and a.name in sigma:
                a = sigma[a.name]
            while b.__class__ is Var and b.name in sigma:
                b = sigma[b.name]
            if a is b:
                break
            if b.__class__ is Var:
                a, b = b, a
            if a.__class__ is Var:
                if _occurs(a.name, b, sigma, free):
                    return None
                sigma[a.name] = b
                break
            if a.__class__ is not App or b.__class__ is not App \
                    or a.symbol != b.symbol or len(a.args) != len(b.args):
                return None
            if len(a.args) == 1:
                nodes_a, symbols_a, i = _run(a, runs)
                nodes_b, symbols_b, j = _run(b, runs)
                n = min(len(symbols_a) - i, len(symbols_b) - j)
                if symbols_a[i:i + n] != symbols_b[j:j + n]:
                    return None
                a, b = nodes_a[i + n], nodes_b[j + n]
                continue
            stack.extend(zip(a.args[:0:-1], b.args[:0:-1]))
            a, b = a.args[0], b.args[0]
    return sigma


def _occurs(name: str, term: Term, sigma: Mapping[str, Term],
            free: dict[Term, frozenset]) -> bool:
    """Whether the variable occurs in ``term`` with ``sigma`` applied."""
    todo, seen = [term], set()
    while todo:
        for x in _variables(todo.pop(), free):
            if x == name:
                return True
            if x in sigma and x not in seen:
                seen.add(x)
                todo.append(sigma[x])
    return False


def _instance(term: Term, sigma: Mapping[str, Term],
              free: dict[Term, frozenset], memo: dict[Term, Term]) -> Term:
    """``term`` with the triangular bindings applied through; a subterm
    without bound variables is its own instance and is not walked."""
    if sigma.keys().isdisjoint(_variables(term, free)):
        return term

    def var(name: str) -> Term:
        bound = sigma.get(name)
        return Var(name) if bound is None \
            else _instance(bound, sigma, free, memo)

    return evaluate(term, var, rebuild, rebuild, memo)


# A position in a term, found without walking its spine level by level:
# (top, depth, above) is ``depth`` one-argument steps below ``top``, and
# ``above`` is None when ``top`` is the root, else (node, k, position of
# node) when ``top`` is argument ``k`` of ``node``.


def _positions(term: Term, runs: dict[Term, tuple]):
    """(subterm, position) for every application in ``term``."""
    stack = [(term, None)]
    while stack:
        top, above = stack.pop()
        nodes, _, start = _run(top, runs)
        for depth in range(len(nodes) - start):
            sub = nodes[start + depth]
            if sub.__class__ is App:
                yield sub, (top, depth, above)
        node = nodes[-1]
        if node.__class__ is App:
            here = (top, len(nodes) - 1 - start, above)
            stack.extend((arg, (node, k, here))
                         for k, arg in enumerate(node.args))


def _wrapped(term: Term, symbols: list, runs: dict[Term, tuple]) -> Term:
    """``term`` under one-argument applications of ``symbols``, outermost
    first: taken from the run ``term`` was met in when that run has them
    above it (one slice comparison), else built."""
    found, n = runs.get(term), len(symbols)
    if found is not None:
        nodes, run_symbols, i = found
        if i >= n and run_symbols[i - n:i] == symbols:
            return nodes[i - n]
    for symbol in reversed(symbols):
        term = App(symbol, (term,))
    return term


def _filled(position: tuple, hole: Term, inst,
            runs: dict[Term, tuple]) -> Term:
    """The image under ``inst`` of the term the position is in, with
    ``hole`` at the position, built from the hole up."""
    top, depth, above = position
    term = hole
    while True:
        _, symbols, j = _run(top, runs)
        term = _wrapped(term, symbols[j:j + depth], runs)
        if above is None:
            return term
        node, k, (top, depth, above) = above
        term = App(node.symbol, tuple(term if x == k else inst(arg)
                                      for x, arg in enumerate(node.args)))


def _critical_pairs_join(rules: list[tuple[Term, Term]],
                         by_root: Mapping[str, tuple]) -> bool:
    """Whether every critical pair of the terminating ``rules`` joins,
    which by Newman's lemma makes them confluent.  A pair comes from each
    position ``p`` of a left side ``l1`` that is not a variable, and each
    left side ``l2`` (renamed apart; not ``l1`` itself at the root) that
    unifies with ``l1|p`` under ``sigma``: it is ``sigma(r1)`` against
    ``sigma(l1)`` with ``sigma(r2)`` at ``p``.  It joins when the two are
    equal or have one normal form."""
    taken = {x for rule in rules for side in rule for x in variables(side)}
    free: dict[Term, frozenset] = {}
    runs: dict[Term, tuple] = {}
    normal: dict[Term, Term] = {}
    for l1, r1 in rules:
        for rule in rules:
            same = rule == (l1, r1)
            l2, r2 = rule
            renaming = {}
            for x in variables(l2):
                fresh = x + "'"
                while fresh in taken:
                    fresh += "'"
                renaming[x] = Var(fresh)
            l2, r2 = substitute(l2, renaming), substitute(r2, renaming)
            for sub, position in _positions(l1, runs):
                if sub.symbol != l2.symbol or len(sub.args) != len(l2.args) \
                        or (same and position == (l1, 0, None)):
                    continue
                sigma = _unify(sub, l2, free, runs)
                if sigma is None:
                    continue
                memo: dict[Term, Term] = {}

                def inst(t: Term) -> Term:
                    return _instance(t, sigma, free, memo)

                left = inst(r1)
                right = _filled(position, inst(r2), inst, runs)
                if left is not right and _normal_form(left, by_root, normal) \
                        is not _normal_form(right, by_root, normal):
                    return False
    return True


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
                   max_depth: int = 5, max_visited: int = 10_000) -> Theory:
    return Theory(GENERIC, signature, schemes,
                  max_depth=max_depth, max_visited=max_visited)


def free_theory(signature: Signature) -> Theory:
    """No equations: normal forms are the terms themselves."""
    return Theory(GENERIC, signature, ())
