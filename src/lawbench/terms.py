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
denotes, so ``Const(f, 2)`` and ``Const(f, Poly.const(2))`` are one node.

Terms are the free monad over the signature: a term has one value in
every algebra for the signature, and ``evaluate``, the one evaluation in
lawbench, computes it.  ``Var`` is the unit and ``substitute``, evaluation
in the term algebra, is the multiplication.

Terms are hash-consed (Filliâtre & Conchon, *Type-Safe Modular
Hash-Consing*, 2006): each constructor returns the live node with the same
kind and fields if there is one, so equal terms are one object, and
``==`` and ``hash`` are identity.  The intern table holds nodes weakly, so
a term no longer referenced leaves it.  Each node records its size, so
``term_size`` is O(1).  Nodes are immutable.
``evaluate``, ``subterms`` (which ``variables``, ``index_atoms`` and
``Signature.validate`` walk), ``term_sort_key``, ``format_term`` and
``repr`` keep explicit stacks, so terms of any depth can be built,
ordered, evaluated, validated and printed.  Pickling still recurses.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping, Union
from weakref import ref

from .errors import ArityMismatch, UnboundVariable, UnknownSymbol
from .polynomials import Poly


@dataclass(frozen=True)
class ConstantFamily:
    """An indexed family of constants with a finite sample set used when
    terms are enumerated."""

    name: str
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
        """Every symbol and family declared, every arity respected; the
        first offence in left-to-right order is raised."""
        for t in subterms(term):
            if isinstance(t, Const):
                self.family(t.family)
            elif isinstance(t, App):
                arity = self.arity(t.symbol)
                if arity != len(t.args):
                    raise ArityMismatch(
                        f"{t.symbol!r} declared with arity {arity}, applied "
                        f"to {len(t.args)} arguments"
                    )


class _Entry(ref):
    """The intern table's weak reference to a node, with the node's key.
    ``weakref.KeyedRef`` is the same but builds in Python code, which
    doubles what an entry costs."""

    __slots__ = ("key",)


# A node's kind and fields to the entry for the live node that has them.
_table: dict[tuple, _Entry] = {}


def _forget(entry: _Entry) -> None:
    """Drop a dead node's entry, unless a new node has taken its key since
    (a collection clears every weak reference before it calls back)."""
    if _table.get(entry.key) is entry:
        del _table[entry.key]


class _Node:
    """Shared behaviour of the three node kinds: immutability, ``repr``,
    and pickling through the constructor, so that unpickling and ``copy``
    return the interned node.  Each kind's ``__new__`` interns its node and
    assigns its fields once, through the slots' own setters, because
    building a node is the commonest thing the term path does."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        """The constructor call with its fields named, as a dataclass
        prints it; built on an explicit stack, so any depth prints."""
        out: list[str] = []
        todo: list = [self]  # nodes and literal text, last first
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                out.append(t)
            elif isinstance(t, App):
                todo.append(",))" if len(t.args) == 1 else "))")
                for i, arg in enumerate(reversed(t.args)):
                    todo += [", ", arg] if i else [arg]
                todo.append(f"App(symbol={t.symbol!r}, args=(")
            else:
                fields = ", ".join(f"{name}={getattr(t, name)!r}"
                                   for name in t.__match_args__)
                out.append(f"{type(t).__name__}({fields})")
        return "".join(out)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self.__match_args__)


class Var(_Node):
    __slots__ = __match_args__ = ("name",)
    _size = 1

    def __new__(cls, name: str):
        key = cls, name
        entry = _table.get(key)
        node = entry and entry()
        if node is None:
            node = _new(cls)
            _set_name(node, name)
            _table[key] = entry = _Entry(node, _forget)
            entry.key = key
        return node


class App(_Node):
    __slots__ = ("symbol", "args", "_size")
    __match_args__ = ("symbol", "args")

    def __new__(cls, symbol: str, args: tuple["Term", ...] = ()):
        if args.__class__ is not tuple:
            args = tuple(args)
        key = cls, symbol, args
        entry = _table.get(key)
        node = entry and entry()
        if node is None:
            node = _new(cls)
            _set_symbol(node, symbol)
            _set_args(node, args)
            _set_size(node, 1 + sum([a._size for a in args]))
            _table[key] = entry = _Entry(node, _forget)
            entry.key = key
        return node


class Const(_Node):
    __slots__ = __match_args__ = ("family", "index")
    _size = 1

    def __new__(cls, family: str,
                index: Union[Fraction, Poly] = Fraction(0)):
        if isinstance(index, Poly) and index.is_constant:
            index = index.constant_value()
        if isinstance(index, int):
            index = Fraction(index)
        # Fraction.__hash__ is written in Python and would cost more than
        # the rest of building the node; equal fractions agree in lowest
        # terms.
        if isinstance(index, Fraction):
            key = cls, family, index.numerator, index.denominator
        else:
            key = cls, family, index
        entry = _table.get(key)
        node = entry and entry()
        if node is None:
            node = _new(cls)
            _set_family(node, family)
            _set_index(node, index)
            _table[key] = entry = _Entry(node, _forget)
            entry.key = key
        return node


_new = object.__new__
_set_name = Var.name.__set__
_set_symbol, _set_args, _set_size = (App.symbol.__set__, App.args.__set__,
                                     App._size.__set__)
_set_family, _set_index = Const.family.__set__, Const.index.__set__


Term = Union[Var, App, Const]


_MISSING = object()


def evaluate(term: Term, var: Callable[[str], Any],
             const: Callable[[Const], Any], app: Callable[[App, list], Any],
             memo: dict[Term, Any] | None = None):
    """The value of ``term`` in the algebra that maps a variable's name, a
    ``Const`` node, and an application node with its argument values to
    values: the free monad's unique extension.

    The walk is post-order, left argument first, on an explicit stack of
    the applications still waiting for arguments, each with the values of
    those it has; so any depth evaluates, and the first error is the
    leftmost innermost.  ``memo`` maps terms already evaluated to their
    values, so each distinct subterm is evaluated once; without one the
    term is walked as a tree, which costs less on small terms."""
    waiting: list[tuple[App, list]] = []
    t = term
    while True:
        value = _MISSING if memo is None else memo.get(t, _MISSING)
        if value is _MISSING:
            kind = t.__class__
            if kind is Var:
                value = var(t.name)
            elif kind is Const:
                value = const(t)
            elif t.args:
                waiting.append((t, []))
                t = t.args[0]
                continue
            else:
                value = app(t, [])
            if memo is not None:
                memo[t] = value
        # Hand the value up until an application still needs an argument.
        while waiting:
            t, args = waiting[-1]
            args.append(value)
            if len(args) < len(t.args):
                t = t.args[len(args)]
                break
            waiting.pop()
            value = app(t, args)
            if memo is not None:
                memo[t] = value
        else:
            return value


def rebuild(t: Term, args: list | tuple = ()) -> Term:
    """The term algebra's image of a node: its symbol applied to the new
    arguments, or the node itself when it has none."""
    return App(t.symbol, args) if args else t


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace every leaf token by its image; the monad multiplication.

    Every variable of ``term`` must be in the mapping.  Each distinct
    subterm is rebuilt once.
    """
    def var(name: str) -> Term:
        try:
            return mapping[name]
        except KeyError:
            raise UnboundVariable(f"no binding for variable {name!r}") from None

    return evaluate(term, var, rebuild, rebuild, {})


def variables(term: Term) -> tuple[str, ...]:
    """Leaf tokens in first-occurrence order, without duplicates."""
    return tuple(dict.fromkeys(t.name for t in subterms(term)
                               if isinstance(t, Var)))


def term_size(term: Term) -> int:
    """Node count of the term as a tree, recorded when it was built."""
    return term._size


def subterms(term: Term) -> Iterator[Term]:
    """Every node of the term in pre-order, left argument first, walked
    on an explicit stack; a shared subterm is visited once."""
    seen: set[Term] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            yield t
            if isinstance(t, App):
                stack.extend(reversed(t.args))


def index_atoms(term: Term) -> frozenset[str]:
    """Atoms occurring in polynomial indices anywhere in the term."""
    return frozenset(atom for t in subterms(term)
                     if isinstance(t, Const) and isinstance(t.index, Poly)
                     for atom in t.index.atoms())


# Closes an application's labels; sorts before every label.
_CLOSE = (-1,)


def term_sort_key(term: Term):
    """A total order on terms: size first, then structure.  The structure
    is the pre-order sequence of node labels with each application closed
    by a marker that sorts first, which orders terms as their nested
    structure would; the key is flat, so neither building nor comparing it
    recurses."""
    labels = []
    stack: list = [term]
    while stack:
        t = stack.pop()
        if t is _CLOSE:
            labels.append(_CLOSE)
        elif isinstance(t, Var):
            labels.append((0, t.name))
        elif isinstance(t, Const):
            labels.append((1, t.family, str(t.index)))
        else:
            labels.append((2, t.symbol))
            stack.append(_CLOSE)
            stack.extend(reversed(t.args))
    return term._size, tuple(labels)


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


def format_term(term: Term) -> str:
    """Render a term with infix ``+`` and ``*``; canonical right nesting
    prints without parentheses."""
    out: list[str] = []
    # Pieces still to print, last first: a (term, context precedence)
    # pair, or literal text.
    todo: list = [(term, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        t, context = item
        if isinstance(t, Var):
            out.append(t.name)
        elif isinstance(t, Const):
            out.append(f"[{t.index}]")
        elif t.symbol in _INFIX and len(t.args) == 2:
            prec = _INFIX[t.symbol]
            parens = prec < context
            if parens:
                todo.append(")")
            todo += [(t.args[1], prec), f" {t.symbol} ", (t.args[0], prec + 1)]
            if parens:
                todo.append("(")
        elif not t.args:
            out.append(t.symbol)
        else:
            todo.append(")")
            for i in range(len(t.args) - 1, 0, -1):
                todo += [(t.args[i], 0), ", "]
            todo += [(t.args[0], 0), f"{t.symbol}("]
    return "".join(out)
