"""Free terms: substitution is a monad, enumeration is complete."""

import copy
import gc
import itertools
import pickle
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from lawbench import terms
from lawbench.errors import ArityMismatch, UnboundVariable
from lawbench.polynomials import Poly
from lawbench.terms import (
    App,
    Const,
    ConstantFamily,
    Signature,
    Var,
    enumerate_terms,
    evaluate,
    format_term,
    substitute,
    subterms,
    term_size,
    term_sort_key,
    variables,
)

from oracles import (
    positions,
    reference_evaluate,
    reference_repr,
    replace_at,
    subterm_at,
)

# ---------------------------------------------------------------- oracles

SIG = Signature(
    (("+", 2), ("*", 2), ("X", 0)),
    (ConstantFamily("c", samples=(Fraction(0), Fraction(1))),),
)


def brute_force_terms(signature, names, max_size):
    """All terms up to max_size by blunt recursion over node counts.

    Written independently of enumerate_terms: builds sets, no ordering,
    no composition tricks.
    """
    leaves = set()
    for v in names:
        leaves.add(Var(v))
    for sym, k in signature.ops:
        if k == 0:
            leaves.add(App(sym))
    for fam in signature.families:
        for s in fam.samples:
            leaves.add(Const(fam.name, s))

    def of_size(n):
        if n == 1:
            return set(leaves)
        out = set()
        for sym, k in signature.ops:
            if k == 0:
                continue
            for sizes in itertools.product(range(1, n), repeat=k):
                if sum(sizes) != n - 1:
                    continue
                pools = [of_size(s) for s in sizes]
                for args in itertools.product(*pools):
                    out.add(App(sym, args))
        return out

    everything = set()
    for n in range(1, max_size + 1):
        everything |= of_size(n)
    return everything


small_terms = list(enumerate_terms(SIG, {"v", "u"}, 4))


def term_strategy(names, depth=3):
    leaf = st.one_of(
        st.sampled_from([Var(n) for n in names]),
        st.just(App("X")),
        st.sampled_from([Const("c", 0), Const("c", 1)]),
    )
    return st.recursive(
        leaf,
        lambda sub: st.builds(
            App, st.sampled_from(["+", "*"]), st.tuples(sub, sub)
        ),
        max_leaves=2 ** depth,
    )


# ------------------------------------------------------------------ tests


def test_substitution_left_unit():
    # substituting into a bare variable just looks it up
    mapping = {"v": App("+", (Var("a"), Var("b")))}
    assert substitute(Var("v"), mapping) == mapping["v"]


def test_substitution_right_unit_on_all_small_terms():
    for t in enumerate_terms(SIG, {"v", "u", "w"}, 6):
        identity = {x: Var(x) for x in variables(t)}
        assert substitute(t, identity) == t


def test_substitution_associativity_on_all_small_terms():
    f = {"v": App("*", (Var("p"), Var("q"))), "u": Var("p"), "w": App("X")}
    g = {"p": App("+", (Var("r"), App("X"))), "q": Var("r")}
    for t in enumerate_terms(SIG, {"v", "u", "w"}, 6):
        composed = {x: substitute(f[x], g) for x in f}
        lhs = substitute(substitute(t, f), g)
        assert lhs == substitute(t, composed)


@given(term_strategy(["v", "u"]), term_strategy(["p"]), term_strategy(["p"]))
def test_substitution_associativity_random(t, s1, s2):
    f = {"v": s1, "u": s2}
    g = {"p": App("X")}
    composed = {x: substitute(f[x], g) for x in f}
    assert substitute(substitute(t, f), g) == substitute(t, composed)


def test_substitute_requires_total_mapping():
    with pytest.raises(UnboundVariable):
        substitute(App("+", (Var("v"), Var("u"))), {"v": App("X")})


def test_enumeration_matches_brute_force():
    got = list(enumerate_terms(SIG, {"v", "u"}, 4))
    assert len(got) == len(set(got)), "enumeration emitted a duplicate"
    assert set(got) == brute_force_terms(SIG, {"v", "u"}, 4)


def test_enumeration_is_ordered_by_size():
    sizes = [term_size(t) for t in small_terms]
    assert sizes == sorted(sizes)


def test_variables_first_occurrence_order():
    t = App("+", (Var("b"), App("*", (Var("a"), Var("b")))))
    assert variables(t) == ("b", "a")


def test_signature_validate_reports_arity():
    with pytest.raises(ArityMismatch):
        SIG.validate(App("+", (Var("v"),)))


def test_constant_poly_index_collapses():
    assert Const("c", Poly.const(2)) == Const("c", Fraction(2))
    assert Const("c", 2).index == Fraction(2)
    sym = Const("c", Poly.atom("a"))
    assert isinstance(sym.index, Poly)


def test_positions_and_replace_roundtrip():
    t = App("+", (App("X"), App("*", (Var("v"), Const("c", 1)))))
    for pos in positions(t):
        assert replace_at(t, pos, subterm_at(t, pos)) == t
    assert replace_at(t, (1, 0), App("X")) == App(
        "+", (App("X"), App("*", (App("X"), Const("c", 1))))
    )


def test_format_term_minimal_parentheses():
    t = App("+", (Var("v"), App("+", (Var("u"), Var("w")))))
    assert format_term(t) == "v + u + w"
    t2 = App("+", (App("+", (Var("v"), Var("u"))), Var("w")))
    assert format_term(t2) == "(v + u) + w"
    t3 = App("*", (Var("v"), App("+", (Var("u"), Var("w")))))
    assert format_term(t3) == "v * (u + w)"
    assert format_term(Const("c", Fraction(1, 2))) == "[1/2]"


# ------------------------------------------- deep terms, hashing, equality

DEEP = 10_000


def left_nested_sum(depth, last="v"):
    """((((v + X) + v) + X) ...) with ``depth`` additions; the deepest,
    leftmost leaf is ``Var(last)``."""
    t = Var(last)
    for i in range(depth):
        t = App("+", (t, App("X") if i % 2 else Var("v")))
    return t


def test_variables_of_a_deep_term():
    assert variables(left_nested_sum(DEEP, last="u")) == ("u", "v")
    assert term_size(left_nested_sum(DEEP)) == 2 * DEEP + 1


def test_validate_a_deep_term():
    t = left_nested_sum(DEEP)
    SIG.validate(t)
    with pytest.raises(ArityMismatch):
        SIG.validate(App("+", (t, App("+", (Var("v"),)))))


def test_substitute_into_a_deep_term():
    t = left_nested_sum(DEEP, last="u")
    flat = substitute(t, {"u": Const("c", 1), "v": App("X")})
    SIG.validate(flat)
    assert format_term(flat) == format_term(t).replace("u", "[1]").replace(
        "v", "X")
    with pytest.raises(UnboundVariable):
        substitute(t, {"v": App("X")})


def test_deep_terms_compare_and_hash():
    t, s = left_nested_sum(DEEP), left_nested_sum(DEEP)
    assert t is s
    assert t == s and hash(t) == hash(s)
    assert s in {t} and {t: 1}[s] == 1
    other = left_nested_sum(DEEP, last="u")
    assert other != t and not (other == t)
    assert other not in {t}


def test_colliding_hashes_still_compare_structurally():
    # CPython hashes -1 and -2 alike, so each pair below has fields that
    # share a hash.
    pairs = ((Var(-1), Var(-2)),
             (Const("c", -1), Const("c", -2)),
             (App("+", (Var("v"), Const("c", -1))),
              App("+", (Var("v"), Const("c", -2)))))
    for s, t in pairs:
        assert s is not t
        assert s != t and len({s, t}) == 2
        assert s is type(s)(*s.__reduce__()[1])


def test_equal_terms_built_apart_are_one_object():
    assert App("+", (Var("x"), Const("c", 2))) is App(
        "+", [Var("x"), Const("c", Fraction(2))])
    assert Const("c", Poly.const(2)) is Const("c", 2)


def test_an_integral_index_interns_as_one_node_however_given():
    # A constant Poly holds an integral coefficient as an int; the node
    # is the one built from the Fraction all the same.
    node = Const("c", 2)
    assert type(node.index) is Fraction
    for index in (Fraction(2), Poly.const(2), Poly.const(Fraction(4, 2))):
        assert Const("c", index) is node


def test_the_intern_table_drops_dead_nodes():
    leaf = t = Var("dropped")
    gc.collect()  # nodes earlier tests left in garbage cycles
    live = len(terms._table)
    for _ in range(100_000):
        t = App("+", (t, leaf))
    assert len(terms._table) == live + 100_000
    del t
    assert len(terms._table) == live


def structurally_equal(s, t):
    """The oracle: field-by-field recursion, as the dataclasses did."""
    if type(s) is not type(t):
        return False
    if isinstance(s, Var):
        return s.name == t.name
    if isinstance(s, Const):
        return s.family == t.family and s.index == t.index
    return (s.symbol == t.symbol and len(s.args) == len(t.args)
            and all(structurally_equal(a, b) for a, b in zip(s.args, t.args)))


def rebuilt(t):
    """A copy of ``t`` that shares no node with it; a polynomial index is
    rebuilt through the public constructor."""
    if isinstance(t, Var):
        return Var(str(t.name))
    if isinstance(t, Const):
        index = t.index
        return Const(t.family,
                     Poly(index.terms) if isinstance(index, Poly) else index)
    return App(t.symbol, [rebuilt(a) for a in t.args])


def tree_size(t):
    return 1 + sum(tree_size(a) for a in getattr(t, "args", ()))


# Indices equal in value but built differently: constant polynomials
# collapse to the rational they denote, and the last two polynomials
# equal the two before them, built by the constructor from int
# coefficients and a repeated atom instead of by arithmetic.
INDICES = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2, 4),
           Poly.const(Fraction(1, 2)), Poly.const(0), Poly.atom("a"),
           Poly.atom("a") + Poly.const(1), Poly.atom("a") * Poly.atom("a"),
           Poly({(): 1, (("a", 1),): 1}), Poly([((("a", 1), ("a", 1)), 1)]))

varied_terms = st.recursive(
    st.one_of(
        st.sampled_from([Var("v"), Var("u"), App("X"), App("Y")]),
        st.builds(Const, st.sampled_from(["c", "d"]), st.sampled_from(INDICES)),
    ),
    lambda sub: st.one_of(
        st.builds(App, st.sampled_from(["+", "*"]), st.tuples(sub, sub)),
        st.builds(App, st.sampled_from(["f", "X"]), st.tuples(sub)),
        st.builds(App, st.just("g"), st.tuples(sub, sub, sub)),
    ),
    max_leaves=8,
)


@given(varied_terms, varied_terms)
def test_equality_matches_the_structural_oracle(s, t):
    assert (s is t) == structurally_equal(s, t)
    assert (s == t) == structurally_equal(s, t)
    assert (s != t) == (not structurally_equal(s, t))
    if s == t:
        assert hash(s) == hash(t)
    assert rebuilt(s) is s
    assert term_size(s) == tree_size(s)


@given(varied_terms)
def test_repr_matches_the_recursive_reference(t):
    assert repr(t) == reference_repr(t)


def test_repr_of_a_deep_term():
    depth = 100_000
    t = Var("v")
    for _ in range(depth):
        t = App("g", (t,))
    assert repr(t) == ("App(symbol='g', args=(" * depth + "Var(name='v')"
                       + ",))" * depth)


def test_terms_stay_immutable():
    t = App("+", (Var("v"), Const("c", 1)))
    for node, field in ((t, "symbol"), (t, "args"), (t.args[0], "name"),
                        (t.args[1], "index")):
        with pytest.raises(AttributeError):
            setattr(node, field, None)
    assert repr(t) == ("App(symbol='+', args=(Var(name='v'), "
                       "Const(family='c', index=Fraction(1, 1))))")
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy(t) is t and copy.copy(t) is t


def nested_sort_key(t):
    """The order as a nested key, the way it was first written."""
    def node(t):
        if isinstance(t, Var):
            return (0, t.name)
        if isinstance(t, Const):
            return (1, t.family, str(t.index))
        return (2, t.symbol, tuple(node(a) for a in t.args))
    return (tree_size(t), node(t))


named_terms = st.recursive(
    st.one_of(
        st.sampled_from([Var("v"), Var("u"), App("X"), App("Y")]),
        st.builds(Const, st.just("c"), st.sampled_from(INDICES)),
    ),
    lambda sub: st.one_of(
        st.builds(App, st.sampled_from(["+", "*", "X"]), st.tuples(sub, sub)),
        st.builds(App, st.sampled_from(["f", "X"]), st.tuples(sub)),
    ),
    max_leaves=6,
)


@given(named_terms, named_terms)
@example(App("X", (App("X"), Var("v"))), App("X", (App("X", (Var("v"),)),)))
def test_sort_key_orders_as_the_nested_key(s, t):
    assert (term_sort_key(s) < term_sort_key(t)) == \
        (nested_sort_key(s) < nested_sort_key(t))
    assert (term_sort_key(s) == term_sort_key(t)) == (s == t)


def test_sort_key_of_deep_terms():
    t, u = left_nested_sum(DEEP), left_nested_sum(DEEP, last="u")
    assert sorted([t, u, t], key=term_sort_key) == [u, t, t]


# ------------------------------------------------------------- evaluation


def tagged(failing=None):
    """An algebra whose values spell the term back as nested tuples, and
    the list of nodes it was applied to; ``app`` raises on the symbol
    ``failing``, naming the subterm, and ``var`` on the name ``w``."""
    seen = []

    def var(name):
        seen.append(name)
        if name == "w":
            raise KeyError(f"no value for {name}")
        return ("var", name)

    def const(t):
        seen.append(t)
        return ("const", t.family, t.index)

    def app(t, args):
        seen.append(t)
        if t.symbol == failing:
            raise LookupError(f"{failing} at {format_term(t)}")
        return (t.symbol, *args)

    return (var, const, app), seen


def outcome(run):
    try:
        return run()
    except (KeyError, LookupError) as exc:
        return type(exc), str(exc)


def shared(s, t, u):
    """A dag: ``t`` and ``u`` substituted for the variables of ``s`` and
    of one another, so each occurrence of a variable shares its image."""
    inner = substitute(t, {"v": u, "u": u})
    return substitute(s, {"v": inner, "u": t, "w": Var("w")})


# Some end in the variable ``w``, which ``tagged`` cannot evaluate.
terms_with_w = st.one_of(
    varied_terms, st.builds(lambda t: App("+", (t, Var("w"))), varied_terms))


@given(terms_with_w, varied_terms, varied_terms,
       st.sampled_from([None, "+", "*", "f", "g", "X", "Y"]))
def test_evaluate_agrees_with_the_recursive_reference(s, t, u, failing):
    for term in (s, shared(s, t, u)):
        algebra, _ = tagged(failing)
        expected = outcome(lambda: reference_evaluate(term, *algebra))
        assert outcome(lambda: evaluate(term, *algebra)) == expected
        assert outcome(lambda: evaluate(term, *algebra, {})) == expected


@given(varied_terms, varied_terms, varied_terms)
def test_a_memo_evaluates_each_distinct_subterm_once(s, t, u):
    term = shared(s, t, u)
    algebra, seen = tagged()
    memo = {}
    value = evaluate(term, *algebra, memo)
    distinct = set(subterms(term))
    assert len(seen) == len(distinct) == len(memo)
    assert set(memo) == distinct
    algebra, seen = tagged()
    assert evaluate(term, *algebra, memo) == value and not seen
    assert evaluate(term, *algebra) == value
    assert len(seen) == tree_size(term)


def test_evaluate_a_deep_term():
    deep = Var("v")
    for i in range(100_000):
        deep = App("f", (deep,)) if i % 2 else App("+", (App("X"), deep))

    def depth(t, args):
        return 1 + max(args, default=0)

    assert evaluate(deep, lambda name: 1, None, depth) == 100_001
    assert evaluate(deep, lambda name: 1, None, depth, {}) == 100_001
