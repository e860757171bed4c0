"""Equational theories and their canonical normal forms.

Oracles: commutative-semiring terms are evaluated as rational functions at
sample points; idempotent-semiring terms as finite languages by a direct
set-valued recursion.  Normal forms must denote the same function or the
same language, and the generic bounded search must never contradict the
builtin normalizers.
"""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from lawbench.errors import NotInTheorySignature
from lawbench.polynomials import Poly
from lawbench.terms import (
    App,
    Const,
    ConstantFamily,
    Signature,
    Var,
    enumerate_terms,
    substitute,
    term_sort_key,
    variables,
)
from lawbench.theories import (
    EquationScheme,
    Equiv,
    LangForm,
    PolyForm,
    TermForm,
    Theory,
    _match,
    _orient,
    commutative_semiring,
    free_theory,
    generic_theory,
    idempotent_semiring,
)

from oracles import (
    position_walk,
    positions,
    quotient_mu,
    reference_convergent,
    replace_at,
    subterm_at,
    unit,
)

# ---------------------------------------------------------------- oracles

CSIG = Signature(
    (("+", 2), ("*", 2), ("X", 0)),
    (ConstantFamily("c", samples=(0, 1, 2, 3)),),
)
ISIG = Signature((("+", 2), ("*", 2), ("0", 0), ("1", 0)))

CPOINTS = [
    {"v": Fraction(2), "u": Fraction(3), "X": Fraction(5)},
    {"v": Fraction(-1), "u": Fraction(1, 2), "X": Fraction(0)},
    {"v": Fraction(7, 3), "u": Fraction(-4), "X": Fraction(1)},
]


def eval_rational(term, env):
    """Evaluate a commutative-semiring term as a rational number."""
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Const):
        return Fraction(term.index)
    if term.symbol == "+":
        return eval_rational(term.args[0], env) + eval_rational(term.args[1], env)
    if term.symbol == "*":
        return eval_rational(term.args[0], env) * eval_rational(term.args[1], env)
    return env[term.symbol]  # nullary generator


def eval_language(term):
    """Evaluate an idempotent-semiring term as a finite set of words."""
    if isinstance(term, Var):
        return {(term.name,)}
    if term.symbol == "+":
        return eval_language(term.args[0]) | eval_language(term.args[1])
    if term.symbol == "*":
        left, right = eval_language(term.args[0]), eval_language(term.args[1])
        return {u + v for u in left for v in right}
    if term.symbol == "0":
        return set()
    if term.symbol == "1":
        return {()}
    return {(term.symbol,)}


CTH = commutative_semiring(CSIG)
ITH = idempotent_semiring(ISIG)

cterms = list(enumerate_terms(CSIG, {"v", "u"}, 4))
iterms = list(enumerate_terms(ISIG, {"v", "u"}, 4))

# ------------------------------------------------------------------ tests


def test_language_normal_form_frozen_example():
    t = App("+", (App("1"), App("*", (Var("x"), App("+", (Var("y"), Var("x")))))))
    nf = ITH.normalize(t)
    assert nf == LangForm(frozenset({(), ("x", "y"), ("x", "x")}))
    assert str(nf) == "{eps, xx, xy}"


def test_polynomial_normal_form_frozen_example():
    t = App("*", (Const("c", 2), App("+", (Var("v"), Var("v")))))
    nf = CTH.normalize(t)
    assert nf == PolyForm(Poly.const(4) * Poly.atom("v"))
    assert str(nf) == "4*v"


def test_normalize_of_variable_is_the_unit():
    assert CTH.normalize(Var("v")) == unit(CTH, "v") == PolyForm(Poly.atom("v"))
    assert ITH.normalize(Var("v")) == unit(ITH, "v") == LangForm(frozenset({("v",)}))


def test_normalize_of_a_deep_right_nested_sum():
    depth = 10_000
    for th, other, expected in (
        (CTH, App("X"), PolyForm(Poly.const(depth // 2)
                                 * (Poly.atom("v") + Poly.atom("X")))),
        (ITH, Var("u"), LangForm(frozenset({("v",), ("u",)}))),
    ):
        term = other
        for i in range(depth - 1):
            term = App("+", (Var("v") if i % 2 == 0 else other, term))
        assert th.normalize(term) == expected
    fth = free_theory(CSIG)
    assert fth.normalize(Var("v")) == TermForm(Var("v"))


def test_normalize_preserves_the_denoted_function():
    for t in cterms:
        nf = CTH.normalize(t)
        for env in CPOINTS:
            assert nf.poly.evaluate(env) == eval_rational(t, env)


def test_normalize_preserves_the_denoted_language():
    for t in iterms:
        nf = ITH.normalize(t)
        assert nf.words == frozenset(eval_language(t))


def test_scalar_inclusion_is_a_semiring_morphism():
    lhs = App("*", (Const("c", 2), Const("c", 3)))
    assert CTH.equiv(lhs, Const("c", 6)).equiv is Equiv.EQUAL
    both = App("+", (Const("c", 2), Const("c", 3)))
    assert CTH.equiv(both, Const("c", 5)).equiv is Equiv.EQUAL


def test_idempotence():
    xy = App("*", (Var("x"), Var("y")))
    assert ITH.equiv(App("+", (xy, xy)), xy).equiv is Equiv.EQUAL


def test_builtin_equiv_is_total():
    for t, s in itertools.islice(itertools.combinations(cterms, 2), 300):
        assert CTH.equiv(t, s).equiv in (Equiv.EQUAL, Equiv.DISTINCT)
    for t, s in itertools.islice(itertools.combinations(iterms, 2), 300):
        assert ITH.equiv(t, s).equiv in (Equiv.EQUAL, Equiv.DISTINCT)


def reordered(term, symbols, flips):
    """``term`` with the arguments of some applications of ``symbols``
    swapped, one flip drawn per binary node."""
    if isinstance(term, App) and len(term.args) == 2:
        left, right = (reordered(arg, symbols, flips) for arg in term.args)
        if term.symbol in symbols and next(flips):
            left, right = right, left
        return App(term.symbol, (left, right))
    return term


# Per builtin theory: its terms, the symbols that commute in it (``*``
# is concatenation under the idempotent theory) and a memo that lasts
# across examples.
EQUIV_CASES = ((CTH, cterms, ("+", "*"), {}), (ITH, iterms, ("+",), {}))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EQUIV_CASES), st.data())
def test_builtin_equiv_is_equality_of_normal_forms(case, data):
    th, terms, symbols, shared = case
    left = data.draw(st.sampled_from(terms))
    flips = itertools.cycle(data.draw(st.lists(st.booleans(), min_size=1)))
    right = data.draw(st.one_of(st.sampled_from(terms),
                                st.just(reordered(left, symbols, flips))))
    equal = th.normalize(left) == th.normalize(right)
    for memo in ({}, shared):
        assert (th.equiv(left, right, memo).equiv is Equiv.EQUAL) == equal
        assert (th.equiv(right, left, memo).equiv is Equiv.EQUAL) == equal


def test_builtin_equiv_identifies_reordered_summands_and_factors():
    v, u, two = Var("v"), Var("u"), Const("c", 2)
    assert CTH.equiv(App("*", (v, App("+", (u, two)))),
                     App("*", (App("+", (two, u)), v))).equiv is Equiv.EQUAL
    assert ITH.equiv(App("+", (App("*", (v, u)), v)),
                     App("+", (v, App("*", (v, u))))).equiv is Equiv.EQUAL
    assert ITH.equiv(App("*", (v, u)),
                     App("*", (u, v))).equiv is Equiv.DISTINCT


def test_representative_is_a_section():
    # normalize(representative(nf)) == nf, and the representative is
    # congruent to the original term
    for th, terms in ((CTH, cterms), (ITH, iterms)):
        for t in terms:
            nf = th.normalize(t)
            assert th.normalize(th.representative(nf)) == nf
            assert th.equiv(t, th.representative(nf)).equiv is Equiv.EQUAL


def test_equiv_is_a_congruence_on_samples():
    for th, terms in ((CTH, cterms[:40]), (ITH, iterms[:40])):
        for t in terms:
            s = th.representative(th.normalize(t))
            for op in ("+", "*"):
                answer = th.equiv(App(op, (t, t)), App(op, (s, s)))
                assert answer.equiv is Equiv.EQUAL


def test_quotient_map_is_a_monad_morphism():
    # flattening then normalizing equals quotient-level multiplication
    cases = [
        (CTH, CSIG, {"p": App("+", (Var("a"), Const("c", 2))),
                     "q": App("*", (Var("a"), Var("b")))}),
        (ITH, ISIG, {"p": App("+", (Var("a"), App("1"))),
                     "q": App("*", (Var("a"), Var("b")))}),
    ]
    for th, sig, inner in cases:
        leaves = {x: th.normalize(t) for x, t in inner.items()}
        for outer in enumerate_terms(sig, {"p", "q"}, 4):
            flat = substitute(outer, inner)
            assert quotient_mu(th, outer, leaves) == th.normalize(flat)


def test_quotient_mu_frozen_examples():
    concat = App("*", (Var("L1"), Var("L2")))
    got = quotient_mu(ITH, concat, {
        "L1": LangForm(frozenset({("a",)})),
        "L2": LangForm(frozenset({("b",), ("c",)})),
    })
    assert got == LangForm(frozenset({("a", "b"), ("a", "c")}))

    nf = CTH.normalize(App("*", (Const("c", 2), Var("v"))))
    assert quotient_mu(CTH, Var("leaf"), {"leaf": nf}) == nf

    doubled = App("+", (Var("p"), Var("p")))
    got = quotient_mu(CTH, doubled, {"p": nf})
    assert got == PolyForm(Poly.const(4) * Poly.atom("v"))


def test_generic_search_never_contradicts_builtin():
    for builtin, sig, terms in ((CTH, CSIG, cterms), (ITH, ISIG, iterms)):
        search = Theory("generic", sig, builtin.schemes,
                        max_depth=3, max_visited=1500)
        sample = terms[::7]
        for t in sample:
            rep = builtin.representative(builtin.normalize(t))
            assert search.equiv(t, rep).equiv is not Equiv.DISTINCT
        for t, s in zip(sample, sample[1:]):
            answer = search.equiv(t, s).equiv
            if answer is Equiv.EQUAL:
                assert builtin.equiv(t, s).equiv is Equiv.EQUAL
            elif answer is Equiv.DISTINCT:
                assert builtin.equiv(t, s).equiv is Equiv.DISTINCT


def test_generic_distinct_needs_exhausted_classes():
    sig = Signature((("n1", 0), ("n2", 0), ("n3", 0)))
    th = generic_theory(sig, (EquationScheme("zeros", (), App("n1"), App("n2")),))
    assert th.equiv(App("n1"), App("n2")).equiv is Equiv.EQUAL
    assert th.equiv(App("n1"), App("n3")).equiv is Equiv.DISTINCT
    assert th.normalize(App("n2")) == TermForm(App("n1"))


def test_rewriting_separates_when_search_cannot():
    # v = f(f(v)) read left to right grows every term, so the search never
    # exhausts a class; read right to left it is a convergent rule.
    sig = Signature((("f", 1), ("a", 0)))
    grow = EquationScheme("grow", ("v",), Var("v"),
                          App("f", (App("f", (Var("v"),)),)))
    a, fa = App("a"), App("f", (App("a"),))
    th = generic_theory(sig, (grow,))
    answer = th.equiv(a, fa)
    assert answer.equiv is Equiv.DISTINCT
    assert (answer.reason, answer.values) == ("normal forms differ", ())
    assert th.equiv(a, App("f", (fa,))).equiv is Equiv.EQUAL
    assert th.normalize(App("f", (App("f", (fa,)),))) == TermForm(fa)
    # The search alone leaves the pair open, and says why.
    search = th._search_answer(a, fa, {})
    assert search.equiv is Equiv.UNKNOWN
    assert search.reason == ("left side: depth bound 5 reached at 6 terms; "
                             "right side: depth bound 5 reached at 6 terms")


def test_match_a_deep_pattern():
    pattern, term = Var("v"), App("*", (App("X"), App("X")))
    for _ in range(2000):
        pattern = App("+", (pattern, Var("u")))
        term = App("+", (term, App("X")))
    assert _match(pattern, term, {}) == {"v": App("*", (App("X"), App("X"))),
                                         "u": App("X")}
    # u is bound at the deepest position first; the root's differs.
    assert _match(pattern, App("+", (term.args[0], Var("u"))), {}) is None


def test_free_theory_normalizes_deep_terms():
    deep = Var("v")
    for _ in range(10_000):
        deep = App("+", (deep, App("X")))
    memo: dict = {}
    assert free_theory(CSIG).normalize(deep, memo) == TermForm(deep)
    assert memo == {}  # every term is normal: nothing is walked


def test_free_theory_separates_all_distinct_terms():
    fth = free_theory(ISIG)
    assert fth.equiv(Var("v"), Var("u")).equiv is Equiv.DISTINCT
    assert fth.equiv(Var("v"), Var("v")).equiv is Equiv.EQUAL


def instantiate(scheme, assignment):
    return substitute(scheme.lhs, assignment), substitute(scheme.rhs, assignment)


def test_instantiate_scheme():
    plus_unit = EquationScheme("plus-unit", ("x",),
                               App("+", (Var("x"), App("0"))), Var("x"))
    vw = App("*", (Var("v"), Var("w")))
    lhs, rhs = instantiate(plus_unit, {"x": vw})
    assert lhs == App("+", (vw, App("0")))
    assert rhs == vw

    comm = EquationScheme("plus-comm", ("x", "y"),
                          App("+", (Var("x"), Var("y"))),
                          App("+", (Var("y"), Var("x"))))
    lhs, rhs = instantiate(comm, {"x": Var("a"), "y": Var("b")})
    assert lhs == App("+", (Var("a"), Var("b")))
    assert rhs == App("+", (Var("b"), Var("a")))

    identity = {"x": Var("x"), "y": Var("y")}
    assert instantiate(comm, identity) == (comm.lhs, comm.rhs)


def test_signature_requirements():
    with pytest.raises(NotInTheorySignature):
        commutative_semiring(ISIG)  # no constant family
    with pytest.raises(NotInTheorySignature):
        idempotent_semiring(CSIG)  # missing 0 and 1
    with pytest.raises(NotInTheorySignature):
        ITH.normalize(Const("c", 1))
    with pytest.raises(NotInTheorySignature):
        CTH.normalize(App("f", (Var("v"),)))


# --------------------------------- the generic search against its reference
#
# The reference search is written for clarity: every position is reached
# from the root with positions, subterm_at and replace_at, each scheme is
# matched afresh, and one-step results are a set.


def reference_match(pattern, term, metavars, binding=None):
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
        binding = reference_match(p, t, metavars, binding)
        if binding is None:
            return None
    return binding


def reference_one_step(th, term):
    out = set()
    complete = True
    for pos in positions(term):
        sub = subterm_at(term, pos)
        for scheme in th.schemes:
            for pat, other in ((scheme.lhs, scheme.rhs),
                               (scheme.rhs, scheme.lhs)):
                binding = reference_match(pat, sub, set(scheme.metavars))
                if binding is None:
                    continue
                if not set(variables(other)) <= set(binding):
                    complete = False
                    continue
                out.add(replace_at(term, pos, substitute(other, binding)))
    out.discard(term)
    return out, complete


def reference_explore(th, term, one_step=reference_one_step):
    seen = {term}
    frontier = [term]
    exhausted = True
    for _ in range(th.max_depth):
        if not frontier:
            break
        new = []
        for t in frontier:
            steps, complete = one_step(th, t)
            if not complete:
                exhausted = False
            for s in steps:
                if s not in seen:
                    seen.add(s)
                    new.append(s)
            if len(seen) > th.max_visited:
                exhausted = False
                new = []
                break
        frontier = new
    if frontier:
        exhausted = False
    return frozenset(seen), exhausted


small_cterms = list(enumerate_terms(CSIG, {"v", "u"}, 5))
small_iterms = list(enumerate_terms(ISIG, {"v", "u"}, 5))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(small_cterms + small_iterms))
def test_one_step_matches_the_reference(term):
    builtin = CTH if term in small_cterms else ITH
    search = generic_theory(builtin.signature, builtin.schemes)
    steps, complete = search._one_step(term, {})
    assert (set(steps), complete) == reference_one_step(search, term)
    assert len(steps) == len(set(steps))


# The commutative axioms never exhaust a class (times-zero read backwards
# is skipped); associativity and commutativity alone leave finite classes.
AC_SCHEMES = tuple(s for s in CTH.schemes
                   if s.name in ("plus-assoc", "plus-comm", "times-assoc",
                                 "times-comm"))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(small_cterms + small_iterms), st.data())
def test_one_step_generates_in_the_order_of_the_position_walk(term, data):
    builtin = CTH if term in small_cterms else ITH
    schemes = data.draw(st.lists(st.sampled_from(builtin.schemes),
                                 unique_by=lambda s: s.name, max_size=6))
    search = generic_theory(builtin.signature, tuple(schemes))
    steps, complete = search._one_step(term, {})
    want, want_complete = position_walk(search, term)
    assert (list(steps), complete) == (list(want), want_complete)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(small_cterms), st.sampled_from([CTH.schemes, AC_SCHEMES]),
       st.integers(1, 3), st.sampled_from([20, 10_000]))
def test_explore_matches_the_reference(term, schemes, depth, max_visited):
    search = generic_theory(CSIG, schemes, max_depth=depth,
                            max_visited=max_visited)
    cls, cut = search._explore(term)
    exhausted = cut is None
    want_cls, want_exhausted = reference_explore(search, term)
    assert exhausted == want_exhausted
    normal = search.normalize(term)
    if len(want_cls) <= max_visited:
        assert cls == want_cls
    else:
        # Cut off at max_visited: which members were reached depends on
        # the order the frontier is walked, so the class is the one the
        # search in generation order reaches, and within the bounds.
        assert len(cls) > max_visited and not exhausted
        want_cls, _ = reference_explore(search, term, position_walk)
        assert cls == want_cls
        unbounded = generic_theory(CSIG, schemes, max_depth=depth)
        assert cls <= reference_explore(unbounded, term)[0]
    assert normal == TermForm(min(want_cls, key=term_sort_key))


def test_one_step_on_a_deep_term_builds_a_few_nodes_per_level(monkeypatch):
    # g(v) = v steps g^2000(a) to g^1999(a) and g^2001(a).  Rebuilding the
    # spine above each of the 4000 rewrites builds about 4,000,000 nodes.
    unit = EquationScheme("g-unit", ("v",), App("g", (Var("v"),)), Var("v"))
    search = generic_theory(Signature((("a", 0), ("g", 1))), (unit,))
    chain = [App("a")]
    for _ in range(2001):
        chain.append(App("g", (chain[-1],)))
    built = 0
    new = App.__new__

    def counting(cls, *args):
        nonlocal built
        built += 1
        return new(cls, *args)

    monkeypatch.setattr(App, "__new__", counting)
    steps, complete = search._one_step(chain[2000], {})
    assert (list(steps), complete) == ([chain[1999], chain[2001]], True)
    assert built <= 10 * 2000


def test_explore_exhausts_finite_classes():
    term = App("+", (Var("v"), App("*", (Var("u"), App("X")))))
    search = generic_theory(CSIG, AC_SCHEMES, max_depth=5)
    cls, cut = search._explore(term)
    assert cut is None and len(cls) == 4
    assert (cls, True) == reference_explore(search, term)


# ------------------------------------------------- the rewriting route

# Each commutative axiom that orients into a size-decreasing rule, alone:
# small search bounds keep the oracle quick, and the route ignores them.
ORIENTED = tuple(generic_theory(CSIG, (s,), max_depth=3, max_visited=300)
                 for s in CTH.schemes
                 if s.name in ("plus-unit", "times-unit", "times-zero",
                               "distrib"))


def test_exactly_four_commutative_axioms_orient():
    routes = {s.name: generic_theory(CSIG, (s,))._convergent is not None
              for s in CTH.schemes}
    assert [name for name, rewrites in routes.items() if rewrites] == \
        ["plus-unit", "times-unit", "distrib", "times-zero"]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ORIENTED), st.sampled_from(small_cterms), st.data())
def test_rewriting_never_contradicts_the_search(th, term, data):
    cls, cut = th._explore(term, {})
    # A partner from the term's searched class, or any small term.
    other = data.draw(st.sampled_from(sorted(cls, key=term_sort_key))
                      | st.sampled_from(small_cterms))
    search = th._search_answer(term, other, {})
    rewriting = th.equiv(term, other).equiv
    if search.equiv is Equiv.EQUAL:
        assert rewriting is Equiv.EQUAL
    elif search.equiv is Equiv.DISTINCT:
        assert rewriting is Equiv.DISTINCT
    if cut is None:
        assert th.normalize(term) == TermForm(min(cls, key=term_sort_key))


def test_rewriting_falls_back_when_fresh_values_coincide():
    # [2*b_r] and [b_r + 2] are distinct normal forms, but b_r's fresh
    # value 2 (times-unit mentions 1) makes both [4], so no witness
    # exists and the search decides, with the caller's memo still
    # holding normal forms for later calls.
    (times_unit,) = [th for th in ORIENTED
                     if th.schemes[0].name == "times-unit"]
    b = Poly.atom("b_r")
    twice, shifted = Const("c", Poly.const(2) * b), Const("c", b + 2)
    memo: dict = {}
    answer = times_unit.equiv(twice, shifted, memo)
    assert answer.equiv is Equiv.UNKNOWN
    assert answer.reason.startswith("left side: ")
    assert times_unit.normalize(twice, memo) == TermForm(twice)
    assert times_unit.equiv(twice, shifted, memo) == answer


def test_a_non_confluent_pair_stays_on_the_search():
    # f(g(v)) -> v and g(h(v)) -> h(v) both shrink terms, but f(g(h(x)))
    # rewrites to h(x) and to f(h(x)), two normal forms of one class.
    sig = Signature((("f", 1), ("g", 1), ("h", 1)))
    v, x = Var("v"), Var("x")
    th = generic_theory(sig, (
        EquationScheme("fg", ("v",), App("f", (App("g", (v,)),)), v),
        EquationScheme("gh", ("v",), App("g", (App("h", (v,)),)),
                       App("h", (v,)))))
    assert th._convergent is None
    hx = App("h", (x,))
    assert th.equiv(hx, App("f", (hx,))).equiv is Equiv.EQUAL


RSIG = Signature((("f", 1), ("g", 1), ("h", 2), ("a", 0)))


def _chain(symbol, n, term):
    for _ in range(n):
        term = App(symbol, (term,))
    return term


# Rule sides over RSIG, with runs of one-argument applications up to 12
# deep, which the critical-pair check passes in one step.
RULE_SIDES = st.recursive(
    st.sampled_from([Var("x"), Var("y"), App("a")]),
    lambda inner: st.one_of(
        st.builds(lambda s, t: App(s, (t,)), st.sampled_from("fg"), inner),
        st.builds(lambda t, u: App("h", (t, u)), inner, inner),
        st.builds(_chain, st.sampled_from("fg"), st.integers(2, 12), inner)),
    max_leaves=5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(RULE_SIDES, RULE_SIDES), min_size=1, max_size=3))
def test_the_critical_pair_check_matches_the_reference(pairs):
    rules = [_orient(a, b) or _orient(b, a) for a, b in pairs]
    assume(all(rules))
    th = generic_theory(RSIG, tuple(
        EquationScheme(f"r{i}", variables(lhs), lhs, rhs)
        for i, (lhs, rhs) in enumerate(rules)))
    assert (th._convergent is not None) == reference_convergent(rules)
