"""Equational theories and their canonical normal forms.

Oracles: commutative-semiring terms are evaluated as rational functions at
sample points; idempotent-semiring terms as finite languages by a direct
set-valued recursion.  Normal forms must denote the same function or the
same language, and the generic bounded search must never contradict the
builtin normalizers.
"""

import itertools
from fractions import Fraction

import pytest

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
)
from lawbench.theories import (
    EquationScheme,
    Equiv,
    FiniteModel,
    LangForm,
    PolyForm,
    TermForm,
    Theory,
    commutative_semiring,
    free_theory,
    generic_theory,
    idempotent_semiring,
    instantiate_scheme,
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
    assert CTH.normalize(Var("v")) == CTH.unit("v") == PolyForm(Poly.atom("v"))
    assert ITH.normalize(Var("v")) == ITH.unit("v") == LangForm(frozenset({("v",)}))


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
    assert CTH.equiv(lhs, Const("c", 6)) is Equiv.EQUAL
    both = App("+", (Const("c", 2), Const("c", 3)))
    assert CTH.equiv(both, Const("c", 5)) is Equiv.EQUAL


def test_idempotence():
    xy = App("*", (Var("x"), Var("y")))
    assert ITH.equiv(App("+", (xy, xy)), xy) is Equiv.EQUAL


def test_builtin_equiv_is_total():
    for t, s in itertools.islice(itertools.combinations(cterms, 2), 300):
        assert CTH.equiv(t, s) in (Equiv.EQUAL, Equiv.DISTINCT)
    for t, s in itertools.islice(itertools.combinations(iterms, 2), 300):
        assert ITH.equiv(t, s) in (Equiv.EQUAL, Equiv.DISTINCT)


def test_representative_is_a_section():
    # normalize(representative(nf)) == nf, and the representative is
    # congruent to the original term
    for th, terms in ((CTH, cterms), (ITH, iterms)):
        for t in terms:
            nf = th.normalize(t)
            assert th.normalize(th.representative(nf)) == nf
            assert th.equiv(t, th.representative(nf)) is Equiv.EQUAL


def test_equiv_is_a_congruence_on_samples():
    for th, terms in ((CTH, cterms[:40]), (ITH, iterms[:40])):
        for t in terms:
            s = th.representative(th.normalize(t))
            for op in ("+", "*"):
                assert th.equiv(App(op, (t, t)), App(op, (s, s))) is Equiv.EQUAL


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
            assert th.quotient_mu(outer, leaves) == th.normalize(flat)


def test_quotient_mu_frozen_examples():
    concat = App("*", (Var("L1"), Var("L2")))
    got = ITH.quotient_mu(concat, {
        "L1": LangForm(frozenset({("a",)})),
        "L2": LangForm(frozenset({("b",), ("c",)})),
    })
    assert got == LangForm(frozenset({("a", "b"), ("a", "c")}))

    nf = CTH.normalize(App("*", (Const("c", 2), Var("v"))))
    assert CTH.quotient_mu(Var("leaf"), {"leaf": nf}) == nf

    doubled = App("+", (Var("p"), Var("p")))
    got = CTH.quotient_mu(doubled, {"p": nf})
    assert got == PolyForm(Poly.const(4) * Poly.atom("v"))


def test_generic_search_never_contradicts_builtin():
    for builtin, sig, terms in ((CTH, CSIG, cterms), (ITH, ISIG, iterms)):
        search = Theory("generic", sig, builtin.schemes,
                        max_depth=3, max_visited=1500)
        sample = terms[::7]
        for t in sample:
            rep = builtin.representative(builtin.normalize(t))
            assert search.equiv(t, rep) is not Equiv.DISTINCT
        for t, s in zip(sample, sample[1:]):
            answer = search.equiv(t, s)
            if answer is Equiv.EQUAL:
                assert builtin.equiv(t, s) is Equiv.EQUAL
            elif answer is Equiv.DISTINCT:
                assert builtin.equiv(t, s) is Equiv.DISTINCT


def test_generic_distinct_needs_exhausted_classes():
    sig = Signature((("n1", 0), ("n2", 0), ("n3", 0)))
    th = generic_theory(sig, (EquationScheme("zeros", (), App("n1"), App("n2")),))
    assert th.equiv(App("n1"), App("n2")) is Equiv.EQUAL
    assert th.equiv(App("n1"), App("n3")) is Equiv.DISTINCT
    assert th.normalize(App("n2")) == TermForm(App("n1"))


def test_finite_model_separates_when_search_cannot():
    sig = Signature((("f", 1), ("a", 0)))
    grow = EquationScheme("grow", ("v",), Var("v"),
                          App("f", (App("f", (Var("v"),)),)))
    blind = generic_theory(sig, (grow,))
    assert blind.equiv(App("a"), App("f", (App("a"),))) is Equiv.UNKNOWN

    parity = FiniteModel(
        carrier=(0, 1),
        ops={"f": lambda x: 1 - x, "a": lambda: 0},
    )
    sighted = generic_theory(sig, (grow,), model=parity)
    assert sighted.equiv(App("a"), App("f", (App("a"),))) is Equiv.DISTINCT


def test_free_theory_separates_all_distinct_terms():
    fth = free_theory(ISIG)
    assert fth.equiv(Var("v"), Var("u")) is Equiv.DISTINCT
    assert fth.equiv(Var("v"), Var("v")) is Equiv.EQUAL


def test_instantiate_scheme():
    plus_unit = EquationScheme("plus-unit", ("x",),
                               App("+", (Var("x"), App("0"))), Var("x"))
    vw = App("*", (Var("v"), Var("w")))
    lhs, rhs = instantiate_scheme(plus_unit, {"x": vw})
    assert lhs == App("+", (vw, App("0")))
    assert rhs == vw

    comm = EquationScheme("plus-comm", ("x", "y"),
                          App("+", (Var("x"), Var("y"))),
                          App("+", (Var("y"), Var("x"))))
    lhs, rhs = instantiate_scheme(comm, {"x": Var("a"), "y": Var("b")})
    assert lhs == App("+", (Var("a"), Var("b")))
    assert rhs == App("+", (Var("b"), Var("a")))

    identity = {"x": Var("x"), "y": Var("y")}
    assert instantiate_scheme(comm, identity) == (comm.lhs, comm.rhs)


def test_signature_requirements():
    with pytest.raises(NotInTheorySignature):
        commutative_semiring(ISIG)  # no constant family
    with pytest.raises(NotInTheorySignature):
        idempotent_semiring(CSIG)  # missing 0 and 1
    with pytest.raises(NotInTheorySignature):
        ITH.normalize(Const("c", 1))
    with pytest.raises(NotInTheorySignature):
        CTH.normalize(App("f", (Var("v"),)))
