"""The quotient law against the term path it must equal.

The reference steps a normal form the way the definition reads: take the
canonical representative, extend the rule table over it, normalise each
successor.  Under a pointwise ``+`` rule ``QuotientStepper`` never
builds those terms: it adds up its summands' steps.  For every rule
table, certified or not, pointwise or not, its steps must agree with the
reference, and so must its errors.
"""

from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from lawbench.behaviour import BOOL_OUTPUTS, RATIONAL_OUTPUTS, Step
from lawbench.cfg import cfg_law, cfg_theory, to_corec
from lawbench.dsl import load
from lawbench.errors import NotInTheorySignature, UnboundVariable
from lawbench.gsos import (
    DistLaw,
    QuotientStepper,
    extend_lambda,
    pointwise_plus,
)
from lawbench.solver import (
    behaviour_table,
    operational_model,
    stream_prefix,
    unfold,
)
from lawbench.terms import (
    App,
    Const,
    ConstantFamily,
    Signature,
    Var,
    format_term,
)

from conftest import example
from oracles import plain_walk

STREAM = load(example("stream.dsl"))
CONVOLUTION = load(example("convolution.dsl"))
CFG_THEORY = cfg_theory()
CFG_LAW = cfg_law(("a", "b"))

LEAVES = ("v", "u", "w")


def reference_step(th, law, nf, env) -> Step:
    _, step = extend_lambda(law, th.representative(nf), env)
    return Step.of(step.output,
                   {l: th.normalize(s) for l, s in step.moves.items()})


def assert_same_step(law, left: Step, right: Step) -> None:
    assert law.outputs.equal(left.output, right.output)
    assert left.moves == right.moves


# ------------------------------------------------------------- strategies


def semiring_terms(leaves, units):
    """Sums and products over the leaves and the theory's units."""
    return st.recursive(
        st.sampled_from([Var(x) for x in leaves] + units),
        lambda sub: st.builds(lambda op, l, r: App(op, (l, r)),
                              st.sampled_from(["+", "*"]), sub, sub),
        max_leaves=6,
    )


SCALARS = [Const("c", Fraction(n, d)) for n, d in ((0, 1), (1, 1), (2, 1),
                                                   (-1, 2), (3, 1))]
stream_terms = semiring_terms(LEAVES, [App("X")] + SCALARS)
stream_successors = semiring_terms(("d1", "d2"), [App("X")] + SCALARS)
language_terms = semiring_terms(LEAVES, [App("0"), App("1")])
language_successors = semiring_terms(("d1", "d2"), [App("0"), App("1")])

rational_outputs = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)]),
    st.sampled_from(["b_v", "b_u"]).map(RATIONAL_OUTPUTS.atom),
)


def stream_env():
    leaf = st.tuples(st.sampled_from([Var("x1"), Var("x2"), App("X")]),
                     rational_outputs, stream_successors)
    return st.fixed_dictionaries({
        x: leaf.map(lambda obs: (obs[0], Step.of(obs[1], {"t": obs[2]})))
        for x in LEAVES})


def language_env():
    leaf = st.tuples(st.sampled_from([Var("x1"), Var("x2"), App("1")]),
                     st.sampled_from([0, 1]),
                     language_successors, language_successors)
    return st.fixed_dictionaries({
        x: leaf.map(lambda obs: (obs[0],
                                 Step.of(obs[1], {"a": obs[2], "b": obs[3]})))
        for x in LEAVES})


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("wb", [STREAM, CONVOLUTION],
                         ids=["stream", "convolution"])
@given(terms=st.lists(stream_terms, min_size=1, max_size=4), env=stream_env())
def test_stepper_equals_the_term_path_on_polynomials(wb, terms, env):
    th, law = wb.theory, wb.law
    stepper = QuotientStepper(th, law, env)  # one cache across the forms
    for term in terms:
        nf = th.normalize(term)
        assert_same_step(law, stepper.step(nf),
                         reference_step(th, law, nf, env))


@given(terms=st.lists(language_terms, min_size=1, max_size=4),
       env=language_env())
def test_stepper_equals_the_term_path_on_languages(terms, env):
    stepper = QuotientStepper(CFG_THEORY, CFG_LAW, env)
    for term in terms:
        nf = CFG_THEORY.normalize(term)
        assert_same_step(CFG_LAW, stepper.step(nf),
                         reference_step(CFG_THEORY, CFG_LAW, nf, env))


@pytest.mark.parametrize("wb", [STREAM, CONVOLUTION],
                         ids=["stream", "convolution"])
@given(term=semiring_terms(("ones",), [App("X")] + SCALARS),
       n=st.integers(min_value=0, max_value=8))
def test_stream_prefix_equals_unfolding_through_representatives(wb, term, n):
    sys = wb.system
    th, letter = sys.theory, sys.law.alphabet[0]
    expected, state = [], term
    for _ in range(n):
        step = operational_model(sys, state)
        expected.append(sys.law.outputs.concrete(step.output))
        state = th.representative(th.normalize(step.next(letter)))
    assert stream_prefix(sys, term, n) == expected


# Systems without a theory, with the units their start terms draw from.
PLAIN = {
    "stream": (replace(STREAM.system, theory=None), [App("X")] + SCALARS),
    "convolution": (replace(CONVOLUTION.system, theory=None),
                    [App("X")] + SCALARS),
    "cfg": (replace(to_corec(load(example("cfg.dsl")).grammar), theory=None),
            [App("0"), App("1")]),
}


@pytest.mark.parametrize("name", PLAIN)
@given(data=st.data())
def test_a_system_without_a_theory_runs_as_plain_unfolding(name, data):
    # The free theory's normal forms are the terms themselves.
    sys, units = PLAIN[name]
    term = data.draw(semiring_terms(sys.variables, units))
    walk = plain_walk(sys, term, 3)
    table = behaviour_table(sys, term, 3)
    assert list(table.items()) == [(w, out) for w, (out, _) in walk.items()]
    for word, (out, state) in walk.items():
        output, final = unfold(sys, term, word)
        assert (output, format_term(final)) == (out, format_term(state))
    if len(sys.law.alphabet) == 1:
        letter = sys.law.alphabet[0]
        assert stream_prefix(sys, term, 4) == \
            [walk[(letter,) * k][0] for k in range(4)]


# ------------------------------------------------- the shape of the + rule


def with_plus_rule(law, output=None, successor=None) -> DistLaw:
    """``law`` with its ``+`` rule's output or successor replaced."""
    def changed(rule):
        if rule.symbol != "+":
            return rule
        return replace(rule, output=output or rule.output,
                       next=successor if successor else rule.next)
    rules = tuple(map(changed, law.rules))
    return replace(law, rules=rules)


def plus(left, right):
    return App("+", (left, right))


X, Y, DX, DY = Var("x"), Var("y"), Var("dx"), Var("dy")
A, B, OX, OY = Var("a"), Var("b"), Var("ox"), Var("oy")

POLY_VARIANTS = {
    "x + x * y": (with_plus_rule(STREAM.law, successor=plus(
        X, App("*", (X, Y)))), None),
    "out a * b": (with_plus_rule(STREAM.law, output=App("*", (A, B))),
                  None),
    "b + a, y + x": (with_plus_rule(STREAM.law, output=App("+", (B, A)),
                                    successor=plus(Y, X)), "+"),
}
LANGUAGE_VARIANTS = {
    "max(oy, ox)": (with_plus_rule(CFG_LAW, output=App("max", (OY, OX))),
                    "max"),
    "out min": (with_plus_rule(CFG_LAW, output=App("min", (OX, OY))),
                None),
    "dx + dx * dy": (with_plus_rule(CFG_LAW, successor=plus(
        DX, App("*", (DX, DY)))), None),
}


def test_the_bundled_plus_rules_are_pointwise():
    balanced = load(example("balanced.dsl"))
    cfg = load(example("cfg.dsl"))
    for law, op in ((STREAM.law, "+"), (CONVOLUTION.law, "+"),
                    (cfg.law, "max"), (balanced.law, "max"),
                    (CFG_LAW, "max")):
        assert pointwise_plus(law) == op


@pytest.mark.parametrize("variant", POLY_VARIANTS)
@given(terms=st.lists(stream_terms, min_size=1, max_size=4), env=stream_env())
def test_other_plus_rules_on_polynomials_equal_the_term_path(variant, terms,
                                                             env):
    law, op = POLY_VARIANTS[variant]
    assert pointwise_plus(law) == op
    th = STREAM.theory
    stepper = QuotientStepper(th, law, env)
    for term in terms:
        nf = th.normalize(term)
        assert_same_step(law, stepper.step(nf),
                         reference_step(th, law, nf, env))


@pytest.mark.parametrize("variant", LANGUAGE_VARIANTS)
@given(terms=st.lists(language_terms, min_size=1, max_size=4),
       env=language_env())
def test_other_plus_rules_on_languages_equal_the_term_path(variant, terms,
                                                           env):
    law, op = LANGUAGE_VARIANTS[variant]
    assert pointwise_plus(law) == op
    stepper = QuotientStepper(CFG_THEORY, law, env)
    for term in terms:
        nf = CFG_THEORY.normalize(term)
        assert_same_step(law, stepper.step(nf),
                         reference_step(CFG_THEORY, law, nf, env))


def test_the_empty_forms_step_like_their_representatives():
    # Under every + rule, pointwise or not, and twice per stepper, so the
    # second step of the empty form comes from the cache.
    laws = [(STREAM.theory, STREAM.law), (CFG_THEORY, CFG_LAW)]
    laws += [(STREAM.theory, law) for law, _ in POLY_VARIANTS.values()]
    laws += [(CFG_THEORY, law) for law, _ in LANGUAGE_VARIANTS.values()]
    for th, law in laws:
        zero = Const("c", 0) if th.family is not None else App("0")
        one = Const("c", 1) if th.family is not None else App("1")
        stepper = QuotientStepper(th, law, {})
        for unit in (zero, one, zero):
            nf = th.normalize(unit)
            assert_same_step(law, stepper.step(nf),
                             reference_step(th, law, nf, {}))


# ------------------------------------------------------------ error parity


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def test_an_unbound_leaf_raises_like_the_term_path():
    th, law = STREAM.theory, STREAM.law
    env = {"v": (Var("v"), Step.of(1, {"t": Var("v")}))}
    nf = th.normalize(App("*", (Var("v"), Var("ghost"))))
    got = raised(lambda: QuotientStepper(th, law, env).step(nf))
    assert got == raised(lambda: reference_step(th, law, nf, env))
    assert got[0] is UnboundVariable
    nf = CFG_THEORY.normalize(App("+", (Var("ghost"), App("1"))))
    assert raised(lambda: QuotientStepper(CFG_THEORY, CFG_LAW, {}).step(nf)) \
        == raised(lambda: reference_step(CFG_THEORY, CFG_LAW, nf, {}))


@pytest.mark.parametrize("successor, message", [
    (App("+", (App("f", (Var("x"),)), Var("y"))),
     "symbol 'f' has no commutative-semiring meaning"),
    (App("+", (Const("d", 0), Var("y"))),
     "family 'd' not part of this theory"),
])
def test_a_successor_outside_the_semiring_raises_folds_error(successor,
                                                             message):
    # The rule table runs over a larger signature than the theory: its
    # sum rule steps into a symbol, or a family, the theory cannot fold.
    law = STREAM.law
    sig = Signature(law.signature.ops + (("f", 1),),
                    law.signature.families + (ConstantFamily("d"),))
    rules = tuple(replace(r, next=successor) if r.symbol == "+" else r
                  for r in law.rules)
    wide = DistLaw(sig, rules, law.alphabet, law.outputs)
    th = STREAM.theory
    env = {x: (Var(x), Step.of(1, {"t": Var(x)})) for x in ("v", "u")}
    nf = th.normalize(App("+", (Var("v"), Var("u"))))
    got = raised(lambda: QuotientStepper(th, wide, env).step(nf))
    assert got == raised(lambda: reference_step(th, wide, nf, env))
    assert got == (NotInTheorySignature, message)


def test_language_constants_are_not_in_the_idempotent_semiring():
    # cfg_law's signature has no family; give its union rule one.
    sig = Signature(CFG_LAW.signature.ops, (ConstantFamily("c"),))
    rules = tuple(replace(r, next=App("+", (Const("c", 1), Var("dy"))))
                  if r.symbol == "+" else r for r in CFG_LAW.rules)
    law = DistLaw(sig, rules, CFG_LAW.alphabet, BOOL_OUTPUTS)
    env = {x: (Var(x), Step.of(0, {"a": Var(x), "b": App("0")}))
           for x in ("v", "u")}
    nf = CFG_THEORY.normalize(App("+", (Var("v"), Var("u"))))
    got = raised(lambda: QuotientStepper(CFG_THEORY, law, env).step(nf))
    assert got == raised(lambda: reference_step(CFG_THEORY, law, nf, env))
    assert got == (NotInTheorySignature, "idempotent-semiring terms "
                   "cannot contain indexed constants")


def test_a_generic_theory_is_searched_once_per_term_in_a_run(monkeypatch):
    # Three-zeros' n1 = n2 does not orient, so normalising n2, and then
    # its successor n1, searches their class {n1, n2} from each: two
    # one-step calls a search.  The stepper's memo keeps both searches
    # for its run, however long; nothing keeps them past the run.
    zeros = load(example("three-zeros.dsl"))
    th, law = zeros.theory, zeros.law
    calls = 0
    one_step = type(th)._one_step

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return one_step(self, *args)

    monkeypatch.setattr(type(th), "_one_step", counting)
    for _ in range(2):
        stepper = QuotientStepper(th, law, {})
        state = th.normalize(App("n2"), stepper.memo)
        for _ in range(5):
            state = stepper.step(state).next("t")
        assert state == th.normalize(App("n1"))
    assert calls == 2 * (2 * 2 + 2)
