"""Rule tables and their extension to whole terms.

The extension must be the structural one: unit on leaves, compatible with
substitution, identity on the copointed state component.  Frozen values
below were derived by instantiating the stream rules by hand.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from lawbench.behaviour import BOOL_OUTPUTS, RATIONAL_OUTPUTS, Step
from lawbench.dsl import load
from lawbench.errors import (
    MissingRule,
    PlaceholderViolation,
    SymbolicCaseSplit,
    UnknownSymbol,
)
from lawbench.gsos import (
    ArgObs,
    CaseSplit,
    DistLaw,
    GsosSpec,
    Plain,
    QuotientStepper,
    Rule,
    eval_out,
    extend_lambda,
)
from lawbench.terms import (
    App,
    Const,
    Var,
    enumerate_terms,
    format_term,
    substitute,
)
from lawbench.theories import Equiv, free_theory

from conftest import example
from oracles import morphism_square_check

# ---------------------------------------------------------------- fixtures

STREAM = load(example("stream.dsl"))
CFG = load(example("cfg.dsl"))
ZEROS = load(example("three-zeros.dsl"))

# hand instantiation of the product rule at [2] x [3]:
# both factors observe <value, [0]>, so the successor template
# x*[b] + x*X*y + [a]*y becomes the term below with a=2, b=3
PRODUCT_23_NEXT = "[0] * [3] + [0] * X * [0] + [2] * [0]"


def stream_leaf(name: str):
    alg = RATIONAL_OUTPUTS
    return (Var(f"x_{name}"),
            Step.of(alg.atom(f"b_{name}"), {"t": Var(f"d_{name}")}))


def stream_env(*names):
    return {name: stream_leaf(name) for name in names}

# ------------------------------------------------------------------ tests


def test_unit_law_on_a_single_leaf():
    env = stream_env("v")
    assert extend_lambda(STREAM.law, Var("v"), env) == env["v"]


def test_copointed_component_replaces_leaves_by_states():
    env = stream_env("v", "u")
    states = {name: pair[0] for name, pair in env.items()}
    for t in enumerate_terms(STREAM.signature, {"v", "u"}, 4):
        state, _ = extend_lambda(STREAM.law, t, env)
        assert state == substitute(t, {x: states.get(x, Var(x))
                                       for x in ("v", "u")})


def test_product_of_constants_frozen():
    t = App("*", (Const("c", 2), Const("c", 3)))
    state, step = extend_lambda(STREAM.law, t, {})
    alg = STREAM.law.outputs
    assert state == t
    assert alg.concrete(step.output) == 6
    assert format_term(step.next("t")) == PRODUCT_23_NEXT


def test_concatenation_observes_only_the_head_when_it_rejects_eps():
    # x . (y + z) where x cannot generate the empty word: output is 0 and
    # the derivative keeps the whole tail untouched, whatever bits y and z
    # output
    alg = BOOL_OUTPUTS
    for p, q in itertools.product((0, 1), repeat=2):
        env = {
            "x": (Var("x"), Step.of(0, {"a": Var("dx_a"), "b": Var("dx_b")})),
            "y": (Var("y"), Step.of(p, {"a": Var("dy_a"), "b": Var("dy_b")})),
            "z": (Var("z"), Step.of(q, {"a": Var("dz_a"), "b": Var("dz_b")})),
        }
        t = App("*", (Var("x"), App("+", (Var("y"), Var("z")))))
        _, step = extend_lambda(CFG.law, t, env)
        assert alg.concrete(step.output) == 0
        assert format_term(step.next("a")) == "dx_a * (y + z)"
        assert format_term(step.next("b")) == "dx_b * (y + z)"


def test_multiplication_law():
    # extending the flattened term equals flattening the two-stage
    # extension, for every small outer/inner combination
    law = STREAM.law
    env = stream_env("z1", "z2")
    inners = list(enumerate_terms(STREAM.signature, {"z1", "z2"}, 3))
    outers = list(enumerate_terms(STREAM.signature, {"p", "q"}, 3))
    for outer in outers:
        for inner_p, inner_q in zip(inners, reversed(inners)):
            pieces = {"p": extend_lambda(law, inner_p, env),
                      "q": extend_lambda(law, inner_q, env)}
            flat = substitute(outer, {"p": inner_p, "q": inner_q})
            assert extend_lambda(law, flat, env) == \
                extend_lambda(law, outer, pieces)


def test_quotient_step_is_representative_independent():
    law, th = STREAM.law, STREAM.theory
    alg = law.outputs

    def quotient_step(term, env):
        _, step = extend_lambda(law, term, env)
        return Step.of(step.output, {l: th.normalize(s) for l, s in step.moves})

    five_a = App("+", (Const("c", 2), Const("c", 3)))
    five_b = Const("c", 5)
    assert th.equiv(five_a, five_b) is Equiv.EQUAL
    direct = quotient_step(five_a, {})
    via_nf = QuotientStepper(th, law, {}).step(th.normalize(five_a))
    assert alg.equal(direct.output, via_nf.output)
    assert direct.next("t") == via_nf.next("t")
    assert quotient_step(five_b, {}) == direct

    env = stream_env("v", "u")
    pairs = 0
    for t in enumerate_terms(STREAM.signature, {"v", "u"}, 4):
        rep = th.representative(th.normalize(t))
        if rep == t:
            continue
        assert quotient_step(t, env) == quotient_step(rep, env)
        pairs += 1
        if pairs == 20:
            break
    assert pairs == 20


def test_morphism_square_holds_for_the_stream_law():
    env = stream_env("v", "u")
    samples = [(t, env)
               for t in enumerate_terms(STREAM.signature, {"v", "u"}, 4)][:50]
    report = morphism_square_check(STREAM.theory, STREAM.law, samples)
    assert report.checked == 50
    assert report.ok


def test_morphism_square_trivial_for_the_free_theory():
    th = free_theory(STREAM.signature)
    env = stream_env("v")
    samples = [(t, env) for t in enumerate_terms(STREAM.signature, {"v"}, 3)]
    assert morphism_square_check(th, STREAM.law, samples).ok


def test_morphism_square_fails_for_the_unpreserved_equation():
    samples = [(App("n1"), {}), (App("n2"), {})]
    report = morphism_square_check(ZEROS.theory, ZEROS.law, samples)
    assert not report.ok
    assert any(v.term == App("n2") for v in report.violations)


def test_rule_table_validation():
    sig = STREAM.signature
    plus = Rule("+", (ArgObs("a", "x"), ArgObs("b", "y")),
                App("+", (Var("a"), Var("b"))),
                Plain(App("+", (Var("x"), Var("y")))))
    with pytest.raises(PlaceholderViolation):
        GsosSpec(sig, (plus, plus))  # duplicate rule
    with pytest.raises(PlaceholderViolation):
        GsosSpec(sig, (Rule("+", (ArgObs("a", "x"), ArgObs("b", "y")),
                            Var("stray"),
                            Plain(App("+", (Var("x"), Var("y"))))),))
    with pytest.raises(PlaceholderViolation):
        GsosSpec(sig, (Rule("+", (ArgObs("a", "x"), ArgObs("b", "y")),
                            Var("a"),
                            Plain(Var("undeclared"))),))
    with pytest.raises(PlaceholderViolation):
        GsosSpec(sig, (Rule("+", (ArgObs("a", "x", name="arg"),
                                  ArgObs("b", "y")),
                            Var("a"),
                            Plain(Var("arg"))),), format="simple")
    with pytest.raises(PlaceholderViolation):
        GsosSpec(sig, (Rule("+", (ArgObs("a", "x"),),
                            Var("a"), Plain(Var("x"))),))


def test_a_constant_in_a_rule_output_is_rejected():
    # The DSL writes a literal as a nullary symbol; a constant can only
    # come from the library constructor.
    sig = STREAM.law.signature
    rules = tuple(replace(r, output=App("+", (Var("a"), Const("c", 1))))
                  if r.symbol == "+" else r for r in STREAM.law.spec.rules)
    with pytest.raises(PlaceholderViolation, match=r"output contains the "
                       r"constant \[1\]"):
        GsosSpec(sig, rules, STREAM.law.spec.format)
    with pytest.raises(PlaceholderViolation, match="cannot contain"):
        eval_out(Const("c", 1), RATIONAL_OUTPUTS, {})


def test_a_nullary_output_is_a_literal():
    assert eval_out(App("2/4"), RATIONAL_OUTPUTS, {}) == \
        RATIONAL_OUTPUTS.coerce(Fraction(1, 2))
    assert eval_out(App("1"), BOOL_OUTPUTS, {}) == BOOL_OUTPUTS.coerce(1)
    for alg, text in ((RATIONAL_OUTPUTS, "x"), (RATIONAL_OUTPUTS, "1/0"),
                      (BOOL_OUTPUTS, "2")):
        with pytest.raises(UnknownSymbol, match="is not a literal"):
            eval_out(App(text), alg, {})


def test_case_splits_need_boolean_outputs():
    sig = STREAM.signature
    split = Rule("+", (ArgObs("a", "x"), ArgObs("b", "y")),
                 Var("a"),
                 CaseSplit("a", if_zero=Var("x"), if_one=Var("y")))
    spec = GsosSpec(sig, (split,))
    with pytest.raises(SymbolicCaseSplit):
        DistLaw(spec, ("t",), RATIONAL_OUTPUTS)


def test_missing_rule_is_reported():
    sig = STREAM.signature
    plus_only = GsosSpec(sig, (Rule(
        "+", (ArgObs("a", "x"), ArgObs("b", "y")),
        App("+", (Var("a"), Var("b"))),
        Plain(App("+", (Var("x"), Var("y"))))),))
    law = DistLaw(plus_only, ("t",), RATIONAL_OUTPUTS)
    env = stream_env("v", "u")
    with pytest.raises(MissingRule):
        extend_lambda(law, App("*", (Var("v"), Var("u"))), env)

