"""Rule tables and their extension to whole terms.

The extension must be the structural one: unit on leaves, compatible with
substitution, identity on the copointed state component.  Frozen values
below were derived by instantiating the stream rules by hand.
"""

import functools
import itertools
from dataclasses import replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from lawbench.behaviour import BOOL_OUTPUTS, RATIONAL_OUTPUTS, Step
from lawbench.cfg import cfg_law
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
    QuotientStepper,
    Rule,
    _output_program,
    _run,
    _semiring_program,
    _term_program,
    apply_rule,
    extend_lambda,
)
from lawbench.polynomials import Poly
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
from oracles import (
    morphism_square_check,
    reference_apply_rule,
    reference_eval_out,
    reference_instantiate_template,
    reference_read,
)

# ---------------------------------------------------------------- fixtures

STREAM = load(example("stream.dsl"))
CFG = load(example("cfg.dsl"))
CONVOLUTION = load(example("convolution.dsl"))
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
        return Step.of(step.output,
                       {l: th.normalize(s) for l, s in step.moves.items()})

    five_a = App("+", (Const("c", 2), Const("c", 3)))
    five_b = Const("c", 5)
    assert th.equiv(five_a, five_b).equiv is Equiv.EQUAL
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


def law_of(*rules):
    """A one-letter rational law over the stream signature."""
    return DistLaw(STREAM.signature, rules, ("t",), RATIONAL_OUTPUTS)


def test_rule_table_validation():
    plus = Rule("+", (ArgObs("a", "x"), ArgObs("b", "y")),
                App("+", (Var("a"), Var("b"))),
                App("+", (Var("x"), Var("y"))))
    with pytest.raises(PlaceholderViolation):
        law_of(plus, plus)  # duplicate rule
    with pytest.raises(PlaceholderViolation):
        law_of(Rule("+", (ArgObs("a", "x"), ArgObs("b", "y")),
                    Var("stray"), App("+", (Var("x"), Var("y")))))
    with pytest.raises(PlaceholderViolation):
        law_of(Rule("+", (ArgObs("a", "x"), ArgObs("b", "y")),
                    Var("a"), Var("undeclared")))
    with pytest.raises(PlaceholderViolation):
        law_of(Rule("+", (ArgObs("a", "x"),), Var("a"), Var("x")))
    # The format is read off the rules: a named argument makes it gsos.
    assert law_of(plus).format == "simple"
    named = Rule("+", (ArgObs("a", "x", name="arg"), ArgObs("b", "y")),
                 Var("a"), Var("arg"))
    assert law_of(named).format == "gsos"


def test_a_law_is_a_value():
    # The alphabet is kept sorted, so the order the letters are declared
    # in is not part of the law.
    law = cfg_law(("a", "b"))
    assert law == cfg_law(("b", "a"))
    assert hash(law) == hash(cfg_law(("b", "a")))
    assert law.alphabet == ("a", "b")
    # A law rebuilt with other rules validates and compiles them afresh.
    plus = replace(law.rule_for("+"), next=Var("dx"))
    rules = tuple(plus if r.symbol == "+" else r for r in law.rules)
    changed = replace(law, rules=rules)
    assert changed.compiled["+"][0] is plus and changed != law


def test_a_rule_with_an_index_placeholder_is_a_family_rule():
    # An index placeholder makes a rule a constant family's, so an
    # operation's rule that declares one, and reads it in its output, is
    # refused when the table is built, not when it is applied.
    rules = tuple(replace(r, index_name="r",
                          output=App("+", (r.output, Var("r"))))
                  if r.symbol == "+" else r for r in STREAM.law.rules)
    with pytest.raises(UnknownSymbol,
                       match=r"constant family '\+' is not declared"):
        replace(STREAM.law, rules=rules)


def test_a_constant_in_a_rule_output_is_rejected():
    # The DSL writes a literal as a nullary symbol; a constant can only
    # come from the library constructor.
    rules = tuple(replace(r, output=App("+", (Var("a"), Const("c", 1))))
                  if r.symbol == "+" else r for r in STREAM.law.rules)
    with pytest.raises(PlaceholderViolation, match=r"output contains the "
                       r"constant \[1\]"):
        replace(STREAM.law, rules=rules)


def compiled_output(expr, alg, env):
    """The output term's value in the output algebra, through its
    compiled program."""
    return _run(_output_program(expr, alg), env)


def test_a_nullary_output_is_a_literal():
    assert compiled_output(App("2/4"), RATIONAL_OUTPUTS, {}) == \
        RATIONAL_OUTPUTS.coerce(Fraction(1, 2))
    assert compiled_output(App("1"), BOOL_OUTPUTS, {}) == BOOL_OUTPUTS.coerce(1)
    for alg, text in ((RATIONAL_OUTPUTS, "x"), (RATIONAL_OUTPUTS, "1/0"),
                      (BOOL_OUTPUTS, "2")):
        with pytest.raises(UnknownSymbol, match="is not a literal"):
            compiled_output(App(text), alg, {})


def test_a_rule_output_outside_the_algebra_fails_when_the_law_is_built():
    # The law compiles every rule's output as it is built, so a
    # library-built rule fails there, before any application.
    for output, message in ((App("x"), "is not a literal"),
                            (App("g", (Var("a"),)), "is not an operation")):
        rules = tuple(replace(r, output=output) if r.symbol == "+" else r
                      for r in STREAM.law.rules)
        with pytest.raises(UnknownSymbol, match=message):
            replace(STREAM.law, rules=rules)


def test_case_splits_need_boolean_outputs():
    split = Rule("+", (ArgObs("a", "x"), ArgObs("b", "y")),
                 Var("a"),
                 CaseSplit("a", if_zero=Var("x"), if_one=Var("y")))
    with pytest.raises(SymbolicCaseSplit):
        law_of(split)


def test_missing_rule_is_reported():
    law = law_of(Rule(
        "+", (ArgObs("a", "x"), ArgObs("b", "y")),
        App("+", (Var("a"), Var("b"))),
        App("+", (Var("x"), Var("y")))))
    env = stream_env("v", "u")
    with pytest.raises(MissingRule):
        extend_lambda(law, App("*", (Var("v"), Var("u"))), env)



# ------------------------------------------- compiled rules, against oracles

# A rule's terms are compiled once into programs; the reference readers
# in oracles.py walk the term afresh.  They must agree on the value, and
# on the type and message of the first error, which the reference meets
# leftmost-innermost: the error leaves below come in pairs with distinct
# messages, so a compiler that reads the right argument first fails.


def outcome(read, *args):
    try:
        return "value", read(*args)
    except Exception as exc:  # the error is what is compared
        return type(exc), str(exc)


def terms_over(leaves, ops):
    """Terms over the ``leaves`` and the (symbol, arity) pairs ``ops``."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of([st.tuples(*[sub] * arity).map(
            functools.partial(App, symbol)) for symbol, arity in ops]),
        max_leaves=12)


def maybe_dirty(clean_leaves, clean_ops, dirty_leaves, dirty_ops):
    return st.booleans().flatmap(lambda dirty: terms_over(
        clean_leaves + dirty_leaves * dirty, clean_ops + dirty_ops * dirty))


def chain(op, left, right, n=2000):
    """``left op (left op (... op right))``, ``n`` leaves."""
    acc = right
    for _ in range(n - 1):
        acc = App(op, (left, acc))
    return acc


A, B = Poly.atom("a"), Poly.atom("b")
POLYS = st.sampled_from([Poly(), Poly.const(1), Poly.const(Fraction(-2, 3)),
                         Poly.atom("s"), Poly.atom("s") * 3 + 1])
OUTPUT_ENVS = {
    "rational": st.fixed_dictionaries({"a": POLYS, "b": POLYS}),
    "bool": st.fixed_dictionaries({"a": st.sampled_from([0, 1]),
                                   "b": st.sampled_from([0, 1])}),
}
OUTPUT_CLEAN = {
    "rational": ([Var("a"), Var("b"), App("0"), App("1/2"), App("-3")],
                 [("+", 2), ("*", 2)]),
    "bool": ([Var("a"), Var("b"), App("0"), App("1")],
             [("min", 2), ("max", 2)]),
}
# Nullaries that are no literal, operations the outputs lack.  Constants
# and undeclared placeholders never reach an output program: ``DistLaw``
# rejects them first (tested above).
OUTPUT_DIRTY = ([App("x"), App("1/0"), App("2")], [("g", 1), ("h", 2)])
OUTPUTS = {"rational": RATIONAL_OUTPUTS, "bool": BOOL_OUTPUTS}


@pytest.mark.parametrize("kind", ["rational", "bool"])
@given(data=st.data())
def test_compiled_outputs_match_the_reference(kind, data):
    expr = data.draw(maybe_dirty(*OUTPUT_CLEAN[kind], *OUTPUT_DIRTY))
    env = data.draw(OUTPUT_ENVS[kind])
    alg = OUTPUTS[kind]
    assert outcome(compiled_output, expr, alg, env) == \
        outcome(reference_eval_out, expr, alg, env)


# Successor templates of the bundled shapes: the derivative placeholders
# x and y, the generator X, literal constants and constants indexed by
# output values, under + and *.
TEMPLATE_CLEAN = ([Var("x"), Var("y"), App("X"), Const("c", 2), Const("c", A),
                   Const("c", A * B), Const("c", A * 2), Const("c", A * A),
                   Const("c", A * 2 + 1)],
                  [("+", 2), ("*", 2)])
# Families outside the theory, a nullary symbol and an operation the
# theory lacks.  Undeclared placeholders never reach a template program:
# ``DistLaw`` rejects them first (tested above).
TEMPLATE_DIRTY = ([Const("d", 1), Const("e", A), App("Y")],
                  [("g", 1), ("h", 3)])
TERMS = st.sampled_from([Var("p"), App("X"), Const("c", 3),
                         App("+", (Var("p"), Var("q")))])


@given(template=maybe_dirty(*TEMPLATE_CLEAN, *TEMPLATE_DIRTY),
       bound=st.fixed_dictionaries({"x": TERMS, "y": TERMS}),
       poly_env=st.fixed_dictionaries({"a": POLYS, "b": POLYS}),
       rational=st.booleans())
def test_compiled_term_reading_matches_the_reference(template, bound,
                                                     poly_env, rational):
    # Under Boolean outputs no output value is a polynomial.
    poly_env = poly_env if rational else {}

    def compiled(template, bound, poly_env):
        return _run(_term_program(template, rational), {**poly_env, **bound})

    assert outcome(compiled, template, bound, poly_env) == \
        outcome(reference_instantiate_template, template, bound, poly_env)


@given(template=maybe_dirty(*TEMPLATE_CLEAN, *TEMPLATE_DIRTY),
       bound=st.fixed_dictionaries({"x": POLYS, "y": POLYS}),
       poly_env=st.fixed_dictionaries({"a": POLYS, "b": POLYS}))
def test_compiled_semiring_reading_matches_the_reference(template, bound,
                                                         poly_env):
    th = STREAM.theory

    def compiled(template, bound, poly_env):
        return _run(_semiring_program(th, template, True),
                    {**poly_env, **bound})

    assert outcome(compiled, template, bound, poly_env) == \
        outcome(reference_read, th, template, bound, poly_env)


LANGUAGES = st.sampled_from([frozenset(), frozenset({()}),
                             frozenset({("a",), ("a", "b")})])


@given(template=maybe_dirty([Var("x"), Var("y"), App("0"), App("1")],
                            [("+", 2), ("*", 2)],
                            [Const("c", 1), Const("d", 2), App("X")],
                            [("g", 1)]),
       bound=st.fixed_dictionaries({"x": LANGUAGES, "y": LANGUAGES}))
def test_compiled_language_reading_matches_the_reference(template, bound):
    th = CFG.theory

    def compiled(template, bound):
        return _run(_semiring_program(th, template, False), bound)

    assert outcome(compiled, template, bound) == \
        outcome(reference_read, th, template, bound, {})


def test_compiled_readings_of_deep_chains():
    # 2000 leaves deep; each compiles and runs without recursion.
    th = STREAM.theory
    out_env = {"a": Poly.const(1), "b": A}
    deep_out = chain("+", Var("a"), Var("b"))
    assert compiled_output(deep_out, RATIONAL_OUTPUTS, out_env) == A + 1999
    assert compiled_output(deep_out, RATIONAL_OUTPUTS, out_env) == \
        reference_eval_out(deep_out, RATIONAL_OUTPUTS, out_env)
    deep = chain("*", Const("c", A), chain("+", Var("x"), Var("y")))
    terms = {"x": Var("p"), "y": App("X")}
    assert _run(_term_program(deep, True), {**out_env, **terms}) == \
        reference_instantiate_template(deep, terms, out_env)
    values = {"x": Poly.atom("p"), "y": Poly.atom("X")}
    assert _run(_semiring_program(th, deep, True), {**out_env, **values}) \
        == reference_read(th, deep, values, out_env)


def random_rule(wb, output, next_):
    """``wb``'s law with its ``*`` rule given another output and
    successor."""
    rules = tuple(replace(r, output=output, next=next_)
                  if r.symbol == "*" else r for r in wb.law.rules)
    return replace(wb.law, rules=rules)


@pytest.mark.parametrize("wb", [STREAM, CONVOLUTION], ids=["stream",
                                                           "convolution"])
@given(data=st.data())
def test_compiled_rules_match_the_reference(wb, data):
    rule = wb.law.rule_for("*")
    (left, right) = rule.args
    outs = [Var(left.out), Var(right.out), App("1/2")]
    derivs = [Var(left.deriv), Var(right.deriv)]
    derivs += [Var(arg.name) for arg in rule.args if arg.name is not None]
    indexed = [Const("c", Poly.atom(left.out)),
               Const("c", Poly.atom(left.out) * Poly.atom(right.out)),
               Const("c", 1)]
    output = data.draw(terms_over(outs, [("+", 2), ("*", 2)]))
    template = data.draw(terms_over(derivs + indexed + [App("X")],
                                    [("+", 2), ("*", 2)]))
    law = random_rule(wb, output, template)
    th = wb.theory
    outs_of = data.draw(st.tuples(POLYS, POLYS))
    terms = [(Var(f"s{i}"), Step(out, {"t": Var(f"d{i}")}))
             for i, out in enumerate(outs_of)]
    assert apply_rule(law, "*", terms) == \
        reference_apply_rule(law, "*", terms)
    values = [(Poly.atom(f"s{i}"), Step(out, {"t": Poly.atom(f"d{i}")}))
              for i, out in enumerate(outs_of)]
    stepper = QuotientStepper(th, law, {})
    assert apply_rule(law, "*", values, programs=stepper._programs) == \
        reference_apply_rule(law, "*", values,
                             read=functools.partial(reference_read, th))


@given(data=st.data())
def test_compiled_case_splits_match_the_reference(data):
    rule = CFG.law.rule_for("*")
    (left, right) = rule.args
    leaves = [Var(left.deriv), Var(right.deriv), Var(right.name), App("0"),
              App("1")]
    ops = [("+", 2), ("*", 2)]
    output = data.draw(terms_over([Var(left.out), Var(right.out), App("0"),
                                   App("1")], [("min", 2), ("max", 2)]))
    split = CaseSplit(left.out, data.draw(terms_over(leaves, ops)),
                      data.draw(terms_over(leaves, ops)))
    law = random_rule(CFG, output, split)
    bits = data.draw(st.tuples(st.sampled_from([0, 1]),
                               st.sampled_from([0, 1])))
    terms = [(Var(f"s{i}"), Step(bit, {l: Var(f"d{i}{l}") for l in "ab"}))
             for i, bit in enumerate(bits)]
    assert apply_rule(law, "*", terms) == \
        reference_apply_rule(law, "*", terms)
    values = [(frozenset({(f"s{i}",)}),
               Step(bit, {l: frozenset({(f"d{i}{l}",)}) for l in "ab"}))
              for i, bit in enumerate(bits)]
    stepper = QuotientStepper(CFG.theory, law, {})
    assert apply_rule(law, "*", values, programs=stepper._programs) == \
        reference_apply_rule(law, "*", values,
                             read=functools.partial(reference_read,
                                                    CFG.theory))
