"""Corecursive equation systems and their consistency checks.

The convolution oracle below is the direct truncated sum, written against
the definition and independent of the solver's own helper.
"""

import pathlib
from dataclasses import replace
from fractions import Fraction

import pytest

from lawbench.behaviour import RATIONAL_OUTPUTS, Step
from lawbench.cfg import GnfGrammar, to_corec
from lawbench.dsl import load, loads
from lawbench.errors import (
    AlphabetMismatch,
    ArityMismatch,
    LawbenchError,
    UnboundVariable,
)
from lawbench import gsos
from lawbench.gsos import DistLaw, extend_lambda
from lawbench.polynomials import Poly
from lawbench.preservation import Verdict, check_preservation
from lawbench.solver import (
    CorecSystem,
    behaviour_table,
    induced_algebra_check,
    operational_model,
    quotient_commute_check,
    stream_prefix,
    unfold,
)
from lawbench.terms import App, Const, Var, enumerate_terms, substitute
from lawbench.theories import Theory

from conftest import example
from oracles import reference_commute_check

# ----------------------------------------------------------------- oracle


def convolve_oracle(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    n = min(len(xs), len(ys))
    return [sum((xs[i] * ys[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(n)]


def test_oracle_on_known_values():
    ones = [Fraction(1)] * 5
    assert convolve_oracle(ones, ones) == [1, 2, 3, 4, 5]
    assert convolve_oracle([Fraction(2), Fraction(0)], ones) == [2, 2]


# --------------------------------------------------------------- fixtures

STREAM = load(example("stream.dsl"))
CONVOLUTION = load(example("convolution.dsl"))
CFG = load(example("cfg.dsl"))

ONES = Var("ones")
X = App("X")


def scalar(value) -> Const:
    return Const("c", Fraction(value))


# ------------------------------------------------------------------ tests


def test_the_model_solves_the_system():
    for wb in (STREAM, CONVOLUTION):
        for name in wb.system.variables:
            assert operational_model(wb.system, Var(name)) == wb.system.phi[name]
    cfg_sys = to_corec(CFG.grammar)
    for name in cfg_sys.variables:
        assert operational_model(cfg_sys, Var(name)) == cfg_sys.phi[name]


def test_model_commutes_with_substitution():
    # plugging solutions in first and running, or running the composite
    # through the rule table, must agree on both the state and the step
    sys = STREAM.system
    s = {"p": App("+", (ONES, scalar(2))), "q": App("*", (X, ONES))}
    env = {name: (term, operational_model(sys, term))
           for name, term in s.items()}
    for t in enumerate_terms(STREAM.signature, {"p", "q"}, 3):
        flat = substitute(t, s)
        assert extend_lambda(sys.law, t, env) == \
            (flat, operational_model(sys, flat))


def test_model_commutes_with_substitution_for_languages():
    sys = to_corec(CFG.grammar)
    s = {"p": App("*", (Var("S"), Var("B"))), "q": App("1")}
    env = {name: (term, operational_model(sys, term))
           for name, term in s.items()}
    for t in enumerate_terms(sys.law.signature, {"p", "q"}, 3):
        flat = substitute(t, s)
        assert extend_lambda(sys.law, t, env) == \
            (flat, operational_model(sys, flat))


def test_frozen_stream_values():
    sys = STREAM.system
    assert stream_prefix(sys, X, 4) == [0, 1, 0, 0]
    assert stream_prefix(sys, scalar(5), 3) == [5, 0, 0]
    assert stream_prefix(sys, App("*", (X, X)), 5) == [0, 0, 1, 0, 0]
    assert stream_prefix(sys, App("*", (ONES, ONES)), 5) == [1, 2, 3, 4, 5]


def test_products_match_the_convolution_oracle():
    for wb in (STREAM, CONVOLUTION):
        sys = wb.system
        ones5 = stream_prefix(sys, ONES, 5)
        assert ones5 == [1, 1, 1, 1, 1]
        assert stream_prefix(sys, App("*", (ONES, ONES)), 5) == \
            convolve_oracle(ones5, ones5)
        doubled = stream_prefix(sys, App("*", (scalar(2), ONES)), 5)
        assert doubled == [2 * v for v in ones5]
        assert doubled == convolve_oracle([Fraction(2)] + [Fraction(0)] * 4,
                                          ones5)


def test_unfold_normalises_the_state():
    sys = STREAM.system
    out, state = unfold(sys, App("*", (ONES, ONES)), "tt")
    assert out == Fraction(3)
    assert state == sys.theory.representative(sys.theory.normalize(state))
    plain = replace(sys, theory=None)
    out_plain, _ = unfold(plain, App("*", (ONES, ONES)), "tt")
    assert out_plain == out


@pytest.mark.parametrize("coeffs", [(3, 2), (Fraction(1, 2), Fraction(2, 3))])
def test_rational_values_are_fractions_at_the_api(coeffs):
    # Coefficients are ints inside Poly when integral; every value handed
    # out is a Fraction all the same, on the quotient and off it.
    a, b = coeffs
    term = App("+", (App("*", (scalar(a), App("*", (ONES, ONES)))),
                     App("*", (scalar(b), X))))
    for sys in (STREAM.system, replace(STREAM.system, theory=None)):
        values = stream_prefix(sys, term, 6)
        out, _ = unfold(sys, term, "ttt")
        assert out == values[3]
        assert all(type(v) is Fraction for v in [*values, out])
    for value in (a, b, 0):
        poly = Poly.const(value)
        assert type(poly.constant_value()) is Fraction
        assert type(RATIONAL_OUTPUTS.concrete(poly)) is Fraction
        assert type(RATIONAL_OUTPUTS.concrete(value)) is Fraction


def test_behaviour_table_agrees_with_unfold():
    cfg_sys = to_corec(CFG.grammar)
    term = App("*", (Var("S"), Var("B")))
    table = behaviour_table(cfg_sys, term, 2)
    assert len(table) == 7  # eps, a, b, aa, ab, ba, bb
    for word, out in table.items():
        assert unfold(cfg_sys, term, word)[0] == out


def test_quotient_commutes_for_the_bundled_systems():
    for sys in (STREAM.system, to_corec(CFG.grammar)):
        report = quotient_commute_check(sys, max_term_size=3, depth=3)
        assert report.ok
        assert report.checked > 0
        assert report.violations == []


def broken_stream_system() -> CorecSystem:
    # break the scalar derivative: [r]' = [1] instead of [0]; the theory
    # then identifies states whose unfoldings disagree one step later
    law = STREAM.law
    rules = tuple(
        replace(r, next=Const("c", Fraction(1))) if r.is_family else r
        for r in law.spec.rules)
    broken = DistLaw(replace(law.spec, rules=rules), law.alphabet, law.outputs)
    return CorecSystem(STREAM.system.variables, STREAM.system.phi,
                       broken, STREAM.theory)


def test_mutated_rule_table_breaks_commutation():
    report = quotient_commute_check(broken_stream_system(), max_term_size=3,
                                    depth=3)
    assert not report.ok
    assert len(report.violations) >= 1
    v = report.violations[0]
    assert v.kind in ("output", "state")


def broken_grammar_system() -> CorecSystem:
    # drop the right summand's derivative: next(l) = dx instead of dx + dy;
    # sums stop commuting, so a representative's summand order shows, on
    # both letters
    sys = to_corec(load(example("balanced.dsl")).grammar)
    law = sys.law
    rules = tuple(replace(r, next=Var("dx")) if r.symbol == "+" else r
                  for r in law.spec.rules)
    broken = DistLaw(replace(law.spec, rules=rules), law.alphabet, law.outputs)
    return CorecSystem(sys.variables, sys.phi, broken, sys.theory)


def commute_system(name: str) -> CorecSystem:
    if name == "broken":
        return broken_stream_system()
    if name == "broken grammar":
        return broken_grammar_system()
    wb = load(example(name))
    return wb.system if wb.system is not None else to_corec(wb.grammar)


@pytest.mark.parametrize("name", ["stream.dsl", "convolution.dsl",
                                  "cfg.dsl", "balanced.dsl", "broken"])
def test_memoised_commutation_matches_the_unmemoised_walk(name):
    # The check's memos change how often a subterm is stepped, never the
    # report: same count, same violations in the same order.
    sys = commute_system(name)
    report = quotient_commute_check(sys, max_term_size=3, depth=4)
    assert report == reference_commute_check(sys, max_term_size=3, depth=4)
    assert report.ok == (name not in ("convolution.dsl", "broken"))


def test_commutation_steps_each_distinct_subterm_once(monkeypatch):
    # Counts rule applications instead of timing them.  Stepping every
    # plain state from scratch makes 119,668 of them here, because the
    # unfolded trees grow geometrically with the depth.  The check's memo,
    # with each start term's quotient step taken from its plain step
    # instead of a second extension, makes 989.
    calls = 0
    apply_rule = gsos.apply_rule

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return apply_rule(*args, **kwargs)

    monkeypatch.setattr(gsos, "apply_rule", counting)
    report = quotient_commute_check(STREAM.system, max_term_size=3, depth=5)
    assert (report.checked, report.ok) == (468, True)
    # Exact: a walk that repeats work, or stops calling gsos.apply_rule,
    # fails.
    assert calls == 989


@pytest.mark.parametrize("name, max_size, depth, checked", [
    ("cfg.dsl", 3, 6, 4572),
    ("balanced.dsl", 3, 6, 4572),
    ("convolution.dsl", 3, 7, 624),
    ("broken", 3, 5, 468),
    ("broken grammar", 3, 5, 2268),
    ("stream.dsl", 1, 30, 6 * 31),
])
def test_deeper_commutation_matches_the_unmemoised_walk(name, max_size, depth,
                                                        checked):
    # Deeper words share more (plain state, quotient state, depth left)
    # triples, most of all on the grammars.  convolution.dsl (6
    # violations) and the broken tables (248 on one letter, 129 on two)
    # replay the violations found below a shared triple under other seeds
    # and words, which must keep the labels, words and order of the
    # unmemoised walk.  At max-size 1 each of stream.dsl's 6 seeds has one
    # successor per step.
    sys = commute_system(name)
    report = quotient_commute_check(sys, max_term_size=max_size, depth=depth)
    assert report.checked == checked
    assert report == reference_commute_check(sys, max_term_size=max_size,
                                             depth=depth)


def test_commutation_checks_each_distinct_triple_once(monkeypatch):
    # Counts congruence checks instead of timing them.  The 2,268
    # term/word pairs here reach 262 distinct (plain state, quotient
    # state, depth left) triples, and the walk asks Theory.equiv once per
    # triple, not once per pair.
    calls = 0
    equiv = Theory.equiv

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return equiv(*args, **kwargs)

    monkeypatch.setattr(Theory, "equiv", counting)
    report = quotient_commute_check(to_corec(CFG.grammar), max_term_size=3,
                                    depth=5)
    assert (report.checked, report.ok) == (2268, True)
    # The lower bound fails a walk that stops calling Theory.equiv.
    assert 100 <= calls <= 262


def test_induced_algebra_for_streams():
    sys = STREAM.system
    for outer in (
        App("*", (scalar(2), ONES)),
        App("*", (ONES, ONES)),
        App("+", (ONES, App("*", (X, X)))),
        App("+", (ONES, ONES)),
        ONES,
    ):
        report = induced_algebra_check(sys, outer, horizon=5)
        assert report.ok, (report.operational, report.induced)
    report = induced_algebra_check(sys, App("*", (scalar(2), ONES)),
                                   horizon=5)
    assert report.operational == [2, 2, 2, 2, 2]


def test_induced_algebra_for_languages():
    g = GnfGrammar(
        nonterminals=("X", "Y"),
        alphabet=("a", "b"),
        empty={"X": 0, "Y": 0},
        prods={"X": {"a": frozenset({()})}, "Y": {"b": frozenset({()})}},
    )
    sys = to_corec(g)
    concat = induced_algebra_check(sys, App("*", (Var("X"), Var("Y"))),
                                   horizon=5)
    assert concat.ok
    assert concat.operational == [("a", "b")]

    union = induced_algebra_check(sys, App("+", (Var("X"), Var("Y"))),
                                  horizon=5)
    assert union.ok
    assert union.operational == [("a",), ("b",)]

    leaf = induced_algebra_check(sys, Var("X"), horizon=3)
    assert leaf.ok


def test_system_validation():
    law = STREAM.law
    ok = Step.of(1, {"t": ONES})
    with pytest.raises(UnboundVariable):
        CorecSystem(("ones", "twos"), {"ones": ok}, law)
    with pytest.raises(AlphabetMismatch):
        CorecSystem(("ones",), {"ones": Step.of(1, {"x": ONES})}, law)
    with pytest.raises(LawbenchError):
        CorecSystem(("ones",),
                    {"ones": Step.of(RATIONAL_OUTPUTS.atom("b"),
                                     {"t": ONES})}, law)
    with pytest.raises(UnboundVariable):
        CorecSystem(("ones",), {"ones": Step.of(1, {"t": Var("ghost")})}, law)
    with pytest.raises(ArityMismatch):
        CorecSystem(("ones",),
                    {"ones": Step.of(1, {"t": App("+", (ONES,))})}, law)


def test_runtime_errors():
    sys = STREAM.system
    with pytest.raises(AlphabetMismatch):
        unfold(sys, ONES, "tx")
    with pytest.raises(AlphabetMismatch):
        stream_prefix(to_corec(CFG.grammar), Var("S"), 3)
    with pytest.raises(UnboundVariable):
        stream_prefix(sys, Var("ghost"), 3)
    plain = replace(sys, theory=None)
    with pytest.raises(LawbenchError):
        quotient_commute_check(plain)
    with pytest.raises(LawbenchError):
        induced_algebra_check(plain, ONES)

def test_plain_unfolding_of_a_deep_term():
    # A left-nested sum of 10^4 leaves, stepped twice without a theory:
    # the rule table is extended over the term and then over its
    # successor dag, both 10^4 deep.
    sys = replace(STREAM.system, theory=None)
    deep = ONES
    for i in range(10_000 - 1):
        deep = App("+", (deep, X if i % 2 else ONES))
    ones, xs = 5001, 4999  # X is (0, 1, 0, ...)
    assert stream_prefix(sys, deep, 3) == [ones, ones + xs, ones]


def test_a_deep_successor_template_runs():
    # A 2000-summand `+` successor is instantiated on an explicit stack.
    # It is not the pointwise rule, so the run takes the term path.
    text = pathlib.Path(example("stream.dsl")).read_text()
    chain = "x + " * 1999 + "y"
    wb = loads(text.replace("next(t') = x + y;", f"next(t') = {chain};"))
    assert stream_prefix(wb.system, App("+", (ONES, ONES)), 3) == \
        [2, 2000, 2000]
    assert check_preservation(wb.theory, wb.law).verdict is Verdict.FAILS


def test_a_deep_output_chain_runs():
    # A 2000-summand `+` output is evaluated on an explicit stack.  Plain
    # unfolding keeps `ones + ones`, so every output is the whole chain.
    text = pathlib.Path(example("stream.dsl")).read_text()
    chain = "a + " * 1999 + "b"
    wb = loads(text.replace("out = a + b;", f"out = {chain};"))
    plain = replace(wb.system, theory=None)
    assert stream_prefix(plain, App("+", (ONES, ONES)), 3) == [2000] * 3
    assert check_preservation(wb.theory, wb.law).verdict is Verdict.FAILS
