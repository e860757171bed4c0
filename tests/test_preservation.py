"""The preservation checker on the bundled rule tables.

Frozen verdicts and witness strings below were derived by instantiating
each scheme at its generic instance by hand and normalising both sides;
the trace strings are the exact derivations the checker must print.
"""

import itertools
import pathlib
import time
from dataclasses import replace
from fractions import Fraction

from lawbench import theories
from lawbench.behaviour import RATIONAL_OUTPUTS, Step
from lawbench.dsl import load, loads
from lawbench.gsos import (
    ArgObs,
    DistLaw,
    GsosSpec,
    Rule,
    extend_lambda,
)
from lawbench.preservation import (
    Verdict,
    check_preservation,
    generic_instance,
)
from lawbench.terms import App, Signature, Var, enumerate_terms, format_term
from lawbench.theories import EquationScheme, Equiv, PolyForm, generic_theory

from conftest import example
from oracles import morphism_square_check, replay

# ----------------------------------------------------------- frozen facts

STREAM_SCHEMES = (
    "plus-assoc", "plus-unit", "plus-comm", "times-assoc", "times-unit",
    "times-comm", "distrib", "times-zero", "const-plus", "const-times",
)

DISTRIB_TRACE = {
    "lhs": "v * (u + w)",
    "rhs": "v * u + v * w",
    "out": "b_u*b_v + b_v*b_w",
    "lhs_next": "d_v * [b_u + b_w] + d_v * X * (d_u + d_w) + [b_v] * (d_u + d_w)",
    "rhs_next": "(d_v * [b_u] + d_v * X * d_u + [b_v] * d_u)"
                " + d_v * [b_w] + d_v * X * d_w + [b_v] * d_w",
}

CONST_TIMES_TRACE = {
    "out": "a*b",
    "lhs_next": "[0]",
    "rhs_next": "[0] * [b] + [0] * X * [0] + [a] * [0]",
}

CONVOLUTION_WITNESS = ("d_v * x_u + [b_v] * d_u", "d_u * x_v + [b_u] * d_v")

STREAM = load(example("stream.dsl"))
CONVOLUTION = load(example("convolution.dsl"))
ZEROS = load(example("three-zeros.dsl"))
CFG = load(example("cfg.dsl"))

# ------------------------------------------------------------------ tests


def test_a_witness_does_not_depend_on_the_declared_letter_order():
    # Under ``next = dx`` for ``+`` the plus schemes fail at both letters;
    # the witness names the first in sorted order, as the trace lists them.
    rules = tuple(replace(r, next=Var(r.args[0].deriv))
                  if r.symbol == "+" else r for r in CFG.law.spec.rules)
    spec = GsosSpec(CFG.signature, rules)
    reports = [check_preservation(CFG.theory,
                                  DistLaw(spec, alphabet, CFG.law.outputs))
               for alphabet in (("a", "b"), ("b", "a"))]
    assert reports[0].verdict is Verdict.FAILS
    assert {r.letter for r in reports[0].results
            if r.verdict is not Verdict.HOLDS} == {"a"}
    assert reports[0] == reports[1]


def entries(report, trace=False):
    """The report's JSON entries by scheme (one branch per scheme)."""
    return {e["scheme"]: e for e in report.to_json(trace)["results"]}


def test_stream_rules_preserve_all_ten_schemes():
    report = check_preservation(STREAM.theory, STREAM.law)
    assert tuple(r.scheme for r in report.results) == STREAM_SCHEMES
    assert report.verdict is Verdict.HOLDS
    assert report.certified
    for r in report.results:
        assert r.verdict is Verdict.HOLDS
        assert r.branch is None  # rational outputs: one symbolic pass


def test_trace_reproduces_the_distributivity_derivation():
    report = check_preservation(STREAM.theory, STREAM.law)
    trace = entries(report, trace=True)["distrib"]["trace"]
    lhs, rhs = trace["lhs_step"], trace["rhs_step"]
    assert trace["lhs"] == DISTRIB_TRACE["lhs"]
    assert trace["rhs"] == DISTRIB_TRACE["rhs"]
    assert lhs["output"] == rhs["output"] == DISTRIB_TRACE["out"]
    assert lhs["next"]["t"] == DISTRIB_TRACE["lhs_next"]
    assert rhs["next"]["t"] == DISTRIB_TRACE["rhs_next"]
    assert trace["lhs_normal"]["t"] == trace["rhs_normal"]["t"]


def test_trace_reproduces_the_scalar_product_derivation():
    report = check_preservation(STREAM.theory, STREAM.law)
    trace = entries(report, trace=True)["const-times"]["trace"]
    lhs, rhs = trace["lhs_step"], trace["rhs_step"]
    assert lhs["output"] == rhs["output"] == CONST_TIMES_TRACE["out"]
    assert lhs["next"]["t"] == CONST_TIMES_TRACE["lhs_next"]
    assert rhs["next"]["t"] == CONST_TIMES_TRACE["rhs_next"]


def test_unpreserved_equation_yields_distinct_witness():
    report = check_preservation(ZEROS.theory, ZEROS.law)
    assert report.verdict is Verdict.FAILS
    assert not report.certified
    (r,) = report.results
    assert r.scheme == "zeros"
    assert r.verdict is Verdict.FAILS
    assert r.letter == "t"
    witness = entries(report)["zeros"]["witness"]
    assert witness["kind"] == "next"
    assert witness["letter"] == "t"
    assert (witness["left"], witness["right"]) == ("n1", "n3")
    assert witness["equiv"] == "distinct"


def test_convolution_rule_fails_exactly_on_commutativity():
    report = check_preservation(CONVOLUTION.theory, CONVOLUTION.law)
    assert report.verdict is Verdict.FAILS
    witness = entries(report)["times-comm"]["witness"]
    assert (witness["left"], witness["right"]) == CONVOLUTION_WITNESS
    assert witness["equiv"] == "distinct"
    for r in report.results:
        if r.scheme == "times-comm":
            assert r.verdict is Verdict.FAILS
        else:
            assert r.verdict is Verdict.HOLDS, r.scheme


def test_checking_formats_nothing(monkeypatch):
    # The records hold values; only ``to_json`` prints them.
    def refuse(term):
        raise AssertionError("a term was formatted")

    monkeypatch.setattr("lawbench.preservation.format_term", refuse)
    for wb, verdict in ((STREAM, Verdict.HOLDS), (CONVOLUTION, Verdict.FAILS),
                        (ZEROS, Verdict.FAILS), (CFG, Verdict.HOLDS)):
        report = check_preservation(wb.theory, wb.law)
        assert report.verdict is verdict
        assert report.certified == (verdict is Verdict.HOLDS)


def test_cfg_rules_preserve_every_scheme_on_every_branch():
    report = check_preservation(CFG.theory, CFG.law)
    assert report.verdict is Verdict.HOLDS
    assert len(report.results) == 48
    by_scheme = {}
    for r in report.results:
        assert r.verdict is Verdict.HOLDS
        assert r.branch is not None
        by_scheme.setdefault(r.scheme, []).append(r.branch)
    for scheme in CFG.theory.schemes:
        branches = by_scheme[scheme.name]
        k = len(scheme.metavars)
        assert len(branches) == 2 ** k  # branch completeness
        expected = [tuple(zip([f"b_{v}" for v in scheme.metavars], bits))
                    for bits in itertools.product((0, 1), repeat=k)]
        assert branches == expected  # binary order


def tokens(env):
    """The (state, output, derivative) tokens of a generic instance."""
    states = tuple(state.name for state, _ in env.values())
    outs = tuple(str(step.output) for _, step in env.values())
    derivs = tuple(t.name for _, step in env.values()
                   for t in step.moves.values())
    return states, outs, derivs


def test_generic_instance_token_counts():
    comm = EquationScheme("comm", ("v", "u"),
                          App("+", (Var("v"), Var("u"))),
                          App("+", (Var("u"), Var("v"))))
    states, outs, derivs = tokens(generic_instance(comm, ("*",),
                                                   RATIONAL_OUTPUTS))
    assert states + outs + derivs == ("x_v", "x_u", "b_v", "b_u", "d_v", "d_u")

    distrib = EquationScheme("distrib", ("v", "u", "w"),
                             App("*", (Var("v"), App("+", (Var("u"), Var("w"))))),
                             App("+", (App("*", (Var("v"), Var("u"))),
                                       App("*", (Var("v"), Var("w"))))))
    states, outs, derivs = tokens(generic_instance(distrib, ("a", "b"),
                                                   RATIONAL_OUTPUTS))
    assert len(states) == 3
    assert len(outs) == 3
    assert len(derivs) == 6  # per letter
    assert "d_v_a" in derivs and "d_v_b" in derivs


def test_generic_instance_of_a_scheme_without_metavars_is_empty():
    scheme = STREAM.theory.schemes[-1]  # index-parameter family equation
    assert scheme.metavars == ()
    assert generic_instance(scheme, ("t",), RATIONAL_OUTPUTS) == {}


def test_every_fails_witness_replays():
    for wb in (ZEROS, CONVOLUTION):
        report = check_preservation(wb.theory, wb.law)
        replayed = 0
        for r in report.results:
            if r.verdict is Verdict.FAILS:
                assert replay(wb.theory, wb.law, r)
                replayed += 1
        assert replayed >= 1


def test_generic_failure_has_a_concrete_instance():
    # the two successor polynomials of the convolution commutativity
    # witness must differ at some rational point, which is a concrete
    # finite instance violating the equation
    th, law = CONVOLUTION.theory, CONVOLUTION.law
    report = check_preservation(th, law)
    (r,) = [r for r in report.results if r.verdict is Verdict.FAILS]
    left = r.lhs_normal[r.letter]
    right = r.rhs_normal[r.letter]
    assert left != right

    scheme = next(s for s in th.schemes if s.name == r.scheme)
    env = generic_instance(scheme, law.alphabet, law.outputs)
    _, lhs_step = extend_lambda(law, scheme.lhs, env)
    _, rhs_step = extend_lambda(law, scheme.rhs, env)
    lp = th.normalize(lhs_step.next(r.letter))
    rp = th.normalize(rhs_step.next(r.letter))
    assert isinstance(lp, PolyForm) and isinstance(rp, PolyForm)

    atoms = sum(tokens(env), ()) + ("X",)
    separated = None
    for values in itertools.product((Fraction(0), Fraction(1)),
                                    repeat=len(atoms)):
        point = dict(zip(atoms, values))
        if lp.poly.evaluate(point) != rp.poly.evaluate(point):
            separated = point
            break
    assert separated is not None


def test_holds_verdict_implies_the_morphism_square():
    env = {v: (Var(f"x_{v}"),
               Step(RATIONAL_OUTPUTS.atom(f"b_{v}"), {"t": Var(f"d_{v}")}))
           for v in ("v", "u")}
    samples = [(t, env)
               for t in enumerate_terms(STREAM.signature, {"v", "u"}, 4)][:100]
    report = morphism_square_check(STREAM.theory, STREAM.law, samples)
    assert report.checked == 100
    assert report.ok


def test_unknown_verdict_when_the_search_cannot_decide():
    # successors land in two infinite congruence classes that stay
    # disjoint inside the search bounds, so neither side can be settled
    sig = Signature((("a", 0), ("b", 0), ("g", 1), ("h", 1)))
    schemes = (
        EquationScheme("a-is-b", (), App("a"), App("b")),
        EquationScheme("pad-g", ("v",),
                       App("g", (Var("v"),)),
                       App("g", (App("g", (Var("v"),)),))),
        EquationScheme("pad-h", ("v",),
                       App("h", (Var("v"),)),
                       App("h", (App("h", (Var("v"),)),))),
    )
    th = generic_theory(sig, schemes)
    rules = (
        Rule("a", (), App("0"), App("g", (App("a"),))),
        Rule("b", (), App("0"), App("h", (App("b"),))),
        Rule("g", (ArgObs("o", "dx"),), App("0"),
             App("g", (Var("dx"),))),
        Rule("h", (ArgObs("o", "dx"),), App("0"),
             App("h", (Var("dx"),))),
    )
    law = DistLaw(GsosSpec(sig, rules), ("t",), RATIONAL_OUTPUTS)
    report = check_preservation(th, law)
    assert report.verdict is Verdict.UNKNOWN
    assert not report.certified
    verdicts = {r.scheme: r.verdict for r in report.results}
    assert verdicts["a-is-b"] is Verdict.UNKNOWN
    # The witness names the bound that cut each search off, and replays.
    (undecided,) = [r for r in report.results if r.scheme == "a-is-b"]
    assert undecided.answer.reason == (
        "left side: depth bound 5 reached at 11 terms; "
        "right side: depth bound 5 reached at 11 terms")
    assert replay(th, law, undecided)
    assert verdicts["pad-g"] is Verdict.HOLDS
    assert verdicts["pad-h"] is Verdict.HOLDS

def test_the_search_matches_each_distinct_subterm_once(monkeypatch):
    # times-unit alone: r -> [1] * r applies at every position, so the
    # search stops at max_visited.  Matching every position of every term
    # it steps makes 47,840 _match calls; matching each distinct subterm
    # once per search makes 3,637.  Rewriting decides this case (see
    # test_one_way_axioms_fail_with_a_witness), so the search is called on
    # its successor pair directly.
    text = pathlib.Path(example("stream.dsl")).read_text().replace(
        "theory commutative-semiring;",
        "theory generic {\n  eq times-unit: r = [1] * r;\n}")
    wb = loads(text)
    (scheme,) = wb.theory.schemes
    env = generic_instance(scheme, wb.law.alphabet, wb.law.outputs)
    _, lhs_step = extend_lambda(wb.law, scheme.lhs, env)
    _, rhs_step = extend_lambda(wb.law, scheme.rhs, env)
    calls = 0
    match = theories._match

    def counting(*args):
        nonlocal calls
        calls += 1
        return match(*args)

    monkeypatch.setattr(theories, "_match", counting)
    answer = wb.theory._search_answer(lhs_step.next("t"), rhs_step.next("t"),
                                      {})
    assert answer.equiv is Equiv.UNKNOWN
    assert answer.reason == ("left side: depth bound 5 reached at 65 terms; "
                             "right side: max_visited 10000 reached "
                             "at 10004 terms")
    # The lower bound fails a search that stops calling theories._match.
    assert 1_000 <= calls <= 10_000


def format_moves(step):
    return {letter: format_term(t) for letter, t in step.moves.items()}


def _deep_scheme_law(depth, successor, search=False):
    """g^depth(v) = v; with ``search``, beside p(v, u) = p(u, v), which
    does not orient, so the theory keeps the bounded search."""
    sig = Signature((("a", 0), ("g", 1), ("p", 2)))
    deep = Var("v")
    for _ in range(depth):
        deep = App("g", (deep,))
    v, u = Var("v"), Var("u")
    schemes = (EquationScheme("deep", ("v",), deep, v),)
    if search:
        schemes += (EquationScheme("swap", ("v", "u"), App("p", (v, u)),
                                   App("p", (u, v))),)
    rules = (
        Rule("a", (), App("1"), App("a")),
        Rule("g", (ArgObs("o", "dx"),), Var("o"), successor),
        Rule("p", (ArgObs("o", "dx"), ArgObs("q", "dy")),
             App("+", (Var("o"), Var("q"))),
             App("p", (Var("dx"), Var("dy")))),
    )
    law = DistLaw(GsosSpec(sig, rules), ("t",), RATIONAL_OUTPUTS)
    return generic_theory(sig, schemes, max_depth=1 if search else 5), law


def test_a_deep_scheme_side_loads_extends_and_prints():
    # g^2000(v) = v under g's successor dx: the sides extend and print on
    # explicit stacks.  Both successors are d_v, so the verdict needs no
    # search; searching a deep side is the next test.
    th, law = _deep_scheme_law(2000, Var("dx"))
    report = check_preservation(th, law)
    assert report.verdict is Verdict.HOLDS
    (r,) = report.results
    assert format_moves(r.lhs_step) == format_moves(r.rhs_step) == \
        {"t": "d_v"}
    assert format_term(r.lhs) == "g(" * 2000 + "v" + ")" * 2000
    assert repr(r.lhs) == \
        "App(symbol='g', args=(" * 2000 + "Var(name='v')" + ",))" * 2000
    assert repr(r.lhs) in repr(report)


def test_a_deep_scheme_side_is_searched_to_a_verdict():
    # g^300(v) = v under g's successor g(dx): the successors g^300(d_v)
    # and d_v differ, so the theory must apply the deep side.  The swap
    # scheme beside it does not orient, so the bounded search decides.
    # It matches and instantiates the side at every position of every
    # term it steps: with max_depth 1 it took about 15 s at depth 2000.
    th, law = _deep_scheme_law(300, App("g", (Var("dx"),)), search=True)
    report = check_preservation(th, law)
    assert th._convergent is None
    assert report.verdict is Verdict.HOLDS
    r = next(r for r in report.results if r.scheme == "deep")
    assert format_moves(r.lhs_step) == {"t": "g(" * 300 + "d_v" + ")" * 300}
    assert format_moves(r.rhs_step) == {"t": "d_v"}


def test_a_2000_deep_scheme_side_is_decided_in_seconds():
    # The default bounds let the search run about 220 s here.  Rewriting
    # checks the rule's 1999 overlaps with itself, each unified and
    # compared along the 2000-deep spine in one step per run of
    # one-argument applications.
    th, law = _deep_scheme_law(2000, App("g", (Var("dx"),)))
    start = time.perf_counter()
    report = check_preservation(th, law)
    assert time.perf_counter() - start < 2
    assert report.verdict is Verdict.HOLDS
    assert th._convergent is not None


def _one_axiom(example_name, axiom):
    text = pathlib.Path(example(example_name)).read_text().replace(
        "theory commutative-semiring;",
        "theory generic {\n  eq " + axiom + ";\n}")
    return loads(text)


def test_one_way_axioms_fail_with_a_witness():
    # Each axiom alone, under both rule tables: the search left these
    # cases Unknown (times-unit at max_visited, times-zero because
    # [0] -> [0] * r has an unbound metavariable).  Rewriting separates
    # the successors, under a value for b_r where the successors have it
    # (the stream product reads the right factor's output, convolution's
    # only the left's).
    for name, values in (("stream.dsl", (("b_r", Fraction(2)),)),
                         ("convolution.dsl", ())):
        for axiom in ("times-unit: r = [1] * r", "times-zero: [0] * r = [0]"):
            wb = _one_axiom(name, axiom)
            report = check_preservation(wb.theory, wb.law)
            (r,) = report.results
            assert r.verdict is Verdict.FAILS
            assert (r.answer.value, r.answer.reason, r.answer.values) == \
                ("distinct", "normal forms differ", values)
            assert replay(wb.theory, wb.law, r)
