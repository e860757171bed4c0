"""Acceptance gate: one check per shipped claim, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test also asserts, so a FAIL line fails the suite.
"""

import itertools
import time
from dataclasses import replace
from fractions import Fraction

from lawbench.behaviour import RATIONAL_OUTPUTS, Step
from lawbench.cfg import member, to_corec
from lawbench.dsl import load
from lawbench.gsos import DistLaw, extend_lambda
from lawbench.preservation import Verdict, check_preservation
from lawbench.solver import (
    CorecSystem,
    induced_algebra_check,
    quotient_commute_check,
    stream_prefix,
)
from lawbench.terms import App, Const, Var, enumerate_terms, substitute
from lawbench.theories import commutative_semiring, idempotent_semiring

from conftest import example
from oracles import cyk_member, morphism_square_check

STREAM = load(example("stream.dsl"))
CONVOLUTION = load(example("convolution.dsl"))
ZEROS = load(example("three-zeros.dsl"))
CFG = load(example("cfg.dsl"))
BALANCED = load(example("balanced.dsl"))


def conclude(num: int, label: str, problems: list, extra: str = ""):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num} ({label}): {status}{extra}")
    assert not problems, f"criterion {num} ({label}): {problems[:3]}"


def check(problems: list, ok: bool, what: str):
    if not ok:
        problems.append(what)


def test_criterion_01_stream_preservation_with_trace():
    problems: list = []
    started = time.perf_counter()
    report = check_preservation(STREAM.theory, STREAM.law)
    payload = report.to_json(trace=True)
    elapsed = time.perf_counter() - started

    check(problems, report.verdict is Verdict.HOLDS, "verdict")
    check(problems, tuple(r.scheme for r in report.results) == (
        "plus-assoc", "plus-unit", "plus-comm", "times-assoc", "times-unit",
        "times-comm", "distrib", "times-zero", "const-plus", "const-times"),
        "scheme names")
    check(problems,
          all(r["verdict"] == "holds" for r in payload["results"]),
          "per-scheme verdicts")

    traces = {r["scheme"]: r["trace"] for r in payload["results"]}
    distrib = traces["distrib"]
    check(problems, distrib["lhs_step"]["next"]["t"] ==
          "d_v * [b_u + b_w] + d_v * X * (d_u + d_w) + [b_v] * (d_u + d_w)",
          "distrib lhs derivation")
    check(problems, distrib["rhs_step"]["next"]["t"] ==
          "(d_v * [b_u] + d_v * X * d_u + [b_v] * d_u)"
          " + d_v * [b_w] + d_v * X * d_w + [b_v] * d_w",
          "distrib rhs derivation")
    ct = traces["const-times"]
    check(problems, ct["lhs"] == "[a*b]" and ct["rhs"] == "[a] * [b]",
          "const-times sides")
    check(problems, ct["lhs_step"]["output"] == "a*b"
          and ct["rhs_step"]["output"] == "a*b", "const-times output")
    check(problems, ct["lhs_step"]["next"]["t"] == "[0]",
          "const-times lhs next")
    check(problems, ct["rhs_step"]["next"]["t"] ==
          "[0] * [b] + [0] * X * [0] + [a] * [0]", "const-times rhs next")
    check(problems, elapsed < 5.0, f"runtime {elapsed:.2f}s")
    conclude(1, "stream preservation", problems, f" [{elapsed:.2f}s]")


def test_criterion_02_non_preservation_witness():
    problems: list = []
    report = check_preservation(ZEROS.theory, ZEROS.law)
    check(problems, report.verdict is Verdict.FAILS, "verdict")
    (entry,) = report.to_json()["results"]
    witness = entry["witness"] or {}
    check(problems, witness.get("kind") == "next", "kind")
    check(problems, witness.get("letter") == "t", "letter")
    check(problems, (witness.get("left"), witness.get("right"))
          == ("n1", "n3"), "witness next-pair")
    check(problems, witness.get("equiv") == "distinct", "equiv verdict")
    conclude(2, "non-preservation witness", problems)


def test_criterion_03_convolution_variant():
    problems: list = []
    report = check_preservation(CONVOLUTION.theory, CONVOLUTION.law)
    for r, entry in zip(report.results, report.to_json()["results"]):
        if r.scheme == "times-comm":
            check(problems, r.verdict is Verdict.FAILS, "times-comm verdict")
            check(problems, (entry["witness"] or {}).get("equiv")
                  == "distinct", "times-comm witness")
        else:
            check(problems, r.verdict is Verdict.HOLDS,
                  f"{r.scheme} should hold")
    conclude(3, "convolution fails only times-comm", problems)


def test_criterion_04_cfg_preservation_with_branches():
    problems: list = []
    report = check_preservation(CFG.theory, CFG.law)
    check(problems, report.verdict is Verdict.HOLDS, "verdict")
    check(problems, all(r.branch is not None for r in report.results),
          "branch split visible")
    by_scheme: dict = {}
    for r in report.results:
        by_scheme.setdefault(r.scheme, set()).add(r.branch)
    for scheme in CFG.theory.schemes:
        tokens = tuple(f"b_{v}" for v in scheme.metavars)
        expected = {tuple(zip(tokens, bits))
                    for bits in itertools.product((0, 1),
                                                  repeat=len(tokens))}
        check(problems, by_scheme[scheme.name] == expected,
              f"{scheme.name} branch coverage")
    conclude(4, "cfg preservation on all branches", problems)


def test_criterion_05_stream_values():
    problems: list = []
    sys = STREAM.system
    ones = Var("ones")

    def sc(v):
        return Const("c", Fraction(v))

    started = time.perf_counter()
    values = {
        "X": stream_prefix(sys, App("X"), 4),
        "[0]": stream_prefix(sys, sc(0), 3),
        "[1]": stream_prefix(sys, sc(1), 3),
        "[2]": stream_prefix(sys, sc(2), 3),
        "[3]": stream_prefix(sys, sc(3), 3),
        "[5]": stream_prefix(sys, sc(5), 3),
        "ones": stream_prefix(sys, ones, 5),
        "ones*ones": stream_prefix(sys, App("*", (ones, ones)), 5),
        "[2]*ones": stream_prefix(sys, App("*", (sc(2), ones)), 5),
        "X*X": stream_prefix(sys, App("*", (App("X"), App("X"))), 5),
    }
    elapsed = time.perf_counter() - started

    def oracle_convolve(xs, ys):
        return [sum((xs[i] * ys[k - i] for i in range(k + 1)), Fraction(0))
                for k in range(min(len(xs), len(ys)))]

    check(problems, values["X"] == [0, 1, 0, 0], "X prefix")
    for a in (0, 1, 2, 3, 5):
        check(problems, values[f"[{a}]"] == [a, 0, 0], f"[{a}] prefix")
    check(problems, values["ones*ones"] == [1, 2, 3, 4, 5], "ones*ones")
    check(problems, values["ones*ones"] ==
          oracle_convolve(values["ones"], values["ones"]), "oracle product")
    check(problems, values["[2]*ones"] == [2 * v for v in values["ones"]],
          "doubled prefix")
    check(problems, values["[2]*ones"] ==
          oracle_convolve([Fraction(2), 0, 0, 0, 0], values["ones"]),
          "oracle scalar")
    check(problems, values["X*X"] == [0, 0, 1, 0, 0], "X*X prefix")
    check(problems, len(values) == 10, "term count")
    check(problems, elapsed < 1.0, f"runtime {elapsed:.2f}s")
    conclude(5, "stream values", problems, f" [{elapsed:.2f}s]")


def test_criterion_06_cfg_membership_vs_cyk():
    problems: list = []
    started = time.perf_counter()
    words = ["".join(w) for n in range(9)
             for w in itertools.product("ab", repeat=n)]
    check(problems, len(words) == 2 ** 9 - 1, "word count")
    for g in (CFG.grammar, BALANCED.grammar):
        for word in words:
            if member(g, word) != cyk_member(g, word):
                problems.append(f"disagree on {word!r}")
                break
    elapsed = time.perf_counter() - started
    check(problems, elapsed < 10.0, f"runtime {elapsed:.2f}s")
    conclude(6, "membership agrees with CYK", problems, f" [{elapsed:.2f}s]")


def test_criterion_07_quotient_commutation():
    problems: list = []
    started = time.perf_counter()
    systems = (("stream", STREAM.system), ("cfg", to_corec(CFG.grammar)))
    for name, sys in systems:
        env = {x: (Var(x), sys.phi[x]) for x in sys.variables}
        samples = [(t, env)
                   for t in enumerate_terms(sys.law.signature,
                                            set(sys.variables), 4)]
        square = morphism_square_check(sys.theory, sys.law, samples)
        check(problems, square.ok and square.checked == len(samples),
              f"{name} morphism square")
        commute = quotient_commute_check(sys, max_term_size=4, depth=4)
        check(problems, commute.ok and commute.checked > 0,
              f"{name} commute ({len(commute.violations)} violations)")
    elapsed = time.perf_counter() - started

    law = STREAM.law
    rules = tuple(
        replace(r, next=Const("c", Fraction(1))) if r.is_family else r
        for r in law.spec.rules)
    broken = DistLaw(replace(law.spec, rules=rules), law.alphabet, law.outputs)
    mutated = CorecSystem(STREAM.system.variables, STREAM.system.phi,
                          broken, STREAM.theory)
    report = quotient_commute_check(mutated, max_term_size=3, depth=3)
    check(problems, len(report.violations) >= 1, "mutation undetected")
    conclude(7, "quotient commutation", problems, f" [{elapsed:.2f}s]")


def test_criterion_08_algebra_factorization():
    problems: list = []
    cfg_sys = to_corec(CFG.grammar)
    union = induced_algebra_check(cfg_sys, App("+", (Var("S"), Var("B"))),
                                  horizon=5)
    check(problems, union.ok, "union of truncated languages")
    concat = induced_algebra_check(cfg_sys, App("*", (Var("S"), Var("B"))),
                                   horizon=5)
    check(problems, concat.ok, "concatenation of truncated languages")
    scalar = induced_algebra_check(
        STREAM.system, App("*", (Const("c", Fraction(2)), Var("ones"))),
        horizon=5)
    check(problems, scalar.ok, "stream scalar product")
    check(problems, scalar.operational == [2, 2, 2, 2, 2], "scalar values")
    conclude(8, "induced algebra factorization", problems)


def test_criterion_09_law_axioms_and_monad_laws():
    problems: list = []
    law = STREAM.law
    env = {v: (Var(f"x_{v}"),
               Step(RATIONAL_OUTPUTS.atom(f"b_{v}"), {"t": Var(f"d_{v}")}))
           for v in ("v", "u")}
    terms4 = list(enumerate_terms(law.signature, {"v", "u"}, 4))

    # unit: extending a bare variable returns its observation unchanged
    for name, leaf in env.items():
        check(problems, extend_lambda(law, Var(name), env) == leaf,
              f"unit at {name}")

    # copointed: the state component is plain substitution
    states = {name: state for name, (state, _) in env.items()}
    check(problems,
          all(extend_lambda(law, t, env)[0] == substitute(t, states)
              for t in terms4),
          "copointed counit")

    # multiplication: extend over a flattened term equals extending the
    # outer term with the extensions of the pieces
    inner = {"p": App("+", (Var("v"), Var("u"))),
             "q": App("*", (Var("v"), App("X")))}
    inner_env = {name: extend_lambda(law, t, env)
                 for name, t in inner.items()}
    check(problems,
          all(extend_lambda(law, substitute(t, inner), env) ==
              extend_lambda(law, t, inner_env)
              for t in enumerate_terms(law.signature, {"p", "q"}, 3)),
          "multiplication")

    # monad laws of both builtin quotient monads on terms of size <= 4
    sig = STREAM.signature
    for th, inner_sig in (
        (commutative_semiring(sig), sig),
        (idempotent_semiring(CFG.signature), CFG.signature),
    ):
        small = list(enumerate_terms(inner_sig, {"v", "u"}, 4))
        check(problems,
              all(th.quotient_mu(Var("p"), {"p": th.normalize(t)}) ==
                  th.normalize(t) for t in small),
              f"{th.kind} left unit")
        check(problems,
              all(th.quotient_mu(t, {x: th.unit(x) for x in ("v", "u")}) ==
                  th.normalize(t) for t in small),
              f"{th.kind} right unit")
        mids = {"p": small[7], "q": small[11]}
        mid_nfs = {name: th.normalize(t) for name, t in mids.items()}
        inners = {"v": small[5], "u": small[3]}
        inner_nfs = {name: th.normalize(t) for name, t in inners.items()}
        ok_assoc = True
        for outer in enumerate_terms(inner_sig, {"p", "q"}, 3):
            one = th.quotient_mu(
                outer, {name: th.quotient_mu(mid, inner_nfs)
                        for name, mid in mids.items()})
            two = th.quotient_mu(
                th.representative(th.quotient_mu(outer, mid_nfs)), inner_nfs)
            flat = th.normalize(
                substitute(substitute(outer, mids), inners))
            ok_assoc = ok_assoc and one == two == flat
        check(problems, ok_assoc, f"{th.kind} associativity")
    conclude(9, "law axioms and monad laws", problems)