"""Output algebras and one-step observations.

The Boolean side is checked against exhaustive truth tables computed
directly in the test, the rational side against pointwise Fraction
arithmetic; the symbolic forms must agree with both everywhere.
"""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from lawbench.behaviour import (
    BOOL_OUTPUTS,
    RATIONAL_OUTPUTS,
    BoolFunc,
    Step,
    output_algebra,
    words_upto,
)
from lawbench.errors import AlphabetMismatch, UnknownSymbol

# ---------------------------------------------------------------- oracles

ATOMS = ("p", "q", "r")


def eval_bool_expr(expr, env):
    """Truth-table oracle: plain recursion, no canonicalisation."""
    kind = expr[0]
    if kind == "atom":
        return env[expr[1]]
    if kind == "const":
        return expr[1]
    _, op, left, right = expr
    lv, rv = eval_bool_expr(left, env), eval_bool_expr(right, env)
    return min(lv, rv) if op == "min" else max(lv, rv)


def bool_of_expr(expr, alg):
    kind = expr[0]
    if kind == "atom":
        return alg.atom(expr[1])
    if kind == "const":
        return alg.coerce(expr[1])
    _, op, left, right = expr
    return alg.apply(op, [bool_of_expr(left, alg), bool_of_expr(right, alg)])


def all_envs():
    for bits in itertools.product((0, 1), repeat=len(ATOMS)):
        yield dict(zip(ATOMS, bits))


bool_exprs = st.recursive(
    st.one_of(
        st.tuples(st.just("atom"), st.sampled_from(ATOMS)),
        st.tuples(st.just("const"), st.sampled_from([0, 1])),
    ),
    lambda sub: st.tuples(st.just("op"), st.sampled_from(["min", "max"]), sub, sub),
    max_leaves=10,
)

# ------------------------------------------------------------------ tests


@given(bool_exprs)
def test_bool_canonical_form_agrees_with_truth_table(expr):
    fn = bool_of_expr(expr, BOOL_OUTPUTS)
    for env in all_envs():
        assert fn.evaluate(env) == eval_bool_expr(expr, env)


@given(bool_exprs, bool_exprs)
def test_bool_equality_is_truth_table_equality(e1, e2):
    f1 = bool_of_expr(e1, BOOL_OUTPUTS)
    f2 = bool_of_expr(e2, BOOL_OUTPUTS)
    tables_equal = all(
        eval_bool_expr(e1, env) == eval_bool_expr(e2, env) for env in all_envs()
    )
    assert (f1 == f2) == tables_equal


def test_bool_minimization_drops_irrelevant_atoms():
    # min(p, max(q, 1)) is just p
    f = BOOL_OUTPUTS.apply(
        "min",
        [BoolFunc.atom("p"), BOOL_OUTPUTS.apply("max", [BoolFunc.atom("q"), 1])],
    )
    assert f == BoolFunc.atom("p")
    assert f.atoms == ("p",)


def test_rational_symbolic_equality_matches_sample_evaluation():
    alg = RATIONAL_OUTPUTS
    lhs = alg.apply("*", [alg.atom("a"), alg.apply("+", [alg.atom("b"), alg.atom("c")])])
    rhs = alg.apply("+", [alg.apply("*", [alg.atom("a"), alg.atom("b")]),
                          alg.apply("*", [alg.atom("a"), alg.atom("c")])])
    assert alg.equal(lhs, rhs)
    for a in alg.samples:
        for b in alg.samples:
            env = {"a": a, "b": b, "c": Fraction(3)}
            assert alg.evaluate(lhs, env) == alg.evaluate(rhs, env)


def test_concrete_round_trip():
    assert BOOL_OUTPUTS.concrete(1) == 1
    assert RATIONAL_OUTPUTS.concrete(Fraction(5, 3)) == Fraction(5, 3)
    assert not BOOL_OUTPUTS.is_concrete(BoolFunc.atom("p"))
    with pytest.raises(ValueError):
        BOOL_OUTPUTS.concrete(BoolFunc.atom("p"))
    with pytest.raises(ValueError):
        BOOL_OUTPUTS.coerce(2)


def test_unknown_operation_rejected():
    with pytest.raises(UnknownSymbol):
        BOOL_OUTPUTS.apply("+", [0, 1])
    with pytest.raises(UnknownSymbol):
        RATIONAL_OUTPUTS.apply("min", [0, 1])
    with pytest.raises(ValueError):
        output_algebra("complex")


def test_output_algebras_are_shared():
    assert output_algebra("bool") is BOOL_OUTPUTS
    assert output_algebra("rational") is RATIONAL_OUTPUTS


def test_step_accessors():
    succ_a, succ_b = object(), object()
    step = Step.of(1, {"b": succ_b, "a": succ_a})
    assert step.letters == ("a", "b")  # sorted on construction
    assert step.next("a") is succ_a
    assert step.next_map == {"a": succ_a, "b": succ_b}
    with pytest.raises(AlphabetMismatch):
        step.next("c")


def test_words_upto_counts_and_order():
    ws = list(words_upto(("a", "b"), 3))
    assert len(ws) == 1 + 2 + 4 + 8
    assert len(set(ws)) == len(ws)
    lengths = [len(w) for w in ws]
    assert lengths == sorted(lengths)  # shortest first
    assert ws[:3] == [(), ("a",), ("b",)]
