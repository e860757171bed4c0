"""Output algebras and one-step observations.

Boolean outputs are the bits 0 and 1; the rational side is checked
against pointwise Fraction arithmetic, which the symbolic forms must
agree with everywhere.
"""

from fractions import Fraction

import pytest

from lawbench.behaviour import (
    BOOL_OUTPUTS,
    RATIONAL_OUTPUTS,
    Step,
    output_algebra,
)
from lawbench.errors import AlphabetMismatch, UnknownSymbol

SAMPLES = (Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))


def test_rational_symbolic_equality_matches_sample_evaluation():
    alg = RATIONAL_OUTPUTS
    lhs = alg.apply("*", [alg.atom("a"), alg.apply("+", [alg.atom("b"), alg.atom("c")])])
    rhs = alg.apply("+", [alg.apply("*", [alg.atom("a"), alg.atom("b")]),
                          alg.apply("*", [alg.atom("a"), alg.atom("c")])])
    assert alg.equal(lhs, rhs)
    for a in SAMPLES:
        for b in SAMPLES:
            env = {"a": a, "b": b, "c": Fraction(3)}
            assert lhs.evaluate(env) == rhs.evaluate(env)


def test_concrete_round_trip():
    assert BOOL_OUTPUTS.concrete(1) == 1
    assert RATIONAL_OUTPUTS.concrete(Fraction(5, 3)) == Fraction(5, 3)
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
    assert list(step.moves) == ["a", "b"]  # sorted on construction
    assert step.next("a") is succ_a
    assert step.moves == {"a": succ_a, "b": succ_b}
    with pytest.raises(AlphabetMismatch):
        step.next("c")



def test_boolean_outputs_are_bits():
    alg = BOOL_OUTPUTS
    for value in (0, 1, Fraction(0), Fraction(1), False, True):
        bit = alg.coerce(value)
        assert bit == value and type(bit) is int
        assert alg.is_concrete(bit) and alg.concrete(bit) == bit
    for value in (2, -1, Fraction(1, 2), "1"):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            alg.coerce(value)
    assert alg.apply("min", [1, 0, 1]) == 0
    assert alg.apply("max", [0, Fraction(1)]) == 1
    assert alg.format(True) == "1"
    with pytest.raises(ValueError):
        alg.atom("p")
