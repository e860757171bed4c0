"""Grammars in Greibach normal form and the three recognizers.

Both oracles below decide their language directly from the definition:
a^n b^n by splitting the word in half, balanced strings by a counter
scan.  They share no code with the recognizers under test.
"""

import random
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lawbench.cfg import GnfGrammar, equiv_upto, member, to_corec
from lawbench.dsl import load
from lawbench.errors import InvalidGrammar, LawbenchError
from lawbench.solver import operational_model
from lawbench.terms import App, Var, term_size

from conftest import example
from oracles import cyk_member, derivative_member

# ---------------------------------------------------------------- oracles


def anbn_oracle(word: str) -> int:
    n, r = divmod(len(word), 2)
    return int(r == 0 and word == "a" * n + "b" * n)


def balanced_oracle(word: str) -> int:
    depth = 0
    for ch in word:
        depth += 1 if ch == "a" else -1
        if depth < 0:
            return 0
    return int(depth == 0)


def test_oracles_on_known_words():
    assert [anbn_oracle(w) for w in ("", "ab", "aabb", "ba", "abab")] == \
        [1, 1, 1, 0, 0]
    assert [balanced_oracle(w) for w in ("", "ab", "abab", "aabb", "ba")] == \
        [1, 1, 1, 1, 0]


# --------------------------------------------------------------- fixtures

ANBN = load(example("cfg.dsl")).grammar
BALANCED = load(example("balanced.dsl")).grammar
S = Var("S")


def all_words(maxlen: int):
    for n in range(maxlen + 1):
        for letters in product("ab", repeat=n):
            yield "".join(letters)


# ------------------------------------------------------------------ tests


def test_member_frozen_values():
    words = ("", "ab", "aabb", "ba", "aab", "abab", "abb")
    assert [member(ANBN, w) for w in words] == [1, 1, 1, 0, 0, 0, 0]
    assert [member(BALANCED, w) for w in words] == [1, 1, 1, 0, 0, 1, 0]


def test_grammar_successors_are_their_own_normal_forms():
    # the equation system reads back each production set as the canonical
    # representative of the language of sentential forms, so normalising
    # a successor must be the identity
    rng = random.Random(0)
    grammars = [ANBN, BALANCED]
    for _ in range(20):
        nts = ("A", "B", "C")
        empty = {x: rng.randint(0, 1) for x in nts}
        prods = {}
        for x in nts:
            prods[x] = {
                a: frozenset(
                    tuple(rng.choice(nts) for _ in range(rng.randint(0, 2)))
                    for _ in range(rng.randint(0, 2)))
                for a in ("a", "b")}
        grammars.append(GnfGrammar(nts, ("a", "b"), empty, prods))
    for g in grammars:
        sys = to_corec(g)
        th = sys.theory
        for x in g.nonterminals:
            for succ in sys.phi[x].moves.values():
                assert th.representative(th.normalize(succ)) == succ


def test_recognizers_agree_with_each_other_and_the_oracle():
    for g, oracle in ((ANBN, anbn_oracle), (BALANCED, balanced_oracle)):
        for word in all_words(6):
            expected = oracle(word)
            assert member(g, word) == expected, word
            assert cyk_member(g, word) == expected, word
            assert derivative_member(g, word) == expected, word


NONTERMINALS = ("A", "B", "C", "D")


@st.composite
def gnf_grammars(draw):
    """Small random GNF grammars: 2-4 nonterminals over two letters,
    bodies of length 0-3, random empty bits and a random start
    expression over ``+ * 0 1``."""
    nts = NONTERMINALS[:draw(st.integers(2, 4))]
    bodies = st.frozensets(st.lists(st.sampled_from(nts), max_size=3)
                           .map(tuple), max_size=3)
    prods = {x: {a: draw(bodies) for a in "ab"} for x in nts}
    empty = {x: draw(st.integers(0, 1)) for x in nts}
    start = draw(st.recursive(
        st.sampled_from([App("0"), App("1")] + [Var(x) for x in nts]),
        lambda sub: st.builds(lambda op, l, r: App(op, (l, r)),
                              st.sampled_from("+*"), sub, sub),
        max_leaves=5))
    return GnfGrammar(nts, ("a", "b"), empty, prods, start=start)


@settings(max_examples=50, deadline=None)
@given(gnf_grammars())
def test_recognizers_agree_on_random_grammars(g):
    # The rule-table recognizer reads the head's empty bit at every *;
    # the two direct recognizers decide the same words without it.
    for word in all_words(4):
        expected = cyk_member(g, word)
        assert derivative_member(g, word) == expected, word
        assert member(g, word) == expected, word


def test_start_expression_grammars():
    # S * B generates a^n b^(n+1); the empty-language start accepts nothing
    g = GnfGrammar(ANBN.nonterminals, ANBN.alphabet, ANBN.empty, ANBN.prods,
                   start=App("*", (S, Var("B"))))
    for word in all_words(5):
        expected = int(bool(word) and word[-1] == "b"
                       and anbn_oracle(word[:-1]) == 1)
        assert member(g, word) == expected, word
        assert cyk_member(g, word) == expected, word
        assert derivative_member(g, word) == expected, word

    nothing = GnfGrammar(ANBN.nonterminals, ANBN.alphabet, ANBN.empty,
                         ANBN.prods, start=App("0"))
    for word in ("", "a", "ab"):
        assert member(nothing, word) == 0
        assert cyk_member(nothing, word) == 0
        assert derivative_member(nothing, word) == 0


def test_equiv_upto_finds_the_least_counterexample():
    result = equiv_upto(ANBN, S, App("1"), 2)
    assert not result.equivalent
    assert result.counterexample == ("a", "b")
    assert str(result) == "Counterexample(ab)"
    # every length-lexicographically earlier word agrees
    for word in ("", "a", "b", "aa"):
        assert member(ANBN, word) == \
            int(word == ""), word  # the 1 expression accepts only eps

    eps = equiv_upto(ANBN, App("0"), App("1"), 2)
    assert eps.counterexample == ()
    assert str(eps) == "Counterexample(eps)"


def test_equiv_upto_equivalences():
    assert equiv_upto(ANBN, S, S, 4).equivalent
    assert str(equiv_upto(ANBN, S, S, 4)) == "Equivalent"
    assert equiv_upto(ANBN, App("+", (S, App("0"))), S, 6).equivalent
    assert equiv_upto(ANBN, App("*", (S, App("1"))), S, 6).equivalent
    # eps is already in the language, so adjoining it changes nothing
    assert equiv_upto(ANBN, App("+", (S, App("1"))), S, 6).equivalent


def test_equiv_upto_rejects_foreign_symbols():
    with pytest.raises(InvalidGrammar):
        equiv_upto(ANBN, Var("Z"), S, 2)


def test_states_stay_linear_along_a_membership_run():
    sys = to_corec(ANBN)
    th = sys.theory
    state = ANBN.start
    sizes = []
    for letter in "aaaaaaaabbbbbbbb":
        state = operational_model(sys, state).next(letter)
        state = th.representative(th.normalize(state))
        sizes.append(term_size(state))
    assert sizes == [3, 5, 7, 9, 11, 13, 15, 17, 13, 11, 9, 7, 5, 3, 1, 1]


def test_grammar_validation():
    ok_prods = {"A": {"a": frozenset({()})}}
    with pytest.raises(InvalidGrammar):
        GnfGrammar((), ("a",), {}, {})
    with pytest.raises(InvalidGrammar):
        GnfGrammar(("A", "A"), ("a",), {}, {})
    with pytest.raises(InvalidGrammar):
        GnfGrammar(("A",), (), {}, {})
    with pytest.raises(InvalidGrammar):
        GnfGrammar(("A",), ("a", "a"), {}, {})
    with pytest.raises(InvalidGrammar):
        GnfGrammar(("A",), ("A",), {}, {})
    with pytest.raises(InvalidGrammar):
        GnfGrammar(("A",), ("a",), {"B": 1}, {})
    with pytest.raises(InvalidGrammar):
        GnfGrammar(("A",), ("a",), {"A": 2}, {})
    with pytest.raises(InvalidGrammar):
        GnfGrammar(("A",), ("a",), {}, {"B": {"a": frozenset({()})}})
    with pytest.raises(InvalidGrammar):
        GnfGrammar(("A",), ("a",), {}, {"A": {"b": frozenset({()})}})
    with pytest.raises(InvalidGrammar):
        GnfGrammar(("A",), ("a",), {}, {"A": {"a": frozenset({("B",)})}})
    with pytest.raises(InvalidGrammar):
        GnfGrammar(("A",), ("a",), {}, ok_prods, start=Var("Z"))

def test_a_nonterminal_named_like_a_symbol_is_rejected():
    # Unfolding would read the atom "1" back as the language {eps}.
    g = GnfGrammar(("S", "1"), ("a",), {"1": 0},
                   {"S": {"a": {("1", "1")}}, "1": {"a": {()}}})
    assert derivative_member(g, "a") == cyk_member(g, "a") == 0
    with pytest.raises(LawbenchError, match="'1' is named like a symbol"):
        member(g, "a")


@pytest.mark.parametrize("k", [8, 12])
def test_membership_with_large_states(k):
    # Every a doubles the sentential forms, so the state after a^k holds
    # 2^(k+1) of them; the term path recursed over such states.
    g = GnfGrammar(
        nonterminals=("S", "A", "B"),
        alphabet=("a", "b"),
        empty={},
        prods={"S": {"a": {("A", "B"), ("B", "A"), ("A", "A"), ("B", "B")}},
               "A": {"a": {("A", "B"), ("B", "A")}, "b": {()}},
               "B": {"a": {("A", "A"), ("B", "B")}, "b": {()}}},
    )
    word = "a" * k + "b" * (k + 1)
    assert member(g, word) == derivative_member(g, word) == 1
