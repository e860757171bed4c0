"""Loading workbench files: frozen shapes for the bundled examples,
round trips through the pretty printer, and positioned diagnostics."""

import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from lawbench.dsl import load, loads, term_from_string
from lawbench.errors import ArityMismatch, LawbenchError, ParseError
from lawbench.solver import stream_prefix
from lawbench.terms import App, Const, Signature, Var, format_term, term_size

from conftest import EXAMPLES, example
from oracles import pretty

BUNDLED = ("stream", "convolution", "three-zeros", "cfg", "balanced")


def test_bundled_stream_file():
    wb = load(example("stream.dsl"))
    assert wb.signature.ops == (("X", 0), ("+", 2), ("*", 2))
    (fam,) = wb.signature.families
    assert fam.name == "c"
    assert fam.samples == (0, 1, 2, 3)
    assert wb.outputs == "rational"
    assert wb.alphabet == ("t",)
    assert wb.theory.kind == "commutative-semiring"
    assert len(wb.theory.schemes) == 10
    assert len(wb.law.spec.rules) == 4
    assert wb.law.spec.format == "simple"
    assert wb.system.variables == ("ones",)
    assert wb.grammar is None


def test_bundled_convolution_file():
    wb = load(example("convolution.dsl"))
    assert wb.law.spec.format == "gsos"
    assert len(wb.law.spec.rules) == 4
    assert wb.system.variables == ("ones",)


def test_bundled_three_zeros_file():
    wb = load(example("three-zeros.dsl"))
    assert wb.signature.ops == (("n1", 0), ("n2", 0), ("n3", 0))
    assert wb.theory.kind == "generic"
    assert [s.name for s in wb.theory.schemes] == ["zeros"]
    assert len(wb.law.spec.rules) == 3
    assert wb.system is None and wb.grammar is None


def test_bundled_grammar_files():
    wb = load(example("cfg.dsl"))
    assert wb.outputs == "bool"
    assert wb.alphabet == ("a", "b")
    assert wb.theory.kind == "idempotent-semiring"
    assert len(wb.theory.schemes) == 11
    assert wb.grammar.nonterminals == ("S", "B")
    assert wb.grammar.start == Var("S")
    assert wb.grammar.empty == {"S": 1, "B": 0}
    assert load(example("balanced.dsl")).grammar.nonterminals == ("S", "R")


def test_the_rule_format_is_read_off_the_rules():
    # A table is gsos when some rule names an argument to reuse it.
    formats = {name: load(example(f"{name}.dsl")).law.spec.format
               for name in BUNDLED}
    assert formats == {"stream": "simple", "three-zeros": "simple",
                       "convolution": "gsos", "cfg": "gsos",
                       "balanced": "gsos"}


def test_every_bundled_file_round_trips():
    for name in BUNDLED:
        wb = load(str(EXAMPLES / f"{name}.dsl"))
        assert loads(pretty(wb)) == wb, name


def test_pretty_refuses_several_families_with_a_lawbench_error():
    wb = loads("signature { op f/2; family c; family d; }\n"
               "theory generic {\n  eq swap: f(v, u) = f(u, v);\n}\n")
    with pytest.raises(LawbenchError, match="several constant families"):
        pretty(wb)


MINIMAL = """signature { op f/2; op k/0; }
outputs rational;
alphabet { t }
"""


def fails_at(text: str, where: str, *needles: str):
    with pytest.raises(ParseError) as err:
        loads(text)
    message = str(err.value)
    assert message.startswith(where), message
    for needle in needles:
        assert needle in message, message


def test_scheme_arity_error_points_at_the_offender():
    text = MINIMAL + "theory generic {\n  eq bad: f(v, v, v) = v;\n}\n"
    with pytest.raises(ArityMismatch) as err:
        loads(text)
    assert str(err.value).startswith("5:11")
    assert "arity 2" in str(err.value)


def test_binder_must_not_shadow_a_letter():
    text = MINIMAL + (
        "rules simple {\n"
        "  rule k =>\n    out = 0;\n    next(t) = k;\n"
        "}\n"
    )
    fails_at(text, "7:10", "shadows an alphabet letter")


def test_simple_rules_must_not_name_their_arguments():
    text = MINIMAL + (
        "rules simple {\n"
        "  rule f(o=a, d=x; y: o=b, d=dy) =>\n    out = a;\n    next(l) = y;\n"
        "}\n"
    )
    fails_at(text, "5:20", "simple rules must not name their arguments")
    loads(text.replace("rules simple", "rules gsos"))


def test_section_level_diagnostics():
    fails_at("outputs rational;\noutputs bool;\n", "2:1", "duplicate section")
    fails_at("mystery { }\n", "1:1", "unknown section")
    fails_at("signature { op f/2;\n", "2:1", "unclosed")
    fails_at("theory generic { }\n", "1:1", "needs a signature")
    fails_at(MINIMAL + "theory sensible;\n", "4:1", "unknown theory")
    fails_at("alphabet { t, t }\n", "1:17", "duplicate alphabet letter")
    fails_at("signature { op f/-1; }\n", "1:18", "arity")
    fails_at("signature { family c samples 1/0; }\n", "1:32", "zero denominator")


PRELUDE = MINIMAL + (
    "rules simple {\n"
    "  rule f(o=a, d=x; o=b, d=y) =>\n"
    "    out = a + b;\n"
    "    next(t') = x;\n"
    "  rule k =>\n"
    "    out = 0;\n"
    "    next(t') = k;\n"
    "}\n"
)


def test_rule_and_system_diagnostics():
    fails_at(
        MINIMAL
        + "rules simple {\n  rule k =>\n    out = 0;\n"
          "    next(t') = case o { 0 => k; 1 => k; };\n}\n",
        "7:16", "case splits need Boolean outputs")
    fails_at(
        PRELUDE
        + "system {\n  var p: out = 1; next(t) = p;\n"
          "  var p: out = 0; next(t) = p;\n}\n",
        "14:7", "defined twice")
    fails_at(
        PRELUDE + "system {\n  var p: out = 1; next(x) = p;\n}\n",
        "13:24", "not an alphabet letter")
    fails_at(
        PRELUDE + "system {\n  var p: out = 1;\n}\n",
        "14:1", "lacks next(t)")


def test_grammar_diagnostics():
    head = ("signature { op +/2; op */2; op 0/0; op 1/0; }\n"
            "outputs bool;\nalphabet { a }\n")
    fails_at(head + "grammar {\n  S: empty=2;\n  S -a-> eps;\n}\n",
             "5:12", "0 or 1")
    fails_at(head + "grammar {\n  S: empty=1;\n  S: empty=1;\n  S -a-> eps;\n}\n",
             "6:3", "duplicate empty-word bit")
    fails_at(head + "grammar {\n  S -a-> eps;\n  start S;\n  start S\n}\n",
             "7:3", "duplicate start")


def test_term_from_string():
    wb = load(example("stream.dsl"))
    sig = wb.signature
    term = term_from_string("[1/2] * X + v", sig, ("v",))
    assert term == App("+", (App("*", (Const("c", Fraction(1, 2)), App("X"))),
                             Var("v")))
    assert term_from_string("[2/4]", sig) == Const("c", Fraction(1, 2))
    with pytest.raises(ParseError) as err:
        term_from_string("[2] * s", sig, ("v",))
    assert "unknown name 's'" in str(err.value)
    with pytest.raises(ParseError):
        term_from_string("v + ", sig, ("v",))
    with pytest.raises(ParseError):
        term_from_string("(v", sig, ("v",))
    with pytest.raises(ParseError):
        term_from_string("v v", sig, ("v",))

def test_deep_terms_print_and_parse():
    depth = 10_000
    sig = load(example("stream.dsl")).signature
    for op in ("+", "*"):
        text = f" {op} ".join(["v", "X"] * (depth // 2))
        term = term_from_string(text, sig, ("v",))
        links, t = 0, term  # the chain parses right-nested
        while isinstance(t, App) and t.symbol == op:
            assert t.args[0] == (Var("v") if links % 2 == 0 else App("X"))
            links, t = links + 1, t.args[1]
        assert (links, t) == (depth - 1, App("X"))
        assert format_term(term) == text
    mixed = " + ".join(["v * X"] * depth)
    assert format_term(term_from_string(mixed, sig, ("v",))) == mixed
    left = Var("v")
    for _ in range(depth - 1):
        left = App("+", (left, Var("v")))
    assert format_term(left) == \
        "(" * (depth - 2) + "v + v" + ") + v" * (depth - 2)


def test_deep_nesting_prints_and_parses_back():
    # Parentheses and argument lists nest without recursion.
    leaves = 3001
    sig = load(example("stream.dsl")).signature
    left = Var("v")
    for i in range(leaves - 1):
        left = App("+", (left, App("X") if i % 2 else Var("v")))
    text = format_term(left)
    assert text.count("(") == leaves - 2
    assert term_from_string(text, sig, ("v",)) == left

    ops = Signature((("g", 1), ("h", 2), ("a", 0), ("+", 2), ("*", 2)))
    nested = Var("v")
    for _ in range(leaves):
        nested = App("g", (App("+", (nested, App("a"))),))
    text = format_term(nested)
    assert term_from_string(text, ops, ("v",)) == nested
    text = "h(a + v, v * (a + v)) + g(h(v, a * a))"
    assert format_term(term_from_string(text, ops, ("v",))) == text



def test_deep_indices_and_outputs_load_and_run():
    # Indices and outputs are read on the term reader's explicit stack.
    stream = (EXAMPLES / "stream.dsl").read_text()
    x_rule = "next(t') = [1];"
    parens = "[" + "(" * 5000 + "1" + ")" * 5000 + "]"
    minuses = "[" + "-" * 5001 + "1]"
    for index, second in ((parens, 1), (minuses, -1)):
        wb = loads(stream.replace(x_rule, f"next(t') = {index};"))
        assert stream_prefix(wb.system, App("X"), 4) == [0, second, 0, 0]
    out = "out = " + "(" * 3000 + "a * b" + ")" * 3000 + ";"
    wb = loads(stream.replace("out = a * b;", out))
    assert wb == loads(stream)
    assert stream_prefix(wb.system, term_from_string(
        "ones * ones", wb.signature, ("ones",)), 4) == [1, 2, 3, 4]


def test_a_deep_successor_template_loads():
    # The rule table's templates are validated on an explicit stack.
    stream = (EXAMPLES / "stream.dsl").read_text()
    chain = "x + " * 1999 + "y"
    wb = loads(stream.replace("next(t') = x + y;", f"next(t') = {chain};"))
    rule = wb.law.spec.rule_for("+")
    links, t = 0, rule.next
    while isinstance(t, App):
        links, t = links + 1, t.args[1]
    assert (links, t) == (1999, Var("y"))


def test_a_deep_generic_scheme_loads():
    # Index atoms of scheme sides are collected on an explicit stack.
    side = "g(" * 2000 + "v" + ")" * 2000
    wb = loads("signature { op g/1; }\n"
               f"theory generic {{\n  eq deep: {side} = v;\n}}\n")
    (scheme,) = wb.theory.schemes
    assert scheme.metavars == ("v",)
    assert term_size(scheme.lhs) == 2001


def test_a_literal_output_is_a_nullary_symbol_and_round_trips():
    wb = loads((EXAMPLES / "stream.dsl").read_text()
               .replace("out = 0;", "out = 2/4;"))
    rule = wb.law.spec.rule_for("X")
    assert rule.output == App("1/2")
    assert "out = 1/2;" in pretty(wb)
    assert loads(pretty(wb)) == wb
    assert stream_prefix(wb.system, App("X"), 2) == [Fraction(1, 2), 1]


def test_start_is_not_a_nonterminal():
    fails_at("grammar { S: empty=1; S -a-> S start; start S }",
             "1:32", "'start' cannot be a nonterminal")


SOURCES = [(EXAMPLES / f"{name}.dsl").read_text() for name in BUNDLED]
LEXEME = re.compile(r"#[^\n]*|-[A-Za-z_]\w*->|=>|\d+|[A-Za-z_][\w']*|\S")
TOKENS = [[tok for tok in LEXEME.findall(text) if not tok.startswith("#")]
          for text in SOURCES]
VOCABULARY = sorted({tok for toks in TOKENS for tok in toks})


@st.composite
def mutated_files(draw):
    """A bundled file with one to three tokens deleted, replaced or
    inserted, the new tokens drawn from the files' own vocabulary."""
    toks = list(draw(st.sampled_from(TOKENS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(toks) - 1))
        kind = draw(st.sampled_from(("delete", "replace", "insert")))
        if kind == "delete":
            del toks[i]
        elif kind == "replace":
            toks[i] = draw(st.sampled_from(VOCABULARY))
        else:
            toks.insert(i, draw(st.sampled_from(VOCABULARY)))
    return " ".join(toks)


@settings(max_examples=400)
@given(mutated_files())
def test_mutated_files_fail_cleanly_or_round_trip(text):
    try:
        wb = loads(text)
    except LawbenchError:
        return
    assert loads(pretty(wb)) == wb
