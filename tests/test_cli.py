"""The command-line interface, run in process and in fresh interpreters.

Exit code contract: 0 pass, 1 failed check or counterexample, 2 unknown
verdict, 3 usage and load errors, 4 internal errors.  Every ``--json`` payload must validate
against the bundled report schema.
"""

import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from lawbench import cli, gsos
from lawbench.cli import run
from lawbench.dsl import load, term_from_string

from conftest import EXAMPLES, example

UNDECIDED = """signature { op ca/0; op cb/0; op g/1; op h/1; }
outputs rational;
alphabet { t }
theory generic {
  eq ca-is-cb: ca = cb;
  eq pad-g: g(v) = g(g(v));
  eq pad-h: h(v) = h(h(v));
}
rules simple {
  rule ca =>
    out = 0;
    next(t') = g(ca);
  rule cb =>
    out = 0;
    next(t') = h(cb);
  rule g(o=a, d=x) =>
    out = 0;
    next(t') = g(x);
  rule h(o=a, d=x) =>
    out = 0;
    next(t') = h(x);
}
"""


@pytest.fixture
def undecided_file(tmp_path):
    path = tmp_path / "undecided.dsl"
    path.write_text(UNDECIDED)
    return str(path)


def test_check_preservation_exit_codes(capsys, undecided_file):
    assert run(["check-preservation", example("stream.dsl")]) == 0
    assert run(["check-preservation", example("cfg.dsl")]) == 0
    assert run(["check-preservation", example("three-zeros.dsl")]) == 1
    assert run(["check-preservation", example("convolution.dsl")]) == 1
    assert run(["check-preservation", undecided_file]) == 2
    out = capsys.readouterr().out
    assert "times-comm" in out and "zeros" in out


def test_run_command(capsys):
    code = run(["run", example("stream.dsl"),
                "--state", "ones * ones", "--word", "tt"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "output 3"


def test_stream_command(capsys):
    code = run(["stream", example("stream.dsl"),
                "--state", "ones * ones", "--n", "5"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1 2 3 4 5"


def test_stream_command_reads_a_deeply_nested_index(capsys):
    index = "(" * 400 + "1" + ")" * 400
    code = run(["stream", example("stream.dsl"),
                "--state", f"[{index}] * ones", "--n", "4"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1 1 1 1"


def test_a_system_variable_named_like_a_symbol_is_a_load_error(
        capsys, tmp_path):
    # Normal forms read the atom X back as the symbol X, whose stream is
    # (0, 1, 0, 0, ...), not the variable's.
    path = tmp_path / "x.dsl"
    path.write_text(pathlib.Path(example("stream.dsl")).read_text()
                    .replace("var ones: out = 1;", "var X: out = 5;")
                    .replace("next(t) = ones;", "next(t) = X;"))
    assert run(["stream", str(path), "--state", "X", "--n", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("error: variable 'X' is named like a symbol "
                            "of the signature\n")
    assert captured.out == ""


def test_cfg_member_exit_codes(capsys):
    assert run(["cfg-member", example("cfg.dsl"), "--word", "ab"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["cfg-member", example("cfg.dsl"), "--word", "ba"]) == 1
    assert capsys.readouterr().out.strip() == "0"
    assert run(["cfg-member", example("cfg.dsl")]) == 0  # empty word


def test_cfg_equiv_exit_codes(capsys):
    assert run(["cfg-equiv", example("cfg.dsl"),
                "--left", "S", "--right", "S"]) == 0
    assert capsys.readouterr().out.strip() == "Equivalent"
    assert run(["cfg-equiv", example("cfg.dsl"),
                "--left", "S", "--right", "1", "--maxlen", "3"]) == 1
    assert capsys.readouterr().out.strip() == "Counterexample(ab)"


def test_quotient_commute_command(capsys):
    code = run(["quotient-commute", example("stream.dsl"),
                "--max-size", "3", "--depth", "3"])
    assert code == 0
    assert "0 violations" in capsys.readouterr().out


def test_quotient_commute_runs_deep_words(capsys):
    # A word of 1200 letters; the walk keeps its nodes on a stack, so
    # nothing recurses with the depth.  Each of the 6 seeds of size 1
    # has one successor per step: 6 * 1201 pairs.
    code = run(["quotient-commute", example("stream.dsl"),
                "--max-size", "1", "--depth", "1200"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == "checked 7206 term/word pairs; 0 violations\n"


def test_algebra_check_command(capsys):
    code = run(["algebra-check", example("stream.dsl"),
                "--outer", "[2] * ones", "--horizon", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("agree")
    assert "2 2 2 2 2" in out


def test_algebra_check_runs_long_words(capsys, tmp_path):
    # cfg.dsl cut to one letter, with the grammar S -> aS | eps: a table
    # of 1201 words, up to 1200 letters long, kept on a stack.
    text = pathlib.Path(example("cfg.dsl")).read_text()
    grammar = text[text.index("grammar {"):]
    text = text.replace("alphabet { a, b }", "alphabet { a }").replace(
        grammar, "grammar {\n  S: empty=1;\n  S -a-> S;\n  start S\n}\n")
    path = tmp_path / "one-letter.dsl"
    path.write_text(text)
    code = run(["algebra-check", str(path), "--outer", "S",
                "--horizon", "1200"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.startswith("agree\n")
    # Both rows list every word, the longest last.
    assert captured.out.count(" " + "a" * 1200 + "\n") == 2


@pytest.mark.parametrize("args", (
    ["check-preservation", "--trace"],
    ["quotient-commute", "--max-size", "3", "--depth", "3"],
    ["cfg-equiv", "--left", "S", "--right", "1"],
    ["run", "--state", "S", "--word", "aab"],
    ["algebra-check", "--outer", "S * B", "--horizon", "4"],
), ids=("preservation", "commute", "equiv", "run", "algebra"))
def test_output_does_not_depend_on_the_declared_letter_order(capsys, tmp_path,
                                                             args):
    # Steps keep their moves in sorted-letter order, whatever order the
    # alphabet block declares.
    text = pathlib.Path(example("cfg.dsl")).read_text()
    assert "alphabet { a, b }" in text
    path = tmp_path / "b-before-a.dsl"
    path.write_text(text.replace("alphabet { a, b }", "alphabet { b, a }"))
    outputs = []
    for file in (example("cfg.dsl"), str(path)):
        code = run([args[0], file, *args[1:]])
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append((code, captured.out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, calls", [
    (["stream", "stream.dsl", "--state", "ones * ones * ones", "--n", "30"],
     1679),
    (["run", "stream.dsl", "--state", "ones * ones", "--word", "tt"], 10),
    (["quotient-commute", "stream.dsl", "--max-size", "3", "--depth", "3"],
     374),
    (["check-preservation", "stream.dsl"], 32),
    (["cfg-member", "cfg.dsl", "--word", "aabb"], 4),
    (["cfg-equiv", "cfg.dsl", "--left", "S", "--right", "1"], 5),
    (["quotient-commute", "cfg.dsl", "--max-size", "3", "--depth", "3"], 134),
    (["check-preservation", "cfg.dsl"], 178),
    (["algebra-check", "cfg.dsl", "--outer", "S * B", "--horizon", "4"], 12),
], ids=lambda v: f"{v[0]}:{v[1]}" if isinstance(v, list) else None)
def test_rule_applications_per_command(capsys, monkeypatch, argv, calls):
    # Every rule application goes through gsos.apply_rule, once per
    # (symbol, observed arguments) that a command's caches have not seen.
    count = 0
    apply_rule = gsos.apply_rule

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return apply_rule(*args, **kwargs)

    monkeypatch.setattr(gsos, "apply_rule", counting)
    run([argv[0], example(argv[1]), *argv[2:]])
    capsys.readouterr()
    assert count == calls


@pytest.mark.parametrize("argv, calls", [
    (["stream", "--state", "ones * ones * ones", "--n", "16"], 288),
    (["run", "--state", "ones * ones", "--word", "ttt"], 11),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_plain_unfolding_extends_each_subterm_once(capsys, monkeypatch,
                                                   tmp_path, argv, calls):
    # Without its theory, convolution.dsl runs on the free theory's
    # quotient, the term path: its model extends every state through one
    # memo for the command, so a subterm met again costs no rule
    # application.  The answers are those of the file with its theory.
    text = pathlib.Path(example("convolution.dsl")).read_text()
    line = "theory commutative-semiring;\n"
    assert line in text
    plain = tmp_path / "plain.dsl"
    plain.write_text(text.replace(line, ""))
    count = 0
    apply_rule = gsos.apply_rule

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return apply_rule(*args, **kwargs)

    monkeypatch.setattr(gsos, "apply_rule", counting)

    def lines(path: str) -> list[str]:
        assert run([argv[0], path, *argv[1:]]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out.splitlines()

    plain_out = lines(str(plain))
    assert count == calls
    quotient_out = lines(example("convolution.dsl"))
    if argv[0] == "stream":
        assert plain_out == quotient_out
        return
    # run prints the final state: a term on the plain side, a normal
    # form's representative on the quotient, congruent under the theory.
    assert plain_out[0] == quotient_out[0]
    wb = load(example("convolution.dsl"))
    plain_state, quotient_state = (
        term_from_string(out[1].removeprefix("state "), wb.signature,
                         wb.system.variables)
        for out in (plain_out, quotient_out))
    assert wb.theory.normalize(plain_state) == \
        wb.theory.normalize(quotient_state)


@pytest.mark.parametrize("argv", [
    ["check-preservation", "cfg.dsl"],
    ["run", "stream.dsl", "--state", "ones * ones", "--word", "tt"],
    ["stream", "convolution.dsl", "--state", "ones * ones", "--n", "5"],
    ["cfg-member", "cfg.dsl", "--word", "aabb"],
    ["cfg-equiv", "balanced.dsl", "--left", "S", "--right", "S + 0"],
    ["quotient-commute", "stream.dsl", "--max-size", "3", "--depth", "3"],
    ["algebra-check", "stream.dsl", "--outer",
     "[2] * ones * ones + X * ones"],
    ["algebra-check", "cfg.dsl", "--outer", "S * B"],
], ids=lambda argv: f"{argv[0]}:{argv[1]}")
def test_one_model_per_command(capsys, monkeypatch, argv):
    # Every run of a command steps the one QuotientStepper solver.model
    # built for it, composite and leaves alike.
    built = 0
    init = gsos.QuotientStepper.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(gsos.QuotientStepper, "__init__", counting)
    code = run([argv[0], example(argv[1]), *argv[2:]])
    assert capsys.readouterr().err == ""
    assert code in (0, 1)
    assert built <= 1


@pytest.mark.parametrize("block, old, new", [
    ("rules", "out = max(ox, oy);", "out = min(ox, oy);"),
    ("theory", "theory idempotent-semiring;", "theory free;"),
], ids=("rules", "theory"))
@pytest.mark.parametrize("argv", [
    ["run", "--state", "S + 0"],
    ["cfg-member", "--word", "ab"],
    ["cfg-equiv", "--left", "S + 0", "--right", "S"],
    ["quotient-commute", "--max-size", "3", "--depth", "2"],
    ["algebra-check", "--outer", "S * B"],
], ids=lambda argv: argv[0])
def test_grammar_commands_refuse_a_block_they_would_ignore(
        capsys, tmp_path, block, old, new, argv):
    # Grammar commands run the built-in language law and theory.
    text = pathlib.Path(example("cfg.dsl")).read_text()
    assert text.count(old) == 1
    path = tmp_path / f"{block}.dsl"
    path.write_text(text.replace(old, new))
    assert run([argv[0], str(path), *argv[1:]]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: the {block} block ")
    # check-preservation still reads the file's own blocks.
    expected = {"rules": (1, "overall: fails"), "theory": (0, "overall: holds")}
    assert run(["check-preservation", str(path)]) == expected[block][0]
    assert capsys.readouterr().out.splitlines()[-1] == expected[block][1]


def test_grammar_blocks_match_in_any_declaration_order(capsys, tmp_path):
    text = pathlib.Path(example("cfg.dsl")).read_text()
    ops = "  op +/2;\n  op */2;\n  op 0/0;\n  op 1/0;\n"
    zero = "  rule 0 =>\n    out = 0;\n    next(l) = 0;\n"
    assert text.count(ops) == 1 and text.count(zero) == 1
    path = tmp_path / "reordered.dsl"
    path.write_text(text.replace(ops, "  op 1/0;\n  op 0/0;\n  op */2;\n"
                                      "  op +/2;\n")
                    .replace(zero, "").replace("rules gsos {\n",
                                               "rules gsos {\n" + zero))
    assert run(["cfg-member", str(path), "--word", "aabb"]) == 0
    assert capsys.readouterr() == ("1\n", "")


def test_grammar_blocks_match_whatever_the_binder_is_named(capsys, tmp_path):
    # The binder only names the successor clause; a rule does not keep it.
    text = pathlib.Path(example("cfg.dsl")).read_text()
    assert text.count("next(l)") == 4
    path = tmp_path / "binder.dsl"
    path.write_text(text.replace("next(l)", "next(k)"))
    assert run(["cfg-member", str(path), "--word", "aabb"]) == 0
    assert capsys.readouterr() == ("1\n", "")


def test_a_system_variable_may_be_named_like_a_keyword(capsys, tmp_path):
    # A system block is read once, so ``var`` starts an item only where
    # an item starts.
    path = tmp_path / "var.dsl"
    path.write_text(pathlib.Path(example("stream.dsl")).read_text()
                    .replace("var ones:", "var var:")
                    .replace("next(t) = ones;", "next(t) = var;"))
    assert run(["stream", str(path), "--state", "var", "--n", "3"]) == 0
    assert capsys.readouterr() == ("1 1 1\n", "")


@pytest.mark.parametrize("heads", ["", " eps: empty=1;"])
def test_eps_is_only_the_empty_body(capsys, tmp_path, heads):
    # ``eps`` is the empty word as a whole body, and no nonterminal, even
    # when a head declares it.
    path = tmp_path / "eps.dsl"
    path.write_text(f"grammar {{ S: empty=1; S -a-> S eps;{heads} start S }}\n")
    assert run(["cfg-member", str(path), "--word", "a"]) == 3
    assert capsys.readouterr() == (
        "", "error: 1:32: 'eps' cannot be a nonterminal\n")


def test_usage_and_load_errors(capsys, tmp_path):
    not_utf8 = tmp_path / "utf16.dsl"
    not_utf8.write_bytes(b"\xff\xfesignature")
    cases = (
        ["cfg-member", example("cfg.dsl"), "--word", "xz"],
        ["run", example("stream.dsl"), "--state", "ones", "--word", "q"],
        ["check-preservation", "/no/such/file.dsl"],
        ["check-preservation", str(EXAMPLES)],  # a directory
        ["check-preservation", str(not_utf8)],
        ["run", example("three-zeros.dsl"), "--state", "n1"],
        ["cfg-member", example("stream.dsl"), "--word", "t"],
        ["stream", example("stream.dsl"), "--state", "nope"],
        ["check-preservation", example("stream.dsl"), "--bogus"],
        ["no-such-command", example("stream.dsl")],
    )
    for argv in cases:
        assert run(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error:"), argv
        assert captured.err.count("\n") == 1, argv
        assert captured.out == "", argv


@pytest.mark.parametrize("argv", (
    ["stream", example("stream.dsl"), "--state", "ones", "--n", "-3"],
    ["quotient-commute", example("stream.dsl"), "--max-size", "0"],
    ["quotient-commute", example("stream.dsl"), "--depth", "-1"],
    ["algebra-check", example("stream.dsl"), "--outer", "ones",
     "--horizon", "-2"],
    ["cfg-equiv", example("cfg.dsl"), "--left", "S", "--right", "S",
     "--maxlen", "-1"],
), ids=("stream-n", "max-size", "depth", "horizon", "maxlen"))
def test_out_of_range_bounds_are_usage_errors(capsys, argv):
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: argument --")
    assert "must be at least" in captured.err
    assert captured.out == ""


def test_internal_errors_have_their_own_exit_code(capsys, monkeypatch):
    def broken(wb, ns):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "stream", broken)
    assert run(["stream", example("stream.dsl"), "--state", "ones"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("Traceback")
    assert captured.err.splitlines()[-1] == "internal error: RuntimeError: boom"
    assert captured.out == ""


SCHEMA = json.loads(
    (EXAMPLES.parent / "schema" / "report.schema.json").read_text())

JSON_INVOCATIONS = (
    ["check-preservation", example("stream.dsl")],
    ["check-preservation", example("stream.dsl"), "--trace"],
    ["check-preservation", example("three-zeros.dsl")],
    ["check-preservation", example("cfg.dsl")],
    ["run", example("stream.dsl"), "--state", "ones", "--word", "t"],
    ["stream", example("stream.dsl"), "--state", "X", "--n", "4"],
    ["cfg-member", example("cfg.dsl"), "--word", "aabb"],
    ["cfg-equiv", example("cfg.dsl"), "--left", "S", "--right", "1"],
    ["quotient-commute", example("stream.dsl"),
     "--max-size", "2", "--depth", "2"],
    ["algebra-check", example("stream.dsl"), "--outer", "ones + ones"],
)


def test_json_reports_validate_against_the_schema(capsys):
    for argv in JSON_INVOCATIONS:
        run(argv + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SCHEMA)


def test_json_reports_are_deterministic(capsys):
    argv = ["check-preservation", example("stream.dsl"), "--trace", "--json"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == first


SRC = str(pathlib.Path(cli.__file__).resolve().parent.parent)


@pytest.mark.parametrize("argv, code", [
    (["check-preservation", example("convolution.dsl"), "--trace", "--json"],
     1),
    (["quotient-commute", example("balanced.dsl")], 0),
    (["cfg-equiv", example("cfg.dsl"), "--left", "S", "--right", "1"], 1),
])
def test_output_is_the_same_in_fresh_interpreters(argv, code):
    # Terms hash by identity, which follows memory addresses, so output
    # that depended on the order of a set of terms would differ between
    # interpreters; so would a message from a weak reference's callback
    # while the interpreter exits.
    outputs = []
    for seed in ("1", "2"):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-m", "lawbench", *argv],
                              env=env, capture_output=True, timeout=300)
        assert (done.returncode, done.stderr) == (code, b"")
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_a_closed_pipe_ends_the_command_quietly():
    # Over 100 kB of violations, more than a pipe holds: closing the pipe
    # after the first line makes the final print meet a broken pipe.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "lawbench", "quotient-commute",
         example("convolution.dsl"), "--max-size", "3", "--depth", "12"],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert first == b"checked 1014 term/word pairs; 11 violations\n"
    assert (child.wait(timeout=300), err) == (1, b"")


def test_trace_includes_both_one_step_results(capsys):
    run(["check-preservation", example("stream.dsl"), "--trace", "--json"])
    payload = json.loads(capsys.readouterr().out)
    by_name = {r["scheme"]: r for r in payload["results"]}
    trace = by_name["distrib"]["trace"]
    assert trace["lhs_step"]["next"]["t"] == \
        "d_v * [b_u + b_w] + d_v * X * (d_u + d_w) + [b_v] * (d_u + d_w)"
    assert trace["rhs_step"]["next"]["t"] == \
        "(d_v * [b_u] + d_v * X * d_u + [b_v] * d_u)" \
        " + d_v * [b_w] + d_v * X * d_w + [b_v] * d_w"
    assert trace["lhs_normal"] == trace["rhs_normal"]

def test_new_answers_give_their_grounds(capsys, undecided_file, tmp_path):
    times_unit = tmp_path / "times-unit.dsl"
    times_unit.write_text(pathlib.Path(example("stream.dsl")).read_text()
                          .replace("theory commutative-semiring;",
                                   "theory generic {\n"
                                   "  eq times-unit: [1] * r = r;\n}"))
    assert run(["check-preservation", str(times_unit)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        "  next(t): [0] * [b_r] + [0] * X * d_r + [1] * d_r  vs  d_r"
        " (distinct: normal forms differ at b_r = 2)")
    assert run(["check-preservation", undecided_file]) == 2
    assert capsys.readouterr().out.splitlines()[1] == (
        "  next(t): g(ca)  vs  h(cb) (unknown: left side: depth bound 5"
        " reached at 11 terms; right side: depth bound 5 reached at 11"
        " terms)")
    witnesses = []
    for path in (times_unit, undecided_file):
        run(["check-preservation", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SCHEMA)
        witnesses.append(payload["results"][0]["witness"])
    assert (witnesses[0]["reason"], witnesses[0]["values"]) == \
        ("normal forms differ", {"b_r": "2"})
    assert witnesses[1]["reason"].startswith("left side: depth bound 5")
    assert "values" not in witnesses[1]


TIMES_UNIT_TEXT = """\
scheme times-unit: fails
  next(t): [0] * [b_r] + [0] * X * d_r + [1] * d_r  vs  d_r \
(distinct: normal forms differ at b_r = 2)
overall: fails
"""

TIMES_UNIT_JSON = {
    "certified": False,
    "command": "check-preservation",
    "results": [{
        "branch": None,
        "scheme": "times-unit",
        "verdict": "fails",
        "witness": {
            "equiv": "distinct",
            "kind": "next",
            "left": "[0] * [b_r] + [0] * X * d_r + [1] * d_r",
            "letter": "t",
            "reason": "normal forms differ",
            "right": "d_r",
            "values": {"b_r": "2"},
        },
    }],
    "verdict": "fails",
}


def test_a_witness_with_grounds_prints_byte_for_byte(capsys, tmp_path):
    # A witness that carries a reason and index values, printed without
    # a trace, as text and as JSON.
    path = tmp_path / "times-unit.dsl"
    path.write_text(pathlib.Path(example("stream.dsl")).read_text().replace(
        "theory commutative-semiring;",
        "theory generic { eq times-unit: [1] * r = r; }"))
    assert run(["check-preservation", str(path)]) == 1
    assert capsys.readouterr().out == TIMES_UNIT_TEXT
    assert run(["check-preservation", str(path), "--json"]) == 1
    assert capsys.readouterr().out == json.dumps(
        TIMES_UNIT_JSON, indent=2, sort_keys=True) + "\n"
