"""Command-line entry points.

Every command reads one workbench file and exits 0 when the check passes,
1 on a failed check or counterexample, 2 when a verdict is Unknown, 3 on
usage or load errors, a bound out of range among them, and 4 on an
internal error: an exception that is not a ``LawbenchError``, whose
traceback goes to stderr followed by ``internal error: <type>:
<message>``.  A reader that closes stdout early (``| head``) ends the
command quietly, with the command's own exit code.  ``--json`` replaces
the human-readable output with a structured report; the shape of every
report is pinned by the bundled ``schema/report.schema.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from .cfg import cfg_law, cfg_signature, equiv_upto, member, to_corec
from .dsl import Workbench, load, term_from_string
from .errors import LawbenchError, MissingSection
from .preservation import Verdict, check_preservation, report_text
from .solver import (
    CorecSystem,
    induced_algebra_check,
    quotient_commute_check,
    stream_prefix,
    unfold,
)
from .terms import format_term
from .theories import IDEMPOTENT


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="lawbench",
                     description="distributive-law workbench")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def cmd(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="workbench file")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a machine-readable report")
        return p

    p = cmd("check-preservation",
            help="do the rules preserve every equation scheme?")
    p.add_argument("--trace", action="store_true",
                   help="include both one-step results per scheme")

    p = cmd("run", help="unfold a state along a word")
    p.add_argument("--state", required=True, help="term over the system")
    p.add_argument("--word", default="", help="letters, e.g. ab or x,y")

    p = cmd("stream", help="the first n outputs of a one-letter system")
    p.add_argument("--state", required=True)
    p.add_argument("--n", type=_at_least(0), default=10)

    p = cmd("cfg-member", help="does the grammar generate the word?")
    p.add_argument("--word", default="")

    p = cmd("cfg-equiv", help="bounded equivalence of two expressions")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--maxlen", type=_at_least(0), default=6)

    p = cmd("quotient-commute",
            help="plain and normalised unfolding must agree")
    p.add_argument("--max-size", type=_at_least(1), default=4,
                   dest="max_size")
    p.add_argument("--depth", type=_at_least(0), default=4)

    p = cmd("algebra-check",
            help="behaviour of a composite against composed behaviours")
    p.add_argument("--outer", required=True)
    p.add_argument("--horizon", type=_at_least(0), default=5)

    return parser


def _system(wb: Workbench) -> CorecSystem:
    if wb.system is not None:
        return wb.system
    if wb.grammar is not None:
        return to_corec(_grammar(wb))
    raise MissingSection("this command needs a system or grammar block")


@functools.cache
def _language_rules() -> frozenset:
    """The rules of the law every grammar command runs; built once."""
    return frozenset(cfg_law(("a",)).spec.rules)


def _grammar(wb: Workbench):
    """The file's grammar.  Its commands run the built-in language law
    and the idempotent theory over ``+ * 0 1``, so a rules or theory
    block that differs, which only check-preservation reads, is refused
    rather than ignored.  The order of declarations does not matter."""
    if wb.grammar is None:
        raise MissingSection("this command needs a grammar block")
    law, th = wb.law, wb.theory
    for block, differs in (
            ("rules", law is not None
             and frozenset(law.spec.rules) != _language_rules()),
            ("theory", th is not None
             and (th.kind, frozenset(th.signature.ops), th.signature.families)
             != (IDEMPOTENT, frozenset(cfg_signature().ops), ()))):
        if differs:
            raise LawbenchError(
                f"the {block} block differs from the built-in one that "
                f"grammar commands run; only check-preservation reads it")
    return wb.grammar


def _parse_word(text: str, alphabet: tuple[str, ...]) -> tuple[str, ...]:
    if not text:
        return ()
    parts = text.split(",") if "," in text else None
    if parts is None:
        if all(len(a) == 1 for a in alphabet):
            parts = list(text)
        else:
            parts = [text]
    for letter in parts:
        if letter not in alphabet:
            raise _UsageError(f"letter {letter!r} is not in the alphabet "
                              f"{list(alphabet)}")
    return tuple(parts)


def _cmd_check_preservation(wb: Workbench, ns) -> tuple[int, dict, str]:
    if wb.theory is None or wb.law is None:
        raise MissingSection("check-preservation needs theory and rules blocks")
    report = check_preservation(wb.theory, wb.law)
    code = {Verdict.HOLDS: 0, Verdict.FAILS: 1, Verdict.UNKNOWN: 2}[report.verdict]
    payload = report.to_json(trace=ns.trace)
    return code, payload, report_text(payload)


def _cmd_run(wb: Workbench, ns) -> tuple[int, dict, str]:
    sys_ = _system(wb)
    state = term_from_string(ns.state, sys_.law.signature, sys_.variables)
    word = _parse_word(ns.word, sys_.law.alphabet)
    output, final = unfold(sys_, state, word)
    payload = {
        "command": "run",
        "word": list(word),
        "output": str(output),
        "state": format_term(final),
    }
    text = f"output {payload['output']}\nstate {payload['state']}"
    return 0, payload, text


def _cmd_stream(wb: Workbench, ns) -> tuple[int, dict, str]:
    sys_ = _system(wb)
    state = term_from_string(ns.state, sys_.law.signature, sys_.variables)
    values = stream_prefix(sys_, state, ns.n)
    payload = {
        "command": "stream",
        "n": ns.n,
        "values": [str(v) for v in values],
    }
    return 0, payload, " ".join(str(v) for v in values)


def _cmd_cfg_member(wb: Workbench, ns) -> tuple[int, dict, str]:
    grammar = _grammar(wb)
    word = _parse_word(ns.word, grammar.alphabet)
    bit = member(grammar, word)
    payload = {"command": "cfg-member", "word": list(word), "member": bit}
    return (0 if bit else 1), payload, str(bit)


def _cmd_cfg_equiv(wb: Workbench, ns) -> tuple[int, dict, str]:
    grammar = _grammar(wb)
    left = term_from_string(ns.left, cfg_signature(), grammar.nonterminals)
    right = term_from_string(ns.right, cfg_signature(), grammar.nonterminals)
    result = equiv_upto(grammar, left, right, ns.maxlen)
    payload = {
        "command": "cfg-equiv",
        "maxlen": ns.maxlen,
        "equivalent": result.equivalent,
        "counterexample": (None if result.counterexample is None
                           else list(result.counterexample)),
    }
    return (0 if result.equivalent else 1), payload, str(result)


def _cmd_quotient_commute(wb: Workbench, ns) -> tuple[int, dict, str]:
    sys_ = _system(wb)
    if sys_.theory is None:
        raise MissingSection("quotient-commute needs a theory block")
    report = quotient_commute_check(sys_, ns.max_size, ns.depth)
    payload = {
        "command": "quotient-commute",
        "checked": report.checked,
        "ok": report.ok,
        "violations": [
            {"term": v.term, "word": v.word, "kind": v.kind,
             "plain": v.plain, "quotient": v.quotient}
            for v in report.violations
        ],
    }
    lines = [f"checked {report.checked} term/word pairs; "
             f"{len(report.violations)} violations"]
    for v in report.violations:
        lines.append(f"  {v.term} @ {v.word or 'eps'}: {v.kind} "
                     f"{v.plain} vs {v.quotient}")
    return (0 if report.ok else 1), payload, "\n".join(lines)


def _fmt_side(side: list) -> list[str]:
    """A truncated series' coefficients, or a language's words."""
    return ["".join(v) if isinstance(v, tuple) else str(v) for v in side]


def _text_side(side: list[str]) -> str:
    return " ".join(v or "eps" for v in side) or "(empty)"


def _cmd_algebra_check(wb: Workbench, ns) -> tuple[int, dict, str]:
    sys_ = _system(wb)
    if sys_.theory is None:
        raise MissingSection("algebra-check needs a theory block")
    outer = term_from_string(ns.outer, sys_.law.signature, sys_.variables)
    report = induced_algebra_check(sys_, outer, horizon=ns.horizon)
    operational = _fmt_side(report.operational)
    induced = _fmt_side(report.induced)
    payload = {
        "command": "algebra-check",
        "outer": format_term(outer),
        "horizon": ns.horizon,
        "ok": report.ok,
        "operational": operational,
        "induced": induced,
    }
    text = (f"{'agree' if report.ok else 'DISAGREE'}\n"
            f"operational {_text_side(operational)}\n"
            f"induced     {_text_side(induced)}")
    return (0 if report.ok else 1), payload, text


_COMMANDS = {
    "check-preservation": _cmd_check_preservation,
    "run": _cmd_run,
    "stream": _cmd_stream,
    "cfg-member": _cmd_cfg_member,
    "cfg-equiv": _cmd_cfg_equiv,
    "quotient-commute": _cmd_quotient_commute,
    "algebra-check": _cmd_algebra_check,
}


def run(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        wb = load(ns.file)
        code, payload, text = _COMMANDS[ns.command](wb, ns)
    except (_UsageError, LawbenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    try:
        if ns.as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe: send what is still buffered to
        # devnull, so that flushing at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(run())
