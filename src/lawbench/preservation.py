"""Decide whether a rule table preserves a theory's equations.

For each scheme, both sides are instantiated at one generic input: every
metavariable becomes a fresh leaf whose output and derivatives are opaque
tokens.  By naturality of the extended law, the step computed at this
single input subsumes every concrete instance, so comparing the two sides
here decides preservation for the whole scheme.

Comparison is a relation lifting: the outputs must agree in the output
algebra and, for every letter, the successor terms must be congruent in
the theory.  A Boolean output is a bit, and a case split inside a rule
reads it, so for Boolean outputs the ``k`` tokens take all ``2**k``
assignments (in binary order), each a branch of its own; rational outputs
are polynomial atoms, compared symbolically in one pass.

Verdicts are per scheme and branch: Holds, Fails with a replayable
witness, or Unknown when the theory's bounded search cannot decide a
successor pair.  A generic theory's answer carries its grounds into the
witness: the cause that left a search Unknown, or, for a Distinct found
by rewriting, that the normal forms differ and the index values under
which they do.

The records keep values: each side's term, its step and its successors'
normal forms, and for a case that does not hold the letter and the
theory's ``Answer``.  Checking formats nothing.  ``to_json`` is the one
place a record becomes text, each term once, and the text output
(``report_text``) is read off its dict.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .behaviour import Step
from .gsos import DistLaw, LeafObs, extend_lambda
from .terms import Term, Var, format_term
from .theories import Answer, EquationScheme, Equiv, NormalForm, Theory


class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


Branch = tuple[tuple[str, int], ...]


def generic_instance(scheme: EquationScheme, alphabet: tuple[str, ...],
                     alg, branch: Branch | None = None) -> dict[str, LeafObs]:
    """The leaf environment of one generic input: per metavariable, a
    leaf with deterministic fresh tokens, state ``x_v``, output ``b_v``
    and derivative ``d_v`` (suffixed by the letter when the alphabet has
    more than one).  The output is the atom ``b_v``, or under a
    ``branch`` the bit it assigns to ``b_v``."""
    bits = dict(branch) if branch is not None else None
    env = {}
    for v in scheme.metavars:
        moves = {a: Var(f"d_{v}" if len(alphabet) == 1 else f"d_{v}_{a}")
                 for a in alphabet}
        out = f"b_{v}"
        value = alg.atom(out) if bits is None else alg.coerce(bits[out])
        env[v] = (Var(f"x_{v}"), Step.of(value, moves))
    return env


@dataclass(frozen=True)
class SchemeCheck:
    """One case, a scheme at one branch: each side's term, its step at
    the generic input and the normal forms of its successors.  A case that
    does not hold keeps the ``letter`` whose successors the theory did not
    identify, with its ``answer``; ``letter`` is None when the outputs
    differ."""

    scheme: str
    branch: Branch | None
    verdict: Verdict
    lhs: Term
    rhs: Term
    lhs_step: Step
    rhs_step: Step
    lhs_normal: dict[str, NormalForm]
    rhs_normal: dict[str, NormalForm]
    letter: str | None = None
    answer: Answer | None = None


@dataclass
class PreservationReport:
    results: list[SchemeCheck]

    @property
    def certified(self) -> bool:
        return all(r.verdict is Verdict.HOLDS for r in self.results)

    @property
    def verdict(self) -> Verdict:
        if any(r.verdict is Verdict.FAILS for r in self.results):
            return Verdict.FAILS
        if any(r.verdict is Verdict.UNKNOWN for r in self.results):
            return Verdict.UNKNOWN
        return Verdict.HOLDS

    def to_json(self, trace: bool = False) -> dict:
        """The report as a dict: per case its witness and, with ``trace``,
        each side's term, step and normal forms.  Every term, output and
        normal form shown is formatted here, once."""
        return {
            "command": "check-preservation",
            "certified": self.certified,
            "verdict": self.verdict.value,
            "results": [_case_json(r, trace) for r in self.results],
        }


def _case_json(r: SchemeCheck, trace: bool) -> dict:
    steps = r.lhs_step, r.rhs_step
    entry: dict = {
        "scheme": r.scheme,
        "branch": dict(r.branch) if r.branch is not None else None,
        "verdict": r.verdict.value,
        "witness": None,
    }
    if trace:
        outputs = [str(s.output) for s in steps]
        nexts = [{l: format_term(t) for l, t in s.moves.items()}
                 for s in steps]
        entry["trace"] = {
            "lhs": format_term(r.lhs),
            "rhs": format_term(r.rhs),
            "lhs_step": {"output": outputs[0], "next": nexts[0]},
            "rhs_step": {"output": outputs[1], "next": nexts[1]},
            "lhs_normal": {l: str(nf) for l, nf in r.lhs_normal.items()},
            "rhs_normal": {l: str(nf) for l, nf in r.rhs_normal.items()},
        }
    if r.verdict is Verdict.HOLDS:
        return entry
    letter, answer = r.letter, r.answer
    if letter is None:
        left, right = outputs if trace else (str(s.output) for s in steps)
        entry["witness"] = {"kind": "output", "letter": None, "left": left,
                            "right": right, "equiv": None}
        return entry
    left, right = ((n[letter] for n in nexts) if trace
                   else (format_term(s.next(letter)) for s in steps))
    witness = entry["witness"] = {"kind": "next", "letter": letter,
                                  "left": left, "right": right,
                                  "equiv": answer.value}
    if answer.reason is not None:
        witness["reason"] = answer.reason
    if answer.values:
        witness["values"] = {name: str(value) for name, value in answer.values}
    return entry


def report_text(payload: dict) -> str:
    """The text of a ``to_json`` payload: a line per case, with its
    trace and witness under it, and the overall verdict."""
    lines = []
    for r in payload["results"]:
        branch = "" if r["branch"] is None else " [" + " ".join(
            f"{t}={b}" for t, b in r["branch"].items()) + "]"
        lines.append(f"scheme {r['scheme']}{branch}: {r['verdict']}")
        for side in ("lhs", "rhs") if "trace" in r else ():
            step = r["trace"][f"{side}_step"]
            nexts = "; ".join(f"next({l}) = {t}"
                              for l, t in step["next"].items())
            lines.append(f"  {side} {r['trace'][side]}  =>  "
                         f"out {step['output']}; {nexts}")
        w = r["witness"]
        if w is not None:
            grounds = w["equiv"] or ""
            if "reason" in w:
                grounds += f": {w['reason']}"
            if "values" in w:
                grounds += " at " + ", ".join(
                    f"{name} = {value}" for name, value in w["values"].items())
            where = ("outputs" if w["letter"] is None
                     else f"next({w['letter']})")
            lines.append(f"  {where}: {w['left']}  vs  {w['right']}"
                         + (f" ({grounds})" if grounds else ""))
    lines.append(f"overall: {payload['verdict']}")
    return "\n".join(lines)


def _check_case(th: Theory, law: DistLaw, scheme: EquationScheme,
                branch: Branch | None) -> SchemeCheck:
    alg = law.outputs
    env = generic_instance(scheme, law.alphabet, alg, branch)
    _, lhs_step = extend_lambda(law, scheme.lhs, env)
    _, rhs_step = extend_lambda(law, scheme.rhs, env)

    # One memo for the case: the normal forms and ``equiv`` fold, rewrite
    # or search each successor once between them.
    memo: dict = {}
    lhs_normal = {l: th.normalize(s, memo) for l, s in lhs_step.moves.items()}
    rhs_normal = {l: th.normalize(s, memo) for l, s in rhs_step.moves.items()}

    verdict, letter, answer = Verdict.HOLDS, None, None
    if not alg.equal(lhs_step.output, rhs_step.output):
        verdict = Verdict.FAILS
    else:
        for letter in law.alphabet:
            answer = th.equiv(lhs_step.next(letter), rhs_step.next(letter),
                              memo)
            if answer.equiv is not Equiv.EQUAL:
                verdict = (Verdict.FAILS if answer.equiv is Equiv.DISTINCT
                           else Verdict.UNKNOWN)
                break
        else:
            letter = answer = None

    return SchemeCheck(scheme.name, branch, verdict, scheme.lhs, scheme.rhs,
                       lhs_step, rhs_step, lhs_normal, rhs_normal,
                       letter, answer)


def check_preservation(th: Theory, law: DistLaw) -> PreservationReport:
    """Check every scheme of the theory against the law."""
    results: list[SchemeCheck] = []
    for scheme in th.schemes:
        branches: list[Branch | None] = [None]
        if law.outputs.kind == "bool":
            tokens = [f"b_{v}" for v in scheme.metavars]
            branches = [tuple(zip(tokens, bits)) for bits
                        in itertools.product((0, 1), repeat=len(tokens))]
        results += (_check_case(th, law, scheme, b) for b in branches)
    return PreservationReport(results)
