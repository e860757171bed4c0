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
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .behaviour import Step
from .gsos import DistLaw, LeafObs, extend_lambda
from .terms import Var, format_term
from .theories import EquationScheme, Equiv, Theory


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
class FailPoint:
    kind: str  # "output" or "next"
    letter: str | None
    left: str
    right: str
    equiv: str | None
    reason: str | None = None
    values: tuple[tuple[str, Fraction], ...] = ()

    def grounds(self) -> str:
        """The equiv answer with its reason and index values, if any."""
        text = self.equiv or ""
        if self.reason:
            text += f": {self.reason}"
        if self.values:
            text += " at " + ", ".join(f"{name} = {value}"
                                       for name, value in self.values)
        return text


@dataclass(frozen=True)
class SchemeCheck:
    scheme: str
    branch: Branch | None
    verdict: Verdict
    lhs: str
    rhs: str
    lhs_output: str
    rhs_output: str
    lhs_next: tuple[tuple[str, str], ...]
    rhs_next: tuple[tuple[str, str], ...]
    lhs_normal: tuple[tuple[str, str], ...]
    rhs_normal: tuple[tuple[str, str], ...]
    fail: FailPoint | None


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
        results = []
        for r in self.results:
            entry: dict = {
                "scheme": r.scheme,
                "branch": dict(r.branch) if r.branch is not None else None,
                "verdict": r.verdict.value,
                "witness": None,
            }
            if r.fail is not None:
                witness = entry["witness"] = {
                    "kind": r.fail.kind,
                    "letter": r.fail.letter,
                    "left": r.fail.left,
                    "right": r.fail.right,
                    "equiv": r.fail.equiv,
                }
                if r.fail.reason is not None:
                    witness["reason"] = r.fail.reason
                if r.fail.values:
                    witness["values"] = {name: str(value)
                                         for name, value in r.fail.values}
            if trace:
                entry["trace"] = {
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "lhs_step": {"output": r.lhs_output,
                                 "next": dict(r.lhs_next)},
                    "rhs_step": {"output": r.rhs_output,
                                 "next": dict(r.rhs_next)},
                    "lhs_normal": dict(r.lhs_normal),
                    "rhs_normal": dict(r.rhs_normal),
                }
            results.append(entry)
        return {
            "command": "check-preservation",
            "certified": self.certified,
            "verdict": self.verdict.value,
            "results": results,
        }

    def text(self, trace: bool = False) -> str:
        lines = []
        for r in self.results:
            branch = ""
            if r.branch is not None:
                branch = " [" + " ".join(f"{t}={b}" for t, b in r.branch) + "]"
            lines.append(f"scheme {r.scheme}{branch}: {r.verdict.value}")
            if trace:
                lines.append(f"  lhs {r.lhs}  =>  out {r.lhs_output}; "
                             + "; ".join(f"next({l}) = {t}" for l, t in r.lhs_next))
                lines.append(f"  rhs {r.rhs}  =>  out {r.rhs_output}; "
                             + "; ".join(f"next({l}) = {t}" for l, t in r.rhs_next))
            if r.fail is not None:
                where = ("outputs" if r.fail.kind == "output"
                         else f"next({r.fail.letter})")
                verdict = f" ({r.fail.grounds()})" if r.fail.equiv else ""
                lines.append(f"  {where}: {r.fail.left}  vs  "
                             f"{r.fail.right}{verdict}")
        lines.append(f"overall: {self.verdict.value}")
        return "\n".join(lines)


def _check_case(th: Theory, law: DistLaw, scheme: EquationScheme,
                branch: Branch | None) -> SchemeCheck:
    alg = law.outputs
    env = generic_instance(scheme, law.alphabet, alg, branch)
    _, lhs_step = extend_lambda(law, scheme.lhs, env)
    _, rhs_step = extend_lambda(law, scheme.rhs, env)

    # One memo for the case: the trace's normal forms and ``equiv`` fold,
    # rewrite or search each successor once between them.
    memo: dict = {}
    lhs_normal = tuple((l, str(th.normalize(s, memo)))
                       for l, s in lhs_step.moves.items())
    rhs_normal = tuple((l, str(th.normalize(s, memo)))
                       for l, s in rhs_step.moves.items())

    verdict = Verdict.HOLDS
    fail: FailPoint | None = None
    if not alg.equal(lhs_step.output, rhs_step.output):
        verdict = Verdict.FAILS
        fail = FailPoint("output", None, alg.format(lhs_step.output),
                         alg.format(rhs_step.output), None)
    else:
        for letter in law.letters:
            left, right = lhs_step.next(letter), rhs_step.next(letter)
            answer = th.equiv(left, right, memo)
            if answer.equiv is Equiv.EQUAL:
                continue
            fail = FailPoint("next", letter, format_term(left),
                             format_term(right), answer.value,
                             answer.reason, answer.values)
            verdict = (Verdict.FAILS if answer.equiv is Equiv.DISTINCT
                       else Verdict.UNKNOWN)
            break

    return SchemeCheck(
        scheme=scheme.name,
        branch=branch,
        verdict=verdict,
        lhs=format_term(scheme.lhs),
        rhs=format_term(scheme.rhs),
        lhs_output=alg.format(lhs_step.output),
        rhs_output=alg.format(rhs_step.output),
        lhs_next=tuple((l, format_term(t)) for l, t in lhs_step.moves.items()),
        rhs_next=tuple((l, format_term(t)) for l, t in rhs_step.moves.items()),
        lhs_normal=lhs_normal,
        rhs_normal=rhs_normal,
        fail=fail,
    )


def check_preservation(th: Theory, law: DistLaw) -> PreservationReport:
    """Check every scheme of the theory against the law."""
    results: list[SchemeCheck] = []
    for scheme in th.schemes:
        if law.outputs.kind == "bool":
            tokens = [f"b_{v}" for v in scheme.metavars]
            for bits in itertools.product((0, 1), repeat=len(tokens)):
                branch = tuple(zip(tokens, bits))
                results.append(_check_case(th, law, scheme, branch))
        else:
            results.append(_check_case(th, law, scheme, None))
    return PreservationReport(results)
