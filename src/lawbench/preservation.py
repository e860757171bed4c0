"""Decide whether a rule table preserves a theory's equations.

For each scheme, both sides are instantiated at one generic input: every
metavariable becomes a fresh leaf whose output and derivatives are opaque
tokens.  By naturality of the extended law, the step computed at this
single input subsumes every concrete instance, so comparing the two sides
here decides preservation for the whole scheme.

Comparison is a relation lifting: the outputs must agree in the output
algebra and, for every letter, the successor terms must be congruent in
the theory.  With Boolean outputs the case splits inside rules make the
steps depend on the output tokens, so all ``2**k`` assignments of the
``k`` tokens are enumerated (in binary order); rational outputs are
compared symbolically in one pass.

Verdicts are per scheme and branch: Holds, Fails with a replayable
witness, or Unknown when the theory's bounded search cannot decide a
successor pair.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Mapping

from .behaviour import Step
from .gsos import DistLaw, LeafObs, extend_lambda
from .terms import Term, Var, format_term
from .theories import EquationScheme, Equiv, Theory


class Verdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class GenericInstance:
    """Fresh leaves standing in for arbitrary observed arguments."""

    env: tuple[tuple[str, LeafObs], ...]
    state_tokens: tuple[str, ...]
    out_tokens: tuple[str, ...]
    deriv_tokens: tuple[str, ...]

    @property
    def env_map(self) -> dict[str, LeafObs]:
        return dict(self.env)


def generic_instance(scheme: EquationScheme, alphabet: tuple[str, ...],
                     alg) -> GenericInstance:
    """One leaf per metavariable with deterministic fresh tokens: state
    ``x_v``, output ``b_v`` and derivative ``d_v`` (suffixed by the letter
    when the alphabet has more than one)."""
    env = []
    states, outs, derivs = [], [], []
    for v in scheme.metavars:
        state = f"x_{v}"
        out = f"b_{v}"
        if len(alphabet) == 1:
            moves = {alphabet[0]: f"d_{v}"}
        else:
            moves = {a: f"d_{v}_{a}" for a in alphabet}
        states.append(state)
        outs.append(out)
        derivs.extend(moves.values())
        step = Step.of(alg.atom(out), {a: Var(t) for a, t in moves.items()})
        env.append((v, (Var(state), step)))
    return GenericInstance(tuple(env), tuple(states), tuple(outs),
                           tuple(derivs))


Branch = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class FailPoint:
    kind: str  # "output" or "next"
    letter: str | None
    left: str
    right: str
    equiv: str | None


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

    def scheme_names(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for r in self.results:
            seen.setdefault(r.scheme)
        return tuple(seen)

    def for_scheme(self, name: str) -> list[SchemeCheck]:
        return [r for r in self.results if r.scheme == name]

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
                entry["witness"] = {
                    "kind": r.fail.kind,
                    "letter": r.fail.letter,
                    "left": r.fail.left,
                    "right": r.fail.right,
                    "equiv": r.fail.equiv,
                }
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
                verdict = f" ({r.fail.equiv})" if r.fail.equiv else ""
                lines.append(f"  {where}: {r.fail.left}  vs  "
                             f"{r.fail.right}{verdict}")
        lines.append(f"overall: {self.verdict.value}")
        return "\n".join(lines)


def _check_case(th: Theory, law: DistLaw, scheme: EquationScheme,
                branch: Branch | None) -> SchemeCheck:
    alg = law.outputs
    gi = generic_instance(scheme, law.alphabet, alg)
    env: Mapping[str, LeafObs] = gi.env_map
    if branch is not None:
        assigned = dict(branch)
        env = {
            v: (state, Step(alg.coerce(assigned[f"b_{v}"]), step.moves))
            for v, (state, step) in env.items()
        }

    _, lhs_step = extend_lambda(law, scheme.lhs, env)
    _, rhs_step = extend_lambda(law, scheme.rhs, env)

    lhs_normal = tuple((l, str(th.normalize(s))) for l, s in lhs_step.moves)
    rhs_normal = tuple((l, str(th.normalize(s))) for l, s in rhs_step.moves)

    verdict = Verdict.HOLDS
    fail: FailPoint | None = None
    if not alg.equal(lhs_step.output, rhs_step.output):
        verdict = Verdict.FAILS
        fail = FailPoint("output", None, alg.format(lhs_step.output),
                         alg.format(rhs_step.output), None)
    else:
        for letter in law.alphabet:
            left, right = lhs_step.next(letter), rhs_step.next(letter)
            answer = th.equiv(left, right)
            if answer is Equiv.EQUAL:
                continue
            fail = FailPoint("next", letter, format_term(left),
                             format_term(right), answer.value)
            verdict = (Verdict.FAILS if answer is Equiv.DISTINCT
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
        lhs_next=tuple((l, format_term(t)) for l, t in lhs_step.moves),
        rhs_next=tuple((l, format_term(t)) for l, t in rhs_step.moves),
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


def replay(th: Theory, law: DistLaw, check: SchemeCheck) -> bool:
    """Re-run one recorded case from scratch and confirm it reproduces
    the stored result bit for bit."""
    for scheme in th.schemes:
        if scheme.name == check.scheme:
            return _check_case(th, law, scheme, check.branch) == check
    raise KeyError(f"theory has no scheme named {check.scheme!r}")
