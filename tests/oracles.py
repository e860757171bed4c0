"""Reference routes the library no longer ships, kept as test oracles.

``reference_evaluate`` is ``terms.evaluate`` as the structural recursion
it computes: no stack, no memo, so it walks a dag as a tree and cannot
take deep terms.

``reference_repr`` is a term's ``repr`` by recursion, the arguments
printed by Python's own tuple ``repr``: the form ``repr`` had when it
was the dataclass one, before it kept a stack.

``reference_eval_out``, ``reference_instantiate_template`` and
``reference_read`` are the three readings of a rule's terms as
``evaluate`` walks, each node read afresh on every application: the
output term in the output algebra, a successor template as a term, and
a successor template in a builtin theory's semiring.
``reference_apply_rule`` is ``apply_rule`` over them.  The library
compiles each rule's terms once into programs; these must agree with
the programs on every value and on the first error.

``positions``, ``subterm_at`` and ``replace_at`` address subterms by
their paths from the root, for the reference rewrite search.
``position_walk`` is ``Theory._one_step`` as a walk over positions: no
memo, and each rewrite rebuilds the spine above its position, so its
cost is quadratic in the depth; it generates the steps in the order
``_one_step`` must.

``reference_convergent`` decides whether size-decreasing rules are
confluent as the textbook states it: every critical pair, from plain
recursive unification at every position, rewritten to one normal form
outermost first.  ``Theory._convergent`` unifies and compares a run of
one-argument applications in one step, and rewrites innermost first; the
two must agree.

``replay`` re-runs one recorded preservation case and compares the whole
record with the stored one.

``unit`` and ``quotient_mu`` are the quotient monad's unit and
multiplication, which the commands never call: the monad laws and the
quotient map's morphism property are checked against them.

``morphism_square_check`` compares, input by input, the term-level step
followed by normalisation with the quotient law's step of the normal
form.  ``reference_commute_check`` is ``quotient_commute_check`` without
its memos, by recursion: every term/word pair is checked from scratch,
each plain state stepped and normalised afresh and each quotient state
stepped again at every visit, so its cost follows the unfolded tree and
its depth is bounded by the recursion limit.  Its report (count,
violations and their order) must equal the one the check gives by
replaying each distinct (plain state, quotient state, depth left)
triple.

``plain_walk`` is plain unfolding as the run loops once took it for a
system without a theory: every state a term, stepped through
``operational_model`` afresh.  The library now runs such a system on
the quotient by the free theory; the two must agree on every output and
final state.

``pretty`` prints a workbench back as text that ``loads`` reads to an
equal workbench: the parser's round-trip oracle.  It refuses signatures
with several constant families, whose constants it cannot qualify.

``derivative_member`` and ``cyk_member`` are two recognizers for a
grammar that share nothing with ``cfg.member``'s rule table: the first
steps sets of sentential forms directly, the second tabulates which
suffixes a sentential form derives, by recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Iterator, Mapping

from lawbench.behaviour import OutputAlgebra, Step
from lawbench.cfg import Body, GnfGrammar, cfg_theory
from lawbench.dsl import Workbench
from lawbench.errors import LawbenchError
from lawbench.gsos import (
    CaseSplit,
    DistLaw,
    QuotientStepper,
    _literal,
    extend_lambda,
)
from lawbench.polynomials import Poly
from lawbench.preservation import SchemeCheck, _check_case
from lawbench.solver import (
    CommuteReport,
    CommuteViolation,
    CorecSystem,
    model,
    operational_model,
)
from lawbench.terms import (
    App,
    Const,
    Term,
    Var,
    enumerate_terms,
    evaluate,
    format_term,
    rebuild,
    substitute,
    variables,
)
from lawbench.theories import (
    COMMUTATIVE,
    IDEMPOTENT,
    Equiv,
    LangForm,
    NormalForm,
    Theory,
    _match,
)


def reference_evaluate(term: Term, var, const, app):
    """The value of ``term`` in the algebra (var, const, app), by
    recursion on the term, arguments left to right."""
    if isinstance(term, Var):
        return var(term.name)
    if isinstance(term, Const):
        return const(term)
    return app(term, [reference_evaluate(a, var, const, app)
                      for a in term.args])


class _Shown:
    """Prints as the text it holds."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def reference_repr(term: Term) -> str:
    """``repr(term)``, each field by its own ``repr`` and the arguments by
    this function, inside Python's tuple ``repr``."""
    fields = []
    for name in term.__match_args__:
        value = getattr(term, name)
        if name == "args":
            value = tuple(_Shown(reference_repr(a)) for a in value)
        fields.append(f"{name}={value!r}")
    return f"{type(term).__name__}({', '.join(fields)})"


def reference_eval_out(expr: Term, alg: OutputAlgebra,
                       env: Mapping[str, Any]):
    def app(t: App, args: list):
        return alg.apply(t.symbol, args) if args else _literal(alg, t.symbol)

    return evaluate(expr, env.__getitem__, None, app)


def reference_instantiate_template(template: Term,
                                   term_env: Mapping[str, Term],
                                   poly_env: Mapping[str, Poly]) -> Term:
    def const(t: Const) -> Const:
        if isinstance(t.index, Poly) and t.index.atoms():
            return Const(t.family, t.index.substitute(poly_env))
        return t

    return evaluate(template, term_env.__getitem__, const, rebuild)


def reference_read(th: Theory, template: Term, bound: Mapping[str, Any],
                   poly_env: Mapping[str, Poly]):
    _, const, app = th.algebra

    def bound_const(t: Const):
        value = const(t)  # checks the family
        index = t.index
        if isinstance(index, Poly) and index.atoms():
            return th.semiring.const(index.substitute(poly_env))
        return value

    return evaluate(template, bound.__getitem__, bound_const, app)


def reference_apply_rule(law: DistLaw, symbol: str, args: list, index=None,
                         read=reference_instantiate_template) -> Step:
    """``apply_rule`` with every term read afresh; ``read`` takes a
    template, its bound placeholders and the output values."""
    rule = law.rule_for(symbol)
    alg = law.outputs
    out_env: dict[str, Any] = {}
    for spec_arg, (_, step) in zip(rule.args, args):
        out_env[spec_arg.out] = alg.coerce(step.output)
    if rule.is_family:
        out_env[rule.index_name] = alg.coerce(index)
    output = reference_eval_out(rule.output, alg, out_env)
    poly_env = {name: value for name, value in out_env.items()
                if isinstance(value, Poly)}
    template = rule.next
    if isinstance(template, CaseSplit):
        body = template.if_one if out_env[template.scrutinee] else template.if_zero
    else:
        body = template
    moves = {}
    for letter in law.alphabet:
        bound: dict[str, Any] = {}
        for spec_arg, (state, step) in zip(rule.args, args):
            bound[spec_arg.deriv] = step.next(letter)
            if spec_arg.name is not None:
                bound[spec_arg.name] = state
        moves[letter] = read(body, bound, poly_env)
    return Step.of(output, moves)


def positions(term: Term) -> Iterator[tuple[int, ...]]:
    yield ()
    if isinstance(term, App):
        for i, arg in enumerate(term.args):
            for pos in positions(arg):
                yield (i,) + pos


def subterm_at(term: Term, pos: tuple[int, ...]) -> Term:
    for i in pos:
        term = term.args[i]
    return term


def replace_at(term: Term, pos: tuple[int, ...], new: Term) -> Term:
    if not pos:
        return new
    args = list(term.args)
    args[pos[0]] = replace_at(args[pos[0]], pos[1:], new)
    return App(term.symbol, tuple(args))


def _reference_unify(left: Term, right: Term) -> dict[str, Term] | None:
    sigma: dict[str, Term] = {}

    def resolve(t: Term) -> Term:
        if isinstance(t, Var):
            return resolve(sigma[t.name]) if t.name in sigma else t
        if isinstance(t, App):
            return App(t.symbol, tuple(resolve(a) for a in t.args))
        return t

    def unify(a: Term, b: Term) -> bool:
        a, b = resolve(a), resolve(b)
        if a == b:
            return True
        if isinstance(b, Var):
            a, b = b, a
        if isinstance(a, Var):
            if a.name in variables(b):
                return False
            sigma[a.name] = b
            return True
        if not (isinstance(a, App) and isinstance(b, App)) \
                or a.symbol != b.symbol or len(a.args) != len(b.args):
            return False
        return all(unify(x, y) for x, y in zip(a.args, b.args))

    if not unify(left, right):
        return None
    return {name: resolve(t) for name, t in sigma.items()}


def _reference_normal_form(term: Term, rules) -> Term:
    while True:
        for pos in positions(term):
            sub = subterm_at(term, pos)
            found = next(((b, r) for l, r in rules
                          for b in [_match(l, sub, {})] if b is not None),
                         None)
            if found is not None:
                binding, rhs = found
                term = replace_at(term, pos, substitute(rhs, binding))
                break
        else:
            return term


def reference_convergent(rules) -> bool:
    """Whether the size-decreasing ``rules`` ((lhs, rhs) pairs) are
    confluent: every critical pair has one normal form."""
    for i, (l1, r1) in enumerate(rules):
        for j, (l2, r2) in enumerate(rules):
            fresh = {x: Var(x + "#") for x in variables(l2)}
            l2, r2 = substitute(l2, fresh), substitute(r2, fresh)
            for pos in positions(l1):
                sub = subterm_at(l1, pos)
                if not isinstance(sub, App) or (i == j and pos == ()):
                    continue
                sigma = _reference_unify(sub, l2)
                if sigma is None:
                    continue
                total = {x: sigma.get(x, Var(x))
                         for t in (l1, r1, r2) for x in variables(t)}
                left = substitute(r1, total)
                right = substitute(replace_at(l1, pos, r2), total)
                if _reference_normal_form(left, rules) \
                        != _reference_normal_form(right, rules):
                    return False
    return True


def position_walk(th: Theory, term: Term) -> tuple[dict[Term, None], bool]:
    """Rewrites reachable in one step, in the order they are generated
    (positions in pre-order, then schemes, then lhs-to-rhs before
    rhs-to-lhs), plus whether they are all of them.

    The term is walked once; each position carries a link to its parent,
    and a rewrite rebuilds only the spine above it."""
    out: dict[Term, None] = {}
    complete = True
    by_root, wildcards = th._rewrites
    # A position: (subterm, link), link = (parent link, parent, index).
    stack: list = [(term, None)]
    while stack:
        sub, link = stack.pop()
        if isinstance(sub, App):
            directions = by_root.get(sub.symbol, wildcards)
            args = sub.args
            for i in range(len(args) - 1, -1, -1):
                stack.append((args[i], (link, sub, i)))
        else:
            directions = by_root.get(sub.__class__, wildcards)
        for pattern, target, closed in directions:
            binding = _match(pattern, sub, {})
            if binding is None:
                continue
            if not closed:
                complete = False
                continue
            new = evaluate(target, binding.__getitem__, rebuild, rebuild)
            up = link
            while up is not None:
                up, parent, i = up
                args = list(parent.args)
                args[i] = new
                new = App(parent.symbol, args)
            out[new] = None
    out.pop(term, None)
    return out, complete


def replay(th: Theory, law: DistLaw, check: SchemeCheck) -> bool:
    """Re-run one recorded case from scratch and confirm it reproduces
    the stored result."""
    for scheme in th.schemes:
        if scheme.name == check.scheme:
            return _check_case(th, law, scheme, check.branch) == check
    raise KeyError(f"theory has no scheme named {check.scheme!r}")


def unit(th: Theory, name: str) -> NormalForm:
    """Unit of the quotient monad: the normal form of one variable."""
    return th.normalize(Var(name))


def quotient_mu(th: Theory, outer: Term,
                leaves: Mapping[str, NormalForm]) -> NormalForm:
    """Multiplication of the quotient monad: replace every leaf of the
    outer term by a representative of its normal form, flatten, and
    normalise.  The result does not depend on the representatives."""
    reps = {token: th.representative(nf) for token, nf in leaves.items()}
    return th.normalize(substitute(outer, reps))


@dataclass(frozen=True)
class SquareViolation:
    term: Term
    kind: str  # "output" or "next"
    letter: str | None
    left: str
    right: str


@dataclass
class SquareReport:
    checked: int
    violations: list[SquareViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


def morphism_square_check(th: Theory, law: DistLaw,
                          samples) -> SquareReport:
    """Check, input by input, that normalising after the term-level step
    equals stepping the normal form: the square making the quotient map a
    morphism from the term-level law to the induced one."""
    alg = law.outputs
    violations: list[SquareViolation] = []
    checked = 0
    for term, env in samples:
        checked += 1
        _, step = extend_lambda(law, term, env)
        left = Step.of(step.output,
                       {l: th.normalize(s) for l, s in step.moves.items()})
        right = QuotientStepper(th, law, env).step(th.normalize(term))
        if not alg.equal(left.output, right.output):
            violations.append(SquareViolation(
                term, "output", None,
                str(alg.coerce(left.output)), str(alg.coerce(right.output))))
            continue
        for letter in law.alphabet:
            if left.next(letter) != right.next(letter):
                violations.append(SquareViolation(
                    term, "next", letter,
                    str(left.next(letter)), str(right.next(letter))))
                break
    return SquareReport(checked, violations)


def reference_commute_check(sys: CorecSystem, max_term_size: int,
                            depth: int) -> CommuteReport:
    """Plain and normalised unfolding over all enumerated terms and words
    within the bounds, with nothing remembered between steps."""
    th = sys.theory
    plain = replace(sys, theory=None)
    alg = sys.law.outputs
    quotient = model(sys)
    violations: list[CommuteViolation] = []
    checked = 0

    def step_quot_of(state) -> Step:
        if isinstance(state, (Var, App, Const)):
            first = operational_model(sys, state)
            return Step.of(first.output,
                           {l: th.normalize(s)
                            for l, s in first.moves.items()})
        return quotient.step(state)

    def walk(label: str, word: tuple[str, ...], state_plain: Term,
             state_quot) -> None:
        nonlocal checked
        checked += 1
        step_plain = operational_model(plain, state_plain)
        step_quot = step_quot_of(state_quot)
        out_plain = alg.concrete(step_plain.output)
        out_quot = alg.concrete(step_quot.output)
        term_quot = (state_quot if isinstance(state_quot, (Var, App, Const))
                     else th.representative(state_quot))
        if out_plain != out_quot:
            violations.append(CommuteViolation(
                label, "".join(word), "output",
                str(out_plain), str(out_quot)))
        elif th.equiv(state_plain, term_quot).equiv is not Equiv.EQUAL:
            violations.append(CommuteViolation(
                label, "".join(word), "state",
                format_term(state_plain), format_term(term_quot)))
        if len(word) < depth:
            for letter in step_plain.moves:
                walk(label, word + (letter,), step_plain.next(letter),
                     step_quot.next(letter))

    for term in enumerate_terms(sys.law.signature, set(sys.variables),
                                max_term_size):
        walk(format_term(term), (), term, term)
    return CommuteReport(checked, violations)


def plain_walk(sys: CorecSystem, term: Term,
               maxlen: int) -> dict[tuple[str, ...], tuple[Any, Term]]:
    """The output and the state at every word of length at most
    ``maxlen``, in depth-first order, letters in alphabet order; each
    state is a term, stepped through the rule table."""
    walk: dict[tuple[str, ...], tuple[Any, Term]] = {}

    def visit(word: tuple[str, ...], state: Term) -> None:
        step = operational_model(sys, state)
        walk[word] = sys.law.outputs.concrete(step.output), state
        if len(word) < maxlen:
            for letter in sys.law.alphabet:
                visit(word + (letter,), step.next(letter))

    visit((), term)
    return walk


def pretty(wb: Workbench) -> str:
    """Workbench text that ``loads`` reads back to ``wb``."""
    out: list[str] = []
    multi = wb.signature is not None and len(wb.signature.families) > 1
    if wb.signature is not None:
        out.append("signature {")
        for name, arity in wb.signature.ops:
            out.append(f"  op {name}/{arity};")
        for fam in wb.signature.families:
            samples = ", ".join(str(s) for s in fam.samples)
            out.append(f"  family {fam.name} samples {samples};")
        out.append("}")
    if wb.outputs is not None:
        out.append(f"outputs {wb.outputs};")
    if wb.alphabet is not None:
        out.append("alphabet { " + ", ".join(wb.alphabet) + " }")
    if wb.theory is not None:
        out.append(_pretty_theory(wb.theory, multi))
    if wb.law is not None:
        out.append(_pretty_rules(wb.law, multi))
    if wb.system is not None:
        out.append(_pretty_system(wb.system, multi))
    if wb.grammar is not None:
        out.append(_pretty_grammar(wb.grammar))
    return "\n".join(out) + "\n"


def _pretty_term(term: Term, multi: bool) -> str:
    if multi:
        raise LawbenchError(
            "pretty-printing with several constant families is not supported")
    return format_term(term)


def _pretty_theory(theory: Theory, multi: bool) -> str:
    if theory.kind in (COMMUTATIVE, IDEMPOTENT):
        return f"theory {theory.kind};"
    if not theory.schemes:
        return "theory free;"
    lines = ["theory generic {"]
    for scheme in theory.schemes:
        lines.append(f"  eq {scheme.name}: {_pretty_term(scheme.lhs, multi)}"
                     f" = {_pretty_term(scheme.rhs, multi)};")
    lines.append("}")
    return "\n".join(lines)


def _pretty_rules(law: DistLaw, multi: bool) -> str:
    lines = [f"rules {law.format} {{"]
    # Rules keep no binder: any name that is not a letter reads back.
    binder = "l"
    while binder in law.alphabet:
        binder += "'"
    for rule in law.rules:
        head = rule.symbol
        if rule.is_family:
            head += f"[{rule.index_name}]"
        elif rule.args:
            rendered = []
            for arg in rule.args:
                prefix = f"{arg.name}: " if arg.name is not None else ""
                rendered.append(f"{prefix}o={arg.out}, d={arg.deriv}")
            head += "(" + "; ".join(rendered) + ")"
        lines.append(f"  rule {head} =>")
        lines.append(f"    out = {format_term(rule.output)};")
        if isinstance(rule.next, CaseSplit):
            lines.append(f"    next({binder}) = case {rule.next.scrutinee} {{")
            lines.append(f"      0 => {_pretty_term(rule.next.if_zero, multi)};")
            lines.append(f"      1 => {_pretty_term(rule.next.if_one, multi)};")
            lines.append("    };")
        else:
            lines.append(f"    next({binder}) = "
                         f"{_pretty_term(rule.next, multi)};")
    lines.append("}")
    return "\n".join(lines)


def _pretty_system(system: CorecSystem, multi: bool) -> str:
    alg = system.law.outputs
    lines = ["system {"]
    for name in system.variables:
        step = system.phi[name]
        lines.append(f"  var {name}: out = {alg.concrete(step.output)};")
        for letter, succ in step.moves.items():
            lines.append(f"    next({letter}) = {_pretty_term(succ, multi)};")
    lines.append("}")
    return "\n".join(lines)


def _pretty_grammar(grammar: GnfGrammar) -> str:
    lines = ["grammar {"]
    for x in grammar.nonterminals:
        lines.append(f"  {x}: empty={grammar.empty[x]};")
    for x in grammar.nonterminals:
        for letter in grammar.alphabet:
            for body in sorted(grammar.prods[x][letter],
                               key=lambda b: (len(b), b)):
                rhs = " ".join(body) if body else "eps"
                lines.append(f"  {x} -{letter}-> {rhs};")
    lines.append(f"  start {format_term(grammar.start)};")
    lines.append("}")
    return "\n".join(lines)


def _start_forms(g: GnfGrammar) -> frozenset[Body]:
    """The start expression as a finite language of sentential forms."""
    th = cfg_theory()
    nf = th.normalize(g.start)
    assert isinstance(nf, LangForm)
    return nf.words


def derivative_member(g: GnfGrammar, word: Iterable[str]) -> int:
    """Direct recognizer on sets of sentential forms: consume a letter at
    the first position not hidden behind a non-nullable symbol."""
    forms = set(_start_forms(g))
    for letter in word:
        stepped: set[Body] = set()
        for form in forms:
            for i, head in enumerate(form):
                for body in g.prods[head][letter]:
                    stepped.add(body + form[i + 1:])
                if not g.empty[head]:
                    break
        forms = stepped
    return int(any(all(g.empty[s] for s in form) for form in forms))


def cyk_member(g: GnfGrammar, word: Iterable[str]) -> int:
    """Tabulated recognizer straight off the grammar: can a sentential
    form derive the remaining suffix?  Shares nothing with the rule-table
    or derivative paths."""
    w = tuple(word)
    memo: dict[tuple[Body, int], bool] = {}

    def derives(form: Body, i: int) -> bool:
        key = (form, i)
        if key in memo:
            return memo[key]
        if not form:
            result = i == len(w)
        else:
            head, rest = form[0], form[1:]
            result = bool(g.empty[head]) and derives(rest, i)
            if not result and i < len(w):
                result = any(derives(body + rest, i + 1)
                             for body in g.prods[head][w[i]])
        memo[key] = result
        return result

    return int(any(derives(form, 0) for form in _start_forms(g)))
