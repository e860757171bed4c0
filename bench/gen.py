"""Seeded workloads: the jobs one run sends to ``lawbench.cli.run``.

A run is a sequence of decks.  Every deck of a workload has the same
composition (command, workbench, size-ladder rung); the seed draws only
the contents of each slot, so runs under different seeds measure the
same mix.  Each job carries the reference check of its report, computed
here with ``ref`` and never with lawbench.

Workbench files the jobs need are written by ``write_files`` into a
directory the caller owns; the bundled examples are read where the
package ships them.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import ref

STREAM_N = (2, 4, 6, 8)
STREAM_DEGREES = (1, 2, 3, 4)
WORD_LENGTHS = (2, 4, 6, 8)
# The bundled grammars' states grow slowly (a^n b^n, Dyck words), so
# their member ladder runs longer: it carries the growth exponent.
BUNDLED_WORD_LENGTHS = (8, 16, 32, 64)
EQUIV_MAXLENS = (1, 2, 3, 4)
# Every bundled signature has only nullary and binary operations, so
# terms have odd sizes and --max-size 4 enumerates exactly the terms of 3.
QC_MAX_SIZES = (2, 3)
# Plain unfolding under stream.dsl's product rule grows the term
# geometrically with the depth (1.3 to 5.3 s per job at depth 4 and 5
# when this was written), so that example stops at depth 3 to keep a
# run's job count in the hundreds.
QC_DEPTHS = {"stream.dsl": (2, 3), "convolution.dsl": (2, 3, 4, 5),
             "cfg.dsl": (2, 3, 4, 5), "balanced.dsl": (2, 3, 4, 5)}

WORKLOADS = ("stream", "grammar", "verify")
# The command whose size ladder gives each workload's growth exponent.
GROWTH_KIND = {"stream": "stream", "grammar": "cfg-member",
               "verify": "quotient-commute"}


@dataclass
class Job:
    kind: str
    argv: list[str]
    codes: tuple[int, ...]
    check: Callable[[dict, int], str | None]
    size: int | None = None
    verdict: bool = False
    # The job's place in a deck apart from its size: growth exponents
    # compare sizes within one slot.  None keeps a job off the ladder.
    slot: str | None = None


@dataclass
class Deck:
    jobs: list[Job]
    files: dict[str, str] = field(default_factory=dict)
    # Words drawn and put back because their states pass MAX_FORMS.
    redrawn: int = 0


def write_files(deck: Deck) -> None:
    for path, text in deck.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- streams --------------------------------------------------------------------

ONES, X = ref.var("ones"), ref.var("X")


def stream_state(rng: random.Random, degree: int):
    """A sum of one to three products of ``ones``, ``X`` and an optional
    constant ``[0..3]``.  The leading product is ``ones`` to the power
    ``degree`` times an optional nonzero constant: the power of ``ones``
    sets a state's cost, so fixing it per slot keeps every deck's cost
    alike.  The other products mix ``ones`` and ``X``, at most ``degree``
    factors."""
    lead = [ONES] * degree
    if rng.random() < 0.5:
        lead.insert(0, ref.const(rng.randint(1, 3)))
    products = [ref.product_of(lead)]
    for _ in range(rng.randint(0, 2)):
        factors = [rng.choice((ONES, X)) for _ in range(rng.randint(1, degree))]
        if rng.random() < 0.5:
            factors.insert(0, ref.const(rng.randint(0, 3)))
        products.append(ref.product_of(factors))
    rng.shuffle(products)
    return ref.sum_of(products)


def _values(payload, key):
    return [Fraction(v) for v in payload[key]]


def _stream_job(path, state, n, slot=None):
    want = ref.series(state, n)

    def check(payload, code):
        if payload["n"] != n or _values(payload, "values") != want:
            return f"values {payload['values']} != {[str(v) for v in want]}"
        return None

    return Job("stream", ["stream", path, "--state", ref.render(state),
                          "--n", str(n)], (0,), check, size=n, slot=slot)


def _run_job(path, state, k):
    ahead = 4
    want = ref.series(state, k + ahead)

    def check(payload, code):
        if Fraction(payload["output"]) != want[k]:
            return f"output {payload['output']} != {want[k]}"
        if payload["word"] != ["t"] * k:
            return f"word {payload['word']}"
        got = ref.series(ref.parse(payload["state"]), ahead)
        if got != want[k:]:
            return f"state {payload['state']} is not the {k}-th derivative"
        return None

    return Job("run", ["run", path, "--state", ref.render(state),
                       "--word", "t" * k], (0,), check, size=k)


def _algebra_job(path, outer, horizon):
    want = ref.series(outer, horizon)

    def check(payload, code):
        if not payload["ok"]:
            return "algebra-check disagrees"
        for side in ("operational", "induced"):
            if _values(payload, side) != want:
                return f"{side} {payload[side]} != {[str(v) for v in want]}"
        return None

    return Job("algebra-check", ["algebra-check", path, "--outer",
                                 ref.render(outer), "--horizon", str(horizon)],
               (0,), check, verdict=True)


def stream_deck(rng: random.Random, examples: str) -> Deck:
    files = [os.path.join(examples, f) for f in ("stream.dsl", "convolution.dsl")]
    jobs = []
    for path in files:
        for n in STREAM_N:
            for degree in STREAM_DEGREES:
                jobs.append(_stream_job(path, stream_state(rng, degree), n,
                                        f"{os.path.basename(path)} degree {degree}"))
        for degree, k in ((2, 6), (3, 4)):
            jobs.append(_run_job(path, stream_state(rng, degree), k))
        for degree in (2, 4):
            jobs.append(_algebra_job(path, stream_state(rng, degree), 5))
    rng.shuffle(jobs)
    return Deck(jobs)


# -- grammars -------------------------------------------------------------------

LANG_HEADER = """\
signature {
  op +/2;
  op */2;
  op 0/0;
  op 1/0;
}

outputs bool;

alphabet { %s }

theory idempotent-semiring;

rules gsos {
  rule 0 =>
    out = 0;
    next(l) = 0;
  rule 1 =>
    out = 1;
    next(l) = 0;
  rule +(o=ox, d=dx; o=oy, d=dy) =>
    out = max(ox, oy);
    next(l) = dx + dy;
  rule *(o=ox, d=dx; y: o=oy, d=dy) =>
    out = min(ox, oy);
    next(l) = case ox {
      0 => dx * y;
      1 => dx * y + dy;
    };
}

"""

# The grammars of the bundled cfg.dsl (a^n b^n) and balanced.dsl.
BUNDLED_GRAMMARS = {
    "cfg.dsl": ref.Grammar(("S", "B"), ("a", "b"), {"S": 1},
                           {"S": {"a": [("S", "B")]}, "B": {"b": [()]}}),
    "balanced.dsl": ref.Grammar(("S", "R"), ("a", "b"), {"S": 1},
                                {"S": {"a": [("S", "R", "S")]},
                                 "R": {"b": [()]}}),
}


def random_grammar(rng: random.Random) -> ref.Grammar:
    nts = ("S", "A", "B", "C", "D")[:rng.randint(2, 5)]
    letters = ("a", "b", "c")[:rng.randint(2, 3)]
    prods = {}
    for x in nts:
        prods[x] = {}
        for a in letters:
            prods[x][a] = sorted({tuple(rng.choice(nts)
                                        for _ in range(rng.choice((0, 1, 1, 2, 2, 3))))
                                  for _ in range(rng.choice((0, 1, 1, 2)))})
    empty = {x: int(rng.random() < 0.4) for x in nts}
    return ref.Grammar(nts, letters, empty, prods)


def derivation_counts(g: ref.Grammar, maxlen: int):
    """``count[x][n]``: derivation trees of ``x`` yielding ``n`` letters."""
    count = {x: [0] * (maxlen + 1) for x in g.nonterminals}

    @functools.lru_cache(maxsize=None)
    def seq(body, m):
        acc = [1] + [0] * m
        for sym in body:
            acc = [sum(acc[i] * count[sym][k - i] for i in range(k + 1))
                   for k in range(m + 1)]
        return acc

    for x in g.nonterminals:
        count[x][0] = g.empty[x]
    for n in range(1, maxlen + 1):
        for x in g.nonterminals:
            count[x][n] = sum(seq(body, n - 1)[n - 1]
                              for a in g.alphabet for body in g.prods[x][a])
    return count, seq


def sample_word(rng: random.Random, g: ref.Grammar, start: str, n: int, counts):
    """A word of length ``n`` derived from ``start``, drawn with
    probability proportional to its number of derivations."""
    count, seq = counts

    def derive(x, m):
        if m == 0:
            return ()
        options = [(a, body) for a in g.alphabet for body in g.prods[x][a]]
        weights = [seq(body, m - 1)[m - 1] for _, body in options]
        a, body = rng.choices(options, weights)[0]
        return (a,) + split(body, m - 1)

    def split(body, m):
        if not body:
            return ()
        rest = body[1:]
        weights = [count[body[0]][i] * seq(rest, m - i)[m - i]
                   for i in range(m + 1)]
        i = rng.choices(range(m + 1), weights)[0]
        return derive(body[0], i) + split(rest, m - i)

    return derive(start, n)


def _member_job(path, g, word, slot=None):
    want = ref.member(g, ref.var(g.nonterminals[0]), word)

    def check(payload, code):
        if payload["word"] != list(word):
            return f"word {payload['word']}"
        if payload["member"] != int(want):
            return f"member {payload['member']} != {int(want)} for {''.join(word)}"
        return None

    return Job("cfg-member", ["cfg-member", path, "--word", "".join(word)],
               (0 if want else 1,), check, size=len(word), verdict=True, slot=slot)


def _equiv_job(path, g, left, right, maxlen):
    lang = ref.languages(g, maxlen)
    witness = ref.least_difference(ref.language(g, left, maxlen, lang),
                                   ref.language(g, right, maxlen, lang))

    def check(payload, code):
        if payload["maxlen"] != maxlen:
            return f"maxlen {payload['maxlen']}"
        if payload["equivalent"] != (witness is None):
            return f"equivalent {payload['equivalent']} at maxlen {maxlen}"
        got = payload["counterexample"]
        if witness is not None and got != list(witness):
            return f"counterexample {got} != {list(witness)}"
        return None

    return Job("cfg-equiv", ["cfg-equiv", path, "--left", ref.render(left),
                             "--right", ref.render(right), "--maxlen", str(maxlen)],
               (0,) if witness is None else (1,), check, size=maxlen, verdict=True)


ONE, ZERO = ("num", Fraction(1)), ("num", Fraction(0))


def random_expr(rng: random.Random, nts, depth: int):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([ref.var(x) for x in nts] * 3 + [ONE, ZERO])
    op = rng.choice((ref.plus, ref.times))
    return op(random_expr(rng, nts, depth - 1), random_expr(rng, nts, depth - 1))


def equal_pair(rng: random.Random, nts):
    """Two expressions equal in every idempotent semiring."""
    x, y, z = (ref.var(rng.choice(nts)) for _ in range(3))
    return rng.choice((
        (ref.plus(x, y), ref.plus(y, x)),
        (ref.times(x, ref.plus(y, z)), ref.plus(ref.times(x, y), ref.times(x, z))),
        (ref.times(ref.plus(x, y), z), ref.plus(ref.times(x, z), ref.times(y, z))),
        (ref.plus(x, x), x),
        (ref.times(ONE, x), x),
        (ref.plus(x, ZERO), x),
        (ref.times(ref.times(x, y), z), ref.times(x, ref.times(y, z))),
    ))


def _nonmember(rng: random.Random, g: ref.Grammar, n: int):
    """A random word of length ``n``, redrawn (up to 50 times) while the
    grammar derives it."""
    for _ in range(50):
        word = tuple(rng.choice(g.alphabet) for _ in range(n))
        if not ref.member(g, ref.var(g.nonterminals[0]), word):
            break
    return word


def _equiv_pair(rng: random.Random, g: ref.Grammar, rung: int):
    """Even rungs compare expressions equal by the axioms, odd rungs two
    random expressions."""
    nts = g.declared()
    if rung % 2 == 0:
        return equal_pair(rng, nts)
    return random_expr(rng, nts, 2), random_expr(rng, nts, 2)


def grammar_jobs(rng, g: ref.Grammar, path: str) -> list[Job]:
    """The member and equiv ladders on a bundled grammar."""
    start = g.nonterminals[0]
    counts = derivation_counts(g, max(BUNDLED_WORD_LENGTHS))
    jobs = []
    for n in BUNDLED_WORD_LENGTHS:
        # Only members of a fixed grammar go on the growth ladder: a
        # non-member's cost depends on where the word leaves the language,
        # a seeded grammar's on how fast its states grow.
        jobs.append(_member_job(path, g, sample_word(rng, g, start, n, counts),
                                "bundled member"))
        jobs.append(_member_job(path, g, _nonmember(rng, g, n)))
    for rung, maxlen in enumerate(EQUIV_MAXLENS):
        jobs.append(_equiv_job(path, g, *_equiv_pair(rng, g, rung), maxlen))
    return jobs


def _step_forms(g: ref.Grammar, forms: frozenset, letter: str) -> frozenset:
    """The sentential forms left after reading ``letter``: it is consumed
    at any symbol up to the first one that cannot derive the empty word."""
    out = set()
    for form in forms:
        for i, head in enumerate(form):
            out.update(body + form[i + 1:] for body in g.prods[head][letter])
            if not g.empty[head]:
                break
    return frozenset(out)


def largest_state(g: ref.Grammar, word) -> int:
    """The most sentential forms a state holds while the start symbol
    reads ``word``."""
    forms = frozenset({(g.nonterminals[0],)})
    largest = 1
    for letter in word:
        forms = _step_forms(g, forms, letter)
        largest = max(largest, len(forms))
    return largest


# lawbench holds a grammar's state as one right-nested sum with a
# summand per sentential form and walks it recursively.  At the seed
# commit cfg-member raised RecursionError (ROADMAP 5(c)) once a state
# reached about 490 forms, on a few library grammars at word lengths 6
# and 8.  A library word whose states pass MAX_FORMS is redrawn, with
# its grammar, so that no job of the workload fails.  The bundled
# grammars' states hold one form, and no state within the equiv horizon
# (--maxlen 4) of a library grammar holds more than 86.
MAX_FORMS = 400


def seeded_grammar(rng: random.Random) -> tuple[ref.Grammar, tuple]:
    """A random grammar whose start symbol has a word at every ladder
    length (redrawn until it does), with its derivation counts."""
    while True:
        g = random_grammar(rng)
        counts = derivation_counts(g, max(WORD_LENGTHS))
        if all(counts[0][g.nonterminals[0]][n] for n in WORD_LENGTHS):
            return g, counts


LIBRARY_SIZE = 64


@functools.lru_cache(maxsize=None)
def library_grammar(index: int) -> tuple:
    """Grammar ``index`` of a library of ``LIBRARY_SIZE`` random grammars,
    the same for every seed.  How costly a grammar is varies over orders
    of magnitude, and a few of them make a run's memory peak; drawing each
    run's grammars from one library keeps that population, and so the
    peak, alike across seeds.  Each is built when first drawn, so set-up
    builds only the first deck's."""
    return seeded_grammar(random.Random(f"grammar-library:{index}"))


def grammar_deck(rng: random.Random, examples: str, workdir: str,
                 index: int) -> Deck:
    """The ladders on one bundled grammar (cfg.dsl and balanced.dsl take
    turns), and the same ladders on library grammars, one drawn per job."""
    bundled = ("cfg.dsl", "balanced.dsl")[index % 2]
    jobs = grammar_jobs(rng, BUNDLED_GRAMMARS[bundled],
                        os.path.join(examples, bundled))
    files = {}

    def fresh():
        g, counts = library_grammar(rng.randrange(LIBRARY_SIZE))
        path = os.path.join(workdir, f"g{len(files)}.dsl")
        files[path] = LANG_HEADER % ", ".join(g.alphabet) + g.dsl() + "\n"
        return g, counts, path

    redrawn = 0

    def fresh_word(draw):
        """A library grammar and a word ``draw`` gives for it whose
        states stay within MAX_FORMS."""
        nonlocal redrawn
        while True:
            g, counts, path = fresh()
            word = draw(g, counts)
            if largest_state(g, word) <= MAX_FORMS:
                return path, g, word
            del files[path]
            redrawn += 1

    for n in WORD_LENGTHS:
        jobs.append(_member_job(*fresh_word(lambda g, counts: sample_word(
            rng, g, g.nonterminals[0], n, counts))))
        jobs.append(_member_job(*fresh_word(lambda g, _: _nonmember(rng, g, n))))
    for rung, maxlen in enumerate(EQUIV_MAXLENS):
        g, _, path = fresh()
        jobs.append(_equiv_job(path, g, *_equiv_pair(rng, g, rung), maxlen))
    rng.shuffle(jobs)
    return Deck(jobs, files, redrawn)


# -- verification ---------------------------------------------------------------------

STREAM_RULES = """\
rules simple {
  rule c[r] =>
    out = r;
    next(t') = [0];
  rule X =>
    out = 0;
    next(t') = [1];
  rule +(o=a, d=x; o=b, d=y) =>
    out = a + b;
    next(t') = x + y;
  rule *(o=a, d=x; o=b, d=y) =>
    out = a * b;
    next(t') = x * [b] + x * X * y + [a] * y;
}
"""

CONVOLUTION_RULES = """\
rules gsos {
  rule c[r] =>
    out = r;
    next(t') = [0];
  rule X =>
    out = 0;
    next(t') = [1];
  rule +(o=a, d=x; o=b, d=y) =>
    out = a + b;
    next(t') = x + y;
  rule *(o=a, d=dx; y: o=b, d=dy) =>
    out = a * b;
    next(t') = dx * y + [a] * dy;
}
"""

STREAM_HEADER = """\
signature {
  op X/0;
  op +/2;
  op */2;
  family c samples 0, 1, 2, 3;
}

outputs rational;

alphabet { t }

"""

# The ten commutative-semiring axioms; {v} {u} {w} are term
# metavariables and {a} {b} index metavariables.
AXIOMS = (
    ("plus-assoc", "({v} + {u}) + {w}", "{v} + ({u} + {w})"),
    ("plus-unit", "[0] + {v}", "{v}"),
    ("plus-comm", "{v} + {u}", "{u} + {v}"),
    ("times-assoc", "({v} * {u}) * {w}", "{v} * ({u} * {w})"),
    ("times-unit", "[1] * {v}", "{v}"),
    ("times-comm", "{v} * {u}", "{u} * {v}"),
    ("distrib", "{v} * ({u} + {w})", "{v} * {u} + {v} * {w}"),
    ("times-zero", "[0] * {v}", "[0]"),
    ("const-plus", "[{a} + {b}]", "[{a}] + [{b}]"),
    ("const-times", "[{a} * {b}]", "[{a}] * [{b}]"),
)
TERM_NAMES = ("v", "u", "w", "p", "q", "r", "s", "y", "z", "m", "k", "h")
INDEX_NAMES = ("a", "b", "e", "f", "g", "i", "j", "n")

COMMUTATIVE_SCHEMES = tuple(name for name, _, _ in AXIOMS)
IDEMPOTENT_SCHEMES = (("plus-assoc", 3), ("plus-comm", 2), ("plus-unit", 1),
                      ("plus-idem", 1), ("times-assoc", 3),
                      ("times-unit-left", 1), ("times-unit-right", 1),
                      ("annihilate-left", 1), ("annihilate-right", 1),
                      ("distrib-left", 3), ("distrib-right", 3))
# Hand-written verdicts for the bundled workbenches: (scheme, verdict)
# per reported case, in report order.
BUNDLED_VERDICTS = {
    "stream.dsl": [(s, "holds") for s in COMMUTATIVE_SCHEMES],
    "convolution.dsl": [(s, "fails" if s == "times-comm" else "holds")
                        for s in COMMUTATIVE_SCHEMES],
    "cfg.dsl": [(s, "holds") for s, k in IDEMPOTENT_SCHEMES for _ in range(2 ** k)],
    "balanced.dsl": [(s, "holds") for s, k in IDEMPOTENT_SCHEMES
                     for _ in range(2 ** k)],
    "three-zeros.dsl": [("zeros", "fails")],
}
# Leaves, binary operations and letters of each example's enumeration:
# stream files have X, ones and four constants; grammars 0, 1 and two
# nonterminals.
QC_SHAPES = {"stream.dsl": (6, 2, 1), "convolution.dsl": (6, 2, 1),
             "cfg.dsl": (4, 2, 2), "balanced.dsl": (4, 2, 2)}

_OVERALL = {0: "holds", 1: "fails", 2: "unknown"}


def _holds_soundly(result, point_seed: int) -> str | None:
    """A case that holds relates successors that are equal in every
    commutative semiring, so in particular at every rational point."""
    trace = result["trace"]
    pairs = [(trace["lhs_step"]["output"], trace["rhs_step"]["output"])]
    pairs += [(trace["lhs_step"]["next"][l], trace["rhs_step"]["next"][l])
              for l in trace["lhs_step"]["next"]]
    points = random.Random(point_seed)
    for left, right in pairs:
        la, ra = ref.parse(left), ref.parse(right)
        atoms = sorted(ref.names(la) | ref.names(ra))
        for _ in range(2):
            env = {a: Fraction(points.randrange(-10 ** 6, 10 ** 6),
                               points.randrange(1, 10 ** 3)) for a in atoms}
            if ref.evaluate(la, env) != ref.evaluate(ra, env):
                return f"{result['scheme']} holds but {left} != {right} at {env}"
    return None


def _preservation_check(expected, rational: bool, point_seed: int):
    def check(payload, code):
        results = payload["results"]
        verdicts = [(r["scheme"], r["verdict"]) for r in results]
        if expected is not None and verdicts != expected:
            return f"verdicts {verdicts} != {expected}"
        overall = ("fails" if any(v == "fails" for _, v in verdicts) else
                   "unknown" if any(v == "unknown" for _, v in verdicts) else
                   "holds")
        if payload["verdict"] != overall or _OVERALL[code] != overall:
            return f"verdict {payload['verdict']} exit {code} != {overall}"
        if payload["certified"] != (overall == "holds"):
            return "certified flag disagrees with the verdict"
        if rational:
            for r in results:
                if r["verdict"] == "holds" and "trace" in r:
                    problem = _holds_soundly(r, point_seed)
                    if problem:
                        return problem
        return None

    return check


def _bundled_preservation_job(rng, examples, name, trace):
    expected = BUNDLED_VERDICTS[name]
    overall = {"holds": 0, "fails": 1}[
        "fails" if any(v == "fails" for _, v in expected) else "holds"]
    argv = ["check-preservation", os.path.join(examples, name)]
    argv += ["--trace"] if trace else []
    rational = name in ("stream.dsl", "convolution.dsl", "three-zeros.dsl")
    return Job("check-preservation", argv, (overall,),
               _preservation_check(expected, rational, rng.getrandbits(32)),
               verdict=True)


def generic_theory(rng: random.Random, axiom) -> str:
    name, lhs, rhs = axiom
    names = dict(zip(("v", "u", "w"), rng.sample(TERM_NAMES, 3)))
    names.update(zip(("a", "b"), rng.sample(INDEX_NAMES, 2)))
    lhs, rhs = lhs.format(**names), rhs.format(**names)
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    return f"theory generic {{\n  eq {name}: {lhs} = {rhs};\n}}\n\n"


def _qc_job(examples, name, max_size, depth):
    leaves, ops, letters = QC_SHAPES[name]
    checked = ref.term_count(leaves, ops, max_size) * ref.word_count(letters, depth)
    # Convolution does not preserve times-comm, so plain and normalised
    # unfolding part ways as soon as products are enumerated.
    ok = not (name == "convolution.dsl" and max_size >= 3)

    def check(payload, code):
        if payload["checked"] != checked:
            return f"checked {payload['checked']} != {checked}"
        if payload["ok"] != ok or bool(payload["violations"]) == ok:
            return f"ok {payload['ok']} with {len(payload['violations'])} violations"
        return None

    return Job("quotient-commute",
               ["quotient-commute", os.path.join(examples, name),
                "--max-size", str(max_size), "--depth", str(depth)],
               (0 if ok else 1,), check, size=depth, verdict=True,
               slot=f"{name} max-size {max_size}")


def verify_deck(rng: random.Random, examples: str, workdir: str) -> Deck:
    jobs = []
    files = {}
    for name in BUNDLED_VERDICTS:
        jobs.append(_bundled_preservation_job(rng, examples, name,
                                              rng.random() < 0.5))
    # The whole grid: its answers do not depend on the seed, and a fixed
    # grid keeps the cheap (max-size 2) and costly cells in proportion.
    for name, depths in QC_DEPTHS.items():
        for max_size in QC_MAX_SIZES:
            for depth in depths:
                jobs.append(_qc_job(examples, name, max_size, depth))
    # Every axiom alone, under both rule tables: single-axiom theories
    # already span 2 ms to 1.8 s per check when this was written, and a fixed
    # mix keeps that heavy tail the same size in every deck.
    for i, axiom in enumerate(AXIOMS):
        for rules_name, rules in (("s", STREAM_RULES), ("c", CONVOLUTION_RULES)):
            fname = os.path.join(workdir, f"{rules_name}{i}.dsl")
            files[fname] = STREAM_HEADER + generic_theory(rng, axiom) + rules
            jobs.append(Job("check-preservation",
                            ["check-preservation", fname, "--trace"], (0, 1, 2),
                            _preservation_check(None, True, rng.getrandbits(32)),
                            verdict=True))
    rng.shuffle(jobs)
    return Deck(jobs, files)


def make_deck(workload: str, seed: int, index: int, examples: str,
              workdir: str) -> Deck:
    """Deck ``index`` of a run; its workbench files go under ``workdir``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "stream":
        return stream_deck(rng, examples)
    if workload == "grammar":
        return grammar_deck(rng, examples, workdir, index)
    if workload == "verify":
        return verify_deck(rng, examples, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def readme_jobs(workload: str, examples: str) -> list[Job]:
    """The README's answers for the commands a workload runs: the warm-up
    before timing, checked like any other job."""
    def path(name):
        return os.path.join(examples, name)

    ones2 = ref.times(ONES, ONES)
    if workload == "stream":
        return [_stream_job(path("stream.dsl"), ones2, 5),
                _run_job(path("stream.dsl"), ones2, 2),
                _algebra_job(path("stream.dsl"), ref.times(ref.const(2), ONES), 5)]
    if workload == "grammar":
        g = BUNDLED_GRAMMARS["cfg.dsl"]
        return [_member_job(path("cfg.dsl"), g, tuple("aabb")),
                _equiv_job(path("cfg.dsl"), g, ref.var("S"), ONE, 6)]
    rng = random.Random(0)
    return [_bundled_preservation_job(rng, examples, "three-zeros.dsl", False),
            _bundled_preservation_job(rng, examples, "convolution.dsl", True),
            _qc_job(examples, "stream.dsl", 2, 2)]
