"""Reference answers computed without lawbench.

Every check the benchmark makes on a lawbench report comes from here:

* streams: truncated power series over ``Fraction``, ``*`` as convolution;
* printed terms: a parser for lawbench's infix output, evaluated either
  as power series (stream states) or at rational points (the successor
  terms in a preservation trace);
* grammars: a tabulated recognizer for Greibach normal form and the
  enumeration of a language up to a length bound;
* the report schema: a validator for the JSON-schema keywords that
  ``report.schema.json`` uses.

Nothing here imports lawbench.
"""

from __future__ import annotations

import re
from fractions import Fraction

# -- expressions -------------------------------------------------------------
#
# One small AST serves streams, grammars and printed terms:
#   ("+", a, b)  ("*", a, b)  ("neg", a)  ("var", name)  ("num", Fraction)
#   ("const", index_ast)      a bracketed constant such as [2] or [b_v + 1]


def plus(a, b):
    return ("+", a, b)


def times(a, b):
    return ("*", a, b)


def var(name):
    return ("var", name)


def const(value):
    return ("const", ("num", Fraction(value)))


def sum_of(parts):
    """Right-nested sum of a nonempty list, as lawbench's parser nests
    ``a + b + c``."""
    acc = parts[-1]
    for part in reversed(parts[:-1]):
        acc = plus(part, acc)
    return acc


def product_of(parts):
    acc = parts[-1]
    for part in reversed(parts[:-1]):
        acc = times(part, acc)
    return acc


def render(ast) -> str:
    """Print an AST in workbench syntax with explicit parentheses."""
    tag = ast[0]
    if tag == "var":
        return ast[1]
    if tag == "num":
        return str(ast[1])
    if tag == "const":
        return f"[{render(ast[1])}]"
    left, right = render(ast[1]), render(ast[2])
    if tag == "*":
        if ast[1][0] == "+":
            left = f"({left})"
        if ast[2][0] == "+":
            right = f"({right})"
    return f"{left} {tag} {right}"


_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_']*)|(.))")


def parse(text: str):
    """Parse lawbench's printed terms and polynomials: ``+``, ``-``,
    ``*``, parentheses, numbers and fractions, identifiers and bracketed
    constants."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        pos = m.end()
        number, name, punct = m.groups()
        if number is not None:
            tokens.append(("num", Fraction(number)))
        elif name is not None:
            tokens.append(("name", name))
        elif punct.strip():
            tokens.append(("punct", punct))
    tokens.append(("eof", None))
    index = 0

    def peek():
        return tokens[index]

    def take(value):
        nonlocal index
        if tokens[index] == ("punct", value):
            index += 1
            return True
        return False

    def expect(value):
        if not take(value):
            raise ValueError(f"expected {value!r} at {tokens[index]} in {text!r}")

    def expr():
        acc = term()
        while True:
            if take("+"):
                acc = plus(acc, term())
            elif take("-"):
                acc = plus(acc, ("neg", term()))
            else:
                return acc

    def term():
        acc = unary()
        while take("*"):
            acc = times(acc, unary())
        return acc

    def unary():
        if take("-"):
            return ("neg", unary())
        return atom()

    def atom():
        nonlocal index
        kind, value = peek()
        if take("("):
            inner = expr()
            expect(")")
            return inner
        if take("["):
            inner = expr()
            expect("]")
            return ("const", inner)
        if kind == "num":
            index += 1
            return ("num", value)
        if kind == "name":
            index += 1
            return ("var", value)
        raise ValueError(f"unexpected {value!r} in {text!r}")

    ast = expr()
    if peek()[0] != "eof":
        raise ValueError(f"trailing input in {text!r}")
    return ast


def evaluate(ast, env):
    """Value in the rationals; every name must be bound in ``env``."""
    tag = ast[0]
    if tag == "num":
        return ast[1]
    if tag == "var":
        return Fraction(env[ast[1]])
    if tag == "const":
        return evaluate(ast[1], env)
    if tag == "neg":
        return -evaluate(ast[1], env)
    left, right = evaluate(ast[1], env), evaluate(ast[2], env)
    return left + right if tag == "+" else left * right


def names(ast, out=None) -> set:
    out = set() if out is None else out
    if ast[0] == "var":
        out.add(ast[1])
    elif ast[0] in ("+", "*"):
        names(ast[1], out)
        names(ast[2], out)
    elif ast[0] in ("neg", "const"):
        names(ast[1], out)
    return out


# -- streams -------------------------------------------------------------------

def _convolve(left, right):
    n = len(left)
    return [sum((left[i] * right[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(n)]


def series(ast, n: int) -> list[Fraction]:
    """The first ``n`` coefficients of a stream term over ``ones`` (the
    all-ones stream), ``X`` (0, 1, 0, ...) and constants ``[r]``."""
    tag = ast[0]
    if tag == "var" and ast[1] == "ones":
        return [Fraction(1)] * n
    if tag == "var" and ast[1] == "X":
        return [Fraction(int(k == 1)) for k in range(n)]
    if tag == "const":
        head = evaluate(ast[1], {})
        return [head] + [Fraction(0)] * (n - 1)
    if tag == "+":
        return [a + b for a, b in zip(series(ast[1], n), series(ast[2], n))]
    if tag == "*":
        return _convolve(series(ast[1], n), series(ast[2], n))
    raise ValueError(f"not a stream term: {ast!r}")


# -- grammars ---------------------------------------------------------------------

class Grammar:
    """Greibach normal form: ``prods[x][a]`` lists the bodies (tuples of
    nonterminals) of the productions ``x -a-> body``."""

    def __init__(self, nonterminals, alphabet, empty, prods):
        self.nonterminals = tuple(nonterminals)
        self.alphabet = tuple(alphabet)
        self.empty = {x: int(empty.get(x, 0)) for x in self.nonterminals}
        self.prods = {x: {a: tuple(prods.get(x, {}).get(a, ()))
                          for a in self.alphabet}
                      for x in self.nonterminals}

    def declared(self) -> tuple[str, ...]:
        """Nonterminals a grammar block mentions; one with no production,
        no empty word and no use cannot be written down."""
        used = {s for x in self.nonterminals for a in self.alphabet
                for body in self.prods[x][a] for s in body}
        return tuple(x for x in self.nonterminals
                     if x in used or self.empty[x]
                     or any(self.prods[x][a] for a in self.alphabet))

    def dsl(self) -> str:
        """The grammar block of a workbench file."""
        lines = ["grammar {"]
        for x in self.nonterminals:
            if self.empty[x]:
                lines.append(f"  {x}: empty=1;")
        for x in self.nonterminals:
            for a in self.alphabet:
                for body in self.prods[x][a]:
                    lines.append(f"  {x} -{a}-> {' '.join(body) or 'eps'};")
        lines.append(f"  start {self.nonterminals[0]}")
        lines.append("}")
        return "\n".join(lines)


def _ends(g: Grammar, word, table, ast, i: int) -> frozenset:
    """Positions j such that the expression derives ``word[i:j]``."""
    tag = ast[0]
    if tag == "var":
        return table[ast[1]][i]
    if tag == "num":
        return frozenset({i}) if ast[1] == 1 else frozenset()
    if tag == "+":
        return _ends(g, word, table, ast[1], i) | _ends(g, word, table, ast[2], i)
    if tag == "*":
        out = set()
        for k in _ends(g, word, table, ast[1], i):
            out |= _ends(g, word, table, ast[2], k)
        return frozenset(out)
    raise ValueError(f"not a language expression: {ast!r}")


def member(g: Grammar, start, word) -> bool:
    """Does the start expression derive the word?  ``table[x][i]`` holds
    the end positions of the factors of ``word`` starting at ``i`` that
    ``x`` derives; a production consumes a letter before its body, so
    row ``i`` depends only on rows ``> i``."""
    word = tuple(word)
    n = len(word)
    table = {x: [frozenset()] * (n + 1) for x in g.nonterminals}
    for i in range(n, -1, -1):
        for x in g.nonterminals:
            ends = {i} if g.empty[x] else set()
            if i < n:
                for body in g.prods[x][word[i]]:
                    frontier = {i + 1}
                    for sym in body:
                        frontier = {j for k in frontier for j in table[sym][k]}
                    ends |= frontier
            table[x][i] = frozenset(ends)
    return n in _ends(g, word, table, start, 0)


def languages(g: Grammar, maxlen: int) -> dict:
    """Each nonterminal's words of length at most ``maxlen``."""
    lang = {x: frozenset({()} if g.empty[x] else ()) for x in g.nonterminals}
    for bound in range(1, maxlen + 1):
        new = {}
        for x in g.nonterminals:
            words = {()} if g.empty[x] else set()
            for a in g.alphabet:
                for body in g.prods[x][a]:
                    acc = {(a,)}
                    for sym in body:
                        acc = {u + v for u in acc for v in lang[sym]
                               if len(u) + len(v) <= bound}
                    words |= acc
            new[x] = frozenset(words)
        lang = new
    return lang


def language(g: Grammar, ast, maxlen: int, lang=None) -> frozenset:
    """Words of length at most ``maxlen`` denoted by an expression over
    nonterminals, ``+``, ``*``, ``0`` and ``1``."""
    lang = languages(g, maxlen) if lang is None else lang
    tag = ast[0]
    if tag == "var":
        return lang[ast[1]]
    if tag == "num":
        return frozenset({()}) if ast[1] == 1 else frozenset()
    left = language(g, ast[1], maxlen, lang)
    right = language(g, ast[2], maxlen, lang)
    if tag == "+":
        return left | right
    return frozenset(u + v for u in left for v in right
                     if len(u) + len(v) <= maxlen)


def least_difference(left: frozenset, right: frozenset):
    """The length-lexicographically least word in exactly one of the two
    languages, or None when they agree."""
    diff = left ^ right
    if not diff:
        return None
    return min(diff, key=lambda w: (len(w), w))


# -- term enumeration counts ----------------------------------------------------------

def term_count(leaves: int, binary_ops: int, max_size: int) -> int:
    """Terms of size at most ``max_size`` over ``leaves`` nullary symbols
    and ``binary_ops`` binary ones."""
    by_size = {1: leaves}
    for size in range(2, max_size + 1):
        by_size[size] = binary_ops * sum(
            by_size.get(i, 0) * by_size.get(size - 1 - i, 0)
            for i in range(1, size - 1))
    return sum(by_size.values())


def word_count(letters: int, depth: int) -> int:
    return sum(letters ** k for k in range(depth + 1))


# -- JSON schema --------------------------------------------------------------------

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
_ANNOTATIONS = {"$schema", "title", "description", "definitions"}


def _json_equal(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    return a == b


def schema_errors(schema, value, root=None, path="$") -> list[str]:
    """Violations of a draft-07 schema restricted to the keywords the
    report schema uses; an unknown keyword is itself reported."""
    root = schema if root is None else root
    errors: list[str] = []
    for key, arg in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key == "$ref":
            if not arg.startswith("#/"):
                errors.append(f"{path}: unsupported $ref {arg}")
                continue
            target = root
            for part in arg[2:].split("/"):
                target = target[part]
            errors += schema_errors(target, value, root, path)
        elif key == "oneOf":
            matches = sum(not schema_errors(s, value, root, path) for s in arg)
            if matches != 1:
                errors.append(f"{path}: matches {matches} of oneOf")
        elif key == "type":
            kinds = arg if isinstance(arg, list) else [arg]
            if not any(_TYPES[k](value) for k in kinds):
                errors.append(f"{path}: not of type {arg}")
        elif key == "const":
            if not _json_equal(value, arg):
                errors.append(f"{path}: not {arg!r}")
        elif key == "enum":
            if not any(_json_equal(value, option) for option in arg):
                errors.append(f"{path}: not in {arg!r}")
        elif key == "minimum":
            if _TYPES["number"](value) and value < arg:
                errors.append(f"{path}: below {arg}")
        elif key == "required":
            if isinstance(value, dict):
                errors += [f"{path}: missing {k}" for k in arg if k not in value]
        elif key == "properties":
            if isinstance(value, dict):
                for k, sub in arg.items():
                    if k in value:
                        errors += schema_errors(sub, value[k], root, f"{path}.{k}")
        elif key == "additionalProperties":
            if isinstance(value, dict):
                known = schema.get("properties", {})
                for k, v in value.items():
                    if k in known:
                        continue
                    if arg is False:
                        errors.append(f"{path}: unexpected key {k}")
                    elif isinstance(arg, dict):
                        errors += schema_errors(arg, v, root, f"{path}.{k}")
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    errors += schema_errors(arg, item, root, f"{path}[{i}]")
        else:
            errors.append(f"{path}: unsupported schema keyword {key}")
    return errors
