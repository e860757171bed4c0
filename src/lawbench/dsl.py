"""Textual workbench files.

One file holds up to seven sections, each optional and in any order:

    signature { op +/2; op X/0; family c samples 0, 1, 2, 3; }
    outputs rational;
    alphabet { t }
    theory commutative-semiring;          # or idempotent-semiring, free,
                                          # or generic { eq name: l = r; ... }
    rules simple {                        # or gsos
      rule +(o=a, d=x; o=b, d=y) => out = a + b; next(t') = x + y;
    }
    system { var ones: out = 1; next(t) = ones; }
    grammar { S: empty=1; S -a-> S B; B -b-> eps; start S }

``load`` returns a fully validated ``Workbench``; every syntax error
carries a line:column position.  ``*``, ``×``, ``·`` and ``.`` all mean
multiplication.  Inside rule bodies the declared placeholders shadow the
signature, and a derivative placeholder may be written applied to the
rule's binder (``dx(l)``) or bare (``dx``).  The binder must not be an
alphabet letter, so per-letter clauses in system blocks can never be
mistaken for binding ones.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .behaviour import Step, output_algebra
from .cfg import GnfGrammar, cfg_signature
from .errors import ArityMismatch, LawbenchError, MissingSection, ParseError
from .gsos import (
    GSOS,
    SIMPLE,
    ArgObs,
    CaseSplit,
    DistLaw,
    Rule,
)
from .polynomials import Poly
from .solver import CorecSystem
from .terms import App, Const, ConstantFamily, Signature, Term, Var
from .theories import (
    COMMUTATIVE,
    EquationScheme,
    IDEMPOTENT,
    Theory,
    _right_nested,
    commutative_semiring,
    free_theory,
    generic_theory,
    idempotent_semiring,
)

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>\#[^\n]*)
    | (?P<prodarrow>-[A-Za-z_][A-Za-z0-9_]*->)
    | (?P<darrow>=>)
    | (?P<number>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<punct>[{}()\[\];:,=+*/.·×-])
    """,
    re.VERBOSE,
)

_STAR_ALIASES = {"*", "·", "×", "."}


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | punct | prodarrow | darrow | eof
    value: object
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    newlines = [i for i, ch in enumerate(text) if ch == "\n"]

    def where(pos: int) -> tuple[int, int]:
        line = bisect_right(newlines, pos - 1) + 1
        start = newlines[line - 2] + 1 if line > 1 else 0
        return line, pos - start + 1

    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            line, col = where(pos)
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        line, col = where(pos)
        if kind == "prodarrow":
            tokens.append(Token("prodarrow", m.group()[1:-2], line, col))
        elif kind == "number":
            tokens.append(Token("number", Fraction(m.group()), line, col))
        elif kind == "ident":
            tokens.append(Token("ident", m.group(), line, col))
        elif kind == "punct":
            value = "*" if m.group() in _STAR_ALIASES else m.group()
            tokens.append(Token("punct", value, line, col))
        elif kind == "darrow":
            tokens.append(Token("darrow", "=>", line, col))
        pos = m.end()
    final_line, final_col = where(len(text))
    tokens.append(Token("eof", None, final_line, final_col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, value=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def take(self, kind: str, value=None) -> Token | None:
        if self.at(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value=None, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        wanted = what or (value if value is not None else kind)
        raise ParseError(f"expected {wanted}, found {_show(tok)}",
                         tok.line, tok.col)


def _show(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of file"
    return repr(str(tok.value))


def _fail(tok: Token, message: str):
    raise ParseError(message, tok.line, tok.col)


# ---------------------------------------------------------------------------
# terms


@dataclass
class _TermCtx:
    """What identifiers mean while a term is being parsed.

    ``free`` selects the fallback for names the signature does not know:
    names collected as met (the metavariables of an equation scheme; the
    variables of a system block and the nonterminals of a grammar's start
    expression, both checked once the block is read), or a fixed variable
    set (rule bodies, ``--state`` terms).  ``seen`` keeps each collected
    name with its first token; a name applied to arguments is never
    collected.
    """

    signature: Signature
    free: str  # "declared" | "fixed"
    allowed: frozenset[str] = frozenset()
    deriv: frozenset[str] = frozenset()
    binder: str | None = None
    index_atoms: frozenset[str] | None = frozenset()  # None: collect freely
    seen: dict[str, Token] = field(default_factory=dict)
    seen_index_atoms: list[str] = field(default_factory=list)


@dataclass
class _Open:
    """A chain still being read: its finished summands, the factors of the
    summand in progress and, inside an argument list, the operation token
    and its finished arguments (``op`` is None inside a parenthesis)."""

    summands: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    op: Token | None = None
    args: list | None = None


def _read_expr(c: _Cursor, operand, join, close=None, negate=None):
    """Read sum := product ('+' product)*, product := operand ('*' operand)*,
    the one reader of infix chains.  ``operand(c)`` reads one operand or
    returns the ``_Open`` frame that ``(`` or ``name(`` opens; a frame is
    pushed on an explicit stack instead of a recursive call, so nesting
    depth is not bounded by Python's stack.  ``join(op, parts)`` joins a
    finished chain of two or more parts, and ``close(op_token, args)``
    turns a finished argument list into an operand.  Where ``negate`` is
    given, each ``-``, unary or binary, contributes it as a factor."""
    frames = [_Open()]
    while True:
        if negate is not None and c.take("punct", "-"):
            frames[-1].factors.append(negate)
            continue
        item = operand(c)
        if isinstance(item, _Open):
            frames.append(item)
            continue
        # The operand is complete: extend the product in progress, or
        # finish the innermost chain and hand it to its frame's owner.
        while True:
            top = frames[-1]
            top.factors.append(item)
            if c.take("punct", "*"):
                break
            parts, top.factors = top.factors, []
            top.summands.append(parts[0] if len(parts) == 1
                                else join("*", parts))
            if c.take("punct", "+") or negate is not None \
                    and c.at("punct", "-"):
                break
            parts, top.summands = top.summands, []
            item = parts[0] if len(parts) == 1 else join("+", parts)
            if len(frames) == 1:
                return item
            if top.op is None:
                c.expect("punct", ")")
                frames.pop()
                continue
            top.args.append(item)
            if c.take("punct", ","):
                break
            c.expect("punct", ")")
            frames.pop()
            item = close(top.op, top.args)


def _parse_term(c: _Cursor, ctx: _TermCtx) -> Term:
    """A term: both chains right-nested."""
    return _read_expr(c, lambda c: _parse_operand(c, ctx), _right_nested,
                      lambda op, args: _application(ctx, op, args))


def _application(ctx: _TermCtx, name_tok: Token, args: list[Term]) -> Term:
    name = str(name_tok.value)
    arity = ctx.signature.arity(name)
    if len(args) != arity:
        raise ArityMismatch(
            f"{name!r} declared with arity {arity}, applied to "
            f"{len(args)} arguments", name_tok.line, name_tok.col)
    return App(name, tuple(args))


def _parse_operand(c: _Cursor, ctx: _TermCtx) -> Term | _Open:
    """One operand of a sum of products, or the frame it opens: ``(``
    opens a parenthesised term, ``name(`` the argument list of ``name``."""
    tok = c.peek()
    if c.take("punct", "("):
        return _Open()
    if c.at("punct", "["):
        return _parse_const(c, ctx, None, tok)
    if tok.kind == "number":
        c.advance()
        name = str(tok.value)
        if ctx.signature.has_op(name, 0):
            return App(name)
        _fail(tok, f"number {name} is only meaningful inside [...] "
                   "or as a declared nullary symbol")
    name_tok = c.expect("ident", what="a term")
    name = str(name_tok.value)

    if name in ctx.deriv:
        if c.take("punct", "("):
            arg = c.expect("ident", what="the rule binder")
            if arg.value != ctx.binder:
                _fail(arg, f"derivative {name!r} must be applied to the "
                           f"binder {ctx.binder!r}")
            c.expect("punct", ")")
        return Var(name)
    if name in ctx.allowed:
        return Var(name)
    if ctx.signature.has_op(name):
        if c.take("punct", "("):
            return _Open(op=name_tok, args=[])
        arity = ctx.signature.arity(name)
        if arity != 0:
            raise ArityMismatch(
                f"{name!r} declared with arity {arity}, applied to "
                "0 arguments", name_tok.line, name_tok.col)
        return App(name)
    if any(f.name == name for f in ctx.signature.families) and c.at("punct", "["):
        return _parse_const(c, ctx, name, name_tok)
    # A name applied to arguments is never a variable.
    if ctx.free == "declared" and not c.at("punct", "("):
        ctx.seen.setdefault(name, name_tok)
        return Var(name)
    _fail(name_tok, f"unknown name {name!r}")


def _parse_const(c: _Cursor, ctx: _TermCtx, family: str | None,
                 tok: Token) -> Term:
    if family is None:
        families = ctx.signature.families
        if not families:
            _fail(tok, "no constant family is declared")
        if len(families) > 1:
            _fail(tok, "several constant families are declared; "
                       "qualify the constant as name[...]")
        family = families[0].name
    c.expect("punct", "[")
    index = _read_expr(c, lambda c: _index_operand(c, ctx), _join_index,
                       negate=_MINUS_ONE)
    c.expect("punct", "]")
    return Const(family, index)


_MINUS_ONE = Poly.const(-1)


def _join_index(op: str, parts: list[Poly]) -> Poly:
    return Poly.sum(parts) if op == "+" else math.prod(parts)


def _index_operand(c: _Cursor, ctx: _TermCtx) -> Poly | _Open:
    tok = c.peek()
    if c.take("punct", "("):
        return _Open()
    if tok.kind == "number":
        c.advance()
        return Poly.const(_fraction_tail(c, tok))
    name_tok = c.expect("ident", what="an index")
    name = str(name_tok.value)
    if ctx.index_atoms is None:
        if name not in ctx.seen_index_atoms:
            ctx.seen_index_atoms.append(name)
        return Poly.atom(name)
    if name in ctx.index_atoms:
        return Poly.atom(name)
    _fail(name_tok, f"{name!r} cannot appear inside a constant index here")


# ---------------------------------------------------------------------------
# sections


_SECTIONS = ("signature", "outputs", "alphabet", "theory", "rules",
             "system", "grammar")


def _split_sections(tokens: list[Token]) -> dict[str, list[Token]]:
    c = _Cursor(tokens)
    sections: dict[str, list[Token]] = {}
    while not c.at("eof"):
        head = c.expect("ident", what="a section keyword")
        if head.value not in _SECTIONS:
            _fail(head, f"unknown section {head.value!r}")
        if head.value in sections:
            _fail(head, f"duplicate section {head.value!r}")
        body: list[Token] = [head]
        depth = 0
        while True:
            tok = c.peek()
            if tok.kind == "eof":
                if depth:
                    _fail(tok, "unclosed '{'")
                break
            if depth == 0 and tok.kind == "punct" and tok.value == ";":
                c.advance()
                break
            c.advance()
            body.append(tok)
            if tok.kind == "punct" and tok.value == "{":
                depth += 1
            elif tok.kind == "punct" and tok.value == "}":
                depth -= 1
                if depth == 0:
                    c.take("punct", ";")
                    break
        body.append(Token("eof", None, body[-1].line, body[-1].col))
        sections[str(head.value)] = body
    return sections


def _hyphen_name(c: _Cursor) -> str:
    """Identifiers joined by hyphens, e.g. ``commutative-semiring``."""
    parts = [str(c.expect("ident", what="a name").value)]
    while c.at("punct", "-"):
        c.advance()
        parts.append(str(c.expect("ident", what="a name").value))
    return "-".join(parts)


def _parse_signature(tokens: list[Token]) -> Signature:
    c = _Cursor(tokens)
    c.expect("ident", "signature")
    c.expect("punct", "{")
    ops: list[tuple[str, int]] = []
    families: list[ConstantFamily] = []
    while not c.at("punct", "}"):
        item = c.expect("ident", what="'op' or 'family'")
        if item.value == "op":
            name = _parse_op_name(c)
            c.expect("punct", "/")
            arity_tok = c.expect("number", what="an arity")
            if arity_tok.value.denominator != 1 or arity_tok.value < 0:
                _fail(arity_tok, "arity must be a non-negative integer")
            ops.append((name, int(arity_tok.value)))
        elif item.value == "family":
            fam_name = str(c.expect("ident", what="a family name").value)
            samples: list[Fraction] = []
            if c.take("ident", "samples"):
                samples.append(_parse_rational(c))
                while c.take("punct", ","):
                    samples.append(_parse_rational(c))
            if samples:
                families.append(ConstantFamily(fam_name, samples=tuple(samples)))
            else:
                families.append(ConstantFamily(fam_name))
        else:
            _fail(item, f"expected 'op' or 'family', found {item.value!r}")
        _item_end(c)
    c.expect("punct", "}")
    return Signature(tuple(ops), tuple(families))


def _parse_op_name(c: _Cursor) -> str:
    tok = c.peek()
    if tok.kind == "ident":
        return str(c.advance().value)
    if tok.kind == "punct" and tok.value in ("+", "*"):
        return str(c.advance().value)
    if tok.kind == "number" and tok.value.denominator == 1:
        c.advance()
        return str(tok.value)
    _fail(tok, "expected an operation name")


def _parse_rational(c: _Cursor) -> Fraction:
    negative = c.take("punct", "-") is not None
    tok = c.expect("number", what="a rational literal")
    value = _fraction_tail(c, tok)
    return -value if negative else value


def _fraction_tail(c: _Cursor, tok: Token) -> Fraction:
    """``p/q`` wherever a rational literal is expected; a bare integer
    otherwise (so an arity slash is never mistaken for one)."""
    if c.at("punct", "/") and c.peek(1).kind == "number":
        c.advance()
        den = c.advance()
        if den.value == 0:
            _fail(den, "zero denominator")
        return Fraction(tok.value, den.value)
    return Fraction(tok.value)


def _item_end(c: _Cursor) -> None:
    """Items are ';'-terminated; the one before '}' may omit it."""
    if c.take("punct", ";"):
        return
    if c.at("punct", "}") or c.at("eof"):
        return
    tok = c.peek()
    _fail(tok, f"expected ';', found {_show(tok)}")


def _parse_outputs(tokens: list[Token]) -> str:
    c = _Cursor(tokens)
    c.expect("ident", "outputs")
    kind = c.expect("ident", what="'bool' or 'rational'")
    if kind.value not in ("bool", "rational"):
        _fail(kind, f"expected 'bool' or 'rational', found {kind.value!r}")
    c.expect("eof")
    return str(kind.value)


def _parse_alphabet(tokens: list[Token]) -> tuple[str, ...]:
    c = _Cursor(tokens)
    c.expect("ident", "alphabet")
    c.expect("punct", "{")
    letters = [str(c.expect("ident", what="a letter").value)]
    while c.take("punct", ","):
        letters.append(str(c.expect("ident", what="a letter").value))
    close = c.peek()
    c.expect("punct", "}")
    if len(set(letters)) != len(letters):
        _fail(close, "duplicate alphabet letter")
    return tuple(letters)


def _parse_theory(tokens: list[Token], signature: Signature | None) -> Theory:
    c = _Cursor(tokens)
    head = c.expect("ident", "theory")
    if signature is None:
        _fail(head, "a theory block needs a signature block")
    if c.at("ident", "generic") and c.peek(1).kind == "punct" \
            and c.peek(1).value == "{":
        c.advance()
        return _parse_generic_theory(c, signature)
    kind = _hyphen_name(c)
    c.expect("eof")
    if kind == COMMUTATIVE:
        return commutative_semiring(signature)
    if kind == IDEMPOTENT:
        return idempotent_semiring(signature)
    if kind == "free":
        return free_theory(signature)
    raise ParseError(f"unknown theory {kind!r}", head.line, head.col)


def _parse_generic_theory(c: _Cursor, signature: Signature) -> Theory:
    c.expect("punct", "{")
    schemes: list[EquationScheme] = []
    while not c.at("punct", "}"):
        c.expect("ident", "eq")
        name = _hyphen_name(c)
        c.expect("punct", ":")
        ctx = _TermCtx(signature, free="declared", index_atoms=None)
        lhs = _parse_term(c, ctx)
        c.expect("punct", "=")
        rhs = _parse_term(c, ctx)
        _item_end(c)
        schemes.append(EquationScheme(name, tuple(ctx.seen),
                                      lhs, rhs,
                                      tuple(ctx.seen_index_atoms)))
    c.expect("punct", "}")
    c.expect("eof")
    return generic_theory(signature, tuple(schemes))


def _parse_rules(tokens: list[Token], signature: Signature | None,
                 outputs: str | None,
                 alphabet: tuple[str, ...] | None) -> DistLaw:
    c = _Cursor(tokens)
    head = c.expect("ident", "rules")
    for missing, section in ((signature, "signature"), (outputs, "outputs"),
                             (alphabet, "alphabet")):
        if missing is None:
            raise MissingSection(f"a rules block needs a {section} block",
                                 head.line, head.col)
    fmt_tok = c.expect("ident", what="'simple' or 'gsos'")
    if fmt_tok.value not in (SIMPLE, GSOS):
        _fail(fmt_tok, f"expected 'simple' or 'gsos', found {fmt_tok.value!r}")
    fmt = str(fmt_tok.value)
    c.expect("punct", "{")
    rules: list[Rule] = []
    while not c.at("punct", "}"):
        rules.append(_parse_rule(c, signature, outputs, alphabet, fmt))
    c.expect("punct", "}")
    c.expect("eof")
    return DistLaw(signature, tuple(rules), alphabet, output_algebra(outputs))


def _parse_rule(c: _Cursor, signature: Signature, outputs: str,
                alphabet: tuple[str, ...], fmt: str) -> Rule:
    c.expect("ident", "rule")
    name = _parse_op_name(c)
    index_name = None
    args: list[ArgObs] = []
    if any(f.name == name for f in signature.families):
        c.expect("punct", "[")
        index_name = str(c.expect("ident", what="an index placeholder").value)
        c.expect("punct", "]")
    elif c.take("punct", "("):
        while True:
            args.append(_parse_arg_obs(c, fmt))
            if not c.take("punct", ";"):
                break
        c.expect("punct", ")")
    c.expect("darrow")

    out_tokens = {a.out for a in args}
    if index_name is not None:
        out_tokens.add(index_name)
    c.expect("ident", "out")
    c.expect("punct", "=")
    output = _parse_out_expr(c, outputs, out_tokens)
    c.expect("punct", ";")

    c.expect("ident", "next")
    c.expect("punct", "(")
    binder_tok = c.expect("ident", what="a binder")
    binder = str(binder_tok.value)
    if binder in alphabet:
        _fail(binder_tok, f"binder {binder!r} shadows an alphabet letter")
    c.expect("punct", ")")
    c.expect("punct", "=")
    ctx = _TermCtx(signature, free="fixed",
                   allowed=frozenset(a.name for a in args
                                     if a.name is not None),
                   deriv=frozenset(a.deriv for a in args),
                   binder=binder,
                   index_atoms=frozenset(out_tokens))
    if c.at("ident", "case"):
        case_tok = c.advance()
        scrutinee = str(c.expect("ident", what="an output placeholder").value)
        if outputs != "bool":
            _fail(case_tok, "case splits need Boolean outputs")
        c.expect("punct", "{")
        branches: dict[int, Term] = {}
        for _ in range(2):
            bit_tok = c.expect("number", what="0 or 1")
            bit = int(bit_tok.value)
            if bit not in (0, 1) or bit in branches:
                _fail(bit_tok, "each case needs exactly the labels 0 and 1")
            c.expect("darrow")
            branches[bit] = _parse_term(c, ctx)
            _item_end(c)
        c.expect("punct", "}")
        nxt: Term | CaseSplit = CaseSplit(scrutinee, branches[0], branches[1])
    else:
        nxt = _parse_term(c, ctx)
    _item_end(c)
    return Rule(name, tuple(args), output, nxt, index_name=index_name)


def _parse_arg_obs(c: _Cursor, fmt: str) -> ArgObs:
    name = None
    if c.peek().kind == "ident" and c.peek(1).kind == "punct" \
            and c.peek(1).value == ":":
        name_tok = c.advance()
        c.advance()
        name = str(name_tok.value)
        if fmt == SIMPLE:
            _fail(name_tok, "simple rules must not name their arguments")
    c.expect("ident", "o")
    c.expect("punct", "=")
    out = str(c.expect("ident", what="an output placeholder").value)
    c.expect("punct", ",")
    c.expect("ident", "d")
    c.expect("punct", "=")
    deriv = str(c.expect("ident", what="a derivative placeholder").value)
    return ArgObs(out, deriv, name=name)


def _parse_out_expr(c: _Cursor, outputs: str, tokens: set[str]) -> Term:
    """A rule output: a term whose variables are the rule's output
    placeholders and whose nullary symbols are literals."""
    ops = output_algebra(outputs).ops

    def operand(c: _Cursor) -> Term | _Open:
        # Called right after the reader takes an infix operator, so an
        # operator is the token just before.
        before = c.tokens[c.pos - 1]
        if outputs != "rational" and before.kind == "punct" \
                and before.value in ("+", "*"):
            _fail(before, "infix output arithmetic needs rational outputs")
        tok = c.peek()
        if c.take("punct", "("):
            return _Open()
        if tok.kind == "number":
            c.advance()
            value = _fraction_tail(c, tok)
            if outputs == "bool" and value not in (0, 1):
                _fail(tok, "Boolean outputs admit only the literals 0 and 1")
            return App(str(value))
        name_tok = c.expect("ident", what="an output expression")
        name = str(name_tok.value)
        if c.take("punct", "("):
            if name not in ops:
                _fail(name_tok, f"{name!r} is not an operation of the "
                                f"{outputs} outputs")
            return _Open(op=name_tok, args=[])
        if name not in tokens:
            _fail(name_tok, f"{name!r} is not an output placeholder of this rule")
        return Var(name)

    return _read_expr(c, operand, _right_nested,
                      lambda op, args: App(str(op.value), tuple(args)))


def _parse_system(tokens: list[Token], law: DistLaw | None,
                  theory: Theory | None) -> CorecSystem:
    c = _Cursor(tokens)
    head = c.expect("ident", "system")
    if law is None:
        raise MissingSection("a system block needs a rules block",
                             head.line, head.col)
    c.expect("punct", "{")
    alg = law.outputs
    ctx = _TermCtx(law.signature, free="declared")
    phi: dict[str, Step] = {}
    while not c.at("punct", "}"):
        c.expect("ident", "var")
        name_tok = c.expect("ident", what="a variable name")
        name = str(name_tok.value)
        if name in phi:
            _fail(name_tok, f"variable {name!r} defined twice")
        c.expect("punct", ":")
        c.expect("ident", "out")
        c.expect("punct", "=")
        value_tok = c.peek()
        value = _parse_rational(c)
        if alg.kind == "bool" and value not in (0, 1):
            _fail(value_tok, "Boolean outputs admit only 0 and 1")
        _item_end(c)
        moves: dict[str, Term] = {}
        while c.at("ident", "next"):
            c.advance()
            c.expect("punct", "(")
            letter_tok = c.expect("ident", what="a letter")
            letter = str(letter_tok.value)
            if letter not in law.alphabet:
                _fail(letter_tok, f"{letter!r} is not an alphabet letter")
            if letter in moves:
                _fail(letter_tok, f"duplicate next({letter}) clause")
            c.expect("punct", ")")
            c.expect("punct", "=")
            moves[letter] = _parse_term(c, ctx)
            _item_end(c)
        missing = [a for a in law.alphabet if a not in moves]
        if missing:
            _fail(c.peek(), f"variable {name!r} lacks next({missing[0]})")
        phi[name] = Step.of(alg.coerce(value), moves)
    c.expect("punct", "}")
    for name, tok in ctx.seen.items():
        if name not in phi:
            _fail(tok, f"unknown name {name!r}")
    c.expect("eof")
    return CorecSystem(tuple(phi), phi, law, theory)


def _parse_grammar(tokens: list[Token],
                   alphabet: tuple[str, ...] | None) -> GnfGrammar:
    c = _Cursor(tokens)
    c.expect("ident", "grammar")
    c.expect("punct", "{")
    # Nonterminals in order of first mention, as head or in a body.
    nonterminals: dict[str, None] = {}
    letters: dict[str, None] = {}
    empty: dict[str, int] = {}
    prods: dict[str, dict[str, set[tuple[str, ...]]]] = {}
    start: Term | None = None
    start_ctx = _TermCtx(cfg_signature(), free="declared")

    while not c.at("punct", "}"):
        tok = c.expect("ident", what="a grammar item")
        name = str(tok.value)
        if name == "start":
            if start is not None:
                _fail(tok, "duplicate start clause")
            start = _parse_term(c, start_ctx)
            _item_end(c)
            continue
        if name == "eps":
            _fail(tok, "'eps' cannot be a nonterminal")
        if c.take("punct", ":"):
            nonterminals.setdefault(name)
            c.expect("ident", "empty")
            c.expect("punct", "=")
            bit_tok = c.expect("number", what="0 or 1")
            if bit_tok.value not in (0, 1):
                _fail(bit_tok, "empty-word bits must be 0 or 1")
            if name in empty:
                _fail(tok, f"duplicate empty-word bit for {name!r}")
            empty[name] = int(bit_tok.value)
            _item_end(c)
            continue
        arrow = c.peek()
        if arrow.kind != "prodarrow":
            _fail(arrow, "expected ':' or a production arrow '-a->'")
        c.advance()
        nonterminals.setdefault(name)
        letter = str(arrow.value)
        letters.setdefault(letter)
        body: list[str] = []
        if not c.take("ident", "eps"):
            while c.at("ident"):
                sym_tok = c.advance()
                sym = str(sym_tok.value)
                if sym in ("start", "eps"):
                    _fail(sym_tok, f"{sym!r} cannot be a nonterminal")
                nonterminals.setdefault(sym)
                body.append(sym)
            if not body:
                _fail(c.peek(), "a production body is 'eps' or nonterminals")
        prods.setdefault(name, {}).setdefault(letter, set()).add(tuple(body))
        _item_end(c)
    c.expect("punct", "}")
    for name, tok in start_ctx.seen.items():
        if name not in nonterminals:
            _fail(tok, f"start expression mentions undeclared {name!r}")
    c.expect("eof")

    if start is None:
        _fail(c.peek(), "a grammar block needs a start clause")
    grammar_alphabet = alphabet if alphabet is not None else tuple(letters)
    frozen = {x: {a: frozenset(bodies) for a, bodies in by.items()}
              for x, by in prods.items()}
    return GnfGrammar(tuple(nonterminals), grammar_alphabet, empty,
                      frozen, start)


# ---------------------------------------------------------------------------
# workbench


@dataclass
class Workbench:
    """Everything one file declares, cross-validated and ready to run."""

    signature: Signature | None = None
    outputs: str | None = None
    alphabet: tuple[str, ...] | None = None
    theory: Theory | None = None
    law: DistLaw | None = None
    system: CorecSystem | None = None
    grammar: GnfGrammar | None = None


def loads(text: str) -> Workbench:
    """Parse workbench text; every diagnostic carries line:column."""
    sections = _split_sections(_tokenize(text))
    wb = Workbench()
    if "signature" in sections:
        wb.signature = _parse_signature(sections["signature"])
    if "outputs" in sections:
        wb.outputs = _parse_outputs(sections["outputs"])
    if "alphabet" in sections:
        wb.alphabet = _parse_alphabet(sections["alphabet"])
    if "theory" in sections:
        wb.theory = _parse_theory(sections["theory"], wb.signature)
    if "rules" in sections:
        wb.law = _parse_rules(sections["rules"], wb.signature, wb.outputs,
                              wb.alphabet)
    if "system" in sections:
        wb.system = _parse_system(sections["system"], wb.law, wb.theory)
    if "grammar" in sections:
        wb.grammar = _parse_grammar(sections["grammar"], wb.alphabet)
        if wb.alphabet is None:
            wb.alphabet = wb.grammar.alphabet
    return wb


def load(path) -> Workbench:
    """Read and parse one workbench file; a file that cannot be read as
    UTF-8 text is a ``LawbenchError``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise LawbenchError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise LawbenchError(f"{path}: not UTF-8 text: {exc}") from exc
    return loads(text)


def term_from_string(text: str, signature: Signature,
                     variables: tuple[str, ...] = ()) -> Term:
    """Parse one term, e.g. a ``--state`` argument, over the given
    signature and leaf tokens."""
    c = _Cursor(_tokenize(text))
    ctx = _TermCtx(signature, free="fixed", allowed=frozenset(variables))
    term = _parse_term(c, ctx)
    c.expect("eof")
    return term
