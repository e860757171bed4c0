"""Polynomial canonical forms: identity of forms must coincide with
identity of the functions they denote."""

import copy
import pickle
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from lawbench.polynomials import Poly

# ---------------------------------------------------------------- oracles

# Independent semantics: a polynomial IS a function Q^atoms -> Q.  Random
# expression trees are evaluated once through Poly arithmetic and once
# through plain Fraction arithmetic; the results must agree pointwise.

SAMPLE_POINTS = [
    {"x": Fraction(0), "y": Fraction(0), "z": Fraction(0)},
    {"x": Fraction(1), "y": Fraction(2), "z": Fraction(3)},
    {"x": Fraction(-1), "y": Fraction(1, 2), "z": Fraction(5)},
    {"x": Fraction(7), "y": Fraction(-3), "z": Fraction(2, 7)},
    {"x": Fraction(11, 3), "y": Fraction(4), "z": Fraction(-9, 2)},
]


def eval_expr(expr, env):
    """Direct Fraction evaluation of an expression tree, no Poly."""
    kind = expr[0]
    if kind == "atom":
        return env[expr[1]]
    if kind == "const":
        return expr[1]
    _, op, left, right = expr
    lv, rv = eval_expr(left, env), eval_expr(right, env)
    return lv + rv if op == "+" else lv * rv


def poly_of_expr(expr):
    kind = expr[0]
    if kind == "atom":
        return Poly.atom(expr[1])
    if kind == "const":
        return Poly.const(expr[1])
    _, op, left, right = expr
    lp, rp = poly_of_expr(left), poly_of_expr(right)
    return lp + rp if op == "+" else lp * rp


fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)

exprs = st.recursive(
    st.one_of(
        st.tuples(st.just("atom"), st.sampled_from(["x", "y", "z"])),
        st.tuples(st.just("const"), fractions),
    ),
    lambda sub: st.tuples(st.just("op"), st.sampled_from(["+", "*"]), sub, sub),
    max_leaves=12,
)

# ------------------------------------------------------------------ tests


@given(exprs)
def test_poly_arithmetic_agrees_with_pointwise_evaluation(expr):
    poly = poly_of_expr(expr)
    for env in SAMPLE_POINTS:
        assert poly.evaluate(env) == eval_expr(expr, env)


@given(exprs, exprs)
def test_equality_of_forms_is_equality_of_functions(e1, e2):
    # over an infinite field, agreement on enough points decides equality;
    # disagreement on any point refutes it
    p1, p2 = poly_of_expr(e1), poly_of_expr(e2)
    values1 = [p1.evaluate(env) for env in SAMPLE_POINTS]
    values2 = [p2.evaluate(env) for env in SAMPLE_POINTS]
    if p1 == p2:
        assert values1 == values2
    else:
        diff = p1 + Poly.const(-1) * p2
        assert diff.terms  # a genuinely nonzero polynomial


def test_canonical_form_drops_zero_coefficients():
    p = Poly([((("x", 1),), Fraction(2)), ((("x", 1),), Fraction(-2))])
    assert p.terms == ()
    assert not p
    assert str(p) == "0"


def test_constructor_merges_repeated_atoms():
    p = Poly([((("x", 1), ("y", 1), ("x", 1)), 1), ((("x", 2),), 2)])
    x, y = Poly.atom("x"), Poly.atom("y")
    assert p == x * x * y + Poly.const(2) * x * x
    assert p.terms == (((("x", 2),), Fraction(2)),
                       ((("x", 2), ("y", 1)), Fraction(1)))


def test_monomials_are_graded_lexicographic():
    p = (Poly.atom("y") * Poly.atom("y")
         + Poly.atom("x") + Poly.const(5)
         + Poly.atom("x") * Poly.atom("y"))
    monos = [mono for mono, _ in p.terms]
    assert monos == [
        (),
        (("x", 1),),
        (("x", 1), ("y", 1)),
        (("y", 2),),
    ]


def test_constant_detection():
    assert Poly.const(Fraction(3, 4)).is_constant
    assert Poly.const(0).constant_value() == 0
    assert Poly().constant_value() == 0
    assert not Poly.atom("x").is_constant
    two_x = Poly.const(2) * Poly.atom("x")
    try:
        two_x.constant_value()
    except ValueError:
        pass
    else:
        raise AssertionError("non-constant polynomial must refuse constant_value")


@given(exprs)
def test_substitute_commutes_with_evaluation(expr):
    poly = poly_of_expr(expr)
    image = {"x": Poly.atom("y") + Poly.const(1), "y": Poly.const(2) * Poly.atom("z")}
    substituted = poly.substitute(image)
    for env in SAMPLE_POINTS:
        pointwise = {
            "x": env["y"] + 1,
            "y": 2 * env["z"],
            "z": env["z"],
        }
        assert substituted.evaluate(env) == poly.evaluate(pointwise)


def test_substitute_keeps_unmapped_atoms():
    p = Poly.atom("x") * Poly.atom("y")
    q = p.substitute({"x": Poly.const(3)})
    assert q == Poly.const(3) * Poly.atom("y")


@given(exprs, exprs, exprs)
def test_ring_laws(e1, e2, e3):
    p, q, r = poly_of_expr(e1), poly_of_expr(e2), poly_of_expr(e3)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.const(0) == p
    assert p * Poly.const(1) == p
    assert p * Poly.const(0) == Poly()


def test_formatting():
    p = Poly.atom("a") * Poly.atom("b") + Poly.const(2) * Poly.atom("a") + Poly.const(1)
    assert str(p) == "1 + 2*a + a*b"
    assert str(Poly.const(Fraction(-1, 2)) * Poly.atom("x")) == "-1/2*x"


# ------------------------------------------- the kernel against the reference

# ``+``, ``*`` and ``substitute`` build their results from canonical terms;
# the public constructor canonicalises from scratch and is the reference.
# Monomials of the naive product are multisets of atoms, counted here
# without any Poly code.


def old_mono_key(mono):
    """Graded lex on the expanded atom sequence, ``x^2`` read as ``x, x``."""
    expanded = tuple(atom for atom, power in mono for _ in range(power))
    return (len(expanded), expanded)


def naive_product(left, right):
    """Every product of a term of ``left`` with one of ``right``, unmerged."""
    out = []
    for m1, c1 in left:
        for m2, c2 in right:
            powers = Counter(dict(m1))
            powers.update(dict(m2))
            out.append((tuple(sorted(powers.items())), c1 * c2))
    return out


def assert_canonical(poly):
    monos = [mono for mono, _ in poly.terms]
    keys = [old_mono_key(mono) for mono in monos]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for mono, coeff in poly.terms:
        # Exact either way: an int exactly when integral, else a Fraction.
        assert coeff != 0
        if Fraction(coeff).denominator == 1:
            assert type(coeff) is int
        else:
            assert type(coeff) is Fraction
        assert list(mono) == sorted(mono)
        assert all(type(power) is int and power > 0 for _, power in mono)


@given(exprs, exprs)
def test_sum_and_product_match_the_reference_constructor(e1, e2):
    p, q = poly_of_expr(e1), poly_of_expr(e2)
    total, product = p + q, p * q
    assert total.terms == Poly(list(p.terms) + list(q.terms)).terms
    assert product.terms == Poly(naive_product(p.terms, q.terms)).terms
    for poly in (p, q, total, product):
        assert_canonical(poly)


@given(exprs, st.one_of(st.sampled_from([0, 1, -1]), fractions))
def test_scalar_product_matches_the_reference_constructor(expr, c):
    # A constant factor on either side takes the scaling path; 0 is the
    # empty polynomial and takes the general one.
    p, scalar = poly_of_expr(expr), Poly.const(c)
    expected = Poly(naive_product(p.terms, scalar.terms)).terms
    for product in (p * scalar, scalar * p, p * c, c * p):
        assert product.terms == expected
        assert_canonical(product)
    assert p * 1 is p and 1 * p is p and p * Poly.const(1) is p


@given(st.lists(exprs, max_size=5))
def test_n_ary_sum_matches_the_reference_constructor(expr_list):
    polys = [poly_of_expr(e) for e in expr_list]
    total = Poly.sum(polys)
    assert total.terms == Poly([t for p in polys for t in p.terms]).terms
    assert_canonical(total)


def test_n_ary_sum_edge_cases():
    x = Poly.atom("x")
    assert Poly.sum([]) == Poly() and not Poly.sum([])
    assert Poly.sum([x]) is x
    assert Poly.sum([x + 1, Poly.const(-1), x * -1]) == Poly()
    ints = [Poly([((("x", 1),), 2), ((), 3)]), Poly({(("y", 1),): -1})]
    total = Poly.sum(ints)
    assert total.terms == Poly([t for p in ints for t in p.terms]).terms
    assert_canonical(total)


@given(exprs)
def test_equal_polynomials_hash_equal_however_built(expr):
    poly = poly_of_expr(expr)
    for twin in (Poly(poly.terms), Poly(dict(poly.terms)),
                 pickle.loads(pickle.dumps(poly)), copy.deepcopy(poly)):
        assert twin == poly and hash(twin) == hash(poly)


@given(exprs)
def test_substitute_matches_the_reference_constructor(expr):
    poly = poly_of_expr(expr)
    image = {"x": Poly.atom("y") + Poly.const(1),
             "y": Poly.const(2) * Poly.atom("z")}
    expected = []
    for mono, coeff in poly.terms:
        part = Poly.const(coeff)
        for atom, power in mono:
            base = image.get(atom, Poly.atom(atom))
            for _ in range(power):
                part = Poly(naive_product(part.terms, base.terms))
        expected.extend(part.terms)
    substituted = poly.substitute(image)
    assert substituted.terms == Poly(expected).terms
    assert_canonical(substituted)


@given(exprs, st.integers(min_value=-3, max_value=3))
def test_integer_operands_give_canonical_coefficients(expr, n):
    poly = poly_of_expr(expr)
    for result in (poly + n, n + poly, poly * n, n * poly,
                   Poly.const(n), Poly.atom("x") * n):
        assert_canonical(result)


@given(exprs, st.integers(min_value=1, max_value=4),
       st.integers(min_value=-3, max_value=3))
def test_fractions_that_cancel_to_an_integer_give_an_int(expr, d, n):
    # n/d times d, and n/d plus (d-1)n/d, are the integer n again.
    poly = poly_of_expr(expr)
    part, rest = Fraction(n, d), Fraction(n * (d - 1), d)
    x = Poly.atom("x")
    for result in (Poly.const(part) * d, (x * part) * d,
                   Poly.const(part) + Poly.const(rest),
                   Poly([((), part), ((), rest)]),
                   (x * part).substitute({"x": Poly.const(d)}),
                   x * part + x * rest, poly * part * d,
                   Poly.sum([x * part, poly, x * rest])):
        assert_canonical(result)
    assert (x * part * d) == (x * part + x * rest) == x * n


def test_higher_powers_follow_the_expanded_order():
    x, y, a, b = (Poly.atom(name) for name in "xyab")
    assert [m for m, _ in (x * y + x * x).terms] == \
        [(("x", 2),), (("x", 1), ("y", 1))]
    assert [m for m, _ in (a * a * b + a * a * a).terms] == \
        [(("a", 3),), (("a", 2), ("b", 1))]
    assert [m for m, _ in (y * y * y + x * y * y + x * x * x).terms] == \
        [(("x", 3),), (("x", 1), ("y", 2)), (("y", 3),)]
    assert str(x * y + x * x) == "x*x + x*y"


monomials = st.dictionaries(st.sampled_from("abcd"),
                            st.integers(min_value=1, max_value=4), max_size=4)


@given(st.lists(monomials, max_size=8))
def test_terms_follow_the_expanded_order(monos):
    terms = [(tuple(mono.items()), Fraction(1)) for mono in monos]
    assert_canonical(Poly(terms))
    product = Poly.const(1)
    for mono in monos:
        factor = Poly.const(1)
        for atom, power in mono.items():
            for _ in range(power):
                factor = factor * Poly.atom(atom)
        product = product * (factor + Poly.const(1))
    assert_canonical(product)


images = st.dictionaries(st.sampled_from(["x", "y", "z"]), exprs, max_size=3)


@given(exprs, images)
def test_substitute_matches_repeated_multiplication(expr, image_exprs):
    # The reference starts each term from its coefficient and multiplies
    # in one factor at a time; images are often constants, zero included.
    poly = poly_of_expr(expr)
    image = {atom: poly_of_expr(e) for atom, e in image_exprs.items()}
    expected = Poly()
    for mono, coeff in poly.terms:
        part = Poly.const(coeff)
        for atom, power in mono:
            base = image.get(atom, Poly.atom(atom))
            for _ in range(power):
                part = part * base
        expected = expected + part
    substituted = poly.substitute(image)
    assert substituted.terms == expected.terms
    assert_canonical(substituted)


def test_substitute_takes_plain_numbers():
    x, y = Poly.atom("x"), Poly.atom("y")
    p = Poly.const(3) * x * x * y + y
    assert p.substitute({"x": 2}) == Poly.const(13) * y
    assert p.substitute({"x": Fraction(1, 2), "y": 0}) == Poly()
