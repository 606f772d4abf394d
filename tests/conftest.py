"""Shared deterministic random generators for the property suites."""

import random
from fractions import Fraction

import pytest

from wavesym.expr import (
    Expr, Exp, Fn, Jet, Ln, Pow, Product, Rat, SingularError, Sum,
    add, base, diff, exp_, expand, fn, jet, ln_, mul, neg, param, pow_, rat,
)

ATOM_PARAMS = ["a", "b", "c", "K", "m"]
JET_IDX = ["", "x", "y", "t", "xx", "xy", "xt", "yy", "yt", "tt"]


def rand_rat(rng) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def rand_atom(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rat(rand_rat(rng))
    if kind == 1:
        return param(rng.choice(ATOM_PARAMS))
    if kind == 2:
        return base(rng.choice("xyt"))
    return jet(rng.choice(JET_IDX))


def rand_expr(rng, depth: int) -> Expr:
    """Normalized random expression built through the public constructors."""
    if depth <= 0:
        return rand_atom(rng)
    kind = rng.randrange(8)
    try:
        if kind in (0, 1):
            return add(*[rand_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))])
        if kind in (2, 3):
            return mul(*[rand_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))])
        if kind == 4:
            q = Fraction(rng.choice([-2, -1, 2, 3, 1, 2]), rng.choice([1, 1, 2]))
            return pow_(rand_expr(rng, depth - 1), q)
        if kind == 5:
            return exp_(rand_expr(rng, depth - 2 if depth > 1 else 0))
        if kind == 6:
            return ln_(rand_expr(rng, depth - 2 if depth > 1 else 0))
    except SingularError:
        return rand_atom(rng)
    return fn(rng.choice(["f", "g"]), [rand_expr(rng, 0)])


def rand_raw_tree(rng, depth: int) -> Expr:
    """Unnormalized tree built from the node classes directly (duplicate
    terms, unsorted factors, unit powers...); exercises normalize()."""
    if depth <= 0:
        return rand_atom(rng)
    kind = rng.randrange(7)
    children = lambda k: tuple(rand_raw_tree(rng, depth - 1) for _ in range(k))
    if kind == 0:
        return Sum(children(rng.randint(1, 3)))
    if kind == 1:
        return Product(children(rng.randint(1, 3)))
    if kind == 2:
        q = Fraction(rng.randint(-2, 3), rng.choice([1, 2]))
        return Pow(rand_raw_tree(rng, depth - 1), q)
    if kind == 3:
        return Exp(rand_raw_tree(rng, depth - 1))
    if kind == 4:
        return Ln(rand_raw_tree(rng, depth - 1))
    if kind == 5:
        return Fn("f", (rand_raw_tree(rng, depth - 1),), (rng.randrange(2),))
    return rand_atom(rng)


def rand_parseable(rng, depth: int) -> Expr:
    """Random expression restricted to grammar-expressible nodes (no
    differentiated opaque heads)."""
    if depth <= 0:
        return rand_atom(rng)
    kind = rng.randrange(7)
    try:
        if kind in (0, 1):
            return add(*[rand_parseable(rng, depth - 1) for _ in range(2)])
        if kind in (2, 3):
            return mul(*[rand_parseable(rng, depth - 1) for _ in range(2)])
        if kind == 4:
            q = Fraction(rng.choice([-2, -1, 2, 3]), rng.choice([1, 2]))
            return pow_(rand_parseable(rng, depth - 1), q)
        if kind == 5:
            return exp_(rand_parseable(rng, depth - 2 if depth > 1 else 0))
    except SingularError:
        return rand_atom(rng)
    return fn(rng.choice(["f", "g", "w"]), [rand_parseable(rng, 0)])


@pytest.fixture
def rng():
    return random.Random(20240817)


def form_expr(form: dict) -> Expr:
    """The expanded sum of node * coefficient over a linear form with
    ``Expr`` coefficients: the inverse of ``jet.linear_form``."""
    return expand(add(*[mul(node, c) for node, c in form.items()]))
