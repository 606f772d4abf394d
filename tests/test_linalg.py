"""Exact elimination, nullspaces, and span membership over expression entries."""

import random
from fractions import Fraction

from wavesym.expr import RAT0, RAT1, add, expand, mul, neg, param, pow_, rat
from wavesym.linalg import (
    echelon_mod_p, nullspace, param_content, rank, reduce_mod_p, solve_span,
    strip_row_content,
)

c, K = param("c"), param("K")


def test_rank_and_nullspace_rational():
    rows = [
        [rat(1), rat(2), rat(0)],
        [rat(2), rat(4), rat(0)],
        [rat(0), rat(0), rat(1)],
    ]
    assert rank(rows, 3) == 2
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        s = add(*[mul(a, b) for a, b in zip(row, v)])
        assert expand(s) == RAT0


def test_nullspace_with_parameters():
    # a - 2c*b = 0 has the solution line (2c, 1)
    rows = [[RAT1, mul(-2, c)]]
    (v,) = nullspace(rows, 2)
    assert [str(e) for e in v] == ["2*c", "1"]


def test_nullspace_clears_denominators():
    rows = [[pow_(c, -1), neg(K)]]
    (v,) = nullspace(rows, 2)
    # scaled to clear 1/c: (K*c, 1)
    s = add(mul(rows[0][0], v[0]), mul(rows[0][1], v[1]))
    assert expand(s) == RAT0
    assert all("^(-" not in str(e) for e in v)


def test_solve_span_recovers_coefficients(rng):
    vecs = [
        [rat(1), rat(0), rat(2)],
        [rat(0), rat(1), mul(3, c)],
    ]
    for _ in range(20):
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        target = [
            expand(add(mul(rat(a), vecs[0][i]), mul(rat(b), vecs[1][i])))
            for i in range(3)
        ]
        coeffs = solve_span(vecs, target)
        assert coeffs is not None
        assert expand(coeffs[0]) == rat(a)
        assert expand(coeffs[1]) == rat(b)


def test_solve_span_detects_outside():
    vecs = [[rat(1), rat(0), rat(0)]]
    assert solve_span(vecs, [rat(0), rat(1), rat(0)]) is None


def test_random_homogeneous_systems(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        m = rng.randint(1, n)
        rows = [
            [rat(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(n)]
            for _ in range(m)
        ]
        basis = nullspace(rows, n)
        assert len(basis) == n - rank(rows, n)
        for v in basis:
            for row in rows:
                s = add(*[mul(a, b) for a, b in zip(row, v)])
                assert expand(s) == RAT0


def test_mod_p_rank_matches_exact_rank(rng):
    # small integer entries: the rank over GF(p) is the rank over Q unless
    # p divides a minor, which the large prime rules out here
    p = 2**31 - 1
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice([0, 0, 1, -2, 3]) for _ in range(ncols)] for _ in range(nrows)]
        pivots = echelon_mod_p(({j: v for j, v in enumerate(r) if v} for r in rows), p)
        assert len(pivots) == rank([[rat(v) for v in r] for r in rows], ncols)
        combo = {}
        for r in rows:
            k = rng.randint(-3, 3)
            for j, v in enumerate(r):
                combo[j] = combo.get(j, 0) + k * v
        assert reduce_mod_p(combo, pivots, p) == {}
        unit = {ncols: 1}  # a column no row touches
        assert reduce_mod_p(unit, pivots, p) == unit


def test_param_content_and_strip():
    e = add(mul(2, c, K), mul(4, c, pow_(K, 2)))
    content = param_content(expand(e))
    assert content == {c: 1, K: 1}
    row = strip_row_content([expand(e)])
    assert str(row[0]) in ("1 + 2*K", "2*K + 1")
