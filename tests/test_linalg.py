"""Exact elimination, nullspaces, and span membership over Laurent-polynomial
entries."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from wavesym.detsys import AnsatzSpec, DetSysError, ExponentialCase, PowerCase, ansatz_solve
from wavesym.expr import (
    EvalDomainError, RAT0, RAT1, add, exp_, expand, mul, neg, param, pow_, rat,
    rational_content, sub, substitute, vanishes,
)
from wavesym.linalg import (
    LaurentRing, _exact_quotient, annihilates, independent_rows_mod_p, nullspace, row_reduce,
    solve_span, sweep_span,
)

c, K = param("c"), param("K")


def sparse(row):
    """Sparse row {col: entry} of a dense list, zeros dropped."""
    return {j: e for j, e in enumerate(row) if expand(e) != RAT0}


def dot(row, vec):
    return expand(add(*[mul(e, vec.get(j, RAT0)) for j, e in enumerate(row)]))


def polys(ring, rows):
    """Rows of ``Expr`` entries as rows of ``ring`` polynomials."""
    return [{j: ring.poly(e) for j, e in r.items()} for r in rows]


def expr_nullspace(rows, ncols):
    """The nullspace basis of ``Expr`` rows, converted back to ``Expr``."""
    ring = LaurentRing()
    return [{j: ring.expr(p) for j, p in v.items()}
            for v in nullspace(polys(ring, rows), ncols, ring)]


def expr_rank(rows, ncols):
    """The rank of ``Expr`` rows: the pivot count of ``row_reduce``."""
    ring = LaurentRing()
    return len(row_reduce(polys(ring, rows), ncols, ring)[1])


def expr_solve_span(vectors, target):
    """``solve_span`` of one target, all ``Expr`` maps."""
    ring = LaurentRing()
    return solve_span(polys(ring, vectors), polys(ring, [target]), ring)[0][0]


def test_rank_and_nullspace_rational():
    rows = [
        [rat(1), rat(2), rat(0)],
        [rat(2), rat(4), rat(0)],
        [rat(0), rat(0), rat(1)],
    ]
    assert expr_rank([sparse(r) for r in rows], 3) == 2
    basis = expr_nullspace([sparse(r) for r in rows], 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert dot(row, v) == RAT0


def test_nullspace_with_parameters():
    # a - 2c*b = 0 has the solution line (2c, 1)
    rows = [{0: RAT1, 1: mul(-2, c)}]
    (v,) = expr_nullspace(rows, 2)
    assert {j: str(e) for j, e in v.items()} == {0: "2*c", 1: "1"}


def test_nullspace_clears_denominators():
    rows = [[pow_(c, -1), neg(K)]]
    (v,) = expr_nullspace([sparse(r) for r in rows], 2)
    # scaled to clear 1/c: (K*c, 1)
    assert dot(rows[0], v) == RAT0
    assert all("^(-" not in str(e) for e in v.values())


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
        coeffs = expr_solve_span([sparse(v) for v in vecs], sparse(target))
        assert coeffs is not None
        assert expand(coeffs[0]) == rat(a)
        assert expand(coeffs[1]) == rat(b)


def test_solve_span_detects_outside():
    assert expr_solve_span([{0: rat(1)}], {1: rat(1)}) is None


def test_solve_span_decides_many_targets_as_one_at_a_time(rng):
    # one sweep with every target as a column gives each target the answer
    # of a sweep of its own: the coordinates, or None outside the span (a
    # target with a coordinate no vector has is outside); a dependent
    # basis is reported as such
    factors = RING_ENTRIES[2:]
    for _ in range(40):
        n = rng.randint(1, 4)
        vecs = [v for v in random_ring_rows(rng, rng.randint(1, 3), n) if v] or [{0: RAT1}]
        if rng.random() < 0.3:
            a = rng.choice(factors)
            vecs.append({j: expand(mul(a, e)) for j, e in vecs[0].items()})
        targets = []
        for _ in range(rng.randint(1, 4)):
            combo = {}
            for v in vecs:
                a = rng.choice(factors)
                for j, e in v.items():
                    combo[j] = add(combo.get(j, RAT0), mul(a, e))
            target = sparse([expand(combo.get(j, RAT0)) for j in range(n)])
            kind = rng.random()
            if kind < 0.3:
                target = random_ring_rows(rng, 1, n)[0]
            elif kind < 0.5:
                target = {**target, n: rng.choice(factors)}
            targets.append(target)
        ring = LaurentRing()
        got, independent = solve_span(polys(ring, vecs), polys(ring, targets), ring)
        assert independent == (expr_rank(vecs, n) == len(vecs))
        for coeffs, want in zip(got, [expr_solve_span(vecs, t) for t in targets]):
            # equal as rational functions: a pivot product that does not
            # divide stays a denominator, whose Expr depends on the sweep
            assert (coeffs is None) == (want is None)
            assert all(vanishes(sub(a, b)) for a, b in zip(coeffs or (), want or ()))
        for target, coeffs in zip(targets, got):
            if n in target:
                assert coeffs is None
            elif coeffs is not None:
                assert all(vanishes(sub(add(*[mul(a, v.get(j, RAT0)) for a, v in zip(coeffs, vecs)]),
                                        target.get(j, RAT0))) for j in range(n))


def test_random_homogeneous_systems(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        m = rng.randint(1, n)
        rows = [
            [rat(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(n)]
            for _ in range(m)
        ]
        basis = expr_nullspace([sparse(r) for r in rows], n)
        assert len(basis) == n - expr_rank([sparse(r) for r in rows], n)
        for v in basis:
            for row in rows:
                assert dot(row, v) == RAT0


def test_row_order_does_not_change_rank_or_nullspace(rng):
    # the pivot rule depends on the row order; the pivot columns, and so
    # the basis vector of each free column up to a factor, do not
    entries = [RAT0, RAT0, RAT1, rat(-2), c, K, add(mul(c, K), 1),
               add(c, mul(-2, K)), pow_(c, -1)]
    for _ in range(15):
        n = rng.randint(2, 5)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        # a dependent row with parameter coefficients
        a, b = rng.choice(entries[2:]), rng.choice(entries[2:])
        rows.append([expand(add(mul(a, x), mul(b, y))) for x, y in zip(rows[0], rows[-1])])
        rows = [sparse(r) for r in rows]
        want_rank, want_basis = expr_rank(rows, n), expr_nullspace(rows, n)
        for _ in range(3):
            shuffled = rng.sample(rows, len(rows))
            assert expr_rank(shuffled, n) == want_rank
            basis = expr_nullspace(shuffled, n)
            assert len(basis) == len(want_basis)
            for got, want in zip(basis, want_basis):
                # proportional as vectors over the rational functions of the
                # parameters (content removal is not canonical for those)
                p = min(want)
                assert all(vanishes(sub(mul(got.get(j, RAT0), want[p]),
                                        mul(want.get(j, RAT0), got.get(p, RAT0))))
                           for j in got.keys() | want.keys())


def test_mod_p_rank_matches_exact_rank(rng):
    # small integer entries: the rank over GF(p) is the rank over Q unless
    # p divides a minor, which the large prime rules out here
    p = 2**31 - 1
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice([0, 0, 1, -2, 3]) for _ in range(ncols)] for _ in range(nrows)]
        mod_rows = [{j: v for j, v in enumerate(r) if v} for r in rows]
        rank = expr_rank([sparse([rat(v) for v in r]) for r in rows], ncols)
        assert len(independent_rows_mod_p(mod_rows, p)) == rank
        combo = {}
        for r in rows:
            k = rng.randint(-3, 3)
            for j, v in enumerate(r):
                combo[j] = combo.get(j, 0) + k * v
        # a combination of the rows adds nothing; a column no row touches does
        assert len(independent_rows_mod_p([*mod_rows, combo], p)) == rank
        assert independent_rows_mod_p([*mod_rows, {ncols: 1}], p)[-1] == nrows


def test_ring_strip_divides_parameter_content():
    ring = LaurentRing()
    row = ring.strip({0: ring.poly(expand(add(mul(-2, c, K), mul(-4, c, pow_(K, 2)))))})
    assert ring.expr(row[0]) == add(1, mul(2, K))
    # a common inverse power is content too
    row = ring.strip({0: ring.poly(expand(mul(3, pow_(K, -1), add(c, 1))))})
    assert ring.expr(row[0]) == add(c, 1)


# entries of the ring tests: rationals, monomials, polynomials, an inverse
RING_ENTRIES = [RAT0, RAT0, RAT1, rat(-2), rat(3, 2), c, K, add(mul(c, K), 1),
                add(c, mul(-2, K)), pow_(c, -1)]


def random_ring_rows(rng, nrows, ncols):
    return [sparse([rng.choice(RING_ENTRIES) for _ in range(ncols)]) for _ in range(nrows)]


def test_ring_rank_matches_mod_p_rank(rng):
    # the rank over the rational functions in c, K equals the rank at a
    # random point mod p unless the point is a root of a minor, which the
    # large prime makes unlikely (at most degree/p per minor)
    p = 2**31 - 1
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = random_ring_rows(rng, rng.randint(1, 6), n)
        if rng.random() < 0.5 and len(rows) > 1:
            # a dependent row with parameter coefficients
            a, b = rng.choice(RING_ENTRIES[2:]), rng.choice(RING_ENTRIES[2:])
            rows.append(sparse([expand(add(mul(a, r0.get(j, RAT0)), mul(b, r1.get(j, RAT0))))
                                for j, (r0, r1) in enumerate(zip([rows[0]] * n, [rows[1]] * n))]))
        point = {c: rng.randrange(1, p), K: rng.randrange(1, p)}
        ring = LaurentRing()
        mod_rows = [{j: ring.eval_mod(ring.poly(e), point, p) for j, e in r.items()}
                    for r in rows]
        assert len(independent_rows_mod_p(mod_rows, p)) == expr_rank(rows, n)


def content_free(ring, row):
    """Whether a row's integer coefficients have gcd 1 and no parameter
    divides every monomial (nor does its inverse)."""
    monos = [dict(ring.support(m)) for p in row.values() for m in p]
    return (gcd(*[k for p in row.values() for k in p.values()]) == 1
            and all(min(e.get(d, 0) for e in monos) == 0 for d in range(len(ring.variables))))


def test_echelon_rows_are_content_free(rng):
    # the ring sweep divides every row by its content and leaves its sign
    for _ in range(40):
        n = rng.randint(2, 6)
        rows = random_ring_rows(rng, rng.randint(1, 5), n)
        ring = LaurentRing()
        echelon, pivot_cols = row_reduce(polys(ring, rows), n, ring)
        assert pivot_cols == sorted(pivot_cols)
        for row, pc in zip(echelon, pivot_cols):
            assert min(row) == pc
            assert content_free(ring, row)


def test_nullspace_vectors_are_stripped(rng):
    # every vector nullspace returns is content-free and its first entry's
    # leading term, in Expr order, is positive.  (Expr order sorts a Sum's
    # terms with their coefficients, so 2*c - 4*K and -2*c + 4*K both lead
    # with a negative term; such an entry may stay negative.)
    for _ in range(40):
        n = rng.randint(2, 6)
        rows = random_ring_rows(rng, rng.randint(1, 5), n)
        ring = LaurentRing()
        for v in nullspace(polys(ring, rows), n, ring):
            assert content_free(ring, v)
            first = ring.expr(v[min(v)])
            assert rational_content(first) > 0 or rational_content(expand(neg(first))) < 0


def test_negated_rows_give_the_same_results(rng):
    # the sweep leaves every row's sign as it comes, so negating rows flips
    # signs of echelon rows only: nullspace's stripped vectors and the
    # coordinates solve_span returns are the same
    def negate(e):
        return expand(neg(e))

    for _ in range(40):
        n = rng.randint(2, 6)
        rows = random_ring_rows(rng, rng.randint(1, 5), n)
        negated = [{j: negate(e) for j, e in r.items()} if rng.random() < 0.5 else r
                   for r in rows]
        ring = LaurentRing()
        assert nullspace(polys(ring, negated), n, ring) == nullspace(polys(ring, rows), n, ring)
        # solve_span's internal rows are coordinates: negate some of them
        # in every vector and target at once
        vecs, targets = [v for v in rows if v] or [{0: RAT1}], random_ring_rows(rng, 2, n)
        targets.append(vecs[0])
        coords = {j for j in range(n) if rng.random() < 0.5}

        def negate_coords(maps):
            return [{j: negate(e) if j in coords else e for j, e in m.items()} for m in maps]

        want = solve_span(polys(ring, vecs), polys(ring, targets), ring)
        assert solve_span(polys(ring, negate_coords(vecs)), polys(ring, negate_coords(targets)),
                          ring) == want
        inside = sweep_span(polys(ring, vecs), polys(ring, targets), ring)[2]
        assert inside == [cs is not None for cs in want[0]]


def test_row_reduce_builds_no_expr(rng, monkeypatch):
    # elimination is ring arithmetic: multi-term rows are reduced without
    # converting an entry to Expr (the sign of a row is left as it is)
    multi_term = 0
    for _ in range(20):
        n = rng.randint(2, 6)
        rows = random_ring_rows(rng, rng.randint(2, 5), n)
        ring = LaurentRing()
        prows = polys(ring, rows)
        with monkeypatch.context() as m:
            m.setattr(LaurentRing, "expr", lambda *a: pytest.fail("row_reduce built an Expr"))
            echelon, _ = row_reduce(prows, n, ring)
        multi_term += any(len(p) > 1 for row in echelon for p in row.values())
    assert multi_term


def test_strip_is_idempotent(rng):
    # 2*c - 4*K leads with a negative term in Expr order both as it is and
    # negated; strip picks one of the two signs, and stripping again keeps it
    tie = expand(add(mul(2, c), mul(-4, K)))
    factors = [rat(-1), rat(2), rat(-3), c, mul(-1, K), pow_(c, -1)]
    for _ in range(40):
        n = rng.randint(1, 4)
        row = random_ring_rows(rng, 1, n)[0]
        row[rng.choice([0, rng.randrange(n + 1)])] = tie
        a = rng.choice(factors)
        row = {j: expand(mul(a, e)) for j, e in row.items()}
        ring = LaurentRing()
        (prow,) = polys(ring, [row])
        d = lcm(*[k.denominator for p in prow.values() for k in p.values() if type(k) is Fraction])
        once = ring.strip({j: {m: int(d * k) for m, k in p.items()} for j, p in prow.items()})
        assert ring.strip(once) == once


def test_ring_round_trip(rng):
    ring = LaurentRing()
    for _ in range(60):
        e = expand(mul(*[rng.choice(RING_ENTRIES[2:]) for _ in range(rng.randint(1, 3))]))
        p = ring.poly(e)
        assert ring.expr(p) == e
        # the first term in Expr order carries the sign of rational_content
        assert ring.leads_negative(p) == (rational_content(e) < 0)


def test_ring_eval_mod_matches_exact_evaluation(rng):
    # random Laurent polynomials with Fraction coefficients, some exponents
    # negative, at random rational points: the residue of the exact value
    # (the rationals substituted into the Expr) is the value over GF(p)
    p = 2**31 - 1
    e1 = param("e1")
    ring = LaurentRing()
    for _ in range(80):
        e = expand(add(*[
            mul(rat(Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
                *[pow_(v, rng.randint(-3, 3)) for v in (c, K, e1)])
            for _ in range(rng.randint(1, 4))]))
        point = {v: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
                 for v in (c, K, e1)}
        want = substitute(e, {v: rat(q) for v, q in point.items()}).value
        mpoint = {v: q.numerator * pow(q.denominator, -1, p) % p for v, q in point.items()}
        assert ring.eval_mod(ring.poly(e), mpoint, p) == (
            want.numerator * pow(want.denominator, -1, p) % p)
    with pytest.raises(EvalDomainError):
        ring.eval_mod(ring.poly(pow_(c, -1)), {c: p}, p)
    with pytest.raises(EvalDomainError):
        ring.eval_mod(ring.poly(rat(1, p)), {}, p)


def test_entry_outside_the_ring_refused():
    # the classify solve, the one caller that eliminates, refuses an entry
    # with a variable other than a parameter in one line
    with pytest.raises(DetSysError) as err:
        ansatz_solve(PowerCase(L=pow_(param("L"), Fraction(1, 3))), AnsatzSpec(1))
    msg = str(err.value)
    assert "\n" not in msg and msg.startswith("entry outside the Laurent-polynomial ring")
    assert "L^(1/3)" in msg


def test_elimination_takes_parameters_only():
    # zero tests take any factor as a variable, elimination must not: with
    # s = c^(1/2) the matrix [[s, 1], [c, s]] is singular, while the ring
    # reads its determinant s^2 - c as a nonzero polynomial in two
    # variables, so its rank there is 2.  The classify solve therefore
    # eliminates parameters only, and refuses a fractional power.
    s = pow_(c, Fraction(1, 2))
    assert expr_rank([{0: s, 1: RAT1}, {0: c, 1: s}], 2) == 2
    with pytest.raises(DetSysError, match="outside the Laurent-polynomial ring"):
        ansatz_solve(ExponentialCase(K=pow_(c, Fraction(1, 2))), AnsatzSpec(0))


def test_annihilates():
    rows = [{0: RAT1, 1: mul(-2, c)}, {1: add(mul(c, K), 1), 2: K}]
    ring = LaurentRing()
    rows = polys(ring, rows)
    (v,) = nullspace(rows, 3, ring)
    # the pivot c*K + 1 scales the vector instead of dividing it
    assert ring.expr(v[2]) == expand(neg(add(mul(c, K), 1)))
    assert annihilates(rows, [v])
    assert not annihilates(rows, [{0: {0: 1}}])
    assert not annihilates(rows, [{j: ring.poly(mul(c, ring.expr(e))) for j, e in v.items() if j}])
    # an exp entry is a variable of its own, which nothing cancels
    assert not annihilates(rows, [{0: ring.poly(exp_(c))}])


def test_nullspace_with_polynomial_pivots():
    # both pivots are 1 + c, which back-substitution cannot divide by in
    # the ring: the basis vector carries the factor instead
    one_c = add(1, c)
    rows = [{0: one_c, 1: K, 2: RAT1}, {1: one_c, 2: c}]
    (v,) = expr_nullspace(rows, 3)
    assert all("^(-" not in str(e) for e in v.values())
    assert all(dot([r.get(j, RAT0) for j in range(3)], v) == RAT0 for r in rows)
    ring = LaurentRing()
    rows = polys(ring, rows)
    assert annihilates(rows, nullspace(rows, 3, ring))


def test_solve_span_with_polynomial_pivots():
    # every entry of the first column is 1 + c: the coordinates are scaled
    # by the pivots' product (1 + c)^2, which divides them exactly
    one_c = add(1, c)
    vecs = [{0: one_c}, {0: K, 1: one_c}]
    target = {0: expand(add(mul(2, one_c), mul(c, K))), 1: expand(mul(c, one_c))}
    assert expr_solve_span(vecs, target) == [rat(2), c]


def test_solve_span_keeps_a_pivot_that_does_not_divide():
    # the coordinate of 1 on the vector 1 + c is 1/(1 + c)
    one_c = add(1, c)
    (coeff,) = expr_solve_span([{0: one_c}], {0: RAT1})
    assert vanishes(sub(mul(coeff, one_c), 1))


def test_exact_quotient(rng):
    # d divides d*q for random Laurent polynomials, and the quotient is q;
    # d does not divide d*q + 1 when d is not a monomial
    ring = LaurentRing()
    terms = [RAT1, rat(-3, 2), c, K, pow_(c, -1), mul(c, K), pow_(K, 2), mul(c, pow_(K, -2))]
    for _ in range(60):
        d, q = (add(*rng.sample(terms, rng.randint(1, 3))) for _ in range(2))
        pd, pq = ring.poly(d), ring.poly(q)
        assert _exact_quotient(ring, ring.poly(expand(mul(d, q))), pd) == pq
        if len(pd) > 1:
            assert _exact_quotient(ring, ring.poly(expand(add(mul(d, q), 1))), pd) is None


def test_independent_rows_mod_p():
    p = 2**31 - 1
    rows = [{0: 1}, {0: 2}, {1: 1}, {0: 3, 1: 5}, {2: p}, {2: 4}]
    assert independent_rows_mod_p(rows, p) == [0, 2, 5]
