"""Expression core: normal form, exact arithmetic, calculus, collection."""

from fractions import Fraction

import pytest

from conftest import rand_expr, rand_raw_tree
from wavesym.expr import (
    Base, Exp, Fn, Jet, Ln, Param, Pow, Product, Rat, Sum,
    RAT0, RAT1, T, U, X, Y,
    add, base, clear_sum_denominators, collect_atoms, diff, div,
    equal_numeric, eval_mod, eval_numeric, exp_, expand, fn, format_expr, jet, ln_,
    mul, neg, normalize, param, pow_, rat, sub, substitute, vanishes,
    EvalDomainError, NonPolynomialError, SingularError, UnboundAtomError,
)
from wavesym.expr import SingularSubstitutionError, atoms_of, fn_nodes_of

a, b, c = param("a"), param("b"), param("c")
K = param("K")


class TestNormalForm:
    def test_zero_summand_dropped(self):
        assert add(X, RAT0) == X

    def test_unit_factor_dropped(self):
        assert mul(X, RAT1) == X

    def test_flatten_and_sort(self):
        e = add(Y, add(X, Y))
        assert e == add(X, mul(2, Y))

    def test_like_terms_cancel(self):
        assert sub(mul(5, X), mul(5, X)) == RAT0

    def test_power_merge(self):
        assert mul(pow_(X, 2), pow_(X, -2)) == RAT1
        assert mul(X, X, X) == pow_(X, 3)

    def test_pow_of_pow(self):
        assert pow_(pow_(X, 2), Fraction(3, 2)) == pow_(X, 3)

    def test_rational_folding(self):
        assert mul(rat(2, 3), rat(3, 2)) == RAT1
        assert pow_(rat(4), Fraction(1, 2)) == rat(2)
        assert pow_(rat(8), Fraction(2, 3)) == rat(4)
        assert type(pow_(rat(2), Fraction(1, 2))) is Pow

    def test_exp_merging(self):
        assert mul(exp_(a), exp_(b)) == exp_(add(a, b))

    def test_exp_ln_inverse_pair(self):
        h = param("h")
        assert exp_(ln_(h)) == h
        assert ln_(exp_(h)) == h

    def test_exp_pulls_rational_log_multiples(self):
        e = exp_(add(a, mul(2, ln_(X))))
        assert e == mul(pow_(X, 2), exp_(a))

    def test_symbolic_log_multiple_stays_inside(self):
        e = exp_(mul(c, ln_(X)))  # x^c is not representable as a Pow
        assert type(e) is Exp

    def test_ln_extracts_exp_factors(self):
        assert ln_(mul(a, exp_(b))) == add(b, ln_(a))

    def test_ln_of_product_not_split(self):
        e = ln_(mul(a, b))
        assert type(e) is Ln

    def test_jet_multiset_index(self):
        assert jet("xy") == jet("yx")
        assert sub(jet("xy"), jet("yx")) == RAT0

    def test_jet_order_cap(self):
        with pytest.raises(Exception):
            jet("xxxxx")

    def test_neg_folds_into_coefficient(self):
        e = neg(neg(X))
        assert e == X

    def test_singular_power(self):
        with pytest.raises(SingularError):
            pow_(RAT0, -1)
        with pytest.raises(SingularError):
            ln_(RAT0)

    def test_idempotence_random(self, rng):
        for _ in range(250):
            e = rand_raw_tree(rng, rng.randint(1, 8))
            try:
                n1 = normalize(e)
            except SingularError:
                continue
            assert normalize(n1) == n1

    def test_exactness_no_floats(self, rng):
        def walk(e):
            if type(e) is Rat:
                assert isinstance(e.value, Fraction)
            elif type(e) is Pow:
                assert isinstance(e.exp, Fraction)
                walk(e.expbase)
            elif type(e) is Sum:
                for x in e.terms:
                    walk(x)
            elif type(e) is Product:
                for x in e.factors:
                    walk(x)
            elif type(e) in (Exp, Ln):
                walk(e.arg)
            elif type(e) is Fn:
                for x in e.args:
                    walk(x)

        for _ in range(200):
            walk(rand_expr(rng, rng.randint(1, 5)))


class TestDiff:
    def test_jet_coordinates_independent(self):
        assert diff(jet("x"), X) == RAT0
        assert diff(jet("x"), jet("x")) == RAT1

    def test_opaque_chain_rule(self):
        assert diff(fn("f", [U]), U) == fn("f", [U], (1,))

    def test_exponential_family_derivative(self):
        fam = mul(K, exp_(div(U, c)))
        expect = mul(K, pow_(c, -1), exp_(mul(U, pow_(c, -1))))
        assert diff(fam, U) == expect

    def test_product_rule_random(self, rng):
        for _ in range(200):
            u = rand_expr(rng, 2)
            v = rand_expr(rng, 2)
            var = rng.choice([X, Y, T, U, a])
            lhs = diff(mul(u, v), var)
            rhs = add(mul(diff(u, var), v), mul(u, diff(v, var)))
            assert expand(sub(lhs, rhs)) == RAT0

    def test_sum_rule_random(self, rng):
        for _ in range(200):
            u = rand_expr(rng, 2)
            v = rand_expr(rng, 2)
            var = rng.choice([X, Y, T, U, a])
            assert diff(add(u, v), var) == add(diff(u, var), diff(v, var))

    def test_ln_pow_derivatives(self):
        assert diff(ln_(X), X) == pow_(X, -1)
        assert diff(pow_(X, 3), X) == mul(3, pow_(X, 2))
        assert diff(exp_(mul(2, X)), X) == mul(2, exp_(mul(2, X)))


class TestSubstitute:
    def test_atom_substitution(self):
        assert substitute(add(X, Y), {X: RAT0}) == Y

    def test_on_shell_style_jet_substitution(self):
        model_rhs = mul(fn("f", [U]), add(jet("xx"), jet("yy")))
        assert substitute(jet("tt"), {jet("tt"): model_rhs}) == model_rhs

    def test_simultaneous(self):
        e = add(X, mul(2, Y))
        out = substitute(e, {X: Y, Y: X})
        assert out == add(Y, mul(2, X))

    def test_head_binding_pushes_derivatives(self):
        m, p, q = param("m"), param("p"), param("q")
        planar = add(mul(m, X), mul(p, Y), q)
        hx = substitute(fn("h", [X, Y], (1, 0)), {fn("h", [X, Y]): planar})
        hyy = substitute(fn("h", [X, Y], (0, 2)), {fn("h", [X, Y]): planar})
        assert hx == m
        assert hyy == RAT0

    def test_exact_node_binding_leaves_other_derivatives(self):
        r = base("r")
        z2 = fn("zeta1", [r], (2,))
        z1 = fn("zeta1", [r], (1,))
        out = substitute(add(z2, z1), {z2: rat(7)})
        assert out == add(z1, rat(7))

    def test_singular_substitution_reported(self):
        with pytest.raises(SingularSubstitutionError):
            substitute(pow_(X, -1), {X: RAT0})


class TestCollect:
    def test_basic(self):
        ux, ut = jet("x"), jet("t")
        table = collect_atoms(add(mul(a, ux), mul(b, ux, ut)), {ux, ut})
        assert table[((ux, 1),)] == a
        assert table[((ux, 1), (ut, 1))] == b

    def test_constant_bucket(self):
        table = collect_atoms(c, {jet("x")})
        assert len(table) == 1
        ((key, val),) = table.items()
        assert key == () and val == c

    def test_non_polynomial_rejected(self):
        ux = jet("x")
        with pytest.raises(NonPolynomialError):
            collect_atoms(exp_(ux), {ux})
        with pytest.raises(NonPolynomialError):
            collect_atoms(pow_(ux, Fraction(1, 2)), {ux})

    def test_reassembly_numeric(self, rng):
        ux, uy = jet("x"), jet("y")
        for _ in range(20):
            e = add(*[
                mul(rand_expr(rng, 1), pow_(ux, rng.randint(0, 2)), pow_(uy, rng.randint(0, 2)))
                for _ in range(3)
            ])
            try:
                table = collect_atoms(e, {ux, uy})
            except NonPolynomialError:
                continue
            back = add(*[mul(*[pow_(j, k) for j, k in key], v) for key, v in table.items()])
            assert equal_numeric(e, back, n_points=20, tol=1e-9, seed=3)


class TestNumeric:
    def test_eval(self):
        assert eval_numeric(mul(X, Y), {X: 2.0, Y: 3.0}) == pytest.approx(6.0)

    def test_unbound_atom(self):
        with pytest.raises(UnboundAtomError):
            eval_numeric(mul(X, Y), {X: 1.0})

    def test_domain_errors(self):
        with pytest.raises(EvalDomainError):
            eval_numeric(ln_(X), {X: -1.0})
        with pytest.raises(EvalDomainError):
            eval_numeric(pow_(X, -1), {X: 0.0})

    def test_eval_mod_matches_exact_evaluation(self, rng):
        p = 2**31 - 1

        def exact(n, point, fvals):
            t = type(n)
            if t is Rat:
                return n.value
            if t in (Param, Base, Jet):
                return point[n]
            if t is Fn:
                return fvals[(n.name, n.didx)]
            if t is Sum:
                return sum(exact(x, point, fvals) for x in n.terms)
            if t is Product:
                v = Fraction(1)
                for x in n.factors:
                    v *= exact(x, point, fvals)
                return v
            if t is Pow and n.exp.denominator == 1:
                return exact(n.expbase, point, fvals) ** int(n.exp)
            raise NonPolynomialError(str(n))

        def residue(q):
            return q.numerator * pow(q.denominator, -1, p) % p

        checked = 0
        for _ in range(600):
            e = rand_expr(rng, 3)
            point = {x: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for x in atoms_of(e)}
            fvals = {(f.name, f.didx): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for f in fn_nodes_of(e)}
            mpoint = {x: residue(q) for x, q in point.items()}
            mfvals = {k: residue(q) for k, q in fvals.items()}
            try:
                want = exact(e, point, fvals)
            except (NonPolynomialError, ZeroDivisionError):
                with pytest.raises((NonPolynomialError, EvalDomainError)):
                    eval_mod(e, mpoint, mfvals, p)
                continue
            assert eval_mod(e, mpoint, mfvals, p) == residue(want), format_expr(e)
            checked += 1
        assert checked >= 100

    def test_eval_mod_zero_denominator(self):
        p = 101
        with pytest.raises(EvalDomainError):
            eval_mod(pow_(sub(X, Y), -2), {X: 5, Y: 5 + p}, {}, p)
        with pytest.raises(EvalDomainError):
            eval_mod(mul(rat(1, p), X), {X: 1}, {}, p)
        assert eval_mod(pow_(X, -1), {X: 2}, {}, p) == 51
        with pytest.raises(NonPolynomialError):
            eval_mod(exp_(X), {X: 1}, {}, p)
        with pytest.raises(UnboundAtomError):
            eval_mod(fn("f", [X]), {X: 1}, {}, p)

    def test_equal_numeric_inverse_pair(self):
        assert equal_numeric(exp_(ln_(X)), X, box=(0.1, 10.0))

    def test_equal_numeric_detects_difference(self):
        assert not equal_numeric(X, mul(X, rat(1001, 1000)), box=(0.5, 2.0))


class TestVanishes:
    def test_clears_sum_denominators(self):
        g = add(mul(param("e1"), U), param("e2"))
        e = sub(mul(U, param("e1"), pow_(g, -1)),
                sub(RAT1, mul(param("e2"), pow_(g, -1))))
        assert vanishes(e)

    def test_nonzero_stays_nonzero(self):
        g = add(mul(param("e1"), U), param("e2"))
        assert not vanishes(add(pow_(g, -1), RAT1))

    def test_clear_returns_expanded(self):
        e = clear_sum_denominators(mul(add(X, Y), pow_(add(X, Y), -1)))
        assert e == RAT1


class TestFormat:
    def test_fraction_rendering(self):
        assert format_expr(rat(3, 4)) == "3/4"
        assert format_expr(mul(rat(-1), X)) == "-x"

    def test_sum_with_negative_terms(self):
        assert format_expr(sub(X, mul(2, Y))) == "x - 2*y"

    def test_derivative_heads(self):
        assert format_expr(fn("f", [U], (2,))) == "f''(u)"
        assert format_expr(fn("w", [X, Y], (1, 2))) == "w[1,2](x, y)"
