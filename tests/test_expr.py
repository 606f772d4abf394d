"""Expression core: normal form, exact arithmetic, calculus, collection."""

import random
from fractions import Fraction

import pytest

from conftest import rand_atom, rand_expr, rand_raw_tree
from wavesym.expr import (
    Base, Exp, Fn, Jet, Ln, Param, Pow, Product, Rat, Sum,
    RAT0, RAT1, T, U, X, Y,
    add, base, clear_sum_denominators, collect_atoms, diff, div,
    eval_numeric, exp_, expand, fn, format_expr, jet, ln_,
    mul, neg, normalize, param, pow_, rat, sub, substitute, vanishes,
    EvalDomainError, NonPolynomialError, SingularError, UnboundAtomError,
)
from wavesym.expr import SingularSubstitutionError, _walk, atoms_of, fn_nodes_of
from wavesym.linalg import LaurentRing

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

    def test_rat_interns_int_and_fraction_arguments(self):
        assert rat(Fraction(7919, 3)) is rat(7919, 3)
        assert rat(104729) is rat(Fraction(104729))
        assert type(rat(104723).value) is Fraction

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


# The full-rebuild expand and substitution that the child map replaced:
# every node goes back through its normalizing constructor.  Kept as
# references for TestChildMap.


def ref_expand(e):
    t = type(e)
    if t in (Rat, Param, Base, Jet):
        return e
    if t is Fn:
        return fn(e.name, tuple(ref_expand(a) for a in e.args), e.didx)
    if t is Sum:
        return add(*[ref_expand(x) for x in e.terms])
    if t is Product:
        terms = [RAT1]
        for f in e.factors:
            f = ref_expand(f)
            if type(f) is Sum:
                terms = [mul(a, b) for a in terms for b in f.terms]
            else:
                terms = [mul(a, f) for a in terms]
        return add(*terms)
    if t is Pow:
        b = ref_expand(e.expbase)
        if type(b) is Sum and e.exp.denominator == 1 and e.exp > 1:
            terms = [RAT1]
            for _ in range(int(e.exp)):
                terms = [mul(a, s) for a in terms for s in b.terms]
            return add(*terms)
        return pow_(b, e.exp)
    if t is Exp:
        return exp_(ref_expand(e.arg))
    if t is Ln:
        return ln_(ref_expand(e.arg))
    raise AssertionError(f"unknown node {e!r}")


def ref_sub(e, exact, heads):
    hit = exact.get(e)
    if hit is not None:
        return hit
    t = type(e)
    if t in (Rat, Param, Base, Jet):
        return e
    if t is Fn:
        new_args = tuple(ref_sub(a, exact, heads) for a in e.args)
        bound = heads.get((e.name, len(e.args)))
        if bound is not None:
            formals, rep = bound
            out = rep
            for slot, k in enumerate(e.didx):
                for _ in range(k):
                    out = diff(out, formals[slot])
            renames = {f: a for f, a in zip(formals, new_args) if f != a}
            if renames:
                out = ref_sub(out, renames, {})
            return out
        return fn(e.name, new_args, e.didx)
    if t is Sum:
        return add(*[ref_sub(x, exact, heads) for x in e.terms])
    if t is Product:
        return mul(*[ref_sub(x, exact, heads) for x in e.factors])
    if t is Pow:
        return pow_(ref_sub(e.expbase, exact, heads), e.exp)
    if t is Exp:
        return exp_(ref_sub(e.arg, exact, heads))
    if t is Ln:
        return ln_(ref_sub(e.arg, exact, heads))
    raise AssertionError(f"unknown node {e!r}")


def ref_walk(e):
    yield e
    t = type(e)
    if t is Fn:
        for a in e.args:
            yield from ref_walk(a)
    elif t is Sum:
        for x in e.terms:
            yield from ref_walk(x)
    elif t is Product:
        for x in e.factors:
            yield from ref_walk(x)
    elif t is Pow:
        yield from ref_walk(e.expbase)
    elif t in (Exp, Ln):
        yield from ref_walk(e.arg)


def outcome(f, *args):
    """f(*args), or "singular" when it raised a SingularError."""
    try:
        return f(*args)
    except SingularError:
        return "singular"


class TestChildMap:
    """A node whose children come back unchanged is returned as it is; the
    results equal the full rebuild's."""

    @staticmethod
    def trees(n_seeds=240):
        for seed in range(n_seeds):
            rng = random.Random(seed)
            yield rng, rand_expr(rng, rng.randint(1, 5))

    def test_expand_matches_full_rebuild(self):
        for _, e in self.trees():
            ex = expand(e)
            want = ref_expand(e)
            assert ex == want and str(ex) == str(want)
            assert expand(ex) is ex

    def test_substitute_matches_full_rebuild(self):
        for rng, e in self.trees():
            exact = {}
            for _ in range(2):
                k = rand_atom(rng)
                if type(k) is not Rat:
                    exact[k] = rand_expr(rng, 2)
            f_rep = rand_expr(rng, 2)
            got = outcome(substitute, e, {**exact, fn("f", [X]): f_rep})
            want = outcome(ref_sub, e, exact, {("f", 1): ((X,), f_rep)})
            assert got == want and str(got) == str(want)

    def test_unused_binding_returns_the_tree(self):
        for _, e in self.trees():
            assert substitute(e, {param("unused"): RAT1}) is e
            assert substitute(e, {fn("unused", [X]): X}) is e

    def test_function_exp_ln_arguments_are_expanded(self):
        for _, e in self.trees():
            for tree in (e, expand(e)):
                for n in ref_walk(tree):
                    args = n.args if type(n) is Fn else (n.arg,) if type(n) in (Exp, Ln) else ()
                    for arg in args:
                        assert ref_expand(arg) == arg
                        assert expand(arg) is arg

    def test_walk_is_preorder_and_iterative(self):
        for _, e in self.trees():
            assert list(_walk(e)) == list(ref_walk(e))
        deep = X
        for _ in range(5000):
            deep = Ln(deep)
        assert sum(1 for _ in _walk(deep)) == 5001


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
            assert vanishes(sub(e, back))


class TestNumeric:
    def test_eval(self):
        assert eval_numeric(mul(X, Y), {X: 2.0, Y: 3.0}) == pytest.approx(6.0)

    def test_unbound_atom(self):
        with pytest.raises(UnboundAtomError):
            eval_numeric(mul(X, Y), {X: 1.0})

    def test_unbound_function(self):
        # no default sampler: an opaque function needs values from the caller
        with pytest.raises(UnboundAtomError):
            eval_numeric(mul(X, fn("f", [X])), {X: 1.0})
        assert eval_numeric(fn("f", [X]), {X: 2.0}, lambda name, didx, args: 3 * args[0]) == 6.0

    def test_domain_errors(self):
        with pytest.raises(EvalDomainError):
            eval_numeric(ln_(X), {X: -1.0})
        with pytest.raises(EvalDomainError):
            eval_numeric(pow_(X, -1), {X: 0.0})

    def test_eval_mod_matches_exact_evaluation(self, rng):
        # an expression is evaluated over GF(p) in a LaurentRing, where a
        # function node is a variable like an atom; a factor that is neither
        # (exp, ln, a fractional power, a Sum's inverse) has no residue
        p = 2**31 - 1

        def exact(n, point):
            t = type(n)
            if t is Rat:
                return n.value
            if t in (Param, Base, Jet, Fn):
                return point[n]
            if t is Sum:
                return sum(exact(x, point) for x in n.terms)
            if t is Product:
                v = Fraction(1)
                for x in n.factors:
                    v *= exact(x, point)
                return v
            if t is Pow and n.exp.denominator == 1:
                return exact(n.expbase, point) ** int(n.exp)
            raise NonPolynomialError(str(n))

        def residue(q):
            return q.numerator * pow(q.denominator, -1, p) % p

        checked = 0
        for _ in range(600):
            e = rand_expr(rng, 3)
            point = {x: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for x in atoms_of(e) | fn_nodes_of(e)}
            mpoint = {x: residue(q) for x, q in point.items()}
            ring = LaurentRing()
            poly = ring.poly(e)
            if not all(type(v) in (Param, Base, Jet, Fn) for v in ring.variables):
                # a bound variable at 0 under a negative power may come first
                with pytest.raises((UnboundAtomError, EvalDomainError)):
                    ring.eval_mod(poly, mpoint, p)
                continue
            try:
                want = exact(e, point)
            except ZeroDivisionError:
                with pytest.raises(EvalDomainError):
                    ring.eval_mod(poly, mpoint, p)
                continue
            assert ring.eval_mod(poly, mpoint, p) == residue(want), format_expr(e)
            checked += 1
        assert checked >= 100

    def test_eval_mod_zero_denominator(self):
        p = 101
        ring = LaurentRing()

        def ev(e, point):
            return ring.eval_mod(ring.poly(e), point, p)

        with pytest.raises(EvalDomainError):
            ev(pow_(X, -2), {X: 5 * p})
        with pytest.raises(EvalDomainError):
            ev(mul(rat(1, p), X), {X: 1})
        assert ev(pow_(X, -1), {X: 2}) == 51
        assert ev(mul(fn("f", [X]), pow_(Y, -1)), {fn("f", [X]): 3, Y: 2}) == 3 * 51 % p
        with pytest.raises(UnboundAtomError):
            ev(exp_(X), {X: 1})
        with pytest.raises(UnboundAtomError):
            ev(fn("f", [X]), {X: 1})


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


def test_fractional_powers_of_one_base_cancel():
    u2 = mul(2, U)
    assert vanishes(sub(mul(U, pow_(u2, Fraction(-1, 2))),
                        mul(Fraction(1, 2), pow_(u2, Fraction(1, 2)))))


def test_fractional_power_of_a_product_takes_out_its_powers():
    w, ell = fn("w", [X]), param("ell")
    assert pow_(mul(2, ell, pow_(T, -4)), Fraction(1, 2)) == mul(
        pow_(T, -2), pow_(mul(2, ell), Fraction(1, 2)))
    assert pow_(mul(rat(3, 4), w, pow_(X, Fraction(3, 2))), Fraction(-2, 3)) == mul(
        rat(4, 3), pow_(w, -1), pow_(X, -1), pow_(mul(rat(3, 4), w), Fraction(1, 3)))
    assert pow_(mul(2, U, exp_(X)), Fraction(3, 2)) == mul(
        2, U, exp_(mul(Fraction(3, 2), X)), pow_(mul(2, U), Fraction(1, 2)))


def test_fractional_powers_of_a_scaled_atom_are_canonical():
    # c*g with c > 0 rational keeps its rational factor under a fractional
    # power; the canonical form pulls out integer parts so that powers of
    # c*g, and of c*g against g, merge
    from hypothesis import HealthCheck, given, settings, strategies as st

    positive = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))
    fractional = st.builds(Fraction, st.integers(-30, 30), st.integers(2, 7)).filter(
        lambda q: q.denominator != 1)
    atoms = st.sampled_from([X, T, U, param("a"), jet("x")])

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None, suppress_health_check=list(HealthCheck))
    @given(positive, atoms, fractional, fractional, st.integers(-5, 5).filter(bool))
    def check(c_, g, q1, q2, a_):
        cg = mul(c_, g)
        assert mul(pow_(cg, q1), pow_(cg, q2)) == pow_(cg, q1 + q2)
        assert vanishes(sub(mul(pow_(g, a_), pow_(cg, q1)),
                            mul(pow_(rat(c_), -a_), pow_(cg, q1 + a_))))

    check()


def test_perfect_powers_leave_a_root():
    # only the q-th-power-free part of the rational factor stays under the
    # root, so one value has one spelling
    half = Fraction(1, 2)
    assert vanishes(sub(pow_(mul(4, U), half), mul(2, pow_(U, half))))
    assert pow_(mul(4, U), half) == mul(2, pow_(U, half))
    assert format_expr(pow_(mul(8, U), half)) == "2*(2*u)^(1/2)"
    assert format_expr(pow_(mul(Fraction(3, 4), X), Fraction(1, 3))) == "1/2*(6*x)^(1/3)"
    assert mul(pow_(mul(4, U), half), pow_(mul(4, U), Fraction(1, 3))) == pow_(
        mul(4, U), Fraction(5, 6))


def test_roots_of_scaled_atoms_multiply_associatively():
    # powers (c*g)^q of one g with different rational c > 0 fold by value,
    # those with c < 0 only by equal bases, so the grouping of a product
    # does not change its form, and no rational is left under a root of
    # its own
    from hypothesis import HealthCheck, given, settings, strategies as st

    nonzero = st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 60))
    exponent = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7))
    atoms = st.sampled_from([X, U, jet("x"), mul(X, U), add(1, U)])

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None, suppress_health_check=list(HealthCheck))
    @given(atoms, nonzero, nonzero, exponent, exponent, exponent)
    def check(g, c1, c2, q1, q2, q3):
        f1, f2, f3 = pow_(mul(c1, g), q1), pow_(mul(c1, g), q2), pow_(mul(c2, g), q3)
        whole = mul(mul(f1, f2), f3)
        assert whole == mul(f1, mul(f2, f3)) == mul(f3, f1, f2)
        assert normalize(whole) == whole
        factors = whole.factors if type(whole) is Product else (whole,)
        assert not any(type(f) is Pow and type(f.expbase) is Rat for f in factors)

    check()
    # 4099^2 is past trial division (2^24 or more, no prime below 2^12), so
    # its root keeps its own base in every grouping
    half = Fraction(1, 2)
    a, b = pow_(mul(4099, U), half), pow_(mul(4099**2, U), half)
    assert b == Pow(mul(4099**2, U), half)
    assert mul(mul(a, a), b) == mul(a, mul(a, b)) == mul(b, a, a) == mul(4099, U, b)


def test_integer_power_of_a_sum_takes_polynomially_many_products(monkeypatch):
    # like terms are collected after each factor, so (a + b)^20 needs
    # O(20^2) products, not the 2^20 of multiplying the term lists out
    from math import comb

    from wavesym import expr as expr_module

    n = 20
    want = add(*[mul(rat(comb(n, k)), pow_(a, k), pow_(b, n - k)) for k in range(n + 1)])
    calls = []
    real = expr_module.mul

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(expr_module, "mul", counted)
    got = expand(pow_(add(a, b), n))
    monkeypatch.undo()
    assert got == want
    assert len(calls) <= 2 * (n + 1) ** 2
