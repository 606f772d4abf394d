"""Total derivatives and prolongation coefficients.

The independent oracle for D_d is the chain-rule identity along a concrete
polynomial section: with every jet bound to the corresponding partial
derivative of a polynomial P(x,y,t), the total derivative of any jet
expression must agree exactly with the plain partial derivative of the
bound expression."""

import random
from fractions import Fraction

import pytest

from wavesym.expr import (
    RAT0, RAT1, T, U, X, Y, add, base, diff, expand, fn, jet, jets_of,
    max_jet_order, mul, neg, param, pow_, rat, sub, substitute,
)
from conftest import form_expr
from wavesym.jet import (
    JetOrderError, characteristic, linear_form, prolong_coeff_first,
    prolong_coeff_second, total_derivative,
)
from wavesym.liealg import VectorField

c = param("c")


def rand_poly(rng, degree=3):
    terms = [rat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))]
    for _ in range(rng.randint(2, 5)):
        i, j, k = (rng.randint(0, degree) for _ in range(3))
        if i + j + k > degree:
            continue
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append(mul(rat(coeff), pow_(X, i), pow_(Y, j), pow_(T, k)))
    return add(*terms)


def jet_bindings(P):
    """u_J -> the exact partial derivative of P, for every J up to order 4."""
    binds = {}
    letters = "xyt"
    frontier = {(): P}
    binds[jet("")] = P
    for _ in range(4):
        new = {}
        for idx, e in frontier.items():
            for letter in letters:
                nidx = tuple(sorted(idx + (letter,)))
                j = jet("".join(nidx))
                if j not in binds:
                    d = diff(e, base(letter))
                    binds[j] = d
                    new[nidx] = d
        frontier = new
    return binds


def rand_jet_expr(rng):
    jets = [jet(s) for s in ("", "x", "y", "t", "xx", "xy", "yt", "tt")]
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [rat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))]
        for _ in range(rng.randint(1, 2)):
            factors.append(rng.choice(jets))
        factors.append(pow_(rng.choice([X, Y, T]), rng.randint(0, 2)))
        terms.append(mul(*factors))
    return add(*terms)


class TestTotalDerivative:
    def test_basics(self):
        assert total_derivative(U, "x") == jet("x")
        assert total_derivative(jet("t"), "t") == jet("tt")
        assert total_derivative(fn("f", [U]), "x") == mul(fn("f", [U], (1,)), jet("x"))

    def test_order_cap(self):
        with pytest.raises(JetOrderError):
            total_derivative(jet("xxxx"), "x")

    def test_polynomial_section_oracle(self, rng):
        for _ in range(60):
            P = rand_poly(rng)
            binds = jet_bindings(P)
            e = rand_jet_expr(rng)
            d = rng.choice("xyt")
            lhs = expand(substitute(total_derivative(e, d), binds))
            rhs = expand(diff(substitute(e, binds), base(d)))
            assert lhs == rhs

    def test_commutation_random(self, rng):
        for _ in range(200):
            e = rand_jet_expr(rng)
            d1, d2 = rng.choice("xyt"), rng.choice("xyt")
            ab = total_derivative(total_derivative(e, d1), d2)
            ba = total_derivative(total_derivative(e, d2), d1)
            assert expand(sub(ab, ba)) == RAT0

    def test_leibniz_random(self, rng):
        for _ in range(200):
            u = rand_jet_expr(rng)
            v = rand_jet_expr(rng)
            d = rng.choice("xyt")
            lhs = total_derivative(mul(u, v), d)
            rhs = add(mul(total_derivative(u, d), v), mul(u, total_derivative(v, d)))
            assert expand(sub(lhs, rhs)) == RAT0


class TestCharacteristic:
    def test_time_translation(self):
        v5 = VectorField(RAT0, RAT0, RAT1, RAT0)
        assert characteristic(v5) == neg(jet("t"))

    def test_scaling_generator(self):
        v1 = VectorField(X, Y, RAT0, mul(2, c))
        q = characteristic(v1)
        expect = add(mul(2, c), neg(mul(X, jet("x"))), neg(mul(Y, jet("y"))))
        assert q == expect

    def test_pure_u_component(self):
        v = VectorField(RAT0, RAT0, RAT0, U)
        assert characteristic(v) == U


class TestProlongation:
    def test_translation_coefficients_vanish(self):
        v2 = VectorField(RAT1, RAT0, RAT0, RAT0)
        assert prolong_coeff_first(v2, "x") == RAT0
        assert prolong_coeff_second(v2, "x", "x") == RAT0

    def test_x_scaling_first_coefficient(self):
        v = VectorField(X, RAT0, RAT0, RAT0)
        assert prolong_coeff_first(v, "x") == neg(jet("x"))

    def test_t_scaling_second_coefficient(self):
        v = VectorField(RAT0, RAT0, T, RAT0)
        assert prolong_coeff_second(v, "t", "t") == mul(-2, jet("tt"))

    def test_scaling_generator_tt_coefficient_vanishes(self):
        # v1 has no t-component, so the tt prolongation coefficient is 0
        v1 = VectorField(X, Y, RAT0, mul(2, c))
        assert prolong_coeff_second(v1, "t", "t") == RAT0

    @staticmethod
    def _random_field(rng):
        def comp(depth):
            parts = [rat(rng.randint(-2, 2))]
            for _ in range(rng.randint(0, 2)):
                parts.append(
                    mul(
                        rat(rng.randint(-2, 2)),
                        rng.choice([X, Y, T, U]),
                        rng.choice([RAT1, rng.choice([X, Y, T, U])]),
                    )
                )
            return add(*parts)

        return VectorField(comp(2), comp(2), comp(2), comp(2))

    def test_third_order_cancellation_random(self, rng):
        pairs = [(d1, d2) for d1 in "xyt" for d2 in "xyt"]
        for _ in range(210):
            v = self._random_field(rng)
            d1, d2 = rng.choice(pairs)
            coeff = prolong_coeff_second(v, d1, d2)
            assert max_jet_order(coeff) <= 2, (str(v), d1, d2)

    def test_symmetry_random(self, rng):
        for _ in range(60):
            v = self._random_field(rng)
            d1, d2 = rng.choice("xyt"), rng.choice("xyt")
            a = prolong_coeff_second(v, d1, d2)
            b = prolong_coeff_second(v, d2, d1)
            assert expand(sub(a, b)) == RAT0


class TestLinearForms:
    """The prolongation runs on linear forms {component node: coefficient};
    the route through one whole expression is the reference."""

    g, h = fn("g", [X, U]), fn("h", [Y])

    def test_linear_form_files_terms_by_node(self):
        e = add(mul(3, U, self.g), mul(X, self.g), self.h, mul(self.g, self.h),
                fn("g", [mul(X, Y), U]), pow_(T, 2))
        assert linear_form(e) == {
            self.g: add(mul(3, U), X),
            self.h: RAT1,
            # products of nodes, a node of a non-atom argument and the part
            # without a node share the key 1
            RAT1: add(mul(self.g, self.h), fn("g", [mul(X, Y), U]), pow_(T, 2)),
        }
        assert form_expr(linear_form(e)) == expand(e)
        assert linear_form(sub(self.g, self.g)) == {}

    def _fields(self, rng):
        opaque = [fn(name, [X, Y, T, U]) for name in ("xi", "eta", "tau", "phi")]
        mixed = VectorField(mul(self.g, self.h), fn("k", [mul(X, T)]),
                            add(fn("tau", [T]), X), add(mul(U, self.g), pow_(U, 2)))
        return [VectorField(*opaque), mixed] + [
            TestProlongation._random_field(rng) for _ in range(20)]

    def test_second_coefficient_matches_the_expression_route(self, rng):
        for v in self._fields(rng):
            for d1, d2 in (("x", "x"), ("x", "t"), ("y", "t"), ("t", "t")):
                q = characteristic(v)
                expect = expand(add(
                    total_derivative(total_derivative(q, d2), d1),
                    mul(v.xi, jet("x" + d1 + d2)), mul(v.eta, jet("y" + d1 + d2)),
                    mul(v.tau, jet("t" + d1 + d2))))
                assert prolong_coeff_second(v, d1, d2) == expect, (str(v), d1, d2)

    def test_first_coefficient_matches_the_expression_route(self, rng):
        for v in self._fields(rng):
            for d in "xyt":
                expect = expand(add(
                    total_derivative(characteristic(v), d), mul(v.xi, jet("x" + d)),
                    mul(v.eta, jet("y" + d)), mul(v.tau, jet("t" + d))))
                assert prolong_coeff_first(v, d) == expect, (str(v), d)
