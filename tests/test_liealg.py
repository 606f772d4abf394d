"""Vector-field algebra: brackets, tables, Jacobi, flows."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from wavesym.expr import (
    RAT0, RAT1, T, U, X, Y, add, eval_numeric, exp_, expand, jet, mul, neg,
    param, pow_, rat, sub,
)
from fields import bracket, is_zero, plus, scaled
from wavesym.liealg import (
    EPS, CommutatorTable, FlowUnsupportedError, LieAlgError, VectorField,
    commutator_table, decompose_field, flow, jacobi_check,
)
from wavesym import reference

c = param("c")
e1, e2 = param("e1"), param("e2")


def rand_affine_field(rng):
    def comp():
        parts = [rat(rng.randint(-2, 2))]
        for atom in (X, Y, T, U):
            parts.append(mul(rat(rng.randint(-1, 1)), atom))
        return add(*parts)

    return VectorField(comp(), comp(), comp(), comp())


class TestBracket:
    def test_case_i_table_entries(self):
        v1, v2, v3, v4, v5 = reference.case_i_basis(c)
        assert decompose_field([v2], bracket(v1, v2)) == [rat(-1)]
        assert decompose_field([v5], bracket(v4, v5)) == [rat(-1)]
        assert is_zero(bracket(v1, v4))

    def test_self_bracket_zero(self, rng):
        for _ in range(20):
            v = rand_affine_field(rng)
            assert is_zero(bracket(v, v))

    def test_antisymmetry_random(self, rng):
        for _ in range(60):
            v, w = rand_affine_field(rng), rand_affine_field(rng)
            lhs = bracket(v, w)
            rhs = bracket(w, v)
            assert is_zero(plus(lhs, rhs))

    def test_bilinearity_random(self, rng):
        for _ in range(40):
            v, w, z = (rand_affine_field(rng) for _ in range(3))
            a = rat(rng.randint(-3, 3))
            lhs = bracket(plus(scaled(v, a), w), z)
            rhs = plus(scaled(bracket(v, z), a), bracket(w, z))
            assert is_zero(plus(lhs, scaled(rhs, -1)))

    def test_jet_components_rejected(self):
        with pytest.raises(LieAlgError):
            VectorField(jet("x"), RAT0, RAT0, RAT0)

    @pytest.mark.parametrize("comp", [exp_(X), pow_(X, -1), pow_(U, Fraction(1, 2)),
                                      pow_(add(X, 1), -1), exp_(c)],
                             ids=["exp(x)", "1/x", "u^(1/2)", "1/(x + 1)", "exp(c)"])
    def test_non_polynomial_field_rejected(self, comp):
        # a component must be a polynomial in x, y, t, u with Laurent
        # polynomials in the parameters as coefficients
        dx = VectorField(RAT1, RAT0, RAT0, RAT0)
        field = VectorField(RAT0, RAT0, comp, RAT0)
        with pytest.raises(LieAlgError):
            bracket(dx, field)
        with pytest.raises(LieAlgError):
            commutator_table([dx, field])
        with pytest.raises(LieAlgError):
            decompose_field([dx], field)

    def test_laurent_parameter_coefficients(self):
        # [x*d/dx, c^(-1)*x^2*d/dx] = c^(-1)*x^2*d/dx
        w = VectorField(mul(pow_(c, -1), X, X), RAT0, RAT0, RAT0)
        assert bracket(VectorField(X, RAT0, RAT0, RAT0), w) == w


class TestCommutatorTable:
    def test_case_i_matches_reference(self):
        table = commutator_table(reference.case_i_basis(c))
        triples = [(i, j, k, str(v)) for i, j, k, v in table.structure_triples()]
        expected = [(i, j, k, str(v)) for i, j, k, v in reference.STRUCTURE_TRIPLES]
        assert triples == expected

    def test_case_ii_same_structure_constants(self):
        t1 = commutator_table(reference.case_i_basis(c))
        t2 = commutator_table(reference.case_ii_basis(e1, e2))
        assert t1.structure_triples() == t2.structure_triples()

    def test_two_dimensional_affine_algebra(self):
        dx = VectorField(RAT1, RAT0, RAT0, RAT0)
        xdx = VectorField(X, RAT0, RAT0, RAT0)
        table = commutator_table([dx, xdx])
        assert table.entries[(0, 1)] == [RAT1, RAT0]
        assert table.closed()

    def test_non_closure_marked(self):
        dx = VectorField(RAT1, RAT0, RAT0, RAT0)
        x2dx = VectorField(mul(X, X), RAT0, RAT0, RAT0)
        table = commutator_table([dx, x2dx])
        assert table.entries[(0, 1)] is None
        assert not table.closed()

    def test_dependent_basis_rejected(self):
        dx = VectorField(RAT1, RAT0, RAT0, RAT0)
        with pytest.raises(LieAlgError):
            commutator_table([dx, scaled(dx, 2)])

    def test_classify_sweeps_each_basis_once(self, monkeypatch):
        # the containment of the reference basis and its commutator table
        # make one solve_span call each, every target decided in it
        from wavesym import liealg
        from wavesym.cli import RunConfig, stage_classify

        calls = []
        real = liealg.solve_span

        def counted(vectors, targets, ring):
            calls.append(len(targets))
            return real(vectors, targets, ring)

        monkeypatch.setattr(liealg, "solve_span", counted)
        assert stage_classify(RunConfig("classify", case="ii", degree=1))["jacobi_all_zero"]
        assert calls == [5, 10]

    def test_grid_rendering(self):
        table = commutator_table(reference.case_i_basis(c))
        grid = table.grid_strings()
        assert grid[0][1] == "-v2"
        assert grid[4][3] == "v5"
        assert grid[0][0] == "0"


class TestJacobi:
    def test_case_i(self):
        assert all(jacobi_check(commutator_table(reference.case_i_basis(c))).values())

    def test_case_ii(self):
        assert all(jacobi_check(commutator_table(reference.case_ii_basis(e1, e2))).values())

    def test_triple_count(self):
        report = jacobi_check(commutator_table(reference.case_i_basis(c)))
        assert len(report) == 10

    @pytest.mark.parametrize("basis", [reference.case_i_basis(c),
                                       reference.case_ii_basis(e1, e2)])
    def test_table_brackets_give_the_same_report(self, basis):
        table = commutator_table(basis)
        assert sorted(table.brackets) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
        # the table's brackets are the fields' brackets, and its report is
        # the Jacobi identity checked on whole fields
        for (i, j), polys in table.brackets.items():
            assert VectorField(*map(table.ring.expr, polys)) == bracket(basis[i], basis[j])
        assert jacobi_check(table) == {
            (i, j, k): is_zero(plus(plus(bracket(basis[i], bracket(basis[j], basis[k])),
                                         bracket(bracket(basis[i], basis[k]), basis[j])),
                                    bracket(basis[k], bracket(basis[i], basis[j]))))
            for i, j, k in combinations(range(5), 3)}
        # an inner bracket that is not [v_0, v_1] breaks the triples it enters
        wrong = replace(table, brackets={**table.brackets, (0, 1): table.polys[0]})
        assert not all(jacobi_check(wrong).values())

    def test_classify_brackets_each_pair_once(self, monkeypatch):
        # 10 pairs for the table, whose brackets the Jacobi check reuses,
        # and 3 outer brackets for each of the 10 triples
        from wavesym import liealg
        from wavesym.cli import RunConfig, stage_classify

        calls = []
        real = liealg._bracket

        def counted(ring, v, w, *acc):
            calls.append((v, w))
            return real(ring, v, w, *acc)

        monkeypatch.setattr(liealg, "_bracket", counted)
        assert stage_classify(RunConfig("classify", case="ii", degree=1))["jacobi_all_zero"]
        assert len(calls) == 40


class TestFlow:
    def test_translation(self):
        v2 = VectorField(RAT1, RAT0, RAT0, RAT0)
        fm = flow(v2)
        assert fm.maps[0] == add(X, EPS)
        assert fm.maps[1] == Y

    def test_case_i_scaling(self):
        v1 = reference.case_i_basis(c)[0]
        fm = flow(v1)
        from wavesym.expr import exp_
        assert fm.maps[0] == mul(X, exp_(EPS))
        assert fm.maps[2] == T
        assert fm.maps[3] == add(U, mul(2, c, EPS))

    def test_case_ii_t_scaling(self):
        v4 = reference.case_ii_basis(e1, e2)[3]
        fm = flow(v4)
        from wavesym.expr import exp_, pow_, div
        decay = exp_(mul(-2, e1, EPS))
        expect_u = add(mul(decay, U), mul(sub(decay, RAT1), div(e2, e1)))
        assert expand(sub(fm.maps[3], expect_u)) == RAT0

    def test_identity_at_zero(self):
        for v in reference.case_i_basis(c):
            fm = flow(v)
            for m, coord in zip(fm.at(RAT0), (X, Y, T, U)):
                assert m == coord

    def test_group_law_numeric(self, rng):
        v1 = reference.case_i_basis(rat(1))[0]
        fm = flow(v1)
        pt = {X: 1.3, Y: 0.7, T: 2.1, U: 0.4}
        for _ in range(5):
            ea, eb = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            once = {
                coord: eval_numeric(m, {**pt, EPS: ea})
                for coord, m in zip((X, Y, T, U), fm.maps)
            }
            twice = {
                coord: eval_numeric(m, {**once, EPS: eb})
                for coord, m in zip((X, Y, T, U), fm.maps)
            }
            combined = {
                coord: eval_numeric(m, {**pt, EPS: ea + eb})
                for coord, m in zip((X, Y, T, U), fm.maps)
            }
            for coord in (X, Y, T, U):
                assert twice[coord] == pytest.approx(combined[coord], rel=1e-12)

    def test_inverse_composition(self):
        v4 = reference.case_i_basis(rat(1))[3]
        fm = flow(v4)
        inv = fm.inverse()
        pt = {X: 1.0, Y: 1.0, T: 2.0, U: 0.3}
        fwd = {
            coord: eval_numeric(m, {**pt, EPS: 0.4})
            for coord, m in zip((X, Y, T, U), fm.maps)
        }
        back = {
            coord: eval_numeric(m, {**fwd, EPS: 0.4})
            for coord, m in zip((X, Y, T, U), inv.maps)
        }
        for coord in (X, Y, T, U):
            assert back[coord] == pytest.approx(pt[coord], rel=1e-12)

    def test_coupled_field_unsupported(self):
        rot = reference.rotation_field()
        with pytest.raises(FlowUnsupportedError):
            flow(rot)

    def test_group_law_symbolic(self):
        # composing the flow at eps with the flow at -eps is the identity
        # after normalization (exp factors merge and cancel exactly)
        from wavesym.expr import substitute
        from wavesym.liealg import COORDS
        for v in reference.case_i_basis(c) + [reference.case_ii_basis(e1, e2)[3]]:
            fm = flow(v)
            inv = fm.inverse()
            forward = dict(zip(COORDS, fm.maps))
            for coord, back in zip(COORDS, inv.maps):
                composed = substitute(back, forward)
                assert expand(sub(composed, coord)) == RAT0, str(v)
