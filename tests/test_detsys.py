"""Invariance condition, on-shell rewriting, determining system, solving."""

from fractions import Fraction
import random

import pytest

from wavesym import detsys, expr
from wavesym import jet as jet_module
from wavesym.detsys import (
    PRIME, PROLONG_ORDER, SELECTION_SEED, AnsatzSpec, DeterminingSystem, DetSysError,
    ExponentialCase, FFamily, Generic, PowerCase, UTag,
    ansatz_solve, check_reference_system, extract_determining,
    invariance_residual, model_residual, on_shell, opaque_affine_vectorfield,
    opaque_vectorfield, reference_implication_report, split_u_dependence,
    _certify, _close_forms, _linear_decomposition, _partial_derivation,
)
from wavesym.expr import (
    RAT0, RAT1, T, U, X, Y, Fn, Pow, Product, Sum, add, atoms_of, clear_denominators,
    collect_atoms, diff, div, exp_, expand, fn, format_expr, jet, jets_of, mul, neg, param,
    pow_, rat, sub, substitute, vanishes,
)
from conftest import form_expr
from wavesym.jet import characteristic, form_derivative, linear_form, total_derivative
from wavesym.liealg import VectorField, decompose_field, decompose_fields
from wavesym.linalg import LaurentRing, add_product, solve_span
from wavesym.parser import parse
from wavesym import reference

c, e1, e2 = param("c"), param("e1"), param("e2")


class TestFamilies:
    def test_exponential(self):
        fam = ExponentialCase()
        assert fam.f_expr() == mul(param("K"), exp_(div(U, c)))
        # f' = f/c for this family
        assert expand(sub(fam.fu_expr(), div(fam.f_expr(), c))) == RAT0

    def test_power_ratio(self):
        fam = PowerCase()
        g = add(mul(e1, U), e2)
        # f/f' = e1*u + e2
        ratio = mul(fam.f_expr(), pow_(fam.fu_expr(), -1))
        assert vanishes(sub(ratio, g))

    def test_degenerate_parameters_refused(self):
        with pytest.raises(DetSysError):
            ExponentialCase(c=rat(0))
        with pytest.raises(DetSysError):
            PowerCase(e1=rat(0))
        with pytest.raises(DetSysError):
            ExponentialCase(K=rat(0))
        with pytest.raises(DetSysError, match="K must be nonzero"):
            ExponentialCase(rat(0), c)
        with pytest.raises(DetSysError, match="e1 must be nonzero"):
            PowerCase(param("L"), rat(0), e2)

    def test_families_are_values_of_their_own_type(self):
        # reduction._reduced_expr reuses a derived equation when its
        # family equals the caller's
        assert PowerCase() == PowerCase() and hash(PowerCase()) == hash(PowerCase())
        assert PowerCase() == PowerCase(param("L"), e1, e2) != PowerCase(e1=rat(2))
        assert ExponentialCase() == ExponentialCase(param("K"), c)
        assert ExponentialCase() != PowerCase() and PowerCase() != ExponentialCase()
        assert ExponentialCase() != (param("K"), c) and (param("K"), c) != ExponentialCase()
        assert Generic() == Generic() != ExponentialCase()
        assert ParsedFamily("u^2") == ParsedFamily("u^2") != ParsedFamily("u^3")
        with pytest.raises(AttributeError):
            PowerCase().e1 = rat(2)

    def test_power_with_integer_reciprocal_exponent_folds(self):
        # e1 = 1/3 gives f = L*(u/3 + e2)^3, a genuine polynomial
        fam = PowerCase(e1=rat(1, 3))
        f = fam.f_expr()
        assert f == mul(param("L"), pow_(add(div(U, 3), e2), 3))
        from wavesym.expr import Exp, Ln, _walk
        assert not [n for n in _walk(f) if type(n) in (Exp, Ln)]


class TestUTag:
    def test_equality_hash_and_order_ignore_the_factor(self):
        marker = exp_(div(U, c))
        tagged, untagged = UTag(1, marker.sort_key(), marker), UTag(1, marker.sort_key())
        assert tagged == untagged and hash(tagged) == hash(untagged)
        assert UTag(1) != (1, ()) and (1, ()) != UTag(1)
        tags = [UTag(2), tagged, UTag(1), UTag(0, marker.sort_key(), marker)]
        assert [(t.u_power, t.factor_key) for t in sorted(tags)] == sorted(
            (t.u_power, t.factor_key) for t in tags)
        assert UTag(1) < tagged < UTag(2)


class TestOnShell:
    def test_u_tt_replaced(self):
        assert on_shell(jet("tt")) == mul(fn("f", [U]), add(jet("xx"), jet("yy")))

    def test_untouched_jets(self):
        assert on_shell(jet("x")) == jet("x")

    def test_third_order_consequences(self):
        rhs = mul(fn("f", [U]), add(jet("xx"), jet("yy")))
        expect = expand(total_derivative(rhs, "x"))
        assert expand(on_shell(jet("ttx"))) == expect

    def test_no_double_t_jets_remain(self):
        e = add(jet("tt"), jet("ttt"), mul(jet("tty"), jet("x")))
        out = on_shell(e)
        assert all(j.idx.count("t") < 2 for j in jets_of(out))


class TestInvarianceResidual:
    def test_translations_vanish_identically(self):
        for comp in range(3):
            parts = [RAT0] * 4
            parts[comp] = RAT1
            v = VectorField(*parts)
            assert expand(on_shell(invariance_residual(v))) == RAT0

    def test_case_i_basis_vanishes_on_shell(self):
        fam = ExponentialCase()
        for v in reference.case_i_basis(c):
            assert vanishes(on_shell(invariance_residual(v, fam), fam))

    def test_case_ii_basis_vanishes_on_shell(self):
        fam = PowerCase()
        for v in reference.case_ii_basis(e1, e2):
            assert vanishes(on_shell(invariance_residual(v, fam), fam))

    def test_rotation_vanishes_for_all_families(self):
        rot = reference.rotation_field()
        for fam in (Generic(), ExponentialCase(), PowerCase()):
            assert vanishes(on_shell(invariance_residual(rot, fam), fam))

    def test_on_shell_needed_exactly_when_tau_nonzero(self):
        fam = ExponentialCase()
        basis = reference.case_i_basis(c)
        # v1 has tau = 0, so no u_tt enters: the residual vanishes raw
        assert expand(invariance_residual(basis[0], fam)) == RAT0
        # v4 scales t: its residual is -2*(u_tt - f*(u_xx+u_yy)), zero only on-shell
        raw = invariance_residual(basis[3], fam)
        assert expand(raw) != RAT0
        assert vanishes(on_shell(raw, fam))

    def test_non_symmetry_detected(self):
        w = VectorField(RAT0, RAT0, RAT0, U)
        fam = ExponentialCase()
        assert not vanishes(on_shell(invariance_residual(w, fam), fam))


class TestExtractDetermining:
    def test_generic_system_shape(self):
        ds = extract_determining(opaque_vectorfield(), Generic())
        assert len(ds) == 34
        by_key = {str(k): e for k, e in ds.entries}
        # the u_xt coefficient couples tau_x to xi_t through f
        row = by_key["u_xt"]
        vnames = {n.name for n in __import__("wavesym.expr", fromlist=["fn_nodes_of"]).fn_nodes_of(row)}
        assert vnames == {"xi", "tau", "f"}
        # the u_xy coefficient is a single equation in xi_y + eta_x
        row = by_key["u_xy"]
        vnames = {n.name for n in __import__("wavesym.expr", fromlist=["fn_nodes_of"]).fn_nodes_of(row)}
        assert vnames == {"xi", "eta", "f"}

    def test_entries_free_of_first_order_jets(self):
        ds = extract_determining(opaque_vectorfield(), Generic())
        for _, e in ds.entries:
            assert all(j.order == 0 for j in jets_of(e))

    def test_zero_field_trivial(self):
        ds = extract_determining(VectorField(RAT0, RAT0, RAT0, RAT0), Generic())
        assert len(ds) == 0

    def test_family_entries_tagged(self):
        fam = ExponentialCase()
        v = VectorField(X, Y, RAT0, mul(2, c))
        ds = extract_determining(v, fam)
        assert len(ds) == 0  # v1 is a symmetry: every piece vanishes

    def test_serializable(self):
        ds = extract_determining(opaque_vectorfield(), Generic())
        rows = ds.serializable()
        assert all(set(r) == {"origin_monomial", "expression_text"} for r in rows)

    @pytest.mark.parametrize("fam", [ExponentialCase(), PowerCase()],
                             ids=["exponential", "power"])
    def test_opaque_affine_system_has_constant_coefficients(self, fam):
        # the precondition of ansatz_solve's falling-factorial matrix: every
        # term is one opaque component derivative times a coefficient free of
        # x, y, t
        ds = extract_determining(opaque_affine_vectorfield(), fam)
        assert len(ds) == 19
        comps = {"xi", "eta", "tau", "alpha", "beta"}
        for _, e in ds.entries:
            for term in e.terms if type(e) is Sum else (e,):
                factors = term.factors if type(term) is Product else (term,)
                nodes = [f for f in factors if type(f) is Fn]
                assert len(nodes) == 1 and nodes[0].name in comps
                assert len(nodes[0].args) == 3
                rest = [f for f in factors if f is not nodes[0]]
                assert not any(atoms_of(f) & {X, Y, T, U} for f in rest)

    def test_collect_reassembles_on_shell_residual(self):
        # brute-force oracle: the tagged coefficients, multiplied back onto
        # their jet monomials, reproduce the on-shell residual exactly
        v = opaque_vectorfield()
        res = expand(on_shell(invariance_residual(v, Generic()), Generic()))
        variables = {j for j in jets_of(res) if j.order >= 1}
        table = collect_atoms(res, variables)
        back = add(*[mul(*[pow_(j, k) for j, k in key], coeff) for key, coeff in table.items()])
        assert expand(sub(back, res)) == RAT0


class TestSplitU:
    def test_exponential_tags(self):
        e = add(
            mul(param("A"), U, exp_(div(U, c))),
            mul(param("B"), exp_(div(U, c))),
            param("C"),
        )
        pieces = split_u_dependence(e)
        assert len(pieces) == 3
        powers = sorted((t.u_power, t.factor is not None) for t in pieces)
        assert powers == [(0, False), (0, True), (1, True)]

    def test_denominator_clearing(self):
        g = add(mul(e1, U), e2)
        e = add(mul(param("A"), pow_(g, -1)), param("B"))
        pieces = split_u_dependence(e)
        # multiplied through by g: A + B*(e1*u + e2) splits into u^0 and u^1
        assert {t.u_power for t in pieces} == {0, 1}

    def test_shared_clearing(self):
        # f carries no u-denominator, f' = f/(e1*u + e2) does: the one
        # coefficient A*f + B*f' is cleared by the multiplier g = e1*u + e2,
        # which scales both parts, so A*f*g and B*f' share u-tags
        fam = PowerCase()
        g = add(mul(e1, U), e2)
        A, B = param("A"), param("B")
        f_part, fu_part = mul(A, fam.f_expr()), mul(B, fam.fu_expr())
        pieces = split_u_dependence(add(f_part, fu_part))
        assert {t.u_power for t in pieces} == {0, 1}
        back = add(*[mul(pow_(U, t.u_power), t.factor or RAT1, v)
                     for t, v in pieces.items()])
        for part, other in ((f_part, B), (fu_part, A)):
            assert expand(sub(substitute(back, {other: RAT0}), mul(g, part))) == RAT0


class TestLinearDecomposition:
    xi, eta = fn("xi", [X, Y, T]), fn("eta", [X, Y, T])

    def test_linear_form(self):
        xi_x = fn("xi", [X, Y, T], (1, 0, 0))
        e = add(mul(param("A"), self.xi), mul(param("B"), xi_x), mul(U, self.xi))
        assert _linear_decomposition(e, {"xi"}) == {
            self.xi: add(param("A"), U), xi_x: param("B")}

    @pytest.mark.parametrize("bad", ["square", "reciprocal", "product", "no component"])
    def test_non_linear_terms_rejected(self, bad):
        e = {
            "square": pow_(self.xi, 2),
            "reciprocal": pow_(self.xi, -1),
            "product": mul(self.xi, self.eta),
            "no component": add(self.xi, param("A")),
        }[bad]
        with pytest.raises(DetSysError):
            _linear_decomposition(e, {"xi", "eta"})


class TestReferenceSystem:
    def test_case_i_fields_clean_except_known_defect(self):
        fam = ExponentialCase()
        for k, v in enumerate(reference.case_i_basis(c)):
            rep = check_reference_system(v, fam)
            bad = {n for n, (res, ok) in rep.items() if not ok}
            assert bad <= {"tau_t_matches_phi_u"}
            if k == 3:  # the t-scaling generator exposes the defect
                assert bad == {"tau_t_matches_phi_u"}

    def test_non_symmetry_flagged(self):
        rep = check_reference_system(VectorField(RAT0, RAT0, RAT0, U), Generic())
        bad = {n for n, (res, ok) in rep.items() if not ok}
        assert "phi_scale_x" in bad and "phi_scale_y" in bad

    def test_implication_report(self):
        ds = extract_determining(opaque_vectorfield(), Generic())
        rep, check = reference_implication_report(ds)
        assert all(v == {"implied": v["implied"]} for v in rep.values())
        not_implied = {n for n, v in rep.items() if not v["implied"]}
        # exactly the documented defects: the rotation-excluding split and
        # the tau_t = phi_u slip
        assert not_implied == {"xi_no_y", "eta_no_x", "tau_t_matches_phi_u"}
        assert check == {"rows": 412, "unknowns": 276, "rank": 223}

    def test_implied_verdicts_rebuild_their_condition(self):
        # each implied condition is an exact combination of the closed
        # forms: with the coordinates' denominators cleared by one common
        # polynomial D, the combination rebuilds D times the condition
        ds = extract_determining(opaque_vectorfield(), Generic())
        ring = ds.ring
        names, derived, conds = detsys._implication_system(ds)
        rep, _ = reference_implication_report(ds)
        coords, independent = solve_span(derived, conds, ring)
        assert not independent
        assert [n for n, cs in zip(names, coords) if cs is None] == [
            n for n in names if not rep[n]["implied"]]
        for name, cs, cond in zip(names, coords, conds):
            if cs is None:
                continue
            *cleared, scale = clear_denominators([*cs, RAT1], lambda b, q: q)
            assert scale != RAT0
            combo = {}
            for k, vec in zip(cleared, derived):
                if k != RAT0:
                    for col, p in vec.items():
                        add_product(combo.setdefault(col, {}), ring.poly(k), p)
            want = {col: add_product({}, ring.poly(scale), p) for col, p in cond.items()}
            assert {col: p for col, p in combo.items() if p} == want, name

    def test_implication_sees_a_dropped_equation(self):
        # without phi_tt - f*(phi_xx + phi_yy), the coefficient of the jet
        # monomial 1, the reference's phi wave balance no longer follows
        ds = extract_determining(opaque_vectorfield(), Generic())
        kept = [(k, f) for k, f in zip(ds.keys, ds.ring_forms) if str(k) != "1"]
        assert len(kept) == len(ds) - 1
        keys, forms = map(list, zip(*kept))
        rep, check = reference_implication_report(
            DeterminingSystem(ds.family, ds.residual, ds.ring, keys, forms))
        assert not rep["phi_wave_balance"]["implied"]
        assert check["rank"] < 223


def _expr_closure(forms, prolong_order=2):
    """The closure as it was built on whole expressions: every row
    reassembled, differentiated, expanded and decomposed again."""
    names = ("xi", "eta", "tau", "phi")
    derived = [expand(add(*[mul(n, c) for n, c in f.items()])) for f in forms]
    frontier, seen = list(derived), set(derived)
    for _ in range(prolong_order):
        nxt = []
        for e in frontier:
            for a in (X, Y, T, U):
                de = expand(diff(e, a))
                if de != RAT0 and de not in seen:
                    seen.add(de)
                    nxt.append(de)
        derived.extend(nxt)
        frontier = nxt
    return [_linear_decomposition(e, names) for e in derived]


def _ring_closure(forms, prolong_order, derivation):
    """``_expr_closure`` of forms with ring coefficients, converted to
    ``Expr`` and back."""
    ring = derivation.ring
    rows = _expr_closure([{n: ring.expr(p) for n, p in f.items()} for f in forms], prolong_order)
    return [{n: ring.poly(c) for n, c in f.items()} for f in rows]


def _per_entry_form_derivative(form, derivation, direction):
    """``jet.form_derivative`` without the shift table: each entry rebuilds
    its shifted nodes, looks up each argument's derivative and adds every
    contribution into a new polynomial."""
    out = {}
    for node, c in form.items():
        if type(node) is Fn:
            for i, arg in enumerate(node.args):
                da = derivation.variable(arg, direction)
                if da:
                    didx = list(node.didx)
                    didx[i] += 1
                    add_product(out.setdefault(Fn(node.name, node.args, tuple(didx)), {}), da, c)
        dc = derivation(c, direction)
        if dc:
            add_product(out.setdefault(node, {}), dc, {0: 1})
    return {node: c for node, c in out.items() if c}


def _forms_expr(ds):
    """The extracted entries' linear forms with their ring coefficients as
    ``Expr``."""
    return [{n: ds.ring.expr(p) for n, p in f.items()} for f in ds.ring_forms]


class TestLinearFormClosure:
    ARGS = (X, Y, T, U)
    f = fn("f", [U])

    def xi(self, *didx):
        return fn("xi", self.ARGS, didx or (0, 0, 0, 0))

    @staticmethod
    def in_ring(ring, form):
        return {node: ring.poly(c) for node, c in form.items()}

    def test_u_derivative_shifts_the_index_and_differentiates_the_coefficient(self):
        ring = LaurentRing()
        xi_x, xi_xu = self.xi(1, 0, 0, 0), self.xi(1, 0, 0, 1)
        got = form_derivative(self.in_ring(ring, {xi_x: self.f}), _partial_derivation(ring), U)
        assert got == self.in_ring(ring, {xi_xu: self.f, xi_x: fn("f", [U], (1,))})

    def test_coefficient_differentiated_once_per_direction(self, monkeypatch):
        # each variable's derivative, the node arguments' and f's, is
        # converted once per direction
        converted = []
        real = detsys.diff

        def counted(e, a):
            converted.append((e, a))
            return real(e, a)

        monkeypatch.setattr(detsys, "diff", counted)
        ring = LaurentRing()
        derivation = _partial_derivation(ring)
        form = self.in_ring(ring, {self.xi(): self.f, self.xi(1, 0, 0, 0): self.f})
        form_derivative(form, derivation, U)
        form_derivative(form, derivation, U)
        assert len(converted) == len(set(converted))
        assert {e for e, _ in converted} == {X, Y, T, U, self.f}

    def test_cancelling_contribution_drops_its_node(self):
        # d/du (u*xi - u^2/2*xi_u): the two xi_u terms cancel
        ring = LaurentRing()
        form = {self.xi(): U, self.xi(0, 0, 0, 1): mul(rat(-1, 2), pow_(U, 2))}
        got = form_derivative(self.in_ring(ring, form), _partial_derivation(ring), U)
        assert got == self.in_ring(
            ring, {self.xi(): RAT1, self.xi(0, 0, 0, 2): mul(rat(-1, 2), pow_(U, 2))})

    def test_zero_and_duplicate_rows_not_added(self):
        g, g_x, g_xx = (fn("g", [X], (k,)) for k in range(3))
        ring = LaurentRing()
        derivation, one = _partial_derivation(ring), ring.poly(RAT1)
        # d/dy, d/dt, d/du of every row are zero; d/dx of g is the row g_x
        assert _close_forms([{g: one}, {g_x: one}], 1, derivation) == [
            {g: one}, {g_x: one}, {g_xx: one}]
        assert _close_forms([{g: one}], 2, derivation) == [{g: one}, {g_x: one}, {g_xx: one}]

    def test_non_atom_argument_rejected(self):
        ring = LaurentRing()
        with pytest.raises(DetSysError, match="non-atom"):
            _close_forms([{fn("xi", [mul(X, Y), T]): ring.poly(RAT1)}], 1,
                         _partial_derivation(ring))

    def test_same_rows_as_the_expression_closure(self):
        ds = extract_determining(opaque_vectorfield(), Generic())
        rows = _close_forms(ds.ring_forms, 2, _partial_derivation(ds.ring))
        assert len(rows) == 412
        forms = [_linear_decomposition(e, ("xi", "eta", "tau", "phi"))
                 for _, e in ds.entries]
        assert [{n: ds.ring.expr(p) for n, p in r.items()} for r in rows] == _expr_closure(forms)

    @pytest.mark.parametrize("seed", [7, 3])
    def test_same_report_as_the_expression_closure(self, monkeypatch, seed):
        # the derived equations in a shuffled order: both closures give the
        # report of the extraction's order
        ds = extract_determining(opaque_vectorfield(), Generic())
        entries = list(zip(ds.keys, ds.ring_forms))
        random.Random(seed).shuffle(entries)
        shuffled = DeterminingSystem(ds.family, ds.residual, ds.ring, *map(list, zip(*entries)))
        new = reference_implication_report(ds)
        assert reference_implication_report(shuffled) == new
        monkeypatch.setattr(detsys, "_close_forms", _ring_closure)
        assert reference_implication_report(shuffled) == new
        assert new[1]["rows"] == 412

    @pytest.mark.parametrize("seed", [None, 7, 3])
    def test_same_rows_as_the_per_entry_derivative(self, monkeypatch, seed):
        # entry for entry and in row order, on the extraction's order and
        # on the shuffled orders of the report test above
        ds = extract_determining(opaque_vectorfield(), Generic())
        entries = list(zip(ds.keys, ds.ring_forms))
        if seed is not None:
            random.Random(seed).shuffle(entries)
        forms = [form for _, form in entries]
        rows = _close_forms(forms, PROLONG_ORDER, _partial_derivation(ds.ring))
        monkeypatch.setattr(detsys, "form_derivative", _per_entry_form_derivative)
        expected = _close_forms(forms, PROLONG_ORDER, _partial_derivation(ds.ring))
        assert len(rows) == 412
        assert [list(r.items()) for r in rows] == [list(r.items()) for r in expected]

    def test_pure_shift_keeps_the_coefficient_objects(self):
        ring = LaurentRing()
        form = {node: ring.intern(ring.poly(c)) for node, c in (
            (self.xi(), self.f), (self.xi(0, 1, 0, 0), mul(rat(2), fn("f", [U], (1,)))))}
        got = form_derivative(form, _partial_derivation(ring), X)
        assert list(got) == [self.xi(1, 0, 0, 0), self.xi(1, 1, 0, 0)]
        assert [id(p) for p in got.values()] == [id(p) for p in form.values()]

    def test_u_derivative_adds_the_coefficient_derivative(self):
        # d/du (f*xi + f'*xi_u): xi_u takes f from xi's shift and f'' from
        # its own coefficient, so the shifted f is copied, not changed
        ring = LaurentRing()
        f1, f2 = (fn("f", [U], (k,)) for k in (1, 2))
        form = self.in_ring(ring, {self.xi(): self.f, self.xi(0, 0, 0, 1): f1})
        before = {node: dict(p) for node, p in form.items()}
        derivation = _partial_derivation(ring)
        got = form_derivative(form, derivation, U)
        assert got == self.in_ring(ring, {
            self.xi(0, 0, 0, 1): add(self.f, f2), self.xi(): f1, self.xi(0, 0, 0, 2): f1})
        assert got == _per_entry_form_derivative(form, derivation, U)
        assert form == before

    def test_closure_rows_are_never_decomposed_again(self, monkeypatch):
        ds = extract_determining(opaque_vectorfield(), Generic())
        v, fam = opaque_vectorfield(), Generic()
        conds = reference.determining_conditions(
            v.xi, v.eta, v.tau, v.phi, fam.f_expr(), fam.fu_expr())
        decomposed = []
        decompose = detsys._linear_decomposition

        def counted_decompose(e, names):
            decomposed.append(e)
            return decompose(e, names)

        def no_eval(*args):
            raise AssertionError("the implication test evaluates nothing mod p")

        monkeypatch.setattr(detsys, "_linear_decomposition", counted_decompose)
        monkeypatch.setattr(LaurentRing, "eval_mod", no_eval)
        reference_implication_report(ds)
        # the extracted equations come with their forms: only the
        # reference conditions are decomposed
        assert decomposed == list(conds.values())


class TestAnsatzSolve:
    def test_generic_rejected(self):
        with pytest.raises(DetSysError):
            ansatz_solve(Generic())

    def test_fractional_power_of_a_parameter_refused(self):
        # K^(1/2) is not independent of K, so it may not enter elimination
        with pytest.raises(DetSysError) as err:
            ansatz_solve(ExponentialCase(K=pow_(param("K"), Fraction(1, 2))))
        assert str(err.value) == "entry outside the Laurent-polynomial ring: -K^(1/2)"

    def test_coordinate_in_a_coefficient_refused(self):
        # f = x + u: the extracted coefficients depend on x
        class XPlusU(detsys.FFamily):
            def f_expr(self):
                return add(X, U)

        with pytest.raises(DetSysError) as err:
            ansatz_solve(XPlusU())
        assert str(err.value) == "coefficient -x depends on x, y or t"

    def test_case_i_degree_2(self):
        space = ansatz_solve(ExponentialCase(), AnsatzSpec(2))
        assert space.dimension == 8
        assert space.certificate
        for rb in reference.case_i_basis(c):
            coeffs = decompose_field(space.basis, rb)
            assert coeffs is not None
            assert all(type(x).__name__ == "Rat" for x in coeffs)
        rot = reference.rotation_field()
        assert decompose_field(space.basis, rot) is not None

    def test_case_ii_degree_2(self):
        space = ansatz_solve(PowerCase(), AnsatzSpec(2))
        assert space.dimension == 6
        assert space.certificate
        for rb in reference.case_ii_basis(e1, e2):
            assert decompose_field(space.basis, rb) is not None

    def test_degree_0_translations_only(self):
        space = ansatz_solve(ExponentialCase(), AnsatzSpec(0))
        assert space.dimension == 3
        for b in space.basis:
            assert expand(b.phi) == RAT0

    def test_monotonic_in_degree(self):
        fam = ExponentialCase()
        spaces = {d: ansatz_solve(fam, AnsatzSpec(d)) for d in (0, 1, 2)}
        for d in (0, 1):
            for b in spaces[d].basis:
                assert decompose_field(spaces[d + 1].basis, b) is not None

    def test_conformal_dimension_series(self):
        # the exponential family carries the planar conformal algebra: the
        # degree-d solution space holds the holomorphic polynomial fields of
        # degree <= d (2(d+1) real dimensions for d >= 1) plus the two
        # t-generators, giving 3, 6, 8, ..., 20 for d = 0..8
        spaces = [ansatz_solve(ExponentialCase(), AnsatzSpec(d)) for d in range(9)]
        assert [s.dimension for s in spaces] == [3, 6, 8, 10, 12, 14, 16, 18, 20]
        assert all(s.certificate for s in spaces)
        assert [s.n_equations for s in spaces[2:6]] == [61, 152, 306, 544]

    def test_power_dimension_series(self):
        # the power family admits translations, rotation and two scalings
        # and nothing of higher degree
        spaces = [ansatz_solve(PowerCase(), AnsatzSpec(d)) for d in range(1, 9)]
        assert [s.dimension for s in spaces] == [6] * 8
        assert all(s.certificate for s in spaces)
        assert [s.n_equations for s in spaces[1:5]] == [65, 162, 326, 579]

    # str(b) of every degree-3 basis field, frozen so that a change of the
    # matrix build, the elimination or the printer shows up as a diff
    FROZEN_BASIS_3 = {
        "exponential": [
            "(-y)*d/dx + (x)*d/dy",
            "(2*x*y)*d/dx + (y^2 - x^2)*d/dy + (4*c*y)*d/du",
            "(x^2 - y^2)*d/dx + (2*x*y)*d/dy + (4*c*x)*d/du",
            "(-y^3 + 3*y*x^2)*d/dx + (-x^3 + 3*x*y^2)*d/dy + (12*c*x*y)*d/du",
            "(-x^3 + 3*x*y^2)*d/dx + (y^3 - 3*y*x^2)*d/dy + (-6*c*x^2 + 6*c*y^2)*d/du",
            "(x)*d/dx + (y)*d/dy + (2*c)*d/du",
            "(1)*d/dx",
            "(1)*d/dy",
            "(-t)*d/dt + (2*c)*d/du",
            "(1)*d/dt",
        ],
        "power": [
            "(-y)*d/dx + (x)*d/dy",
            "(x)*d/dx + (y)*d/dy + (2*e1*u + 2*e2)*d/du",
            "(1)*d/dx",
            "(1)*d/dy",
            "(-t)*d/dt + (2*e1*u + 2*e2)*d/du",
            "(1)*d/dt",
        ],
    }

    @pytest.mark.parametrize("name, fam", [("exponential", ExponentialCase()),
                                           ("power", PowerCase())])
    def test_degree_3_basis_text_frozen(self, name, fam):
        space = ansatz_solve(fam, AnsatzSpec(3))
        assert [str(b) for b in space.basis] == self.FROZEN_BASIS_3[name]

    def test_translation_floor_both_families(self):
        for fam in (ExponentialCase(), PowerCase()):
            space = ansatz_solve(fam, AnsatzSpec(1))
            for comp in range(3):
                parts = [RAT0] * 4
                parts[comp] = RAT1
                assert decompose_field(space.basis, VectorField(*parts)) is not None


class TestResidualCertificate:
    """ansatz_solve certifies each basis vector from the opaque affine
    generator's on-shell residual, a linear form in the component
    derivatives, summed in the elimination's ring (``_certify``) instead
    of prolonging the field again."""

    FAMILIES = {
        "exponential": ExponentialCase(),
        "power": PowerCase(),
        "c=3/2, K=-1": ExponentialCase(rat(-1), rat(3, 2)),
        **{f"e1={v}": PowerCase(e1=rat(v)) for v in (
            "2", "-2", "3", "-4/3", "-3/4", "1/4", "-1/4")},
        "e1=2, e2=1": PowerCase(e1=rat(2), e2=rat(1)),
        "e1=3/2, e2=1": PowerCase(e1=rat(3, 2), e2=rat(1)),
    }
    CASES = [(name, d) for name in FAMILIES for d in (2, 3)]
    # the symbolic families, then concrete exponents with a fractional power
    # of a sum in f and with the exceptional pivot 1 + 4*e1 = 0
    FAMS = [ExponentialCase(), PowerCase(), PowerCase(e1=rat(2), e2=rat(1)),
            PowerCase(e1=rat(-1, 4))]

    @classmethod
    def _system(cls, fam):
        return extract_determining(opaque_affine_vectorfield(), fam)

    @staticmethod
    def _vector(ring, v):
        """The field as {(component, (x, y, t) exponents): polynomial}."""
        alpha = expand(diff(v.phi, U))
        comps = {"xi": v.xi, "eta": v.eta, "tau": v.tau, "alpha": alpha,
                 "beta": expand(sub(v.phi, mul(alpha, U)))}
        return {(cname, tuple(dict(key).get(z, 0) for z in (X, Y, T))): ring.poly(coeff)
                for cname, e in comps.items()
                for key, coeff in collect_atoms(e, {X, Y, T}).items()}

    @classmethod
    def _certified(cls, fam, v):
        ds = cls._system(fam)
        return _certify(ds.residual, ds.ring, [cls._vector(ds.ring, v)])

    @pytest.mark.parametrize("name, degree", CASES, ids=[f"{n}-d{d}" for n, d in CASES])
    def test_equals_the_prolonged_residual(self, name, degree):
        # the same verdict as prolonging each field, on the basis and off
        # the solution space
        fam = self.FAMILIES[name]
        space = ansatz_solve(fam, AnsatzSpec(degree))
        verdicts = []
        for b in space.basis:
            verdict = vanishes(on_shell(invariance_residual(b, fam), fam))
            assert self._certified(fam, b) == verdict
            verdicts.append(verdict)
            wrong = VectorField(add(b.xi, X), b.eta, b.tau, b.phi)
            assert not vanishes(on_shell(invariance_residual(wrong, fam), fam))
            assert not self._certified(fam, wrong)
        assert space.certificate == all(verdicts)

    @pytest.mark.parametrize("fam", FAMS)
    @pytest.mark.parametrize("extra", [(X, RAT0, RAT0), (RAT0, U, RAT0),
                                       (RAT0, RAT0, pow_(T, 2))],
                             ids=["x*d/dx", "u*d/du", "t^2*d/dt"])
    def test_a_non_symmetry_fails(self, fam, extra):
        dx, du, dt = extra
        for b in ansatz_solve(fam, AnsatzSpec(2)).basis:
            assert self._certified(fam, b)
            wrong = VectorField(add(b.xi, dx), b.eta, add(b.tau, dt), add(b.phi, du))
            assert not self._certified(fam, wrong)

    @pytest.mark.parametrize("fam", FAMS)
    def test_rotation_passes(self, fam):
        assert self._certified(fam, reference.rotation_field())

    def test_vector_outside_the_kernel_fails_the_solve(self, monkeypatch):
        # column 0 is alpha's constant term: a u*d/du field joins the basis
        real = detsys._select_and_solve

        def with_u_du(ring, rows, ncols):
            vectors, selection = real(ring, rows, ncols)
            return vectors + [{0: {0: 1}}], selection

        monkeypatch.setattr(detsys, "_select_and_solve", with_u_du)
        space = ansatz_solve(ExponentialCase(), AnsatzSpec(2))
        assert str(space.basis[-1]) == "(u)*d/du"
        assert not space.certificate

    SOLVES = [("exponential", ExponentialCase(), d) for d in (0, 3, 5)] + [
        ("power", PowerCase(), d) for d in (1, 4)]

    @pytest.mark.parametrize("name, fam, degree", SOLVES,
                             ids=[f"{n}-d{d}" for n, _, d in SOLVES])
    def test_three_prolongations_per_solve(self, monkeypatch, name, fam, degree):
        # t,t and x,x and y,y of the opaque generator, whatever the dimension
        calls = []
        real = detsys.prolong_form

        def counted(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(detsys, "prolong_form", counted)
        space = ansatz_solve(fam, AnsatzSpec(degree))
        assert space.certificate and space.dimension >= 3
        assert sorted(calls) == [("t", "t"), ("x", "x"), ("y", "y")]


def _expr_prolong_second(v, d1, d2):
    """coeff_2 as it was built on one whole expression."""
    return expand(add(
        total_derivative(total_derivative(characteristic(v), d2), d1),
        *[mul(comp, jet(a + d1 + d2)) for comp, a in ((v.xi, "x"), (v.eta, "y"), (v.tau, "t"))]))


def _expr_on_shell(e, fam):
    """The on-shell rewrite of one whole expression, bindings built per pass."""
    rhs_tt = mul(fam.f_expr(), add(jet("xx"), jet("yy")))
    for _ in range(4):
        targets = [j for j in jets_of(e) if j.idx.count("t") >= 2]
        if not targets:
            return e
        binds = {}
        for j in targets:
            extra = list(j.idx)
            extra.remove("t")
            extra.remove("t")
            rep = rhs_tt
            for letter in extra:
                rep = total_derivative(rep, letter)
            binds[j] = rep
        e = substitute(e, binds)
    raise AssertionError("on-shell rewrite did not terminate")


def _expr_residual(v, fam):
    lap = add(jet("xx"), jet("yy"))
    return expand(add(
        _expr_prolong_second(v, "t", "t"),
        neg(mul(v.phi, fam.fu_expr(), lap)),
        neg(mul(fam.f_expr(), add(_expr_prolong_second(v, "x", "x"),
                                  _expr_prolong_second(v, "y", "y"))))))


def _expr_extract(v, fam):
    """The extraction as it was built on whole expressions: the expanded
    on-shell residual collected over the jets.  Returns (entries, residual)."""
    res = expand(_expr_on_shell(_expr_residual(v, fam), fam))
    table = collect_atoms(res, {j for j in jets_of(res) if j.order >= 1})
    entries = []
    for key in sorted(table, key=lambda k: (
            sum(p for _, p in k), tuple((j.sort_key(), p) for j, p in k))):
        mono = format_expr(mul(*[pow_(j, p) for j, p in key]))
        if isinstance(fam, Generic):
            entries.append((mono, expand(table[key])))
        else:
            pieces = split_u_dependence(table[key])
            entries.extend(((mono, tag), pieces[tag]) for tag in sorted(pieces))
    return entries, res


def _residual_expr(ds):
    """The extracted residual form with its ring coefficients as ``Expr``."""
    return {node: ds.ring.expr(p) for node, p in ds.residual.items()}


class TestFormExtraction:
    """extract_determining prolongs the generator on linear forms
    {component node: coefficient} and collects each node's on-shell
    coefficient over the jets.  The route through one whole expanded
    residual is kept here as the reference: the entries, their keys and
    order, and the residual form must be identical."""

    OPAQUE = ("xi", "eta", "tau", "phi")
    AFFINE = ("alpha", "beta", "tau", "eta", "xi")
    FAMILIES = {**TestResidualCertificate.FAMILIES, "e1=1/8": PowerCase(e1=rat(1, 8))}

    def test_generic_system_matches_the_expression_route(self):
        v = opaque_vectorfield()
        ds = extract_determining(v, Generic())
        entries, res = _expr_extract(v, Generic())
        assert [k for k, _ in ds.entries] == [k for k, _ in entries]
        assert ds.entries == entries
        assert _residual_expr(ds) == _linear_decomposition(res, self.OPAQUE)
        assert _forms_expr(ds) == [_linear_decomposition(e, self.OPAQUE) for _, e in entries]

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_affine_system_matches_the_expression_route(self, name):
        fam, v = self.FAMILIES[name], opaque_affine_vectorfield()
        ds = extract_determining(v, fam)
        entries, res = _expr_extract(v, fam)
        assert [k for k, _ in ds.entries] == [k for k, _ in entries]
        assert ds.entries == entries
        assert _residual_expr(ds) == _linear_decomposition(res, self.AFFINE)
        assert _forms_expr(ds) == [_linear_decomposition(e, self.AFFINE) for _, e in entries]

    @pytest.mark.parametrize("fam", [Generic(), ExponentialCase(), PowerCase(),
                                     PowerCase(e1=rat(2), e2=rat(1))])
    def test_concrete_and_mixed_fields_match_the_expression_route(self, fam):
        # concrete fields take the key-1 part of the form; a field may mix
        # opaque nodes, products of nodes and a node of a non-atom argument
        g, h = fn("g", [X]), fn("h", [Y, U])
        fields = reference.case_i_basis(c) + reference.case_ii_basis(e1, e2) + [
            reference.rotation_field(),
            VectorField(mul(g, h), fn("g", [mul(X, Y)]), add(fn("tau", [T]), X),
                        add(mul(U, h), pow_(U, 2))),
        ]
        for v in fields:
            assert invariance_residual(v, fam) == _expr_residual(v, fam)
            assert extract_determining(v, fam).entries == _expr_extract(v, fam)[0]

    @pytest.mark.parametrize("v", [opaque_affine_vectorfield(),
                                   VectorField(fn("xi", [X, Y, T]), RAT0, RAT0, RAT0)],
                             ids=["five nodes", "one node"])
    def test_f_built_and_expanded_a_bounded_number_of_times(self, monkeypatch, v):
        # f = L*(e2 + u/12)^12: expanding the 12th power once per node's
        # coefficient made classify at degree 0 five times slower
        built, powers = [], []
        build, real_expand = PowerCase.f_expr, expr.expand

        def counted_build(fam):
            built.append(fam)
            return build(fam)

        def counted_expand(e):
            if type(e) is Pow and type(e.expbase) is Sum and e.exp > 1:
                powers.append(e)
            return real_expand(e)

        monkeypatch.setattr(PowerCase, "f_expr", counted_build)
        for module in (expr, detsys, jet_module):
            monkeypatch.setattr(module, "expand", counted_expand)
        ds = extract_determining(v, PowerCase(e1=rat(1, 12)))
        assert len(ds) > 0
        # f, and f' = d/du f
        assert len(built) == 2
        assert [p.exp for p in powers] == [12, 11]


def _expr_total_derivative_form(form, name):
    """D_name of a linear form with ``Expr`` coefficients: a node's index
    rises in each slot whose argument has a nonzero total derivative, times
    it, and each coefficient adds its own expanded total derivative."""
    out = {}
    for node, c in form.items():
        if type(node) is Fn:
            for i, arg in enumerate(node.args):
                da = expand(total_derivative(arg, name))
                if da != RAT0:
                    didx = list(node.didx)
                    didx[i] += 1
                    key = Fn(node.name, node.args, tuple(didx))
                    out[key] = expand(add(out.get(key, RAT0), mul(da, c)))
        out[node] = expand(add(out.get(node, RAT0), total_derivative(c, name)))
    return {node: c for node, c in out.items() if c != RAT0}


def _expr_prolong_form(forms, *dirs):
    """coeff_2 of a generator given as linear forms with ``Expr``
    coefficients: node indices shifted, coefficients differentiated with
    ``total_derivative`` and expanded."""
    q, xi, eta, tau, _ = forms
    out = q
    for name in reversed(dirs):
        out = _expr_total_derivative_form(out, name)
    out = dict(out)
    for comp, letter in ((xi, "x"), (eta, "y"), (tau, "t")):
        for node, c in comp.items():
            out[node] = expand(add(out.get(node, RAT0), mul(jet((letter, *dirs)), c)))
    return {node: c for node, c in out.items() if c != RAT0}


def _expr_form_extract(v, fam):
    """The extraction on linear forms with ``Expr`` coefficients: f and f'
    multiplied into each node's coefficient, u_tt rewritten there, each
    coefficient collected over the jets, and a monomial's entry, summed
    over its nodes, split over u.  Returns (entries, residual form)."""
    lap = add(jet("xx"), jet("yy"))
    f, fu_lap = expand(fam.f_expr()), expand(mul(fam.fu_expr(), lap))
    forms = tuple(map(linear_form, (characteristic(v), v.xi, v.eta, v.tau, v.phi)))
    phi = forms[-1]
    tt, xx, yy = (_expr_prolong_form(forms, d, d) for d in "txy")
    res = {}
    for node in dict.fromkeys([*tt, *phi, *xx, *yy]):
        c = expand(add(expand(on_shell(tt.get(node, RAT0), fam)),
                       neg(mul(phi.get(node, RAT0), fu_lap)),
                       neg(mul(f, add(xx.get(node, RAT0), yy.get(node, RAT0))))))
        if c != RAT0:
            res[node] = c
    tables = {node: collect_atoms(c, {j for j in jets_of(c) if j.order >= 1})
              for node, c in res.items()}
    entries = []
    for key in sorted({key for table in tables.values() for key in table}, key=lambda k: (
            sum(p for _, p in k), tuple((j.sort_key(), p) for j, p in k))):
        mono = format_expr(mul(*[pow_(j, p) for j, p in key]))
        e = form_expr({node: table[key] for node, table in tables.items() if key in table})
        if isinstance(fam, Generic):
            entries.append((mono, e))
        else:
            pieces = split_u_dependence(e)
            entries.extend(((mono, tag), pieces[tag]) for tag in sorted(pieces))
    return entries, res


class TestRingExtraction:
    """The extraction runs in one ``LaurentRing``: D_x, D_y, D_t are one
    ring derivation, the u_tt rewrite substitutes a variable, and the jets
    and u-tags are read off exponents after the sum denominators are
    cleared.  The route on linear forms with ``Expr`` coefficients is kept
    here as the reference: keys, u-tag text, expressions and the residual
    form must be equal."""

    FAMILIES = {
        "exponential": ExponentialCase(),
        "power": PowerCase(),
        "c=3/2, K=-1": ExponentialCase(rat(-1), rat(3, 2)),
        "e1=2, e2=1": PowerCase(e1=rat(2), e2=rat(1)),
        **{f"e1={v}": PowerCase(e1=rat(v)) for v in ("-1/4", "1/3", "1/12")},
        "generic": Generic(),
    }

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_same_system_as_the_expression_forms(self, name):
        fam = self.FAMILIES[name]
        v = opaque_vectorfield() if isinstance(fam, Generic) else opaque_affine_vectorfield()
        ds = extract_determining(v, fam)
        entries, res = _expr_form_extract(v, fam)
        assert [k for k, _ in ds.entries] == [k for k, _ in entries]
        assert [str(k[1]) for k, _ in ds.entries if isinstance(k, tuple)] == [
            str(k[1]) for k, _ in entries if isinstance(k, tuple)]
        assert ds.entries == entries
        assert _residual_expr(ds) == res


class TestRowSelection:
    """ansatz_solve eliminates only the rows independent mod p at a seeded
    point, and proves the choice by checking every dropped row on the
    basis exactly."""

    K, L = param("K"), param("L")
    CONCRETE = {
        "e1=2, e2=0": PowerCase(L, rat(2), rat(0)),
        "e1=2, e2=1": PowerCase(L, rat(2), rat(1)),
        "e1=1/2": PowerCase(L, rat(1, 2), e2),
        "e1=-1/4": PowerCase(L, rat(-1, 4), e2),
        "e1=3": PowerCase(L, rat(3), e2),
        "e1=-4/3": PowerCase(L, rat(-4, 3), e2),
        "c=3/2, K=-1": ExponentialCase(rat(-1), rat(3, 2)),
        "K=2": ExponentialCase(rat(2), c),
    }
    CASES = (
        [(name, fam, d) for name, fam in (("exponential", ExponentialCase()),
                                         ("power", PowerCase())) for d in range(6)]
        + [(name, fam, d) for name, fam in CONCRETE.items() for d in (2, 3)]
    )

    @pytest.mark.parametrize("name, fam, degree", CASES,
                             ids=[f"{n}-d{d}" for n, _, d in CASES])
    def test_kept_rows_are_the_rank(self, name, fam, degree):
        space = ansatz_solve(fam, AnsatzSpec(degree))
        sel = space.selection
        assert (sel.prime, sel.seed, sel.rows) == (PRIME, SELECTION_SEED, space.n_equations)
        assert not sel.fallback
        assert sel.rows_kept == space.n_unknowns - space.dimension

    @pytest.mark.parametrize("degree", [2, 3])
    def test_bad_point_falls_back_to_all_rows(self, monkeypatch, degree):
        # at e1 = -1/4 mod p the pivot 1 + 4*e1 vanishes: an independent row
        # looks dependent there, the kept rows have a larger kernel, and the
        # exact check of the dropped rows must notice
        want = ansatz_solve(PowerCase(), AnsatzSpec(degree))
        real = LaurentRing.eval_mod

        def at_bad_point(ring, poly, point, p):
            return real(ring, poly, {**point, e1: -pow(4, -1, p) % p}, p)

        monkeypatch.setattr(LaurentRing, "eval_mod", at_bad_point)
        got = ansatz_solve(PowerCase(), AnsatzSpec(degree))
        assert got.selection.fallback
        assert got.selection.rows_kept == want.selection.rows_kept - 1
        assert [str(b) for b in got.basis] == [str(b) for b in want.basis]
        if degree == 3:
            assert [str(b) for b in got.basis] == TestAnsatzSolve.FROZEN_BASIS_3["power"]

    def test_point_dropping_every_row_falls_back(self, monkeypatch):
        monkeypatch.setattr(LaurentRing, "eval_mod", lambda ring, poly, point, p: 0)
        got = ansatz_solve(ExponentialCase(), AnsatzSpec(3))
        assert got.selection.rows_kept == 0 and got.selection.fallback
        assert [str(b) for b in got.basis] == TestAnsatzSolve.FROZEN_BASIS_3["exponential"]

    @pytest.mark.parametrize("fam, dimension", [
        (ExponentialCase(rat(1, PRIME), c), 8), (ExponentialCase(K, rat(PRIME)), 8),
        (PowerCase(rat(1, PRIME), e1, e2), 6), (PowerCase(L, e1, rat(1, PRIME)), 6),
    ], ids=["K=1/p", "c=p", "L=1/p", "e2=1/p"])
    def test_entry_without_a_residue_falls_back(self, fam, dimension):
        # a coefficient with the denominator PRIME has no value mod PRIME:
        # no row is kept and every row is eliminated
        got = ansatz_solve(fam, AnsatzSpec(2))
        assert got.selection.rows_kept == 0 and got.selection.fallback
        assert got.certificate and got.dimension == dimension


def test_power_family_dimension_at_concrete_exponent():
    # t*d/dt - 2*(e1*u + e2)*d/du is a symmetry for every e1 != 0
    space = ansatz_solve(PowerCase(param("L"), rat(2), rat(0)), AnsatzSpec(2))
    assert space.dimension == 6


class TestConcreteExponents:
    """A concrete e1 whose reciprocal is not an integer leaves a fractional
    power of e1*u + e2 in f; its derivatives must be split over u as the
    symbolic family is, with no spurious equation."""

    EXPONENTS = [(rat(2), RAT0), (rat(-2), RAT0), (rat(3), RAT0), (rat(-4, 3), RAT0),
                 (rat(-3, 4), RAT0), (rat(2), RAT1)]
    CASES = [(e1_, e2_, d) for e1_, e2_ in EXPONENTS for d in (2, 3)]

    @pytest.mark.parametrize("e1_, e2_, degree", CASES,
                             ids=[f"e1={a}, e2={b}-d{d}" for a, b, d in CASES])
    def test_dimension_six_with_the_t_scaling(self, e1_, e2_, degree):
        space = ansatz_solve(PowerCase(param("L"), e1_, e2_), AnsatzSpec(degree))
        assert space.dimension == 6 and space.certificate
        t_scaling = VectorField(RAT0, RAT0, T, mul(-2, add(mul(e1_, U), e2_)))
        assert decompose_fields(space.basis, [t_scaling])[0] is not None

    @pytest.mark.parametrize("e2_", [RAT0, RAT1])
    def test_opaque_extraction_has_the_symbolic_count(self, e2_):
        ds = extract_determining(opaque_affine_vectorfield(),
                                 PowerCase(param("L"), rat(2), e2_))
        assert len(ds) == 19


class ParsedFamily(FFamily):
    """f(u) as the parser reads it."""

    __slots__ = ("f",)

    def __init__(self, text):
        super().__init__(parse(text))

    def f_expr(self):
        return self.f


class TestBareFractionalPowers:
    """f = u^(p/q) gives the ring u and u^(1/q) as two variables, which it
    takes to be independent, so the residual certificate of a correct
    basis reads false; a power of u + 1 is one variable and certifies."""

    EXPONENTS = ("1/2", "-3/2", "2/3", "-1/3", "3/5", "-7/5")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: u and u^(1/q) are "
                                           "independent variables of the ring")
    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_bare_power_certifies(self, exponent):
        space = ansatz_solve(ParsedFamily(f"u^({exponent})"))
        assert (space.dimension, space.certificate) == (6, True)

    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_shifted_power_certifies(self, exponent):
        space = ansatz_solve(ParsedFamily(f"(u + 1)^({exponent})"))
        assert (space.dimension, space.certificate) == (6, True)
