"""Similarity reductions, separation identities, and the explicit solution."""

from fractions import Fraction

import pytest

from wavesym.detsys import ExponentialCase, PowerCase
from wavesym.expr import (
    RAT0, RAT1, T, U, X, Y, add, base, div, exp_, expand, fn, format_expr, jet,
    ln_, mul, neg, param, pow_, rat, sub, substitute, vanishes,
)
from fields import plus, scaled
from wavesym.liealg import VectorField
from wavesym.reduction import (
    GENERATORS, ReductionError, ReductionNames, ReductionSpec, TrivialInvariants,
    _strip, builtin_reduction,
    explicit_solution, explicit_solution_residual, invariance_check,
    proportional_mod_heads, reduce, scaling_reduction, separation_check,
)
from wavesym import reference

c = param("c")
m, p, q = param("m"), param("p"), param("q")

# symbolic families and the concrete ones the golden reports pin
FAMILIES = {
    "i": ("i", ExponentialCase()),
    "i_c3o2_Km1": ("i", ExponentialCase(rat(-1), rat(3, 2))),
    "ii": ("ii", PowerCase()),
    "ii_e1_2": ("ii", PowerCase(e1=rat(2))),
    "ii_e1_2_e2_1": ("ii", PowerCase(e1=rat(2), e2=rat(1))),
    "ii_e1_m1o4_e2_1": ("ii", PowerCase(e1=rat(-1, 4), e2=rat(1))),
}


def _basis(case_id, fam):
    if case_id == "i":
        return reference.case_i_basis(fam.c)
    return reference.case_ii_basis(fam.e1, fam.e2)


class TestBuiltinSpecs:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_spec_passes_invariance(self, family):
        case_id, fam = FAMILIES[family]
        for gen in ("v1", "v4"):
            spec = builtin_reduction(case_id, gen, fam)
            assert spec.family == fam
            assert all(invariance_check(spec).values()), gen

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("k", [1, 2, Fraction(1, 2)])
    def test_combined_scaling_reduces(self, family, k):
        # v1 + k*v4 scales x, y by 1 and t by k: self-similar in y/x and t/x^k;
        # at k = 1 the u-parts cancel, otherwise u scales too
        case_id, fam = FAMILIES[family]
        v1, v4 = _basis(case_id, fam)[0], _basis(case_id, fam)[3]
        spec = scaling_reduction(case_id, "v1+k*v4", plus(v1, scaled(v4, k)), fam,
                                 ReductionNames(("r", "s"), "w"))
        assert spec.invariant_coords == (("r", div(Y, X)), ("s", mul(T, pow_(X, -k))))
        assert all(invariance_check(spec).values())
        assert reduce(spec).elimination_verified

    def test_not_a_scaling(self):
        v1, v2 = reference.case_i_basis(c)[:2]
        with pytest.raises(ReductionError):
            scaling_reduction("i", "v1+v2", plus(v1, v2), ExponentialCase(),
                              ReductionNames(("r", "s"), "w"))

    def test_rotation_is_not_a_scaling(self):
        # a coupled field: affine_parts refuses it, scaling_reduction reports
        # that as a reduction error
        rot = VectorField(neg(Y), X, RAT0, RAT0)
        with pytest.raises(ReductionError, match="not a scaling generator"):
            scaling_reduction("i", "rot", rot, ExponentialCase(), None)

    def test_generator_names_are_shared(self):
        from wavesym import cli, reduction

        assert cli.GENERATORS is reduction.GENERATORS
        for gen, field_ in zip(GENERATORS, reference.case_i_basis(c), strict=True):
            out = builtin_reduction("i", gen)
            if isinstance(out, ReductionSpec):
                assert out.field_ == field_
        with pytest.raises(ReductionError):
            builtin_reduction("i", "v6")

    def test_case_i_v1_invariants(self):
        spec = builtin_reduction("i", "v1")
        assert spec.invariant_coords[0][1] == div(Y, X)
        assert spec.invariant_coords[1][1] == T
        assert spec.dependent_invariant == sub(U, mul(2, c, ln_(X)))
        assert all(invariance_check(spec).values())

    def test_case_i_v4_invariants(self):
        spec = builtin_reduction("i", "v4")
        assert [name for name, _ in spec.invariant_coords] == ["x", "y"]
        assert all(invariance_check(spec).values())

    def test_case_ii_specs_pass_invariance(self):
        for gen in ("v1", "v4"):
            spec = builtin_reduction("ii", gen)
            assert all(invariance_check(spec).values())

    def test_case_ii_v1_shift_sign_is_minus(self):
        # the invariant (u + e2/e1)*x^(-2*e1) forces u = theta*x^(2*e1) - e2/e1
        spec = builtin_reduction("ii", "v1")
        e1, e2 = param("e1"), param("e2")
        grow = exp_(mul(2, e1, ln_(X)))
        th = fn("theta", [div(Y, X), T])
        assert expand(sub(spec.ansatz, sub(mul(th, grow), div(e2, e1)))) == RAT0
        # the printed plus-shift version fails the invariance check
        plus = spec._replace(dependent_invariant=mul(
            sub(U, div(e2, e1)), exp_(neg(mul(2, e1, ln_(X))))))
        assert not all(invariance_check(plus).values())

    def test_trivial_generators(self):
        for case_id in ("i", "ii"):
            for gen, coords in (("v2", ("y", "t", "u")),
                                ("v3", ("x", "t", "u")),
                                ("v5", ("x", "y", "u"))):
                out = builtin_reduction(case_id, gen)
                assert isinstance(out, TrivialInvariants)
                assert out.coordinates == coords

    def test_unknown_pair(self):
        with pytest.raises(ReductionError):
            builtin_reduction("iii", "v1")


class TestReduce:
    def test_case_i_v1_matches_reference(self):
        eq = reduce(builtin_reduction("i", "v1"))
        assert eq.elimination_verified
        assert eq.reference_verdict is True
        # structural comparison against the reference form as well
        ref = reference.reduced_form_case_i_v1(param("K"), c)
        assert expand(sub(eq.expr, expand(ref))) == RAT0
        assert vanishes(sub(eq.expr, ref))

    def test_case_i_v4_matches_reference_up_to_K(self):
        eq = reduce(builtin_reduction("i", "v4"))
        assert eq.reference_verdict is True
        # engine form = K * reference form exactly
        ref = reference.reduced_form_case_i_v4(param("K"))
        assert vanishes(sub(eq.expr, expand(mul(param("K"), ref))))

    def test_case_ii_v1_reference_at_e1_1(self):
        eq = reduce(builtin_reduction("ii", "v1"))
        assert eq.elimination_verified
        assert eq.reference_verdict is False       # e1^(1/e1) factor, flagged
        assert eq.reference_verdict_e1_1 is True
        assert "power_case_reduced_factor" in eq.flags
        assert "power_case_slot_swap" in eq.flags

    def test_case_ii_v4_reference_at_e1_1(self):
        eq = reduce(builtin_reduction("ii", "v4"))
        assert eq.elimination_verified
        assert eq.reference_verdict_e1_1 is True

    def test_reduced_equations_free_of_original_coordinates(self):
        for case_id, gen, keep in (
            ("i", "v1", set()), ("ii", "v1", set()),
            ("i", "v4", {X, Y}), ("ii", "v4", {X, Y}),
        ):
            eq = reduce(builtin_reduction(case_id, gen))
            from wavesym.expr import atoms_of, Base
            bases = {a for a in atoms_of(eq.expr) if type(a) is Base}
            assert bases & {X, Y, T} <= keep
            assert T not in bases

    def test_perturbed_ansatz_rejected(self):
        spec = builtin_reduction("ii", "v1")
        e1, e2 = param("e1"), param("e2")
        bad_growth = exp_(add(mul(2, e1, ln_(X)), ln_(X)))  # x^(2*e1+1)
        bad = spec._replace(
            ansatz=sub(mul(fn("theta", [div(Y, X), T]), bad_growth), div(e2, e1)),
        )
        with pytest.raises(ReductionError):
            reduce(bad)

    def test_proportionality_sampler_detects_mismatch(self):
        w0 = fn("w", [X])
        assert proportional_mod_heads(mul(2, w0), w0, {"w"})
        assert not proportional_mod_heads(add(w0, X), w0, {"w"})

    def test_proportionality_renames_derivatives_and_compound_arguments(self):
        # the ratio may depend on the coordinates, never on the heads
        w = fn("w", [div(Y, X), T])
        b = add(w, fn("w", [div(Y, X), T], (1, 0)), mul(T, fn("w", [div(Y, X), T], (0, 2))))
        assert proportional_mod_heads(mul(X, ln_(T), b), b, {"w"})
        assert not proportional_mod_heads(mul(w, b), b, {"w"})
        swapped = add(w, fn("w", [div(Y, X), T], (0, 1)), mul(T, fn("w", [div(Y, X), T], (0, 2))))
        assert not proportional_mod_heads(swapped, b, {"w"})

    def test_proportionality_to_zero_refused(self):
        w0 = fn("w", [X])
        with pytest.raises(ReductionError):
            proportional_mod_heads(w0, RAT0, {"w"})
        with pytest.raises(ReductionError):
            # x/(x + 1) - 1 + 1/(x + 1), zero only once the denominators are cleared
            g = pow_(add(X, RAT1), -1)
            proportional_mod_heads(w0, add(mul(X, g), rat(-1), g), {"w"})

    @pytest.mark.parametrize("gen", ["v1", "v4"])
    @pytest.mark.parametrize("e1_, e2_", [
        (rat(2), param("e2")), (rat(3), param("e2")), (rat(2), RAT1),
        (rat(3, 4), param("e2")), (rat(-4, 3), RAT0),
    ], ids=["e1=2", "e1=3", "e1=2, e2=1", "e1=3/4", "e1=-4/3, e2=0"])
    def test_elimination_exact_at_concrete_exponents(self, gen, e1_, e2_):
        # fractional powers of e1*u + e2: the exact check needs their
        # canonical form to see the full residual as a multiple of the
        # sectioned equation
        fam = PowerCase(param("L"), e1_, e2_)
        assert reduce(builtin_reduction("ii", gen, fam)).elimination_verified


class TestSeparation:
    def test_case_i_identity(self):
        rep = separation_check("i")
        assert rep["identity"] and rep["mode"] == "additive"

    def test_case_ii_identity(self):
        rep = separation_check("ii")
        assert rep["identity"] and rep["mode"] == "multiplicative"

    def test_negative_controls(self):
        assert not separation_check("i")["flipped_identity"]
        assert not separation_check("ii")["flipped_identity"]


class TestContent:
    def test_strip_divides_out_parameters_only(self):
        # every term shares the coordinate r, the function node omega, an
        # exp factor and the parameter monomial c*K, with rational content
        # -2: the content, the sign and c*K come out, r, omega and exp stay
        K, r, s = param("K"), base("r"), base("s")
        kept = mul(r, fn("omega", [r, s]), exp_(s))
        core = add(mul(3, r), mul(5, K, pow_(c, 2), s), RAT1)
        assert _strip(expand(mul(rat(-2), c, K, kept, core))) == expand(mul(kept, core))

    def test_strip_of_zero(self):
        assert _strip(RAT0) == RAT0


class TestWorkDoneOnce:
    @pytest.mark.parametrize("case, gen, expect", [
        ("i", "v1", 2), ("i", "v4", 2), ("ii", "v1", 3), ("ii", "v4", 3),
    ])
    def test_proportionality_checks_per_reduce_stage(self, monkeypatch, case, gen, expect):
        # one elimination check for the stage's derivation, which the
        # separation check and the explicit constraint reuse, plus one per
        # reference comparison
        from wavesym import reduction
        from wavesym.cli import RunConfig, stage_reduce

        calls = []
        original = reduction.proportional_mod_heads

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(reduction, "proportional_mod_heads", counted)
        assert stage_reduce(RunConfig("reduce", case=case, generator=gen))["passed"]
        assert len(calls) == expect

    @pytest.mark.parametrize("case, fam, other", [
        ("i", ExponentialCase(), ExponentialCase(rat(-1), rat(3, 2))),
        ("ii", PowerCase(), PowerCase(e1=rat(2))),
    ], ids=["i", "ii"])
    def test_separation_reuses_only_its_own_family(self, monkeypatch, case, fam, other):
        # the symbolic family's v1 reduction is taken as it is; a concrete
        # family's is not the one the separation needs, so it derives its own
        from wavesym import reduction

        own = reduce(builtin_reduction(case, "v1", fam))
        foreign = reduce(builtin_reduction(case, "v1", other))
        calls = []
        original = reduction.proportional_mod_heads
        monkeypatch.setattr(reduction, "proportional_mod_heads",
                            lambda *args: calls.append(args) or original(*args))
        reused = separation_check(case, own)
        assert calls == []
        assert reused == separation_check(case, foreign) == separation_check(case)
        assert len(calls) == 2
        assert reused["identity"] and not reused["flipped_identity"]

    def test_explicit_constraint_reuses_only_its_own_family(self, monkeypatch):
        from wavesym import reduction

        fam = ExponentialCase(rat(-1), rat(3, 2))
        own = reduce(builtin_reduction("i", "v4", fam))
        calls = []
        original = reduction.proportional_mod_heads
        monkeypatch.setattr(reduction, "proportional_mod_heads",
                            lambda *args: calls.append(args) or original(*args))
        reused = explicit_solution_residual(m, p, q, fam, own)
        assert calls == []
        assert reused == explicit_solution_residual(m, p, q, fam)
        assert reused != explicit_solution_residual(m, p, q, ExponentialCase(), own)
        assert len(calls) == 2


class TestExplicitSolution:
    def test_derived_constraint(self):
        out = explicit_solution_residual(m, p, q)
        # 1 + K*(m^2 + p^2) = 0, i.e. m^2 + p^2 = -1/K
        expect = add(RAT1, mul(param("K"), pow_(m, 2)), mul(param("K"), pow_(p, 2)))
        assert expand(sub(out["constraint"], expect)) == RAT0
        assert out["matches_reference"] is False
        assert out["flag"] == "explicit_constraint_sign"

    def test_constant_profile_is_not_a_solution(self):
        out = explicit_solution_residual(rat(0), rat(0), q)
        assert expand(out["constraint"]) == RAT1  # 1 = 0 is impossible

    def test_full_model_residual_vanishes_under_constraint(self):
        sol = explicit_solution(m, p, q)
        assert sol["residual_zero"]

    def test_concrete_instance(self):
        sol = explicit_solution(rat(1), rat(0), rat(0))
        assert sol["residual_zero"]
        assert format_expr(sol["k_constraint"]) == "-1"
