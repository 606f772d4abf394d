"""Similarity reductions along the classified generators.

For the scaling generator v1 and the t-scaling generator v4 of either
family the module carries the invariants, the similarity ansatz, a
symbolic re-derivation of the reduced equation, verification of the
additive/multiplicative separations, and the explicit planar solution of
the exponential case.  The reduced equation is always re-derived from
scratch by substituting the ansatz into the model; the bundled reference
forms are comparison targets only, and disagreements are reported, never
silently adopted (the engine's derivation is authoritative once the
internal consistency checks pass).

Derivation route: the model residual's jets are replaced by derivatives of
the ansatz, the family is substituted for f, and the result is restricted
to the section x = 1 (or t = 1), where the scaling factors collapse to 1
and the invariant coordinates appear in the clear.  A sampling check then
confirms the full residual is the sectioned equation times a factor that
does not involve the reduced unknown's jets, i.e. nothing was lost."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .expr import (
    Expr, RAT0, RAT1, add, atoms_of, base, default_fn_sampler, diff, div,
    eval_numeric, exp_, expand, fn, jet, ln_, mul,
    neg, param, pow_, random_point, sub, substitute, vanishes,
    EvalDomainError, Param,
)
from .detsys import ExponentialCase, FFamily, PowerCase, model_residual
from .liealg import VectorField
from .linalg import strip_row_content
from . import reference

__all__ = [
    "ReductionError", "ReductionSpec", "TrivialInvariants", "ReducedEquation",
    "builtin_reduction", "invariance_check", "reduce", "separation_check",
    "explicit_solution_residual", "explicit_solution", "proportional_mod_heads",
]

X, Y, T, U = base("x"), base("y"), base("t"), jet("")
R, S, P, Q = base("r"), base("s"), base("p"), base("q")


class ReductionError(Exception):
    pass


@dataclass(frozen=True)
class TrivialInvariants:
    """Translation generators leave an arbitrary function of the remaining
    coordinates invariant; there is nothing to reduce."""

    case_id: str
    generator: str
    coordinates: tuple


@dataclass(frozen=True)
class ReductionSpec:
    case_id: str
    generator: str
    invariant_coords: tuple           # ((name, expression in x,y,t), ...)
    dependent_name: str
    dependent_invariant: Expr         # expression in (x,y,t,u) the generator kills
    ansatz: Expr                      # u in terms of the invariant function
    section: dict                     # substitution onto the section
    field_: VectorField
    family: FFamily


@dataclass
class ReducedEquation:
    case_id: str
    generator: str
    expr: Expr                        # required to vanish, in invariant coordinates
    elimination_verified: bool
    reference_verdict: bool | None = None
    reference_verdict_e1_1: bool | None = None
    flags: tuple = ()


def _two(e):
    return mul(2, e)


def builtin_reduction(case_id: str, generator: str, fam: FFamily | None = None):
    """The reference reductions: (case, v1) and (case, v4) give genuine
    similarity ansaetze; v2, v3, v5 give trivial translation invariants."""
    if generator in ("v2", "v3", "v5"):
        coords = {"v2": ("y", "t", "u"), "v3": ("x", "t", "u"), "v5": ("x", "y", "u")}
        return TrivialInvariants(case_id, generator, coords[generator])

    if case_id == "i":
        fam = fam if isinstance(fam, ExponentialCase) else ExponentialCase()
        c = fam.c
        if generator == "v1":
            w = fn("omega", [div(Y, X), T])
            return ReductionSpec(
                "i", "v1",
                (("r", div(Y, X)), ("s", T)),
                "omega",
                sub(U, mul(_two(c), ln_(X))),
                add(w, mul(_two(c), ln_(X))),
                {X: RAT1, Y: R, T: S},
                VectorField(X, Y, RAT0, _two(c)),
                fam,
            )
        if generator == "v4":
            h = fn("h", [X, Y])
            return ReductionSpec(
                "i", "v4",
                (("x", X), ("y", Y)),
                "h",
                mul(T, exp_(div(U, _two(c)))),
                mul(_two(c), ln_(mul(h, pow_(T, -1)))),
                {T: RAT1},
                VectorField(RAT0, RAT0, T, neg(_two(c))),
                fam,
            )
    if case_id == "ii":
        fam = fam if isinstance(fam, PowerCase) else PowerCase()
        e1, e2 = fam.e1, fam.e2
        shift = div(e2, e1)
        if generator == "v1":
            th = fn("theta", [div(Y, X), T])
            grow = exp_(mul(_two(e1), ln_(X)))
            return ReductionSpec(
                "ii", "v1",
                (("p", div(Y, X)), ("q", T)),
                "theta",
                mul(add(U, shift), exp_(neg(mul(_two(e1), ln_(X))))),
                sub(mul(th, grow), shift),
                {X: RAT1, Y: P, T: Q},
                VectorField(X, Y, RAT0, add(mul(_two(e1), U), mul(2, e2))),
                fam,
            )
        if generator == "v4":
            ell = fn("ell", [X, Y])
            decay = exp_(neg(mul(_two(e1), ln_(T))))
            return ReductionSpec(
                "ii", "v4",
                (("x", X), ("y", Y)),
                "ell",
                mul(add(U, shift), exp_(mul(_two(e1), ln_(T)))),
                sub(mul(ell, decay), shift),
                {T: RAT1},
                VectorField(RAT0, RAT0, T, neg(add(mul(_two(e1), U), mul(2, e2)))),
                fam,
            )
    raise ReductionError(f"no built-in reduction for ({case_id}, {generator})")


def invariance_check(spec: ReductionSpec) -> dict:
    """Generator action on every invariant must normalize to zero."""
    out = {}
    for name, coord in spec.invariant_coords:
        out[f"coordinate {name}"] = vanishes(spec.field_.apply(coord))
    out["dependent invariant"] = vanishes(spec.field_.apply(spec.dependent_invariant))
    return out


# proportional_mod_heads: sampled base points, head re-randomizations per
# point, relative tolerance on the ratio, seed, and the sampling box
N_BASE, N_JET, RATIO_TOL, SEED, BOX = 30, 4, 1e-9, 11, (0.6, 1.9)


def proportional_mod_heads(a: Expr, b: Expr, heads) -> bool:
    """Are a and b proportional as equations in the opaque heads?

    At each of N_BASE sampled base points the values of every head-derivative
    node are re-randomized N_JET times; the ratio a/b must stay constant
    across the jet samples (it may vary from base point to base point: that
    is the cleared overall factor)."""
    rng = random.Random(SEED)
    heads = set(heads)
    atoms = sorted(atoms_of(a) | atoms_of(b), key=Expr.sort_key)
    other = default_fn_sampler(SEED)
    done = 0
    attempts = 0
    while done < N_BASE:
        attempts += 1
        if attempts > 40 * N_BASE:
            raise ReductionError("sampling could not find enough usable points")
        pt = random_point(atoms, rng, BOX)
        ratios = []
        try:
            for _ in range(N_JET):
                table = {}

                def fns(name, didx, args, _table=table):
                    if name in heads:
                        key = (name, didx)
                        if key not in _table:
                            _table[key] = rng.uniform(0.4, 1.6) * rng.choice((-1, 1))
                        return _table[key]
                    return other(name, didx, args)

                va = eval_numeric(a, pt, fns)
                vb = eval_numeric(b, pt, fns)
                if abs(vb) < 1e-12:
                    raise EvalDomainError("degenerate sample")
                ratios.append(va / vb)
        except EvalDomainError:
            continue
        r0 = ratios[0]
        if any(abs(r - r0) > RATIO_TOL * (1.0 + abs(r0)) for r in ratios[1:]):
            return False
        done += 1
    return True


def _strip(e: Expr) -> Expr:
    return strip_row_content({0: expand(e)})[0]


def _jet_bindings(u_expr: Expr) -> dict:
    """u and the second derivatives the model uses, for u = u_expr."""
    return {
        U: u_expr,
        jet("tt"): diff(diff(u_expr, T), T),
        jet("xx"): diff(diff(u_expr, X), X),
        jet("yy"): diff(diff(u_expr, Y), Y),
    }


def _derive(spec: ReductionSpec, fam: FFamily) -> ReducedEquation:
    """Substitute the similarity ansatz into the model, restrict to the
    section, remove the common content, and check that nothing was lost."""
    residual = expand(substitute(model_residual(fam), _jet_bindings(spec.ansatz)))
    sectioned = _strip(expand(substitute(residual, spec.section)))
    if sectioned == RAT0:
        raise ReductionError("reduction degenerated to 0 = 0")

    # undo the section and confirm the full residual is the sectioned
    # equation up to a jet-free factor: the change of variables lost nothing
    unsection = {}
    for name, coord in spec.invariant_coords:
        b = base(name)
        if b != coord:
            unsection[b] = coord
    reconstructed = substitute(sectioned, unsection) if unsection else sectioned
    if not proportional_mod_heads(residual, reconstructed, {spec.dependent_name}):
        raise ReductionError(
            "ansatz failed to eliminate the original coordinates "
            f"for ({spec.case_id}, {spec.generator})"
        )
    return ReducedEquation(spec.case_id, spec.generator, sectioned, True)


def reduce(spec: ReductionSpec, fam: FFamily | None = None) -> ReducedEquation:
    """The derived reduced equation, compared against the bundled reference
    form; for the power-law family the comparison is additionally made at
    e1 = 1, where the documented constant-factor and slot-order differences
    disappear."""
    fam = fam or spec.family
    eq = _derive(spec, fam)
    _compare_with_reference(eq, spec, fam)
    return eq


def _at_e1_one(e: Expr, fam: PowerCase) -> Expr:
    return substitute(e, {fam.e1: RAT1}) if isinstance(fam.e1, Param) else e


def _compare_with_reference(eq: ReducedEquation, spec: ReductionSpec, fam: FFamily):
    flags = []
    if spec.case_id == "i" and spec.generator == "v1":
        ref = reference.reduced_form_case_i_v1(fam.K, fam.c)
        eq.reference_verdict = proportional_mod_heads(eq.expr, ref, {"omega"})
    elif spec.case_id == "i" and spec.generator == "v4":
        ref = reference.reduced_form_case_i_v4(fam.K)
        eq.reference_verdict = proportional_mod_heads(eq.expr, ref, {"h"})
        flags.append("explicit_constraint_sign")
    elif spec.case_id == "ii" and spec.generator == "v1":
        ref = reference.reduced_form_case_ii_v1(fam.L, fam.e1)
        eq.reference_verdict = proportional_mod_heads(eq.expr, ref, {"theta"})
        eq.reference_verdict_e1_1 = proportional_mod_heads(
            _at_e1_one(eq.expr, fam), _at_e1_one(ref, fam), {"theta"}
        )
        flags += ["power_case_shift_sign", "power_case_reduced_factor",
                  "power_case_slot_swap"]
    elif spec.case_id == "ii" and spec.generator == "v4":
        ell = fn("ell", [X, Y])
        ref = mul(neg(ell), reference.reduced_form_case_ii_v4(fam.L, fam.e1))
        eq.reference_verdict = proportional_mod_heads(eq.expr, ref, {"ell"})
        eq.reference_verdict_e1_1 = proportional_mod_heads(
            _at_e1_one(eq.expr, fam), _at_e1_one(ref, fam), {"ell"}
        )
        flags += ["power_case_reduced_factor"]
    eq.flags = tuple(flags)


def separation_check(case_id: str) -> dict:
    """Verify the separated solutions symbolically.

    Case i: omega = zeta1(r) + zeta2(s) with the two component ODEs turns
    the reduced equation into an identity.  Case ii (e1 = 1):
    theta = sig1(q)*sig2(p) likewise.  As a negative control the separation
    constant is negated in one component ODE; ``flipped_identity`` must then
    be false.  The family stays symbolic: the case ii separation holds only
    at e1 = 1."""
    if case_id == "i":
        fam = ExponentialCase()
        expr = _derive(builtin_reduction("i", "v1", fam), fam).expr
        c, c1 = fam.c, param("c1")
        sep = reference.separation_case_i(fam.K, c, c1)
        z1, z2 = sep["z1"], sep["z2"]
        head, split_value, case = fn("omega", [R, S]), add(z1(0), z2(0)), "i"

        def rules(sign):
            return {
                z1(2): mul(
                    neg(add(mul(sign, c1, exp_(neg(div(z1(0), c)))),
                            mul(2, R, z1(1)), neg(mul(2, c)))),
                    pow_(add(pow_(R, 2), RAT1), -1),
                ),
                z2(2): neg(mul(fam.K, c1, exp_(div(z2(0), c)))),
            }
    elif case_id == "ii":
        fam = PowerCase()
        expr = substitute(_derive(builtin_reduction("ii", "v1", fam), fam).expr,
                          {fam.e1: RAT1})
        c_sep, L = param("c_sep"), fam.L
        sep = reference.separation_case_ii(L, c_sep)
        s1, s2 = sep["s1"], sep["s2"]
        head, split_value, case = fn("theta", [P, Q]), mul(s1(0), s2(0)), "ii (e1=1)"

        def rules(sign):
            return {
                s1(2): mul(sign, c_sep, pow_(s1(0), 2)),
                s2(2): mul(
                    add(mul(2, P, s2(1)), neg(mul(2, s2(0))), div(c_sep, L)),
                    pow_(add(pow_(P, 2), RAT1), -1),
                ),
            }
    else:
        raise ReductionError(f"no separation for case {case_id!r}")
    split = substitute(expr, {head: split_value})
    residual = substitute(split, rules(RAT1))
    return {
        "case": case, "mode": sep["mode"],
        "identity": vanishes(residual),
        "flipped_identity": vanishes(substitute(split, rules(neg(RAT1)))),
        "residual": expand(residual),
    }


def explicit_solution_residual(m: Expr, p: Expr, q: Expr, fam: ExponentialCase | None = None):
    """Substitute the planar profile h = m*x + p*y + q into the derived
    reduced equation of (case i, v4).

    The second derivatives drop, leaving a constant constraint relating
    m^2 + p^2 to 1/K.  The derived constraint and its comparison with the
    reference's printed one (which has the opposite sign) are returned."""
    fam = fam or ExponentialCase()
    expr = _derive(builtin_reduction("i", "v4", fam), fam).expr
    planar = add(mul(m, X), mul(p, Y), q)
    constraint = expand(substitute(expr, {fn("h", [X, Y]): planar}))
    # reference claims m^2 + p^2 = 1/K; the derivation gives m^2 + p^2 = -1/K
    derived_zero_form = _strip(constraint)
    reference_zero_form = sub(add(pow_(m, 2), pow_(p, 2)), pow_(fam.K, -1))
    agrees = vanishes(sub(
        derived_zero_form,
        _strip(mul(fam.K, reference_zero_form)),
    ))
    return {
        "constraint": derived_zero_form,
        "reference_constraint": reference_zero_form,
        "matches_reference": agrees,
        "flag": "explicit_constraint_sign",
    }


def explicit_solution(m: Expr, p: Expr, q: Expr, fam: ExponentialCase | None = None) -> dict:
    """u = 2*c*ln((m*x + p*y + q)/t) with K bound to -1/(m^2 + p^2); the
    full model residual must normalize to exactly zero."""
    fam = fam or ExponentialCase()
    planar = add(mul(m, X), mul(p, Y), q)
    u_expr = mul(2, fam.c, ln_(mul(planar, pow_(T, -1))))
    residual = substitute(model_residual(fam), _jet_bindings(u_expr))
    k_value = neg(pow_(add(pow_(m, 2), pow_(p, 2)), -1))
    constrained = substitute(residual, {fam.K: k_value})
    return {
        "solution": u_expr,
        "k_constraint": k_value,
        "residual_zero": vanishes(constrained),
        "residual": expand(constrained),
    }
