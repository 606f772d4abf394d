"""Similarity reductions along the classified generators.

``scaling_reduction`` builds every reduction from its generator
lam*(x*d/dx + y*d/dy) + mu*t*d/dt + (alpha*u + beta)*d/du, whose
coefficients fix the invariants, the section and the ansatz (Olver,
*Applications of Lie Groups to Differential Equations*, §3);
``builtin_reduction`` applies it to the reference basis fields under the
names of ``REDUCTION_NAMES``.  The separated solutions are checked with the
reference's own ODEs, and the planar solution of the exponential case in
the model.  The reduced equation is always re-derived from scratch by
substituting the ansatz into the model; the bundled reference forms are
comparison targets only, and disagreements are reported, never silently
adopted (the engine's derivation is authoritative once the internal
consistency checks pass).

Derivation route: the model residual's jets are replaced by derivatives of
the ansatz, the family is substituted for f, and the result is restricted
to the section x = 1 (or t = 1), where the scaling factors collapse to 1
and the invariant coordinates appear in the clear.  An exact identity
(``proportional_mod_heads``) then confirms the full residual is the
sectioned equation, taken back to the original coordinates, times a factor
free of the reduced unknown, i.e. nothing was lost.  The comparisons with
the reference forms are the same identity, so every verdict is exact."""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .expr import (
    Expr, RAT0, RAT1, add, base, collect_atoms, diff, div, exp_, expand, fn,
    fn_nodes_of, jet, ln_, mul, neg, param, pow_, sub, substitute, vanishes,
    Param,
)
from .detsys import ExponentialCase, FFamily, PowerCase, model_residual
from .liealg import FlowUnsupportedError, VectorField, affine_parts
from .linalg import LaurentRing
from . import reference

__all__ = [
    "ReductionError", "ReductionNames", "ReductionSpec", "TrivialInvariants",
    "ReducedEquation", "GENERATORS", "REDUCTION_NAMES", "scaling_reduction",
    "builtin_reduction", "invariance_check", "reduce", "separation_check",
    "explicit_solution_residual", "explicit_solution", "proportional_mod_heads",
]

X, Y, T, U = base("x"), base("y"), base("t"), jet("")


class ReductionError(Exception):
    pass


class TrivialInvariants(namedtuple("TrivialInvariants", "case_id generator coordinates")):
    """Translation generators leave an arbitrary function of the remaining
    coordinates invariant; there is nothing to reduce."""

    __slots__ = ()


class ReductionNames(namedtuple(
        "ReductionNames", "coords dependent exponential reference flags",
        defaults=(False, None, ()))):
    """How a reduction is reported, and what the reference prints for it:
    the names of the two invariant coordinates (``coords``) and of the
    reduced unknown (``dependent``); whether the unknown is
    exp(invariant/k), not the invariant (``exponential``); the family ->
    printed reduced form, or None (``reference``); the
    ``KNOWN_DISCREPANCIES`` keys (``flags``)."""

    __slots__ = ()


class ReductionSpec(namedtuple(
        "ReductionSpec", "case_id generator invariant_coords names dependent_invariant "
        "ansatz section field_ family")):
    """A similarity reduction: ``invariant_coords`` ((name, expression in
    x, y, t), ...), the expression in (x, y, t, u) the generator kills
    (``dependent_invariant``), u in terms of the invariant function
    (``ansatz``) and the substitution onto the section (``section``)."""

    __slots__ = ()


class ReducedEquation(namedtuple(
        "ReducedEquation", "case_id generator expr elimination_verified reference_verdict "
        "reference_verdict_e1_1 flags family", defaults=(None, None, (), None))):
    """The reduced equation ``expr``, required to vanish, in invariant
    coordinates, derived for ``family``, and its comparison with the
    reference form."""

    __slots__ = ()


# the names of the reference basis fields, in the order of reference_basis()
GENERATORS = ("v1", "v2", "v3", "v4", "v5")

REDUCTION_NAMES = {
    ("i", "v1"): ReductionNames(
        ("r", "s"), "omega",
        reference=lambda fam: reference.reduced_form_case_i_v1(fam.K, fam.c)),
    # h = t*exp(u/(2*c)) turns the planar solution into h = m*x + p*y + q
    ("i", "v4"): ReductionNames(
        ("x", "y"), "h", exponential=True,
        reference=lambda fam: reference.reduced_form_case_i_v4(fam.K),
        flags=("explicit_constraint_sign",)),
    ("ii", "v1"): ReductionNames(
        ("p", "q"), "theta",
        reference=lambda fam: reference.reduced_form_case_ii_v1(fam.L, fam.e1),
        flags=("power_case_shift_sign", "power_case_reduced_factor",
               "power_case_slot_swap")),
    # the printed form times -ell: the comparison allows jet-free factors only
    ("ii", "v4"): ReductionNames(
        ("x", "y"), "ell",
        reference=lambda fam: mul(neg(fn("ell", [X, Y])),
                                  reference.reduced_form_case_ii_v4(fam.L, fam.e1)),
        flags=("power_case_reduced_factor",)),
}


def scaling_reduction(case_id: str, generator: str, field_: VectorField,
                      fam: FFamily, names: ReductionNames | None):
    """The similarity reduction along lam*(x*d/dx + y*d/dy) + mu*t*d/dt
    + (alpha*u + beta)*d/du, or the translation invariants (the coordinates
    whose component vanishes) of a field with no scaling part.  Section
    s = x with invariants y/x and t*x^(-mu/lam), or s = t with x and y when
    lam = 0; scale is lam or mu.  The dependent invariant is
    (u + beta/alpha)*s^(-alpha/scale), else u - (beta/scale)*ln(s), or its
    exponential s*exp(u/k), k = -beta/scale, when ``names.exponential``."""
    try:
        parts = affine_parts(field_)
    except FlowUnsupportedError as err:
        raise ReductionError(
            f"({case_id}, {generator}) is not a scaling generator: {err}") from None
    if all(a == RAT0 for a, _ in parts):
        return TrivialInvariants(case_id, generator, tuple(
            z for z, (_, b) in zip("xytu", parts) if b == RAT0))
    (lam, bx), (lam_y, by), (mu, bt), (alpha, beta) = parts
    if (lam_y, bx, by, bt) != (lam, RAT0, RAT0, RAT0) or lam == mu == RAT0:
        raise ReductionError(f"({case_id}, {generator}) is not a scaling generator")
    if lam != RAT0:
        s, others, scale = X, (Y, T), lam
        coords = (div(Y, X), mul(T, exp_(neg(mul(div(mu, lam), ln_(X))))))
    else:
        s, others, scale, coords = T, (X, Y), mu, (X, Y)
    w = fn(names.dependent, coords)
    if alpha != RAT0:
        shift, power = div(beta, alpha), mul(div(alpha, scale), ln_(s))
        dependent = mul(add(U, shift), exp_(neg(power)))
        ansatz = sub(mul(w, exp_(power)), shift)
    else:
        drift = mul(div(beta, scale), ln_(s))
        dependent, ansatz = sub(U, drift), add(w, drift)
        if names.exponential:
            k = neg(div(beta, scale))
            dependent, ansatz = exp_(div(dependent, k)), mul(k, ln_(div(w, s)))
    section = {s: RAT1}
    section.update({z: base(n) for z, n in zip(others, names.coords) if base(n) != z})
    return ReductionSpec(case_id, generator, tuple(zip(names.coords, coords)), names,
                         dependent, ansatz, section, field_, fam)


def builtin_reduction(case_id: str, generator: str, fam: FFamily | None = None):
    """The reference's generator v1..v5 of family i or ii, reduced by
    ``scaling_reduction`` under the names of ``REDUCTION_NAMES``: v1 and v4
    give similarity ansaetze, v2, v3 and v5 translation invariants."""
    family = {"i": ExponentialCase, "ii": PowerCase}.get(case_id)
    if family is None or generator not in GENERATORS:
        raise ReductionError(f"no built-in reduction for ({case_id}, {generator})")
    fam = fam if isinstance(fam, family) else family()
    field_ = fam.reference_basis()[GENERATORS.index(generator)]
    return scaling_reduction(case_id, generator, field_, fam,
                             REDUCTION_NAMES.get((case_id, generator)))


def invariance_check(spec: ReductionSpec) -> dict:
    """Generator action on every invariant must normalize to zero."""
    out = {}
    for name, coord in spec.invariant_coords:
        out[f"coordinate {name}"] = vanishes(spec.field_.apply(coord))
    out["dependent invariant"] = vanishes(spec.field_.apply(spec.dependent_invariant))
    return out


def proportional_mod_heads(a: Expr, b: Expr, heads) -> bool:
    """Are a and b proportional as equations in the opaque heads, i.e. is
    a = lam*b with lam free of every node of ``heads``?

    Every node of the heads (derivatives too) is renamed, omega to omega',
    giving a' and b'; then a*b' - a'*b vanishes exactly when a/b takes the
    same value for two independent choices of the heads."""
    if vanishes(b):
        raise ReductionError("proportionality to an expression that vanishes")
    renames = {}
    for name, arity in {(n.name, len(n.args)) for n in fn_nodes_of(a) | fn_nodes_of(b)}:
        if name in heads:
            formals = [base(f"_{i}") for i in range(arity)]
            renames[fn(name, formals)] = fn(name + "'", formals)
    a2, b2 = substitute(a, renames), substitute(b, renames)
    return vanishes(sub(mul(a, b2), mul(a2, b)))


def _strip(e: Expr) -> Expr:
    """``e`` divided by its rational content and its common parameter
    monomial, with its leading term positive (``LaurentRing.strip``)."""
    ring = LaurentRing()
    p = ring.poly(e)
    d = lcm(*[k.denominator for k in p.values()])
    return ring.expr(ring.strip({0: {m: int(d * k) for m, k in p.items()}})[0])


def _jet_bindings(u_expr: Expr) -> dict:
    """u and the second derivatives the model uses, for u = u_expr."""
    return {
        U: u_expr,
        jet("tt"): diff(diff(u_expr, T), T),
        jet("xx"): diff(diff(u_expr, X), X),
        jet("yy"): diff(diff(u_expr, Y), Y),
    }


def _derive(spec: ReductionSpec) -> ReducedEquation:
    """Substitute the similarity ansatz into the model, restrict to the
    section, remove the common content, and check that nothing was lost."""
    residual = expand(substitute(model_residual(spec.family), _jet_bindings(spec.ansatz)))
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
    if not proportional_mod_heads(residual, reconstructed, {spec.names.dependent}):
        raise ReductionError(
            "ansatz failed to eliminate the original coordinates "
            f"for ({spec.case_id}, {spec.generator})"
        )
    return ReducedEquation(spec.case_id, spec.generator, sectioned, True, family=spec.family)


def _reduced_expr(case_id: str, generator: str, fam: FFamily,
                  reduced: ReducedEquation | None) -> Expr:
    """The reduced equation of (case_id, generator) for ``fam``: the one the
    caller derived already when it is that reduction, else derived here."""
    if reduced is not None and (reduced.case_id, reduced.generator, reduced.family) == (
            case_id, generator, fam):
        return reduced.expr
    return _derive(builtin_reduction(case_id, generator, fam)).expr


def reduce(spec: ReductionSpec) -> ReducedEquation:
    """The derived reduced equation, compared against the reference form of
    its ``ReductionNames`` row; for the power-law family the comparison is
    additionally made at e1 = 1, where the documented constant-factor and
    slot-order differences disappear."""
    fam = spec.family
    eq = _derive(spec)
    names = spec.names
    if names.reference is None:
        return eq
    ref, heads = names.reference(fam), {names.dependent}
    eq = eq._replace(reference_verdict=proportional_mod_heads(eq.expr, ref, heads),
                     flags=names.flags)
    if isinstance(fam, PowerCase):
        eq = eq._replace(reference_verdict_e1_1=proportional_mod_heads(
            _at_e1_one(eq.expr, fam), _at_e1_one(ref, fam), heads))
    return eq


def _at_e1_one(e: Expr, fam: PowerCase) -> Expr:
    return substitute(e, {fam.e1: RAT1}) if isinstance(fam.e1, Param) else e


def _solved_for_top(ode: Expr) -> tuple:
    """(d, value): the ODE solved for its highest derivative d, which it
    contains linearly."""
    top = max(fn_nodes_of(ode), key=lambda n: sum(n.didx))
    parts = collect_atoms(ode, [top])
    return top, neg(div(parts.get((), RAT0), parts[((top, 1),)]))


def separation_check(case_id: str, reduced: ReducedEquation | None = None) -> dict:
    """Verify the separated solutions symbolically.

    Case i: omega = zeta1(r) + zeta2(s), each component solved from its
    reference ODE, turns the derived reduced equation into an identity.
    Case ii (e1 = 1): theta = sig1(q)*sig2(p) likewise.  As a negative
    control the separation constant is negated in the first ODE;
    ``flipped_identity`` must then be false.  The family stays symbolic:
    the case ii separation holds only at e1 = 1.  ``reduced``, the caller's
    (case_id, v1) reduction, is used when it is of that symbolic family."""
    if case_id == "i":
        fam, const, case = ExponentialCase(), param("c1"), "i"
        sep = reference.separation_case_i(fam.K, fam.c, const)
    elif case_id == "ii":
        fam, const, case = PowerCase(), param("c_sep"), "ii (e1=1)"
        sep = reference.separation_case_ii(fam.L, const)
    else:
        raise ReductionError(f"no separation for case {case_id!r}")
    expr = _reduced_expr(case_id, "v1", fam, reduced)
    if case_id == "ii":
        expr = _at_e1_one(expr, fam)
    names = REDUCTION_NAMES[case_id, "v1"]
    head = fn(names.dependent, [base(n) for n in names.coords])
    split = substitute(expr, {head: sep["ansatz"]})
    first, *rest = [sep[k] for k in sep if k.startswith("ode_")]

    def residual(first_ode):
        return substitute(split, dict(map(_solved_for_top, [first_ode, *rest])))

    res = residual(first)
    return {
        "case": case, "mode": sep["mode"],
        "identity": vanishes(res),
        "flipped_identity": vanishes(residual(substitute(first, {const: neg(const)}))),
        "residual": expand(res),
    }


def explicit_solution_residual(m: Expr, p: Expr, q: Expr, fam: ExponentialCase | None = None,
                               reduced: ReducedEquation | None = None):
    """Substitute the planar profile h = m*x + p*y + q into the derived
    reduced equation of (case i, v4), ``reduced`` when it is that of ``fam``.

    The second derivatives drop, leaving a constant constraint relating
    m^2 + p^2 to 1/K.  The derived constraint and its comparison with the
    reference's printed one (which has the opposite sign) are returned."""
    fam = fam or ExponentialCase()
    expr = _reduced_expr("i", "v4", fam, reduced)
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
    k_value = neg(pow_(add(pow_(m, 2), pow_(p, 2)), -1))
    constrained = ExponentialCase(k_value, fam.c)
    residual = substitute(model_residual(constrained), _jet_bindings(u_expr))
    return {
        "solution": u_expr,
        "k_constraint": k_value,
        "residual_zero": vanishes(residual),
        "residual": expand(residual),
    }
