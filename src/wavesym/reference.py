"""Bundled reference results for the classification of
u_tt = f(u)*(u_xx + u_yy), used as cross-check targets by the engine.

Everything here is data the engine re-derives independently: the two
five-dimensional generator bases (exponential and power-law nonlinearity),
their common commutator table, the determining conditions for generic f,
the printed forms of the four reduced equations, and the separated ODEs.
Known slips in the reference forms are listed in KNOWN_DISCREPANCIES; the
engine always reports its own derivation as ground truth and flags the
difference instead of silently adopting either side."""

from __future__ import annotations

from .expr import (
    Expr, RAT0, RAT1, add, base, diff, div, exp_, fn, jet, ln_, mul, neg,
    pow_, sub,
)
from .liealg import VectorField

__all__ = [
    "STRUCTURE_TRIPLES", "case_i_basis", "case_ii_basis", "rotation_field",
    "exponential_f", "power_f", "determining_conditions",
    "reduced_form_case_i_v1", "reduced_form_case_i_v4",
    "reduced_form_case_ii_v1", "reduced_form_case_ii_v4",
    "separation_case_i", "separation_case_ii",
    "KNOWN_DISCREPANCIES",
]

X, Y, T, U = base("x"), base("y"), base("t"), jet("")

# nonzero structure constants (i, j, k, value) of both symmetry algebras in
# the basis order (v1, v2, v3, v4, v5): [v1,v2] = -v2, [v1,v3] = -v3,
# [v4,v5] = -v5, plus antisymmetric partners.
STRUCTURE_TRIPLES = (
    (0, 1, 1, -1),
    (0, 2, 2, -1),
    (1, 0, 1, 1),
    (2, 0, 2, 1),
    (3, 4, 4, -1),
    (4, 3, 4, 1),
)


def exponential_f(K: Expr, c: Expr) -> Expr:
    """f(u) = K*exp(u/c)."""
    return mul(K, exp_(div(U, c)))


def power_f(L: Expr, e1: Expr, e2: Expr) -> Expr:
    """f(u) = L*(e1*u + e2)^(1/e1), written through exp/ln so the exponent
    may stay symbolic."""
    g = add(mul(e1, U), e2)
    return mul(L, exp_(mul(pow_(e1, -1), ln_(g))))


def case_i_basis(c: Expr):
    """Five generators admitted by f = K*exp(u/c)."""
    two_c = mul(2, c)
    return [
        VectorField(X, Y, RAT0, two_c),
        VectorField(RAT1, RAT0, RAT0, RAT0),
        VectorField(RAT0, RAT1, RAT0, RAT0),
        VectorField(RAT0, RAT0, T, neg(two_c)),
        VectorField(RAT0, RAT0, RAT1, RAT0),
    ]


def case_ii_basis(e1: Expr, e2: Expr):
    """Five generators admitted by f = L*(e1*u + e2)^(1/e1)."""
    lin = add(mul(2, e1, U), mul(2, e2))
    return [
        VectorField(X, Y, RAT0, lin),
        VectorField(RAT1, RAT0, RAT0, RAT0),
        VectorField(RAT0, RAT1, RAT0, RAT0),
        VectorField(RAT0, RAT0, T, neg(lin)),
        VectorField(RAT0, RAT0, RAT1, RAT0),
    ]


def determining_conditions(xi: Expr, eta: Expr, tau: Expr, phi: Expr,
                           f: Expr, fu: Expr) -> dict:
    """The determining system for generic f, as named residual expressions
    that must vanish.  Components may be concrete or opaque functions of
    (x, y, t, u); f and fu may likewise stay opaque."""

    def d(e, *vs):
        for v in vs:
            e = diff(e, v)
        return e

    return {
        "xi_no_y": d(xi, Y),
        "xi_no_u": d(xi, U),
        "eta_no_x": d(eta, X),
        "eta_no_u": d(eta, U),
        "tau_no_u": d(tau, U),
        "phi_affine_in_u": d(phi, U, U),
        "tau_t_matches_phi_u": sub(d(tau, T), d(phi, U)),
        "xi_wave_balance": sub(d(xi, T, T), mul(f, sub(d(xi, X, X), mul(2, d(phi, X, U))))),
        "eta_wave_balance": sub(d(eta, T, T), mul(f, sub(d(eta, Y, Y), mul(2, d(phi, Y, U))))),
        "tau_wave_balance": sub(
            d(tau, T, T), add(mul(f, add(d(tau, X, X), d(tau, Y, Y))), mul(2, d(phi, T, U)))
        ),
        "phi_scale_x": sub(mul(fu, phi), mul(2, f, sub(d(xi, X), d(tau, T)))),
        "phi_scale_y": sub(mul(fu, phi), mul(2, f, sub(d(eta, Y), d(tau, T)))),
        "tau_x_coupling": sub(mul(f, d(tau, X)), d(xi, T)),
        "tau_y_coupling": sub(mul(f, d(tau, Y)), d(eta, T)),
        "phi_wave_balance": sub(d(phi, T, T), mul(f, add(d(phi, X, X), d(phi, Y, Y)))),
    }


# ---------------------------------------------------------------------------
# reference reduced equations (printed forms), in the engine's invariant
# naming.  Each is an expression required to vanish.

R, S = base("r"), base("s")
P, Q = base("p"), base("q")


def _w(i, j):
    return fn("omega", [R, S], (i, j))


def reduced_form_case_i_v1(K: Expr, c: Expr) -> Expr:
    """omega_ss = K*exp(omega/c)*((1+r^2)*omega_rr + 2*r*omega_r - 2*c)
    with r = y/x, s = t, u = omega + 2*c*ln(x)."""
    bracket = add(
        mul(add(RAT1, pow_(R, 2)), _w(2, 0)),
        mul(2, R, _w(1, 0)),
        neg(mul(2, c)),
    )
    return sub(_w(0, 2), mul(K, exp_(div(_w(0, 0), c)), bracket))


def _h(i, j):
    return fn("h", [X, Y], (i, j))


def reduced_form_case_i_v4(K: Expr) -> Expr:
    """1/K - h*(h_xx + h_yy) + h_x^2 + h_y^2 = 0 with u = 2*c*ln(h/t)."""
    return add(
        pow_(K, -1),
        neg(mul(_h(0, 0), add(_h(2, 0), _h(0, 2)))),
        pow_(_h(1, 0), 2),
        pow_(_h(0, 1), 2),
    )


def _th(i, j):
    # theta(p, q) with p = y/x, q = t
    return fn("theta", [P, Q], (i, j))


def reduced_form_case_ii_v1(L: Expr, e1: Expr) -> Expr:
    """theta_qq = L*theta^(1/e1)*((1+p^2)*theta_pp + 2*(1-2*e1)*p*theta_p
    + 2*e1*(2*e1-1)*theta), the printed form transcribed into the invariant
    names p = y/x, q = t (the reference prints the two invariant slots
    swapped; see KNOWN_DISCREPANCIES)."""
    th = _th(0, 0)
    power = exp_(mul(pow_(e1, -1), ln_(th)))
    bracket = add(
        mul(add(RAT1, pow_(P, 2)), _th(2, 0)),
        mul(2, sub(RAT1, mul(2, e1)), P, _th(1, 0)),
        mul(2, e1, sub(mul(2, e1), RAT1), th),
    )
    return sub(_th(0, 2), mul(L, power, bracket))


def _l(i, j):
    return fn("ell", [X, Y], (i, j))


def reduced_form_case_ii_v4(L: Expr, e1: Expr) -> Expr:
    """L*(l_xx + l_yy)*l^(1/e1 - 1) - 2*e1*(2*e1 + 1) = 0 with
    u = l(x,y)*t^(-2*e1) - e2/e1."""
    lpow = exp_(mul(sub(pow_(e1, -1), RAT1), ln_(_l(0, 0))))
    return sub(
        mul(L, add(_l(2, 0), _l(0, 2)), lpow),
        mul(2, e1, add(mul(2, e1), RAT1)),
    )


def separation_case_i(K: Expr, c: Expr, c1: Expr) -> dict:
    """Additive split omega = zeta1(r) + zeta2(s) and the two component
    ODEs: (r^2+1)*zeta1'' + c1*exp(-zeta1/c) + 2*(r*zeta1' - c) = 0 and
    zeta2'' + K*c1*exp(zeta2/c) = 0."""
    z1 = lambda k: fn("zeta1", [R], (k,))
    z2 = lambda k: fn("zeta2", [S], (k,))
    ode1 = add(
        mul(add(pow_(R, 2), RAT1), z1(2)),
        mul(c1, exp_(neg(div(z1(0), c)))),
        mul(2, sub(mul(R, z1(1)), c)),
    )
    ode2 = add(z2(2), mul(K, c1, exp_(div(z2(0), c))))
    return {
        "mode": "additive",
        "ansatz": add(z1(0), z2(0)),
        "ode_r": ode1,
        "ode_s": ode2,
    }


def separation_case_ii(L: Expr, c_sep: Expr) -> dict:
    """Multiplicative split (e1 = 1) theta = sig1(q) * sig2(p) with
    sig1'' - c_sep*sig1^2 = 0 (in q = t) and
    (p^2+1)*sig2'' - 2*p*sig2' + 2*sig2 - c_sep/L = 0 (in p = y/x).
    The reference prints the two slots swapped; see KNOWN_DISCREPANCIES."""
    s1 = lambda k: fn("sig1", [Q], (k,))
    s2 = lambda k: fn("sig2", [P], (k,))
    ode_q = sub(s1(2), mul(c_sep, pow_(s1(0), 2)))
    ode_p = add(
        mul(add(pow_(P, 2), RAT1), s2(2)),
        neg(mul(2, P, s2(1))),
        mul(2, s2(0)),
        neg(div(c_sep, L)),
    )
    return {
        "mode": "multiplicative",
        "ansatz": mul(s1(0), s2(0)),
        "ode_q": ode_q,
        "ode_p": ode_p,
    }


def rotation_field() -> VectorField:
    """x-y rotation generator, a symmetry for every smooth f (the Laplacian
    and u_tt are rotation invariant); omitted from the reference bases."""
    return VectorField(neg(Y), X, RAT0, RAT0)


KNOWN_DISCREPANCIES = {
    "missing_rotation": (
        "the rotation generator -y*d/dx + x*d/dy is a point symmetry for "
        "every smooth f (verified exactly by the invariance residual and "
        "numerically on rotated exact solutions), but the reference bases "
        "omit it.  The cause: the u_xy coefficient of the invariance "
        "condition is 2*f*(xi_y + eta_x), a single equation, which the "
        "reference splits into the two stronger conditions xi_y = 0 and "
        "eta_x = 0."
    ),
    "exponential_conformal_symmetries": (
        "for f = K*exp(u/c) the equation is conformally invariant in the "
        "(x,y) plane: any harmonic-conjugate pair (xi, eta) with "
        "xi_x = eta_y, xi_y = -eta_x extends to a symmetry with "
        "phi = 2*c*xi_x, so the full symmetry algebra is "
        "infinite-dimensional.  A degree-2 polynomial ansatz returns 8 "
        "generators (the reference's 5, the rotation, and two quadratic "
        "conformal fields), not 5."
    ),
    "power_case_dimension": (
        "for f = L*(e1*u + e2)^(1/e1) the degree-2 ansatz returns 6 "
        "generators: the reference's 5 plus the rotation."
    ),
    "tau_t_phi_u_condition": (
        "the reference lists tau_t = phi_u among the determining equations, "
        "but that equality is violated by its own admitted generators "
        "(t*d/dt - 2c*d/du has tau_t = 1, phi_u = 0) and by the universal "
        "scaling symmetry x*d/dx + y*d/dy + t*d/dt, both of which satisfy "
        "the invariance identity exactly.  The engine-derived system does "
        "not contain or imply it; it is reported as not implied, and the "
        "affine form phi_u = alpha(x,y,t) (no u-dependence) is the part "
        "that does hold."
    ),
    "explicit_constraint_sign": (
        "the reference states m^2 + p^2 = 1/K for the planar solution "
        "h = m*x + p*y + q; direct substitution into the derived reduced "
        "equation gives 1/K + m^2 + p^2 = 0, i.e. m^2 + p^2 = -1/K, which "
        "needs K < 0 for real m, p.  The engine reports its own constraint."
    ),
    "power_case_shift_sign": (
        "the reference prints the similarity ansatz u = theta*x^(2*e1) "
        "+ e2/e1 while its own invariant (u + e2/e1)*x^(-2*e1) forces "
        "u = theta*x^(2*e1) - e2/e1; the minus sign is what passes the "
        "invariance check and is used here."
    ),
    "power_case_reduced_factor": (
        "the derived reduced equations for the power-law family carry the "
        "constant e1^(1/e1) inside the nonlinearity, (e1*theta)^(1/e1) "
        "versus the printed theta^(1/e1); the forms coincide at e1 = 1 and "
        "differ by that constant otherwise."
    ),
    "power_case_slot_swap": (
        "the reference's reduced equation and separation ODEs for the "
        "power-law scaling generator are printed with the two invariant "
        "slots interchanged relative to its own invariant definitions "
        "p = y/x, q = t; the engine compares against the consistent "
        "reading (second derivative in t on the left)."
    ),
    "separation_constant_name": (
        "the additive separation reuses the family constant name c for the "
        "separation constant; the engine names the separation constant "
        "c1 (additive case) and c_sep (multiplicative case) to avoid the "
        "collision."
    ),
}
