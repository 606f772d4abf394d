"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Criteria 1-3 assert the engine's derived classification and check
the bundled reference's contrary claims as disproved (see
wavesym.reference.KNOWN_DISCREPANCIES): three of the fifteen reference
determining conditions are not implied by the invariance condition, each
refuted by an exact symmetry of every f; the degree-2 solution spaces are
8-dimensional (exponential family: the reference's five generators, the
rotation -y*d/dx + x*d/dy and two quadratic planar conformal fields) and
6-dimensional (power family: the five plus the rotation), not 5; and rotated
exact solutions still solve the equation while stretched ones do not."""

import math
import random

import pytest

from conftest import rand_parseable, rand_raw_tree
from wavesym import reference
from wavesym.detsys import (
    AnsatzSpec, ExponentialCase, Generic, PowerCase, ansatz_solve,
    check_reference_system, extract_determining, invariance_residual,
    on_shell, opaque_vectorfield, reference_implication_report,
)
from wavesym.expr import (
    Expr, RAT0, RAT1, T, U, X, Y, add, diff, expand, format_expr, fn, jet,
    max_jet_order, mul, neg, normalize, param, pow_, rat, sub, vanishes,
    SingularError,
)
from wavesym.jet import prolong_coeff_second, total_derivative
from wavesym.liealg import VectorField, commutator_table, decompose_field, jacobi_check
from wavesym.numverify import (
    DEFAULT_PARAMS, GridSpec, default_grid, fd_residual, first_integral_drift,
    flow_transport_check, reconstruct_case_i_v1, reconstruct_case_i_v4,
    reconstruct_case_ii_v1, verify_reduction_numeric,
)
from wavesym.parser import parse
from wavesym.reduction import (
    builtin_reduction, explicit_solution, explicit_solution_residual,
    proportional_mod_heads, reduce, separation_check,
)

c = param("c")
e1, e2 = param("e1"), param("e2")


def line(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d} {name}: {status}{'  -- ' + detail if detail else ''}")
    return ok


def _is_symmetry(v, fam):
    """Exact test: the on-shell invariance residual normalizes to zero."""
    return vanishes(on_shell(invariance_residual(v, fam), fam))


def _violated(v):
    """Names of the reference determining conditions that v violates."""
    return {n for n, (_, ok) in check_reference_system(v).items() if not ok}


def _rational(coords):
    return coords is not None and all(type(x).__name__ == "Rat" for x in coords)


def _same_span(basis, fields):
    """Each list lies in the span of the other with rational coordinates."""
    return (all(_rational(decompose_field(basis, w)) for w in fields)
            and all(_rational(decompose_field(fields, b)) for b in basis))


def _conformal_fields(ratio):
    """The quadratic planar conformal fields (xi + i*eta = -i*z^2 and z^2)
    with the scaling lift phi = 2*xi_x*ratio, where ratio = f/f'; for
    ratio = c this is phi = 4*c*y and 4*c*x."""
    return [
        VectorField(mul(2, X, Y), sub(pow_(Y, 2), pow_(X, 2)), RAT0,
                    mul(4, Y, ratio)),
        VectorField(sub(pow_(X, 2), pow_(Y, 2)), mul(2, X, Y), RAT0,
                    mul(4, X, ratio)),
    ]


_RECONSTRUCT_V1 = {"i": reconstruct_case_i_v1, "ii": reconstruct_case_ii_v1}


def _warped_residual(case_id, warp):
    """Max FD residual of the case's v1 similarity solution composed with
    the linear map ``warp`` on the default grid.  The solution is rebuilt
    on the bounding box of the warped grid box (the corner images span it,
    the map being linear), so the composition never leaves its tables."""
    grid = default_grid(case_id, "v1")
    corners = [warp(x, y, t) for x in grid.box[0] for y in grid.box[1]
               for t in grid.box[2]]
    box = tuple((min(p[k] for p in corners), max(p[k] for p in corners))
                for k in range(3))
    u, f = _RECONSTRUCT_V1[case_id](
        dict(DEFAULT_PARAMS[(case_id, "v1")]), GridSpec(box, grid.n, grid.h))
    return fd_residual(lambda x, y, t: u(*warp(x, y, t)), grid, f).max_residual


def _rotation_evidence(case_id, theta=0.1):
    """(rotated, stretched) residuals: rotating an exact solution by theta
    keeps it a solution; stretching x by 10% is the non-symmetry control."""
    cs, sn = math.cos(theta), math.sin(theta)
    rotated = _warped_residual(
        case_id, lambda x, y, t: (cs * x - sn * y, sn * x + cs * y, t))
    stretched = _warped_residual(case_id, lambda x, y, t: (1.1 * x, y, t))
    return rotated, stretched


def test_criterion_01_determining_system_fidelity():
    v = opaque_vectorfield()
    ds = extract_determining(v, Generic())
    report, _ = reference_implication_report(ds)
    not_implied = {n for n, r in report.items() if not r["implied"]}
    n_implied = len(report) - len(not_implied)

    # each non-implied condition is violated by an exact symmetry of every f
    witnesses = {
        "rotation": reference.rotation_field(),
        "scaling": VectorField(X, Y, T, RAT0),
    }
    refuted = {
        "rotation": {"xi_no_y", "eta_no_x"},
        "scaling": {"tau_t_matches_phi_u"},
    }
    exact = {k: _is_symmetry(w, Generic()) for k, w in witnesses.items()}
    violated = {k: _violated(w) for k, w in witnesses.items()}

    # the derived u_xy coefficient: one equation where the reference has two
    u_xy = {str(k): e for k, e in ds.entries}["u_xy"]
    split_joined = expand(sub(
        u_xy, mul(2, fn("f", [U]), add(diff(v.xi, Y), diff(v.eta, X)))
    )) == RAT0

    ok = (len(report) == 15 and n_implied == 12
          and not_implied == refuted["rotation"] | refuted["scaling"]
          and all(exact.values()) and violated == refuted
          and split_joined)
    line(1, "determining-system fidelity", ok,
         f"{n_implied}/{len(report)} reference conditions implied; not "
         f"implied: {sorted(not_implied)}, violated by the exact symmetries "
         f"{ {k: sorted(s) for k, s in violated.items()} }; derived u_xy "
         f"entry 2*f*(xi_y + eta_x): {split_joined}")
    assert len(report) == 15 and n_implied == 12, report
    assert not_implied == refuted["rotation"] | refuted["scaling"], not_implied
    assert all(exact.values()), exact
    assert violated == refuted, violated
    assert split_joined, format_expr(u_xy)


def test_criterion_02_case_i_classification():
    fam = ExponentialCase()
    space = ansatz_solve(fam, AnsatzSpec(2))
    assert space.certificate, "a basis field failed the exact residual check"
    refbasis = reference.case_i_basis(fam.c)
    coords = [decompose_field(space.basis, rb) for rb in refbasis]
    contained = all(_rational(cs) for cs in coords)
    assert contained, "reference basis not contained with rational coordinates"
    extra = [reference.rotation_field()] + _conformal_fields(fam.c)
    extra_exact = [_is_symmetry(w, fam) for w in extra]
    spanned = _same_span(space.basis, refbasis + extra)
    rotated, stretched = _rotation_evidence("i")
    ok = (space.dimension == 8 and all(extra_exact) and spanned
          and rotated <= 1e-6 and stretched >= 1e-3)
    line(2, "case (i) classification", ok,
         f"dimension {space.dimension} (reference claims 5): the reference's "
         f"5, the rotation and 2 planar conformal fields span it exactly: "
         f"{spanned}; extra residuals exactly 0: {all(extra_exact)}; rotated "
         f"solution residual {rotated:.3e} <= 1e-6, stretched control "
         f"{stretched:.3e} >= 1e-3")
    assert space.dimension == 8
    assert all(extra_exact), extra_exact
    assert spanned
    assert rotated <= 1e-6
    assert stretched >= 1e-3


def test_criterion_03_case_ii_classification():
    fam = PowerCase()
    space = ansatz_solve(fam, AnsatzSpec(2))
    assert space.certificate
    refbasis = reference.case_ii_basis(fam.e1, fam.e2)
    coords = [decompose_field(space.basis, rb) for rb in refbasis]
    contained = all(_rational(cs) for cs in coords)
    assert contained
    spanned = _same_span(space.basis, refbasis + [reference.rotation_field()])
    # the lift phi = 2*xi_x*f/f' that makes the scaling v1 a symmetry does
    # not extend to the conformal fields of the power family
    conformal = [_is_symmetry(w, fam)
                 for w in _conformal_fields(add(mul(fam.e1, U), fam.e2))]
    rotated, stretched = _rotation_evidence("ii")
    ok = (space.dimension == 6 and spanned and not any(conformal)
          and rotated <= 1e-6 and stretched >= 1e-3)
    line(3, "case (ii) classification", ok,
         f"dimension {space.dimension} (reference claims 5): the reference's "
         f"5 and the rotation span it exactly: {spanned}; conformal fields "
         f"rejected: {not any(conformal)}; rotated solution residual "
         f"{rotated:.3e} <= 1e-6, stretched control {stretched:.3e} >= 1e-3")
    assert space.dimension == 6
    assert spanned
    assert not any(conformal), conformal
    assert rotated <= 1e-6
    assert stretched >= 1e-3


def test_criterion_04_commutator_tables():
    t1 = commutator_table(reference.case_i_basis(c))
    t2 = commutator_table(reference.case_ii_basis(e1, e2))
    expected = [(i, j, k, rat(v)) for i, j, k, v in reference.STRUCTURE_TRIPLES]
    got1 = [(i, j, k, x) for i, j, k, x in t1.structure_triples()]
    got2 = [(i, j, k, x) for i, j, k, x in t2.structure_triples()]
    j1, j2 = jacobi_check(t1), jacobi_check(t2)
    ok = got1 == expected and got2 == expected and all(j1.values()) and all(j2.values())
    line(4, "commutator tables", ok,
         "both reference bases reproduce the bundled structure constants; "
         "tables entrywise identical; all 10+10 Jacobi triples vanish")
    assert got1 == expected
    assert got2 == expected
    assert all(j1.values()) and all(j2.values())
    assert ok


def test_criterion_05_reduced_equations():
    results = {}
    for case_id, gen in (("i", "v1"), ("i", "v4"), ("ii", "v1"), ("ii", "v4")):
        eq = reduce(builtin_reduction(case_id, gen))
        matched = bool(eq.reference_verdict) or bool(eq.reference_verdict_e1_1)
        results[(case_id, gen)] = (matched, eq.flags)
    flags_present = (
        "explicit_constraint_sign" in results[("i", "v4")][1]
        and "power_case_shift_sign" in results[("ii", "v1")][1]
        and "power_case_reduced_factor" in results[("ii", "v1")][1]
    )
    ok = all(m for m, _ in results.values()) and flags_present
    line(5, "reduced equations", ok,
         "all four reductions match the reference forms up to one overall "
         "nonzero factor (power cases compared at e1=1); documented "
         "discrepancies flagged")
    for key, (matched, _) in results.items():
        assert matched, key
    assert flags_present
    assert ok


def test_criterion_06_separated_solutions():
    rep_i = separation_check("i")
    rep_ii = separation_check("ii")
    ok = (rep_i["identity"] and rep_ii["identity"]
          and not rep_i["flipped_identity"] and not rep_ii["flipped_identity"])
    line(6, "separated solutions", ok,
         "additive (case i) and multiplicative (case ii, e1=1) separations "
         "are exact identities; flipped separation constant fails")
    assert rep_i["identity"] and rep_ii["identity"]
    assert not rep_i["flipped_identity"] and not rep_ii["flipped_identity"]


def test_criterion_07_numeric_reconstruction():
    r = verify_reduction_numeric("i", "v1", params={"K": 1.0, "c": 1.0, "c1": 1.0})
    drift = first_integral_drift(K=1.0, c=1.0, c1=1.0)
    ok = (
        r.max_residual <= 1e-6
        and r.convergence_factor is not None
        and 3.5 <= r.convergence_factor <= 4.5
        and 3.5 <= drift["order_estimate"] <= 4.5
    )
    line(7, "numeric reconstruction (i, v1)", ok,
         f"max residual {r.max_residual:.3e} <= 1e-6; refinement factor "
         f"{r.convergence_factor:.2f} in [3.5, 4.5]; first-integral drift "
         f"order {drift['order_estimate']:.2f}")
    assert r.max_residual <= 1e-6
    assert 3.5 <= r.convergence_factor <= 4.5
    assert 3.5 <= drift["order_estimate"] <= 4.5


def test_criterion_08_explicit_solution():
    m, p, q = param("m"), param("p"), param("q")
    con = explicit_solution_residual(m, p, q)
    derived = expand(con["constraint"])
    expect = add(RAT1, mul(param("K"), pow_(m, 2)), mul(param("K"), pow_(p, 2)))
    sign_as_derived = expand(sub(derived, expect)) == RAT0
    sol = explicit_solution(m, p, q)
    grid = default_grid("i", "v4")
    params = dict(DEFAULT_PARAMS[("i", "v4")])
    u, f = reconstruct_case_i_v4(params, grid)
    good = fd_residual(u, grid, f)
    bad_params = dict(params)
    bad_params["K"] = -1.0 / 1.1
    u_bad, f_bad = reconstruct_case_i_v4(bad_params, grid)
    bad = fd_residual(u_bad, grid, f_bad)
    ok = (sign_as_derived and sol["residual_zero"]
          and good.max_residual <= 1e-6 and bad.max_residual >= 1e-3)
    line(8, "explicit solution", ok,
         f"derived constraint 1 + K*(m^2+p^2) = 0 (sign as derived, not as "
         f"printed); symbolic residual 0: {sol['residual_zero']}; FD residual "
         f"{good.max_residual:.3e} <= 1e-6; 10% violation gives "
         f"{bad.max_residual:.3e} >= 1e-3")
    assert sign_as_derived
    assert sol["residual_zero"]
    assert good.max_residual <= 1e-6
    assert bad.max_residual >= 1e-3


def test_criterion_09_symmetry_transport():
    grid = default_grid("i", "v4")
    params = dict(DEFAULT_PARAMS[("i", "v4")])
    u, f = reconstruct_case_i_v4(params, grid)
    base = fd_residual(u, grid, f)
    ratios = {}
    for k, v in enumerate(reference.case_i_basis(rat(1))):
        out = flow_transport_check(u, f, v, 0.3, grid, base_report=base)
        ratios[f"v{k+1}"] = out["ratio"]
    control = flow_transport_check(
        u, f, VectorField(RAT0, RAT0, RAT0, jet("")), 0.3, grid, base_report=base
    )
    ok = all(r <= 10.0 for r in ratios.values()) and control["ratio"] >= 1e3
    line(9, "symmetry transport", ok,
         f"transport ratios {({k: round(v, 2) for k, v in ratios.items()})} "
         f"all <= 10; non-symmetry control ratio {control['ratio']:.1e} >= 1e3")
    for k, r in ratios.items():
        assert r <= 10.0, k
    assert control["ratio"] >= 1e3


def test_criterion_10_engine_invariants():
    rng = random.Random(515253)
    failures = []

    # third-order cancellation in all second-prolongation coefficients
    def rand_component(depth=1):
        parts = [rat(rng.randint(-2, 2))]
        for _ in range(rng.randint(0, 2)):
            parts.append(mul(
                rat(rng.randint(-2, 2)),
                rng.choice([parse("x"), parse("y"), parse("t"), jet("")]),
                rng.choice([RAT1, rng.choice([parse("x"), jet("")])]),
            ))
        return add(*parts)

    pairs = [(a, b) for a in "xyt" for b in "xyt"]
    for i in range(200):
        v = VectorField(*[rand_component() for _ in range(4)])
        d1, d2 = pairs[i % len(pairs)]
        if max_jet_order(prolong_coeff_second(v, d1, d2)) > 2:
            failures.append(("third-order", i))

    # total-derivative commutation
    from test_jet import rand_jet_expr
    for i in range(200):
        e = rand_jet_expr(rng)
        d1, d2 = rng.choice("xyt"), rng.choice("xyt")
        ab = total_derivative(total_derivative(e, d1), d2)
        ba = total_derivative(total_derivative(e, d2), d1)
        if expand(sub(ab, ba)) != RAT0:
            failures.append(("commutation", i))

    # parse/format round trip
    for i in range(200):
        e = rand_parseable(rng, rng.randint(1, 5))
        if parse(format_expr(e)) != normalize(e):
            failures.append(("round-trip", i))

    # normalize idempotence on raw trees up to depth 8
    done = 0
    while done < 200:
        e = rand_raw_tree(rng, rng.randint(1, 8))
        try:
            n1 = normalize(e)
        except SingularError:
            continue
        if normalize(n1) != n1:
            failures.append(("idempotence", done))
        done += 1

    ok = not failures
    line(10, "engine invariants", ok,
         "third-order cancellation, D-commutation, round trip, idempotence: "
         f"4 x 200 random instances, {len(failures)} failures")
    assert ok, failures
