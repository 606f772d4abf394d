"""RK4 integrator, finite-difference residuals, reconstructions, transport."""

import math

import numpy as np
import pytest

from wavesym.detsys import PowerCase
from wavesym.expr import (
    RAT0, RAT1, add, div, fn, jet, mul, param, pow_, rat, sub, substitute,
    vanishes,
)
from wavesym.liealg import VectorField
from wavesym.numverify import (
    DEFAULT_PARAMS, MAX_ODE_STEPS, SIG1_RHS, ZETA1_RHS, ZETA2_RHS, GridSpec,
    NumVerifyError, ODEProblem, compile_numeric, default_grid, fd_residual,
    first_integral_drift, flow_transport_check, reconstruct_case_i_v1,
    reconstruct_case_i_v4, reconstruct_case_ii_v1, reconstruct_case_ii_v4,
    rk4_solve, verify_reduction_numeric,
)
from wavesym import reference


def dense_residual(u, grid, f):
    """(max, rms) of the FD residual on full 3-D meshgrids: the reference the
    open-grid evaluation of fd_residual must match float for float."""
    h = grid.h
    Xg, Yg, Tg = np.meshgrid(*grid.axes(), indexing="ij")
    u0 = u(Xg, Yg, Tg)
    utt = (u(Xg, Yg, Tg + h) - 2 * u0 + u(Xg, Yg, Tg - h)) / h**2
    uxx = (u(Xg + h, Yg, Tg) - 2 * u0 + u(Xg - h, Yg, Tg)) / h**2
    uyy = (u(Xg, Yg + h, Tg) - 2 * u0 + u(Xg, Yg - h, Tg)) / h**2
    res = np.broadcast_to(utt - f(u0) * (uxx + uyy), Xg.shape)
    return float(np.max(np.abs(res))), float(np.sqrt(np.mean(res**2)))


class TestRK4:
    def test_exact_on_linear_solution(self):
        # y'' = 0 with y(0) = 0, y'(0) = 1: RK4 reproduces y = s exactly
        tr = rk4_solve(ODEProblem("0.0", 0.0, 0.0, 1.0, 1.0, 0.1))
        assert np.allclose(tr.ys, tr.xs, atol=1e-15)
        assert float(tr(0.537)) == pytest.approx(0.537, abs=1e-14)

    def test_exact_on_cubic(self):
        # y'' = 6s has solution y = s^3: exact for RK4 (degree <= 3)
        tr = rk4_solve(ODEProblem("6.0 * x", 0.0, 0.0, 0.0, 1.0, 0.05))
        assert np.allclose(tr.ys, tr.xs**3, atol=1e-13)

    def test_reproduces_quadratic_closed_form(self):
        # (p^2+1)*s2'' - 2p*s2' + 2*s2 - c/L = 0 is solved by
        # s2 = c/(2L) + a*p + b*(p^2-1); symbolic check first
        L, c_sep = param("L"), param("c_sep")
        a, b = param("a"), param("b")
        P = param("p_var")
        s2 = add(div(c_sep, mul(2, L)), mul(a, P), mul(b, sub(pow_(P, 2), RAT1)))
        from wavesym.expr import diff
        ode = add(
            mul(add(pow_(P, 2), RAT1), diff(diff(s2, P), P)),
            mul(-2, P, diff(s2, P)),
            mul(2, s2),
            mul(-1, div(c_sep, L)),
        )
        assert vanishes(ode)
        # now numerically from matching initial data
        Lv, cv, av, bv = 1.0, 1.0, 0.1, 0.05

        def closed(pp):
            return cv / (2 * Lv) + av * pp + bv * (pp * pp - 1.0)

        rhs = "(2 * x * yp - 2 * y + c / L) / (x * x + 1.0)"
        p0 = 0.3
        tr = rk4_solve(ODEProblem(rhs, p0, closed(p0), av + 2 * bv * p0, 1.2, 1e-3,
                                  consts={"c": cv, "L": Lv}))
        samples = np.linspace(p0, 1.2, 17)
        assert np.max(np.abs(tr(samples) - closed(samples))) < 1e-11

    def test_blowup_guard(self):
        with pytest.raises(NumVerifyError):
            rk4_solve(ODEProblem("y * y", 0.0, 3.0, 0.0, 10.0, 1e-3, bound=1e3))

    def test_rhs_overflow_is_a_bound_failure(self):
        # y'' = e^y from y = 700: the second stage's e^(~1e297) overflows in
        # math.exp before the per-step bound check can see the state
        with pytest.raises(NumVerifyError, match=r"exceeded bound 1000000.0 at x=0.001$"):
            rk4_solve(ODEProblem("exp(y)", 0.0, 700.0, 0.0, 1.0, 1e-3))

    def test_matches_textbook_loop(self):
        def rhs(s, y, yp):
            return -(math.exp(-y) + 2 * (s * yp - 1.0)) / (s * s + 1.0) + y * yp

        x0, x1, step = 0.3, 1.1, 7e-3
        n = max(1, int(math.ceil((x1 - x0) / step)))
        h = (x1 - x0) / n
        x, y, yp = x0, 0.2, -0.4
        xs, ys, yps = [x], [y], [yp]
        for i in range(1, n + 1):
            k1y, k1p = yp, rhs(x, y, yp)
            k2y = yp + 0.5 * h * k1p
            k2p = rhs(x + 0.5 * h, y + 0.5 * h * k1y, yp + 0.5 * h * k1p)
            k3y = yp + 0.5 * h * k2p
            k3p = rhs(x + 0.5 * h, y + 0.5 * h * k2y, yp + 0.5 * h * k2p)
            k4y = yp + h * k3p
            k4p = rhs(x + h, y + h * k3y, yp + h * k3p)
            y = y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
            yp = yp + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
            x = x0 + i * h
            xs.append(x)
            ys.append(y)
            yps.append(yp)
        src = "-(exp(-y) + 2 * (x * yp - 1.0)) / (x * x + 1.0) + y * yp"
        tr = rk4_solve(ODEProblem(src, x0, 0.2, -0.4, x1, step))
        assert np.array_equal(tr.xs, xs)
        assert np.array_equal(tr.ys, ys)
        assert np.array_equal(tr.yps, yps)

    def test_bad_step_or_interval_refused(self):
        with pytest.raises(NumVerifyError, match="step must be positive"):
            ODEProblem("0.0", 0.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(NumVerifyError, match="empty integration interval"):
            ODEProblem("0.0", 1.0, 0.0, 0.0, 1.0)

    def test_step_cap(self):
        # refused before any array is allocated; the cap itself is allowed
        rhs = "0.0"
        with pytest.raises(NumVerifyError, match="RK4 steps"):
            ODEProblem(rhs, 0.0, 0.0, 0.0, 1.0, 0.5 / MAX_ODE_STEPS)
        with pytest.raises(NumVerifyError, match="RK4 steps"):
            ODEProblem(rhs, 0.0, 0.0, 0.0, 1.0, 1e-320)
        ODEProblem(rhs, 0.0, 0.0, 0.0, 1.0, 1.0 / MAX_ODE_STEPS)

    def test_first_integral_drift_order(self):
        out = first_integral_drift()
        assert 3.5 <= out["order_estimate"] <= 4.5

    def test_dense_eval_outside_interval(self):
        tr = rk4_solve(ODEProblem("0.0", 0.0, 0.0, 1.0, 1.0, 0.1))
        with pytest.raises(NumVerifyError):
            tr(1.5)


class TestSeparatedODEs:
    """Each RK4 right-hand side is its reference ODE solved for the top
    derivative.  The source is parsed as an expression (its integer
    literals give the same IEEE operations as 1.0, 2.0), with x, y, yp
    bound to the ODE's variable, solution and first derivative."""

    @pytest.mark.parametrize("rhs, ode", [
        (ZETA1_RHS, reference.separation_case_i(param("K"), param("c"), param("c1"))["ode_r"]),
        (ZETA2_RHS, reference.separation_case_i(param("K"), param("c"), param("c1"))["ode_s"]),
        (SIG1_RHS, reference.separation_case_ii(param("L"), param("c_sep"))["ode_q"]),
    ], ids=["zeta1", "zeta2", "sig1"])
    def test_rhs_is_the_reference_ode(self, rhs, ode):
        from wavesym.expr import X, Y
        from wavesym.parser import parse
        from wavesym.reduction import _solved_for_top

        top, value = _solved_for_top(ode)
        sol = lambda k: fn(top.name, top.args, (k,))  # noqa: E731
        parsed = substitute(parse(rhs), {X: top.args[0], Y: sol(0), param("yp"): sol(1)})
        assert top == sol(2)
        assert vanishes(sub(parsed, value))


class TestFDResidual:
    def test_constant_solution_zero_residual(self):
        grid = GridSpec()
        r = fd_residual(lambda x, y, t: np.full_like(x, 2.0), grid, lambda u: np.exp(u))
        assert r.max_residual == 0.0
        assert r.passed

    def test_static_harmonic_control(self):
        # u = x: u_tt = 0 and u_xx + u_yy = 0, so the residual vanishes
        grid = GridSpec()
        r = fd_residual(lambda x, y, t: x, grid, lambda u: 3.0 * u)
        assert r.max_residual < 1e-12

    def test_singular_set_intrusion_reported(self):
        grid = GridSpec(box=((0.5, 1.0), (0.5, 1.0), (-0.01, 0.01)))
        with pytest.raises(NumVerifyError) as err:
            fd_residual(lambda x, y, t: np.log(x / t), grid, lambda u: -np.exp(u))
        # the first five non-finite points in C order: t < 0 at x = y = 0.5
        assert str(err.value) == (
            "singular-set intrusion at grid points [(0.5, 0.5, -0.01), "
            "(0.5, 0.5, -0.009000000000000001), (0.5, 0.5, -0.008), "
            "(0.5, 0.5, -0.007), (0.5, 0.5, -0.006)]")

    @pytest.mark.parametrize("u,n", [
        (lambda x, y, t: x**3, (21, 21, 21)),
        # e^x at 31x17x9: the rms over the 31 distinct values alone differs
        # from the dense mean in the last bit
        (lambda x, y, t: np.exp(x), (31, 17, 9)),
    ], ids=["x^3", "exp"])
    def test_one_axis_solution_matches_dense_grid(self, u, n):
        # u ignores y and t: the residual broadcasts from (n_x, 1, 1), and
        # its rms must still average all n_x*n_y*n_t points in dense order
        grid = GridSpec(n=n)
        f = lambda uv: np.ones_like(uv)  # noqa: E731
        r = fd_residual(u, grid, f)
        assert (r.max_residual, r.rms_residual) == dense_residual(u, grid, f)
        assert r.max_residual > 1.0

    def test_tightened_tolerance_fails(self):
        r = verify_reduction_numeric("i", "v4", tol=1e-12)
        assert not r.passed  # finite-difference floor sits above 1e-12

    def test_coarse_grid_suppresses_convergence(self):
        grid = GridSpec(box=default_grid("i", "v4").box, n=(5, 5, 5))
        r = verify_reduction_numeric("i", "v4", grid=grid)
        assert r.convergence_factor is None
        assert any("suppressed" in w for w in r.warnings)


class TestReconstructions:
    @pytest.mark.parametrize("case_id,gen", [("i", "v1"), ("i", "v4"), ("ii", "v1"), ("ii", "v4")])
    def test_residual_within_tolerance(self, case_id, gen):
        r = verify_reduction_numeric(case_id, gen)
        assert r.passed, (case_id, gen, r.max_residual)
        assert 3.5 <= r.convergence_factor <= 4.5

    @pytest.mark.parametrize("case_id,gen,build", [
        ("i", "v1", reconstruct_case_i_v1), ("i", "v4", reconstruct_case_i_v4),
        ("ii", "v1", reconstruct_case_ii_v1), ("ii", "v4", reconstruct_case_ii_v4),
    ])
    def test_open_grid_matches_dense_grid(self, case_id, gen, build):
        grid = default_grid(case_id, gen)
        u, f = build(dict(DEFAULT_PARAMS[case_id, gen]), grid)
        r = fd_residual(u, grid, f)
        assert (r.max_residual, r.rms_residual) == dense_residual(u, grid, f)

    def test_zero_separation_constant_degenerates_cleanly(self):
        # c1 = 0 makes zeta2'' = 0 and zeta1 integrable; still a solution
        r = verify_reduction_numeric("i", "v1", params={"c1": 0.0})
        assert r.passed

    def test_violated_constraint_detected(self):
        grid = default_grid("i", "v4")
        p = dict(DEFAULT_PARAMS[("i", "v4")])
        p["K"] = -1.0 / 1.1  # 10% violation of 1 + K*(m^2+p^2) = 0
        u, f = reconstruct_case_i_v4(p, grid)
        r = fd_residual(u, grid, f)
        assert r.max_residual >= 1e-3


class TestFlowTransport:
    def setup_method(self):
        self.grid = default_grid("i", "v4")
        p = dict(DEFAULT_PARAMS[("i", "v4")])
        self.u, self.f = reconstruct_case_i_v4(p, self.grid)
        self.base = fd_residual(self.u, self.grid, self.f)

    def test_translation_transport(self):
        v2 = VectorField(RAT1, RAT0, RAT0, RAT0)
        out = flow_transport_check(self.u, self.f, v2, 0.3, self.grid, base_report=self.base)
        assert out["within_factor"]

    def test_all_reference_generators(self):
        for v in reference.case_i_basis(rat(1)):
            out = flow_transport_check(self.u, self.f, v, 0.3, self.grid, base_report=self.base)
            assert out["within_factor"], str(v)

    def test_transport_matches_dense_grid(self):
        # the scaling x*d/dx + y*d/dy + 2c*d/du, rebuilt here as flow_transport_check
        # builds it, measured on dense meshgrids
        from wavesym.expr import base
        from wavesym.liealg import EPS, flow

        v = reference.case_i_basis(rat(1))[0]
        eps, fm = 0.3, flow(v)
        atoms = (base("x"), base("y"), base("t"), jet(""), EPS)
        fwd = compile_numeric(fm.maps[3], atoms)
        inv = [compile_numeric(m, atoms) for m in fm.inverse().maps[:3]]

        def u_t(x, y, t):
            w = [g(x, y, t, np.zeros_like(x), eps) for g in inv]
            return fwd(*w, self.u(*w), eps)

        out = flow_transport_check(self.u, self.f, v, eps, self.grid, base_report=self.base)
        tr = out["transported"]
        assert (tr.max_residual, tr.rms_residual) == dense_residual(u_t, self.grid, self.f)

    def test_non_symmetry_control(self):
        w = VectorField(RAT0, RAT0, RAT0, jet(""))
        out = flow_transport_check(self.u, self.f, w, 0.3, self.grid, base_report=self.base)
        assert out["transported"].max_residual >= 1e-2
        assert out["ratio"] >= 1e3


class TestCompile:
    def test_matches_eval(self):
        from wavesym.expr import X, Y, eval_numeric
        e = add(mul(2, X, Y), pow_(X, -2))
        fnc = compile_numeric(e, (X, Y))
        assert fnc(1.7, 0.3) == pytest.approx(eval_numeric(e, {X: 1.7, Y: 0.3}))

    def test_vectorized(self):
        from wavesym.expr import X, exp_
        fnc = compile_numeric(exp_(mul(2, X)), (X,))
        xs = np.array([0.0, 1.0])
        assert np.allclose(fnc(xs), np.exp(2 * xs))

    def test_opaque_rejected(self):
        from wavesym.expr import X
        with pytest.raises(NumVerifyError):
            compile_numeric(fn("h", [X]), (X,))
