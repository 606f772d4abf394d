"""RK4 integrator, finite-difference residuals, reconstructions, transport."""

import math
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest

from wavesym.detsys import PowerCase
from wavesym.expr import (
    RAT0, RAT1, add, div, fn, jet, mul, param, pow_, rat, sub, substitute,
    vanishes,
)
from wavesym.liealg import VectorField
from wavesym.numverify import (
    MAX_ODE_STEPS, RECENT_QUERIES, RECONSTRUCTIONS, SIG1_RHS, SLAB_POINTS, SQUARES_LIMIT,
    ZETA1_RHS, ZETA2_RHS, GridSpec, NumVerifyError, ODEProblem, Trajectory, _recent,
    compile_numeric, fd_residual, first_integral_drift, flow_transport_check,
    ode_margins, reconstruct_case_i_v4, rk4_solve, verify_reduction_numeric,
)
from wavesym.ode import _rk4_loop, _trim
from wavesym import numverify, ode, reference


def dense_residual_values(u, grid, f):
    """The FD residual on full 3-D meshgrids, one value per grid point."""
    h = grid.h
    Xg, Yg, Tg = np.meshgrid(*grid.axes(), indexing="ij")
    u0 = u(Xg, Yg, Tg)
    utt = (u(Xg, Yg, Tg + h) - 2 * u0 + u(Xg, Yg, Tg - h)) / h**2
    uxx = (u(Xg + h, Yg, Tg) - 2 * u0 + u(Xg - h, Yg, Tg)) / h**2
    uyy = (u(Xg, Yg + h, Tg) - 2 * u0 + u(Xg, Yg - h, Tg)) / h**2
    return np.broadcast_to(utt - f(u0) * (uxx + uyy), Xg.shape)


def dense_residual(u, grid, f):
    """(max, rms) of the FD residual on full 3-D meshgrids: the reference the
    open-grid evaluation of fd_residual must match float for float."""
    res = dense_residual_values(u, grid, f)
    return float(np.max(np.abs(res))), float(np.sqrt(np.mean(res**2)))


def searchsorted_eval(tr, x):
    """Dense evaluation of a trajectory from its stored step positions, by
    np.searchsorted: the reference Trajectory.__call__ must match bit for
    bit."""
    xs = tr.xs
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
    h = xs[idx + 1] - xs[idx]
    th = (x - xs[idx]) / h
    h00 = (1 + 2 * th) * (1 - th) ** 2
    h10 = th * (1 - th) ** 2
    h01 = th * th * (3 - 2 * th)
    h11 = th * th * (th - 1)
    return (h00 * tr.ys[idx] + h10 * h * tr.yps[idx]
            + h01 * tr.ys[idx + 1] + h11 * h * tr.yps[idx + 1])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# The RK4 loop as it was before it left out the x bookkeeping of right-hand
# sides that never read x and bounded the state by -bound < y < bound: the
# reference the compiled loop must match bit for bit
REFERENCE_RK4_LOOP = """\
def _loop(_x0, _y, _yp, _h, _n, _bound, exp, {consts}):
    _hh, _h6 = 0.5 * _h, _h / 6.0
    _ys, _yps = _array("d", (_y,)) * (_n + 1), _array("d", (_yp,)) * (_n + 1)
    _x, _i = _x0, 0
    try:
        for _i in range(1, _n + 1):
            x, y, yp = _x, _y, _yp
            _k1y = yp
            _k1p = {rhs}
            x, y, yp = _x + _hh, _y + _hh * _k1y, _yp + _hh * _k1p
            _k2y = yp
            _k2p = {rhs}
            y, yp = _y + _hh * _k2y, _yp + _hh * _k2p
            _k3y = yp
            _k3p = {rhs}
            x, y, yp = _x + _h, _y + _h * _k3y, _yp + _h * _k3p
            _k4y = yp
            _k4p = {rhs}
            _y = _y + _h6 * (_k1y + 2.0 * _k2y + 2.0 * _k3y + _k4y)
            _yp = _yp + _h6 * (_k1p + 2.0 * _k2p + 2.0 * _k3p + _k4p)
            _x = _x0 + _i * _h
            if not (abs(_y) < _bound and abs(_yp) < _bound):
                return _ys, _yps, _i
            _ys[_i] = _y
            _yps[_i] = _yp
    except OverflowError:
        return _ys, _yps, _i
    return _ys, _yps, None
"""


def reference_rk4_loop(rhs, consts):
    scope = {"_array": array}
    exec(REFERENCE_RK4_LOOP.format(rhs=f"({rhs})", consts=", ".join(consts)), scope)
    return scope["_loop"]


FLOATS = {"K": 1.0, "c": 1.0, "c1": 1.0, "c_sep": 1.0}
# an int literal beside x, y or yp, a literal product, a division, and
# invariant subexpressions whose literals fold only beside float constants
LITERALS_RHS = "(K + 1 + 1 - K) * c1 * y + 3 * x * yp - (c - 1) / (x + 1) + 2 * 3 + yp / c"
INTS_2_53 = {"K": 2**53, "c": 3, "c1": 2}
FLOATS_2_53 = {name: float(value) for name, value in INTS_2_53.items()}


# 61 points per axis: fd_residual fills 61 // rows slabs of x rows and a
# shorter last one
N61 = (61, 61, 61)


def slab_rows(n):
    """The x rows per slab of fd_residual on a grid of n points."""
    return max(1, SLAB_POINTS // (n[1] * n[2]))


def test_61_grid_spans_slabs_with_a_short_last_one():
    rows = slab_rows(N61)
    assert N61[0] >= 3 * rows and N61[0] % rows
    assert slab_rows((21, 21, 21)) >= 21  # the default grids are one slab


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

    @pytest.mark.parametrize("rhs, x0, y0, x1, h, bound, failed, consts", [
        (ZETA1_RHS, 0.3, 0.0, 0.8, 1e-4, 1e6, None, FLOATS),
        (ZETA2_RHS, 0.9, 0.0, 1.6, 1e-4, 1e6, None, FLOATS),
        (SIG1_RHS, 0.9, 0.5, 1.6, 1e-4, 1e6, None, FLOATS),
        ("-(exp(-y) + 2 * (x * yp - 1.0)) / (x * x + 1.0) + y * yp", 0.3, 0.2, 1.1, 7e-3,
         1e6, None, FLOATS),
        # the bound crossed, reading x and not
        ("x * y * y", 1.0, 3.0, 10.0, 1e-3, 1e3, 1224, FLOATS),
        ("y * y", 0.0, 3.0, 10.0, 1e-3, 1e3, 1536, FLOATS),
        # exp overflows before the bound is crossed, reading x and not
        ("exp(x * y)", 1.0, 700.0, 2.0, 1e-3, 1e6, 1, FLOATS),
        ("exp(y)", 0.0, 700.0, 1.0, 1e-3, 1e6, 1, FLOATS),
        # int literals beside variables and in invariant subexpressions,
        # which int constants keep exact: K + 1 + 1 - K is 2 for K = 2^53,
        # 0.0 in floats
        (LITERALS_RHS, 0.3, 0.2, 1.1, 7e-3, 1e6, None, FLOATS_2_53),
        (LITERALS_RHS, 0.3, 0.2, 1.1, 7e-3, 1e6, None, INTS_2_53),
        (ZETA2_RHS, 0.9, 0.0, 1.6, 1e-3, 1e6, None, {"K": 2, "c": 3, "c1": 5}),
    ], ids=["zeta1", "zeta2", "sig1", "x-dependent", "bound-x", "bound", "overflow-x",
            "overflow", "literals-float", "literals-int", "zeta2-int"])
    def test_loop_matches_the_reference_loop(self, rhs, x0, y0, x1, h, bound, failed, consts):
        # the same states bit for bit, and the same failure step
        n = math.ceil((x1 - x0) / h)
        args = (x0, y0, -0.4, (x1 - x0) / n, n, bound, math.exp)
        ys, yps, step = _rk4_loop(rhs, consts, args[:3])(*args, **consts)
        ref_ys, ref_yps, ref_step = reference_rk4_loop(rhs, consts)(*args, **consts)
        assert (step, ref_step) == (failed, failed)
        assert ys.tobytes() == ref_ys.tobytes() and yps.tobytes() == ref_yps.tobytes()

    def test_float_constants_trim_the_right_hand_side(self):
        # int literals beside a float fold to floats; subexpressions of
        # constants under +, -, * are computed once, before the loop
        assert _trim(ZETA1_RHS, FLOATS) == (
            "-(c1 * exp(-y / c) + 2.0 * (x * yp - c)) / (x * x + 1.0)", [])
        assert _trim(ZETA2_RHS, FLOATS) == ("_c0 * exp(y / c)", ["-K * c1"])
        assert _trim(SIG1_RHS, FLOATS) == (SIG1_RHS, [])
        assert _trim(LITERALS_RHS, FLOATS) == (
            "_c0 * y + 3.0 * x * yp - _c1 / (x + 1.0) + 2 * 3 + yp / c",
            ["(K + 1.0 + 1.0 - K) * c1", "c - 1.0"])

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

    def test_dense_eval_of_a_nan_query_is_nan(self):
        # 0/0 on a singular set: no interval, no error, a NaN the residual
        # reports as an intrusion
        tr = rk4_solve(ODEProblem("-y", 0.0, 1.0, 0.0, 1.0, 0.1))
        assert same_bits(tr(np.array([np.nan, 0.5])), searchsorted_eval(tr, [np.nan, 0.5]))
        assert np.isnan(tr(np.nan))

    def test_dense_eval_matches_the_searchsorted_evaluation(self):
        # step positions computed as x0 + float(i) * h, each query's interval
        # from ceil((x - x0) / h) corrected by one step: the same floats as
        # stored positions and np.searchsorted give, at every step position,
        # one ulp either side of it, between steps and at both ends
        from hypothesis import HealthCheck, given, settings, strategies as st

        @settings(derandomize=True, max_examples=300, deadline=None,
                  database=None, suppress_health_check=list(HealthCheck))
        @given(st.floats(-1e3, 1e3), st.floats(1e-3, 50.0), st.integers(1, 2000),
               st.floats(0.2, 1.0))
        def check(x0, span, steps, last):
            # steps - 1 whole steps and a last one of `last` of a step
            step = span / (steps - 1 + last)
            problem = ODEProblem("-y", x0, 1.0, 0.5, x0 + span, step)
            tr = rk4_solve(problem)
            n = len(tr.ys) - 1
            assert tr.h == (problem.x1 - x0) / n
            assert np.array_equal(tr.xs, x0 + np.arange(n + 1) * tr.h)
            xs = tr.xs
            queries = np.concatenate([
                xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf),
                (xs[:-1] + xs[1:]) / 2, [xs[0] - 1e-12, xs[-1] + 1e-12]])
            queries = queries[(queries >= xs[0] - 1e-12) & (queries <= xs[-1] + 1e-12)]
            assert same_bits(tr(queries), searchsorted_eval(tr, queries))
            assert same_bits(tr(queries[-1]), searchsorted_eval(tr, queries[-1]))

        check()


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

    def test_negative_zero_residual_reports_zero(self):
        # u is +0.0 on the grid's t values and -0.0 a step off them, so
        # u_tt and every residual are -0.0: the maximum is 0.0, not -0.0
        grid = GridSpec(n=(3, 3, 3))
        on_grid = grid.axes()[2]
        r = fd_residual(lambda x, y, t: np.where(np.isin(t, on_grid), 0.0, -0.0),
                        grid, lambda u: 1.0)
        assert math.copysign(1.0, r.max_residual) == 1.0
        assert (r.max_residual, r.rms_residual, r.passed) == (0.0, 0.0, True)

    @staticmethod
    def off_grid_bump(grid, scale):
        """(u, f) whose residual is scale * p(x), p rising from -1 to 1 over
        the x axis: u is 0.0 on the grid's t values and scale/2 * p(x) off
        them, f is 0, and the grid's step is 1, so u_tt = scale * p(x)."""
        on_grid = grid.axes()[2]
        lo, hi = grid.box[0]

        def u(x, y, t):
            return np.where(np.isin(t, on_grid), 0.0, scale / 2 * ((2 * x - lo - hi) / (hi - lo)))

        return u, lambda uv: 0.0 * uv

    def test_squares_in_place_up_to_the_guard(self):
        # the largest residual whose squares may be taken in place, and the
        # next float up, which takes res**2: both give the rms of res**2
        grid = GridSpec(n=(5, 3, 3), h=1.0)
        size = math.prod(grid.n)
        mx = math.sqrt(SQUARES_LIMIT / size)
        while mx * mx * size > SQUARES_LIMIT:
            mx = math.nextafter(mx, 0.0)
        assert math.nextafter(mx, math.inf) ** 2 * size > SQUARES_LIMIT
        for scale in (mx, math.nextafter(mx, math.inf)):
            u, f = self.off_grid_bump(grid, scale)
            res = np.array(dense_residual_values(u, grid, f))
            assert float(np.max(np.abs(res))) == scale
            r = fd_residual(u, grid, f)
            assert r.max_residual == scale
            assert same_bits(r.rms_residual, np.sqrt(np.mean(res**2)))

    def test_overflowing_squares_take_the_scaled_rms(self):
        grid = GridSpec(n=(5, 3, 3), h=1.0)
        u, f = self.off_grid_bump(grid, 1e200)
        res = np.array(dense_residual_values(u, grid, f))
        mx = float(np.max(np.abs(res)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = fd_residual(u, grid, f)
        assert r.max_residual == mx == 1e200
        assert same_bits(r.rms_residual, mx * np.sqrt(np.mean((res / mx) ** 2)))

    def test_static_harmonic_control(self):
        # u = x: u_tt = 0 and u_xx + u_yy = 0, so the residual vanishes
        grid = GridSpec()
        r = fd_residual(lambda x, y, t: x, grid, lambda u: 3.0 * u)
        assert r.max_residual < 1e-12

    def test_writes_neither_the_axes_nor_what_u_returned(self, monkeypatch):
        # one x row a slab, so u gets views of the x axis; u keeps each of
        # its arguments and results with a copy: u = e^x*y + t^2, u = x (its
        # argument), and u returning one cached array on every call
        monkeypatch.setattr(numverify, "SLAB_POINTS", 4 * 3)
        grid = GridSpec(n=(5, 4, 3))
        seen = []

        def keep(a):
            seen.append((a, np.array(a, copy=True)))
            return a

        def u(x, y, t):
            keep(x), keep(y), keep(t)
            return keep(np.exp(x) * y + t * t)

        cached = np.full((1, 1, 1), 2.0)
        for fn in (u, lambda x, y, t: keep(x), lambda x, y, t: keep(cached)):
            fd_residual(fn, grid, lambda uv: 3.0 * uv)
        assert len(seen) == 5 * 7 * 6
        assert all(same_bits(a, copy) for a, copy in seen)

    def test_slab_size_changes_no_report_byte(self, tmp_path, monkeypatch):
        # verify's report and CSVs with one x row a slab and with the whole
        # box in one slab
        from wavesym.cli import main

        out = tmp_path / "report.json"
        files = []
        for slab in (7 * 7, 7 * 7 * 7):
            monkeypatch.setattr(numverify, "SLAB_POINTS", slab)
            assert main(["verify", "--grid", "7,7,7", "--format", "json",
                         "--out", str(out)]) == 0
            files.append({p.name: p.read_bytes() for p in tmp_path.iterdir()})
            for p in tmp_path.iterdir():
                p.unlink()
        assert len(files[0]) == 5 and files[0] == files[1]

    def test_singular_set_intrusion_reported(self):
        grid = GridSpec(box=((0.5, 1.0), (0.5, 1.0), (-0.01, 0.01)))
        with pytest.raises(NumVerifyError) as err:
            fd_residual(lambda x, y, t: np.log(x / t), grid, lambda u: -np.exp(u))
        # the first five non-finite points in C order: t < 0 at x = y = 0.5
        assert str(err.value) == (
            "singular-set intrusion at grid points [(0.5, 0.5, -0.01), "
            "(0.5, 0.5, -0.009000000000000001), (0.5, 0.5, -0.008), "
            "(0.5, 0.5, -0.007), (0.5, 0.5, -0.006)]")

    def test_singular_set_in_a_later_slab_reported(self):
        # log(1.9 - x) is first non-finite at x row 54 (x = 1.9), past the
        # first slab; the message lists the same points as the dense grid
        grid = GridSpec(box=((1.0, 2.0), (0.5, 1.0), (1.0, 2.0)), n=N61)
        assert grid.axes()[0][54] == 1.9 and 54 >= slab_rows(N61)
        with pytest.raises(NumVerifyError) as err:
            fd_residual(lambda x, y, t: np.log(1.9 - x) * t, grid, np.ones_like)
        assert str(err.value) == (
            "singular-set intrusion at grid points [(1.9, 0.5, 1.0), "
            "(1.9, 0.5, 1.0166666666666666), (1.9, 0.5, 1.0333333333333334), "
            "(1.9, 0.5, 1.05), (1.9, 0.5, 1.0666666666666667)]")

    @pytest.mark.parametrize("u,n", [
        (lambda x, y, t: x**3, (21, 21, 21)),
        # e^x at 31x17x9: the rms over the 31 distinct values alone differs
        # from the dense mean in the last bit
        (lambda x, y, t: np.exp(x), (31, 17, 9)),
        (lambda x, y, t: x**3, N61),
        # u ignores x: every slab's residual broadcasts along its x rows
        (lambda x, y, t: y**3, N61),
    ], ids=["x^3", "exp", "x^3-slabs", "y^3-slabs"])
    def test_one_axis_solution_matches_dense_grid(self, u, n):
        # u depends on one axis: the residual broadcasts to the box, and
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
        grid = GridSpec(box=RECONSTRUCTIONS["i", "v4"].grid.box, n=(5, 5, 5))
        r = verify_reduction_numeric("i", "v4", grid=grid)
        assert r.convergence_factor is None
        assert any("suppressed" in w for w in r.warnings)


class TestReconstructions:
    def test_table_follows_the_reduction_names(self):
        # verify re-checks the reductions reduce derives, in their order
        from wavesym.reduction import REDUCTION_NAMES

        assert list(RECONSTRUCTIONS) == list(REDUCTION_NAMES)
        # the numpy-free defaults and the builders share those keys
        assert list(ode.DEFAULTS) == list(numverify.BUILDERS) == list(REDUCTION_NAMES)

    @pytest.mark.parametrize("case_id,gen", list(RECONSTRUCTIONS))
    @pytest.mark.parametrize("params, names", [
        ({"e1": 2.0}, "e1, e2"), ({"e2": 1.0}, "e1, e2"), ({"m": 0.0, "p": 0.0}, "m, p"),
    ], ids=["e1=2", "e2=1", "m=p=0"])
    def test_parameter_rules_checked_before_building(
            self, monkeypatch, case_id, gen, params, names):
        def build(*args):
            raise AssertionError("built")

        rec = RECONSTRUCTIONS[case_id, gen]
        monkeypatch.setitem(RECONSTRUCTIONS, (case_id, gen), rec._replace(build=build))
        with pytest.raises(NumVerifyError, match=f"^{names}: "):
            verify_reduction_numeric(case_id, gen, params=params)

    def test_rule_message_names_the_caller(self):
        with pytest.raises(NumVerifyError) as err:
            verify_reduction_numeric("ii", "v4", params={"e1": 0.5})
        assert str(err.value) == (
            "e1, e2: the case ii reconstructions of verify_reduction_numeric "
            "need e1 = 1, e2 = 0, got e1 = 0.5, e2 = 0")

    @pytest.mark.parametrize("case_id,gen", list(RECONSTRUCTIONS))
    def test_residual_within_tolerance(self, case_id, gen):
        r = verify_reduction_numeric(case_id, gen)
        assert r.passed, (case_id, gen, r.max_residual)
        assert 3.5 <= r.convergence_factor <= 4.5

    @pytest.mark.parametrize("case_id,gen,build", [
        (case_id, gen, rec.build) for (case_id, gen), rec in RECONSTRUCTIONS.items()])
    def test_open_grid_matches_dense_grid(self, case_id, gen, build):
        # the default grid is one slab, 61^3 is several
        for n in (None, N61):
            grid = RECONSTRUCTIONS[case_id, gen].grid
            grid = grid._replace(n=n or grid.n)
            u, f = build(dict(RECONSTRUCTIONS[case_id, gen].params), grid)
            r = fd_residual(u, grid, f)
            assert (r.max_residual, r.rms_residual) == dense_residual(u, grid, f), n

    def test_v1_reconstructions_evaluate_each_trajectory_query_once(self, monkeypatch):
        # a slab asks z1 five distinct y/x arrays (at x, x +- h and y +- h,
        # the t shifts sharing one), and z2 or sig1 the same three t arrays
        # as every other slab
        calls = []
        evaluate = Trajectory.__call__
        monkeypatch.setattr(Trajectory, "__call__",
                            lambda tr, q: calls.append(q) or evaluate(tr, q))
        slabs = math.ceil(N61[0] / slab_rows(N61))
        for key, per_slab in ((("i", "v1"), 5), (("ii", "v1"), 0)):
            rec = RECONSTRUCTIONS[key]
            grid = rec.grid._replace(n=N61)
            u, f = rec.build(dict(rec.params), grid)
            calls.clear()
            fd_residual(u, grid, f)
            assert len(calls) == per_slab * slabs + 3, key

    def test_recent_queries_are_kept_read_only_and_bounded(self):
        calls = []
        evaluate = _recent(lambda q: calls.append(q) or q * 2.0)
        queries = [np.full(3, k / 10) for k in range(RECENT_QUERIES + 1)]
        for q in queries:
            evaluate(q)
        # the same bytes and shape hit; another shape or the evicted oldest
        # query is evaluated again
        again = evaluate(queries[1].copy())
        assert again is evaluate(queries[1]) and not again.flags.writeable
        evaluate(queries[1].reshape(3, 1))
        evaluate(queries[0])
        assert len(calls) == RECENT_QUERIES + 3

    def test_zero_separation_constant_degenerates_cleanly(self):
        # c1 = 0 makes zeta2'' = 0 and zeta1 integrable; still a solution
        r = verify_reduction_numeric("i", "v1", params={"c1": 0.0})
        assert r.passed

    def test_violated_constraint_detected(self):
        grid = RECONSTRUCTIONS["i", "v4"].grid
        p = dict(RECONSTRUCTIONS["i", "v4"].params)
        p["K"] = -1.0 / 1.1  # 10% violation of 1 + K*(m^2+p^2) = 0
        u, f = reconstruct_case_i_v4(p, grid)
        r = fd_residual(u, grid, f)
        assert r.max_residual >= 1e-3


class TestFlowTransport:
    def setup_method(self):
        self.grid = RECONSTRUCTIONS["i", "v4"].grid
        p = dict(RECONSTRUCTIONS["i", "v4"].params)
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

        for grid in (self.grid, self.grid._replace(n=N61)):
            out = flow_transport_check(self.u, self.f, v, eps, grid, base_report=self.base)
            tr = out["transported"]
            assert (tr.max_residual, tr.rms_residual) == dense_residual(u_t, grid, self.f)

    def test_non_symmetry_control(self):
        w = VectorField(RAT0, RAT0, RAT0, jet(""))
        out = flow_transport_check(self.u, self.f, w, 0.3, self.grid, base_report=self.base)
        assert out["transported"].max_residual >= 1e-2
        assert out["ratio"] >= 1e3


class TestWorkingMemory:
    """Peak bytes under tracemalloc, which counts numpy's buffers and does
    not depend on the heap's layout.  Each kernel runs once untraced so
    the traced run allocates only its own work."""

    @staticmethod
    def traced_peak(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fd_residual_holds_the_dense_residual_and_a_slab(self):
        # 1.24x the dense residual's bytes: res, squared in place for the
        # rms, and a few terms of a 2-row slab, accumulated in place; 2^15
        # point slabs of whole-term temporaries took 1.92x, a res**2 beside
        # res 2.33x, whole-box terms 6.0x
        grid = RECONSTRUCTIONS["i", "v4"].grid._replace(n=N61)
        u, f = reconstruct_case_i_v4(dict(RECONSTRUCTIONS["i", "v4"].params), grid)
        peak = self.traced_peak(lambda: fd_residual(u, grid, f))
        assert peak < 1.35 * 8 * math.prod(N61), peak

    def test_v1_check_at_61_points_an_axis(self):
        # the (i, v1) check with its refinement study: the z1, z2 states
        # (1.35 MB), the residual (1.73 MB) and a slab's terms peak at
        # 3.45 MiB; 2^15 point slabs of whole-term temporaries took 4.68 MiB
        grid = RECONSTRUCTIONS["i", "v1"].grid._replace(n=N61)
        peak = self.traced_peak(lambda: verify_reduction_numeric("i", "v1", grid=grid))
        assert peak < 3.8 * 2**20, peak / 2**20

    def test_rk4_solve_bytes_per_step(self):
        # sig1 over the (ii, v1) default grid's t range: 55,600 steps at
        # 16.1 bytes each (y, y' as float64, preallocated; positions are
        # computed); stored positions and appended states took 33.3, Python
        # float lists 90
        (_, _), (t0, t1) = ode_margins(RECONSTRUCTIONS["ii", "v1"].grid)
        problem = ODEProblem(SIG1_RHS, t0, 0.5, 0.0, t1, consts={"c_sep": 1.0})
        steps = math.ceil((t1 - t0) / problem.step)
        assert steps > 50_000
        peak = self.traced_peak(lambda: rk4_solve(problem))
        assert peak < 20 * steps, peak / steps


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
