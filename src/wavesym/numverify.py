"""Numeric back-stop for the symbolic results.

The separated ODEs of the (i, v1) reduction, zeta1 and zeta2, are solved
by their closed forms: both are Liouville's equation v'' = mu*e^v in
disguise, whose solutions are elementary.  Classical fixed-step RK4
integrates sig1 of (ii, v1), an equianharmonic Weierstrass function;
similarity solutions are reconstructed on a grid and pushed through a
central finite-difference residual of the full equation; one-parameter
flows transport verified solutions and the transported residual is
measured.  Everything is deterministic: fixed steps, fixed grids,
vectorized evaluation with a fixed reduction order.

Residuals are evaluated on an open grid: x, y and t are shaped (n,1,1),
(1,n,1) and (1,1,n), so a factor such as z1(y/x) or z2(t) is computed once
per distinct argument and only the sums broadcast to the full box.  The
stencil runs slab by slab, on SLAB_POINTS-sized blocks of whole x rows: it
accumulates u_tt in place in the slab's view of one dense (C order)
residual and u_xx, u_yy in two slab-sized buffers, so beside the residual
it holds a few small slabs.  It never writes into an array u returned, so
the v1 reconstructions answer a repeated trajectory query (z2(t) and
sig1(t) for every slab, z1(y/x) for the three t shifts) from a small
store of recent results.  Each grid point still gets the same sequence
of IEEE operations as on dense meshgrids, and the max and mean read the
dense residual, so every reported float is the dense grid's; the rms
squares it in place where no square can overflow.  RK4 writes y and y'
into array('d') states made once at their final length, 16 bytes a step
that numpy reads uncopied; a step's position is computed from the start
x0 and the step h, never stored, and not tracked at all when the
right-hand side never reads x.  A closed form keeps RK4's blow-up guard:
it is checked against the bound at the mesh points where RK4 would check
its states, and the crossing found is narrowed by bisection.

``RECONSTRUCTIONS`` holds the four similarity solutions, in the order of
``reduction.REDUCTION_NAMES``: builder, and the desk-scale default
parameters and default grid of ``ode.DEFAULTS``.  The ODE problems, their
RK4 loop, those defaults and ``check_params``, the rules on the parameters
(e1 = 1, e2 = 0; m and p not both 0) for ``verify_reduction_numeric`` and
the CLI alike, live in ``ode``, which loads no numpy, and are re-exported
here."""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np

from .expr import Expr, format_expr
from .liealg import COORDS, EPS, VectorField, flow
from .ode import (
    DEFAULTS, MAX_ODE_STEPS, ODE_PROBLEMS, SIG1_RHS, ZETA1_RHS, ZETA2_RHS, GridSpec,
    NumVerifyError, ODEProblem, check_params, integrate, ode_margins,
)

__all__ = [
    "NumVerifyError", "ODEProblem", "Trajectory", "ClosedForm", "GridSpec", "ResidualReport",
    "rk4_solve", "zeta1_closed_form", "zeta2_closed_form", "fd_residual",
    "verify_reduction_numeric", "first_integral_drift", "flow_transport_check",
    "compile_numeric", "Reconstruction", "BUILDERS", "RECONSTRUCTIONS", "check_params",
    "ode_margins", "MAX_ODE_STEPS", "SLAB_POINTS", "RECENT_QUERIES", "SQUARES_LIMIT",
    "SCAN_POINTS", "ZETA1_RHS", "ZETA2_RHS", "SIG1_RHS",
]

# fd_residual evaluates the stencil on slabs of whole x rows holding about
# this many points (at least one row), so its temporaries stay slab-sized:
# 80 KB at most, below glibc's 128 KB mmap threshold, so the heap reuses
# them from slab to slab.  A 21^3 grid is one slab, a 61^3 grid 2 x rows
SLAB_POINTS = 10_000

# the v1 reconstructions answer a trajectory query among the last this many
# distinct ones from a store (see _recent): a slab asks z1 five distinct y/x
# arrays, and the refinement study's two steps ask z2 or sig1 five t arrays
RECENT_QUERIES = 6

# fd_residual squares its residual in place for the rms when the residual's
# size times its largest square is at most this: half the largest float, so
# the rounding of the mean's partial sums cannot carry one past it either
SQUARES_LIMIT = sys.float_info.max / 2


def compile_numeric(e: Expr, arg_atoms) -> callable:
    """Compile an expression to a vectorized numpy callable of the given
    atoms (opaque function nodes are not supported here)."""
    from .expr import Base, Exp, Fn, Jet, Ln, Param, Pow, Product, Rat, Sum

    names = {}
    for i, a in enumerate(arg_atoms):
        names[a] = f"_a{i}"

    def gen(n) -> str:
        t = type(n)
        if t is Rat:
            return repr(float(n.value))
        if t in (Param, Base, Jet):
            if n not in names:
                raise NumVerifyError(f"unbound atom {format_expr(n)} in compiled expression")
            return names[n]
        if t is Sum:
            return "(" + " + ".join(gen(x) for x in n.terms) + ")"
        if t is Product:
            return "(" + " * ".join(gen(x) for x in n.factors) + ")"
        if t is Pow:
            return f"({gen(n.expbase)}) ** {repr(float(n.exp))}"
        if t is Exp:
            return f"_np.exp({gen(n.arg)})"
        if t is Ln:
            return f"_np.log({gen(n.arg)})"
        if t is Fn:
            raise NumVerifyError("opaque function in numeric compilation")
        raise NumVerifyError(f"cannot compile node {n!r}")

    src = f"lambda {', '.join(names[a] for a in arg_atoms)}, _np=np: {gen(e)}"
    return eval(src, {"np": np})


class Trajectory(namedtuple("Trajectory", "x0 h ys yps")):
    """RK4 states: y and y' at every step, step i at x0 + float(i) * h.

    No positions are stored: each is computed where it is needed, the same
    float as ``x0 + np.arange(n + 1) * h`` holds at index i."""

    __slots__ = ()

    @property
    def xs(self):
        """The step positions, as one array."""
        return self.x0 + np.arange(len(self.ys)) * self.h

    def __call__(self, x):
        """Dense evaluation by cubic Hermite interpolation between steps.
        A query's step j is the first whose position is >= x (the index
        ``np.searchsorted(xs, x)`` gives), estimated by ceil((x - x0) / h)
        and corrected by one step against the positions themselves."""
        x = np.asarray(x, dtype=float)
        x0, n = self.x0, len(self.ys) - 1
        _check_inside(x, x0, x0 + n * self.h)
        # fmax and fmin give a NaN query (0/0 on a singular set) step 1,
        # where it still evaluates to NaN
        j = np.fmin(np.fmax(np.ceil((x - x0) / self.h), 1), n)
        j += x0 + j * self.h < x
        j -= x0 + (j - 1) * self.h >= x
        idx = np.clip(j - 1, 0, n - 1).astype(np.intp)
        xa = x0 + idx * self.h
        h = (x0 + (idx + 1) * self.h) - xa
        th = (x - xa) / h
        h00 = (1 + 2 * th) * (1 - th) ** 2
        h10 = th * (1 - th) ** 2
        h01 = th * th * (3 - 2 * th)
        h11 = th * th * (th - 1)
        return (
            h00 * self.ys[idx]
            + h10 * h * self.yps[idx]
            + h01 * self.ys[idx + 1]
            + h11 * h * self.yps[idx + 1]
        )


def _check_inside(x, x0: float, x1: float) -> None:
    """Refuse a query outside [x0, x1] by more than 1e-12."""
    if np.any(x < x0 - 1e-12) or np.any(x > x1 + 1e-12):
        raise NumVerifyError("evaluation outside the integrated interval")


def rk4_solve(problem: ODEProblem) -> Trajectory:
    """Classical 4th-order Runge-Kutta with a fixed step (``ode.integrate``);
    rejects the run if the state exceeds the configured bound (blow-up
    guard), or if the right-hand side overflows on the way there."""
    ys, yps = integrate(problem)
    return Trajectory(problem.x0, problem.mesh()[1], np.frombuffer(ys), np.frombuffer(yps))


class ClosedForm(namedtuple("ClosedForm", "x0 x1 y yp")):
    """The exact solution of an ODE problem on [x0, x1]: y and y' as
    functions of an array.  Called like a Trajectory, with its guard."""

    __slots__ = ()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        _check_inside(x, self.x0, self.x1)
        return self.y(x)


# Liouville's v'' = mu*e^v has e^v = 2*k^2/(|mu|*F(w)^2) and v' =
# -2*k*F'(w)/F(w) at w = k*d + w0, d the distance from the start: F is sin
# for mu > 0 and E < 0, sinh for mu > 0 and E > 0, cosh for mu < 0, and w
# itself for E = 0 (with k = 1), where E = v'^2/2 - mu*e^v is conserved and
# k = sqrt(|E|/2).  Each form as (ln|F(w)|, F'(w)/F(w)), without overflow
_LN2 = math.log(2.0)
_SIN = (lambda w: np.log(np.abs(np.sin(w))), lambda w: 1 / np.tan(w))
_RATIONAL = (lambda w: np.log(np.abs(w)), lambda w: 1 / w)
_SINH = (lambda w: np.abs(w) + np.log(-np.expm1(-2 * np.abs(w))) - _LN2,
         lambda w: 1 / np.tanh(w))
_COSH = (lambda w: np.abs(w) + np.log1p(np.exp(-2 * np.abs(w))) - _LN2, np.tanh)


def _atanh(z: float, d: float) -> float:
    """atanh(z), given d = 1 - z^2 computed without cancellation."""
    return math.copysign(0.5 * math.log1p(2 * abs(z) * (1 + abs(z)) / d), z)


def _liouville(mu: float, ev0: float, p0: float) -> tuple:
    """v'' = mu*e^v from e^v = ev0 > 0 and v' = p0 at d = 0: (v, v', ahead),
    v and v' as functions of d >= 0, and ahead the d of the first
    singularity (inf if there is none).  w0 solves F'/F = -p0/(2k) at d = 0;
    as E -> 0 the sin and sinh forms tend to the E = 0 one."""
    if mu == 0:
        v0 = math.log(ev0)
        return (lambda d: v0 + p0 * d), (lambda d: p0 + 0.0 * d), math.inf
    r0, energy = -p0 / 2, p0 * p0 / 2 - mu * ev0
    k = math.sqrt(abs(energy)) / math.sqrt(2.0)
    ahead = math.inf
    if mu < 0:
        (log_f, ratio), w0 = _COSH, _atanh(r0 / k, -mu * ev0 / energy)
    elif energy < 0:  # F vanishes at w = 0 and at w = pi
        (log_f, ratio), w0 = _SIN, math.atan(k / r0) if r0 else -math.pi / 2
        ahead = (math.pi - w0 if w0 > 0 else -w0) / k
    else:  # F vanishes at w = 0 only
        if energy == 0:
            (log_f, ratio), k, w0 = _RATIONAL, 1.0, 1 / r0
        else:
            (log_f, ratio), w0 = _SINH, _atanh(k / r0, 2 * mu * ev0 / (p0 * p0))
        if w0 < 0:
            ahead = -w0 / k
    log_a = _LN2 - math.log(abs(mu)) + 2 * math.log(k)

    def v(d):
        return log_a - 2 * log_f(k * d + w0)

    def vp(d):
        return -2 * k * ratio(k * d + w0)

    return v, vp, ahead


# the closed forms scan their problem's mesh points in blocks of this many,
# so the scan's temporaries stay small at any step
SCAN_POINTS = 1 << 14


def _bounded(problem: ODEProblem, y, yp, singular: float) -> ClosedForm:
    """The closed form y, y' of ``problem`` once it is checked against the
    bound where RK4 checks its states, at the mesh points: NumVerifyError at
    the first x where |y| or |y'| reaches it, narrowed by bisection from the
    mesh point before.  The solution is unbounded at ``singular`` (inf if
    nowhere), so that is such an x if it lies in [x0, x1]."""
    x0, bound = problem.x0, problem.bound
    n, h = problem.mesh()

    def out(x):
        return ~((np.abs(y(x)) < bound) & (np.abs(yp(x)) < bound))

    with np.errstate(all="ignore"):
        for start in range(0, n + 1, SCAN_POINTS):
            points = x0 + np.arange(start, min(start + SCAN_POINTS, n + 1)) * h
            before = points < singular
            failed = out(points) | ~before
            if failed.any():
                i = start + int(failed.argmax())
                hi = x0 + i * h if before[i - start] else singular
                break
        else:
            return ClosedForm(x0, problem.x1, y, yp)
        lo = x0 + (i - 1) * h if i else hi
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if out(mid):
                hi = mid
            else:
                lo = mid
    raise NumVerifyError(f"trajectory exceeded bound {bound} at x={float(hi)}")


def zeta2_closed_form(problem: ODEProblem) -> ClosedForm:
    """zeta2'' = -K*c1*e^(zeta2/c) solved exactly: v = zeta2/c solves
    Liouville's v'' = -(K*c1/c)*e^v.  From zeta2 = 0, zeta2' = 0 at t0 it is
    -2c*ln cosh(a*(t - t0)) with a^2 = K*c1/(2c) > 0, -2c*ln cos(b*(t - t0))
    with b^2 = -K*c1/(2c) > 0, and 0 for c1 = 0."""
    K, c, c1 = (problem.consts[name] for name in ("K", "c", "c1"))
    t0 = problem.x0
    v, vp, ahead = _liouville(-K * c1 / c, math.exp(problem.y0 / c), problem.yp0 / c)

    def y(t):
        return c * v(t - t0)

    def yp(t):
        return c * vp(t - t0)

    return _bounded(problem, y, yp, t0 + ahead)


def zeta1_closed_form(problem: ODEProblem) -> ClosedForm:
    """(s^2 + 1)*zeta1'' = -c1*e^(-zeta1/c) - 2*(s*zeta1' - c) solved exactly:
    in theta = arctan(s), v = -(zeta1 + 2c*ln cos theta)/c solves
    Liouville's v'' = (c1/c)*e^v, from v = -2*ln cos theta0 and
    v' = 2*tan theta0 when zeta1 = 0, zeta1' = 0 at s0."""
    c, c1 = problem.consts["c"], problem.consts["c1"]
    s0 = problem.x0
    theta0 = math.atan(s0)
    v, vp, ahead = _liouville(c1 / c, (1 + s0 * s0) * math.exp(-problem.y0 / c),
                              2 * s0 - problem.yp0 * (1 + s0 * s0) / c)

    def y(s):
        return c * (np.log1p(s * s) - v(np.arctan(s) - theta0))

    def yp(s):
        return c * (2 * s - vp(np.arctan(s) - theta0)) / (1 + s * s)

    end = theta0 + ahead
    return _bounded(problem, y, yp, math.tan(end) if end < math.pi / 2 else math.inf)


class ResidualReport(namedtuple(
        "ResidualReport", "max_residual rms_residual grid tol passed "
        "convergence convergence_factor warnings", defaults=((), None, ()))):
    """A finite-difference residual on ``grid``; ``convergence`` holds
    (h, max, rms) per step of the refinement study."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields in order, tuples as lists."""
        g = self.grid
        return {**self._asdict(),
                "grid": {"box": list(map(list, g.box)), "n": list(g.n), "h": g.h},
                "convergence": [list(row) for row in self.convergence],
                "warnings": list(self.warnings)}


def fd_residual(u, grid: GridSpec, f, tol: float = 1e-6, h: float | None = None) -> ResidualReport:
    """Central second differences of u on the grid box; residual of
    u_tt - f(u)*(u_xx + u_yy) sampled at every grid point of an open grid.
    Never writes into the grid axes or into an array u returned."""
    h = grid.h if h is None else h
    axes = grid.axes()
    Xg, Yg, Tg = np.meshgrid(*axes, indexing="ij", sparse=True)
    Yp, Ym, Tp, Tm = Yg + h, Yg - h, Tg + h, Tg - h
    # the dense C-order residual, so the mean sums in the dense grid's order;
    # the stencil fills it a slab of x rows at a time, u_tt in the slab's
    # own view and u_xx, u_yy in two slab-sized buffers
    res = np.empty(tuple(map(len, axes)))
    rows = max(1, SLAB_POINTS // (len(axes[1]) * len(axes[2])))
    uxx_buf, uyy_buf = np.empty_like(res[:rows]), np.empty_like(res[:rows])
    # singular-set intrusion shows up as non-finite values, reported below;
    # suppress the intermediate numpy warnings it would cause
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in range(0, len(axes[0]), rows):
            X = Xg[i:i + rows]
            utt, uxx, uyy = res[i:i + rows], uxx_buf[:len(X)], uyy_buf[:len(X)]
            u0 = u(X, Yg, Tg)
            two_u0 = 2 * u0
            _second_difference(utt, u, (X, Yg, Tp), two_u0, (X, Yg, Tm), h)
            _second_difference(uxx, u, (X + h, Yg, Tg), two_u0, (X - h, Yg, Tg), h)
            _second_difference(uyy, u, (X, Yp, Tg), two_u0, (X, Ym, Tg), h)
            uxx += uyy
            uxx *= f(u0)
            utt -= uxx
    # the extremes propagate a NaN, so both are finite only if every point is
    hi, lo = res.max(), res.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        bad = np.argwhere(~np.isfinite(res))[:5]
        pts = [tuple(float(a[k]) for a, k in zip(axes, i)) for i in bad]
        raise NumVerifyError(f"singular-set intrusion at grid points {pts}")
    # the largest |res| without a residual-sized temporary; abs makes the
    # maximum of an all -0.0 residual 0.0
    mx = abs(float(max(hi, -lo)))
    if mx * mx * res.size <= SQUARES_LIMIT:
        # no square and no partial sum can overflow: square res in place
        rms = float(np.sqrt(np.mean(np.square(res, out=res))))
    else:
        with np.errstate(over="ignore"):
            rms = float(np.sqrt(np.mean(res**2)))
        if np.isinf(rms):
            # the squares overflow; scaled by the maximum they cannot
            rms = mx * float(np.sqrt(np.mean((res / mx) ** 2)))
    return ResidualReport(mx, rms, grid, tol, mx <= tol)


def _second_difference(out, u, ahead, two_u0, behind, h: float) -> None:
    """out = ((u(*ahead) - 2*u0) + u(*behind)) / h**2, computed in out, one
    value of u alive at a time."""
    np.subtract(u(*ahead), two_u0, out=out)
    out += u(*behind)
    out /= h**2


def _with_convergence(u, grid, f, tol) -> ResidualReport:
    """Residual at the grid's step plus a convergence study of one halving,
    from twice the step down TO it.  Refining below ~5e-4 would push the
    stencil into the accumulated-roundoff floor of the table-backed
    solutions, so the study stays in the truncation-dominated regime."""
    report = fd_residual(u, grid, f, tol)
    if min(grid.n) < 7:
        return report._replace(
            warnings=("convergence-order estimate suppressed: grid too coarse",))
    coarse = fd_residual(u, grid, f, tol, h=grid.h * 2)
    return report._replace(
        convergence=[(grid.h * 2, coarse.max_residual, coarse.rms_residual),
                     (grid.h, report.max_residual, report.rms_residual)],
        convergence_factor=(
            coarse.max_residual / report.max_residual if report.max_residual else None))


def _recent(tr: Trajectory):
    """tr's dense evaluation, answering a query of the same shape and bytes
    as one of the last RECENT_QUERIES distinct queries with the read-only
    result computed for it.  fd_residual asks z2(t) and sig1(t) the same
    three t arrays for every slab and x or y shift, and z1(y/x) the same
    y/x array for the three t shifts."""
    store = {}

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        key = q.shape, q.tobytes()
        if key not in store:
            if len(store) == RECENT_QUERIES:
                del store[next(iter(store))]
            value = store[key] = np.asarray(tr(q))
            value.flags.writeable = False
        return store[key]

    return evaluate


# f(u) of case i, and of case ii at e1 = 1, e2 = 0, on arrays
def _exponential_f(K: float, c: float):
    return lambda uv: K * np.exp(uv / c)


def _linear_f(L: float):
    return lambda uv: L * uv


def reconstruct_case_i_v1(params: dict, grid: GridSpec, ode_step: float = 1e-5):
    """u = zeta1(y/x) + zeta2(t) + 2*c*ln(x) with the separated ODEs solved
    by their closed forms; returns (u_callable, f_callable)."""
    K, c = params["K"], params["c"]
    z1_problem, z2_problem = ODE_PROBLEMS["i", "v1"](params, grid, ode_step)
    z1, z2 = _recent(zeta1_closed_form(z1_problem)), _recent(zeta2_closed_form(z2_problem))

    def u(x, y, t):
        return z1(y / x) + z2(t) + 2 * c * np.log(x)

    return u, _exponential_f(K, c)


def reconstruct_case_i_v4(params: dict, grid: GridSpec, ode_step: float = 1e-5):
    """Planar solution u = 2*c*ln((m*x + p*y + q)/t) with the derived
    constraint K = -1/(m^2 + p^2)."""
    c, m, p, q = params["c"], params["m"], params["p"], params["q"]
    K = params.get("K", -1.0 / (m * m + p * p))

    def u(x, y, t):
        return 2 * c * np.log((m * x + p * y + q) / t)

    return u, _exponential_f(K, c)


def reconstruct_case_ii_v1(params: dict, grid: GridSpec, ode_step: float = 1e-5):
    """theta = sig1(t)*sig2(y/x), u = theta*x^2 (e1 = 1, e2 = 0):
    sig1'' = c_sep*sig1^2 by RK4, sig2 the closed quadratic form."""
    L, c_sep = params["L"], params["c_sep"]
    a, b = params["sig2_a"], params["sig2_b"]
    (problem,) = ODE_PROBLEMS["ii", "v1"](params, grid, ode_step)
    s1 = _recent(rk4_solve(problem))

    def sig2(p):
        return c_sep / (2 * L) + a * p + b * (p * p - 1.0)

    def u(x, y, t):
        return s1(t) * sig2(y / x) * x * x

    return u, _linear_f(L)


def reconstruct_case_ii_v4(params: dict, grid: GridSpec, ode_step: float = 1e-5):
    """u = l(x,y)/t^2 with l = (3/L)*x^2 + harmonic_xy*x*y, an exact
    solution of the reduced equation Laplacian(l) = 6/L at e1 = 1."""
    L, d = params["L"], params["harmonic_xy"]

    def u(x, y, t):
        return ((3.0 / L) * x * x + d * x * y) / t**2

    return u, _linear_f(L)


# the solutions of the reductions of reduction.REDUCTION_NAMES, in its
# order: build(params, grid, ode_step) -> (u, f), and the default
# parameters and grid of ode.DEFAULTS
Reconstruction = namedtuple("Reconstruction", "build params grid")
BUILDERS = {
    ("i", "v1"): reconstruct_case_i_v1,
    ("i", "v4"): reconstruct_case_i_v4,
    ("ii", "v1"): reconstruct_case_ii_v1,
    ("ii", "v4"): reconstruct_case_ii_v4,
}
RECONSTRUCTIONS = {key: Reconstruction(BUILDERS[key], *defaults)
                   for key, defaults in DEFAULTS.items()}


def verify_reduction_numeric(
    case_id: str,
    generator: str,
    params: dict | None = None,
    grid: GridSpec | None = None,
    tol: float = 1e-6,
    ode_step: float = 1e-5,
) -> ResidualReport:
    """Reconstruct the similarity solution for one of the four reductions
    (``params`` over its defaults) and measure the full PDE residual, with a
    grid-refinement study."""
    key = (case_id, generator)
    if key not in RECONSTRUCTIONS:
        raise NumVerifyError(f"no numeric reconstruction for {key}")
    build, defaults, default_grid = RECONSTRUCTIONS[key]
    p = {**defaults, **(params or {})}
    check_params(p, "verify_reduction_numeric")
    grid = grid or default_grid
    u, f = build(p, grid, ode_step)
    return _with_convergence(u, grid, f, tol)


# first_integral_drift integrates over [0, DRIFT_SPAN] at DRIFT_STEP and at
# half of it; flow_transport_check allows a transported residual of up to
# TRANSPORT_FACTOR times the untransformed one
DRIFT_STEP, DRIFT_SPAN, TRANSPORT_FACTOR = 0.05, 1.0, 10.0


def first_integral_drift(K: float = 1.0, c: float = 1.0, c1: float = 1.0) -> dict:
    """Order measurement for the RK4 integration of zeta2'' = -K*c1*e^(zeta2/c):
    the conserved quantity E = zeta2'^2/2 + K*c1*c*e^(zeta2/c) drifts as
    O(step^4), so halving the step DRIFT_STEP should shrink the drift ~16x."""

    def energy(tr):
        e = tr.yps**2 / 2.0 + K * c1 * c * np.exp(tr.ys / c)
        return float(np.max(np.abs(e - e[0])))

    drift = {}
    for h in (DRIFT_STEP, DRIFT_STEP / 2):
        tr = rk4_solve(ODEProblem(ZETA2_RHS, 0.0, 0.0, 0.0, DRIFT_SPAN, h,
                                  consts={"K": K, "c": c, "c1": c1}))
        drift[h] = energy(tr)
    coarse, fine = drift.values()
    slope = math.log2(coarse / fine) if fine > 0 else float("inf")
    return {"drift": drift, "order_estimate": slope}


def flow_transport_check(
    u,
    f,
    v: VectorField,
    eps: float,
    grid: GridSpec,
    base_report: ResidualReport,
    tol: float = 1e-6,
) -> dict:
    """Transport a verified solution by the one-parameter flow of v and
    measure the transported residual.

    The transported function is u-tilde(z) = U(F_eps(w, u(w))) with
    w = coordinate part of F_(-eps)(z): coordinates are pulled back, the
    u-value pushed forward.  For a true symmetry the residual stays at the
    finite-difference truncation level, here required to be within
    TRANSPORT_FACTOR times the untransformed residual."""
    fm = flow(v)
    axes_atoms = COORDS + (EPS,)
    coords = [compile_numeric(mexpr, axes_atoms) for mexpr in fm.maps]
    inv_coords = [compile_numeric(mexpr, axes_atoms) for mexpr in fm.inverse().maps]

    def u_t(xg, yg, tg):
        zero = np.zeros_like(xg)
        x0 = inv_coords[0](xg, yg, tg, zero, eps)
        y0 = inv_coords[1](xg, yg, tg, zero, eps)
        t0 = inv_coords[2](xg, yg, tg, zero, eps)
        u0 = u(x0, y0, t0)
        return coords[3](x0, y0, t0, u0, eps)

    transported = fd_residual(u_t, grid, f, tol)
    ratio = (
        transported.max_residual / base_report.max_residual
        if base_report.max_residual > 0
        else float("inf")
    )
    return {
        "transported": transported,
        "ratio": ratio,
        "within_factor": ratio <= TRANSPORT_FACTOR,
    }
