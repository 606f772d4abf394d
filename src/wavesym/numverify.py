"""Numeric back-stop for the symbolic results.

Classical fixed-step RK4 integrates the separated ODEs; similarity
solutions are reconstructed on a grid and pushed through a central
finite-difference residual of the full equation; one-parameter flows
transport verified solutions and the transported residual is measured.
Everything is deterministic: fixed steps, fixed grids, vectorized
evaluation with a fixed reduction order.

Residuals are evaluated on an open grid: x, y and t are shaped (n,1,1),
(1,n,1) and (1,1,n), so a factor such as z1(y/x) or z2(t) is computed once
per distinct argument and only the sums broadcast to the full box.  The
stencil runs slab by slab, on SLAB_POINTS-sized blocks of whole x rows,
and writes each slab into one dense (C order) residual, so its temporaries
are slab-sized.  Each grid point still gets the same sequence of IEEE
operations as on dense meshgrids, and the max and mean read the dense
residual, so every reported float is the dense grid's; the rms squares it
in place where no square can overflow.  RK4 writes y and y' into
array('d') states made once at their final length, 16 bytes a step that
numpy reads uncopied; a step's position is computed from the start x0
and the step h, never stored.

Default desk-scale constants: K = 1 (K = -1 where the derived planar
constraint demands a negative K), c = 1, L = 1, e1 = 1, e2 = 0, c1 = 1,
c_sep = 1.  Boxes keep unit-order distance from the singular sets (t = 0,
x = 0, h = 0) by placement, never by special-casing formulas."""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple

import numpy as np

from .expr import Expr, format_expr
from .liealg import COORDS, EPS, VectorField, flow

__all__ = [
    "NumVerifyError", "ODEProblem", "Trajectory", "GridSpec", "ResidualReport",
    "rk4_solve", "fd_residual", "verify_reduction_numeric",
    "first_integral_drift", "flow_transport_check", "compile_numeric",
    "DEFAULT_PARAMS", "default_grid", "ode_margins", "MAX_ODE_STEPS",
    "SLAB_POINTS", "SQUARES_LIMIT", "ZETA1_RHS", "ZETA2_RHS", "SIG1_RHS",
]

# RK4 steps allowed per solve; the default grids and step need at most ~56k
MAX_ODE_STEPS = 10**6

# fd_residual evaluates the stencil on slabs of whole x rows holding about
# this many points (at least one row), so its temporaries stay slab-sized
SLAB_POINTS = 2**15

# fd_residual squares its residual in place for the rms when the residual's
# size times its largest square is at most this: half the largest float, so
# the rounding of the mean's partial sums cannot carry one past it either
SQUARES_LIMIT = sys.float_info.max / 2


class NumVerifyError(Exception):
    pass


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


class ODEProblem:
    """Second-order initial value problem  y'' = rhs.

    ``rhs`` is Python source over x, y, yp, ``exp`` (``math.exp``) and the
    names bound in ``consts``, which must not start with '_' (the loop's own
    names do); ``rk4_solve`` inlines it in its loop."""

    __slots__ = ("rhs", "x0", "y0", "yp0", "x1", "step", "bound", "consts")

    def __init__(self, rhs: str, x0: float, y0: float, yp0: float, x1: float,
                 step: float = 1e-5, bound: float = 1e6, consts: dict | None = None):
        if step <= 0:
            raise NumVerifyError("step must be positive")
        if x1 <= x0:
            raise NumVerifyError("empty integration interval")
        if not (x1 - x0) / step <= MAX_ODE_STEPS:
            raise NumVerifyError(f"step {step!r} needs more than {MAX_ODE_STEPS} RK4 steps")
        self.rhs, self.x0, self.y0, self.yp0, self.x1 = rhs, x0, y0, yp0, x1
        self.step, self.bound, self.consts = step, bound, {} if consts is None else consts


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
        if np.any(x < x0 - 1e-12) or np.any(x > x0 + n * self.h + 1e-12):
            raise NumVerifyError("evaluation outside the integrated interval")
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


# The classical RK4 step with the right-hand side {rhs} written out at each
# stage, so a step makes no Python call.  Each stage binds x, y, yp to its
# arguments; (_x, _y, _yp) is the state.  The y and y' states are array('d')
# made once at their final length n + 1 and written by index (16 bytes a
# step, which rk4_solve hands to numpy uncopied; positions are x0 + i * h,
# not stored).  Returns them and the index of the step that left the bound
# or overflowed (None if none did).  The literal 2.0 keeps every arithmetic
# operation float by float, which the interpreter specializes; 2 * k and
# 2.0 * k are the same float.
_RK4_LOOP = """\
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
    except OverflowError:  # e.g. exp in the right-hand side, before the bound
        return _ys, _yps, _i
    return _ys, _yps, None
"""


def rk4_solve(problem: ODEProblem) -> Trajectory:
    """Classical 4th-order Runge-Kutta with a fixed step; rejects the run if
    the state exceeds the configured bound (blow-up guard), or if the
    right-hand side overflows on the way there."""
    scope = {"_array": array}
    src = _RK4_LOOP.format(rhs=f"({problem.rhs})", consts=", ".join(problem.consts))
    exec(src, scope)
    n = max(1, int(math.ceil((problem.x1 - problem.x0) / problem.step)))
    h = (problem.x1 - problem.x0) / n
    ys, yps, failed = scope["_loop"](problem.x0, problem.y0, problem.yp0, h, n,
                                     problem.bound, math.exp, **problem.consts)
    if failed is not None:
        x = problem.x0 + failed * h
        raise NumVerifyError(f"trajectory exceeded bound {problem.bound} at x={x}")
    return Trajectory(problem.x0, h, np.frombuffer(ys), np.frombuffer(yps))


class GridSpec(namedtuple("GridSpec", "box n h", defaults=(
        ((2.0, 2.5), (2.0, 2.5), (2.0, 2.5)), (21, 21, 21), 1e-3))):
    """Evaluation box in (x, y, t), points per axis, and the central
    finite-difference step (which is independent of the lattice spacing)."""

    __slots__ = ()

    def axes(self):
        return tuple(
            np.linspace(lo, hi, k) for (lo, hi), k in zip(self.box, self.n)
        )


class ResidualReport(namedtuple(
        "ResidualReport", "max_residual rms_residual grid tol passed "
        "convergence convergence_factor warnings", defaults=((), None, ()))):
    """A finite-difference residual on ``grid``; ``convergence`` holds
    (h, max, rms) per step of the refinement study."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "rms_residual": self.rms_residual,
            "grid": {"box": list(map(list, self.grid.box)),
                     "n": list(self.grid.n), "h": self.grid.h},
            "tol": self.tol,
            "passed": self.passed,
            "convergence": [list(row) for row in self.convergence],
            "convergence_factor": self.convergence_factor,
            "warnings": list(self.warnings),
        }


def fd_residual(u, grid: GridSpec, f, tol: float = 1e-6, h: float | None = None) -> ResidualReport:
    """Central second differences of u on the grid box; residual of
    u_tt - f(u)*(u_xx + u_yy) sampled at every grid point of an open grid."""
    h = grid.h if h is None else h
    axes = grid.axes()
    Xg, Yg, Tg = np.meshgrid(*axes, indexing="ij", sparse=True)
    # the dense C-order residual, so the mean sums in the dense grid's order;
    # the stencil fills it a slab of x rows at a time
    res = np.empty(tuple(map(len, axes)))
    rows = max(1, SLAB_POINTS // (len(axes[1]) * len(axes[2])))
    # singular-set intrusion shows up as non-finite values, reported below;
    # suppress the intermediate numpy warnings it would cause
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in range(0, len(axes[0]), rows):
            X = Xg[i:i + rows]
            u0 = u(X, Yg, Tg)
            utt = (u(X, Yg, Tg + h) - 2 * u0 + u(X, Yg, Tg - h)) / h**2
            uxx = (u(X + h, Yg, Tg) - 2 * u0 + u(X - h, Yg, Tg)) / h**2
            uyy = (u(X, Yg + h, Tg) - 2 * u0 + u(X, Yg - h, Tg)) / h**2
            res[i:i + rows] = utt - f(u0) * (uxx + uyy)
    if not np.all(np.isfinite(res)):
        bad = np.argwhere(~np.isfinite(res))[:5]
        pts = [tuple(float(a[k]) for a, k in zip(axes, i)) for i in bad]
        raise NumVerifyError(f"singular-set intrusion at grid points {pts}")
    # the largest |res| without a residual-sized temporary; abs makes the
    # maximum of an all -0.0 residual 0.0
    mx = abs(float(max(res.max(), -res.min())))
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


DEFAULT_PARAMS = {
    ("i", "v1"): {"K": 1.0, "c": 1.0, "c1": 1.0},
    ("i", "v4"): {"c": 1.0, "m": 1.0, "p": 0.0, "q": 0.0},
    ("ii", "v1"): {"L": 1.0, "e1": 1.0, "e2": 0.0, "c_sep": 1.0,
                   "sig2_a": 0.1, "sig2_b": 0.05, "sig1_0": 0.5},
    ("ii", "v4"): {"L": 1.0, "e1": 1.0, "e2": 0.0, "harmonic_xy": 0.1},
}

_DEFAULT_GRIDS = {
    ("i", "v1"): GridSpec(((3.0, 3.5), (1.5, 2.0), (1.0, 1.5))),
    ("i", "v4"): GridSpec(((2.0, 2.5), (2.0, 2.5), (2.0, 2.5))),
    ("ii", "v1"): GridSpec(((2.0, 2.5), (1.0, 1.5), (1.0, 1.5))),
    ("ii", "v4"): GridSpec(((1.0, 1.5), (1.0, 1.5), (2.5, 3.0))),
}


def default_grid(case_id: str, generator: str) -> GridSpec:
    return _DEFAULT_GRIDS[(case_id, generator)]


def ode_margins(grid: GridSpec):
    """The (y/x, t) intervals the v1 reconstructions integrate over: the
    box's range plus the finite-difference stencil's reach and a margin."""
    (x0, x1), (y0, y1), (t0, t1) = grid.box
    pad = 8 * grid.h
    r_lo = (y0 - pad) / (x1 + pad)
    r_hi = (y1 + pad) / (x0 - pad)
    return (r_lo - 0.02, r_hi + 0.02), (t0 - pad - 0.02, t1 + pad + 0.02)


# The separated ODEs of reference.separation_case_i (zeta1 in r = y/x, zeta2
# in s = t) and separation_case_ii (sig1 in q = t), solved for the second
# derivative, as RK4 right-hand sides over x, y = the solution, yp = y'
ZETA1_RHS = "-(c1 * exp(-y / c) + 2 * (x * yp - c)) / (x * x + 1)"
ZETA2_RHS = "-K * c1 * exp(y / c)"
SIG1_RHS = "c_sep * y * y"


def reconstruct_case_i_v1(params: dict, grid: GridSpec, ode_step: float = 1e-5):
    """u = zeta1(y/x) + zeta2(t) + 2*c*ln(x) with the separated ODEs
    integrated by RK4; returns (u_callable, f_callable)."""
    K, c, c1 = params["K"], params["c"], params["c1"]
    (r0, r1), (t0, t1) = ode_margins(grid)
    consts = {"K": K, "c": c, "c1": c1}
    z1 = rk4_solve(ODEProblem(ZETA1_RHS, r0, 0.0, 0.0, r1, ode_step, consts=consts))
    z2 = rk4_solve(ODEProblem(ZETA2_RHS, t0, 0.0, 0.0, t1, ode_step, consts=consts))

    def u(x, y, t):
        return z1(y / x) + z2(t) + 2 * c * np.log(x)

    def f(uv):
        return K * np.exp(uv / c)

    return u, f


def reconstruct_case_i_v4(params: dict, grid: GridSpec):
    """Planar solution u = 2*c*ln((m*x + p*y + q)/t) with the derived
    constraint K = -1/(m^2 + p^2)."""
    c, m, p, q = params["c"], params["m"], params["p"], params["q"]
    if m == 0 and p == 0:
        raise NumVerifyError("m and p cannot both vanish")
    K = params.get("K", -1.0 / (m * m + p * p))

    def u(x, y, t):
        return 2 * c * np.log((m * x + p * y + q) / t)

    def f(uv):
        return K * np.exp(uv / c)

    return u, f


def reconstruct_case_ii_v1(params: dict, grid: GridSpec, ode_step: float = 1e-5):
    """theta = sig1(t)*sig2(y/x), u = theta*x^2 (e1 = 1, e2 = 0):
    sig1'' = c_sep*sig1^2 by RK4, sig2 the closed quadratic form."""
    L, c_sep = params["L"], params["c_sep"]
    if params.get("e1", 1.0) != 1.0 or params.get("e2", 0.0) != 0.0:
        raise NumVerifyError("the multiplicative reconstruction needs e1 = 1, e2 = 0")
    a, b = params["sig2_a"], params["sig2_b"]
    (p0, p1), (t0, t1) = ode_margins(grid)
    s1 = rk4_solve(ODEProblem(SIG1_RHS, t0, params["sig1_0"], 0.0, t1, ode_step,
                              consts={"c_sep": c_sep}))

    def sig2(p):
        return c_sep / (2 * L) + a * p + b * (p * p - 1.0)

    def u(x, y, t):
        return s1(t) * sig2(y / x) * x * x

    def f(uv):
        return L * uv

    return u, f


def reconstruct_case_ii_v4(params: dict, grid: GridSpec):
    """u = l(x,y)/t^2 with l = (3/L)*x^2 + harmonic_xy*x*y, an exact
    solution of the reduced equation Laplacian(l) = 6/L at e1 = 1."""
    L, d = params["L"], params["harmonic_xy"]
    if params.get("e1", 1.0) != 1.0 or params.get("e2", 0.0) != 0.0:
        raise NumVerifyError("the closed-form reconstruction needs e1 = 1, e2 = 0")

    def u(x, y, t):
        return ((3.0 / L) * x * x + d * x * y) / t**2

    def f(uv):
        return L * uv

    return u, f


def verify_reduction_numeric(
    case_id: str,
    generator: str,
    params: dict | None = None,
    grid: GridSpec | None = None,
    tol: float = 1e-6,
    ode_step: float = 1e-5,
) -> ResidualReport:
    """Reconstruct the similarity solution for one of the four reductions
    and measure the full PDE residual, with a grid-refinement study."""
    key = (case_id, generator)
    if key not in DEFAULT_PARAMS:
        raise NumVerifyError(f"no numeric reconstruction for {key}")
    p = dict(DEFAULT_PARAMS[key])
    p.update(params or {})
    grid = grid or default_grid(case_id, generator)
    if key == ("i", "v1"):
        u, f = reconstruct_case_i_v1(p, grid, ode_step)
    elif key == ("i", "v4"):
        u, f = reconstruct_case_i_v4(p, grid)
    elif key == ("ii", "v1"):
        u, f = reconstruct_case_ii_v1(p, grid, ode_step)
    else:
        u, f = reconstruct_case_ii_v4(p, grid)
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
    hs = sorted(drift, reverse=True)
    slope = math.log2(drift[hs[0]] / drift[hs[1]]) if drift[hs[1]] > 0 else float("inf")
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
