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
right-hand side never reads x.

``RECONSTRUCTIONS`` holds the four similarity solutions, in the order of
``reduction.REDUCTION_NAMES``: builder, and the desk-scale default
parameters and default grid of ``ode.DEFAULTS``.  The ODE problems, their
RK4 loop, those defaults and ``check_params``, the rules on the parameters
(e1 = 1, e2 = 0; m and p not both 0) for ``verify_reduction_numeric`` and
the CLI alike, live in ``ode``, which loads no numpy, and are re-exported
here.  ``rk4_solve`` is every builder's way to its states: the CLI passes
down the ``ode.Helper`` it started, which integrated them in a child
process; a library call solves them in process."""

from __future__ import annotations

import math
import sys
from collections import namedtuple

import numpy as np

from .expr import Expr, format_expr
from .liealg import COORDS, EPS, VectorField, flow
from .ode import (
    DEFAULTS, MAX_ODE_STEPS, ODE_PROBLEMS, SIG1_RHS, ZETA1_RHS, ZETA2_RHS, GridSpec, Helper,
    NumVerifyError, ODEProblem, check_params, integrate, ode_margins,
)

__all__ = [
    "NumVerifyError", "ODEProblem", "Trajectory", "GridSpec", "ResidualReport",
    "rk4_solve", "fd_residual", "verify_reduction_numeric",
    "first_integral_drift", "flow_transport_check", "compile_numeric",
    "Reconstruction", "BUILDERS", "RECONSTRUCTIONS", "check_params", "ode_margins", "MAX_ODE_STEPS",
    "SLAB_POINTS", "RECENT_QUERIES", "SQUARES_LIMIT", "ZETA1_RHS", "ZETA2_RHS", "SIG1_RHS",
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


def rk4_solve(problem: ODEProblem, helper: Helper | None = None) -> Trajectory:
    """Classical 4th-order Runge-Kutta with a fixed step (``ode.integrate``:
    from ``helper`` when it has the states, else solved here); rejects the
    run if the state exceeds the configured bound (blow-up guard), or if the
    right-hand side overflows on the way there."""
    ys, yps = integrate(problem, helper)
    return Trajectory(problem.x0, problem.mesh()[1], np.frombuffer(ys), np.frombuffer(yps))


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


def reconstruct_case_i_v1(params: dict, grid: GridSpec, ode_step: float = 1e-5,
                          helper: Helper | None = None):
    """u = zeta1(y/x) + zeta2(t) + 2*c*ln(x) with the separated ODEs
    integrated by RK4; returns (u_callable, f_callable)."""
    K, c = params["K"], params["c"]
    z1, z2 = (_recent(rk4_solve(problem, helper))
              for problem in ODE_PROBLEMS["i", "v1"](params, grid, ode_step))

    def u(x, y, t):
        return z1(y / x) + z2(t) + 2 * c * np.log(x)

    return u, _exponential_f(K, c)


def reconstruct_case_i_v4(params: dict, grid: GridSpec, ode_step: float = 1e-5,
                          helper: Helper | None = None):
    """Planar solution u = 2*c*ln((m*x + p*y + q)/t) with the derived
    constraint K = -1/(m^2 + p^2)."""
    c, m, p, q = params["c"], params["m"], params["p"], params["q"]
    K = params.get("K", -1.0 / (m * m + p * p))

    def u(x, y, t):
        return 2 * c * np.log((m * x + p * y + q) / t)

    return u, _exponential_f(K, c)


def reconstruct_case_ii_v1(params: dict, grid: GridSpec, ode_step: float = 1e-5,
                           helper: Helper | None = None):
    """theta = sig1(t)*sig2(y/x), u = theta*x^2 (e1 = 1, e2 = 0):
    sig1'' = c_sep*sig1^2 by RK4, sig2 the closed quadratic form."""
    L, c_sep = params["L"], params["c_sep"]
    a, b = params["sig2_a"], params["sig2_b"]
    (problem,) = ODE_PROBLEMS["ii", "v1"](params, grid, ode_step)
    s1 = _recent(rk4_solve(problem, helper))

    def sig2(p):
        return c_sep / (2 * L) + a * p + b * (p * p - 1.0)

    def u(x, y, t):
        return s1(t) * sig2(y / x) * x * x

    return u, _linear_f(L)


def reconstruct_case_ii_v4(params: dict, grid: GridSpec, ode_step: float = 1e-5,
                           helper: Helper | None = None):
    """u = l(x,y)/t^2 with l = (3/L)*x^2 + harmonic_xy*x*y, an exact
    solution of the reduced equation Laplacian(l) = 6/L at e1 = 1."""
    L, d = params["L"], params["harmonic_xy"]

    def u(x, y, t):
        return ((3.0 / L) * x * x + d * x * y) / t**2

    return u, _linear_f(L)


# the solutions of the reductions of reduction.REDUCTION_NAMES, in its
# order: build(params, grid, ode_step, helper) -> (u, f), and the default
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
    helper: Helper | None = None,
) -> ResidualReport:
    """Reconstruct the similarity solution for one of the four reductions
    (``params`` over its defaults; ODE states from ``helper`` when it has
    them) and measure the full PDE residual, with a grid-refinement study."""
    key = (case_id, generator)
    if key not in RECONSTRUCTIONS:
        raise NumVerifyError(f"no numeric reconstruction for {key}")
    build, defaults, default_grid = RECONSTRUCTIONS[key]
    p = {**defaults, **(params or {})}
    check_params(p, "verify_reduction_numeric")
    grid = grid or default_grid
    u, f = build(p, grid, ode_step, helper)
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
