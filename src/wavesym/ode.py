"""The numpy-free half of the numeric back-stop: the separated ODEs of the
v1 reconstructions and the RK4 loop that integrates them, the
reconstructions' default parameters and grids, and the rules on their
parameters.

The CLI checks verify's input from this module alone, before it imports
numpy.  ``numverify`` re-exports the public names, wraps the RK4 states
in its ``Trajectory`` (sig1, the first-integral check) and solves the
(i, v1) problems, zeta1 and zeta2, by their closed forms instead."""

from __future__ import annotations

import math
from array import array
from collections import namedtuple

__all__ = [
    "NumVerifyError", "ODEProblem", "GridSpec", "Defaults", "DEFAULTS", "ODE_PROBLEMS",
    "integrate", "check_params", "ode_margins", "MAX_ODE_STEPS",
    "ZETA1_RHS", "ZETA2_RHS", "SIG1_RHS",
]

# RK4 steps allowed per solve; the default grids and step need at most ~56k
MAX_ODE_STEPS = 10**6


class NumVerifyError(Exception):
    pass


class ODEProblem:
    """Second-order initial value problem  y'' = rhs.

    ``rhs`` is Python source over x, y, yp, ``exp`` (``math.exp``) and the
    names bound in ``consts``, which must not start with '_' (the loop's own
    names do); ``integrate`` inlines it in its loop."""

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

    def mesh(self):
        """(n, h): n RK4 steps of h, the longest step at most ``step`` that
        divides [x0, x1] evenly."""
        n = max(1, int(math.ceil((self.x1 - self.x0) / self.step)))
        return n, (self.x1 - self.x0) / n


# The classical RK4 step with the right-hand side {rhs} written out at each
# stage, so a step makes no Python call.  Each stage binds x, y, yp to its
# arguments; (_x, _y, _yp) is the state.  The lines ending in "# x" track x
# and are left out when the right-hand side never reads it.  The y and y'
# states are array('d') made once at their final length n + 1 and written
# by index (16 bytes a step, which numpy reads uncopied; positions are
# x0 + i * h, not stored).  Returns them and the index of the step that
# left the bound or overflowed (None if none did).  The literal 2.0 keeps
# every arithmetic operation float by float, which the interpreter
# specializes; 2 * k and 2.0 * k are the same float.
_RK4_LOOP = """\
def _loop(_x0, _y, _yp, _h, _n, _bound, exp, {consts}):
    _hh, _h6, _lo = 0.5 * _h, _h / 6.0, -_bound
    _ys, _yps = _array("d", (_y,)) * (_n + 1), _array("d", (_yp,)) * (_n + 1)
    _x, _i = _x0, 0
    try:
        for _i in range(1, _n + 1):
            x = _x  # x
            y, yp = _y, _yp
            _k1y = yp
            _k1p = {rhs}
            x = _x + _hh  # x
            y, yp = _y + _hh * _k1y, _yp + _hh * _k1p
            _k2y = yp
            _k2p = {rhs}
            y, yp = _y + _hh * _k2y, _yp + _hh * _k2p
            _k3y = yp
            _k3p = {rhs}
            x = _x + _h  # x
            y, yp = _y + _h * _k3y, _yp + _h * _k3p
            _k4y = yp
            _k4p = {rhs}
            _y = _y + _h6 * (_k1y + 2.0 * _k2y + 2.0 * _k3y + _k4y)
            _yp = _yp + _h6 * (_k1p + 2.0 * _k2p + 2.0 * _k3p + _k4p)
            _x = _x0 + _i * _h  # x
            if not (_lo < _y < _bound and _lo < _yp < _bound):
                return _ys, _yps, _i
            _ys[_i] = _y
            _yps[_i] = _yp
    except OverflowError:  # e.g. exp in the right-hand side, before the bound
        return _ys, _yps, _i
    return _ys, _yps, None
"""


def _rk4_loop(rhs: str, consts) -> callable:
    """The loop of _RK4_LOOP with ``rhs`` written out and the names of
    ``consts`` as its last parameters."""
    reads_x = "x" in compile(rhs, "<rhs>", "eval").co_names
    src = "\n".join(line for line in _RK4_LOOP.splitlines()
                    if reads_x or not line.endswith("  # x"))
    scope = {"_array": array}
    exec(src.format(rhs=f"({rhs})", consts=", ".join(consts)), scope)
    return scope["_loop"]


def integrate(problem: ODEProblem) -> tuple:
    """(ys, yps): y and y' at every step of ``problem.mesh()``, as
    array('d').  Rejects the run if the state exceeds the configured bound
    (blow-up guard), or if the right-hand side overflows on the way there."""
    n, h = problem.mesh()
    ys, yps, failed = _rk4_loop(problem.rhs, problem.consts)(
        problem.x0, problem.y0, problem.yp0, h, n, problem.bound, math.exp, **problem.consts)
    if failed is not None:
        raise NumVerifyError(
            f"trajectory exceeded bound {problem.bound} at x={problem.x0 + failed * h}")
    return ys, yps


# The separated ODEs of reference.separation_case_i (zeta1 in r = y/x, zeta2
# in s = t) and separation_case_ii (sig1 in q = t), solved for the second
# derivative, as RK4 right-hand sides over x, y = the solution, yp = y'
ZETA1_RHS = "-(c1 * exp(-y / c) + 2 * (x * yp - c)) / (x * x + 1)"
ZETA2_RHS = "-K * c1 * exp(y / c)"
SIG1_RHS = "c_sep * y * y"


class GridSpec(namedtuple("GridSpec", "box n h", defaults=(
        ((2.0, 2.5), (2.0, 2.5), (2.0, 2.5)), (21, 21, 21), 1e-3))):
    """Evaluation box in (x, y, t), points per axis, and the central
    finite-difference step (which is independent of the lattice spacing)."""

    __slots__ = ()

    def axes(self):
        """The grid's points on each axis, as numpy arrays (numpy is loaded
        here, by the finite-difference checks, and not by this module)."""
        import numpy as np

        return tuple(
            np.linspace(lo, hi, k) for (lo, hi), k in zip(self.box, self.n)
        )


def ode_margins(grid: GridSpec):
    """The (y/x, t) intervals the v1 reconstructions integrate over: the
    box's range plus the finite-difference stencil's reach and a margin."""
    (x0, x1), (y0, y1), (t0, t1) = grid.box
    pad = 8 * grid.h
    r_lo = (y0 - pad) / (x1 + pad)
    r_hi = (y1 + pad) / (x0 - pad)
    return (r_lo - 0.02, r_hi + 0.02), (t0 - pad - 0.02, t1 + pad + 0.02)


# the default parameters and grid of the reconstruction of each reduction of
# reduction.REDUCTION_NAMES, in its order.  e1 and e2 are no parameters:
# case ii holds at e1 = 1, e2 = 0 only.  Each grid's box keeps unit-order
# distance from the singular sets (t = 0, x = 0, h = 0) by placement
Defaults = namedtuple("Defaults", "params grid")
DEFAULTS = {
    ("i", "v1"): Defaults({"K": 1.0, "c": 1.0, "c1": 1.0},
                          GridSpec(((3.0, 3.5), (1.5, 2.0), (1.0, 1.5)))),
    ("i", "v4"): Defaults({"c": 1.0, "m": 1.0, "p": 0.0, "q": 0.0},
                          GridSpec(((2.0, 2.5), (2.0, 2.5), (2.0, 2.5)))),
    ("ii", "v1"): Defaults({"L": 1.0, "c_sep": 1.0, "sig2_a": 0.1, "sig2_b": 0.05,
                            "sig1_0": 0.5},
                           GridSpec(((2.0, 2.5), (1.0, 1.5), (1.0, 1.5)))),
    ("ii", "v4"): Defaults({"L": 1.0, "harmonic_xy": 0.1},
                           GridSpec(((1.0, 1.5), (1.0, 1.5), (2.5, 3.0)))),
}


def check_params(params: dict, caller: str) -> None:
    """The rules on the parameters, which the reconstructions share by name:
    e1 = 1, e2 = 0 (their values when absent), and m, p not both 0.
    ``caller`` names whose reconstructions they are in the message."""
    e1, e2 = params.get("e1", 1), params.get("e2", 0)
    if (e1, e2) != (1, 0):
        raise NumVerifyError(f"e1, e2: the case ii reconstructions of {caller} "
                             f"need e1 = 1, e2 = 0, got e1 = {e1}, e2 = {e2}")
    if params.get("m") == 0 and params.get("p") == 0:
        raise NumVerifyError("m, p: m and p cannot both vanish")


def _case_i_v1_problems(params: dict, grid: GridSpec, ode_step: float) -> list:
    """zeta1 over y/x and zeta2 over t, from 0 with slope 0."""
    (r0, r1), (t0, t1) = ode_margins(grid)
    consts = {"K": params["K"], "c": params["c"], "c1": params["c1"]}
    return [ODEProblem(ZETA1_RHS, r0, 0.0, 0.0, r1, ode_step, consts=consts),
            ODEProblem(ZETA2_RHS, t0, 0.0, 0.0, t1, ode_step, consts=consts)]


def _case_ii_v1_problems(params: dict, grid: GridSpec, ode_step: float) -> list:
    """sig1 over t, from sig1_0 with slope 0."""
    (_, _), (t0, t1) = ode_margins(grid)
    return [ODEProblem(SIG1_RHS, t0, params["sig1_0"], 0.0, t1, ode_step,
                       consts={"c_sep": params["c_sep"]})]


# the ODE problems of each v1 reconstruction, in stage order: (params, grid,
# ode_step) -> [ODEProblem].  numverify solves (i, v1)'s by their closed
# forms and (ii, v1)'s by RK4
ODE_PROBLEMS = {("i", "v1"): _case_i_v1_problems, ("ii", "v1"): _case_ii_v1_problems}
