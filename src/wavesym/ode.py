"""The numpy-free half of the numeric back-stop: the separated ODEs of the
v1 reconstructions and their RK4 loop, the reconstructions' default
parameters and grids and the rules on their parameters, and the helper
process that integrates a run's ODE problems while the parent goes on.

The CLI checks verify's input from this module alone, then starts one
``Helper`` before it imports numpy: a forked child that integrates the
run's problems, in stage order, and sends each result down a pipe.  The
reconstructions ask ``integrate`` for their states, which takes them from
the helper when it has them and solves them here otherwise (no fork, a
failed fork, a short read, a bad status, or a problem the helper was not
given), with the same loop on the same problem, so every float is the
same either way.  ``numverify`` re-exports the public names and wraps the
states in its ``Trajectory``."""

from __future__ import annotations

import ast
import gc
import math
import os
import signal
import struct
from array import array
from collections import namedtuple

__all__ = [
    "NumVerifyError", "ODEProblem", "GridSpec", "Defaults", "DEFAULTS", "ODE_PROBLEMS",
    "Helper", "integrate", "check_params", "ode_margins", "MAX_ODE_STEPS",
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
# and are left out when the right-hand side never reads it; {hoisted}
# computes once what the right-hand side computes alike at every stage (see
# _trim).  The y and y' states are array('d') made once at their final
# length n + 1 and written by index (16 bytes a step, which numpy reads
# uncopied; positions are x0 + i * h, not stored).  Returns them and the
# index of the step that left the bound or overflowed (None if none did).
# The literal 2.0 keeps every arithmetic operation float by float, which
# the interpreter specializes; 2 * k and 2.0 * k are the same float.
_RK4_LOOP = """\
def _loop(_x0, _y, _yp, _h, _n, _bound, exp, {consts}):
    _hh, _h6, _lo = 0.5 * _h, _h / 6.0, -_bound
    _ys, _yps = _array("d", (_y,)) * (_n + 1), _array("d", (_yp,)) * (_n + 1)
    _x, _i = _x0, 0
    {hoisted}
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

# the operators of a hoisted subexpression: on floats they raise nothing,
# so computing it before the loop cannot change which error the loop meets
_HOISTABLE_OPS = (ast.Add, ast.Sub, ast.Mult)
_SIGNS = (ast.USub, ast.UAdd)
# int literals become floats as operands of these, beside a float
_FOLDED_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def _is_float(node, names) -> bool:
    """Whether node's value is a float when each of ``names`` is."""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "exp"
    if isinstance(node, ast.Constant):
        return type(node.value) is float
    if isinstance(node, ast.UnaryOp):
        return _is_float(node.operand, names)
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.Div) or any(
            _is_float(side, names) for side in (node.left, node.right))
    return False


def _int_literal(node) -> bool:
    """An int literal, signed or not, that a float holds exactly."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _SIGNS):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) is int
            and abs(node.value) <= 2**53)


def _fold(tree, names):
    """Each int literal beside a float under +, -, * or / becomes that
    float: float op int converts the int exactly, so the result is the same
    float, and the interpreter specializes float op float.  ``names`` are
    the names bound to floats.  A fold leaves every node as float or not as
    it was (the other operand made the operation float), so the order of
    the walk does not matter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, _FOLDED_OPS):
            if _int_literal(node.left) and _is_float(node.right, names):
                node.left = _as_float(node.left)
            if _int_literal(node.right) and _is_float(node.left, names):
                node.right = _as_float(node.right)
    return tree


def _as_float(node):
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, _as_float(node.operand))
    return ast.Constant(float(node.value))


class _Hoist(ast.NodeTransformer):
    """Each maximal subexpression of constants and float literals under +,
    -, * and signs (one that reads none of x, y and yp) becomes a name
    _c<k>, whose value ``hoisted`` holds."""

    def __init__(self, consts):
        self.consts, self.hoisted = consts, []

    def invariant(self, node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.consts
        if isinstance(node, ast.Constant):
            return type(node.value) is float
        if isinstance(node, ast.UnaryOp):
            return isinstance(node.op, _SIGNS) and self.invariant(node.operand)
        return (isinstance(node, ast.BinOp) and isinstance(node.op, _HOISTABLE_OPS)
                and self.invariant(node.left) and self.invariant(node.right))

    def visit(self, node):
        # a name or a signed literal is read as fast as a local
        leaf = node.operand if isinstance(node, ast.UnaryOp) else node
        if self.invariant(node) and not isinstance(leaf, (ast.Name, ast.Constant)):
            self.hoisted.append(ast.unparse(node))
            return ast.Name(f"_c{len(self.hoisted) - 1}", ast.Load())
        return self.generic_visit(node)


def _trim(rhs: str, consts) -> tuple:
    """(rhs, hoisted): the right-hand side with its int literals folded and
    its invariant subexpressions hoisted, and those subexpressions' sources,
    in the order of their names _c0, _c1, ...  Only for float constants,
    x0, y0 and y'0: then each stage computes the same floats as the source
    as written."""
    hoist = _Hoist(consts)
    tree = hoist.visit(_fold(ast.parse(rhs, mode="eval"), {"x", "y", "yp", *consts}))
    return ast.unparse(tree), hoist.hoisted


def _rk4_loop(rhs: str, consts, start) -> callable:
    """The loop of _RK4_LOOP with ``rhs`` written out and the names of
    ``consts`` as its last parameters.  When every value of ``consts`` and
    of ``start`` (x0, y0, y'0) is a float, ``rhs`` is trimmed by _trim."""
    reads_x = any(isinstance(node, ast.Name) and node.id == "x"
                  for node in ast.walk(ast.parse(rhs, mode="eval")))
    hoisted = []
    if all(type(v) is float for v in (*consts.values(), *start)):
        rhs, hoisted = _trim(rhs, consts)
    src = "\n".join(line for line in _RK4_LOOP.splitlines()
                    if reads_x or not line.endswith("  # x"))
    assign = "; ".join(f"_c{k} = {e}" for k, e in enumerate(hoisted))
    scope = {"_array": array}
    exec(src.format(rhs=f"({rhs})", consts=", ".join(consts), hoisted=assign or "pass"),
         scope)
    return scope["_loop"]


def _solve(problem: ODEProblem) -> tuple:
    """(ys, yps, failed): the RK4 states, and the step at which the state
    left the bound or the right-hand side overflowed (None if none did)."""
    n, h = problem.mesh()
    start = (problem.x0, problem.y0, problem.yp0)
    return _rk4_loop(problem.rhs, problem.consts, start)(
        *start, h, n, problem.bound, math.exp, **problem.consts)


def integrate(problem: ODEProblem, helper: Helper | None = None) -> tuple:
    """(ys, yps): y and y' at every step of ``problem.mesh()``, as
    array('d'), from ``helper`` when it has them, else solved here.  Rejects
    the run if the state exceeds the configured bound (blow-up guard), or if
    the right-hand side overflows on the way there."""
    result = helper.take(problem) if helper is not None else None
    ys, yps, failed = result or _solve(problem)
    if failed is not None:
        x = problem.x0 + failed * problem.mesh()[1]
        raise NumVerifyError(f"trajectory exceeded bound {problem.bound} at x={x}")
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


# the ODE problems of each reconstruction that integrates any, in stage
# order: (params, grid, ode_step) -> [ODEProblem]
ODE_PROBLEMS = {("i", "v1"): _case_i_v1_problems, ("ii", "v1"): _case_ii_v1_problems}

# a result on the helper's pipe: a header (status, value), then for STATES
# the value's count of y and of y' states as native doubles; for BOUND the
# value is the failed step, and nothing follows
_HEADER = struct.Struct("=qq")
_STATES, _BOUND = 0, 1
# the helper asks its pipe to hold this many bytes (Linux's default limit
# for an unprivileged process), so it goes on to the next problem before
# the parent has read the last: the default grid's z1 is 457 KB
PIPE_BYTES = 1 << 20


def _key(problem: ODEProblem) -> str:
    """Equal for problems whose every field has the same type and value,
    which the same loop integrates to the same states."""
    return repr((problem.rhs, problem.x0, problem.y0, problem.yp0, problem.x1,
                 problem.step, problem.bound, problem.consts))


class Helper:
    """One forked child that integrates ``problems`` in order and writes
    each result to a pipe, which only ``take`` reads; ``close`` kills and
    reaps it.  Without ``os.fork``, or when the fork fails, there is no
    child and ``take`` has nothing."""

    def __init__(self, problems):
        self.steps = [problem.mesh()[0] for problem in problems]
        self.keys = [_key(problem) for problem in problems]
        self.kept = {}  # results read before they were asked for
        self.received = 0  # results read from the pipe
        self.pid = self.fd = None
        if not problems or not hasattr(os, "fork"):
            return
        read_end, write_end = os.pipe()
        try:
            import fcntl

            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except (ImportError, AttributeError, OSError):
            pass  # the default size: the child waits for reads sooner
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            return
        if pid == 0:
            try:
                gc.disable()
                os.close(read_end)
                _serve(problems, write_end)
            finally:
                os._exit(0)
        os.close(write_end)
        self.pid, self.fd = pid, read_end

    def take(self, problem: ODEProblem):
        """problem's (ys, yps, failed) as ``_solve`` gives them, each result
        once; None if the helper was not given problem or could not send
        its result (it is closed then, and solves nothing more)."""
        try:
            i = self.keys.index(_key(problem))
        except ValueError:
            return None
        self.keys[i] = None
        while self.received <= i and self.fd is not None:
            result = self._receive(self.steps[self.received])
            if result is None:
                self.close()
            else:
                self.kept[self.received] = result
                self.received += 1
        return self.kept.pop(i, None)

    def _receive(self, n: int):
        """The next result on the pipe for a problem of n steps, or None on
        a short read or a header that does not fit it."""
        header = bytearray(_HEADER.size)
        if not _read_into(self.fd, header):
            return None
        status, value = _HEADER.unpack(header)
        if status == _BOUND and 1 <= value <= n:
            return None, None, value
        if status != _STATES or value != n + 1:
            return None
        ys, yps = array("d", (0.0,)) * value, array("d", (0.0,)) * value
        if not (_read_into(self.fd, ys) and _read_into(self.fd, yps)):
            return None
        return ys, yps, None

    def close(self) -> None:
        """Kill and reap the child and close the pipe; harmless twice."""
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped already, as under SIGCHLD = SIG_IGN
            self.pid = None
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None


def _serve(problems, fd: int) -> None:
    """The child's work: each problem's result, in order, on the pipe."""
    for problem in problems:
        ys, yps, failed = _solve(problem)
        if failed is None:
            _write(fd, _HEADER.pack(_STATES, len(ys)))
            _write(fd, ys)
            _write(fd, yps)
        else:
            _write(fd, _HEADER.pack(_BOUND, failed))


def _write(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_into(fd: int, buf) -> bool:
    """Fill buf from fd; False if the pipe ends first."""
    view = memoryview(buf).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True
