"""Symmetry engine for the (2+1)-dimensional nonlinear wave equation
u_tt - f(u)*(u_xx + u_yy) = 0: exact expression trees, jet-space
prolongations, determining-system extraction and solving, Lie-algebra
tables, similarity reductions, and a numeric verification harness."""

__version__ = "0.1.0"

from .expr import (  # noqa: F401
    Expr,
    rat, param, base, jet, fn,
    add, mul, pow_, exp_, ln_, neg, sub, div,
    normalize, expand, diff, substitute, collect_atoms,
    eval_numeric, format_expr,
    RAT0, RAT1, X, Y, T, U,
)
from .parser import parse, ParseError  # noqa: F401
