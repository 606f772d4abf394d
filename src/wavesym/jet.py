"""Total derivatives on jet space and prolongation coefficients.

The total derivative in direction d acts as
``D_d e = de/dd + sum_J u_{J,d} * de/du_J`` over every jet coordinate J
actually present in the expression.  The first and second prolongation
coefficients of a point generator v with characteristic
``Q = phi - xi*u_x - eta*u_y - tau*u_t`` are::

    coeff_1(v, i)    = D_i Q   + xi*u_{xi}  + eta*u_{yi}  + tau*u_{ti}
    coeff_2(v, i, j) = D_i D_j Q + xi*u_{xij} + eta*u_{yij} + tau*u_{tij}

For point components every third-order jet cancels out of coeff_2 after
normalization, which the test suite checks as a structural invariant.

Both are linear in v, so the one prolongation routine (``prolong_form``)
works on linear forms {component node: coefficient}: the components and
Q are decomposed once over their opaque ``Fn`` nodes (``linear_form``,
with the key 1 for the part that holds no such node, so a concrete field
takes the same route).  D_d of a form raises each node's derivative index
in the slot whose argument is d, adds u_d times the shift of a slot whose
argument is u, and applies ``total_derivative`` to each small
coefficient; an expression is never prolonged whole."""

from __future__ import annotations

from .expr import (
    Base, Expr, Fn, Jet, Param, Product, RAT0, RAT1, Sum, add, base, diff,
    expand, fn_nodes_of, jet, jets_of, max_jet_order, mul, neg,
)
from .liealg import VectorField

__all__ = [
    "DIRECTIONS", "JetOrderError", "total_derivative",
    "characteristic", "linear_form", "form_expr", "generator_forms",
    "form_derivative", "prolong_form", "prolong_coeff_first", "prolong_coeff_second",
]

DIRECTIONS = ("x", "y", "t")


class JetOrderError(Exception):
    pass


def _dir_name(d) -> str:
    name = d.name if hasattr(d, "name") else str(d)
    if name not in DIRECTIONS:
        raise ValueError(f"unknown total-derivative direction {name!r}")
    return name


def total_derivative(e: Expr, d) -> Expr:
    """D_d e; raises the maximal jet order by at most one (cap 4)."""
    name = _dir_name(d)
    if max_jet_order(e) > 3:
        raise JetOrderError(
            "total derivative of a 4th-order jet expression would exceed the order cap"
        )
    parts = [diff(e, base(name))]
    for j in sorted(jets_of(e), key=Expr.sort_key):
        dj = diff(e, j)
        if dj == RAT0:
            continue
        parts.append(mul(jet(j.idx + (name,)), dj))
    return add(*parts)


def characteristic(v: VectorField) -> Expr:
    """Q = phi - xi*u_x - eta*u_y - tau*u_t."""
    return add(
        v.phi,
        neg(mul(v.xi, jet("x"))),
        neg(mul(v.eta, jet("y"))),
        neg(mul(v.tau, jet("t"))),
    )


def _put(form: dict, node: Expr, c: Expr) -> None:
    prev = form.get(node)
    form[node] = c if prev is None else add(prev, c)


def linear_form(e: Expr) -> dict:
    """``e`` as {component node: coefficient}.  A term that is one ``Fn``
    node with atom arguments times factors free of ``Fn`` nodes is filed
    under that node, every other term under the key 1; coefficients are
    expanded and zero entries dropped."""
    e = expand(e)
    out: dict = {}
    for term in e.terms if type(e) is Sum else (e,):
        factors = term.factors if type(term) is Product else (term,)
        nodes = [f for f in factors if type(f) is Fn]
        node, c = RAT1, term
        if len(nodes) == 1 and all(type(a) in (Base, Jet, Param) for a in nodes[0].args):
            rest = [f for f in factors if f is not nodes[0]]
            if not any(fn_nodes_of(f) for f in rest):
                node, c = nodes[0], mul(*rest)
        _put(out, node, c)
    return {node: c for node, c in out.items() if c != RAT0}


def form_expr(form: dict) -> Expr:
    """The expanded sum of node * coefficient over a linear form."""
    return expand(add(*[mul(node, c) for node, c in form.items()]))


def generator_forms(v: VectorField) -> tuple:
    """(Q, xi, eta, tau, phi) of a generator as linear forms, each
    decomposed once."""
    return tuple(map(linear_form, (characteristic(v), v.xi, v.eta, v.tau, v.phi)))


def form_derivative(form: dict, d_arg, d_coeff) -> dict:
    """The derivative of a linear form under a derivation given on the
    nodes' arguments (``d_arg``) and on the coefficients (``d_coeff``): a
    node's derivative index rises by one in each slot whose argument has a
    nonzero derivative, times that derivative, and each coefficient adds
    its own derivative to its node.  Contributions to one node are added;
    zero entries are dropped."""
    out: dict = {}
    for node, c in form.items():
        if type(node) is Fn:
            for i, arg in enumerate(node.args):
                da = d_arg(arg)
                if da != RAT0:
                    didx = list(node.didx)
                    didx[i] += 1
                    _put(out, Fn(node.name, node.args, tuple(didx)),
                         c if da == RAT1 else expand(mul(da, c)))
        dc = d_coeff(c)
        if dc != RAT0:
            _put(out, node, dc)
    return {node: c for node, c in out.items() if c != RAT0}


def prolong_form(forms: tuple, *dirs) -> dict:
    """The prolongation coefficient of the generator in the directions
    ``dirs`` (one or two of x, y, t) as a linear form:
    D_dirs Q + xi*u_{x dirs} + eta*u_{y dirs} + tau*u_{t dirs}.  D_d of an
    argument atom (1, u_d or 0) and of a coefficient is taken once per
    expression and direction."""
    names = [_dir_name(d) for d in dirs]
    q, xi, eta, tau, _ = forms
    dcache: dict = {}
    out = q
    for name in reversed(names):
        def d(e, name=name):
            de = dcache.get((e, name))
            if de is None:
                de = dcache[e, name] = expand(total_derivative(e, name))
            return de

        out = form_derivative(out, d, d)
    out = dict(out)
    for comp, letter in ((xi, "x"), (eta, "y"), (tau, "t")):
        j = jet((letter, *names))
        for node, c in comp.items():
            _put(out, node, expand(mul(j, c)))
    return {node: c for node, c in out.items() if c != RAT0}


def prolong_coeff_first(v: VectorField, d) -> Expr:
    return form_expr(prolong_form(generator_forms(v), d))


def prolong_coeff_second(v: VectorField, d1, d2) -> Expr:
    return form_expr(prolong_form(generator_forms(v), d1, d2))
