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
takes the same route), and each coefficient is converted once into a
``LaurentRing`` polynomial (``generator_forms``).  D_d of a form
(``form_derivative``) raises each node's derivative index in the slot
whose argument is d, adds u_d times the shift of a slot whose argument is
u, and differentiates each coefficient in the ring.  D_x, D_y and D_t are
one ring derivation (``total_derivation``, a ``linalg.Derivation``): its
table maps each jet to its shifted jet, a coordinate to 1 or 0, a
parameter to 0 and every other variable (exp(u/c), a power of a sum, a
function node such as f(u)) to its total derivative, converted from
``Expr`` once per variable and direction.  An expression is never
prolonged whole; ``Expr`` is built from the ring only where a caller asks
for it (``ring_form_expr``, ``prolong_coeff_first``/``_second``)."""

from __future__ import annotations

from .expr import (
    Base, Expr, Fn, Jet, Param, Product, RAT0, RAT1, Sum, add, base, diff,
    expand, fn_nodes_of, jet, jets_of, max_jet_order, mul, neg,
)
from .liealg import VectorField
from .linalg import Derivation, LaurentRing, add_product

__all__ = [
    "DIRECTIONS", "JetOrderError", "total_derivative",
    "characteristic", "linear_form", "form_poly", "ring_form_expr",
    "total_derivation",
    "generator_forms", "form_derivative", "prolong_form",
    "prolong_coeff_first", "prolong_coeff_second",
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
        parts.append(mul(jet(j.idx + (name,)), diff(e, j)))
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


def total_derivation(ring: LaurentRing) -> Derivation:
    """D_x, D_y and D_t as one derivation of ``ring``, the direction a
    letter: its table maps a jet u_J to u_{J,d}, a coordinate to 1 or 0, a
    parameter to 0 and every other variable v (an ``exp``, a power of a
    sum, a function node) to ``total_derivative(v, d)``, converted once per
    variable and direction."""

    def rule(v, name):
        t = type(v)
        if t is Jet:
            if v.order > 3:
                raise JetOrderError(
                    "total derivative of a 4th-order jet would exceed the order cap")
            return {ring.var(jet(v.idx + (name,))): 1}
        if t is Base:
            return {0: 1} if v.name == name else {}
        if t is Param:
            return {}
        return ring.poly(total_derivative(v, name))

    return Derivation(ring, rule)


def generator_forms(v: VectorField, derivation: Derivation) -> tuple:
    """(derivation, Q, xi, eta, tau, phi): the generator's Q, xi, eta,
    tau, phi as linear forms, each decomposed once and its coefficients
    converted once into the ring of ``derivation``."""
    ring = derivation.ring
    return (derivation, *(
        {node: ring.poly(c) for node, c in linear_form(e).items()}
        for e in (characteristic(v), v.xi, v.eta, v.tau, v.phi)))


def form_derivative(form: dict, derivation: Derivation, direction) -> dict:
    """The derivative of a linear form with coefficients in the ring of
    ``derivation``: a node's derivative index rises by one in each slot
    whose argument (a variable of the ring) has a nonzero derivative, times
    that derivative, and each coefficient adds its own derivative to its
    node.  Contributions to one node are added; zero entries are
    dropped."""
    out: dict = {}
    for node, c in form.items():
        if type(node) is Fn:
            for i, arg in enumerate(node.args):
                da = derivation.variable(arg, direction)
                if da:
                    didx = list(node.didx)
                    didx[i] += 1
                    add_product(out.setdefault(Fn(node.name, node.args, tuple(didx)), {}), da, c)
        dc = derivation(c, direction)
        if dc:
            add_product(out.setdefault(node, {}), dc, {0: 1})
    return {node: c for node, c in out.items() if c}


def prolong_form(forms: tuple, *dirs) -> dict:
    """The prolongation coefficient of the generator in the directions
    ``dirs`` (one or two of x, y, t) as a linear form with ring
    coefficients: D_dirs Q + xi*u_{x dirs} + eta*u_{y dirs} + tau*u_{t dirs}."""
    names = [_dir_name(d) for d in dirs]
    derivation, out, xi, eta, tau, _ = forms
    for name in reversed(names):
        out = form_derivative(out, derivation, name)
    out = {node: dict(c) for node, c in out.items()}
    for comp, letter in ((xi, "x"), (eta, "y"), (tau, "t")):
        j = {derivation.ring.var(jet((letter, *names))): 1}
        for node, c in comp.items():
            add_product(out.setdefault(node, {}), j, c)
    return {node: c for node, c in out.items() if c}


def form_poly(ring: LaurentRing, form: dict) -> dict:
    """A linear form with coefficients in ``ring`` as one polynomial, each
    ``Fn`` node taken as its variable."""
    out: dict = {}
    for node, p in form.items():
        add_product(out, p, {ring.var(node): 1} if type(node) is Fn else {0: 1})
    return out


def ring_form_expr(ring: LaurentRing, form: dict) -> Expr:
    """The sum of node * coefficient over a linear form with coefficients
    in ``ring``, built with one ``ring.expr``."""
    return ring.expr(form_poly(ring, form))


def prolong_coeff_first(v: VectorField, d) -> Expr:
    ring = LaurentRing()
    return ring_form_expr(ring, prolong_form(generator_forms(v, total_derivation(ring)), d))


def prolong_coeff_second(v: VectorField, d1, d2) -> Expr:
    ring = LaurentRing()
    return ring_form_expr(ring, prolong_form(generator_forms(v, total_derivation(ring)), d1, d2))
