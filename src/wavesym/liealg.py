"""Vector fields on (x, y, t, u)-space and their algebra.

A point symmetry generator is stored by its four ``Expr`` components.  Its
algebra runs in one ``LaurentRing`` per operation: x, y, t, u are the ring's
first four variables, so a component is a polynomial in them with
Laurent-polynomial parameter coefficients, and d/dz lowers one exponent
digit.  Brackets, commutator tables with exact structure constants, Jacobi
checks and span decompositions all work on those component polynomials; a
field is coordinatised by (component slot, coordinate monomial) with a
parameter polynomial at each, and all targets are solved for in the ring
from one sweep of the basis (``linalg.solve_span``).  A component that
is not polynomial in the coordinates raises ``LieAlgError``.  The
one-parameter flows of affine generators stay in ``Expr``."""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .expr import (
    Expr, Param, RAT0, RAT1, _as_expr, add, atoms_of, base, diff, div, exp_,
    expand, format_expr, jet, max_jet_order, mul, neg, param, substitute,
)
from .linalg import LaurentRing, add_product, solve_span

__all__ = [
    "VectorField", "CommutatorTable", "FlowMap", "LieAlgError",
    "FlowUnsupportedError", "COORDS", "EPS",
    "affine_parts", "commutator_table", "decompose_field",
    "decompose_fields", "jacobi_check", "flow",
]


class LieAlgError(Exception):
    pass


class FlowUnsupportedError(LieAlgError):
    pass


X, Y, T = base("x"), base("y"), base("t")
U = jet("")
COORDS = (X, Y, T, U)
EPS = param("eps")


class VectorField:
    """Generator xi*d/dx + eta*d/dy + tau*d/dt + phi*d/du with components
    depending on (x, y, t, u) only: an immutable value whose components
    are coerced with ``_as_expr``."""

    __slots__ = ("xi", "eta", "tau", "phi")

    def __init__(self, xi, eta, tau, phi):
        for name, comp in zip(self.__slots__, (xi, eta, tau, phi)):
            comp = _as_expr(comp)
            if max_jet_order(comp) >= 1:
                raise LieAlgError(
                    f"component {name} depends on a jet coordinate of order >= 1"
                )
            object.__setattr__(self, name, comp)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    def __eq__(self, other):
        return (self.components == other.components if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"VectorField{self.components}"

    def items(self):
        return (
            ("xi", self.xi), ("eta", self.eta),
            ("tau", self.tau), ("phi", self.phi),
        )

    @property
    def components(self):
        return (self.xi, self.eta, self.tau, self.phi)

    def apply(self, g: Expr) -> Expr:
        """Directional action xi*g_x + eta*g_y + tau*g_t + phi*g_u."""
        return add(*[mul(c, diff(g, z)) for c, z in zip(self.components, COORDS)])

    def __str__(self):
        parts = []
        for comp, sym in zip(self.components, ("d/dx", "d/dy", "d/dt", "d/du")):
            if expand(comp) != RAT0:
                parts.append(f"({format_expr(comp)})*{sym}")
        return " + ".join(parts) if parts else "0"


def _ring() -> LaurentRing:
    """A ring whose variables 0..3 are x, y, t, u."""
    ring = LaurentRing()
    for z in COORDS:
        ring.poly(z)
    return ring


def _polys(ring: LaurentRing, v: VectorField) -> list:
    """The components of ``v`` as polynomials of ``ring`` (see ``_ring``)."""
    out = []
    for name, comp in v.items():
        p = ring.poly(comp)
        for m in p:
            if any(q < 0 if d < 4 else type(ring.variables[d]) is not Param
                   for d, q in ring.support(m)):
                raise LieAlgError(
                    f"component {name} is not a polynomial in x, y, t, u with "
                    f"parameter coefficients: {format_expr(comp)}")
        out.append(p)
    return out


def _bracket(ring: LaurentRing, v: list, w: list, acc: list | None = None) -> list:
    """Component polynomials of [v, w], added into ``acc`` when given:
    component k is v(w^k) - w(v^k), v(g) being the sum over the
    coordinates z of v^z * dg/dz."""
    acc = [{} for _ in v] if acc is None else acc
    for out, vk, wk in zip(acc, v, w):
        for d, (vz, wz) in enumerate(zip(v, w)):
            if vz:
                add_product(out, vz, ring.diff(wk, d))
            if wz:
                add_product(out, {m: -k for m, k in wz.items()}, ring.diff(vk, d))
    return acc


# the coordinates' digits in collect_atoms order
_ATOM_RANK = {d: r for r, d in enumerate(sorted(range(4), key=lambda d: COORDS[d].sort_key()))}


def _coordinate_table(ring: LaurentRing, field: list) -> dict:
    """{(slot, coordinate monomial): parameter polynomial} of one field, a
    monomial keyed in collect_atoms order: by atom, then power."""
    out: dict = {}
    for slot, p in enumerate(field):
        for m, k in p.items():
            coords = [(d, q) for d, q in ring.support(m) if d < 4]
            key = (slot, tuple(sorted((_ATOM_RANK[d], q) for d, q in coords)))
            out.setdefault(key, {})[m - sum(q * ring.unit(d) for d, q in coords)] = k
    return out


def _coordinates(ring: LaurentRing, basis: list, targets: list) -> tuple:
    """``solve_span`` of the targets in the span of the basis, all fields
    given by their component polynomials and coordinatised together
    (``_coordinate_table``): (coordinate lists or None, independent)."""
    return solve_span([_coordinate_table(ring, f) for f in basis],
                      [_coordinate_table(ring, f) for f in targets], ring)


class CommutatorTable(namedtuple("CommutatorTable", "fields entries ring polys brackets")):
    """All pairwise brackets of a basis, decomposed exactly in that basis.

    entries[(i, j)] is the coefficient list of [v_i, v_j], or None when the
    bracket falls outside the span (non-closure).  The basis fields'
    component polynomials (``polys``) and those of each bracket
    (``brackets[(i, j)]``, i < j) are polynomials of ``ring``."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.fields)

    def closed(self) -> bool:
        return all(v is not None for v in self.entries.values())

    def structure_triples(self):
        """Sorted (i, j, k, coefficient) with nonzero coefficients, 0-based."""
        out = []
        for (i, j), coeffs in sorted(self.entries.items()):
            if coeffs is None:
                continue
            for k, c in enumerate(coeffs):
                if c != RAT0:
                    out.append((i, j, k, c))
        return out

    def grid_strings(self):
        names = [f"v{i+1}" for i in range(self.n)]
        grid = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                coeffs = self.entries[(i, j)]
                if coeffs is None:
                    row.append("<not in span>")
                    continue
                parts = []
                for k, c in enumerate(coeffs):
                    if c == RAT0:
                        continue
                    if c == RAT1:
                        parts.append(names[k])
                    elif expand(c) == expand(neg(RAT1)):
                        parts.append(f"-{names[k]}")
                    else:
                        parts.append(f"({format_expr(c)})*{names[k]}")
                row.append(" + ".join(parts) if parts else "0")
            grid.append(row)
        return grid


def commutator_table(basis) -> CommutatorTable:
    basis = list(basis)
    n = len(basis)
    ring = _ring()
    fields = [_polys(ring, v) for v in basis]
    brackets = {(i, j): _bracket(ring, fields[i], fields[j]) for i, j in combinations(range(n), 2)}
    coords, independent = _coordinates(ring, fields, list(brackets.values()))
    if not independent:
        raise LieAlgError("basis fields are linearly dependent")
    entries = {(i, i): [RAT0] * n for i in range(n)}
    for (i, j), coeffs in zip(brackets, coords):
        entries[(i, j)] = coeffs
        entries[(j, i)] = None if coeffs is None else [expand(neg(c)) for c in coeffs]
    return CommutatorTable(basis, entries, ring, fields, brackets)


def decompose_fields(basis, targets) -> list:
    """Exact coordinates of each of ``targets`` in the span of ``basis``
    (component polynomial coefficients are compared), or None when outside
    the span, from one sweep of the basis."""
    ring = _ring()
    basis = [_polys(ring, v) for v in basis]
    return _coordinates(ring, basis, [_polys(ring, t) for t in targets])[0]


def decompose_field(basis, target: VectorField):
    """``decompose_fields`` for one target."""
    return decompose_fields(basis, [target])[0]


def jacobi_check(table: CommutatorTable) -> dict:
    """Jacobi identity residuals for every triple of the table's basis,
    exactly zero in the table's ring.  Each bracket of two basis fields is
    the table's: [v_j, v_k] for j < k, and [v_k, v_i] enters as -[v_i, v_k]."""
    ring, fields, brackets = table.ring, table.polys, table.brackets
    report = {}
    for i, j, k in combinations(range(table.n), 3):
        # [v_i, [v_j, v_k]] + [[v_i, v_k], v_j] + [v_k, [v_i, v_j]]
        s = _bracket(ring, fields[i], brackets[j, k])
        _bracket(ring, brackets[i, k], fields[j], s)
        _bracket(ring, fields[k], brackets[i, j], s)
        report[(i, j, k)] = not any(s)
    return report


class FlowMap(namedtuple("FlowMap", "maps")):
    """One-parameter group action: new coordinates as expressions in
    (x, y, t, u, eps), ``maps`` = (x-map, y-map, t-map, u-map).  At
    eps = 0 every map is the identity."""

    __slots__ = ()

    def at(self, eps_value) -> tuple:
        return tuple(substitute(m, {EPS: eps_value}) for m in self.maps)

    def inverse(self) -> "FlowMap":
        return FlowMap(tuple(substitute(m, {EPS: neg(EPS)}) for m in self.maps))


def affine_parts(v: VectorField) -> tuple:
    """``((a, b), ...)`` with component k equal to a*z + b in coordinate k
    alone, a and b free of every coordinate.  The reference generators and
    their linear combinations have this affine-decoupled form; a coupled or
    non-affine field (the rotation, say) raises FlowUnsupportedError."""
    parts = []
    coordset = set(COORDS)
    for comp, z in zip(v.components, COORDS):
        a = expand(diff(comp, z))
        b = expand(add(comp, neg(mul(a, z))))
        if atoms_of(a) & coordset or atoms_of(b) & coordset:
            raise FlowUnsupportedError(
                f"component for {format_expr(z)} is not affine-decoupled: {format_expr(comp)}"
            )
        parts.append((a, b))
    return tuple(parts)


def flow(v: VectorField) -> FlowMap:
    """Exact flow of an affine-decoupled generator (``affine_parts``);
    coupled or non-affine fields are unsupported."""
    maps = []
    for (a, b), z in zip(affine_parts(v), COORDS):
        if a == RAT0:
            maps.append(add(z, mul(EPS, b)))
        else:
            g = exp_(mul(a, EPS))
            maps.append(add(mul(g, z), mul(add(g, neg(RAT1)), div(b, a))))
    return FlowMap(tuple(maps))
