"""Invariance condition, on-shell reduction, and the determining system.

The invariance residual of a generator v against the model
u_tt - f(u)*(u_xx + u_yy) = 0 is

    coeff_2(v,t,t) - phi*f'(u)*(u_xx + u_yy) - f(u)*(coeff_2(v,x,x) + coeff_2(v,y,y))

evaluated on-shell (every jet carrying two or more t indices rewritten
through the equation and its total derivatives).  Collecting the result
over jet monomials -- and, for a concrete nonlinearity, over the linearly
independent u-dependence of the coefficients -- yields the determining
system, a linear homogeneous system for the components of v.

The residual is linear in v and its coefficients are polynomials in the
jets, u, the parameters and the family's u-dependent factors, so the
extraction runs in one ``LaurentRing`` and never builds the residual as an
expression.  The generator is prolonged on linear forms {component node:
polynomial} (``jet.prolong_form``), D_x, D_y and D_t being one ring
derivation; f and f' are converted once, and the u_tt rewrite substitutes
one ring variable.  Collecting over the jets reads their exponents.
Splitting over u first clears the u-dependent denominators (those of the
sums among them) by one monomial and writes each sum out as its
polynomial in u (``_Fold``); the variables left
(parameters, u, one marker such as exp(u/c), the components) are then
independent, so reading exponents is a valid zero test.  Under a
polynomial ansatz the system is solved exactly over the parameter field:
the ansatz rows read each entry's {node: parameter polynomial}, and their
selection mod p, the elimination and the residual certificate all run in
the extraction's ring.  The derive implication test closes the generic
system's forms in the same ring and decides every reference condition by
one exact sweep there, over f, f', f'', f''': for generic f these are
independent, the premise every rank over the ring needs.  ``Expr`` is
built only where a report prints it: the entries
(``DeterminingSystem.entries``, one ``ring.expr`` per entry) and the
basis.  ``on_shell`` and ``split_u_dependence`` keep the ``Expr`` routines
as references; ``invariance_residual`` returns the ring's residual (before
the rewrite) as an ``Expr``.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterator
from math import ceil, perm, prod

from .expr import (
    Base, EvalDomainError, Expr, ExprError, Fn, Jet, NonPolynomialError, Param, Pow,
    Product, Rat, Sum, RAT1, add, atoms_of, base, clear_denominators, collect_atoms,
    diff, expand, fn, fn_nodes_of, format_expr, jet, jets_of, mul, param, pow_, sub,
    substitute, vanishes,
)
from .jet import (
    form_derivative, form_poly, generator_forms, prolong_form, ring_form_expr,
    total_derivation, total_derivative,
)
from .liealg import VectorField
from .linalg import (
    Derivation, LaurentRing, add_product, annihilates, independent_rows_mod_p, nullspace,
    sweep_span,
)
from . import reference

__all__ = [
    "DetSysError", "FFamily", "Generic", "ExponentialCase", "PowerCase",
    "UTag", "DeterminingSystem", "AnsatzSpec", "SolutionSpace",
    "model_residual", "on_shell", "invariance_residual", "opaque_vectorfield",
    "opaque_affine_vectorfield", "extract_determining", "split_u_dependence",
    "check_reference_system", "reference_implication_report", "RowSelection",
    "ansatz_solve",
]

X, Y, T, U = base("x"), base("y"), base("t"), jet("")
# ansatz_solve picks the rows it eliminates by their rank over GF(PRIME) at
# the point drawn from this seed
PRIME = 2**31 - 1
SELECTION_SEED = 11
# the implication report closes the derived system under x, y, t, u
# derivatives up to this order
PROLONG_ORDER = 2
ONE = {0: 1}  # the ring's polynomial 1


class DetSysError(Exception):
    pass


def _nonzero_expr(e: Expr, what: str):
    if isinstance(e, Rat) and e.value == 0:
        raise DetSysError(f"degenerate family parameter: {what} must be nonzero")


class FFamily:
    """A family of f(u): an immutable value, equal to a family of its own
    type whose parameters (the names in ``__slots__``) are equal."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._values()))})"

    def f_expr(self) -> Expr:
        raise NotImplementedError

    def fu_expr(self) -> Expr:
        return diff(self.f_expr(), U)


class Generic(FFamily):
    """Arbitrary smooth f(u) with f'(u) not identically zero."""

    __slots__ = ()

    def f_expr(self) -> Expr:
        return fn("f", [U])


class ExponentialCase(FFamily):
    """f(u) = K*exp(u/c), the constant-ratio branch f/f' = c."""

    __slots__ = ("K", "c")

    def __init__(self, K: Expr = param("K"), c: Expr = param("c")):
        _nonzero_expr(K, "K")
        _nonzero_expr(c, "c")
        super().__init__(K, c)

    def f_expr(self) -> Expr:
        return reference.exponential_f(self.K, self.c)

    def reference_basis(self) -> list:
        return reference.case_i_basis(self.c)


class PowerCase(FFamily):
    """f(u) = L*(e1*u + e2)^(1/e1), the linear-ratio branch f/f' = e1*u + e2."""

    __slots__ = ("L", "e1", "e2")

    def __init__(self, L: Expr = param("L"), e1: Expr = param("e1"), e2: Expr = param("e2")):
        _nonzero_expr(L, "L")
        _nonzero_expr(e1, "e1")
        super().__init__(L, e1, e2)

    def f_expr(self) -> Expr:
        return reference.power_f(self.L, self.e1, self.e2)

    def reference_basis(self) -> list:
        return reference.case_ii_basis(self.e1, self.e2)


def model_residual(fam: FFamily | None = None) -> Expr:
    """u_tt - f(u)*(u_xx + u_yy); opaque f when no family is given."""
    f = (fam or Generic()).f_expr()
    return sub(jet("tt"), mul(f, add(jet("xx"), jet("yy"))))


def on_shell(e: Expr, fam: FFamily | None = None) -> Expr:
    """Rewrite every jet with two or more t indices through the model
    equation (and its total derivatives) until none remains.  The
    extraction rewrites in its ring (``_on_shell``); this is the ``Expr``
    reference."""
    rhs_tt = mul((fam or Generic()).f_expr(), add(jet("xx"), jet("yy")))
    binds: dict = {}
    for _ in range(4):
        targets = [j for j in jets_of(e) if j.idx.count("t") >= 2]
        if not targets:
            return e
        for j in targets:
            if j not in binds:
                extra = list(j.idx)
                extra.remove("t")
                extra.remove("t")
                rep = rhs_tt
                for letter in extra:
                    rep = total_derivative(rep, letter)
                binds[j] = rep
        e = substitute(e, {j: binds[j] for j in targets})
    raise DetSysError("on-shell substitution cycle guard triggered")


def _on_shell(form: dict, rhs_tt: dict, ring: LaurentRing) -> dict:
    """coeff_2(t, t) as a linear form with ring coefficients, on-shell: the
    variable u_tt, the only jet with two t indices there (D_x and D_y add
    none, and the third-order jets cancel), replaced by rhs_tt."""
    tt = ring.var(jet("tt"))
    out = {}
    for node, c in form.items():
        new: dict = {}
        for m, k in c.items():
            q = next((q for d, q in ring.support(m) if ring.unit(d) == tt), 0)
            term = {m - q * tt: k}
            for _ in range(q):
                term = add_product({}, term, rhs_tt)
            add_product(new, term, ONE)
        if new:
            out[node] = new
    return out


def _residual_form(v: VectorField, fam: FFamily, ring: LaurentRing, shell: bool) -> dict:
    """The invariance residual of v as a linear form {component node:
    coefficient} with coefficients in ``ring``, on-shell when ``shell`` is
    set (``_on_shell``).  f and f' are converted, and so expanded, once."""
    derivation = total_derivation(ring)
    lap = {ring.var(jet("xx")): 1, ring.var(jet("yy")): 1}
    f = ring.poly(fam.f_expr())
    minus_f = {m: -k for m, k in f.items()}
    minus_fu_lap = add_product({}, ring.poly(fam.fu_expr()), {m: -1 for m in lap})
    forms = generator_forms(v, derivation)
    tt, xx, yy = (prolong_form(forms, d, d) for d in "txy")
    if shell:
        tt = _on_shell(tt, add_product({}, f, lap), ring)
    out = {}
    phi = forms[-1]
    for node in dict.fromkeys([*tt, *phi, *xx, *yy]):
        c = dict(tt.get(node, {}))
        add_product(c, phi.get(node, {}), minus_fu_lap)
        add_product(c, minus_f, xx.get(node, {}))
        add_product(c, minus_f, yy.get(node, {}))
        if c:
            out[node] = c
    return out


def invariance_residual(v: VectorField, fam: FFamily | None = None) -> Expr:
    """Second-prolongation action of v on the model, before going on-shell."""
    ring = LaurentRing()
    return ring_form_expr(ring, _residual_form(v, fam or Generic(), ring, shell=False))


def opaque_vectorfield() -> VectorField:
    """Generator with fully opaque components xi(x,y,t,u), ..., phi(x,y,t,u)."""
    args = [X, Y, T, U]
    return VectorField(
        fn("xi", args), fn("eta", args), fn("tau", args), fn("phi", args)
    )


def opaque_affine_vectorfield() -> VectorField:
    """Generator with opaque xi, eta, tau, alpha, beta of (x, y, t) and
    phi = alpha*u + beta: the shape of the polynomial ansatz."""
    xi, eta, tau, alpha, beta = (
        fn(name, [X, Y, T]) for name in ("xi", "eta", "tau", "alpha", "beta"))
    return VectorField(xi, eta, tau, add(mul(alpha, U), beta))


class UTag:
    """u-dependence label of one determining coefficient: a plain power of u
    times an optional transcendental factor (e.g. exp(u/c)).  Equality,
    hash and order read ``(u_power, factor_key)``, never ``factor``."""

    __slots__ = ("u_power", "factor_key", "factor")

    def __init__(self, u_power: int, factor_key: tuple = (), factor: Expr | None = None):
        self.u_power, self.factor_key, self.factor = u_power, factor_key, factor

    def _key(self) -> tuple:
        return self.u_power, self.factor_key

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is UTag else NotImplemented

    def __lt__(self, other):
        return self._key() < other._key() if type(other) is UTag else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __str__(self):
        parts = []
        if self.u_power:
            parts.append("u" if self.u_power == 1 else f"u^{self.u_power}")
        if self.factor is not None:
            parts.append(format_expr(self.factor))
        return "*".join(parts) if parts else "1"


def split_u_dependence(e: Expr) -> dict:
    """Split an expression (free of jets of order >= 1) by its u-dependence.

    Negative powers of u-dependent bases are first cleared, a fractional
    one to the next integer, by multiplying through by a product of those
    bases (legitimate for homogeneous equations: the bases are nonzero
    wherever the family is defined); ``clear_denominators`` then writes
    the fractional powers of each sum as one factor.  Every u-dependent
    factor other than a positive power of u (e.g. exp(u/c), or
    (2*u + 1)^(1/2)) is a marker, collected like u itself.  Returns
    {UTag: coefficient} with coefficients free of u.  The extraction splits
    in its ring (``_Fold.split_u``); this is the ``Expr`` reference."""
    try:
        (e,) = clear_denominators([e], lambda b, q: ceil(q) if U in atoms_of(b) else 0)
    except ExprError:
        raise DetSysError("could not clear u-dependent denominators") from None
    markers = {
        f
        for term in (e.terms if type(e) is Sum else (e,))
        for f in (term.factors if type(term) is Product else (term,))
        if U in atoms_of(f) and f != U and not _u_power(f)
    }
    out: dict = {}
    for key, coeff in collect_atoms(e, {U, *markers}).items():
        found = [pow_(m, k) for m, k in key if m != U]
        out[_utag(dict(key).get(U, 0), found)] = coeff
    return out


def _u_power(f: Expr) -> int:
    """k when the factor f is u^k, k a positive integer, else 0."""
    if f == U:
        return 1
    if type(f) is Pow and f.expbase == U and f.exp.denominator == 1 and f.exp > 0:
        return int(f.exp)
    return 0


def _utag(u_power: int, markers: list) -> UTag:
    marker = mul(*markers) if markers else None
    return UTag(u_power, marker.sort_key() if markers else (), marker)


class _Var:
    """A ring variable read as base^power: b^(1/q) for a fractional power
    of b, b itself (power 1) otherwise."""

    __slots__ = ("base", "power", "is_sum", "u_dependent")

    def __init__(self, v: Expr):
        self.base, self.power = (v.expbase, v.exp) if type(v) is Pow else (v, 1)
        self.is_sum = type(self.base) is Sum
        self.u_dependent = U in atoms_of(self.base)


class _Fold:
    """u-dependent denominators cleared and sums written out, in a
    ``LaurentRing``.

    Called on polynomials that must vanish together, it multiplies them by
    one term, nonzero wherever the family is defined: the smallest power of
    each u-dependent base that takes its every negative power in a term to
    a nonnegative one (a sum base as a power of its variable).  It then
    writes each term's total power e of a sum base S as S^n * S^(e - n),
    S^n expanded into its polynomial: n = e for integer e, floor(e) for
    fractional e > 1, 0 otherwise.  Terms then hold each sum at most as one
    fractional power in (0, 1) (or a negative power of a sum free of u), so
    the variables left are independent wherever the families are defined,
    and a term's exponents name it uniquely: reading them is a zero test.
    ``split_u`` then reads the u-tags off the exponents."""

    def __init__(self, ring: LaurentRing):
        self.ring = ring
        self._vars: dict = {}  # digit -> _Var
        self._sums: dict = {}  # monomial of the sum variables -> polynomial
        self._tags: dict = {}  # monomial of the u-dependent variables -> (UTag, rational)

    def var(self, d: int) -> _Var:
        out = self._vars.get(d)
        if out is None:
            out = self._vars[d] = _Var(self.ring.variables[d])
        return out

    def _powers(self, pairs) -> dict:
        """{base: total power} over (digit, exponent) pairs."""
        out: dict = {}
        for d, q in pairs:
            v = self.var(d)
            out[v.base] = out.get(v.base, 0) + q * v.power
        return out

    def __call__(self, polys: list) -> list:
        ring = self.ring
        need: dict = {}
        for p in polys:
            for m in p:
                pairs = [(d, q) for d, q in ring.support(m) if self.var(d).u_dependent]
                if any(q < 0 for _, q in pairs):
                    for b, e in self._powers(pairs).items():
                        if e < 0 and ceil(-e) > need.get(b, 0):
                            need[b] = ceil(-e)
        if need:
            factor = ONE
            for b in sorted(need, key=Expr.sort_key):
                factor = add_product({}, factor, {need[b] * ring.var(b): 1}
                                     if type(b) is Sum else ring.poly(pow_(b, need[b])))
            polys = [add_product({}, p, factor) for p in polys]
        return [self._write_sums(p) for p in polys]

    def _write_sums(self, p: dict) -> dict:
        ring = self.ring
        out: dict = {}
        for m, k in p.items():
            pairs = [(d, q) for d, q in ring.support(m) if self.var(d).is_sum]
            sm = sum(q * ring.unit(d) for d, q in pairs)
            rep = self._sums.get(sm)
            if rep is None:
                rep = ONE
                for b, e in self._powers(pairs).items():
                    n = e if e.denominator == 1 else e.numerator // e.denominator if e > 1 else 0
                    rep = add_product({}, rep, ring.poly(pow_(b, n)))
                    rep = add_product({}, rep, ring.poly(pow_(b, e - n)))
                self._sums[sm] = rep
            add_product(out, {m - sm: k}, rep)
        return out

    def split_u(self, p: dict) -> dict:
        """A folded polynomial split by u-dependence: {UTag: polynomial
        free of u}.  A term's u-dependent variables, multiplied out as an
        ``Expr`` once per monomial of them, give its tag: the power of u,
        and every other u-dependent factor as the marker."""
        ring = self.ring
        out: dict = {}
        for m, k in p.items():
            um = sum(q * ring.unit(d) for d, q in ring.support(m) if self.var(d).u_dependent)
            hit = self._tags.get(um)
            if hit is None:
                e = mul(*[pow_(ring.variables[d], q) for d, q in ring.support(um)])
                r, u_power, markers = 1, 0, []
                for f in e.factors if type(e) is Product else (e,):
                    if type(f) is Rat:
                        r = f.value
                    elif _u_power(f):
                        u_power += _u_power(f)
                    else:
                        markers.append(f)
                hit = self._tags[um] = (_utag(u_power, markers), r)
            tag, r = hit
            add_product(out.setdefault(tag, {}), {m - um: k * r}, ONE)
        return {tag: q for tag, q in out.items() if q}


class DeterminingSystem:
    """Expressions required to vanish identically, each tagged with the jet
    monomial (and, for concrete families, the u-dependence) it came from.

    The extraction keeps each entry as a linear form {component node:
    polynomial} in its ``ring`` (``ring_forms``), and the on-shell residual
    the entries were collected from as one such form (``residual``).  The
    entries' ``Expr`` (``entries``) are built from the ring on first use,
    with one ``ring.expr`` per entry."""

    def __init__(self, family: FFamily, residual: dict, ring: LaurentRing, keys: list,
                 ring_forms: list):
        self.family = family
        self.residual = residual
        self.ring = ring
        self.keys = keys
        self.ring_forms = ring_forms
        self._entries = None

    @property
    def entries(self) -> list:
        """[(monomial text | (monomial text, UTag), Expr), ...]"""
        if self._entries is None:
            self._entries = [(key, ring_form_expr(self.ring, form))
                             for key, form in zip(self.keys, self.ring_forms)]
        return self._entries

    def __len__(self):
        return len(self.keys)

    def serializable(self):
        out = []
        for key, e in self.entries:
            mono, tag = key if isinstance(key, tuple) else (key, "1")
            origin = mono if str(tag) == "1" else f"{mono} ; {tag}"
            out.append({"origin_monomial": origin, "expression_text": format_expr(e)})
        return out


def _node_form(ring: LaurentRing, p: dict, nodes: dict) -> dict:
    """A polynomial linear in the node variables ``nodes`` {monomial: node}
    as {node: polynomial}; a term without one is filed under 1."""
    out: dict = {}
    for m, k in p.items():
        hit = [(ring.unit(d), q) for d, q in ring.support(m) if ring.unit(d) in nodes]
        if len(hit) > 1 or (hit and hit[0][1] != 1):
            raise DetSysError("an entry is not linear homogeneous in the components")
        node, n = (nodes[hit[0][0]], m - hit[0][0]) if hit else (RAT1, m)
        out.setdefault(node, {})[n] = k
    return out


def extract_determining(v: VectorField, fam: FFamily | None = None) -> DeterminingSystem:
    """On-shell invariance residual collected over jet monomials; for a
    concrete family each coefficient is further split by u-dependence.

    Everything runs in one ``LaurentRing`` whose variables are the jets,
    u, x, y, t, the parameters, the family's u-dependent factors (exp(u/c);
    a power of e1*u + e2, its exp/ln marker; f, f', ... for the generic
    family) and the component nodes.  The residual form comes from
    ``_residual_form``; collecting over the jets of order >= 1 reads their
    exponents.  For a concrete family an entry's form, summed over its
    nodes into one polynomial, is cleared of its u-dependent denominators
    and its sums are written out (``_Fold``), so the variables left are
    independent and ``_Fold.split_u`` reads the u-tags off the exponents."""
    fam = fam or Generic()
    ring = LaurentRing()
    res = _residual_form(v, fam, ring, shell=True)
    jets = {d for d, x in enumerate(ring.variables) if type(x) is Jet and x.idx}
    tables: dict = {}  # jet monomial -> {node: polynomial}
    for node, c in res.items():
        for m, k in c.items():
            jm = sum(q * ring.unit(d) for d, q in ring.support(m) if d in jets)
            tables.setdefault(jm, {}).setdefault(node, {})[m - jm] = k

    def jet_key(jm):
        return sorted(((ring.variables[d], q) for d, q in ring.support(jm)),
                      key=lambda jq: jq[0].sort_key())

    keys, ring_forms = [], []
    generic = isinstance(fam, Generic)
    fold = _Fold(ring)
    nodes = {ring.var(node): node for node in res if type(node) is Fn}
    # by total degree, then jet by jet; an entry is keyed by the monomial's text
    for jm in sorted(tables, key=lambda jm: (
            sum(q for _, q in ring.support(jm)),
            tuple((j.sort_key(), q) for j, q in jet_key(jm)))):
        mono = format_expr(mul(*[pow_(j, q) for j, q in jet_key(jm)]))
        form = tables[jm]
        if generic:
            keys.append(mono)
            ring_forms.append(form)
            continue
        (whole,) = fold([form_poly(ring, form)])
        pieces = fold.split_u(whole)
        for tag in sorted(pieces):
            keys.append((mono, tag))
            ring_forms.append(_node_form(ring, pieces[tag], nodes))
    return DeterminingSystem(fam, res, ring, keys, ring_forms)


def check_reference_system(v: VectorField, fam: FFamily | None = None) -> dict:
    """Evaluate the bundled determining conditions on a concrete generator;
    every residual must normalize to zero for a symmetry."""
    fam = fam or Generic()
    conds = reference.determining_conditions(
        v.xi, v.eta, v.tau, v.phi, fam.f_expr(), fam.fu_expr()
    )
    return {
        name: (res, vanishes(res))
        for name, res in ((n, expand(r)) for n, r in conds.items())
    }


# ---------------------------------------------------------------------------
# generic-f comparison: is each reference condition implied by the derived
# system?


def _linear_decomposition(e: Expr, unknown_names) -> dict:
    """Write an expression that is linear homogeneous in opaque nodes with
    heads in ``unknown_names`` as {node: coefficient expression}."""
    try:
        table = collect_atoms(e, {n for n in fn_nodes_of(e) if n.name in unknown_names})
    except NonPolynomialError as err:
        raise DetSysError(f"not linear in the components: {err}") from None
    for key in table:
        if len(key) != 1 or key[0][1] != 1:
            mono = format_expr(mul(*[pow_(n, p) for n, p in key]))
            raise DetSysError(f"the {mono} terms are not linear homogeneous in the components")
    return {key[0][0]: coeff for key, coeff in table.items()}


def _partial_derivation(ring: LaurentRing) -> Derivation:
    """d/da on ``ring``, a one of x, y, t, u: each variable's derivative is
    ``diff`` of it, converted once per variable and direction."""
    return Derivation(ring, lambda v, a: ring.poly(diff(v, a)))


def _interned(ring: LaurentRing, form: dict) -> tuple:
    """(hashable key, form) of a linear form with its coefficients interned
    in ``ring`` (``LaurentRing.intern``): equal forms have equal keys."""
    form = dict(zip(form, map(ring.intern, form.values())))
    return frozenset(zip(form, map(id, form.values()))), form


def _close_forms(forms: list, prolong_order: int, derivation: Derivation) -> list:
    """The linear forms followed by their x, y, t, u derivatives up to
    ``prolong_order``, level by level: each form of the last level is
    differentiated in x, y, t, u, in that order, and a derivative that is
    zero or equal to a form already held is not added.  The rows'
    coefficients are interned in the derivation's ring.  Each derivative
    is ``jet.form_derivative``, so its shifts come from the derivation's
    shift table, and a pure shift (an x, y or t derivative of generic-f
    forms) keeps the interned coefficient objects of its form: only the
    u derivatives' new coefficients are hashed to be interned.  The
    components' arguments must be atoms; a derivative's components have
    the arguments of its form's, so only the input forms are checked."""
    ring = derivation.ring
    for form in forms:
        for node in form:
            for arg in node.args if type(node) is Fn else ():
                if type(arg) not in (Base, Jet, Param):
                    raise DetSysError(f"component argument {format_expr(arg)} is a non-atom")
    seen, rows = set(), []
    for form in forms:
        key, form = _interned(ring, form)
        seen.add(key)
        rows.append(form)
    frontier = rows
    for _ in range(prolong_order):
        nxt = []
        for form in frontier:
            for a in (X, Y, T, U):
                key, d = _interned(ring, form_derivative(form, derivation, a))
                if d and key not in seen:
                    seen.add(key)
                    nxt.append(d)
        rows = rows + nxt
        frontier = nxt
    return rows


def _implication_system(ds: DeterminingSystem) -> tuple:
    """(names, derived, conditions) of the implication test: the reference
    conditions' names, then the closed derived forms and the conditions'
    forms as sparse vectors {column: ring polynomial} over one column per
    component derivative, in ``Expr`` order."""
    if not isinstance(ds.family, Generic):
        raise DetSysError("implication report applies to the generic family")
    v = opaque_vectorfield()
    fam = Generic()
    conds = reference.determining_conditions(
        v.xi, v.eta, v.tau, v.phi, fam.f_expr(), fam.fu_expr()
    )
    names = ("xi", "eta", "tau", "phi")
    ring = ds.ring
    if any(type(n) is not Fn or n.name not in names for d in ds.ring_forms for n in d):
        raise DetSysError("the derived system is not linear homogeneous in xi, eta, tau, phi")
    derived = _close_forms(ds.ring_forms, PROLONG_ORDER, _partial_derivation(ring))
    cond_forms = [{node: ring.poly(c) for node, c in _linear_decomposition(e, names).items()}
                  for e in conds.values()]
    col = {node: i for i, node in enumerate(sorted(
        {node for d in derived + cond_forms for node in d}, key=Expr.sort_key))}
    return (list(conds), *[[{col[node]: p for node, p in d.items()} for d in forms]
                           for forms in (derived, cond_forms)])


def reference_implication_report(ds: DeterminingSystem) -> tuple:
    """Decide exactly whether each bundled determining condition is implied
    by the engine-derived system.  Returns ({name: {"implied"}}, check).

    Every equation is a linear form {component derivative: coefficient} in
    the opaque xi, eta, tau, phi, with coefficients polynomial in u and the
    derivatives of f, in the extraction's ``LaurentRing``.  The derived
    equations come with their forms from the extraction
    (``ds.ring_forms``), the reference conditions are decomposed and
    converted once, and the derived forms are closed under differential
    consequences up to ``PROLONG_ORDER`` (each differentiated with respect
    to x, y, t, u), since the reference's simplified conditions use such
    consequences.  The closure stays on linear forms (``_close_forms``):
    differentiating shifts the components' derivative indices, each
    component derivative's shifts built once per direction in the
    derivation's shift table, and differentiates the coefficients in the
    ring.  A condition is implied iff its form lies in the span of the
    closed forms over the rational functions of the coefficients'
    variables (f and its derivatives), decided for all conditions by one
    exact sweep in the ring (``linalg.sweep_span``).
    That needs those variables to be independent, which they are for
    generic f.  ``check`` carries the number of closed forms, of component
    derivatives and the forms' rank."""
    names, derived, conds = _implication_system(ds)
    echelon, _, inside = sweep_span(derived, conds, ds.ring)
    report = {n: {"implied": ok} for n, ok in zip(names, inside)}
    unknowns = len(set().union(*derived, *conds))
    return report, {"rows": len(derived), "unknowns": unknowns, "rank": len(echelon)}


# ---------------------------------------------------------------------------
# exact solving under a polynomial ansatz


class AnsatzSpec(namedtuple("AnsatzSpec", "degree", defaults=(2,))):
    """Polynomial degree bound for xi, eta, tau and for the affine
    coefficient functions of phi = alpha*u + beta."""

    __slots__ = ()

    def monomials(self):
        d = self.degree
        out = [
            (i, j, k)
            for i in range(d + 1)
            for j in range(d + 1 - i)
            for k in range(d + 1 - i - j)
        ]
        out.sort(key=lambda m: (sum(m), m))
        return out


class RowSelection(namedtuple("RowSelection", "prime seed rows rows_kept fallback")):
    """The rows ``ansatz_solve`` eliminated: ``rows_kept`` of ``rows``,
    independent over GF(prime) at the point drawn from ``seed``.
    ``fallback`` is set when a dropped row did not vanish on the kept rows'
    basis, so that every row was eliminated instead."""

    __slots__ = ()


class SolutionSpace(namedtuple("SolutionSpace", "family spec basis certificate "
                                                "n_unknowns n_equations selection")):
    """Exact basis of the determining system's solution space under an
    ansatz, with a residual certificate (the full on-shell invariance
    residual of every basis field is zero, see ``_certify``) and the record
    of the rows that were eliminated."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _rows_mod_p(ring: LaurentRing, rows: list, rng: random.Random) -> Iterator[dict]:
    """The rows of ``ring`` polynomials over GF(PRIME) at a point drawn by
    ``rng``: one residue ``rng.randrange(1, PRIME)`` per variable the
    entries hold, in ``Expr`` order.  Each entry object is evaluated once;
    the rows are made one at a time as the caller reads them."""
    polys = {id(p): p for r in rows for p in r.values()}
    variables = {ring.variables[d] for p in polys.values() for m in p for d, _ in ring.support(m)}
    point = {v: rng.randrange(1, PRIME) for v in sorted(variables, key=Expr.sort_key)}
    value = {i: ring.eval_mod(p, point, PRIME) for i, p in polys.items()}
    return ({c: value[id(p)] for c, p in r.items()} for r in rows)


def _select_and_solve(ring: LaurentRing, rows: list, ncols: int):
    """Nullspace of the rows of ``ring`` polynomials from the rows that are
    independent mod p.

    The rows independent over GF(PRIME) at one seeded point span a space
    that contains the row space only if the point is not special; the
    kernel of the kept rows contains the true kernel either way.  Every
    dropped row is then checked to vanish on the kept rows' basis, exactly;
    that proves the two kernels equal.  If one does not, all rows are
    eliminated.  Returns (basis as int polynomials of ``ring``, selection)."""
    try:
        kept = independent_rows_mod_p(
            _rows_mod_p(ring, rows, random.Random(SELECTION_SEED)), PRIME)
    except EvalDomainError:  # a coefficient has no value mod PRIME: keep no row
        kept = []
    basis = nullspace([rows[i] for i in kept], ncols, ring)
    kept_set = set(kept)
    fallback = not annihilates([r for i, r in enumerate(rows) if i not in kept_set], basis)
    if fallback:
        basis = nullspace(rows, ncols, ring)
    return basis, RowSelection(PRIME, SELECTION_SEED, len(rows), len(kept), fallback)


def ansatz_solve(fam: FFamily, spec: AnsatzSpec | None = None) -> SolutionSpace:
    """Solve the determining system for a concrete family with polynomial
    components: xi, eta, tau are polynomials of the given degree in
    (x, y, t) and phi = alpha*u + beta with polynomial alpha, beta.

    The determining PDEs are extracted once, from the generator whose
    xi, eta, tau, alpha, beta are opaque functions of (x, y, t); each is a
    linear form in component derivatives (``DeterminingSystem.ring_forms``)
    with polynomial coefficients free of (x, y, t).  Every coefficient c
    must hold parameters only, since rank needs independent variables: one
    with any other variable raises ``DetSysError``.  A term c * d^k(comp)
    sends column (comp, monomial m) to c scaled by the integer (m)_k, a
    product of falling factorials, in row (equation, m - k).  Rows are
    keyed by jet monomial, u-tag and (x, y, t) monomial, in that order;
    rows with the same polynomials are kept once.  The homogeneous system
    is solved by exact elimination in the extraction's ring, of the rows
    that ``_select_and_solve`` keeps; family parameters are treated as
    generic nonzero values.  The certificate evaluates the opaque
    generator's on-shell residual form at each basis vector in the same
    ring (``_certify``), so no field is prolonged again."""
    if isinstance(fam, Generic):
        raise DetSysError("ansatz_solve needs a concrete family (exponential or power)")
    spec = spec or AnsatzSpec()
    monos = spec.monomials()

    comps = ("alpha", "beta", "tau", "eta", "xi")
    tail = [
        ("xi", (1, 0, 0)), ("xi", (0, 0, 0)), ("eta", (0, 0, 0)),
        ("tau", (0, 0, 1)), ("tau", (0, 0, 0)),
    ]
    columns = [
        (cname, m)
        for cname in comps
        for m in monos
        if (cname, m) not in tail
    ] + [cm for cm in tail if cm[1] in monos]
    col_of = {cm: j for j, cm in enumerate(columns)}

    ds = extract_determining(opaque_affine_vectorfield(), fam)
    ring = ds.ring

    def params_only(p):
        for m in p:
            for d, _ in ring.support(m):
                v = ring.variables[d]
                if type(v) is not Param:
                    c = format_expr(ring.expr(p))
                    raise DetSysError(
                        f"coefficient {c} depends on x, y or t" if v in (X, Y, T)
                        else f"entry outside the Laurent-polynomial ring: {c}")

    # equal entries are one object (interned), so a row is keyed by its
    # columns and entry objects
    rows: dict = {}  # row key -> row, in first-seen order
    for form in ds.ring_forms:
        table: dict = {}  # xyt monomial -> {column: interned polynomial}
        for node, c in form.items():
            if type(node) is not Fn or node.name not in comps:
                raise DetSysError("an entry is not linear homogeneous in the components")
            params_only(c)
            for m in monos:
                n = tuple(a - b for a, b in zip(m, node.didx))
                if min(n) >= 0:
                    ff = prod(perm(a, b) for a, b in zip(m, node.didx))
                    q = c if ff == 1 else {mono: ff * k for mono, k in c.items()}
                    table.setdefault(n, {})[col_of[node.name, m]] = ring.intern(q)
        # in the order of collect_atoms keys: by atom (x < y < t), then power
        for n in sorted(table, key=lambda n: tuple(
                (a.sort_key(), p) for a, p in zip((X, Y, T), n) if p)):
            rows.setdefault(frozenset((j, id(q)) for j, q in table[n].items()), table[n])

    vectors, selection = _select_and_solve(ring, list(rows.values()), len(columns))
    vectors = [{columns[j]: p for j, p in vec.items()} for vec in vectors]

    def comp(vec, name):
        return add(*[mul(ring.expr(p), pow_(X, m[0]), pow_(Y, m[1]), pow_(T, m[2]))
                     for (cname, m), p in vec.items() if cname == name])

    basis = [VectorField(comp(v, "xi"), comp(v, "eta"), comp(v, "tau"),
                         add(mul(comp(v, "alpha"), U), comp(v, "beta"))) for v in vectors]
    certificate = _certify(ds.residual, ring, vectors)
    return SolutionSpace(fam, spec, basis, certificate, len(columns), len(rows), selection)


def _certify(form: dict, ring: LaurentRing, vectors: list) -> bool:
    """Whether the on-shell invariance residual of every field
    {(component, (x, y, t) exponents m): polynomial in ``ring``} vanishes.
    ``form`` {d^k(component): coefficient}, the opaque generator's residual
    as extracted (``DeterminingSystem.residual``), is linear in the
    components: the residual is the field times the row
    (component, m) -> sum of coefficient * (m)_k * (x, y, t)^(m - k), with
    the coefficients cleared of their u-dependent denominators by one
    term, nonzero wherever the family is defined, and their sums written
    out (``_Fold``), so that the zero test reads exponents."""
    cleared = _Fold(ring)(list(form.values()))
    terms = [(node.name, node.didx, c) for node, c in zip(form, cleared)]
    xyt = [ring.var(z) for z in (X, Y, T)]
    row: dict = {}
    for cname, m in {key for vec in vectors for key in vec}:
        entry = row[cname, m] = {}
        for name, k, coef in terms:
            n = [a - b for a, b in zip(m, k)]
            if name == cname and min(n) >= 0:
                shift = sum(a * z for a, z in zip(n, xyt))
                add_product(entry, {shift: prod(map(perm, m, k))}, coef)
    return annihilates([row], vectors)
