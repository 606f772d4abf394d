"""Invariance condition, on-shell reduction, and the determining system.

The invariance residual of a generator v against the model
u_tt - f(u)*(u_xx + u_yy) = 0 is

    coeff_2(v,t,t) - phi*f'(u)*(u_xx + u_yy) - f(u)*(coeff_2(v,x,x) + coeff_2(v,y,y))

evaluated on-shell (every jet carrying two or more t indices rewritten
through the equation and its total derivatives).  Collecting the result
over jet monomials -- and, for a concrete nonlinearity, over the linearly
independent u-dependence of the coefficients -- yields the determining
system, a linear homogeneous system for the components of v.  The
residual is linear in v, so the extraction never builds it as one
expression: the generator is prolonged on linear forms {component node:
coefficient} (``jet.prolong_form``), and only each node's coefficient, an
``Expr``, is multiplied by f and f', rewritten on-shell and collected over
the jets.  Under a polynomial ansatz the system is solved exactly over the
parameter field: past the extraction, the ansatz rows, their selection
mod p, the elimination and the residual certificate (which reads the
extracted residual form) all run in one ``LaurentRing``, and only the
basis comes back as ``Expr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, perm, prod

from .expr import (
    Base, Expr, ExprError, Fn, Jet, NonPolynomialError, Param, Pow, Product,
    Rat, Sum, RAT0, RAT1, add, atoms_of, base, clear_denominators, collect_atoms, diff,
    expand, fn, fn_nodes_of, format_expr, jet, jets_of, mul, neg,
    param, pow_, sub, substitute, vanishes,
)
from .jet import (
    form_derivative, form_expr, generator_forms, prolong_form, total_derivative,
)
from .liealg import VectorField
from .linalg import (
    LaurentRing, add_product, annihilates, echelon_mod_p, independent_rows_mod_p,
    nullspace, reduce_mod_p,
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
# rank tests over GF(PRIME): the implication report's number of points, and
# the seed of the point at which ansatz_solve picks the rows it eliminates
PRIME = 2**31 - 1
N_POINTS = 2
SELECTION_SEED = 11


class DetSysError(Exception):
    pass


def _nonzero_expr(e: Expr, what: str):
    if isinstance(e, Rat) and e.value == 0:
        raise DetSysError(f"degenerate family parameter: {what} must be nonzero")


@dataclass(frozen=True)
class FFamily:
    def f_expr(self) -> Expr:
        raise NotImplementedError

    def fu_expr(self) -> Expr:
        return diff(self.f_expr(), U)


@dataclass(frozen=True)
class Generic(FFamily):
    """Arbitrary smooth f(u) with f'(u) not identically zero."""

    def f_expr(self) -> Expr:
        return fn("f", [U])


@dataclass(frozen=True)
class ExponentialCase(FFamily):
    """f(u) = K*exp(u/c), the constant-ratio branch f/f' = c."""

    K: Expr = field(default_factory=lambda: param("K"))
    c: Expr = field(default_factory=lambda: param("c"))

    def __post_init__(self):
        _nonzero_expr(self.K, "K")
        _nonzero_expr(self.c, "c")

    def f_expr(self) -> Expr:
        return reference.exponential_f(self.K, self.c)

    def reference_basis(self) -> list:
        return reference.case_i_basis(self.c)


@dataclass(frozen=True)
class PowerCase(FFamily):
    """f(u) = L*(e1*u + e2)^(1/e1), the linear-ratio branch f/f' = e1*u + e2."""

    L: Expr = field(default_factory=lambda: param("L"))
    e1: Expr = field(default_factory=lambda: param("e1"))
    e2: Expr = field(default_factory=lambda: param("e2"))

    def __post_init__(self):
        _nonzero_expr(self.L, "L")
        _nonzero_expr(self.e1, "e1")

    def f_expr(self) -> Expr:
        return reference.power_f(self.L, self.e1, self.e2)

    def reference_basis(self) -> list:
        return reference.case_ii_basis(self.e1, self.e2)


def model_residual(fam: FFamily | None = None) -> Expr:
    """u_tt - f(u)*(u_xx + u_yy); opaque f when no family is given."""
    f = (fam or Generic()).f_expr()
    return sub(jet("tt"), mul(f, add(jet("xx"), jet("yy"))))


def _rewrite_on_shell(e: Expr, rhs_tt: Expr, binds: dict) -> Expr:
    """Rewrite every jet of ``e`` with two or more t indices through
    u_tt = rhs_tt and its total derivatives until none remains.  The value
    of each such jet is built once and kept in ``binds``."""
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


def on_shell(e: Expr, fam: FFamily | None = None) -> Expr:
    """Rewrite every jet with two or more t indices through the model
    equation (and its total derivatives) until none remains."""
    fam = fam or Generic()
    return _rewrite_on_shell(e, mul(fam.f_expr(), add(jet("xx"), jet("yy"))), {})


def _invariance_form(v: VectorField, fam: FFamily, shell: bool) -> dict:
    """The invariance residual of v as a linear form {component node:
    coefficient} (``jet.linear_form``), on-shell when ``shell`` is set.
    f and f' are built and expanded once and multiplied into each node's
    coefficient; every coefficient is expanded.  coeff_2(t, t) holds the
    only jets with two t indices (D_x and D_y add none), so its
    coefficients are the ones rewritten on-shell, from bindings built
    once."""
    lap = add(jet("xx"), jet("yy"))
    f = expand(fam.f_expr())
    rhs_tt, fu_lap = expand(mul(f, lap)), expand(mul(fam.fu_expr(), lap))
    forms = generator_forms(v)
    phi = forms[-1]
    tt, xx, yy = (prolong_form(forms, d, d) for d in "txy")
    binds: dict = {}
    out = {}
    for node in dict.fromkeys([*tt, *phi, *xx, *yy]):
        c = tt.get(node, RAT0)
        if shell:
            c = expand(_rewrite_on_shell(c, rhs_tt, binds))
        c = expand(add(c, neg(mul(phi.get(node, RAT0), fu_lap)),
                       neg(mul(f, add(xx.get(node, RAT0), yy.get(node, RAT0))))))
        if c != RAT0:
            out[node] = c
    return out


def invariance_residual(v: VectorField, fam: FFamily | None = None) -> Expr:
    """Second-prolongation action of v on the model, before going on-shell."""
    return form_expr(_invariance_form(v, fam or Generic(), shell=False))


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


@dataclass(frozen=True, order=True)
class UTag:
    """u-dependence label of one determining coefficient: a plain power of u
    times an optional transcendental factor (e.g. exp(u/c))."""

    u_power: int
    factor_key: tuple = ()
    factor: Expr | None = field(default=None, compare=False)

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
    {UTag: coefficient} with coefficients free of u."""
    try:
        (e,) = clear_denominators([e], lambda b, q: ceil(q) if U in atoms_of(b) else 0)
    except ExprError:
        raise DetSysError("could not clear u-dependent denominators") from None
    markers = {
        f
        for term in (e.terms if type(e) is Sum else (e,))
        for f in (term.factors if type(term) is Product else (term,))
        if U in atoms_of(f) and f != U and not (
            type(f) is Pow and f.expbase == U and f.exp.denominator == 1 and f.exp > 0)
    }
    out: dict = {}
    for key, coeff in collect_atoms(e, {U, *markers}).items():
        found = [pow_(m, k) for m, k in key if m != U]
        marker = mul(*found) if found else None
        out[UTag(dict(key).get(U, 0), marker.sort_key() if found else (), marker)] = coeff
    return out


@dataclass
class DeterminingSystem:
    """Expressions required to vanish identically, each tagged with the jet
    monomial (and, for concrete families, the u-dependence) it came from,
    and the on-shell residual they were collected from, as a linear form
    {component node: coefficient}.  For the generic family ``forms`` holds
    each entry's own linear form."""

    family: FFamily
    entries: list  # [(monomial text | (monomial text, UTag), Expr), ...]
    residual: dict | None = None
    forms: list | None = None

    def __len__(self):
        return len(self.entries)

    def expressions(self):
        return [e for _, e in self.entries]

    def serializable(self):
        out = []
        for key, e in self.entries:
            mono, tag = key if isinstance(key, tuple) else (key, "1")
            origin = mono if str(tag) == "1" else f"{mono} ; {tag}"
            out.append({"origin_monomial": origin, "expression_text": format_expr(e)})
        return out


def extract_determining(v: VectorField, fam: FFamily | None = None) -> DeterminingSystem:
    """On-shell invariance residual collected over jet monomials; for a
    concrete family each coefficient is further split by u-dependence.
    Each node's coefficient of the residual form is collected on its own,
    and a monomial's entry sums the nodes' parts."""
    fam = fam or Generic()
    generic = isinstance(fam, Generic)
    res = _invariance_form(v, fam, shell=True)
    tables = {node: collect_atoms(c, {j for j in jets_of(c) if j.order >= 1})
              for node, c in res.items()}
    entries, forms = [], []
    # by total degree, then jet by jet; an entry is keyed by the monomial's text
    for key in sorted({key for table in tables.values() for key in table}, key=lambda k: (
            sum(p for _, p in k), tuple((j.sort_key(), p) for j, p in k))):
        mono = format_expr(mul(*[pow_(j, p) for j, p in key]))
        form = {node: table[key] for node, table in tables.items() if key in table}
        if generic:
            entries.append((mono, form_expr(form)))
            forms.append(form)
        else:
            pieces = split_u_dependence(form_expr(form))
            for tag in sorted(pieces):
                entries.append(((mono, tag), pieces[tag]))
    return DeterminingSystem(fam, entries, res, forms if generic else None)


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


def _diff_form(form: dict, a: Expr, dcoeff: dict) -> dict:
    """d/da of a linear form {component node: coefficient}, a one of
    x, y, t, u (``jet.form_derivative``).  A node's derivative raises its
    derivative index in each slot whose argument is ``a``; a coefficient's
    derivative is taken once per (coefficient, a) and kept in ``dcoeff``."""

    def d_arg(arg):
        if type(arg) not in (Base, Jet, Param):
            raise DetSysError(f"component argument {format_expr(arg)} is a non-atom")
        return RAT1 if arg == a else RAT0

    def d_coeff(c):
        dc = dcoeff.get((c, a))
        if dc is None:
            dc = dcoeff[c, a] = expand(diff(c, a))
        return dc

    return form_derivative(form, d_arg, d_coeff)


def _close_forms(forms: list, prolong_order: int) -> list:
    """The linear forms followed by their x, y, t, u derivatives up to
    ``prolong_order``, level by level: each form of the last level is
    differentiated in x, y, t, u, in that order, and a derivative that is
    zero or equal to a form already held is not added."""
    rows = list(forms)
    seen = {frozenset(f.items()) for f in forms}
    dcoeff: dict = {}
    frontier = rows
    for _ in range(prolong_order):
        nxt = []
        for form in frontier:
            for a in (X, Y, T, U):
                d = _diff_form(form, a, dcoeff)
                key = frozenset(d.items())
                if d and key not in seen:
                    seen.add(key)
                    nxt.append(d)
        rows = rows + nxt
        frontier = nxt
    return rows


def reference_implication_report(
    ds: DeterminingSystem,
    seed: int = 7,
    prolong_order: int = 2,
) -> tuple:
    """Decide whether each bundled determining condition is implied by the
    engine-derived system.  Returns ({name: {"implied", "route"}}, check).

    Every equation is a linear form {component derivative: coefficient} in
    the opaque xi, eta, tau, phi, with coefficients polynomial in u and the
    derivatives of f.  The derived equations come with their forms from the
    extraction (``ds.forms``; a system built without them is decomposed
    once) and are closed under differential consequences up to
    ``prolong_order`` (each differentiated with respect to x, y, t, u),
    since the reference's simplified conditions use such consequences.  The
    closure stays on linear forms (``_close_forms``): differentiating shifts
    the components' derivative indices and differentiates each distinct
    coefficient once per direction.  Symbolic route: the condition's form,
    or its negative, is one of the derived forms (coefficients are
    canonical).  Modular route: the distinct coefficients are converted
    once into a ``LaurentRing``, whose variables are the factors they hold
    (f, f', f'' as whole nodes).  At N_POINTS seeded random points over
    GF(p), p = PRIME = 2^31 - 1, each variable gets one residue, each
    coefficient is evaluated once (``LaurentRing.eval_mod``) and the rows
    are read from that table; the condition is implied iff adding its row
    leaves the rank of the derived rows unchanged at every point.  By the
    Schwartz-Zippel lemma a point gives a rank below the generic one with
    probability at most (rank + 1) * degree / p, degree being the largest
    total exponent of a coefficient's monomial; ``check`` carries that
    bound and its inputs."""
    import random

    if not isinstance(ds.family, Generic):
        raise DetSysError("implication report applies to the generic family")

    v = opaque_vectorfield()
    fam = Generic()
    conds = reference.determining_conditions(
        v.xi, v.eta, v.tau, v.phi, fam.f_expr(), fam.fu_expr()
    )
    names = ("xi", "eta", "tau", "phi")
    # the collected coefficients are canonical, so equal forms are equal
    # equations
    forms = ds.forms
    if forms is None:
        forms = [_linear_decomposition(e, names) for e in ds.expressions()]
    elif any(type(n) is not Fn or n.name not in names for d in forms for n in d):
        raise DetSysError("the derived system is not linear homogeneous in xi, eta, tau, phi")
    derived = _close_forms(forms, prolong_order)
    cond_forms = {n: _linear_decomposition(e, names) for n, e in conds.items()}
    seen = {frozenset(d.items()) for d in derived}
    report = {
        n: {"implied": True, "route": "symbolic"}
        for n, d in cond_forms.items()
        if frozenset(d.items()) in seen
        or frozenset((node, expand(neg(ce))) for node, ce in d.items()) in seen
    }
    unmatched = [n for n in conds if n not in report]
    cond_decomps = [cond_forms[n] for n in unmatched]
    coeffs = {ce for d in derived + cond_decomps for ce in d.values()}
    col = {node: i for i, node in enumerate(sorted(
        {node for d in derived + cond_decomps for node in d}, key=Expr.sort_key))}
    ring = LaurentRing()
    polys = {ce: ring.poly(ce) for ce in coeffs}
    variables = sorted(ring.variables, key=Expr.sort_key)
    degree = max((sum(ring.exponents(m)) for p in polys.values() for m in p), default=0)

    rng = random.Random(seed)
    ranks = []
    implied = dict.fromkeys(unmatched, True)
    for _ in range(N_POINTS):
        point = {v: rng.randrange(1, PRIME) for v in variables}
        value = {ce: ring.eval_mod(p, point, PRIME) for ce, p in polys.items()}

        def row(d):
            return {col[node]: value[ce] for node, ce in d.items()}

        pivots = echelon_mod_p((row(d) for d in derived), PRIME)
        ranks.append(len(pivots))
        for name, d in zip(unmatched, cond_decomps):
            if reduce_mod_p(row(d), pivots, PRIME):
                implied[name] = False
    for name in unmatched:
        report[name] = {"implied": implied[name], "route": "modular"}
    check = {
        "prime": PRIME,
        "seed": seed,
        "points": N_POINTS,
        "rows": len(derived),
        "unknowns": len(col),
        "ranks": ranks,
        "max_entry_degree": degree,
        "wrong_rank_bound_per_point": (max(ranks, default=0) + 1) * degree / PRIME,
    }
    return report, check


# ---------------------------------------------------------------------------
# exact solving under a polynomial ansatz


@dataclass(frozen=True)
class AnsatzSpec:
    """Polynomial degree bound for xi, eta, tau and for the affine
    coefficient functions of phi = alpha*u + beta."""

    degree: int = 2

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


@dataclass(frozen=True)
class RowSelection:
    """The rows ``ansatz_solve`` eliminated: ``rows_kept`` of ``rows``,
    independent over GF(prime) at the point drawn from ``seed``.
    ``fallback`` is set when a dropped row did not vanish on the kept rows'
    basis, so that every row was eliminated instead."""

    prime: int
    seed: int
    rows: int
    rows_kept: int
    fallback: bool


@dataclass
class SolutionSpace:
    """Exact basis of the determining system's solution space under an
    ansatz, with a residual certificate (the full on-shell invariance
    residual of every basis field is zero, see ``_certify``) and the record
    of the rows that were eliminated."""

    family: FFamily
    spec: AnsatzSpec
    basis: list
    certificate: bool
    n_unknowns: int
    n_equations: int
    selection: RowSelection

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _rows_mod_p(ring: LaurentRing, rows: list, seed: int) -> list:
    """The rows of ``ring`` polynomials over GF(PRIME) at a point drawn from
    ``seed``: one residue per parameter the rows hold, in ``Expr`` order."""
    import random

    used = {m for r in rows for p in r.values() for m in p}
    params = sorted({v for m in used for v, q in zip(ring.variables, ring.exponents(m)) if q},
                    key=Expr.sort_key)
    rng = random.Random(seed)
    point = {a: rng.randrange(1, PRIME) for a in params}
    return [{c: ring.eval_mod(p, point, PRIME) for c, p in r.items()} for r in rows]


def _select_and_solve(ring: LaurentRing, rows: list, ncols: int):
    """Nullspace of the rows of ``ring`` polynomials from the rows that are
    independent mod p.

    The rows independent over GF(PRIME) at one seeded point span a space
    that contains the row space only if the point is not special; the
    kernel of the kept rows contains the true kernel either way.  Every
    dropped row is then checked to vanish on the kept rows' basis, exactly;
    that proves the two kernels equal.  If one does not, all rows are
    eliminated.  Returns (basis as int polynomials of ``ring``, selection)."""
    kept = independent_rows_mod_p(_rows_mod_p(ring, rows, SELECTION_SEED), PRIME)
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
    linear form in component derivatives with coefficients free of
    (x, y, t).  Each coefficient c is converted once into a ``LaurentRing``
    polynomial in the parameters; a term c * d^k(comp) sends column
    (comp, monomial m) to c scaled by the integer (m)_k, a product of
    falling factorials, in row (equation, m - k).  Rows are keyed by jet
    monomial, u-tag and (x, y, t) monomial, in that order; rows with the
    same polynomials are kept once.  The homogeneous system is solved by
    exact elimination in the ring, of the rows that ``_select_and_solve``
    keeps; family parameters are treated as generic nonzero values.  The
    certificate evaluates the opaque generator's on-shell residual form at
    each basis vector in the same ring (``_certify``), so no field is
    prolonged again.  A coefficient outside the ring raises ``DetSysError``."""
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
    ring = LaurentRing()
    # equal entries share one (index, polynomial), so a row is frozen by
    # its columns and entry indices
    entries: dict = {}  # frozen polynomial -> (index, polynomial)
    rows: dict = {}  # frozen row -> row, in first-seen order
    for _, eq in ds.entries:
        table: dict = {}  # xyt monomial -> {column: (index, polynomial)}
        for node, c in _linear_decomposition(eq, comps).items():
            if atoms_of(c) & {X, Y, T}:
                raise DetSysError(f"coefficient {format_expr(c)} depends on x, y or t")
            try:
                p = ring.param_poly(c)
            except ValueError as err:
                raise DetSysError(str(err)) from None
            for m in monos:
                n = tuple(a - b for a, b in zip(m, node.didx))
                if min(n) >= 0:
                    ff = prod(perm(a, b) for a, b in zip(m, node.didx))
                    q = p if ff == 1 else {mono: ff * k for mono, k in p.items()}
                    table.setdefault(n, {})[col_of[node.name, m]] = entries.setdefault(
                        frozenset(q.items()), (len(entries), q))
        # in the order of collect_atoms keys: by atom (x < y < t), then power
        for n in sorted(table, key=lambda n: tuple(
                (a.sort_key(), p) for a, p in zip((X, Y, T), n) if p)):
            row = table[n]
            rows.setdefault(frozenset((j, i) for j, (i, _) in row.items()),
                            {j: q for j, (_, q) in row.items()})

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
    the coefficients cleared of their Sum denominators by one factor,
    nonzero wherever the family is defined."""
    cleared = clear_denominators(
        list(form.values()), lambda b, q: ceil(q) if type(b) is Sum else 0)
    terms = [(node.name, node.didx, ring.poly(c)) for node, c in zip(form, cleared)]
    xyt = [next(iter(ring.poly(z))) for z in (X, Y, T)]
    row: dict = {}
    for cname, m in {key for vec in vectors for key in vec}:
        entry = row[cname, m] = {}
        for name, k, coef in terms:
            n = [a - b for a, b in zip(m, k)]
            if name == cname and min(n) >= 0:
                shift = sum(a * z for a, z in zip(n, xyt))
                add_product(entry, {shift: prod(map(perm, m, k))}, coef)
    return annihilates([row], vectors)
