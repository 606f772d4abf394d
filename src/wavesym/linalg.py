"""Exact linear algebra over sparse rows of Laurent-polynomial entries.

Rows are sparse, ``{col: entry}`` with only nonzero entries, so elimination
never visits a zero.  Entries are ``LaurentRing`` polynomials, sparse
``{monomial: coefficient}`` maps with int or Fraction coefficients (e.g.
``2*c``, ``K^(-1)``, ``1 + 4*e1``), in the caller's ring.  That ring may
hold variables other than the parameters, but rank needs independent
variables, so the caller makes sure that no entry it eliminates holds one
(``detsys.ansatz_solve`` refuses such a coefficient).

The sweep is fraction-free: rows are updated by cross-multiplication and no
entry is ever divided.  Pivoting is deterministic and prefers constant
entries, then parameter monomials.  After every update a row is reduced by
its content, the integer gcd of its coefficients and the common parameter
monomial, and given a canonical sign (``LaurentRing.strip``).  Elimination
is ring arithmetic, except that the sign is read off the first entry's
``Expr`` (``LaurentRing.expr``).  ``nullspace`` and ``solve_span``
back-substitute in the ring too, scaling the solution by a pivot instead
of dividing by it.  ``row_reduce`` and ``nullspace`` return polynomials of
their caller's ring (``LaurentRing.expr`` converts back).  ``solve_span``
decides all its targets from one sweep and returns ``Expr`` coordinates,
the pivots' product cancelled by exact division in the ring where it
divides.

All operations treat the parameters appearing in entries as generic nonzero
values; solutions therefore live in the field of rational functions of the
parameters, with exact rational coefficients.

``LaurentRing.poly`` takes any non-rational factor as a variable
(``LaurentRing.var`` registers one whole, a sum included).  It serves the
determining-system extraction, zero tests, content stripping (``strip``
divides out the common parameter monomial only) and GF(p) evaluation.
``LaurentRing.intern`` makes equal polynomials one object, so callers key
on that object.  A monomial is decoded one way, into its nonzero exponents
(``LaurentRing.support``), so a ring of many variables costs nothing per
variable it does not use.  A ``Derivation`` is a derivation of the ring
given by each variable's derivative, asked once per variable and
direction: the extraction's total derivatives and the derive closure's
partial ones.  For rank tests at a point, ``LaurentRing.eval_mod``
evaluates a polynomial over GF(p), ``echelon_mod_p`` and ``reduce_mod_p``
eliminate sparse rows ``{col: residue}`` there, and
``independent_rows_mod_p`` picks the rows that are independent there.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .expr import (
    EvalDomainError, Expr, Param, Pow, Product, Rat, Sum, UnboundAtomError,
    RAT0, add, div, expand, mul, pow_, rat, rational_content,
)

__all__ = [
    "LaurentRing", "Derivation", "add_product", "row_reduce",
    "nullspace", "solve_span", "annihilates",
    "echelon_mod_p", "reduce_mod_p", "independent_rows_mod_p",
]


# ---------------------------------------------------------------------------
# the coefficient ring


# A monomial prod(p_i^e_i) is one int, sum(e_i << SHIFT*i) with balanced
# digits |e_i| < 2^(SHIFT-1), so multiplying monomials adds ints.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1
_HALF = 1 << (_SHIFT - 1)


class LaurentRing:
    """Sparse Laurent polynomials ``{monomial: coefficient}`` in the
    variables met so far, with int (or Fraction) coefficients.

    A variable is a parameter or any other non-rational factor taken whole
    (a coordinate, a jet, an ``exp``, a sum), b^(p/q) being (b^(1/q))^p, and
    gets the next monomial digit when first met.  Zero in such variables is
    zero at any values of them, so ``poly`` serves zero tests, content
    stripping (``strip`` divides out parameters only) and GF(p) evaluation
    (``eval_mod``).  Rank needs independent variables, so the rows a caller
    eliminates hold parameters only.  Polynomials are never changed in
    place; conversions are memoized."""

    def __init__(self):
        self.variables: list = []
        self._digit: dict = {}
        self._polys: dict = {}  # Expr -> poly
        self._exprs: dict = {}  # frozenset(poly items) -> Expr
        self._interned: dict = {}  # frozenset(poly items) -> poly
        self._supports: dict = {}  # monomial -> nonzero (digit, exponent) pairs

    def poly(self, e: Expr) -> dict:
        p = self._polys.get(e)
        if p is None:
            p = self._polys[e] = self._to_poly(e)
        return p

    def _to_poly(self, e: Expr) -> dict:
        out = {}
        x = expand(e)
        if x == RAT0:
            return out
        for term in x.terms if type(x) is Sum else (x,):
            k, m = Fraction(1), 0
            for f in term.factors if type(term) is Product else (term,):
                t = type(f)
                if t is Rat:
                    k = f.value
                    continue
                v, q = f, 1
                if t is Pow:
                    q, den = f.exp.numerator, f.exp.denominator
                    v = f.expbase if den == 1 else Pow(f.expbase, Fraction(1, den))
                m += q * self.var(v)
            out[m] = k.numerator if k.denominator == 1 else k
        return out

    def intern(self, p: dict) -> dict:
        """The ring's one polynomial equal to ``p``: the first equal one
        interned.  Interned polynomials are equal exactly when they are
        the same object."""
        return self._interned.setdefault(frozenset(p.items()), p)

    def var(self, v: Expr) -> int:
        """The monomial of the variable ``v``, taken whole (a sum too),
        which gets the next digit when first met."""
        d = self._digit.get(v)
        if d is None:
            d = self._digit[v] = len(self.variables)
            self.variables.append(v)
        return self.unit(d)

    def support(self, m: int) -> tuple:
        """The (digit, exponent) pairs of a monomial's nonzero exponents,
        in digit order."""
        out = self._supports.get(m)
        if out is None:
            out, r, d = [], m, 0
            while r:
                q = ((r + _HALF) & _MASK) - _HALF
                if q:
                    out.append((d, q))
                r = (r - q) >> _SHIFT
                d += 1
            out = self._supports[m] = tuple(out)
        return out

    @staticmethod
    def unit(d: int) -> int:
        """The monomial of the variable of digit ``d``."""
        return 1 << (_SHIFT * d)

    def _bounds(self, p) -> dict:
        """{digit: (lowest, highest) exponent} over the monomials of ``p``,
        for each variable some monomial holds; a monomial without it counts
        as exponent 0."""
        out: dict = {}
        seen: dict = {}
        for m in p:
            for d, q in self.support(m):
                lo, hi = out.get(d, (q, q))
                out[d] = (min(lo, q), max(hi, q))
                seen[d] = seen.get(d, 0) + 1
        return {d: (min(lo, 0), max(hi, 0)) if seen[d] < len(p) else (lo, hi)
                for d, (lo, hi) in out.items()}

    def diff(self, p: dict, d: int) -> dict:
        """Derivative of ``p`` in the variable of digit ``d``."""
        one = 1 << (_SHIFT * d)
        out = {}
        for m, k in p.items():
            q = next((q for e, q in self.support(m) if e == d), 0)
            if q:
                out[m - one] = q * k
        return out

    def eval_mod(self, p: dict, point, prime: int) -> int:
        """``p`` over GF(prime), each variable v at the residue point[v].
        A denominator that is zero mod prime raises EvalDomainError, a
        variable without a residue UnboundAtomError."""
        acc = 0
        for m, k in p.items():
            if type(k) is int:
                r = k
            elif k.denominator % prime:
                r = k.numerator * pow(k.denominator, -1, prime)
            else:
                raise EvalDomainError(f"zero denominator mod {prime}")
            for d, q in self.support(m):
                v = point.get(self.variables[d])
                if v is None:
                    raise UnboundAtomError(f"unbound atom {self.variables[d]}")
                if q < 0 and v % prime == 0:
                    raise EvalDomainError(f"zero denominator mod {prime}")
                r = r * pow(v, q, prime) % prime
            acc += r
        return acc % prime

    def expr(self, p: dict) -> Expr:
        key = frozenset(p.items())
        e = self._exprs.get(key)
        if e is None:
            e = self._exprs[key] = add(*[
                mul(rat(k), *[pow_(self.variables[d], q) for d, q in self.support(m)])
                for m, k in p.items()
            ])
        return e

    def leads_negative(self, p: dict) -> bool:
        """Whether the first term of ``expr(p)`` has a negative coefficient."""
        if len(p) == 1:
            (k,) = p.values()
            return k < 0
        return rational_content(self.expr(p)) < 0

    def strip(self, row: dict) -> dict:
        """A row of int polynomials divided by the gcd of its coefficients
        and its common monomial in the parameters, with its first entry's
        leading term positive; when that entry p and -p both lead with a
        negative term, the sign whose first entry has the smaller ``Expr``
        sort key.  So ``strip(strip(row)) == strip(row)``.  Any other
        variable (a coordinate, a function node, an ``exp``, a fractional
        power) stays."""
        g = gcd(*[k for p in row.values() for k in p.values()])
        bounds = self._bounds({m for p in row.values() for m in p})
        shift = sum(lo << (_SHIFT * d) for d, (lo, _) in bounds.items()
                    if type(self.variables[d]) is Param)
        first = row[min(row)]
        if g != 1 or shift:
            first = {m - shift: k // g for m, k in first.items()}
        if self.leads_negative(first):
            negated = {m: -k for m, k in first.items()}
            if (not self.leads_negative(negated)
                    or self.expr(negated).sort_key() < self.expr(first).sort_key()):
                g = -g
        if g != 1 or shift:
            row = {c: {m - shift: k // g for m, k in p.items()} for c, p in row.items()}
        return row


class Derivation:
    """A derivation of a ``LaurentRing``, given on its variables:
    ``rule(variable, direction)`` is the variable's derivative, a
    polynomial of the ring, asked once per variable and direction.  The
    derivative of each monomial is kept too."""

    def __init__(self, ring: LaurentRing, rule):
        self.ring, self.rule = ring, rule
        self._table: dict = {}  # (digit, direction) -> polynomial
        self._monomials: dict = {}  # (monomial, direction) -> polynomial

    def _monomial(self, m: int, direction) -> dict:
        out = self._monomials.get((m, direction))
        if out is None:
            out = {}
            for d, q in self.ring.support(m):
                dv = self._table.get((d, direction))
                if dv is None:
                    dv = self._table[d, direction] = self.rule(self.ring.variables[d], direction)
                if dv:
                    add_product(out, {m - self.ring.unit(d): q}, dv)
            self._monomials[m, direction] = out
        return out

    def variable(self, v: Expr, direction) -> dict:
        """The derivative of ``v`` taken whole as a variable of the ring."""
        return self._monomial(self.ring.var(v), direction)

    def __call__(self, p: dict, direction) -> dict:
        out: dict = {}
        for m, k in p.items():
            for n, v in self._monomial(m, direction).items():
                w = out.get(n, 0) + k * v
                if w:
                    out[n] = w
                else:
                    del out[n]
        return out


def add_product(acc: dict, p: dict, q: dict) -> dict:
    """``acc`` plus the product of two polynomials, in place."""
    for m, k in p.items():
        for n, v in q.items():
            w = acc.get(m + n, 0) + k * v
            if w:
                acc[m + n] = w
            else:
                del acc[m + n]
    return acc


# ---------------------------------------------------------------------------
# elimination, nullspaces, spans


def _pmul(p: dict, q: dict) -> dict:
    """Product of two polynomials, as a new dict."""
    if len(p) == 1:
        ((m, k),) = p.items()
        return {m + n: k * v for n, v in q.items()}
    return add_product({}, p, q)


def _quality(p: dict) -> int:
    """Pivot preference: 0 for a constant, 1 for a monomial, 2 otherwise."""
    if len(p) == 1:
        return 0 if 0 in p else 1
    return 2


def _update(piv: dict, row: dict, a: dict, prow: dict, col: int) -> dict:
    """piv*row - a*prow, without column ``col`` (where it vanishes)."""
    new = {c: _pmul(piv, e) for c, e in row.items() if c != col}
    neg_a = {m: -k for m, k in a.items()}
    for c, e in prow.items():
        if c != col and not add_product(new.setdefault(c, {}), neg_a, e):
            del new[c]
    return new


def row_reduce(rows: list, ncols: int, ring: LaurentRing):
    """Bring sparse rows of ``ring`` polynomials over columns 0..ncols-1 to
    (unnormalized) row-echelon form (see the module docstring).
    Returns (echelon_rows, pivot_cols): echelon_rows[i], int polynomials of
    ``ring``, has its first entry in column pivot_cols[i].

    Columns are taken in increasing order.  A row can hold the current
    column only as its first entry, so rows wait in buckets by first
    column; the pivot is the bucket's row of best ``_quality``, the earliest
    input row on ties."""
    work: dict = {}
    buckets = defaultdict(list)
    top = ncols
    for i, r in enumerate(rows):
        r = {c: p for c, p in r.items() if p}
        if r:
            d = lcm(*[k.denominator for p in r.values() for k in p.values()])
            work[i] = ring.strip({c: {m: int(d * k) for m, k in p.items()} for c, p in r.items()})
            buckets[min(r)].append(i)
            top = max(top, max(r) + 1)
    echelon: list = []
    pivot_cols: list = []
    for col in range(top):
        ids = buckets.pop(col, None)
        if not ids:
            continue
        ids.sort()
        pi = min(ids, key=lambda i: _quality(work[i][col]))
        prow = work.pop(pi)
        piv = prow[col]
        echelon.append(prow)
        pivot_cols.append(col)
        for i in ids:
            if i == pi:
                continue
            new = _update(piv, work[i], work[i][col], prow, col)
            if new:
                new = work[i] = ring.strip(new)
                buckets[min(new)].append(i)
            else:
                del work[i]
    return echelon, pivot_cols


def _dot(row: dict, vec: dict) -> dict:
    """The polynomial row . vec, both sparse maps of polynomials."""
    acc: dict = {}
    for c, e in row.items():
        w = vec.get(c)
        if w:
            add_product(acc, e, w)
    return acc


def _back_substitute(echelon: list, pivot_cols: list, sol: dict) -> dict:
    """Complete ``sol``, int polynomials on free columns, in place so that
    every echelon row vanishes on it, last row first.  Fraction-free: a row
    piv*x_pc + s with s nonzero scales ``sol`` by piv and sets x_pc = -s."""
    for row, pc in zip(reversed(echelon), reversed(pivot_cols)):
        s = _dot(row, sol)
        if s:
            piv = row[pc]
            if piv != {0: 1}:
                for c, w in sol.items():
                    sol[c] = _pmul(piv, w)
            sol[pc] = {m: -k for m, k in s.items()}
    return sol


def nullspace(rows: list, ncols: int, ring: LaurentRing) -> list:
    """Exact basis of the solution space of the homogeneous system, as
    sparse vectors {col: int polynomial of ``ring``} in column order.

    Each basis vector corresponds to one free column (set to 1, the other
    free columns to 0), back-substituted and stripped (``LaurentRing.strip``).
    Where only monomial pivots divide, that is the rational vector with its
    denominators and content cleared; a polynomial pivot stays a factor."""
    echelon, pivot_cols = row_reduce(rows, ncols, ring)
    return [
        ring.strip(dict(sorted(_back_substitute(echelon, pivot_cols, {fc: {0: 1}}).items())))
        for fc in sorted(set(range(ncols)).difference(pivot_cols))
    ]


def _exact_quotient(ring: LaurentRing, a: dict, d: dict):
    """``a / d`` when ``d`` divides ``a`` in the Laurent ring, else None.

    Leading terms are divided in the lex order of the monomial ints (the
    last variable most significant).  If d divides a, the quotient's
    exponent of each variable lies between a's lowest minus d's lowest and
    a's highest minus d's highest; a candidate term outside that box proves
    that d does not divide, and the candidates strictly decrease inside it,
    so the loop ends."""
    if len(d) == 1:
        ((md, kd),) = d.items()
        return {m - md: _ratio(k, kd) for m, k in a.items()}
    ba, bd = ring._bounds(a), ring._bounds(d)
    box = {}
    for j in ba.keys() | bd.keys():
        (la, ha), (ld, hd) = ba.get(j, (0, 0)), bd.get(j, (0, 0))
        box[j] = (la - ld, ha - hd)
    md = max(d)
    kd = d[md]
    a, q = dict(a), {}
    while a:
        mq = max(a) - md
        e = dict(ring.support(mq))
        if not all(lo <= e.get(j, 0) <= hi for j, (lo, hi) in box.items()):
            return None
        k = q[mq] = _ratio(a[mq + md], kd)
        for n, v in d.items():
            w = a.get(mq + n, 0) - k * v
            if w:
                a[mq + n] = w
            else:
                del a[mq + n]
    return q


def _ratio(a, b):
    """a/b exactly, an int when it is one."""
    r = Fraction(a, b)
    return r.numerator if r.denominator == 1 else r


def solve_span(vectors: list, targets: list, ring: LaurentRing) -> tuple:
    """Exact coordinates of each target in the span of ``vectors``, from one
    forward sweep of the vectors with the targets as extra columns.

    Vectors and targets are sparse coordinate maps {coordinate: polynomial
    of ``ring``}.  Returns (coordinates, independent): coordinates[t] is the
    coefficient list of target t, as ``Expr``, or None when the target is
    outside the span, i.e. when an echelon row whose pivot is no vector's
    holds it; ``independent`` tells whether the vectors are.
    Back-substitution runs once per target on the shared echelon rows and
    scales the solution by the pivots; that product is cancelled by exact
    division where it divides a coordinate, and stays a denominator where
    it does not."""
    k = len(vectors)
    # one row per coordinate: the unknowns first, then a column per target
    by_coord = defaultdict(dict)
    for j, v in enumerate([*vectors, *targets]):
        for i, e in v.items():
            by_coord[i][j] = e
    rows = [by_coord[i] for i in sorted(by_coord)]
    echelon, pivot_cols = row_reduce(rows, k + len(targets), ring)
    n = bisect_left(pivot_cols, k)  # the rows with a vector's pivot come first
    outside = set().union(*echelon[n:])

    def coordinate(p, scale):
        q = _exact_quotient(ring, p, scale)
        return ring.expr(q) if q is not None else expand(div(ring.expr(p), ring.expr(scale)))

    out = []
    for t in range(k, k + len(targets)):
        if t in outside:
            out.append(None)
            continue
        # the target's unknown starts at -1; the pivots that scale sol scale it
        sol = _back_substitute(echelon[:n], pivot_cols[:n], {t: {0: -1}})
        scale = {m: -v for m, v in sol.pop(t).items()}
        out.append([coordinate(sol.get(j, {}), scale) for j in range(k)])
    return out, n == k


def annihilates(rows: list, vectors: list) -> bool:
    """Whether every row vanishes on every vector, both sparse ring polynomials."""
    return not any(_dot(r, v) for r in rows for v in vectors)


# ---------------------------------------------------------------------------
# elimination over GF(p)


def reduce_mod_p(row: dict, pivots: dict, p: int) -> dict:
    """Remainder of a sparse row {col: residue} modulo the echelon rows
    ``pivots`` ({pivot col: row with entry 1 there and none to its left})
    over GF(p).  The remainder is empty iff the row lies in their span."""
    row = {c: v % p for c, v in row.items() if v % p}
    cols = list(row)
    heapify(cols)
    while cols:
        col = heappop(cols)
        a = row.get(col)
        if a is None or col not in pivots:
            continue
        for c, v in pivots[col].items():
            if c not in row:
                heappush(cols, c)
            w = (row.get(c, 0) - a * v) % p
            if w:
                row[c] = w
            else:
                row.pop(c, None)
    return row


def _add_row_mod_p(row: dict, pivots: dict, p: int) -> bool:
    """Add a row's remainder to ``pivots`` as a new echelon row; False
    when the row lies in their span."""
    r = reduce_mod_p(row, pivots, p)
    if not r:
        return False
    col = min(r)
    scale = pow(r[col], -1, p)
    pivots[col] = {c: v * scale % p for c, v in r.items()}
    return True


def echelon_mod_p(rows, p: int) -> dict:
    """Echelon form over GF(p) of sparse rows {col: residue}, as
    {pivot col: row scaled to 1 there}; its length is the rank."""
    pivots: dict = {}
    for r in rows:
        _add_row_mod_p(r, pivots, p)
    return pivots


def independent_rows_mod_p(rows, p: int) -> list:
    """Indices of the rows {col: residue} that are independent over GF(p)
    of the rows before them: a basis of the row space, taken greedily."""
    pivots: dict = {}
    return [i for i, r in enumerate(rows) if _add_row_mod_p(r, pivots, p)]
