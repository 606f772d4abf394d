"""Exact linear algebra over symbolic expression entries.

Rows are sparse, ``{col: entry}`` with only nonzero, normalized, expanded
entries, so elimination never visits a zero.  Forward elimination is
fraction-free (cross-multiplication row updates, no entry is ever divided
during the sweep), with deterministic pivoting that prefers rational
entries, then parameter monomials, so that back-substitution only divides by
simple quantities.  Rows are reduced by their rational and
parameter-monomial content after every update to keep entries small.

All operations treat the parameters appearing in entries as generic nonzero
values; solutions therefore live in the field of rational functions of the
parameters, with exact rational coefficients.

For rank tests at a point, ``echelon_mod_p`` and ``reduce_mod_p`` eliminate
sparse rows ``{col: residue}`` over GF(p).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .expr import (
    Expr, Param, Pow, Product, Rat, Sum,
    RAT0, RAT1, _frac_gcd, add, div, expand, mul, neg, pow_, rat,
    rational_content,
)

__all__ = [
    "strip_row_content", "row_reduce", "nullspace", "solve_span", "rank",
    "echelon_mod_p", "reduce_mod_p",
]


def _param_powers(term: Expr) -> dict:
    """Exponent of each parameter factor in one expanded term."""
    out: dict = {}
    factors = term.factors if type(term) is Product else (term,)
    for f in factors:
        if type(f) is Param:
            out[f] = out.get(f, Fraction(0)) + 1
        elif type(f) is Pow and type(f.expbase) is Param:
            out[f.expbase] = out.get(f.expbase, Fraction(0)) + f.exp
    return out


def _min_powers(powers) -> dict:
    """Common parameter monomial of several {param: exponent} monomials
    (an absent parameter has exponent 0), nonzero exponents only."""
    powers = list(powers)
    params = dict.fromkeys(p for pw in powers for p in pw)
    common = {p: min(pw.get(p, 0) for pw in powers) for p in params}
    return {p: q for p, q in common.items() if q != 0}


def param_content(e: Expr) -> dict:
    """Common parameter monomial of all terms of an expanded expression,
    as {param: min exponent} with only nonzero exponents kept."""
    if e == RAT0:
        return {}
    return _min_powers(map(_param_powers, e.terms if type(e) is Sum else (e,)))


def strip_row_content(row: dict) -> dict:
    """Divide a sparse row by its common rational content and parameter
    monomial, and give its first entry a positive leading term."""
    if not row:
        return row
    g = Fraction(0)
    for e in row.values():
        g = _frac_gcd(g, rational_content(e))
    common = _min_powers(map(param_content, row.values()))
    scale = mul(
        rat(1 / g) if g not in (0, 1) else RAT1,
        *[pow_(p, -q) for p, q in common.items()],
    )
    if scale != RAT1:
        row = {c: expand(mul(scale, e)) for c, e in row.items()}
    # canonical sign: leading term of the first entry positive
    if rational_content(row[min(row)]) < 0:
        row = {c: expand(neg(e)) for c, e in row.items()}
    return row


def _pivot_quality(e: Expr) -> int:
    if type(e) is Rat:
        return 0
    if type(e) in (Param, Pow) and (
        type(e) is Param or type(e.expbase) is Param
    ):
        return 1
    if type(e) is Product and all(
        type(f) is Rat
        or type(f) is Param
        or (type(f) is Pow and type(f.expbase) is Param)
        for f in e.factors
    ):
        return 1
    return 2


def row_reduce(rows: list, ncols: int):
    """Bring sparse rows over columns 0..ncols-1 (nonzero entries only) to
    (unnormalized) row-echelon form.

    Returns (echelon_rows, pivot_cols): echelon_rows[i] has its first entry
    in column pivot_cols[i].  Columns are taken in increasing order; the
    pivot of a column is the row of best ``_pivot_quality``, the first such
    row on ties."""
    work = [strip_row_content({c: expand(e) for c, e in r.items()}) for r in rows]
    work = [r for r in work if r]
    echelon: list = []
    pivot_cols: list = []
    while work:
        col = min(min(r) for r in work)
        best = None
        for i, r in enumerate(work):
            if col in r:
                q = _pivot_quality(r[col])
                if best is None or q < best[0]:
                    best = (q, i)
                    if q == 0:
                        break
        piv_row = work.pop(best[1])
        piv = piv_row[col]
        echelon.append(piv_row)
        pivot_cols.append(col)
        for j, r in enumerate(work):
            a = r.get(col)
            if a is None:
                continue
            new = {}
            for c in r.keys() | piv_row.keys():
                e = expand(add(mul(piv, r.get(c, RAT0)), neg(mul(a, piv_row.get(c, RAT0)))))
                if e != RAT0:
                    new[c] = e
            work[j] = strip_row_content(new)
        work = [r for r in work if r]
    return echelon, pivot_cols


def nullspace(rows: list, ncols: int) -> list:
    """Exact basis of the solution space of the homogeneous system, as
    sparse vectors {col: entry} in column order.

    Each basis vector corresponds to one free column (set to 1, the other
    free columns to 0) and is cleaned by ``strip_row_content``: the free
    column's 1 makes every common parameter exponent <= 0, so dividing by
    the common monomial clears the parameter denominators."""
    echelon, pivot_cols = row_reduce(rows, ncols)
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivot_cols)):
        sol = {fc: RAT1}
        for row, pc in zip(reversed(echelon), reversed(pivot_cols)):
            s = add(*[mul(e, sol[c]) for c, e in row.items() if c in sol])
            if s != RAT0:
                sol[pc] = expand(neg(div(s, row[pc])))
        basis.append(strip_row_content(dict(sorted(sol.items()))))
    return basis


def rank(rows: list, ncols: int) -> int:
    return len(row_reduce(rows, ncols)[0])


def solve_span(vectors: list, target: dict):
    """Exact coordinates of ``target`` in the span of ``vectors``.

    Vectors and target are sparse coordinate maps {coordinate: entry};
    returns the coefficient list or None when the target is outside the
    span."""
    k = len(vectors)
    # one row per coordinate: the unknowns first, then the augmented column
    by_coord = defaultdict(dict)
    for j, v in enumerate([*vectors, target]):
        for i, e in v.items():
            by_coord[i][j] = e
    rows = [by_coord[i] for i in sorted(by_coord)]
    echelon, pivot_cols = row_reduce(rows, k + 1)
    if k in pivot_cols:
        return None  # pivot in the augmented column: inconsistent
    coeffs = [RAT0] * k
    for row, pc in zip(reversed(echelon), reversed(pivot_cols)):
        s = add(*[mul(e, coeffs[c]) for c, e in row.items() if pc < c < k])
        # row reads piv*lam_pc + s = augmented entry
        coeffs[pc] = expand(div(add(row.get(k, RAT0), neg(s)), row[pc]))
    return coeffs


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


def echelon_mod_p(rows, p: int) -> dict:
    """Echelon form over GF(p) of sparse rows {col: residue}, as
    {pivot col: row scaled to 1 there}; its length is the rank."""
    pivots: dict = {}
    for r in rows:
        r = reduce_mod_p(r, pivots, p)
        if r:
            col = min(r)
            scale = pow(r[col], -1, p)
            pivots[col] = {c: v * scale % p for c, v in r.items()}
    return pivots
