"""Exact linear algebra over symbolic expression entries.

Matrices are lists of rows of normalized, expanded expressions.  Forward
elimination is fraction-free (cross-multiplication row updates, no entry is
ever divided during the sweep), with deterministic pivoting that prefers
rational entries, then parameter monomials, so that back-substitution only
divides by simple quantities.  Rows are reduced by their rational and
parameter-monomial content after every update to keep entries small.

All operations treat the parameters appearing in entries as generic nonzero
values; solutions therefore live in the field of rational functions of the
parameters, with exact rational coefficients.

For rank tests at a point, ``echelon_mod_p`` and ``reduce_mod_p`` eliminate
sparse rows ``{col: residue}`` over GF(p).
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

from .expr import (
    Expr, Param, Pow, Product, Rat, Sum,
    RAT0, RAT1, add, div, expand, mul, neg, pow_, rat, rational_content,
)

__all__ = [
    "strip_row_content", "row_reduce", "nullspace", "solve_span", "rank",
    "echelon_mod_p", "reduce_mod_p",
]


def _entry(e) -> Expr:
    return expand(e)


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


def param_content(e: Expr) -> dict:
    """Common parameter monomial of all terms of an expanded expression,
    as {param: min exponent} with only nonzero exponents kept."""
    if e == RAT0:
        return {}
    terms = e.terms if type(e) is Sum else (e,)
    common: dict | None = None
    for t in terms:
        powers = _param_powers(t)
        if common is None:
            common = dict(powers)
        else:
            for p in list(common):
                common[p] = min(common[p], powers.get(p, Fraction(0)))
            for p in powers:
                if p not in common:
                    common[p] = min(Fraction(0), powers[p])
    return {p: q for p, q in (common or {}).items() if q != 0}


def strip_row_content(row: list) -> list:
    """Divide a row by its common rational content and parameter monomial.
    Leaves the zero row unchanged."""
    nonzero = [e for e in row if e != RAT0]
    if not nonzero:
        return row
    g = Fraction(0)
    for e in nonzero:
        c = rational_content(e)
        g = c if g == 0 else _gcd_frac(g, abs(c))
    common: dict | None = None
    for e in nonzero:
        pc = param_content(e)
        if common is None:
            common = dict(pc)
        else:
            for p in list(common):
                common[p] = min(common[p], pc.get(p, Fraction(0)))
            for p in pc:
                if p not in common:
                    common[p] = min(Fraction(0), pc[p])
    common = {p: q for p, q in (common or {}).items() if q != 0}
    scale = mul(
        rat(Fraction(1) / abs(g)) if g not in (0, 1, -1) else RAT1,
        *[pow_(p, -q) for p, q in common.items()],
    )
    if scale != RAT1:
        row = [_entry(mul(scale, e)) if e != RAT0 else e for e in row]
    # canonical sign: leading term of the first nonzero entry positive
    first = next(e for e in row if e != RAT0)
    if rational_content(first) < 0:
        row = [_entry(neg(e)) if e != RAT0 else e for e in row]
    return row


def _gcd_frac(a: Fraction, b: Fraction) -> Fraction:
    from math import gcd, lcm

    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    return Fraction(gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator))


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
    """Bring rows to (unnormalized) row-echelon form in place.

    Returns (echelon_rows, pivot_cols): echelon_rows[i] has its first
    nonzero entry in column pivot_cols[i]."""
    work = [strip_row_content([_entry(e) for e in r]) for r in rows]
    work = [r for r in work if any(e != RAT0 for e in r)]
    echelon: list = []
    pivot_cols: list = []
    for col in range(ncols):
        best = None
        for i, r in enumerate(work):
            if r[col] == RAT0:
                continue
            q = _pivot_quality(r[col])
            if best is None or q < best[0]:
                best = (q, i)
                if q == 0:
                    break
        if best is None:
            continue
        _, i = best
        piv_row = work.pop(i)
        piv = piv_row[col]
        echelon.append(piv_row)
        pivot_cols.append(col)
        for j, r in enumerate(work):
            a = r[col]
            if a == RAT0:
                continue
            new = [
                _entry(add(mul(piv, r[c]), neg(mul(a, piv_row[c]))))
                for c in range(ncols)
            ]
            work[j] = strip_row_content(new)
        work = [r for r in work if any(e != RAT0 for e in r)]
    return echelon, pivot_cols


def nullspace(rows: list, ncols: int) -> list:
    """Exact basis of the solution space of the homogeneous system.

    Each basis vector corresponds to one free column (set to 1, the other
    free columns to 0) and is cleaned: parameter denominators cleared,
    rational content removed, first nonzero coordinate given positive
    leading coefficient."""
    echelon, pivot_cols = row_reduce(rows, ncols)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        sol = [RAT0] * ncols
        sol[fc] = RAT1
        for r in range(len(echelon) - 1, -1, -1):
            pc = pivot_cols[r]
            s = add(
                *[
                    mul(echelon[r][c], sol[c])
                    for c in range(pc + 1, ncols)
                    if echelon[r][c] != RAT0 and sol[c] != RAT0
                ]
            )
            if s == RAT0:
                sol[pc] = RAT0
            else:
                sol[pc] = _entry(neg(div(s, echelon[r][pc])))
        basis.append(_clean_vector(sol))
    return basis


def _clean_vector(vec: list) -> list:
    nonzero = [e for e in vec if e != RAT0]
    if not nonzero:
        return vec
    denom: dict = {}
    for e in nonzero:
        pc = param_content(e)
        for p, q in pc.items():
            if q < 0:
                denom[p] = max(denom.get(p, Fraction(0)), -q)
    if denom:
        scale = mul(*[pow_(p, q) for p, q in denom.items()])
        vec = [_entry(mul(scale, e)) if e != RAT0 else e for e in vec]
        nonzero = [e for e in vec if e != RAT0]
    g = Fraction(0)
    for e in nonzero:
        g = _gcd_frac(g, abs(rational_content(e)))
    lead = rational_content(nonzero[0])
    if g != 0:
        s = Fraction(1) / g
        if lead < 0:
            s = -s
        if s != 1:
            vec = [_entry(mul(rat(s), e)) if e != RAT0 else e for e in vec]
    return vec


def rank(rows: list, ncols: int) -> int:
    return len(row_reduce(rows, ncols)[0])


def solve_span(vectors: list, target: list):
    """Exact coordinates of ``target`` in the span of ``vectors``.

    ``vectors`` are length-n coordinate lists; returns the coefficient list
    or None when the target is outside the span."""
    n = len(target)
    k = len(vectors)
    if any(len(v) != n for v in vectors):
        raise ValueError("inconsistent vector lengths")
    # unknowns first, then the augmented column
    rows = [[vectors[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    echelon, pivot_cols = row_reduce(rows, k + 1)
    if k in pivot_cols:
        return None  # pivot in the augmented column: inconsistent
    coeffs = [RAT0] * k
    for r in range(len(echelon) - 1, -1, -1):
        pc = pivot_cols[r]
        s = add(
            *[
                mul(echelon[r][c], coeffs[c])
                for c in range(pc + 1, k)
                if echelon[r][c] != RAT0 and coeffs[c] != RAT0
            ]
        )
        # row reads piv*lam_pc + s = augmented entry
        coeffs[pc] = _entry(div(add(echelon[r][k], neg(s)), echelon[r][pc]))
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
