"""Exact symbolic expression trees.

Expressions are immutable values built from arbitrary-precision rationals,
named parameters, coordinate variables, jet coordinates of the dependent
variable u, opaque function symbols, and the node kinds Sum / Product /
Power / exp / ln.  Every public constructor returns a normalized tree, so
structural equality doubles as the engine's notion of syntactic identity.

The normal form is deliberately conservative:

* sums and products are flattened and sorted in a fixed total order,
  rational constants are folded, like terms and like power-bases merge;
* ``exp(a)*exp(b)`` merges to ``exp(a+b)``; rational multiples of ``ln``
  inside an exp argument are pulled out as powers (``exp(w + 2*ln(x))``
  becomes ``x^2*exp(w)``); ``exp(ln(e))`` and ``ln(exp(e))`` collapse;
* ``ln`` of a product is never split into a sum of logs, except that
  exp factors are extracted (``ln(a*exp(b)) -> ln(a) + b``), which is
  safe wherever the left side is defined;
* products are not distributed over sums -- :func:`expand` does that on
  demand.  The arguments of function, exp and ln nodes are always
  expanded: ``fn``, ``exp_`` and ``ln_`` expand them when they build a node
  and ``diff`` reuses them, so ``expand`` returns such nodes as they are.

Every rebuild of a tree (``normalize``, ``expand``, ``substitute``) reads a
node's children with ``_children`` and rebuilds it with ``_rebuild``.  A
node of a normalized tree whose children come back unchanged is already in
normal form and is kept as it is; ``normalize``, which takes raw trees,
always rebuilds.

No floating point number ever enters a tree; all numeric content is
`fractions.Fraction`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import is_

__all__ = [
    "Expr", "Rat", "Param", "Base", "Jet", "Fn", "Pow", "Exp", "Ln",
    "Product", "Sum",
    "rat", "param", "base", "jet", "fn",
    "add", "mul", "pow_", "exp_", "ln_", "neg", "sub", "div",
    "normalize", "expand", "diff", "substitute", "collect_atoms",
    "clear_denominators", "clear_sum_denominators", "vanishes",
    "eval_numeric",
    "format_expr", "atoms_of", "jets_of", "fn_nodes_of", "max_jet_order",
    "rational_content",
    "RAT0", "RAT1", "X", "Y", "T", "U",
    "ExprError", "SingularError", "NonPolynomialError",
    "UnboundAtomError", "EvalDomainError",
]

_COORD_RANK = {"x": 0, "y": 1, "t": 2}


class ExprError(Exception):
    pass


class SingularError(ExprError):
    """Raised when simplification meets 0 raised to a negative power or ln(0)."""


class NonPolynomialError(ExprError):
    """Raised by collect_atoms() when a target variable occurs non-polynomially."""


class UnboundAtomError(ExprError):
    pass


class EvalDomainError(ExprError):
    """Numeric evaluation hit a domain error (ln of non-positive, 0^negative...)."""


class Expr:
    __slots__ = ("_hash", "_key")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # the sort key spells out the whole tree, so equal keys are equal trees
        return self is other or (
            type(other) is type(self)
            and other._hash == self._hash
            and other._key == self._key
        )

    def sort_key(self):
        return self._key

    def __str__(self):
        return format_expr(self)

    def __repr__(self):
        return f"<{type(self).__name__} {format_expr(self)}>"


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return rat(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


class Rat(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value
        self._hash = hash((0, value))
        self._key = (0, value)


class Param(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash((1, name))
        self._key = (1, name)


class Base(Expr):
    """A coordinate variable.  x, y, t are the model coordinates; reductions
    introduce further ones (r, s, p, q) for the invariant coordinates."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash((2, name))
        self._key = (2, _COORD_RANK.get(name, 3), name)


MAX_JET_ORDER = 4


class Jet(Expr):
    """u differentiated by the multiset of coordinate letters in ``idx``.

    ``idx`` is stored sorted (x before y before t), so u_xy and u_yx are the
    same node.  Total order is capped at 4."""

    __slots__ = ("idx",)

    def __init__(self, idx: tuple):
        self.idx = idx
        self._hash = hash((3, idx))
        self._key = (3, len(idx), tuple(_COORD_RANK[c] for c in idx))

    @property
    def order(self):
        return len(self.idx)


class Fn(Expr):
    """Opaque function symbol applied to argument expressions.

    ``didx`` counts partial derivatives taken in each argument slot; the
    closed form of the function is never assumed until something is
    substituted for its head."""

    __slots__ = ("name", "args", "didx")

    def __init__(self, name: str, args: tuple, didx: tuple):
        self.name = name
        self.args = args
        self.didx = didx
        self._hash = hash((4, name, didx, tuple(a._hash for a in args)))
        self._key = (4, name, didx, tuple(a._key for a in args))


class Pow(Expr):
    __slots__ = ("expbase", "exp")

    def __init__(self, expbase: Expr, exp: Fraction):
        self.expbase = expbase
        self.exp = exp
        self._hash = hash((5, expbase._hash, exp))
        self._key = (5, expbase._key, exp)


class Exp(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._hash = hash((6, arg._hash))
        self._key = (6, arg._key)


class Ln(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._hash = hash((7, arg._hash))
        self._key = (7, arg._key)


class Product(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors
        self._hash = hash((8,) + tuple(f._hash for f in factors))
        self._key = (8, tuple(f._key for f in factors))


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms
        self._hash = hash((9,) + tuple(t._hash for t in terms))
        self._key = (9, tuple(t._key for t in terms))


# ---------------------------------------------------------------------------
# atom construction (interned)

_rat_cache: dict = {}
_atom_cache: dict = {}


def rat(p, q=None) -> Rat:
    if q is None:
        e = _rat_cache.get(p)  # an int or Fraction hashes like its value
        if e is not None:
            return e
        v = Fraction(p)
    else:
        v = Fraction(p, q)
    e = _rat_cache.get(v)
    if e is None:
        e = _rat_cache[v] = Rat(v)
    return e


def param(name: str) -> Param:
    key = ("p", name)
    e = _atom_cache.get(key)
    if e is None:
        e = _atom_cache[key] = Param(name)
    return e


def base(name: str) -> Base:
    key = ("b", name)
    e = _atom_cache.get(key)
    if e is None:
        e = _atom_cache[key] = Base(name)
    return e


def jet(idx: str | Iterable[str] = "") -> Jet:
    letters = tuple(sorted(idx, key=_COORD_RANK.__getitem__))
    for c in letters:
        if c not in _COORD_RANK:
            raise ExprError(f"bad jet index letter {c!r}")
    if len(letters) > MAX_JET_ORDER:
        raise ExprError(f"jet order {len(letters)} exceeds cap {MAX_JET_ORDER}")
    key = ("j", letters)
    e = _atom_cache.get(key)
    if e is None:
        e = _atom_cache[key] = Jet(letters)
    return e


def fn(name: str, args, didx=None) -> Expr:
    args = tuple(expand(_as_expr(a)) for a in args)
    if didx is None:
        didx = (0,) * len(args)
    didx = tuple(int(d) for d in didx)
    if len(didx) != len(args):
        raise ExprError(f"{name}: derivative index arity {didx} vs {len(args)} args")
    return Fn(name, args, didx)


RAT0 = rat(0)
RAT1 = rat(1)
RAT_M1 = rat(-1)
X = base("x")
Y = base("y")
T = base("t")
U = jet("")


# ---------------------------------------------------------------------------
# normalizing constructors


def _coeff_split(e: Expr):
    """Split a non-Sum, non-Rat normalized node into (rational coeff, rest)."""
    if type(e) is Product and type(e.factors[0]) is Rat:
        rest = e.factors[1:]
        if len(rest) == 1:
            return e.factors[0].value, rest[0]
        return e.factors[0].value, Product(rest)
    return Fraction(1), e


def _scale(e: Expr, c: Fraction) -> Expr:
    """c * e for normalized e carrying no rational coefficient of its own."""
    if c == 1:
        return e
    if type(e) is Product:
        return Product((rat(c),) + e.factors)
    return Product((rat(c), e))


def add(*es) -> Expr:
    const = Fraction(0)
    by_rest: dict = {}
    stack = [_as_expr(e) for e in es]
    while stack:
        e = stack.pop()
        t = type(e)
        if t is Sum:
            stack.extend(e.terms)
        elif t is Rat:
            const += e.value
        else:
            c, rest = _coeff_split(e)
            acc = by_rest.get(rest)
            by_rest[rest] = c if acc is None else acc + c
    terms = [_scale(rest, c) for rest, c in by_rest.items() if c != 0]
    if const != 0:
        terms.append(rat(const))
    if not terms:
        return RAT0
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=Expr.sort_key)
    return Sum(tuple(terms))


def _int_nth_root(n: int, k: int):
    """Exact k-th root of non-negative integer n, or None."""
    r = round(n ** (1.0 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** k == n:
            return cand
    return None


def _rat_pow(v: Fraction, q: Fraction) -> Expr:
    if q.denominator == 1:
        k = int(q)
        if v == 0:
            if k < 0:
                raise SingularError("0 raised to a negative power")
            return RAT0 if k > 0 else RAT1
        return rat(v ** k)
    if v == 0:
        if q > 0:
            return RAT0
        raise SingularError("0 raised to a negative power")
    if v > 0:
        w = v ** q.numerator
        rn = _int_nth_root(w.numerator, q.denominator)
        rd = _int_nth_root(w.denominator, q.denominator)
        if rn is not None and rd is not None:
            return rat(Fraction(rn, rd))
    return Pow(rat(v), q)


def pow_(b, q) -> Expr:
    b = _as_expr(b)
    q = Fraction(q)
    if q == 0:
        return RAT1
    if q == 1:
        return b
    t = type(b)
    if t is Rat:
        return _rat_pow(b.value, q)
    if t is Pow:
        return pow_(b.expbase, b.exp * q)
    if t is Exp:
        return exp_(mul(rat(q), b.arg))
    if t is Product:
        if q.denominator == 1:
            return mul(*[pow_(f, q) for f in b.factors])
        return _product_pow(b, q)
    return Pow(b, q)


def _product_pow(b: Product, q: Fraction) -> Expr:
    """b^q for a product b and fractional q, in canonical form: the integer
    part n of q and every factor that is itself a power (c^p or exp(a)) come
    out, and the rest keeps the exponent r = q - n in (0, 1): (2*u)^(-1/2)
    is 1/2*u^-1*(2*u)^(1/2), and (2*w*x^(3/2))^(1/3) is
    x^(1/2)*(2*w)^(1/3).  A rational factor stays under the root, which
    elimination mod p could not evaluate as a power of its own, but ``mul``
    takes the perfect powers of a positive one out.  Like
    (c^p)^q = c^(p*q), this assumes the factors positive."""
    n = q.numerator // q.denominator
    r = q - n
    powers = [f for f in b.factors if type(f) is Pow or type(f) is Exp]
    if not powers:
        return Pow(b, r) if n == 0 and _root_primes(b) is None else mul(pow_(b, n), Pow(b, r))
    rest = [f for f in b.factors if type(f) is not Pow and type(f) is not Exp]
    return mul(pow_(b, n), *[pow_(f, r) for f in powers], pow_(mul(*rest), r))


def _root_primes(b: Expr):
    """{prime: exponent} of the rational factor w > 0 of a product b; None
    without one, or if trial division below 2^12 leaves a cofactor >= 2^24."""
    w = b.factors[0] if type(b) is Product else None
    if type(w) is not Rat or w.value <= 0:
        return None
    out: dict = {}
    for n, sign in ((w.value.numerator, 1), (w.value.denominator, -1)):
        f = 2
        while f * f <= n and f < 4096:
            while n % f == 0:
                n //= f
                out[f] = out.get(f, 0) + sign
            f += 1
        if n >= 1 << 24:
            return None
        if n > 1:
            out[n] = out.get(n, 0) + sign
    return out


def mul(*es) -> Expr:
    """The normalized product.  The powers (w*g)^q of one g, w a rational
    > 0 of known primes (``_root_primes``), fold by value into
    K * g^(E - 1/L) * (c*g)^(1/L), L the lcm of the denominators of the
    primes' exponents, so their products are associative: (4*u)^(1/2) is
    2*u^(1/2), (8*u)^(1/2) is 2*(2*u)^(1/2).  Other powers merge by base."""
    coeff = Fraction(1)
    bases: dict = {}
    exp_args: list = []
    roots: dict = {}  # g -> {prime of the w's: exponent}
    stack = [_as_expr(e) for e in es]
    while stack:
        e = stack.pop()
        t = type(e)
        if t is Rat:
            if e.value == 0:
                return RAT0
            coeff *= e.value
        elif t is Product:
            stack.extend(e.factors)
        elif t is Pow:
            b, primes = e.expbase, _root_primes(e.expbase)
            if primes is not None:
                b = b.factors[1] if len(b.factors) == 2 else Product(b.factors[1:])
                ex = roots.setdefault(b, {})
                for f, k in primes.items():
                    ex[f] = ex.get(f, 0) + k * e.exp
            acc = bases.get(b)
            bases[b] = e.exp if acc is None else acc + e.exp
        elif t is Exp:
            exp_args.append(e.arg)
        else:
            acc = bases.get(e)
            bases[e] = Fraction(1) if acc is None else acc + 1

    factors: list = []
    for g, ex in roots.items():
        den = lcm(*[x.denominator for x in ex.values()])
        c = 1
        for f, x in ex.items():
            k = int(x * den) % den
            c *= f ** k
            coeff *= Fraction(f) ** int(x - Fraction(k, den))
        if c != 1:
            factors.append(Pow(_scale(g, Fraction(c)), Fraction(1, den)))
            bases[g] -= Fraction(1, den)
    redo: list = []
    for b, q in bases.items():
        f = pow_(b, q)
        tf = type(f)
        if tf is Rat:
            coeff *= f.value
        elif tf is Product or tf is Exp:
            redo.append(f)
        else:
            factors.append(f)
    if exp_args:
        # exp_ built every Exp, so no argument has a term q*ln(E), q
        # rational, and neither has their sum: it gives 1 or one Exp
        f = exp_(add(*exp_args))
        if type(f) is Rat:
            coeff *= f.value
        else:
            factors.append(f)
    if redo:
        return mul(rat(coeff), *factors, *redo)
    if not factors:
        return rat(coeff)
    if coeff == 1 and len(factors) == 1:
        return factors[0]
    factors.sort(key=Expr.sort_key)
    if coeff != 1:
        factors.insert(0, rat(coeff))
    return Product(tuple(factors))


def _ln_coeff_term(term: Expr):
    """Return (q, E) when term == q*ln(E) with rational q, else None."""
    if type(term) is Ln:
        return Fraction(1), term.arg
    if (
        type(term) is Product
        and len(term.factors) == 2
        and type(term.factors[0]) is Rat
        and type(term.factors[1]) is Ln
    ):
        return term.factors[0].value, term.factors[1].arg
    return None


def exp_(a) -> Expr:
    a = expand(_as_expr(a))
    if a == RAT0:
        return RAT1
    if type(a) is Ln:
        return a.arg
    terms = a.terms if type(a) is Sum else (a,)
    pulled: list = []
    kept: list = []
    for term in terms:
        hit = _ln_coeff_term(term)
        if hit is not None:
            pulled.append(pow_(hit[1], hit[0]))
        else:
            kept.append(term)
    if not pulled:
        return Exp(a)
    rem = add(*kept)
    if rem == RAT0:
        return mul(*pulled)
    return mul(*pulled, Exp(rem))


def ln_(a) -> Expr:
    a = expand(_as_expr(a))
    if a == RAT1:
        return RAT0
    if a == RAT0:
        raise SingularError("ln(0)")
    if type(a) is Exp:
        return a.arg
    if type(a) is Product:
        exps = [f for f in a.factors if type(f) is Exp]
        if exps:
            rest = [f for f in a.factors if type(f) is not Exp]
            inner = mul(*rest) if rest else RAT1
            return add(ln_(inner), *[f.arg for f in exps])
    return Ln(a)


def neg(e) -> Expr:
    return mul(RAT_M1, _as_expr(e))


def sub(a, b) -> Expr:
    return add(_as_expr(a), neg(b))


def div(a, b) -> Expr:
    return mul(_as_expr(a), pow_(b, Fraction(-1)))


def _children(e: Expr) -> tuple:
    """The args, terms, factors, base or argument of a node; () for an atom."""
    t = type(e)
    if t is Sum:
        return e.terms
    if t is Product:
        return e.factors
    if t is Fn:
        return e.args
    if t is Pow:
        return (e.expbase,)
    if t is Exp or t is Ln:
        return (e.arg,)
    return ()


def _rebuild(e: Expr, kids) -> Expr:
    """The node ``e`` with children ``kids``, through its normalizing
    constructor."""
    t = type(e)
    if t is Sum:
        return add(*kids)
    if t is Product:
        return mul(*kids)
    if t is Fn:
        return fn(e.name, kids, e.didx)
    if t is Pow:
        return pow_(kids[0], e.exp)
    if t is Exp:
        return exp_(kids[0])
    if t is Ln:
        return ln_(kids[0])
    if t is Rat:
        return rat(e.value)
    if t is Jet:
        return jet(e.idx)
    if t is Param or t is Base:
        return e
    raise ExprError(f"unknown node {e!r}")


def _reuse(e: Expr, kids) -> Expr:
    """``e`` itself when every one of ``kids`` is its old child: a node of a
    normalized tree whose children did not change is already in normal
    form.  Otherwise the rebuilt node."""
    if all(map(is_, kids, _children(e))):
        return e
    return _rebuild(e, kids)


def _map(e: Expr, f) -> Expr:
    """``e`` with ``f`` applied to each child of a normalized node."""
    return _reuse(e, [f(k) for k in _children(e)])


def normalize(e) -> Expr:
    """Rebuild an arbitrary tree through the normalizing constructors."""
    e = _as_expr(e)
    return _rebuild(e, [normalize(k) for k in _children(e)])


def expand(e) -> Expr:
    """Distribute products over sums and integer powers of sums.

    Input must already be normalized; output is normalized and fully
    distributed.  exp/ln/function nodes are returned as they are: their
    constructors expand the argument (see the module docstring)."""
    e = _as_expr(e)
    t = type(e)
    if t is Sum:
        return _map(e, expand)
    if t is not Product and t is not Pow:
        return e
    kids = [expand(k) for k in _children(e)]
    if t is Product and any(type(f) is Sum for f in kids):
        terms = [RAT1]
        for f in kids:
            if type(f) is Sum:
                terms = [mul(a, b) for a in terms for b in f.terms]
            else:
                terms = [mul(a, f) for a in terms]
        return add(*terms)
    if t is Pow and type(kids[0]) is Sum and e.exp.denominator == 1 and e.exp > 1:
        # distribute term lists directly: mul(b, b) would re-merge the
        # equal bases into Pow(b, 2) and loop; like terms are collected
        # after each factor, so b^n costs n times the terms, not 2^n
        terms = (RAT1,)
        for _ in range(int(e.exp)):
            acc = add(*[mul(a, s) for a in terms for s in kids[0].terms])
            terms = acc.terms if type(acc) is Sum else (acc,)
        return add(*terms)
    return _reuse(e, kids)


# ---------------------------------------------------------------------------
# differentiation and substitution


def diff(e, v) -> Expr:
    """Partial derivative with respect to an atom (Base, Jet or Param).

    Jet coordinates are mutually independent: diff(u_x, x) == 0.  Opaque
    functions follow the chain rule through their arguments, raising the
    derivative multi-index on the head."""
    e = _as_expr(e)
    if not isinstance(v, (Base, Jet, Param)):
        raise ExprError(f"cannot differentiate with respect to {v!r}")
    t = type(e)
    if t is Rat:
        return RAT0
    if t in (Param, Base, Jet):
        return RAT1 if e == v else RAT0
    if t is Fn:
        parts = []
        for i, a in enumerate(e.args):
            da = diff(a, v)
            if da == RAT0:
                continue
            didx = list(e.didx)
            didx[i] += 1
            parts.append(mul(Fn(e.name, e.args, tuple(didx)), da))
        return add(*parts)
    if t is Sum:
        return add(*[diff(x, v) for x in e.terms])
    if t is Product:
        parts = []
        for i, f in enumerate(e.factors):
            df = diff(f, v)
            if df == RAT0:
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(mul(df, *rest))
        return add(*parts)
    if t is Pow:
        return mul(rat(e.exp), pow_(e.expbase, e.exp - 1), diff(e.expbase, v))
    if t is Exp:
        return mul(e, diff(e.arg, v))
    if t is Ln:
        return mul(diff(e.arg, v), pow_(e.arg, Fraction(-1)))
    raise ExprError(f"unknown node {e!r}")


class SingularSubstitutionError(SingularError):
    pass


def substitute(e, bindings: Mapping[Expr, Expr]) -> Expr:
    """Simultaneous substitution of normalized expressions.

    Keys may be atoms (Param/Base/Jet) or opaque-function nodes.  A function
    key with an all-zero derivative index binds the *head*: every occurrence
    of that head, including differentiated ones, is replaced by the
    appropriate derivative of the replacement (the key's arguments must be
    atoms and name the replacement's slots).  A key with a nonzero
    derivative index only matches that exact node."""
    exact: dict = {}
    heads: dict = {}
    for k, v in bindings.items():
        v = _as_expr(v)
        if isinstance(k, (Param, Base, Jet)):
            exact[k] = v
        elif isinstance(k, Fn):
            if any(d != 0 for d in k.didx):
                exact[k] = v
            else:
                for a in k.args:
                    if not isinstance(a, (Param, Base, Jet)):
                        raise ExprError(
                            f"head binding for {k.name} needs atomic formal arguments"
                        )
                heads[(k.name, len(k.args))] = (k.args, v)
        else:
            raise ExprError(f"substitution key must be an atom or function node: {k!r}")

    try:
        return _sub(_as_expr(e), exact, heads)
    except SingularError as err:
        raise SingularSubstitutionError(str(err)) from err


def _sub(e: Expr, exact, heads) -> Expr:
    hit = exact.get(e)
    if hit is not None:
        return hit
    if type(e) is Fn:
        bound = heads.get((e.name, len(e.args)))
        if bound is not None:
            new_args = [_sub(a, exact, heads) for a in e.args]
            formals, rep = bound
            out = rep
            for slot, k in enumerate(e.didx):
                for _ in range(k):
                    out = diff(out, formals[slot])
            renames = {
                f: a for f, a in zip(formals, new_args) if f != a
            }
            if renames:
                out = _sub(out, renames, {})
            return out
    return _map(e, lambda k: _sub(k, exact, heads))


# ---------------------------------------------------------------------------
# structure queries


def _walk(e: Expr):
    """Every node of the tree, in pre-order."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(_children(e)))


def atoms_of(e: Expr) -> set:
    return {n for n in _walk(_as_expr(e)) if isinstance(n, (Param, Base, Jet))}


def jets_of(e: Expr) -> set:
    return {n for n in _walk(_as_expr(e)) if isinstance(n, Jet)}


def fn_nodes_of(e: Expr) -> set:
    return {n for n in _walk(_as_expr(e)) if isinstance(n, Fn)}


def max_jet_order(e: Expr) -> int:
    return max((n.order for n in jets_of(e)), default=-1)


def rational_content(e: Expr) -> Fraction:
    """gcd of the rational coefficients of an expanded expression's terms
    (sign taken from the first term); 0 for the zero expression."""
    e = _as_expr(e)
    if e == RAT0:
        return Fraction(0)
    terms = e.terms if type(e) is Sum else (e,)
    coeffs = []
    for t in terms:
        if type(t) is Rat:
            coeffs.append(t.value)
        else:
            coeffs.append(_coeff_split(t)[0])
    g = Fraction(0)
    for c in coeffs:
        g = _frac_gcd(g, c)
    return -g if coeffs[0] < 0 else g


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """The nonnegative gcd; gcd(0, b) = |b| since 0 has denominator 1."""
    return Fraction(gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator))


# ---------------------------------------------------------------------------
# monomial collection


def clear_denominators(exprs, power) -> list:
    """Multiply every expression of ``exprs`` through by one shared product
    of base powers, expanding, until no negative power is left to clear.

    ``power(base, q)`` gives, for a factor base^(-q) with q > 0, the power of
    base needed to clear it, 0 to leave it.  Each base is raised to the
    largest power any term of any of the expressions needs, so all of them
    are scaled by the same factor, nonzero wherever they are defined.

    Then every fractional power q > 1 of a Sum base b is written as the
    expanded b^floor(q) times b^(q - floor(q)), so the fractional powers of
    one sum are all one factor: u*(2*u + 1)^(1/2) and (2*u + 1)^(3/2) become
    multiples of the same (2*u + 1)^(1/2)."""
    exprs = [expand(_as_expr(e)) for e in exprs]
    for _ in range(6):
        need: dict = {}
        term_lists = [e.terms if type(e) is Sum else (e,) for e in exprs]
        for terms in term_lists:
            for term in terms:
                for f in term.factors if type(term) is Product else (term,):
                    if type(f) is Pow and f.exp < 0:
                        k = power(f.expbase, -f.exp)
                        if k > need.get(f.expbase, 0):
                            need[f.expbase] = k
        if not need:
            return [add(*map(_split_sum_power, terms)) for terms in term_lists]
        # merge the clearing powers into each term separately so that
        # base^(-k) * base^k cancels before any distribution happens
        mult = [
            pow_(b, k)
            for b, k in sorted(need.items(), key=lambda bk: bk[0].sort_key())
        ]
        exprs = [add(*[expand(mul(t, *mult)) for t in terms]) for terms in term_lists]
    raise ExprError("could not clear denominators")


def _split_sum_power(term: Expr) -> Expr:
    """``term`` with a factor b^q, b a Sum and q > 1 fractional, written as
    the expanded b^floor(q) times b^(q - floor(q)) (see clear_denominators)."""
    factors = term.factors if type(term) is Product else (term,)
    for i, f in enumerate(factors):
        if type(f) is Pow and type(f.expbase) is Sum and f.exp > 1 and f.exp.denominator != 1:
            n = f.exp.numerator // f.exp.denominator
            rest = (*factors[:i], Pow(f.expbase, f.exp - n), *factors[i + 1:])
            whole = expand(pow_(f.expbase, n))
            # b^n's terms are not b, so they do not merge back into the power
            return add(*[_split_sum_power(mul(*rest, t))
                         for t in (whole.terms if type(whole) is Sum else (whole,))])
    return term


def clear_sum_denominators(e: Expr) -> Expr:
    """Clear every negative power of a Sum-shaped base (a fractional one to
    the next integer).  The result vanishes identically iff the input does."""
    from math import ceil

    return clear_denominators([e], lambda b, q: ceil(q) if type(b) is Sum else 0)[0]


def vanishes(e: Expr) -> bool:
    """Zero test modulo expansion and denominator clearing, which also
    writes the fractional powers of each sum as one factor."""
    return clear_sum_denominators(e) == RAT0


def collect_atoms(e: Expr, variables) -> dict:
    """Write ``e`` as a sum of monomial * coefficient over the given
    variables: atoms, or any other nodes that occur as factors of the
    expanded terms (opaque function nodes, transcendental factors).

    Keys are sorted tuples of (variable, positive power); the empty tuple is
    the constant monomial.  Coefficients are free of the variables.  Raises
    NonPolynomialError if a variable occurs inside another factor (an
    exp/ln/function argument, a power's base) or with a
    non-positive-integer exponent."""
    variables = set(variables)
    e = expand(_as_expr(e))
    out: dict = {}
    if e == RAT0:
        return {}
    terms = e.terms if type(e) is Sum else (e,)
    for term in terms:
        factors = term.factors if type(term) is Product else (term,)
        powers: dict = {}
        coeff_parts = []
        for f in factors:
            tf = type(f)
            if f in variables:
                powers[f] = powers.get(f, 0) + 1
            elif tf is Pow and f.expbase in variables:
                if f.exp.denominator != 1 or f.exp < 0:
                    raise NonPolynomialError(
                        f"{f.expbase} occurs with exponent {f.exp}"
                    )
                powers[f.expbase] = powers.get(f.expbase, 0) + int(f.exp)
            else:
                bad = variables.intersection(_walk(f))
                if bad:
                    raise NonPolynomialError(
                        f"non-polynomial dependence on {sorted(map(str, bad))} in {f}"
                    )
                coeff_parts.append(f)
        key = tuple(sorted(powers.items(), key=lambda p: p[0].sort_key()))
        contrib = mul(*coeff_parts) if coeff_parts else RAT1
        prev = out.get(key)
        out[key] = contrib if prev is None else add(prev, contrib)
    return {k: v for k, v in out.items() if v != RAT0}


# ---------------------------------------------------------------------------
# numeric evaluation


def eval_numeric(e: Expr, point: Mapping[Expr, float], fns: Callable | None = None) -> float:
    """Evaluate at a point binding every atom to a float.

    ``fns(name, didx, arg_values)`` supplies values for opaque functions;
    without it an opaque function node raises UnboundAtomError."""
    import math

    def ev(n: Expr) -> float:
        t = type(n)
        if t is Rat:
            return float(n.value)
        if t in (Param, Base, Jet):
            try:
                return float(point[n])
            except KeyError:
                raise UnboundAtomError(f"unbound atom {n}") from None
        if t is Fn:
            if fns is None:
                raise UnboundAtomError(f"unbound function {n}")
            return float(fns(n.name, n.didx, tuple(ev(a) for a in n.args)))
        if t is Sum:
            return sum(ev(x) for x in n.terms)
        if t is Product:
            v = 1.0
            for x in n.factors:
                v *= ev(x)
            return v
        if t is Pow:
            b = ev(n.expbase)
            q = n.exp
            if b == 0 and q < 0:
                raise EvalDomainError("division by zero")
            if b < 0:
                if q.denominator == 1:
                    return b ** int(q)
                raise EvalDomainError(f"negative base {b} for exponent {q}")
            return b ** float(q)
        if t is Exp:
            v = ev(n.arg)
            if v > 700:
                raise EvalDomainError("exp overflow")
            return math.exp(v)
        if t is Ln:
            v = ev(n.arg)
            if v <= 0:
                raise EvalDomainError(f"ln of non-positive value {v}")
            return math.log(v)
        raise ExprError(f"unknown node {n!r}")

    return ev(_as_expr(e))


# ---------------------------------------------------------------------------
# formatting


def _frac_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _needs_parens_in_product(e: Expr) -> bool:
    return type(e) is Sum


def _pow_base_str(e: Expr) -> str:
    if type(e) in (Param, Base, Jet, Exp, Ln, Fn) or (
        type(e) is Rat and e.value >= 0 and e.value.denominator == 1
    ):
        return format_expr(e)
    return f"({format_expr(e)})"


def format_expr(e: Expr) -> str:
    """Render in the input grammar; parse(format_expr(e)) == e whenever e
    only uses grammar-expressible nodes (no differentiated function heads)."""
    t = type(e)
    if t is Rat:
        return _frac_str(e.value)
    if t in (Param, Base):
        return e.name
    if t is Jet:
        return "u" if not e.idx else "u_" + "".join(e.idx)
    if t is Fn:
        total = sum(e.didx)
        if total == 0:
            head = e.name
        elif len(e.args) == 1 and total <= 3:
            head = e.name + "'" * total
        else:
            head = e.name + "[" + ",".join(map(str, e.didx)) + "]"
        return head + "(" + ", ".join(format_expr(a) for a in e.args) + ")"
    if t is Exp:
        return f"exp({format_expr(e.arg)})"
    if t is Ln:
        return f"ln({format_expr(e.arg)})"
    if t is Pow:
        q = e.exp
        if q.denominator == 1 and q > 0:
            return f"{_pow_base_str(e.expbase)}^{q.numerator}"
        return f"{_pow_base_str(e.expbase)}^({_frac_str(q)})"
    if t is Product:
        factors = list(e.factors)
        prefix = ""
        if type(factors[0]) is Rat:
            c = factors[0].value
            factors = factors[1:]
            if c == -1:
                prefix = "-"
            else:
                prefix = _frac_str(c) + "*"
        body = "*".join(
            f"({format_expr(f)})" if _needs_parens_in_product(f) else format_expr(f)
            for f in factors
        )
        return prefix + body
    if t is Sum:
        out = []
        for i, term in enumerate(e.terms):
            c, rest = (term.value, None) if type(term) is Rat else _coeff_split(term)
            if i == 0:
                out.append(format_expr(term))
                continue
            if c < 0:
                flipped = rat(-c) if rest is None else _scale(rest, -c)
                out.append(" - " + format_expr(flipped))
            else:
                out.append(" + " + format_expr(term))
        return "".join(out)
    raise ExprError(f"unknown node {e!r}")
