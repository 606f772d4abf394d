"""Checks of wavesym CLI reports against mathematics worked out by hand.

Nothing here imports wavesym: expression texts from the reports are read
by the small parser below and evaluated over exact rationals, either to
numbers or to polynomials in (x, y, t, u) and the basis symbols d/dx,
d/dy, d/dt, d/du.  Each ``check_*`` returns a list of problems; an empty
list means the report agrees with the theory.

Facts used (see the README for the derivations):

* derive, generic f: the translations, the rotation -y*d/dx + x*d/dy and
  the scaling x*d/dx + y*d/dy + t*d/dt are symmetries for every f, so
  they satisfy every derived equation, while x*d/dx alone does not.  The
  rotation has xi_y = -1, eta_x = 1 and the scaling tau_t = 1, phi_u = 0,
  so the reference conditions xi_no_y, eta_no_x and tau_t_matches_phi_u
  are not implied; the other 12 are.  The u_xy coefficient of the
  invariance condition is a constant multiple of f*(xi_y + eta_x).
* classify, f = K*exp(u/c): the planar conformal fields of w = z^k and
  w = i*z^k (z = x + i*y, k <= d) with phi = 2*c*Re(w'), plus d/dt and
  t*d/dt - 2*c*d/du, span the degree-d space of dimension 2*d + 4.
* classify, f = L*(e1*u + e2)^(1/e1): d/dx, d/dy, d/dt, the rotation,
  x*d/dx + y*d/dy + t*d/dt and t*d/dt - 2*(e1*u + e2)*d/du span a space
  of dimension 6.
* reduce (i, v4): u = 2*c*ln((m*x + p*y + q)/t) solves the equation iff
  1/K + m^2 + p^2 = 0.
* verify: second-order central differences converge by a factor 4 per
  halving of the step, RK4 drift by a factor 16.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

TOL = 1e-6
CONV_BAND = (2.0**1.5, 2.0**2.5)
RK4_ORDER_BAND = (3.5, 4.5)
TRANSPORT_FACTOR = 10.0
CONTROL_FACTOR = 1e3
NOT_IMPLIED = {"xi_no_y", "eta_no_x", "tau_t_matches_phi_u"}
N_REFERENCE_CONDITIONS = 15

VARS = ("x", "y", "t", "u", "d/dx", "d/dy", "d/dt", "d/du")
COMPONENTS = ("xi", "eta", "tau", "phi")


# ---------------------------------------------------------------------------
# polynomials over the rationals in VARS


class Poly:
    """Sparse polynomial {exponent tuple over VARS: Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def var(cls, name: str) -> "Poly":
        e = [0] * len(VARS)
        e[VARS.index(name)] = 1
        return cls({tuple(e): Fraction(1)})

    @classmethod
    def const(cls, c) -> "Poly":
        return cls({(0,) * len(VARS): Fraction(c)})

    @staticmethod
    def _lift(o) -> "Poly":
        return o if isinstance(o, Poly) else Poly.const(o)

    def __add__(self, o):
        out = dict(self.terms)
        for k, v in Poly._lift(o).terms.items():
            out[k] = out.get(k, 0) + v
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -v for k, v in self.terms.items()})

    def __sub__(self, o):
        return self + (-Poly._lift(o))

    def __rsub__(self, o):
        return Poly._lift(o) - self

    def __mul__(self, o):
        o = Poly._lift(o)
        out: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in o.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0) + v1 * v2
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Poly):
            raise ValueError("division by a polynomial")
        return self * (Fraction(1) / o)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"polynomial power {k}")
        out = Poly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def diff(self, i: int, k: int = 1) -> "Poly":
        out = self
        for _ in range(k):
            nxt: dict = {}
            for e, v in out.terms.items():
                if e[i]:
                    e2 = list(e)
                    e2[i] -= 1
                    nxt[tuple(e2)] = nxt.get(tuple(e2), 0) + v * e[i]
            out = Poly(nxt)
        return out

    def at(self, point) -> Fraction:
        total = Fraction(0)
        for e, v in self.terms.items():
            term = v
            for p, k in zip(point, e):
                if k:
                    term *= Fraction(p) ** k
            total += term
        return total


X, Y, T, U = (Poly.var(n) for n in ("x", "y", "t", "u"))
DX, DY, DT, DU = (Poly.var(n) for n in ("d/dx", "d/dy", "d/dt", "d/du"))


def field(xi=0, eta=0, tau=0, phi=0) -> Poly:
    """xi*d/dx + eta*d/dy + tau*d/dt + phi*d/du as one polynomial."""
    return xi * DX + eta * DY + tau * DT + phi * DU


def components(v: Poly) -> list:
    """The four component polynomials of a field built by ``field``."""
    out = []
    for slot in range(4):
        marker = [0] * 4
        marker[slot] = 1
        out.append(Poly({
            e[:4] + (0,) * 4: c for e, c in v.terms.items()
            if list(e[4:]) == marker
        }))
    return out


def rank(rows: list) -> int:
    """Rank over the rationals of rows given as {key: Fraction}."""
    rows = [dict(r) for r in rows if r]
    r = 0
    while rows:
        piv = rows.pop()
        col, pv = next(iter(piv.items()))
        r += 1
        nxt = []
        for row in rows:
            a = row.get(col)
            if a:
                row = dict(row)
                for k, v in piv.items():
                    row[k] = row.get(k, 0) - a / pv * v
                row = {k: v for k, v in row.items() if v != 0}
            if row:
                nxt.append(row)
        rows = nxt
    return r


# ---------------------------------------------------------------------------
# expression texts as printed by the CLI

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<dd>d/d[xytu])|(?P<name>[A-Za-z_][A-Za-z_0-9]*'*)"
    r"|(?P<op>[-+*/^(),\[\]]))"
)


def _tokens(text: str) -> list:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read {text[pos:pos + 20]!r}")
        pos = m.end()
        kind = m.lastgroup
        out.append((kind if kind != "dd" else "name", m.group(kind)))
    out.append(("end", ""))
    return out


class _Reader:
    """Recursive descent over the CLI's expression grammar.  ``atoms`` maps
    names to values (Fraction or Poly); ``call(name, didx, args)`` gives the
    value of a function node such as ``xi[0,1,0,0](x, y, t, u)`` or
    ``f''(u)``."""

    def __init__(self, text, atoms, call):
        self.toks, self.i = _tokens(text), 0
        self.atoms, self.call = atoms, call

    def peek(self):
        return self.toks[self.i]

    def take(self, text=None):
        tok = self.toks[self.i]
        if text is not None and tok[1] != text:
            raise ValueError(f"expected {text!r}, got {tok[1]!r}")
        self.i += 1
        return tok

    def parse(self):
        v = self.sum()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing {self.peek()[1]!r}")
        return v

    def sum(self):
        v = self.product()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            w = self.product()
            v = v + w if op == "+" else v - w
        return v

    def product(self):
        v = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            w = self.unary()
            v = v * w if op == "*" else v / w
        return v

    def unary(self):
        if self.peek()[1] == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        v = self.primary()
        if self.peek()[1] != "^":
            return v
        self.take()
        if self.peek()[0] == "num":
            k = Fraction(self.take()[1])
        else:
            self.take("(")
            sign = -1 if self.peek()[1] == "-" else 1
            if sign < 0:
                self.take()
            k = Fraction(self.take()[1])
            if self.peek()[1] == "/":
                self.take()
                k /= int(self.take()[1])
            self.take(")")
            k *= sign
        if k.denominator != 1:
            raise ValueError(f"fractional power {k}")
        return v ** int(k) if k >= 0 else Fraction(1) / v ** int(-k)

    def primary(self):
        kind, text = self.take()
        if kind == "num":
            return Fraction(text)
        if text == "(":
            v = self.sum()
            self.take(")")
            return v
        if kind != "name":
            raise ValueError(f"unexpected {text!r}")
        if self.peek()[1] not in ("[", "("):
            if text not in self.atoms:
                raise ValueError(f"unbound name {text!r}")
            return self.atoms[text]
        name = text.rstrip("'")
        didx = None
        if len(name) < len(text):
            didx = (len(text) - len(name),)
        if self.peek()[1] == "[":
            self.take()
            didx = [int(self.take()[1])]
            while self.peek()[1] == ",":
                self.take()
                didx.append(int(self.take()[1]))
            self.take("]")
            didx = tuple(didx)
        self.take("(")
        args = [self.sum()]
        while self.peek()[1] == ",":
            self.take()
            args.append(self.sum())
        self.take(")")
        return self.call(name, didx or (0,) * len(args), args)


def evaluate(text: str, atoms: dict, call=None):
    def no_calls(name, didx, args):
        raise ValueError(f"unexpected function {name}")

    return _Reader(text, atoms, call or no_calls).parse()


def read_field(text: str, params: dict) -> Poly:
    """A basis field as printed by classify: ``(xi)*d/dx + ... ``."""
    atoms = {n: Poly.var(n) for n in VARS}
    atoms.update(params)
    return evaluate(text, atoms)


# ---------------------------------------------------------------------------
# derive


def _rand(rng) -> Fraction:
    return Fraction(rng.randint(1, 97), rng.randint(1, 89)) * rng.choice((-1, 1))


def _field_call(comps, fvals):
    """Function values for the derived equations under a concrete field:
    component derivatives exactly, f and its derivatives from ``fvals``."""
    def call(name, didx, args):
        if name == "f":
            return fvals[didx[0]]
        poly = comps[COMPONENTS.index(name)]
        for i, k in enumerate(didx):
            poly = poly.diff(i, k)
        return poly.at(args)
    return call


def _equations_at(entries, v: Poly, rng) -> list:
    point = [_rand(rng) for _ in range(4)]
    atoms = dict(zip(("x", "y", "t", "u"), point))
    fvals = [_rand(rng) for _ in range(6)]
    call = _field_call(components(v), fvals)
    return [evaluate(e["expression_text"], atoms, call) for e in entries]


SYMMETRIES_ANY_F = {
    "d/dx": field(xi=1),
    "d/dy": field(eta=1),
    "d/dt": field(tau=1),
    "rotation": field(xi=-Y, eta=X),
    "scaling": field(xi=X, eta=Y, tau=T),
}
# each not-implied condition, with a symmetry that violates it and the
# value of the condition's left side on that symmetry (right side zero)
COUNTEREXAMPLES = {
    "xi_no_y": ("rotation", lambda c: c[0].diff(1)),
    "eta_no_x": ("rotation", lambda c: c[1].diff(0)),
    "tau_t_matches_phi_u": ("scaling", lambda c: c[2].diff(2) - c[3].diff(3)),
}


def check_derive(report: dict, exit_code: int) -> list:
    problems = []
    if exit_code != 0:
        problems.append(f"derive exited {exit_code}")
    st = report["stages"]["derive"]
    entries = st["determining_system"]
    if st["n_equations"] != len(entries):
        problems.append("n_equations differs from the listed equations")
    conds = st["reference_conditions"]
    if len(conds) != N_REFERENCE_CONDITIONS:
        problems.append(f"{len(conds)} reference conditions, expected 15")
    not_implied = {n for n, v in conds.items() if not v["implied"]}
    if not_implied != NOT_IMPLIED:
        problems.append(f"not implied: {sorted(not_implied)}, expected {sorted(NOT_IMPLIED)}")
    if set(st["conditions_not_implied"]) != not_implied:
        problems.append("conditions_not_implied disagrees with the verdicts")

    rng = random.Random(1)
    for name, v in SYMMETRIES_ANY_F.items():
        for _ in range(2):
            bad = [e["origin_monomial"] for e, val in
                   zip(entries, _equations_at(entries, v, rng)) if val != 0]
            if bad:
                problems.append(f"symmetry {name} violates equations {bad}")
                break
    if all(val == 0 for val in _equations_at(entries, field(xi=X), rng)):
        problems.append("x*d/dx alone satisfies every equation")
    for cond, (sym, lhs) in COUNTEREXAMPLES.items():
        if lhs(components(SYMMETRIES_ANY_F[sym])) == Poly():
            problems.append(f"{sym} does not violate {cond}")

    uxy = [e for e in entries if e["origin_monomial"] == "u_xy"]
    if len(uxy) != 1:
        problems.append(f"{len(uxy)} u_xy equations, expected 1")
    else:
        ratios = set()
        for _ in range(3):
            table: dict = {}

            def call(name, didx, args, table=table):
                return table.setdefault((name, didx), _rand(rng))

            atoms = {n: _rand(rng) for n in ("x", "y", "t", "u")}
            val = evaluate(uxy[0]["expression_text"], atoms, call)
            ref = call("f", (0,), None) * (
                call("xi", (0, 1, 0, 0), None) + call("eta", (1, 0, 0, 0), None))
            ratios.add(val / ref)
        if len(ratios) != 1 or 0 in ratios:
            problems.append("u_xy equation is not a constant multiple of f*(xi_y + eta_x)")
    return problems


# ---------------------------------------------------------------------------
# classify

PARAM_POINTS = {
    "i": ({"c": Fraction(3, 7), "K": Fraction(5, 11)},
          {"c": Fraction(-8, 5), "K": Fraction(13, 4)}),
    "ii": ({"e1": Fraction(2, 5), "e2": Fraction(3, 4), "L": Fraction(7, 5)},
           {"e1": Fraction(-9, 7), "e2": Fraction(1, 6), "L": Fraction(2, 3)}),
}


def expected_dimension(case: str, degree: int) -> int:
    return 2 * degree + 4 if case == "i" else 6


def hand_fields(case: str, degree: int, p: dict) -> list:
    """The fields named in the module docstring, at parameter values p."""
    rotation = field(xi=-Y, eta=X)
    if case == "ii":
        return [field(xi=1), field(eta=1), field(tau=1), rotation,
                field(xi=X, eta=Y, tau=T),
                field(tau=T, phi=-2 * (p["e1"] * U + p["e2"]))]
    c = p["c"]
    powers = [(Poly.const(1), Poly())]  # (Re, Im) of z^k
    for _ in range(degree):
        a, b = powers[-1]
        powers.append((a * X - b * Y, a * Y + b * X))
    out = [field(tau=1), field(tau=T, phi=-2 * c)]
    for k in range(degree + 1):
        re_w, im_w = powers[k]
        re_d, im_d = powers[k - 1] if k else (Poly(), Poly())
        out.append(field(xi=re_w, eta=im_w, phi=2 * c * k * re_d))   # w = z^k
        out.append(field(xi=-im_w, eta=re_w, phi=-2 * c * k * im_d))  # w = i z^k
    return out


def check_classify(report: dict, exit_code: int, case: str, degree: int) -> list:
    problems = []
    st = report["stages"]["classify"]
    want = expected_dimension(case, degree)
    if st["dimension"] != want:
        problems.append(f"dimension {st['dimension']}, expected {want}")
    if len(st["basis"]) != st["dimension"]:
        problems.append("basis length differs from the dimension")
    for flag in ("residual_certificate", "reference_table_matches", "jacobi_all_zero"):
        if st[flag] is not True:
            problems.append(f"{flag} is not true")
    if not all(c["in_span"] for c in st["reference_basis_containment"]):
        problems.append("a reference field is outside the solved span")
    # the CLI compares with the reference's dimension 5, which is wrong here
    if st["dimension_matches_reference"] or exit_code != 1:
        problems.append(f"expected the dimension-5 check to fail (exit {exit_code})")
    for p in PARAM_POINTS[case]:
        basis = [read_field(b, p).terms for b in st["basis"]]
        r = rank(basis)
        if r != len(basis):
            problems.append(f"basis has rank {r} < {len(basis)}")
        hand = [f.terms for f in hand_fields(case, degree, p)]
        if rank(hand) != want:
            problems.append("hand-built fields are dependent")
        missing = [i for i, h in enumerate(hand) if rank(basis + [h]) != r]
        if missing:
            problems.append(f"hand-built fields {missing} outside the solved span")
    return problems


# ---------------------------------------------------------------------------
# reduce


def check_reduce(report: dict, exit_code: int, case: str, generator: str) -> list:
    problems = []
    if exit_code != 0:
        problems.append(f"reduce exited {exit_code}")
    st = report["stages"]["reduce"]
    if not all(st["invariance_check"].values()):
        problems.append("an invariant is not invariant")
    if st["elimination_verified"] is not True:
        problems.append("elimination not verified")
    if "separation_identity" in st and not (
            st["separation_identity"] and st["separation_negative_control_fails"]):
        problems.append("separation check failed")
    if (case, generator) == ("i", "v4"):
        if st["explicit_solution_residual_zero"] is not True:
            problems.append("explicit solution residual is not zero")
        rng = random.Random(2)
        for _ in range(4):
            m, p = _rand(rng), _rand(rng)
            on = {"m": m, "p": p, "K": -1 / (m * m + p * p),
                  "c": _rand(rng), "q": _rand(rng)}
            off = dict(on, K=on["K"] * 2)
            if evaluate(st["explicit_constraint"], on) != 0:
                problems.append("constraint fails where 1/K + m^2 + p^2 = 0")
                break
            if evaluate(st["explicit_constraint"], off) == 0:
                problems.append("constraint holds where 1/K + m^2 + p^2 != 0")
                break
    return problems


# ---------------------------------------------------------------------------
# verify


def check_verify(report: dict, exit_code: int, grid_n: tuple) -> list:
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    st = report["stages"]["verify"]
    residuals = dict(st["reductions"], explicit_solution=st["explicit_solution"])
    for name, r in residuals.items():
        if tuple(r["grid"]["n"]) != tuple(grid_n):
            problems.append(f"{name}: grid {r['grid']['n']}, expected {list(grid_n)}")
        if not r["max_residual"] <= TOL:
            problems.append(f"{name}: FD residual {r['max_residual']:.3g} > {TOL}")
    for name, r in st["reductions"].items():
        conv = r["convergence"]
        factor = conv[-2][1] / conv[-1][1] if len(conv) >= 2 and conv[-1][1] else None
        if factor is None or not CONV_BAND[0] <= factor <= CONV_BAND[1]:
            problems.append(f"{name}: convergence factor {factor} outside the second-order band")
        elif r["convergence_factor"] is None or not math.isclose(
                r["convergence_factor"], factor, rel_tol=1e-12):
            problems.append(f"{name}: reported factor disagrees with its rows")
    drift = {float(h): d for h, d in st["first_integral"]["drift"].items()}
    hs = sorted(drift, reverse=True)
    order = math.log2(drift[hs[0]] / drift[hs[1]]) if drift[hs[1]] > 0 else math.inf
    if not (len(hs) == 2 and hs[0] == 2 * hs[1]
            and RK4_ORDER_BAND[0] <= order <= RK4_ORDER_BAND[1]):
        problems.append(f"RK4 first-integral order {order} outside {RK4_ORDER_BAND}")
    base = st["explicit_solution"]["max_residual"]
    transports = st["flow_transport"]
    for k in range(1, 6):
        t = transports[f"v{k}"]
        if not t["transported_max"] <= TRANSPORT_FACTOR * base:
            problems.append(f"v{k}: transported residual grew by more than {TRANSPORT_FACTOR}x")
    if not transports["u_du_control"]["transported_max"] >= CONTROL_FACTOR * base:
        problems.append("u*d/du control transports without failing")
    if not st["violated_constraint_residual"] >= 1e-3:
        problems.append("violated planar constraint not detected")
    return problems
