"""The extraction builds the determining system in its ring: a guard on
the ``Expr`` routines it calls.

Each routine below is wrapped wherever a module namespace of ``detsys``,
``jet``, ``linalg`` or ``expr`` binds it (``expr``'s own binding counts the
recursion of ``expand``), and one extraction runs per family.  Collecting,
splitting over u, clearing denominators and substituting happen in the
ring, so those are never called; ``expand`` converts only f, f', the
generator's components and each variable's derivative.  ``EXPR_ROUTE``
holds the ``expand`` calls of the route that expanded, collected and split
every coefficient as an ``Expr``, counted by the same wrapping.

The derive closure is guarded the same way: its form derivatives read the
derivation's shift table, so each argument's derivative is looked up once
per direction and each (node, direction) is shifted once."""

import pytest

from wavesym import detsys, expr, jet, linalg
from wavesym.detsys import (
    ExponentialCase, Generic, PowerCase, extract_determining,
    opaque_affine_vectorfield, opaque_vectorfield, reference_implication_report,
)
from wavesym.expr import rat

NEVER = ("collect_atoms", "split_u_dependence", "clear_denominators", "substitute")
FAMILIES = {
    "exponential": ExponentialCase(),
    "power": PowerCase(),
    "e1=2, e2=1": PowerCase(e1=rat(2), e2=rat(1)),
    "e1=-1/4": PowerCase(e1=rat(-1, 4)),
    "generic": Generic(),
}
EXPR_ROUTE = {"exponential": 1457, "power": 1701, "e1=2, e2=1": 1743, "e1=-1/4": 1869,
              "generic": 1250}
# At e1 = 1/20 the power family folds to a degree-20 polynomial in u.  The
# extraction makes 896 ``mul`` calls; an ``expand`` that multiplied out
# th^20 and th^19 without collecting between factors made 2^21 + 2^20 - 4
# for those two powers alone, and ran past a minute.
MUL_BOUND_E1_1_20 = 1800


def count_calls(monkeypatch, names, limit=None, namespaces=(detsys, jet, linalg, expr)):
    """Wrap each named routine in every namespace (a module, or a class
    for its methods) that binds it; returns the live dict of call counts.
    A call past ``limit`` fails at once, so a blow-up fails the test
    instead of running it for minutes."""
    calls = dict.fromkeys(names, 0)
    for module in namespaces:
        for fname in calls:
            real = getattr(module, fname, None)
            if real is None:
                continue

            def counted(*args, _real=real, _name=fname, **kwargs):
                calls[_name] += 1
                assert limit is None or calls[_name] <= limit, f"over {limit} {_name} calls"
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, fname, counted)
    return calls


@pytest.mark.parametrize("name", list(FAMILIES))
def test_extraction_calls_no_expr_collection(monkeypatch, name):
    calls = count_calls(monkeypatch, NEVER + ("expand",))
    fam = FAMILIES[name]
    v = opaque_vectorfield() if isinstance(fam, Generic) else opaque_affine_vectorfield()
    ds = extract_determining(v, fam)
    monkeypatch.undo()
    assert len(ds) > 0
    assert {n: calls[n] for n in NEVER} == dict.fromkeys(NEVER, 0)
    assert calls["expand"] * 10 <= EXPR_ROUTE[name], calls["expand"]


def test_high_reciprocal_exponent_stays_polynomial(monkeypatch):
    count_calls(monkeypatch, ("mul",), limit=MUL_BOUND_E1_1_20)
    ds = extract_determining(opaque_affine_vectorfield(), PowerCase(e1=rat(1, 20)))
    monkeypatch.undo()
    assert len(ds) > 0


def test_closure_shifts_each_node_once(monkeypatch):
    # the per-entry route looked up every argument of every entry: 4,752
    # ``variable`` calls for 16 (argument, direction) pairs
    ds = extract_determining(opaque_vectorfield(), Generic())
    derivations, asked = [], set()
    partial, derivative = detsys._partial_derivation, detsys.form_derivative

    def kept(ring):
        derivations.append(partial(ring))
        return derivations[-1]

    def recorded(form, derivation, direction):
        asked.update((node, direction) for node in form)
        return derivative(form, derivation, direction)

    monkeypatch.setattr(detsys, "_partial_derivation", kept)
    monkeypatch.setattr(detsys, "form_derivative", recorded)
    calls = count_calls(monkeypatch, ("variable",), namespaces=(linalg.Derivation,))
    _, check = reference_implication_report(ds)
    monkeypatch.undo()
    (derivation,) = derivations
    pairs = {(arg, direction) for node, direction in asked for arg in node.args}
    assert check["rows"] == 412 and len(pairs) == 16
    assert calls["variable"] <= len(pairs)
    assert set(derivation._shifts) == asked
