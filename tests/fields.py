"""Vector-field helpers the tests use as independent references: the
bracket of two fields, linear combinations and the zero test.  The engine
brackets component polynomials inside its commutator tables and Jacobi
checks; these build whole fields from that routine."""

from wavesym.expr import RAT0, add, expand, mul
from wavesym.liealg import VectorField, _bracket, _polys, _ring


def bracket(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket [v, w]: component k is v(w^k) - w(v^k)."""
    ring = _ring()
    return VectorField(*map(ring.expr, _bracket(ring, _polys(ring, v), _polys(ring, w))))


def scaled(v: VectorField, k) -> VectorField:
    return VectorField(*[mul(k, c) for c in v.components])


def plus(v: VectorField, w: VectorField) -> VectorField:
    return VectorField(*[add(a, b) for a, b in zip(v.components, w.components)])


def is_zero(v: VectorField) -> bool:
    return all(expand(c) == RAT0 for c in v.components)
