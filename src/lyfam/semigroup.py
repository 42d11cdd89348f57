"""Finite commutative semigroups given by multiplication tables.

Elements are dense indices 0..order-1; the optional unit is an index.
These semigroups index every family of operators in the package.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInputError, PreconditionError, UnitRequiredError
from .report import Report


@dataclass(frozen=True)
class FiniteCommutativeSemigroup:
    order: int
    table: tuple  # tuple of tuples, table[i][j] = index of i*j
    unit: int | None = None
    names: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        if self.order < 1:
            raise MalformedInputError("semigroup order must be >= 1")
        if len(self.table) != self.order or any(len(r) != self.order for r in self.table):
            raise MalformedInputError("table shape does not match order")
        # entries are element indices: ints (not bools or floats) in range
        m = self.order
        for i, row in enumerate(self.table):
            for j, v in enumerate(row):
                if type(v) is not int:
                    raise MalformedInputError(
                        "table[%d][%d] = %r is not an integer" % (i, j, v))
                if not 0 <= v < m:
                    raise MalformedInputError(
                        "table[%d][%d] = %r out of range 0..%d" % (i, j, v, m - 1))
        if self.unit is not None:
            if type(self.unit) is not int:
                raise MalformedInputError("unit %r is not an integer" % (self.unit,))
            if not 0 <= self.unit < m:
                raise MalformedInputError("unit index %r out of range" % (self.unit,))

    @property
    def elements(self):
        return range(self.order)

    def require_unit(self) -> int:
        if self.unit is None:
            raise UnitRequiredError("this operation needs a semigroup with a declared unit")
        return self.unit


def validate_semigroup(s: FiniteCommutativeSemigroup) -> Report:
    """Check commutativity, associativity and (when declared) the unit law."""
    t, m = s.table, range(s.order)
    rep = Report().sweep([m, m], [("SG-comm", lambda i, j: (
        (t[i][j] - t[j][i],) if i < j else ()))])
    rep.sweep([m, m, m], [("SG-assoc", lambda i, j, k: (
        t[t[i][j]][k] - t[i][t[j][k]],))])
    if s.unit is not None:
        rep.sweep([(s.unit,), m], [("SG-unit", lambda u, i: (t[u][i] - i,))])
    return rep


def product(s: FiniteCommutativeSemigroup, i: int, j: int) -> int:
    if not (0 <= i < s.order and 0 <= j < s.order):
        raise MalformedInputError("element index out of range: (%r, %r)" % (i, j))
    return s.table[i][j]


def product_of(s: FiniteCommutativeSemigroup, indices) -> int:
    """The product of the elements in order, each checked as by product."""
    indices = list(indices)
    if not indices:
        raise PreconditionError("product_of requires a nonempty list")
    t, m, w = s.table, s.order, indices[0]
    if not 0 <= w < m:
        raise MalformedInputError(
            "element index out of range: %r" % (tuple(indices[:2]),))
    for j in indices[1:]:  # w is a table entry from here on, so in range
        if not 0 <= j < m:
            raise MalformedInputError("element index out of range: (%r, %r)" % (w, j))
        w = t[w][j]
    return w


def trivial_semigroup() -> FiniteCommutativeSemigroup:
    return FiniteCommutativeSemigroup(order=1, table=((0,),), unit=0)
