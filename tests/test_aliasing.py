"""The coboundaries leave everything they read as it was.

delta_omega and delta_star_omega add their terms into fresh output lists in
place, and partial_deg1 and _linearized_report read the complex's tables.
None of them may write into the input cochain, the representation (rho,
theta and the passed D), the brackets of the algebra or the complex's
tables, and two successive calls give equal outputs.  Each is checked by
the `repr` of all of these before and after two calls, with numeric
(int and Fraction) and symbolic (linear-form) input, on the identity
family of A1 over S2 and on the same family with V in a seeded random
basis, whose tables are Fraction-valued.

The induced representation computes each block once per word s a (s a b)
of the semigroup and gives every other s a copy; over S2 and Z3 every
block and every row of one is its own list, so a write into one block
reaches neither its siblings nor a complex built afresh.
"""
import itertools
import random
from fractions import Fraction
from functools import cached_property

import pytest

from lyfam.cohomology import RBFComplex, _linearized_report, partial_deg1
from lyfam.omega import delta_omega, delta_star_omega, skew_basis
from lyfam.rbfamily import ImageTables, identity_family
from conftest import make_a1, random_invertible
from test_dense_images import change_basis_of_V
from test_law_reference import S2, Z3

TABLES = [k for k, v in vars(ImageTables).items()
          if isinstance(v, cached_property)]


def _context(name):
    ctx = identity_family(make_a1(), S2)
    if name == "A1-S2-V-moved":
        ctx = change_basis_of_V(ctx, random_invertible(random.Random(name),
                                                       ctx.dimV, 12))
    return ctx


def _cochain(cx, degree, kind, rng):
    bas = cx.skew_basis_at(degree)
    if kind == "symbolic":
        return bas.symbolic()
    return bas.combine([rng.choice((0, 1, -1, Fraction(1, 2), Fraction(-2, 3)))
                        for _ in range(bas.size)])


def _state(cx, c):
    """repr of the input and of everything a coboundary of the complex
    reads; every table of the complex is built first."""
    O, r, tt = cx.induced_algebra, cx.induced_rep, cx.tables
    return repr((c, r.rho, r.theta, cx.induced_D, O.binary, O.ternary,
                 tt.X, tt.derived, [getattr(tt, k) for k in TABLES]))


def _output(out):
    return repr(out.violations if hasattr(out, "violations") else out)


ROUTES = {
    "delta_omega/1": (1, lambda cx, c: delta_omega(
        cx.induced_algebra, cx.induced_rep, c, D=cx.induced_D)),
    "delta_omega/(2, 3)": ((2, 3), lambda cx, c: delta_omega(
        cx.induced_algebra, cx.induced_rep, c, D=cx.induced_D)),
    "delta_star_omega": ((2, 3), lambda cx, c: delta_star_omega(
        cx.induced_algebra, cx.induced_rep, c)),
    "partial_deg1": (1, partial_deg1),
    "_linearized_report": (1, _linearized_report),
}


@pytest.mark.parametrize("kind", ["numeric", "symbolic"])
@pytest.mark.parametrize("cname", ["A1-S2", "A1-S2-V-moved"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_coboundary_leaves_its_inputs_unchanged(route, cname, kind):
    degree, call = ROUTES[route]
    cx = RBFComplex(_context(cname))
    c = _cochain(cx, degree, kind, random.Random(route + cname))
    before = _state(cx, c)
    first, second = call(cx, c), call(cx, c)
    assert _state(cx, c) == before
    assert _output(first) == _output(second)


def _blocks(rep, t):
    """(key, block) of every rho[a][s][i] and theta[a][b][s][i][j] of rep,
    with t the table of its semigroup: the blocks of one word s a (s a b)
    at the same other indices share a key."""
    R, U = range(len(t)), range(rep.algebra.dim)
    return ([(("rho", a, t[si][a], i), rep.rho[a][si][i])
             for a, si, i in itertools.product(R, R, U)] +
            [(("theta", a, b, t[t[si][a]][b], i, j), rep.theta[a][b][si][i][j])
             for a, b, si, i, j in itertools.product(R, R, R, U, U)])


@pytest.mark.parametrize("sname", ["S2", "Z3"])
def test_induced_blocks_are_distinct_lists(sname):
    s = {"S2": S2, "Z3": Z3}[sname]
    ctx = identity_family(make_a1(), s)
    cx = RBFComplex(ctx)
    fresh = repr(cx.induced_rep)
    blocks = _blocks(cx.induced_rep, s.table)
    rows = [row for _, m in blocks for row in m]
    assert len({id(m) for _, m in blocks}) == len(blocks)
    assert len({id(row) for row in rows}) == len(rows)
    siblings = {}
    for key, m in blocks:
        siblings.setdefault(key, []).append(m)
    pairs = [group[:2] for group in siblings.values() if len(group) > 1]
    assert bool(pairs) == (sname == "S2")  # Z3 is a group: no word repeats
    for first, second in pairs + [(blocks[0][1], blocks[-1][1])]:
        before = repr(second)
        first[0][0] = "written"
        assert repr(second) == before
    assert repr(RBFComplex(ctx).induced_rep) == fresh
