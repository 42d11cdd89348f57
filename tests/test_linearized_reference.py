"""The first-order deformation equations, against the full-tuple sweep.

`_linearized_report` evaluates DEF-6.2 and DEF-6.3 only at the tuples whose
first two joint labels i*M + a increase strictly, records the negative at
the tuple with those two slots swapped, and nothing where the two labels are
equal.  The reference below is the sweep it replaced: it evaluates the same
formulas at every one of the M^2 n^2 + M^3 n^3 tuples.  The two reports are
compared by the `repr` of their violations and by their JSON, on identity
families, the same families with V moved by a change of basis, and families
with +-1 added to their entries, which fail the family laws except over the
zero context, with int and Fraction directions, cocycles and non-cocycles.
"""
import copy
import itertools
import json
import random
from fractions import Fraction

import pytest

from lyfam import cohomology
from lyfam import linalg as la
from lyfam.cohomology import (DeformationDirection, DegreeZeroElement,
                              RBFComplex, _first_order_tables,
                              _linearized_report, infinitesimal_report,
                              partial_deg0, partial_deg1)
from lyfam.errors import PreconditionError
from lyfam.linalg import contract, mat_vec, vec_add, vec_sub
from lyfam.omega import cochain_build
from lyfam.rbfamily import identity_family
from lyfam.report import Report
from lyfam.semigroup import product, product_of
from conftest import make_a1, make_a2, random_invertible
from test_coboundary_reference import zero_context
from test_dense_images import change_basis_of_V, perturbed


def reference_linearized_report(cx, f, tables=None):
    """First-order deformation equations, evaluated at every tuple."""
    ctx = cx.context
    s, nv, M = ctx.semigroup, ctx.dimV, ctx.semigroup.order
    T, F, tt, tf, ft = tables or _first_order_tables(cx, f)
    rep = Report()
    # x, y, z = T_a1 u_i, T_a2 u_j, T_a3 u_k at p, q, t; x1, y1, z1 likewise
    for a1, a2 in itertools.product(range(M), repeat=2):
        w = product(s, a1, a2)
        Tw, fw = ctx.family[w], f.even[w]
        for i, j in itertools.product(range(nv), repeat=2):
            p, q = a1 * nv + i, a2 * nv + j
            lhs = vec_add(ft.bracket[p][q], tf.bracket[p][q])
            inner = vec_sub(tt.rho[p][j], tt.rho[q][i])
            inner = vec_add(inner, tt.gamma1[p][q])
            rhs = mat_vec(fw, inner)
            inner = vec_sub(ft.rho[p][j], ft.rho[q][i])
            inner = vec_add(inner, ft.gamma1[p][q])
            inner = vec_add(inner, tf.gamma1[p][q])
            rhs = vec_add(rhs, mat_vec(Tw, inner))
            rep.record("DEF-6.2", (a1, a2, i, j), tuple(vec_sub(lhs, rhs)))
    for a1, a2, a3 in itertools.product(range(M), repeat=3):
        w = product_of(s, (a1, a2, a3))
        Tw, fw = ctx.family[w], f.even[w]
        for i, j, k in itertools.product(range(nv), repeat=3):
            p, q, t = a1 * nv + i, a2 * nv + j, a3 * nv + k
            z, z1 = T[t], F[t]
            lhs = contract(ft.ternary[p][q], z)
            lhs = vec_add(lhs, contract(tf.ternary[p][q], z))
            lhs = vec_add(lhs, contract(tt.ternary[p][q], z1))
            inner = vec_sub(tt.D[p][q][k], tt.theta[p][t][j])
            inner = vec_add(inner, tt.theta[q][t][i])
            inner = vec_add(inner, contract(tt.gamma2[p][q], z))
            rhs = mat_vec(fw, inner)
            inner = vec_add(ft.D[p][q][k], tf.D[p][q][k])
            inner = vec_sub(inner, ft.theta[p][t][j])
            inner = vec_sub(inner, tf.theta[p][t][j])
            inner = vec_add(inner, ft.theta[q][t][i])
            inner = vec_add(inner, tf.theta[q][t][i])
            inner = vec_add(inner, contract(ft.gamma2[p][q], z))
            inner = vec_add(inner, contract(tf.gamma2[p][q], z))
            inner = vec_add(inner, contract(tt.gamma2[p][q], z1))
            rhs = vec_add(rhs, mat_vec(Tw, inner))
            rep.record("DEF-6.3", (a1, a2, a3, i, j, k),
                       tuple(vec_sub(lhs, rhs)))
    return rep


# ---------------------------------------------------------------------------
# inputs

def contexts(s1, s2):
    """(name, context, whether its complex checks the family laws): the
    perturbed families are built without the check."""
    rng = random.Random(20261019)
    out = []
    for name, make in (("zero", zero_context),
                       ("A1", lambda s: identity_family(make_a1(), s)),
                       ("A2", lambda s: identity_family(make_a2(), s))):
        for sname, s in (("S1", s1), ("S2", s2)):
            ctx = make(s)
            moved = change_basis_of_V(ctx, random_invertible(rng, ctx.dimV,
                                                             12))
            out += [("%sx%s" % (name, sname), ctx, True),
                    ("%sx%s moved" % (name, sname), moved, True),
                    ("%sx%s perturbed" % (name, sname),
                     perturbed(ctx, rng), False),
                    ("%sx%s moved, perturbed" % (name, sname),
                     perturbed(moved, rng), False)]
    return out


def directions(cx, rng):
    """Zero, random int and Fraction directions, and two degree-0
    coboundaries, one of them scaled by 1/2."""
    ctx = cx.context
    nl, nv, M = ctx.dimL, ctx.dimV, ctx.semigroup.order

    def fam(entry):
        return [[[entry() for _ in range(nv)] for _ in range(nl)]
                for _ in range(M)]

    e = DegreeZeroElement([([rng.randint(-2, 2) for _ in range(nl)],
                            [rng.randint(-2, 2) for _ in range(nl)])])
    bd = partial_deg0(cx, e).even
    return [fam(lambda: 0), fam(lambda: rng.choice((-1, 0, 1))),
            fam(lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))),
            bd, [[[Fraction(x, 2) for x in row] for row in m] for m in bd]]


@pytest.fixture(scope="module")
def cases(s1, s2):
    """(name, complex, whether valid, degree-1 cochains)."""
    rng = random.Random(7)
    out = []
    for name, ctx, valid in contexts(s1, s2):
        cx = RBFComplex(ctx, check=valid)
        out.append((name, cx, valid,
                    [DeformationDirection(d).as_cochain(ctx)
                     for d in directions(cx, rng)]))
    return out


# ---------------------------------------------------------------------------
# tests

def test_linearized_report_matches_full_tuple_reference(cases):
    verdicts = set()
    for name, cx, valid, fs in cases:
        for n, f in enumerate(fs):
            got = _linearized_report(cx, f)
            want = reference_linearized_report(cx, f)
            assert repr(got.violations) == repr(want.violations), (name, n)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
            if valid:
                # the report of the two-route check is the same one
                inf = infinitesimal_report(cx, f)
                assert repr(inf.violations) == repr(want.violations)
            verdicts.add((valid, want.ok))
    # cocycles and non-cocycles, on valid and on perturbed families
    assert verdicts == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_only_canonical_tuples_are_evaluated(cases, monkeypatch):
    # one evaluation per canonical tuple: on A2 x S2 (J = 6 joint labels)
    # that is 15 pairs and 15 * 6 triples, where the full sweep has 252
    evaluated = []

    def build(s, dim_alg, dim_coeff, degree, even, odd):
        def probe(value):
            def run(al, xs):
                evaluated.append((len(al), list(al), list(xs)))
                return value(al, xs)
            return run
        return cochain_build(s, dim_alg, dim_coeff, degree, probe(even),
                             probe(odd))

    # each residual formula multiplies its elements once, with product for
    # a pair and product_of for a triple, so these count the formulas run
    # by any route
    products = []

    def counted(name, fn):
        return lambda *args: products.append(name) or fn(*args)

    (_, cx, _, fs), = [c for c in cases if c[0] == "A2xS2 moved, perturbed"]
    M = cx.context.semigroup.order
    want = reference_linearized_report(cx, fs[1])
    monkeypatch.setattr(cohomology, "cochain_build", build)
    monkeypatch.setattr(cohomology, "product", counted(2, product))
    monkeypatch.setattr(cohomology, "product_of", counted(3, product_of))
    got = _linearized_report(cx, fs[1])
    assert repr(got.violations) == repr(want.violations)
    assert len(evaluated) == 105
    for k, al, xs in evaluated:
        assert xs[0] * M + al[0] < xs[1] * M + al[1]
    assert sorted(k for k, _, _ in evaluated) == [2] * 15 + [3] * 90
    assert sorted(products) == [2] * 15 + [3] * 90

    # the two-route check on a valid family: one family-level evaluation of
    # the canonical tuples and one generic coboundary
    (_, cx, _, fs), = [c for c in cases if c[0] == "A2xS2 moved"]
    want = reference_linearized_report(cx, fs[1])
    generic, delta = [], cohomology.delta_omega
    monkeypatch.setattr(cohomology, "delta_omega",
                        lambda *a, **k: generic.append(a) or delta(*a, **k))
    evaluated.clear()
    products.clear()
    got = infinitesimal_report(cx, fs[1])
    assert repr(got.violations) == repr(want.violations)
    assert sorted(k for k, _, _ in evaluated) == [2] * 15 + [3] * 90
    assert sorted(products) == [2] * 15 + [3] * 90
    assert len(generic) == 1


def test_non_skew_context_is_refused_with_the_partial_deg1_message(a1, s2):
    ctx = copy.deepcopy(identity_family(a1, s2))
    ctx.algebra.binary[0][0][0] += 1
    cx = RBFComplex(ctx, check=False)
    f = DeformationDirection([la.zeros(ctx.dimL, ctx.dimV)] * s2.order)
    with pytest.raises(PreconditionError) as want:
        partial_deg1(cx, f)
    assert "invariant:skew-binary" in str(want.value)
    for route in (lambda: infinitesimal_report(cx, f),
                  lambda: _linearized_report(cx, f.as_cochain(ctx))):
        with pytest.raises(PreconditionError) as got:
            route()
        assert str(got.value) == str(want.value)
