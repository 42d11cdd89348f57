"""Family sweeps at dense images, against a per-tuple reference.

The sweeps contract the structure tensors at each pair of images once.  The
reference below evaluates every tuple anew with the kernel, as the
formulas read.  On identity or permutation families every image is a basis
vector, so a sweep that swapped two tables could still pass there; here the
families are perturbed or moved by a change of basis of V, so that their
images are dense.
"""
import itertools
import random

import pytest

from lyfam import linalg as la
from lyfam.cohomology import (DeformationDirection, RBFComplex,
                              _linearized_report, induced_omega_ly_on_V,
                              induced_rep_on_L, partial_deg1)
from lyfam.errors import PreconditionError
from lyfam.linalg import contract, mat_vec, vec_add, vec_sub
from lyfam.ly import Cocycle23, Representation, derived_D
from lyfam.omega import cochain_full_coords
from lyfam.rbfamily import (TwistedRBContext, check_twisted_rb_family,
                            identity_family)
from lyfam.report import Report
from lyfam.semigroup import product, product_of
from conftest import _inverse, random_invertible


class Reference:
    """Per-tuple evaluation of the family formulas of a context."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.A, self.r, self.c = ctx.algebra, ctx.rep, ctx.cocycle
        self.Dt = derived_D(ctx.algebra, ctx.rep)
        self.U = la.identity(ctx.dimV)

    def br(self, x, y):
        return contract(self.A.binary, x, y)

    def tri(self, x, y, z):
        return contract(self.A.ternary, x, y, z)

    def rho(self, x, v):
        return mat_vec(contract(self.r.rho, x), v)

    def theta(self, x, y, v):
        return mat_vec(contract(self.r.theta, x, y), v)

    def D(self, x, y, v):
        return mat_vec(contract(self.Dt, x, y), v)

    def g1(self, x, y):
        return contract(self.c.gamma1, x, y)

    def g2(self, x, y, z):
        return contract(self.c.gamma2, x, y, z)

    def binary(self, x, y, u, v):
        """rho(x)v - rho(y)u + Gamma1(x, y)"""
        return vec_add(vec_sub(self.rho(x, v), self.rho(y, u)),
                       self.g1(x, y))

    def ternary(self, x, y, z, u, v, w):
        """D(x, y)w + theta(y, z)u - theta(x, z)v + Gamma2(x, y, z)"""
        out = vec_add(self.D(x, y, w), self.theta(y, z, u))
        return vec_add(vec_sub(out, self.theta(x, z, v)), self.g2(x, y, z))

    def pairs(self, maps):
        """(a, b, i, j, w, x, y, u, v, x1, y1) over pairs of images."""
        s, M, nv, U = self.ctx.semigroup, self.ctx.semigroup.order, \
            self.ctx.dimV, self.U
        for a, b in itertools.product(range(M), repeat=2):
            for i, j in itertools.product(range(nv), repeat=2):
                x, y = self.T(a, U[i]), self.T(b, U[j])
                x1, y1 = mat_vec(maps[a], U[i]), mat_vec(maps[b], U[j])
                yield (a, b, i, j, product(s, a, b), x, y, U[i], U[j],
                       x1, y1)

    def triples(self, maps):
        s, M, nv, U = self.ctx.semigroup, self.ctx.semigroup.order, \
            self.ctx.dimV, self.U
        for a, b, g in itertools.product(range(M), repeat=3):
            for i, j, k in itertools.product(range(nv), repeat=3):
                x, y, z = self.T(a, U[i]), self.T(b, U[j]), self.T(g, U[k])
                x1, y1, z1 = (mat_vec(maps[a], U[i]), mat_vec(maps[b], U[j]),
                              mat_vec(maps[g], U[k]))
                yield (a, b, g, i, j, k, product_of(s, (a, b, g)),
                       x, y, z, U[i], U[j], U[k], x1, y1, z1)

    def T(self, a, u):
        return mat_vec(self.ctx.family[a], u)


def reference_check(ctx):
    ref, rep, fam = Reference(ctx), Report(), ctx.family
    for a, b, i, j, w, x, y, u, v, _, _ in ref.pairs(fam):
        rep.record("RBF-3.1", (a, b, i, j), vec_sub(
            ref.br(x, y), mat_vec(fam[w], ref.binary(x, y, u, v))))
    for a, b, g, i, j, k, w, x, y, z, u, v, t, _, _, _ in ref.triples(fam):
        rep.record("RBF-3.2", (a, b, g, i, j, k), vec_sub(
            ref.tri(x, y, z), mat_vec(fam[w], ref.ternary(x, y, z, u, v, t))))
    return rep


def reference_linearized(ctx, f):
    ref, rep, fam = Reference(ctx), Report(), ctx.family
    for a, b, i, j, w, x, y, u, v, x1, y1 in ref.pairs(f):
        lhs = vec_add(ref.br(x1, y), ref.br(x, y1))
        inner = vec_sub(ref.rho(x1, v), ref.rho(y1, u))
        inner = vec_add(inner, vec_add(ref.g1(x1, y), ref.g1(x, y1)))
        rhs = vec_add(mat_vec(f[w], ref.binary(x, y, u, v)),
                      mat_vec(fam[w], inner))
        rep.record("DEF-6.2", (a, b, i, j), tuple(vec_sub(lhs, rhs)))
    for (a, b, g, i, j, k, w, x, y, z, u, v, t,
         x1, y1, z1) in ref.triples(f):
        lhs = vec_add(vec_add(ref.tri(x1, y, z), ref.tri(x, y1, z)),
                      ref.tri(x, y, z1))
        terms = [ref.D(x1, y, t), ref.D(x, y1, t),
                 la.vec_neg(ref.theta(x1, z, v)),
                 la.vec_neg(ref.theta(x, z1, v)),
                 ref.theta(y1, z, u), ref.theta(y, z1, u),
                 ref.g2(x1, y, z), ref.g2(x, y1, z), ref.g2(x, y, z1)]
        inner = terms[0]
        for term in terms[1:]:
            inner = vec_add(inner, term)
        rhs = vec_add(mat_vec(f[w], ref.ternary(x, y, z, u, v, t)),
                      mat_vec(fam[w], inner))
        rep.record("DEF-6.3", (a, b, g, i, j, k), tuple(vec_sub(lhs, rhs)))
    return rep


def reference_partial_deg1(ctx, f):
    ref, fam, out = Reference(ctx), ctx.family, []
    for _, _, _, _, w, x, y, u, v, f1, f2 in ref.pairs(f):
        t = vec_sub(ref.br(x, f2), ref.br(y, f1))
        inner = vec_add(ref.rho(f2, u), ref.g1(f2, x))
        inner = vec_sub(inner, vec_add(ref.rho(f1, v), ref.g1(f1, y)))
        t = vec_add(t, mat_vec(fam[w], inner))
        out.extend(vec_sub(t, mat_vec(f[w], ref.binary(x, y, u, v))))
    for (_, _, _, _, _, _, w, x, y, z, u, v, t_,
         f1, f2, f3) in ref.triples(f):
        t = vec_add(ref.tri(x, y, f3), ref.tri(f1, y, z))
        t = vec_sub(t, ref.tri(f2, x, z))
        i1 = vec_sub(ref.theta(y, f3, u), ref.theta(x, f3, v))
        i1 = vec_add(i1, ref.g2(x, y, f3))
        i2 = vec_sub(ref.D(f1, y, t_), ref.theta(f1, z, v))
        i2 = vec_add(i2, ref.g2(f1, y, z))
        i3 = vec_sub(ref.D(f2, x, t_), ref.theta(f2, z, u))
        i3 = vec_add(i3, ref.g2(f2, x, z))
        t = vec_sub(t, mat_vec(fam[w], vec_sub(vec_add(i1, i2), i3)))
        out.extend(vec_sub(t, mat_vec(f[w], ref.ternary(x, y, z, u, v, t_))))
    return out


def change_basis_of_V(ctx, p):
    """The same family with V written in the basis of the columns of p."""
    pinv = _inverse(p)
    conj = lambda m: la.mat_mul(pinv, la.mat_mul(m, p))  # noqa: E731
    r, c = ctx.rep, ctx.cocycle
    rep = Representation(ctx.dimV, [conj(m) for m in r.rho],
                         [[conj(m) for m in row] for row in r.theta])
    coc = Cocycle23(
        [[mat_vec(pinv, v) for v in row] for row in c.gamma1],
        [[[mat_vec(pinv, v) for v in row] for row in pl] for pl in c.gamma2])
    return TwistedRBContext(ctx.algebra, rep, coc, ctx.semigroup,
                            [la.mat_mul(T, p) for T in ctx.family])


def perturbed(ctx, rng):
    fam = [[[x + rng.choice((-1, 0, 1)) for x in row] for row in T]
           for T in ctx.family]
    return TwistedRBContext(ctx.algebra, ctx.rep, ctx.cocycle,
                            ctx.semigroup, fam)


def direction(ctx, rng):
    return DeformationDirection(
        [[[rng.choice((-1, 0, 1)) for _ in range(ctx.dimV)]
          for _ in range(ctx.dimL)] for _ in range(ctx.semigroup.order)])


def dense(ctx):
    return any(sum(1 for row in T if row[i]) > 1
               for T in ctx.family for i in range(ctx.dimV))


@pytest.fixture
def valid_moved(a1, a2, s1, s2):
    rng = random.Random(20261018)
    out = []
    for A, s in ((a1, s2), (a2, s1)):
        ctx = identity_family(A, s)
        moved = change_basis_of_V(ctx, random_invertible(rng, ctx.dimV, 12))
        assert dense(moved) and check_twisted_rb_family(moved).ok
        out.append(moved)
    return out


def test_sweeps_match_reference_on_perturbed_families(valid_moved, rng):
    for base in valid_moved:
        for _ in range(2):
            ctx = perturbed(base, rng)
            assert dense(ctx)
            got = check_twisted_rb_family(ctx)
            assert not got.ok
            assert got.violations == reference_check(ctx).violations
            cx = RBFComplex(ctx, check=False)
            for _ in range(2):
                f = direction(ctx, rng).as_cochain(ctx)
                assert (_linearized_report(cx, f).violations
                        == reference_linearized(ctx, f.even).violations)


def test_partial_deg1_matches_reference_after_change_of_basis(valid_moved,
                                                              rng):
    for ctx in valid_moved:
        cx = RBFComplex(ctx)
        for _ in range(3):
            f = direction(ctx, rng).as_cochain(ctx)
            assert (cochain_full_coords(partial_deg1(cx, f))
                    == reference_partial_deg1(ctx, f.even))


def test_complex_matches_the_standalone_constructions(valid_moved, rng):
    # a complex builds its tables once and shares them between the family
    # check and both induced structures; the standalone functions build
    # theirs afresh, and both must give the same objects and refusals
    contexts = valid_moved + [perturbed(ctx, rng) for ctx in valid_moved
                              for _ in range(2)]
    checks = [check_twisted_rb_family(ctx) for ctx in contexts]
    assert [chk.ok for chk in checks] == [True] * 2 + [False] * 4
    for ctx, chk in zip(contexts, checks):
        if chk.ok:
            cx = RBFComplex(ctx)
        else:
            with pytest.raises(PreconditionError) as refusal:
                RBFComplex(ctx)
            assert str(refusal.value) == (
                "input is not a twisted Rota-Baxter family: %s"
                % sorted(chk.laws()))
            cx = RBFComplex(ctx, check=False)
        assert (repr(cx.induced_algebra)
                == repr(induced_omega_ly_on_V(ctx, check=False)))
        assert repr(cx.induced_rep) == repr(induced_rep_on_L(ctx,
                                                             check=False))


def test_symbolic_partial_deg1_matches_reference(a2, s2):
    # every coordinate of the assembled degree-1 coboundary, mirrored and
    # repeated-label tuples included, against the per-tuple reference on
    # the symbolic input
    base = identity_family(a2, s2)
    ctx = change_basis_of_V(base, random_invertible(random.Random(7),
                                                    base.dimV, 12))
    assert dense(ctx) and check_twisted_rb_family(ctx).ok
    cx = RBFComplex(ctx)
    symbolic = cx.skew_basis_at(1).symbolic()
    assert (cochain_full_coords(cx.d1_symbolic())
            == reference_partial_deg1(ctx, symbolic.even))
