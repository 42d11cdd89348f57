"""NS-Lie-Yamaguti algebras and their semigroup-indexed family version.

An NS family algebra carries four semigroup-indexed operations
(bullet, vee, curly, square) whose derived brackets reproduce a
(semigroup-indexed) Lie-Yamaguti structure.  The single-algebra case is the
trivial-semigroup specialization of the family axioms.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from . import linalg
from .errors import MalformedInputError, PreconditionError
from .ly import joint_table
from .omega import _screened
from .rbfamily import (bar_operator, family_check, family_tables,
                       induced_products, nijenhuis_induced_context)
from .report import Report
from .semigroup import FiniteCommutativeSemigroup, product, trivial_semigroup


@dataclass
class NSFamilyAlgebra:
    dim: int
    semigroup: FiniteCommutativeSemigroup
    bullet: list        # bl[alpha][i][j] -> Vector
    vee: list           # v[alpha][beta][i][j] -> Vector
    ternary_curly: list  # c[beta][gamma][i][j][k] -> Vector
    ternary_square: list  # q[alpha][beta][gamma][i][j][k] -> Vector

    def __post_init__(self):
        M, n = self.semigroup.order, self.dim
        for name, k, r in (("bullet", 1, 2), ("vee", 2, 2), ("ternary_curly", 2, 3),
                           ("ternary_square", 3, 3)):
            if not linalg.has_shape(getattr(self, name), (M,) * k + (n,) * (r + 1)):
                raise MalformedInputError("bad shape for the %s tensor" % name)

    def bl(self, a, x, y):
        return linalg.contract(self.bullet[a], x, y)

    def vv(self, a, b, x, y):
        return linalg.contract(self.vee[a][b], x, y)

    def cu(self, b, g, x, y, z):
        return linalg.contract(self.ternary_curly[b][g], x, y, z)

    def sq(self, a, b, g, x, y, z):
        return linalg.contract(self.ternary_square[a][b][g], x, y, z)

    # derived operations
    def star2(self, a, b, x, y):
        out = self.bl(a, x, y)
        out = linalg.vec_sub(out, self.bl(b, y, x))
        return linalg.vec_add(out, self.vv(a, b, x, y))

    def star3(self, a, b, x, y, z):
        s = self.semigroup
        out = self.cu(b, a, z, y, x)
        out = linalg.vec_sub(out, self.cu(a, b, z, x, y))
        out = linalg.vec_add(out, self.bl(a, x, self.bl(b, y, z)))
        out = linalg.vec_sub(out, self.bl(b, y, self.bl(a, x, z)))
        out = linalg.vec_sub(
            out, self.bl(product(s, a, b), self.star2(a, b, x, y), z))
        return out

    def dbl(self, a, b, g, x, y, z):
        out = self.star3(a, b, x, y, z)
        out = linalg.vec_add(out, self.cu(b, g, x, y, z))
        out = linalg.vec_sub(out, self.cu(a, g, y, x, z))
        return linalg.vec_add(out, self.sq(a, b, g, x, y, z))

    def basis(self, i):
        e = linalg.zero_vec(self.dim)
        e[i] = 1
        return e

    def invariant_report(self) -> Report:
        m, n = range(self.semigroup.order), range(self.dim)
        v, q, add = self.vee, self.ternary_square, linalg.vec_add
        rep = Report()
        # the square's witness (a, b, g, i, j, k) does not extend (a, b, i, j)
        for a, b, i, j in itertools.product(m, m, n, n):
            rep.record("invariant:skew-vee", (a, b, i, j),
                       add(v[a][b][i][j], v[b][a][j][i]))
            rep.sweep([(a,), (b,), m, (i,), (j,), n], [(
                "invariant:skew-square", lambda a, b, g, i, j, k: add(
                    q[a][b][g][i][j][k], q[b][a][g][j][i][k]))])
        return rep


class NSAlgebra(NSFamilyAlgebra):
    """NS-Lie-Yamaguti algebra: the one-element-semigroup special case.

    Accepts plain (un-indexed) operation tensors and wraps them as constant
    families over the trivial semigroup.
    """

    def __init__(self, dim, bullet, vee, ternary_curly, ternary_square):
        super().__init__(dim, trivial_semigroup(), [bullet], [[vee]],
                         [[ternary_curly]], [[[ternary_square]]])


def zero_ns_family(dim, s) -> NSFamilyAlgebra:
    m, n = s.order, dim
    return NSFamilyAlgebra(dim, s, linalg.zeros(m, n, n, n),
                           linalg.zeros(m, m, n, n, n),
                           linalg.zeros(m, m, n, n, n, n),
                           linalg.zeros(m, m, m, n, n, n, n))


def derived_brackets(N: NSFamilyAlgebra):
    """Tensors of the derived binary, ternary and double brackets.  Each
    operation at basis vectors is read from its contraction at the first
    one, and the terms add up in the order of star2, star3 and dbl."""
    t, m, n, d = N.semigroup.table, range(N.semigroup.order), range(N.dim), N.dim
    E, each, vsum, at, lead = linalg.identity(d), linalg.contract_grid, \
        linalg.vec_sum, linalg.map_at, linalg.lead_slot
    # e_i . e_j at bl[a][i][j], each curly and square product at [..][i][j*d+k]
    bl, vv, cu, sq = (at(lambda X: each(lead(X, 0, r), E), T, k) for T, k, r in (
        (N.bullet, 1, 2), (N.vee, 2, 2), (N.ternary_curly, 2, 3),
        (N.ternary_square, 3, 3)))
    s2 = [[[[vsum("+-+", bl[a][i][j], bl[b][j][i], vv[a][b][i][j]) for j in n]
            for i in n] for b in m] for a in m]
    # e_i . (e_j . e_k) at [a][b][j][k][i], star2(e_i, e_j) . e_k at [a][b][i][j][k]
    inner = [[[each(Y, vs) for vs in bl[b]] for b in m]
             for Y in (lead(X, 1, 2) for X in N.bullet)]
    outer = [[[each(N.bullet[t[a][b]], vs) for vs in s2[a][b]] for b in m] for a in m]
    s3 = [[[[[vsum("+-+--", cu[b][a][k][j * d + i], cu[a][b][k][i * d + j],
                   inner[a][b][j][k][i], inner[b][a][i][k][j], outer[a][b][i][j][k])
              for k in n] for j in n] for i in n] for b in m] for a in m]
    return s2, s3, [[[[[[vsum(
        "++-+", s3[a][b][i][j][k], cu[b][g][i][j * d + k], cu[a][g][j][i * d + k],
        sq[a][b][g][i][j * d + k]) for k in n] for j in n] for i in n] for g in m]
        for b in m] for a in m]


_FAMILY_TO_PLAIN = {
    "NSF-4.16": "NS-4.1", "NSF-4.17": "NS-4.2", "NSF-4.18": "NS-4.3",
    "NSF-4.19": "NS-4.4", "NSF-4.20": "NS-4.5", "NSF-4.21": "NS-4.6",
    "NSF-4.22": "NS-4.7", "NSF-4.23": "NS-4.8", "NSF-4.24": "NS-4.9",
    "NSF-4.28": "NS-4.13", "NSF-4.29": "NS-4.14", "NSF-4.30": "NS-4.15",
}


def check_ns_family_axioms(N: NSFamilyAlgebra) -> Report:
    """The NS family axioms on every index and basis tuple, their terms read
    from tables of contractions as in check_ly_axioms; the derived brackets
    are the tensors of `derived_brackets`.  A cyclic or swapped pair of terms
    reads one table over its sweep, at most dim times an operation tensor and
    dropped after it; the other terms are built in each outer tuple's block.
    Elements multiply through semigroup.table: ab is t[a][b], abg is
    t[t[a][b]][g].

    Write x, y, z, w, v for the indexed arguments (slots 0-4, an element and
    a basis index each), u for the unindexed basis vector of (4.16)-(4.20)
    and (4.28)-(4.30), and x.y, {x, y, z}, [x, y, z] for bullet, curly and
    square.  With vee and square skew (N.invariant_report() empty)
    and the table commutative, star2 is skew and star3 and dbl are skew in
    their first pair (a swap trades their terms in pairs, and ab = ba).
    Then (4.16), (4.17), (4.19), (4.30) change sign when x and y swap,
    (4.18), (4.20) when y and z swap, (4.23), (4.24), (4.29) when x and y
    or z and w swap, and (4.21), (4.22), (4.28), cyclic sums over x, y, z
    of terms skew in x, y, are alternating.  Each term changes sign alone,
    where both slots enter one skew pair of star2, star3, dbl, vee or
    square, or trades places with a term of the opposite sign: in (4.16)
    {y.u, x, z}, {x.u, y, z}; (4.30) {{u, z, y}, x, w}, {{u, z, x}, y, w};
    (4.18) y.{u, x, z}, z.{u, x, y}; (4.20) {{u, x, y}, z, w},
    {{u, x, z}, y, w}; and for z, w in (4.23) z.[x, y, w], w.[x, y, z] and
    dbl(x, y, z) vee w, z vee dbl(x, y, w); (4.24) {[x, y, z], w, v},
    {[x, y, w], z, v} and [dbl(x, y, z), w, v], [z, dbl(x, y, w), v];
    (4.29) star3(dbl(x, y, z), w, u), star3(z, dbl(x, y, w), u).  Such a
    residual is 0 where the two joint labels i*M + a are equal and minus
    its value at the swapped tuple elsewhere.  So each phase declares its
    laws once, and omega._screened evaluates its blocks where the label of
    x is below that of y, and (4.18) or (4.20), whose sign changes with y
    and z, off that pair, at the other outer tuples; when all vanish, the
    phase's sweep would record nothing and is skipped.  Otherwise, and for
    a family that is not skew, it runs unchanged and alone records the
    violations."""
    t, m, n, d = N.semigroup.table, range(N.semigroup.order), range(N.dim), N.dim
    BL, VV, CU, SQ = N.bullet, N.vee, N.ternary_curly, N.ternary_square
    S2, S3, DB = derived_brackets(N)
    ct, each, mm, vsum, at, lead = linalg.contract, linalg.contract_grid, \
        linalg.mat_mul, linalg.vec_sum, linalg.map_at, linalg.lead_slot
    (cu0, cu1, cu2, curows), (s30, s31, s32, s3rows), (sq0, sq1, sq2, sqrows) = (
        linalg.slot_views(X, k) for X, k in ((CU, 2), (S3, 2), (SQ, 3)))
    dbrows = at(lambda X: linalg.flatten(linalg.flatten(X)), DB, 3)
    bl, bl1 = lead(BL, 2, 3), [lead(X, 1, 2) for X in BL]  # BL[g][k] at [g*d+k], [k]
    vv1, vvrows, s2rows = at(lambda X: lead(X, 1, 2), VV, 2), \
        at(linalg.flatten, VV, 2), at(linalg.flatten, S2, 2)

    def at_s2(X, depth):  # each table at depth of X[ab] at star2_ab(e_i, e_j)
        return [[at(lambda Y: [each(Y, vs) for vs in S2[a][b]], X[t[a][b]], depth)
                 for b in m] for a in m]

    def law18(a, b, g, i, j):  # residuals of (4.18) at [k][l]
        u18 = each([[r[l * d + i] for l in n] for r in cu2[a][t[b][g]]], S2[b][g][j])
        return [[vsum("+-+", u18[k][l], R18[a][g][l][i][k][b * d + j],
                      R18[a][b][l][i][j][g * d + k]) for l in n] for k in n]

    def block3(a, b, g, i, j):  # residuals of (4.16), (4.17), (4.18), (4.28) at [k][l]
        ab, s3, r18 = t[a][b], S3[a][b][i][j], law18(a, b, g, i, j)
        u16, u17, h17 = ct(cu1[ab][g], S2[a][b][i][j]), mm(linalg.flatten(BL[g]), s3), \
            each(bl1[g], s3)
        w17 = each(BL[t[ab][g]], DB[a][b][g][i][j])
        return [[(vsum("+-+", u16[l * d + k], Q16[a][g][b][j][l][i * d + k],
                       Q16[b][g][a][i][l][j * d + k]),
                  vsum("+--", u17[k * d + l], h17[l][k], w17[k][l]), r18[k][l],
                  vsum("+++", T28[a][b][g][i][j][k * d + l],
                       T28[b][g][a][j][k][i * d + l], T28[g][a][b][k][i][j * d + l]))
                 for l in n] for k in n]

    def block23(a, b, g, si, i, j):  # residuals of (4.22) and (4.23) at [k][l]
        x, y, s3 = t[t[a][b]][g], t[t[a][b]][si], S3[a][b][i][j]
        x4, x5, x6 = mm(vvrows[g][si], s3), each(VV[x][si], DB[a][b][g][i][j]), \
            each(vv1[g][y], DB[a][b][si][i][j])
        y23 = mm(s2rows[g][si], SQ[a][b][t[g][si]][i][j])
        return [[(vsum("++++++", V22[g][si][a][b][i][j][k * d + l],
                       V22[a][si][b][g][j][k][i * d + l],
                       V22[b][si][g][a][k][i][j * d + l],
                       W22[a][b][g][si][i][j][k * d + l],
                       W22[b][g][a][si][j][k][i * d + l],
                       W22[g][a][b][si][k][i][j * d + l]),
                  vsum("-+++--", Z23[a][b][si][i][j][l][g * d + k],
                       Z23[a][b][g][i][j][k][si * d + l], y23[k * d + l], x4[k * d + l],
                       x5[k][l], x6[l][k])) for l in n] for k in n]

    def law20(a, b, g, si, i, j):  # residuals of (4.20) at [k][l][p]
        cj = [r[j] for r in CU[b][si]]  # slot 1 at j
        z1 = [mm(linalg.flatten(DB[b][g][si][j]), r[i]) for r in CU[a][t[t[b][g]][si]]]
        z2, z3 = [ct(cu0[g][si], r[i][j]) for r in CU[a][b]], \
            [each(cj, r[i]) for r in CU[a][g]]
        z4 = [mm(cu1[a][si][i], X) for X in S3[b][g][j]]
        return [[[vsum("+-+-", z1[p][k * d + l], z2[p][k * d + l], z3[p][k][l],
                       z4[k][p * d + l]) for p in n] for l in n] for k in n]

    def block4(a, b, g, si, i, j):
        # residuals of (4.19), (4.20), (4.29), (4.30) at [k][l][p]; a term at
        # ..[k][l*d+p] is read at e_l, e_p of a table
        x, y, s3 = t[t[a][b]][g], t[t[a][b]][si], S3[a][b][i][j]
        dg, ds, r20 = DB[a][b][g][i][j], DB[a][b][si][i][j], law20(a, b, g, si, i, j)
        y1, y2, y3, y4 = mm(curows[g][si], s3), each(cu0[g][si], s3), \
            each(cu1[x][si], dg), each(cu2[g][y], ds)
        ci, cj = [r[i] for r in CU[a][si]], [r[j] for r in CU[b][si]]  # slot 1 at i, j
        w1, w2, w3, w4 = mm(s3rows[g][si], s3), each(s32[g][si], s3), \
            each(s30[x][si], dg), each(s31[g][y], ds)
        v2, v3 = ([each(c, [q[f] for q in r]) for r in CU[g][h]]
                  for c, f, h in ((ci, j, b), (cj, i, a)))
        return [[[(
            vsum("+---", y1[(p * d + k) * d + l], y2[p][k * d + l], y3[k][p * d + l],
                 y4[l][p * d + k]), r20[k][l][p],
            vsum("+---", w1[(k * d + l) * d + p], w2[p][k * d + l], w3[k][l * d + p],
                 w4[l][k * d + p]),
            vsum("+-++", y3[k][p * d + l], v2[p][k][l], v3[p][k][l],
                 y2[p][k * d + l])) for p in n] for l in n] for k in n]

    def block5(a, b, g, si, ta, i, j):  # residuals of (4.24) at [k][l][p]
        ab, s3, Q, D = t[a][b], S3[a][b][i][j], SQ[a][b], DB[a][b]
        c1, c2, c3, c4 = each(cu0[si][ta], Q[g][i][j]), each(cu0[g][ta], Q[si][i][j]), \
            mm(sqrows[g][si][ta], s3), each(s32[g][si], Q[ta][i][j])
        c5, c6 = each(sq0[t[ab][g]][si][ta], D[g][i][j]), \
            each(sq1[g][t[ab][si]][ta], D[si][i][j])
        c7, c8 = mm(dbrows[g][si][ta], Q[t[t[g][si]][ta]][i][j]), \
            each(sq2[g][si][t[ab][ta]], D[ta][i][j])
        return [[[vsum("-++---+-", c1[k][l * d + p], c2[l][k * d + p],
                       c3[(k * d + l) * d + p], c4[p][k * d + l], c5[k][l * d + p],
                       c6[l][k * d + p], c7[(k * d + l) * d + p], c8[p][k * d + l])
                  for p in n] for l in n] for k in n]

    rep = N.invariant_report()
    skew = rep.ok  # read before a sweep adds to rep

    def phase(ne, laws, off=()):
        # rep.sweep of laws over ne elements and the indices of x and y,
        # unless _screened finds that they and the laws off their pair hold;
        # a block with a tuple of names has one more level of lists
        screen = [[(f, ne, 2, 0, depth + (type(name) is not str))
                   for name, f, depth in group] for group in (laws, off)]
        if not _screened(N.semigroup, N.dim, skew, *screen):
            rep.sweep([m] * ne + [n] * 2, laws)

    # three elements, three indices; (4.16)-(4.18) and (4.28) add one index
    F21, T28 = at_s2(VV, 1), at_s2(s30, 1)
    H21, R18 = at(lambda vs: each(bl, vs), VV, 3), at(lambda vs: each(bl, vs), CU, 4)
    Q16 = [[[[each(cu0[x][g], vs) for vs in BL[y]] for y in m] for g in m] for x in m]
    phase(3, [
        ("NSF-4.21", lambda a, b, g, i, j: [vsum(
            "+++---+++", F21[a][b][g][i][j][k], F21[b][g][a][j][k][i],
            F21[g][a][b][k][i][j], H21[a][b][i][j][g * d + k],
            H21[b][g][j][k][a * d + i], H21[g][a][k][i][b * d + j],
            SQ[a][b][g][i][j][k], SQ[b][g][a][j][k][i], SQ[g][a][b][k][i][j])
            for k in n], 1),
        (("NSF-4.16", "NSF-4.17", "NSF-4.18", "NSF-4.28"), block3, 2)],
        [("NSF-4.18", law18, 2)])
    del F21, T28, H21, R18, Q16
    # four elements, four indices; (4.19), (4.20), (4.29), (4.30) add one
    V22, W22, Z23 = at(lambda X: at(lambda vs: each(X, vs), VV, 3), cu0, 2), \
        at_s2(sq0, 2), at(lambda vs: each(bl, vs), SQ, 5)
    phase(4, [
        (("NSF-4.22", "NSF-4.23"), block23, 2),
        (("NSF-4.19", "NSF-4.20", "NSF-4.29", "NSF-4.30"), block4, 3)],
        [("NSF-4.20", law20, 3)])
    del V22, W22, Z23
    # (4.24): five elements, five indices
    phase(5, [("NSF-4.24", block5, 3)])
    return rep


def check_ns_axioms(N: NSAlgebra) -> Report:
    """The family check with the plain law names NS-4.1 ... NS-4.15."""
    if N.semigroup.order != 1:
        raise PreconditionError(
            "NS-Lie-Yamaguti axioms apply to the one-element-semigroup case")
    return Report([replace(v, law=_FAMILY_TO_PLAIN.get(v.law, v.law))
                   for v in check_ns_family_axioms(N).violations])


def ns_tensor_semigroup(N: NSFamilyAlgebra) -> NSAlgebra:
    """The single NS algebra on L (x) K-Omega induced by an NS family."""
    check_ns_family_axioms(N).require("input fails the NS family axioms: {laws}")
    s, n = N.semigroup, N.dim
    bl, v, c, q = N.bullet, N.vee, N.ternary_curly, N.ternary_square

    def lift(arity, value):
        return joint_table(s, (n,) * arity, value, place=True)

    return NSAlgebra(
        n * s.order,
        lift(2, lambda al, ix: bl[al[0]][ix[0]][ix[1]]),
        lift(2, lambda al, ix: v[al[0]][al[1]][ix[0]][ix[1]]),
        lift(3, lambda al, ix: c[al[1]][al[2]][ix[0]][ix[1]][ix[2]]),
        lift(3, lambda al, ix: q[al[0]][al[1]][al[2]][ix[0]][ix[1]][ix[2]]))


def ns_from_twisted_rb(ctx, check: bool = True) -> NSFamilyAlgebra:
    """The splitting structure on V induced by a twisted Rota-Baxter family:
    at x = T_a u_i, y = T_b u_j and z = T_g u_k, e_i . e_j is rho(x)u_j,
    e_i vee e_j is Gamma1(x, y), curly(e_i, e_j, e_k) is theta(y, z)u_i and
    the square is Gamma2(x, y, z).  The first three are read from the tables
    the family check reads, bullet and curly with each zero the int 0.  The
    square is one grid of Gamma2 over all triples of images: each value is
    one contraction, so its zeros keep their types (a two-stage one,
    through the table of Gamma2(x, y, -), can change the type of a zero
    whose terms cancel)."""
    tt = family_tables(ctx)
    if check:
        family_check(tt, *induced_products(tt)).require(
            "input is not a twisted Rota-Baxter family")
    s, nv, T = ctx.semigroup, ctx.dimV, tt.X
    m, u = range(s.order), range(nv)

    def ints(v):
        return [x or 0 for x in v]

    bl = [[[ints(col) for col in tt.rho[a * nv + i]] for i in u] for a in m]
    v = [[[[tt.gamma1[a * nv + i][b * nv + j] for j in u] for i in u]
          for b in m] for a in m]
    cu = [[[[[ints(tt.theta[b * nv + j][g * nv + k][i]) for k in u]
             for j in u] for i in u] for g in m] for b in m]
    g2 = linalg.contract_grid(ctx.cocycle.gamma2, T, T, T)
    q = [[[[[[g2[a * nv + i][b * nv + j][g * nv + k] for k in u] for j in u]
            for i in u] for g in m] for b in m] for a in m]
    return NSFamilyAlgebra(nv, s, bl, v, cu, q)


def ns_from_nijenhuis(A, s, N) -> NSFamilyAlgebra:
    """The NS family on L induced by a Nijenhuis family: the NS family of
    the twisted family of its induced context."""
    return ns_from_twisted_rb(nijenhuis_induced_context(A, s, N), check=False)


def ns_tensor_from_rb_coincidence(ctx) -> bool:
    """Whether tensoring the induced NS family agrees with the NS algebra of
    the collapsed single operator on V (x) K-Omega."""
    left = ns_tensor_semigroup(ns_from_twisted_rb(ctx))
    right = ns_from_twisted_rb(bar_operator(ctx))
    return (left.bullet == right.bullet
            and left.vee == right.vee
            and left.ternary_curly == right.ternary_curly
            and left.ternary_square == right.ternary_square)
