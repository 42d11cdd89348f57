"""NS-Lie-Yamaguti algebras and their semigroup-indexed family version.

An NS family algebra carries four semigroup-indexed operations
(bullet, vee, curly, square) whose derived brackets reproduce a
(semigroup-indexed) Lie-Yamaguti structure.  The single-algebra case is the
trivial-semigroup specialization of the family axioms.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from . import linalg
from .errors import PreconditionError
from .ly import joint_table
from .report import Report
from .semigroup import FiniteCommutativeSemigroup, product, product_of, \
    trivial_semigroup


@dataclass
class NSFamilyAlgebra:
    dim: int
    semigroup: FiniteCommutativeSemigroup
    bullet: list        # bl[alpha][i][j] -> Vector
    vee: list           # v[alpha][beta][i][j] -> Vector
    ternary_curly: list  # c[beta][gamma][i][j][k] -> Vector
    ternary_square: list  # q[alpha][beta][gamma][i][j][k] -> Vector

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

        def square(a, b, i, j):
            # the square's witness lists its elements first, (a, b, g, i, j, k),
            # and it runs after the vee at (a, b, i, j)
            rep.sweep([(a,), (b,), m, (i,), (j,), n], [(
                "invariant:skew-square", lambda a, b, g, i, j, k: add(
                    q[a][b][g][i][j][k], q[b][a][g][j][i][k]))])
            return ()

        return rep.sweep([m, m, n, n], [
            ("invariant:skew-vee", lambda a, b, i, j: add(
                v[a][b][i][j], v[b][a][j][i])),
            ("invariant:skew-square", square)])


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
    """Tensors of the derived binary, ternary and double brackets."""
    n, m = N.dim, N.semigroup.order
    basis = [N.basis(i) for i in range(n)]
    star_binary = [[[[N.star2(a, b, basis[i], basis[j])
                      for j in range(n)] for i in range(n)]
                    for b in range(m)] for a in range(m)]
    star_ternary = [[[[[N.star3(a, b, basis[i], basis[j], basis[k])
                        for k in range(n)] for j in range(n)] for i in range(n)]
                     for b in range(m)] for a in range(m)]
    double_bracket = [[[[[[N.dbl(a, b, g, basis[i], basis[j], basis[k])
                           for k in range(n)] for j in range(n)]
                         for i in range(n)]
                        for g in range(m)] for b in range(m)] for a in range(m)]
    return star_binary, star_ternary, double_bracket


_FAMILY_TO_PLAIN = {
    "NSF-4.16": "NS-4.1", "NSF-4.17": "NS-4.2", "NSF-4.18": "NS-4.3",
    "NSF-4.19": "NS-4.4", "NSF-4.20": "NS-4.5", "NSF-4.21": "NS-4.6",
    "NSF-4.22": "NS-4.7", "NSF-4.23": "NS-4.8", "NSF-4.24": "NS-4.9",
    "NSF-4.28": "NS-4.13", "NSF-4.29": "NS-4.14", "NSF-4.30": "NS-4.15",
}


def check_ns_family_axioms(N: NSFamilyAlgebra) -> Report:
    """The NS family axioms on every index and basis tuple.

    Basis arguments are table lookups and the derived brackets come from the
    tensors of `derived_brackets`; by multilinearity this is the same as
    evaluating every term at basis vectors.  Elements multiply through
    semigroup.table: ab below is t[a][b], abg is t[t[a][b]][g].
    """
    t, m, n = N.semigroup.table, range(N.semigroup.order), range(N.dim)
    E = linalg.identity(N.dim)
    BL, VV = N.bullet, N.vee
    CU, SQ = N.ternary_curly, N.ternary_square
    S2, S3, DB = derived_brackets(N)
    ct, vsum = linalg.contract, linalg.vec_sum
    rep = N.invariant_report()
    # three elements, three indices; (4.16)-(4.18) and (4.28) add one index
    rep.sweep([m] * 3 + [n] * 3, [
        ("NSF-4.21", lambda a, b, g, i, j, k: vsum(
            "+++---+++", ct(VV[t[a][b]][g], S2[a][b][i][j], E[k]),
            ct(VV[t[b][g]][a], S2[b][g][j][k], E[i]),
            ct(VV[t[g][a]][b], S2[g][a][k][i], E[j]),
            ct(BL[g][k], VV[a][b][i][j]), ct(BL[a][i], VV[b][g][j][k]),
            ct(BL[b][j], VV[g][a][k][i]), SQ[a][b][g][i][j][k],
            SQ[b][g][a][j][k][i], SQ[g][a][b][k][i][j])),
        ([n], [
            ("NSF-4.16", lambda a, b, g, i, j, k, l: vsum(
                "+-+", ct(CU[t[a][b]][g][l], S2[a][b][i][j], E[k]),
                ct(CU[a][g], BL[b][j][l], E[i], E[k]),
                ct(CU[b][g], BL[a][i][l], E[j], E[k]))),
            ("NSF-4.17", lambda a, b, g, i, j, k, l: vsum(
                "+--", ct(S3[a][b][i][j], BL[g][k][l]),
                ct(BL[g][k], S3[a][b][i][j][l]),
                ct(BL[t[t[a][b]][g]], DB[a][b][g][i][j][k], E[l]))),
            ("NSF-4.18", lambda a, b, g, i, j, k, l: vsum(
                "+-+", ct(CU[a][t[b][g]][l][i], S2[b][g][j][k]),
                ct(BL[b][j], CU[a][g][l][i][k]),
                ct(BL[g][k], CU[a][b][l][i][j]))),
            ("NSF-4.28", lambda a, b, g, i, j, k, l: vsum(
                "+++", ct(S3[t[a][b]][g], S2[a][b][i][j], E[k], E[l]),
                ct(S3[t[b][g]][a], S2[b][g][j][k], E[i], E[l]),
                ct(S3[t[g][a]][b], S2[g][a][k][i], E[j], E[l])))])])
    # four elements, four indices; (4.19), (4.20), (4.29), (4.30) add one
    rep.sweep([m] * 4 + [n] * 4, [
        ("NSF-4.22", lambda a, b, g, si, i, j, k, l: vsum(
            "++++++", ct(CU[g][si], VV[a][b][i][j], E[k], E[l]),
            ct(CU[a][si], VV[b][g][j][k], E[i], E[l]),
            ct(CU[b][si], VV[g][a][k][i], E[j], E[l]),
            ct(SQ[t[a][b]][g][si], S2[a][b][i][j], E[k], E[l]),
            ct(SQ[t[b][g]][a][si], S2[b][g][j][k], E[i], E[l]),
            ct(SQ[t[g][a]][b][si], S2[g][a][k][i], E[j], E[l]))),
        ("NSF-4.23", lambda a, b, g, si, i, j, k, l: vsum(
            "-+++--", ct(BL[g][k], SQ[a][b][si][i][j][l]),
            ct(BL[si][l], SQ[a][b][g][i][j][k]),
            ct(SQ[a][b][t[g][si]][i][j], S2[g][si][k][l]),
            ct(S3[a][b][i][j], VV[g][si][k][l]),
            ct(VV[t[t[a][b]][g]][si], DB[a][b][g][i][j][k], E[l]),
            ct(VV[g][t[t[a][b]][si]][k], DB[a][b][si][i][j][l]))),
        ([n], [
            ("NSF-4.19", lambda a, b, g, si, i, j, k, l, p: vsum(
                "+---", ct(S3[a][b][i][j], CU[g][si][p][k][l]),
                ct(CU[g][si], S3[a][b][i][j][p], E[k], E[l]),
                ct(CU[t[t[a][b]][g]][si][p], DB[a][b][g][i][j][k], E[l]),
                ct(CU[g][t[t[a][b]][si]][p][k], DB[a][b][si][i][j][l]))),
            ("NSF-4.20", lambda a, b, g, si, i, j, k, l, p: vsum(
                "+-+-", ct(CU[a][t[t[b][g]][si]][p][i], DB[b][g][si][j][k][l]),
                ct(CU[g][si], CU[a][b][p][i][j], E[k], E[l]),
                ct(CU[b][si], CU[a][g][p][i][k], E[j], E[l]),
                ct(S3[b][g][j][k], CU[a][si][p][i][l]))),
            ("NSF-4.29", lambda a, b, g, si, i, j, k, l, p: vsum(
                "+---", ct(S3[a][b][i][j], S3[g][si][k][l][p]),
                ct(S3[g][si][k][l], S3[a][b][i][j][p]),
                ct(S3[t[t[a][b]][g]][si], DB[a][b][g][i][j][k], E[l], E[p]),
                ct(S3[g][t[t[a][b]][si]][k], DB[a][b][si][i][j][l], E[p]))),
            ("NSF-4.30", lambda a, b, g, si, i, j, k, l, p: vsum(
                "+-++", ct(CU[t[t[a][b]][g]][si][p], DB[a][b][g][i][j][k], E[l]),
                ct(CU[a][si], CU[g][b][p][k][j], E[i], E[l]),
                ct(CU[b][si], CU[g][a][p][k][i], E[j], E[l]),
                ct(CU[g][si], S3[a][b][i][j][p], E[k], E[l])))])])
    # (4.24): five elements, five indices
    return rep.sweep([m] * 5 + [n] * 5, [
        ("NSF-4.24", lambda a, b, g, si, ta, i, j, k, l, p: vsum(
            "-++---+-", ct(CU[si][ta], SQ[a][b][g][i][j][k], E[l], E[p]),
            ct(CU[g][ta], SQ[a][b][si][i][j][l], E[k], E[p]),
            ct(S3[a][b][i][j], SQ[g][si][ta][k][l][p]),
            ct(S3[g][si][k][l], SQ[a][b][ta][i][j][p]),
            ct(SQ[t[t[a][b]][g]][si][ta], DB[a][b][g][i][j][k], E[l], E[p]),
            ct(SQ[g][t[t[a][b]][si]][ta][k], DB[a][b][si][i][j][l], E[p]),
            ct(SQ[a][b][t[t[g][si]][ta]][i][j], DB[g][si][ta][k][l][p]),
            ct(SQ[g][si][t[t[a][b]][ta]][k][l], DB[a][b][ta][i][j][p])))])


def check_ns_axioms(N: NSAlgebra) -> Report:
    """The family check with the plain law names NS-4.1 ... NS-4.15."""
    if N.semigroup.order != 1:
        raise PreconditionError(
            "NS-Lie-Yamaguti axioms apply to the one-element-semigroup case")
    return Report([replace(v, law=_FAMILY_TO_PLAIN.get(v.law, v.law))
                   for v in check_ns_family_axioms(N).violations])


def ns_tensor_semigroup(N: NSFamilyAlgebra) -> NSAlgebra:
    """The single NS algebra on L (x) K-Omega induced by an NS family."""
    chk = check_ns_family_axioms(N)
    if not chk.ok:
        raise PreconditionError("input fails the NS family axioms: %s"
                                % sorted(chk.laws()))
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
    """The splitting structure on V induced by a twisted Rota-Baxter family."""
    from .rbfamily import check_twisted_rb_family
    if check:
        chk = check_twisted_rb_family(ctx)
        if not chk.ok:
            raise PreconditionError("input is not a twisted Rota-Baxter family")
    s = ctx.semigroup
    nv, m = ctx.dimV, s.order
    vb = linalg.identity(nv)
    Tu = [[ctx.T(a, vb[i]) for i in range(nv)] for a in range(m)]
    r, c = ctx.rep, ctx.cocycle
    bl = [[[linalg.mat_vec(r.rho_of(Tu[a][i]), vb[j])
            for j in range(nv)] for i in range(nv)] for a in range(m)]
    v = [[[[c.g1_of(Tu[a][i], Tu[b][j])
            for j in range(nv)] for i in range(nv)]
          for b in range(m)] for a in range(m)]
    cu = [[[[[linalg.mat_vec(r.theta_of(Tu[b][j], Tu[g][k]), vb[i])
              for k in range(nv)] for j in range(nv)] for i in range(nv)]
           for g in range(m)] for b in range(m)]
    q = [[[[[[c.g2_of(Tu[a][i], Tu[b][j], Tu[g][k])
              for k in range(nv)] for j in range(nv)] for i in range(nv)]
           for g in range(m)] for b in range(m)] for a in range(m)]
    return NSFamilyAlgebra(nv, s, bl, v, cu, q)


def ns_from_nijenhuis(A, s, N) -> NSFamilyAlgebra:
    """The NS family on L induced by a Nijenhuis family."""
    from .rbfamily import check_nijenhuis_family
    chk = check_nijenhuis_family(A, s, N)
    if not chk.ok:
        raise PreconditionError("input is not a Nijenhuis family")
    n, m = A.dim, s.order
    basis = [A.basis(i) for i in range(n)]

    def Nm(alpha, x):
        return linalg.mat_vec(N[alpha], x)

    Nx = [[Nm(a, basis[i]) for i in range(n)] for a in range(m)]
    bl = [[[A.bracket(Nx[a][i], basis[j]) for j in range(n)] for i in range(n)]
          for a in range(m)]
    v = [[[[linalg.vec_neg(Nm(product(s, a, b), A.bracket(basis[i], basis[j])))
            for j in range(n)] for i in range(n)]
          for b in range(m)] for a in range(m)]
    cu = [[[[[A.tri(basis[i], Nx[b][j], Nx[g][k])
              for k in range(n)] for j in range(n)] for i in range(n)]
           for g in range(m)] for b in range(m)]
    q = []
    for a in range(m):
        qa = []
        for b in range(m):
            qb = []
            for g in range(m):
                abg = product_of(s, [a, b, g])
                qg = []
                for i in range(n):
                    qi = []
                    for j in range(n):
                        qj = []
                        for k in range(n):
                            t = A.tri(Nx[a][i], basis[j], basis[k])
                            t = linalg.vec_add(
                                t, A.tri(basis[i], Nx[b][j], basis[k]))
                            t = linalg.vec_add(
                                t, A.tri(basis[i], basis[j], Nx[g][k]))
                            t = linalg.vec_sub(
                                t, Nm(abg, A.tri(basis[i], basis[j], basis[k])))
                            qj.append(linalg.vec_neg(Nm(abg, t)))
                        qi.append(qj)
                    qg.append(qi)
                qb.append(qg)
            qa.append(qb)
        q.append(qa)
    return NSFamilyAlgebra(n, s, bl, v, cu, q)


def ns_tensor_from_rb_coincidence(ctx) -> bool:
    """Whether tensoring the induced NS family agrees with the NS algebra of
    the collapsed single operator on V (x) K-Omega."""
    from .rbfamily import bar_operator
    left = ns_tensor_semigroup(ns_from_twisted_rb(ctx))
    right = ns_from_twisted_rb(bar_operator(ctx))
    return (left.bullet == right.bullet
            and left.vee == right.vee
            and left.ternary_curly == right.ternary_curly
            and left.ternary_square == right.ternary_square)
