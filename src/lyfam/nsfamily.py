"""NS-Lie-Yamaguti algebras and their semigroup-indexed family version.

An NS family algebra carries four semigroup-indexed operations
(bullet, vee, curly, square) whose derived brackets reproduce a
(semigroup-indexed) Lie-Yamaguti structure.  The single-algebra case is the
trivial-semigroup specialization of the family axioms.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import PreconditionError
from .ly import joint_index
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
        rep = Report()
        m = self.semigroup.order
        n = self.dim
        for a in range(m):
            for b in range(m):
                for i in range(n):
                    for j in range(n):
                        rep.record("invariant:skew-vee", (a, b, i, j),
                                   linalg.vec_add(self.vee[a][b][i][j],
                                                  self.vee[b][a][j][i]))
                        for g in range(m):
                            for k in range(n):
                                rep.record(
                                    "invariant:skew-square", (a, b, g, i, j, k),
                                    linalg.vec_add(
                                        self.ternary_square[a][b][g][i][j][k],
                                        self.ternary_square[b][a][g][j][i][k]))
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
    m = s.order
    z = linalg.zero_vec(dim)
    bl = [[[list(z) for _ in range(dim)] for _ in range(dim)] for _ in range(m)]
    v = [[[[list(z) for _ in range(dim)] for _ in range(dim)]
          for _ in range(m)] for _ in range(m)]
    c = [[[[[list(z) for _ in range(dim)] for _ in range(dim)]
           for _ in range(dim)] for _ in range(m)] for _ in range(m)]
    q = [[[[[[list(z) for _ in range(dim)] for _ in range(dim)]
            for _ in range(dim)] for _ in range(m)] for _ in range(m)]
         for _ in range(m)]
    return NSFamilyAlgebra(dim, s, bl, v, c, q)


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


def check_ns_family_axioms(N: NSFamilyAlgebra, law_prefix: str = None) -> Report:
    """The NS family axioms on every index and basis tuple.

    Basis arguments are table lookups and the derived brackets come from the
    tensors of `derived_brackets`; by multilinearity this is the same as
    evaluating every term at basis vectors.
    """
    rep = N.invariant_report()
    s, n = N.semigroup, N.dim
    E = linalg.identity(n)
    BL, VV = N.bullet, N.vee
    CU, SQ = N.ternary_curly, N.ternary_square
    S2, S3, DB = derived_brackets(N)
    ct, add, sub = linalg.contract, linalg.vec_add, linalg.vec_sub

    def rec(law, witness, res):
        if law_prefix is not None:
            law = _FAMILY_TO_PLAIN.get(law, law)
        rep.record(law, witness, res)

    elems = list(s.elements)
    for a in elems:
        for b in elems:
            ab = product(s, a, b)
            for g in elems:
                abg = product(s, ab, g)
                bg, ga = product(s, b, g), product(s, g, a)
                for i in range(n):
                    for j in range(n):
                        st = S2[a][b][i][j]
                        for k in range(n):
                            dbk = DB[a][b][g][i][j][k]
                            # (4.21): three elements, three indices
                            res = ct(VV[ab][g], st, E[k])
                            res = add(res, ct(VV[bg][a], S2[b][g][j][k], E[i]))
                            res = add(res, ct(VV[ga][b], S2[g][a][k][i], E[j]))
                            res = sub(res, ct(BL[g][k], VV[a][b][i][j]))
                            res = sub(res, ct(BL[a][i], VV[b][g][j][k]))
                            res = sub(res, ct(BL[b][j], VV[g][a][k][i]))
                            res = add(res, SQ[a][b][g][i][j][k])
                            res = add(res, SQ[b][g][a][j][k][i])
                            res = add(res, SQ[g][a][b][k][i][j])
                            rec("NSF-4.21", (a, b, g, i, j, k), res)
                            for l in range(n):
                                # (4.16): a passive, x, y, z indexed a,b,g
                                res = ct(CU[ab][g][l], st, E[k])
                                res = sub(res, ct(CU[a][g], BL[b][j][l],
                                                  E[i], E[k]))
                                res = add(res, ct(CU[b][g], BL[a][i][l],
                                                  E[j], E[k]))
                                rec("NSF-4.16", (a, b, g, i, j, k, l), res)
                                # (4.17)
                                res = ct(S3[a][b][i][j], BL[g][k][l])
                                res = sub(res, ct(BL[g][k], S3[a][b][i][j][l]))
                                res = sub(res, ct(BL[abg], dbk, E[l]))
                                rec("NSF-4.17", (a, b, g, i, j, k, l), res)
                                # (4.18): {a,x,[y,z]*_{b,g}}_{a?,..}
                                res = ct(CU[a][bg][l][i], S2[b][g][j][k])
                                res = sub(res, ct(BL[b][j], CU[a][g][l][i][k]))
                                res = add(res, ct(BL[g][k], CU[a][b][l][i][j]))
                                rec("NSF-4.18", (a, b, g, i, j, k, l), res)
                                # (4.28)
                                res = ct(S3[ab][g], st, E[k], E[l])
                                res = add(res, ct(S3[bg][a], S2[b][g][j][k],
                                                  E[i], E[l]))
                                res = add(res, ct(S3[ga][b], S2[g][a][k][i],
                                                  E[j], E[l]))
                                rec("NSF-4.28", (a, b, g, i, j, k, l), res)
    for a in elems:
        for b in elems:
            ab = product(s, a, b)
            for g in elems:
                abg = product(s, ab, g)
                bg, ga = product(s, b, g), product(s, g, a)
                for si in elems:
                    absi = product(s, ab, si)
                    gsi = product(s, g, si)
                    bgsi = product_of(s, [b, g, si])
                    for i in range(n):
                        for j in range(n):
                            S3ab = S3[a][b][i][j]
                            for k in range(n):
                                dbk = DB[a][b][g][i][j][k]
                                for l in range(n):
                                    dbl = DB[a][b][si][i][j][l]
                                    # (4.22)
                                    res = ct(CU[g][si], VV[a][b][i][j],
                                             E[k], E[l])
                                    res = add(res, ct(CU[a][si], VV[b][g][j][k],
                                                      E[i], E[l]))
                                    res = add(res, ct(CU[b][si], VV[g][a][k][i],
                                                      E[j], E[l]))
                                    res = add(res, ct(SQ[ab][g][si],
                                                      S2[a][b][i][j], E[k], E[l]))
                                    res = add(res, ct(SQ[bg][a][si],
                                                      S2[b][g][j][k], E[i], E[l]))
                                    res = add(res, ct(SQ[ga][b][si],
                                                      S2[g][a][k][i], E[j], E[l]))
                                    rec("NSF-4.22", (a, b, g, si, i, j, k, l), res)
                                    # (4.23)
                                    res = linalg.vec_neg(
                                        ct(BL[g][k], SQ[a][b][si][i][j][l]))
                                    res = add(res, ct(BL[si][l],
                                                      SQ[a][b][g][i][j][k]))
                                    res = add(res, ct(SQ[a][b][gsi][i][j],
                                                      S2[g][si][k][l]))
                                    res = add(res, ct(S3ab, VV[g][si][k][l]))
                                    res = sub(res, ct(VV[abg][si], dbk, E[l]))
                                    res = sub(res, ct(VV[g][absi][k], dbl))
                                    rec("NSF-4.23", (a, b, g, si, i, j, k, l), res)
                                    for p in range(n):
                                        # (4.19): elements x,y,b=t,z,a=w
                                        res = ct(S3ab, CU[g][si][p][k][l])
                                        res = sub(res, ct(CU[g][si], S3ab[p],
                                                          E[k], E[l]))
                                        res = sub(res, ct(CU[abg][si][p], dbk,
                                                          E[l]))
                                        res = sub(res, ct(CU[g][absi][p][k], dbl))
                                        rec("NSF-4.19",
                                            (a, b, g, si, i, j, k, l, p), res)
                                        # (4.20): elements b=t,x,y,z,a=w
                                        res = ct(CU[a][bgsi][p][i],
                                                 DB[b][g][si][j][k][l])
                                        res = sub(res, ct(CU[g][si],
                                                          CU[a][b][p][i][j],
                                                          E[k], E[l]))
                                        res = add(res, ct(CU[b][si],
                                                          CU[a][g][p][i][k],
                                                          E[j], E[l]))
                                        res = sub(res, ct(S3[b][g][j][k],
                                                          CU[a][si][p][i][l]))
                                        rec("NSF-4.20",
                                            (a, b, g, si, i, j, k, l, p), res)
                                        # (4.29)
                                        res = ct(S3ab, S3[g][si][k][l][p])
                                        res = sub(res, ct(S3[g][si][k][l],
                                                          S3ab[p]))
                                        res = sub(res, ct(S3[abg][si], dbk,
                                                          E[l], E[p]))
                                        res = sub(res, ct(S3[g][absi][k], dbl,
                                                          E[p]))
                                        rec("NSF-4.29",
                                            (a, b, g, si, i, j, k, l, p), res)
                                        # (4.30): elements b=t,x,y,z,a=w
                                        res = ct(CU[abg][si][p], dbk, E[l])
                                        res = sub(res, ct(CU[a][si],
                                                          CU[g][b][p][k][j],
                                                          E[i], E[l]))
                                        res = add(res, ct(CU[b][si],
                                                          CU[g][a][p][k][i],
                                                          E[j], E[l]))
                                        res = add(res, ct(CU[g][si], S3ab[p],
                                                          E[k], E[l]))
                                        rec("NSF-4.30",
                                            (a, b, g, si, i, j, k, l, p), res)
    # (4.24): five elements, five indices
    for a in elems:
        for b in elems:
            ab = product(s, a, b)
            for g in elems:
                abg = product(s, ab, g)
                for si in elems:
                    absi = product(s, ab, si)
                    gsi = product(s, g, si)
                    for ta in elems:
                        abta = product(s, ab, ta)
                        gsita = product(s, gsi, ta)
                        for i in range(n):
                            for j in range(n):
                                for k in range(n):
                                    dbk = DB[a][b][g][i][j][k]
                                    for l in range(n):
                                        dbl = DB[a][b][si][i][j][l]
                                        for p in range(n):
                                            res = linalg.vec_neg(ct(
                                                CU[si][ta], SQ[a][b][g][i][j][k],
                                                E[l], E[p]))
                                            res = add(res, ct(
                                                CU[g][ta], SQ[a][b][si][i][j][l],
                                                E[k], E[p]))
                                            res = add(res, ct(
                                                S3[a][b][i][j],
                                                SQ[g][si][ta][k][l][p]))
                                            res = sub(res, ct(
                                                S3[g][si][k][l],
                                                SQ[a][b][ta][i][j][p]))
                                            res = sub(res, ct(
                                                SQ[abg][si][ta], dbk, E[l], E[p]))
                                            res = sub(res, ct(
                                                SQ[g][absi][ta][k], dbl, E[p]))
                                            res = add(res, ct(
                                                SQ[a][b][gsita][i][j],
                                                DB[g][si][ta][k][l][p]))
                                            res = sub(res, ct(
                                                SQ[g][si][abta][k][l],
                                                DB[a][b][ta][i][j][p]))
                                            rec("NSF-4.24",
                                                (a, b, g, si, ta, i, j, k, l, p),
                                                res)
    return rep


def check_ns_axioms(N: NSAlgebra) -> Report:
    if N.semigroup.order != 1:
        raise PreconditionError(
            "NS-Lie-Yamaguti axioms apply to the one-element-semigroup case")
    return check_ns_family_axioms(N, law_prefix="NS")


def ns_tensor_semigroup(N: NSFamilyAlgebra) -> NSAlgebra:
    """The single NS algebra on L (x) K-Omega induced by an NS family."""
    chk = check_ns_family_axioms(N)
    if not chk.ok:
        raise PreconditionError("input fails the NS family axioms")
    s = N.semigroup
    n, m = N.dim, s.order
    NN = n * m
    out = zero_ns_family(NN, trivial_semigroup())

    def embed(vec, alpha, target):
        for l, vl in enumerate(vec):
            if vl:
                target[joint_index(l, alpha, m)] = vl

    for i in range(n):
        for a in range(m):
            p = joint_index(i, a, m)
            for j in range(n):
                for b in range(m):
                    q = joint_index(j, b, m)
                    ab = product(s, a, b)
                    embed(N.bullet[a][i][j], ab, out.bullet[0][p][q])
                    embed(N.vee[a][b][i][j], ab, out.vee[0][0][p][q])
                    for k in range(n):
                        for g in range(m):
                            r = joint_index(k, g, m)
                            abg = product(s, ab, g)
                            embed(N.ternary_curly[b][g][i][j][k], abg,
                                  out.ternary_curly[0][0][p][q][r])
                            embed(N.ternary_square[a][b][g][i][j][k], abg,
                                  out.ternary_square[0][0][0][p][q][r])
    return NSAlgebra(NN, out.bullet[0], out.vee[0][0],
                     out.ternary_curly[0][0], out.ternary_square[0][0][0])


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
