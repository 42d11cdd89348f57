"""Lie-Yamaguti algebras, their representations, and (2,3)-cocycles.

Structure constants are stored as full tensors of coordinate vectors:
binary[i][j] is the vector of [e_i, e_j], ternary[i][j][k] that of
{e_i, e_j, e_k}.  Every multilinear law is checked on basis tuples only,
which by multilinearity is equivalent to the universally quantified law.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import MalformedInputError, PreconditionError
from .report import Report
from .semigroup import FiniteCommutativeSemigroup, product, validate_semigroup


def _as_tensor2(t, dim, vdim):
    t = [[list(v) for v in row] for row in t]
    if len(t) != dim or any(len(r) != dim for r in t) or any(
            len(v) != vdim for r in t for v in r):
        raise MalformedInputError("bad shape for rank-2 structure tensor")
    return t


def _as_tensor3(t, dim, vdim):
    t = [[[list(v) for v in row] for row in plane] for plane in t]
    if len(t) != dim or any(len(v) != vdim for p in t for r in p for v in r):
        raise MalformedInputError("bad shape for rank-3 structure tensor")
    return t


@dataclass
class LYAlgebra:
    dim: int
    binary: list  # binary[i][j] -> Vector(dim)
    ternary: list  # ternary[i][j][k] -> Vector(dim)

    def __post_init__(self):
        self.binary = _as_tensor2(self.binary, self.dim, self.dim)
        self.ternary = _as_tensor3(self.ternary, self.dim, self.dim)

    # -- invariant report (skewness), separated so checkers can prepend it
    def invariant_report(self) -> Report:
        rep = Report()
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                rep.record("invariant:skew-binary", (i, j),
                           linalg.vec_add(self.binary[i][j], self.binary[j][i]))
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    rep.record("invariant:skew-ternary", (i, j, k),
                               linalg.vec_add(self.ternary[i][j][k], self.ternary[j][i][k]))
        return rep

    def bracket(self, x, y):
        return linalg.contract(self.binary, x, y)

    def tri(self, x, y, z):
        return linalg.contract(self.ternary, x, y, z)

    def basis(self, i):
        e = linalg.zero_vec(self.dim)
        e[i] = 1
        return e


def zero_ly(dim: int) -> LYAlgebra:
    z = linalg.zero_vec(dim)
    return LYAlgebra(dim,
                     [[list(z) for _ in range(dim)] for _ in range(dim)],
                     [[[list(z) for _ in range(dim)] for _ in range(dim)]
                      for _ in range(dim)])


@dataclass
class Representation:
    space_dim: int
    rho: list    # rho[i] -> Matrix(V -> V)
    theta: list  # theta[i][j] -> Matrix(V -> V)

    def rho_of(self, x):
        """Matrix of rho(v) for a coefficient vector v over the algebra basis."""
        return linalg.contract(self.rho, x)

    def theta_of(self, x, y):
        return linalg.contract(self.theta, x, y)


def zero_representation(alg_dim: int, space_dim: int) -> Representation:
    return Representation(
        space_dim,
        [linalg.zeros(space_dim, space_dim) for _ in range(alg_dim)],
        [[linalg.zeros(space_dim, space_dim) for _ in range(alg_dim)]
         for _ in range(alg_dim)])


@dataclass
class Cocycle23:
    gamma1: list  # g1[i][j] -> Vector(space_dim)
    gamma2: list  # g2[i][j][k] -> Vector(space_dim)

    def g1_of(self, x, y):
        return linalg.contract(self.gamma1, x, y)

    def g2_of(self, x, y, z):
        return linalg.contract(self.gamma2, x, y, z)

    def is_zero(self) -> bool:
        return (all(not any(v) for row in self.gamma1 for v in row)
                and all(not any(v) for p in self.gamma2 for r in p for v in r))

    def invariant_report(self) -> Report:
        rep = Report()
        n = len(self.gamma1)
        for i in range(n):
            for j in range(i, n):
                rep.record("invariant:skew-gamma1", (i, j),
                           linalg.vec_add(self.gamma1[i][j], self.gamma1[j][i]))
                for k in range(n):
                    rep.record("invariant:skew-gamma2", (i, j, k),
                               linalg.vec_add(self.gamma2[i][j][k], self.gamma2[j][i][k]))
        return rep


def zero_cocycle(alg_dim: int, space_dim: int) -> Cocycle23:
    z = linalg.zero_vec(space_dim)
    return Cocycle23(
        [[list(z) for _ in range(alg_dim)] for _ in range(alg_dim)],
        [[[list(z) for _ in range(alg_dim)] for _ in range(alg_dim)]
         for _ in range(alg_dim)])


# ---------------------------------------------------------------------------
# axiom checkers

def check_ly_axioms(A: LYAlgebra) -> Report:
    rep = A.invariant_report()
    n = A.dim
    E = linalg.identity(n)
    b, t = A.binary, A.ternary
    br, tr, ct = A.bracket, A.tri, linalg.contract
    add, sub = linalg.vec_add, linalg.vec_sub
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = br(b[i][j], E[k])
                res = add(res, br(b[j][k], E[i]))
                res = add(res, br(b[k][i], E[j]))
                res = add(res, t[i][j][k])
                res = add(res, t[k][i][j])
                res = add(res, t[j][k][i])
                rep.record("LY-2.1", (i, j, k), res)
                for a in range(n):
                    res = tr(b[i][j], E[k], E[a])
                    res = add(res, tr(b[j][k], E[i], E[a]))
                    res = add(res, tr(b[k][i], E[j], E[a]))
                    rep.record("LY-2.2", (i, j, k, a), res)
    for a in range(n):
        for c in range(n):
            tac = t[a][c]
            for i in range(n):
                for j in range(n):
                    res = ct(tac, b[i][j])
                    res = sub(res, br(tac[i], E[j]))
                    res = sub(res, ct(b[i], tac[j]))
                    rep.record("LY-2.3", (a, c, i, j), res)
                    for k in range(n):
                        res = ct(tac, t[i][j][k])
                        res = sub(res, tr(tac[i], E[j], E[k]))
                        res = sub(res, ct(t[i], tac[j], E[k]))
                        res = sub(res, ct(t[i][j], tac[k]))
                        rep.record("LY-2.4", (a, c, i, j, k), res)
    return rep


def derived_D(A: LYAlgebra, r: Representation):
    """D[i][j] = theta(e_j,e_i) - theta(e_i,e_j) - rho([e_i,e_j])
    + rho(e_i)rho(e_j) - rho(e_j)rho(e_i)."""
    n = A.dim
    # each product rho_i rho_j once; both orders are read from the table
    prod = [[linalg.mat_mul(r.rho[i], r.rho[j]) for j in range(n)]
            for i in range(n)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            m = linalg.mat_sub(r.theta[j][i], r.theta[i][j])
            m = linalg.mat_sub(m, r.rho_of(A.binary[i][j]))
            m = linalg.mat_add(m, prod[i][j])
            m = linalg.mat_sub(m, prod[j][i])
            row.append(m)
        out.append(row)
    return out


def check_representation(A: LYAlgebra, r: Representation) -> Report:
    rep = Report()
    n = A.dim
    E = linalg.identity(n)
    D = derived_D(A, r)
    b, t, rho, theta = A.binary, A.ternary, r.rho, r.theta
    ct, mm = linalg.contract, linalg.mat_mul
    add, sub = linalg.mat_add, linalg.mat_sub
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = ct(theta, b[i][j], E[k])
                res = sub(res, mm(theta[i][k], rho[j]))
                res = add(res, mm(theta[j][k], rho[i]))
                rep.record("REP-2.5", (i, j, k), linalg.flatten(res))

                res = mm(D[i][j], rho[k])
                res = sub(res, mm(rho[k], D[i][j]))
                res = sub(res, ct(rho, t[i][j][k]))
                rep.record("REP-2.6", (i, j, k), linalg.flatten(res))

                res = ct(theta[i], b[j][k])
                res = sub(res, mm(rho[j], theta[i][k]))
                res = add(res, mm(rho[k], theta[i][j]))
                rep.record("REP-2.7", (i, j, k), linalg.flatten(res))

    for a in range(n):
        for c in range(n):
            tac = t[a][c]
            for i in range(n):
                for j in range(n):
                    res = mm(D[a][c], theta[i][j])
                    res = sub(res, mm(theta[i][j], D[a][c]))
                    res = sub(res, ct(theta, tac[i], E[j]))
                    res = sub(res, ct(theta[i], tac[j]))
                    rep.record("REP-2.8", (a, c, i, j), linalg.flatten(res))

    for a in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    res = ct(theta[a], t[i][j][k])
                    res = sub(res, mm(theta[j][k], theta[a][i]))
                    res = add(res, mm(theta[i][k], theta[a][j]))
                    res = sub(res, mm(D[i][j], theta[a][k]))
                    rep.record("REP-2.9", (a, i, j, k), linalg.flatten(res))

    # redundant consequences of the definition, kept as a consistency self-test
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = ct(D, b[i][j], E[k])
                res = add(res, ct(D, b[j][k], E[i]))
                res = add(res, ct(D, b[k][i], E[j]))
                rep.record("REP-2.11", (i, j, k), linalg.flatten(res))
    for a in range(n):
        for c in range(n):
            tac = t[a][c]
            for i in range(n):
                for j in range(n):
                    res = mm(D[a][c], D[i][j])
                    res = sub(res, mm(D[i][j], D[a][c]))
                    res = sub(res, ct(D, tac[i], E[j]))
                    res = sub(res, ct(D[i], tac[j]))
                    rep.record("REP-2.12", (a, c, i, j), linalg.flatten(res))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for a in range(n):
                    res = ct(theta, t[i][j][k], E[a])
                    res = sub(res, mm(theta[i][a], theta[k][j]))
                    res = add(res, mm(theta[j][a], theta[k][i]))
                    res = add(res, mm(theta[k][a], D[i][j]))
                    rep.record("REP-2.13", (i, j, k, a), linalg.flatten(res))
    return rep


def adjoint_representation(A: LYAlgebra) -> Representation:
    """rho(x)z = [x,z]; theta(x,y)z = {z,x,y}."""
    n = A.dim
    rho = []
    for i in range(n):
        m = linalg.zeros(n, n)
        for j in range(n):
            col = A.binary[i][j]
            for k in range(n):
                m[k][j] = col[k]
        rho.append(m)
    theta = []
    for i in range(n):
        row = []
        for j in range(n):
            m = linalg.zeros(n, n)
            for c in range(n):
                col = A.ternary[c][i][j]
                for k in range(n):
                    m[k][c] = col[k]
            row.append(m)
        theta.append(row)
    return Representation(n, rho, theta)


def check_cocycle23(A: LYAlgebra, r: Representation, c: Cocycle23) -> Report:
    rep = c.invariant_report()
    n = A.dim
    E = linalg.identity(n)
    D = derived_D(A, r)
    b, t, g1, g2 = A.binary, A.ternary, c.gamma1, c.gamma2
    ct, mv = linalg.contract, linalg.mat_vec
    va, vs = linalg.vec_add, linalg.vec_sub

    for i1 in range(n):
        for j1 in range(n):
            for k in range(n):
                res = linalg.vec_neg(mv(r.rho[i1], g1[j1][k]))
                res = vs(res, mv(r.rho[j1], g1[k][i1]))
                res = vs(res, mv(r.rho[k], g1[i1][j1]))
                res = va(res, ct(g1, b[i1][j1], E[k]))
                res = va(res, ct(g1, b[j1][k], E[i1]))
                res = va(res, ct(g1, b[k][i1], E[j1]))
                res = va(res, g2[i1][j1][k])
                res = va(res, g2[k][i1][j1])
                res = va(res, g2[j1][k][i1])
                rep.record("COC-2.14", (i1, j1, k), res)

    for i1 in range(n):
        for j1 in range(n):
            t11 = t[i1][j1]
            for i2 in range(n):
                for j2 in range(n):
                    res = mv(r.theta[i1][j2], g1[j1][i2])
                    res = va(res, mv(r.theta[j1][j2], g1[i2][i1]))
                    res = va(res, mv(r.theta[i2][j2], g1[i1][j1]))
                    res = va(res, ct(g2, b[i1][j1], E[i2], E[j2]))
                    res = va(res, ct(g2, b[j1][i2], E[i1], E[j2]))
                    res = va(res, ct(g2, b[i2][i1], E[j1], E[j2]))
                    rep.record("COC-2.15", (i1, j1, i2, j2), res)

                    res = linalg.vec_neg(mv(r.rho[i2], g2[i1][j1][j2]))
                    res = va(res, mv(r.rho[j2], g2[i1][j1][i2]))
                    res = va(res, ct(g2[i1][j1], b[i2][j2]))
                    res = va(res, mv(D[i1][j1], g1[i2][j2]))
                    res = vs(res, ct(g1, t11[i2], E[j2]))
                    res = vs(res, ct(g1[i2], t11[j2]))
                    rep.record("COC-2.16", (i1, j1, i2, j2), res)

                    for k in range(n):
                        res = linalg.vec_neg(mv(r.theta[j2][k], g2[i1][j1][i2]))
                        res = va(res, mv(r.theta[i2][k], g2[i1][j1][j2]))
                        res = va(res, mv(D[i1][j1], g2[i2][j2][k]))
                        res = vs(res, mv(D[i2][j2], g2[i1][j1][k]))
                        res = vs(res, ct(g2, t11[i2], E[j2], E[k]))
                        res = vs(res, ct(g2[i2], t11[j2], E[k]))
                        res = va(res, ct(g2[i1][j1], t[i2][j2][k]))
                        res = vs(res, ct(g2[i2][j2], t11[k]))
                        rep.record("COC-2.17", (i1, j1, i2, j2, k), res)
    return rep


def gamma_ad(A: LYAlgebra) -> Cocycle23:
    """The pair (-[.,.], -{.,.,.}) as a cocycle for the adjoint representation."""
    return Cocycle23(
        [[linalg.vec_neg(v) for v in row] for row in A.binary],
        [[[linalg.vec_neg(v) for v in row] for row in plane] for plane in A.ternary])


# ---------------------------------------------------------------------------
# constructors

def check_jacobi(binary) -> Report:
    """Skewness and the Jacobi identity for a would-be Lie bracket tensor."""
    n = len(binary)
    A = LYAlgebra(n, binary, zero_ly(n).ternary)
    rep = Report()
    for i in range(n):
        for j in range(i, n):
            rep.record("invariant:skew-binary", (i, j),
                       linalg.vec_add(binary[i][j], binary[j][i]))
    E = linalg.identity(n)
    b = A.binary
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = A.bracket(b[i][j], E[k])
                res = linalg.vec_add(res, A.bracket(b[j][k], E[i]))
                res = linalg.vec_add(res, A.bracket(b[k][i], E[j]))
                rep.record("jacobi", (i, j, k), res)
    return rep


def ly_from_lie(lie_binary) -> LYAlgebra:
    """{x,y,z} = [[x,y],z] on top of a Lie bracket."""
    jac = check_jacobi(lie_binary)
    if not jac.ok:
        raise PreconditionError(
            "input bracket is not a Lie bracket: %s" % sorted(jac.laws()))
    n = len(lie_binary)
    lie = LYAlgebra(n, lie_binary, zero_ly(n).ternary)
    E = linalg.identity(n)
    ternary = [[[lie.bracket(lie.binary[i][j], E[k])
                 for k in range(n)] for j in range(n)] for i in range(n)]
    return LYAlgebra(n, lie_binary, ternary)


def check_leibniz(star) -> Report:
    """Left Leibniz law x*(y*z) = (x*y)*z + y*(x*z) for a product tensor."""
    n = len(star)
    ct = linalg.contract
    rep = Report()
    E = linalg.identity(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = ct(star[i], star[j][k])
                res = linalg.vec_sub(res, ct(star, star[i][j], E[k]))
                res = linalg.vec_sub(res, ct(star[j], star[i][k]))
                rep.record("leibniz-left", (i, j, k), res)
    return rep


def ly_from_leibniz(star) -> LYAlgebra:
    """[x,y] = x*y - y*x and {x,y,z} = -(x*y)*z on top of a left Leibniz product."""
    law = check_leibniz(star)
    if not law.ok:
        raise PreconditionError("input product violates the left Leibniz law")
    n = len(star)
    E = linalg.identity(n)
    binary = [[linalg.vec_sub(star[i][j], star[j][i])
               for j in range(n)] for i in range(n)]
    ternary = [[[linalg.vec_neg(linalg.contract(star, star[i][j], E[k]))
                 for k in range(n)] for j in range(n)] for i in range(n)]
    out = LYAlgebra(n, binary, ternary)
    chk = check_ly_axioms(out)
    if not chk.ok:
        raise PreconditionError(
            "Leibniz input produced an invalid bracket pair: %s" % sorted(chk.laws()))
    return out


def joint_index(i: int, alpha: int, order: int) -> int:
    """Flatten (basis index i, semigroup element alpha) to i*order + alpha.

    This single convention coordinatizes every tensor product with the
    semigroup algebra throughout the package.
    """
    return i * order + alpha


def split_joint(m: int, order: int):
    return divmod(m, order)


def ly_tensor_semigroup(A: LYAlgebra, s: FiniteCommutativeSemigroup) -> LYAlgebra:
    """[a@x, b@y] = [a,b]@xy and {a@x, b@y, c@z} = {a,b,c}@xyz on L (x) K-Omega."""
    if not validate_semigroup(s).ok:
        raise PreconditionError("semigroup fails validation")
    n, m = A.dim, s.order
    N = n * m
    zero = linalg.zero_vec(N)
    binary = [[list(zero) for _ in range(N)] for _ in range(N)]
    ternary = [[[list(zero) for _ in range(N)] for _ in range(N)] for _ in range(N)]
    for i in range(n):
        for a in range(m):
            p = joint_index(i, a, m)
            for j in range(n):
                for b in range(m):
                    q = joint_index(j, b, m)
                    ab = product(s, a, b)
                    for k, vk in enumerate(A.binary[i][j]):
                        if vk:
                            binary[p][q][joint_index(k, ab, m)] = vk
                    for k in range(n):
                        for g in range(m):
                            r = joint_index(k, g, m)
                            abg = product(s, ab, g)
                            for l, vl in enumerate(A.ternary[i][j][k]):
                                if vl:
                                    ternary[p][q][r][joint_index(l, abg, m)] = vl
    return LYAlgebra(N, binary, ternary)
