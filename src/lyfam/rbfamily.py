"""Twisted Rota-Baxter families on Lie-Yamaguti algebras.

A context bundles the algebra L, a representation (V; rho, theta), a
(2,3)-cocycle (Gamma1, Gamma2), an indexing commutative semigroup Omega and
the family of linear maps T_alpha : V -> L.  This module verifies the two
defining laws, morphisms, and builds every derived structure: Reynolds and
Nijenhuis families, the tensor-product identity family, the single-operator
collapse over the trivial semigroup, the twisted semidirect product, and the
graph characterization.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

from . import linalg
from .errors import PreconditionError
from .ly import (Cocycle23, LYAlgebra, Representation, _cocycle_report,
                 _representation_report, adjoint_representation,
                 check_ly_axioms, derived_D, gamma_ad, joint_table,
                 ly_tensor_semigroup, require_fit)
from .omega import _screened
from .report import Report
from .semigroup import FiniteCommutativeSemigroup, product, product_of, \
    trivial_semigroup, validate_semigroup


@dataclass
class TwistedRBContext:
    algebra: LYAlgebra
    rep: Representation
    cocycle: Cocycle23
    semigroup: FiniteCommutativeSemigroup
    family: list  # family[alpha] -> Matrix(V -> L)

    def __post_init__(self):
        require_fit(self.algebra, self.rep, self.cocycle)
        n, nv = self.algebra.dim, self.rep.space_dim
        for T in self.family:
            if len(T) != n or any(len(row) != nv for row in T):
                raise PreconditionError("family matrix shape must be dim(L) x dim(V)")
        if len(self.family) != self.semigroup.order:
            raise PreconditionError("one family matrix per semigroup element required")

    @property
    def dimL(self):
        return self.algebra.dim

    @property
    def dimV(self):
        return self.rep.space_dim

    def T(self, alpha, u):
        return linalg.mat_vec(self.family[alpha], u)

    def validate(self) -> Report:
        """Full component validation (semigroup, algebra, rep, cocycle); the
        shapes were checked when the context was built."""
        rep = Report()
        rep.extend(validate_semigroup(self.semigroup))
        rep.extend(check_ly_axioms(self.algebra))
        rep.extend(_representation_report(self.algebra, self.rep))
        rep.extend(_cocycle_report(self.algebra, self.rep, self.cocycle))
        return rep


def zero_family(dimL, dimV, s):
    return linalg.zeros(s.order, dimL, dimV)


# ---------------------------------------------------------------------------
# contractions at the images of a family
#
# Every family-level sweep evaluates the structure tensors at images
# x = T_a(u_i) of basis vectors, and each such value depends on one or two
# of the sweep's indices only.  A sweep therefore lists its images once, at
# the flat index p = a * dimV + i, and contracts at each pair of images once.

def images(maps, ncols):
    """The columns of the matrices in turn: entry a * ncols + i is
    maps[a] applied to the basis vector u_i."""
    return [col for m in maps for col in linalg.transpose(m, ncols)]


class ImageTables:
    """A context's tensors contracted at every pair of images (X_p, Y_q).

    Each table is built on first use, once for the sweep or the complex
    that holds it, in one linalg.contract_grid call.
    Operators on V are stored by their columns, so their value at a basis
    vector u_k is a lookup.  ternary and gamma2 leave their last slot free,
    so a triple term is a one-argument contraction, and triples contracts
    it at every image of a list.  D is the derived D of the context's
    algebra and representation, or None where no table of D is read.
    """

    def __init__(self, ctx: TwistedRBContext, D, X, Y):
        self.ctx, self.derived, self.X, self.Y = ctx, D, X, Y

    def _pairs(self, table, columns=None):
        return linalg.contract_grid(table, self.X, self.Y, columns=columns)

    @cached_property
    def rho(self):
        """rho[p][k] = rho(X_p) u_k"""
        return linalg.contract_grid(self.ctx.rep.rho, self.X,
                                    columns=self.ctx.dimV)

    @cached_property
    def bracket(self):
        """bracket[p][q] = [X_p, Y_q]"""
        return self._pairs(self.ctx.algebra.binary)

    @cached_property
    def gamma1(self):
        """gamma1[p][q] = Gamma1(X_p, Y_q)"""
        return self._pairs(self.ctx.cocycle.gamma1)

    @cached_property
    def theta(self):
        """theta[p][q][k] = theta(X_p, Y_q) u_k"""
        return self._pairs(self.ctx.rep.theta, self.ctx.dimV)

    @cached_property
    def D(self):
        """D[p][q][k] = D(X_p, Y_q) u_k"""
        return self._pairs(self.derived, self.ctx.dimV)

    @cached_property
    def ternary(self):
        """ternary[p][q][l] = {X_p, Y_q, e_l}"""
        return self._pairs(self.ctx.algebra.ternary)

    @cached_property
    def gamma2(self):
        """gamma2[p][q][l] = Gamma2(X_p, Y_q, e_l)"""
        return self._pairs(self.ctx.cocycle.gamma2)

    def triples(self, table, Z):
        """table[p][q][t] = table(X_p, Y_q, Z_t) for table self.ternary or
        self.gamma2: a grid over its pairs at unit vectors, so each value is
        contract(table[p][q], Z_t) term for term."""
        return linalg.contract_grid(table, linalg.identity(len(self.X)),
                                    linalg.identity(len(self.Y)), Z)


def induced_products(tt: ImageTables):
    """The products a family induces on V, as (binary, ternary) tables.

    tt holds the contractions at the family's own images, X = Y = T =
    images(ctx.family, dimV).  With x = T_a u_i, y = T_b u_j, z = T_g u_k:
    binary[a][b][i][j] = rho(x)u_j - rho(y)u_i + Gamma1(x, y) and
    ternary[a][b][g][i][j][k] = D(x, y)u_k + theta(y, z)u_i - theta(x, z)u_j
    + Gamma2(x, y, z).
    """
    nv, M = tt.ctx.dimV, tt.ctx.semigroup.order
    vsum, g2 = linalg.vec_sum, tt.triples(tt.gamma2, tt.X)
    # with dim L = 0 every contraction is a table without entries, which
    # contract gives as []; the product is then the zero vector of V
    zero = linalg.zero_vec
    binary = [[[[None] * nv for _ in range(nv)] for _ in range(M)]
              for _ in range(M)]
    ternary = [[[[[[None] * nv for _ in range(nv)] for _ in range(nv)]
                 for _ in range(M)] for _ in range(M)] for _ in range(M)]
    for a, b in itertools.product(range(M), repeat=2):
        for i, j in itertools.product(range(nv), repeat=2):
            p, q = a * nv + i, b * nv + j
            binary[a][b][i][j] = vsum("+-+", tt.rho[p][j], tt.rho[q][i],
                                      tt.gamma1[p][q]) or zero(nv)
            duv = tt.D[p][q]
            for g, k in itertools.product(range(M), range(nv)):
                t = g * nv + k
                ternary[a][b][g][i][j][k] = vsum(
                    "++-+", duv[k], tt.theta[q][t][i], tt.theta[p][t][j],
                    g2[p][q][t]) or zero(nv)
    return binary, ternary


def family_tables(ctx: TwistedRBContext) -> ImageTables:
    """The tables at the family's own images, X = Y = images(ctx.family,
    dimV), with the derived D of the context: what the family laws, the
    induced structures and the NS family read."""
    T = images(ctx.family, ctx.dimV)
    return ImageTables(ctx, derived_D(ctx.algebra, ctx.rep), T, T)


def check_twisted_rb_family(ctx: TwistedRBContext) -> Report:
    tt = family_tables(ctx)
    return family_check(tt, *induced_products(tt))


def family_laws(tt: ImageTables, binary, ternary):
    """The residuals of RBF-3.1 at (a, b, i, j) and RBF-3.2 at (a, b, g, i, j,
    k), from the tables at the family's images and its induced_products."""
    ctx, T, F = tt.ctx, tt.X, tt.ctx.family
    t, nv, mv, sub = ctx.semigroup.table, ctx.dimV, linalg.mat_vec, linalg.vec_sub
    return (lambda a, b, i, j: sub(tt.bracket[a * nv + i][b * nv + j],
                                   mv(F[t[a][b]], binary[a][b][i][j])),
            lambda a, b, g, i, j, k: sub(
                linalg.contract(tt.ternary[a * nv + i][b * nv + j], T[g * nv + k]),
                mv(F[t[t[a][b]][g]], ternary[a][b][g][i][j][k])))


def family_screened(tt: ImageTables, binary, ternary, skew: bool) -> bool:
    """Whether omega._screened finds that both family laws hold; skew is
    whether the brackets and the cocycle are.  With them skew over a
    commutative semigroup, both residuals change sign when x = T_a u_i and
    y = T_b u_j trade their joint labels: [x, y] and {x, y, -} are skew; so
    is the induced rho(x)u_j - rho(y)u_i + Gamma1(x, y), and D(x, y)u_k
    + theta(y, z)u_i - theta(x, z)u_j + Gamma2(x, y, z), as D is skew with
    the bracket and Gamma2 in its first pair; and T_ab = T_ba.  So the
    residual at labels p > q is minus the one at q < p, and 0 at p = q."""
    law1, law2 = family_laws(tt, binary, ternary)
    return _screened(tt.ctx.semigroup, tt.ctx.dimV, skew,
                     ((law1, 2, 2, 0, 0), (law2, 3, 3, 0, 0)))


def family_check(tt: ImageTables, binary, ternary) -> Report:
    """The report of the family laws: empty when family_screened finds
    that they hold, else family_report's."""
    A, c = tt.ctx.algebra, tt.ctx.cocycle
    skew = A.invariant_report().ok and c.invariant_report().ok
    if family_screened(tt, binary, ternary, skew):
        return Report()
    return family_report(tt, binary, ternary)


def family_report(tt: ImageTables, binary, ternary) -> Report:
    """The two family laws (family_laws) at every tuple, unscreened."""
    m, u = tt.ctx.semigroup.elements, range(tt.ctx.dimV)
    law1, law2 = family_laws(tt, binary, ternary)
    rep = Report().sweep([m, m, u, u], [("RBF-3.1", law1)])
    return rep.sweep([m, m, m, u, u, u], [("RBF-3.2", law2)])


def check_morphism(ctx: TwistedRBContext, ctx2: TwistedRBContext,
                   eta, zeta, literal_theta: bool = False) -> Report:
    """Morphism laws for (eta: L -> L', zeta: V -> V').

    The default checks zeta(theta(x,y)u) = theta'(eta x, eta y) zeta(u); with
    literal_theta=True the right side acts on u directly (only well-typed when
    dim V = dim V').
    """
    A, A2 = ctx.algebra, ctx2.algebra
    n = A.dim
    # eta must be an LY-algebra homomorphism
    eb = [linalg.mat_vec(eta, A.basis(i)) for i in range(n)]
    for i in range(n):
        for j in range(n):
            d = linalg.vec_sub(linalg.mat_vec(eta, A.binary[i][j]),
                               A2.bracket(eb[i], eb[j]))
            if any(d):
                raise PreconditionError(
                    "eta does not preserve the binary bracket at (%d,%d)" % (i, j))
            for k in range(n):
                d = linalg.vec_sub(linalg.mat_vec(eta, A.ternary[i][j][k]),
                                   A2.tri(eb[i], eb[j], eb[k]))
                if any(d):
                    raise PreconditionError(
                        "eta does not preserve the ternary bracket at (%d,%d,%d)"
                        % (i, j, k))
    F, F2, c2, r2 = ctx.family, ctx2.family, ctx2.cocycle, ctx2.rep
    mm, mv, sub, flat = linalg.mat_mul, linalg.mat_vec, linalg.vec_sub, \
        linalg.flatten

    def theta_law(i, j):
        lhs = mm(zeta, ctx.rep.theta[i][j])
        tprime = r2.theta_of(eb[i], eb[j])
        if literal_theta:
            if ctx.dimV != ctx2.dimV:
                raise PreconditionError(
                    "the literal theta-morphism variant needs dim V = dim V'")
            rhs = tprime
        else:
            rhs = mm(tprime, zeta)
        return flat(linalg.mat_sub(lhs, rhs))

    r = range(n)
    rep = Report().sweep([ctx.semigroup.elements], [
        ("MOR-3.3-family", lambda a: flat(linalg.mat_sub(
            mm(eta, F[a]), mm(F2[a], zeta))))])
    rep.sweep([r, r], [
        ("MOR-3.3-gamma1", lambda i, j: sub(
            mv(zeta, ctx.cocycle.gamma1[i][j]), c2.g1_of(eb[i], eb[j]))),
        ("MOR-3.3-gamma2", lambda i, j: [sub(
            mv(zeta, ctx.cocycle.gamma2[i][j][k]),
            c2.g2_of(eb[i], eb[j], eb[k])) for k in r], 1)])
    return rep.sweep([r], [
        ("MOR-3.4-rho", lambda i: flat(linalg.mat_sub(
            mm(zeta, ctx.rep.rho[i]), mm(r2.rho_of(eb[i]), zeta)))),
        ("MOR-3.4-theta", lambda i: [theta_law(i, j) for j in r], 1)])


# ---------------------------------------------------------------------------
# Reynolds families

def _require_operator_shape(A: LYAlgebra, s, F, what) -> None:
    """Refuse F unless it is one dim(L) x dim(L) matrix per element of s."""
    d = A.dim
    if len(F) != s.order or any(
            len(Fa) != d or any(len(row) != d for row in Fa) for Fa in F):
        raise PreconditionError(
            "a %s family over this semigroup and algebra needs order %d (one "
            "matrix per index) and dims %d x %d (dim(L) x dim(L))"
            % (what, s.order, d, d))


def reynolds_context(A: LYAlgebra, s, T):
    """(the adjoint context of T, its induced_products, the report of its
    family laws): the one check of the Reynolds laws, REY-bin and REY-ter."""
    _require_operator_shape(A, s, T, "Reynolds")
    ctx = TwistedRBContext(A, adjoint_representation(A), gamma_ad(A), s,
                           [[list(row) for row in m] for m in T])
    tt = family_tables(ctx)
    products = induced_products(tt)
    return ctx, products, Report([
        replace(v, law={"RBF-3.1": "REY-bin", "RBF-3.2": "REY-ter"}[v.law])
        for v in family_check(tt, *products).violations])


def check_reynolds_family(A: LYAlgebra, s, T) -> Report:
    """[Tx, Ty] = T_ab([Tx, y] + [x, Ty] - [Tx, Ty]) (REY-bin) and its
    ternary analogue (REY-ter), read as the family laws RBF-3.1/3.2 of the
    adjoint context (L; ad, -[.,.], -{.,.,.}).  On an LY algebra the terms
    agree one by one: rho(Tx)y - rho(Ty)x = [Tx, y] + [x, Ty]; the D of ad
    is {x, y, -}, by LY-2.1 and skewness; theta(Ty, Tz)x - theta(Tx, Tz)y
    = {x, Ty, Tz} + {Tx, y, Tz}; Gamma is minus the brackets.  On an algebra
    that fails the LY laws the residuals are the adjoint context's."""
    return reynolds_context(A, s, T)[2]


def reynolds_as_twisted(A: LYAlgebra, s, T) -> TwistedRBContext:
    ctx, _, chk = reynolds_context(A, s, T)
    if not chk.ok:
        raise PreconditionError(
            "not a Reynolds family: %s" % sorted(chk.laws()))
    return ctx


def check_relative_rb_family(ctx: TwistedRBContext) -> Report:
    if not ctx.cocycle.is_zero():
        raise PreconditionError("a relative Rota-Baxter family requires Gamma = 0")
    return check_twisted_rb_family(ctx)


# ---------------------------------------------------------------------------
# identity family on the tensor product with the semigroup algebra

def _inclusions(n, s):
    """id_alpha : L -> L (x) K-Omega, x -> x (x) alpha, for each alpha."""
    E, z = linalg.identity(n), linalg.zero_vec(n)
    return [joint_table(s, (n,), lambda al, ix, a=a: list(
        E[ix[0]] if al[0] == a else z)) for a in s.elements]


def identity_family(A: LYAlgebra, s: FiniteCommutativeSemigroup) -> TwistedRBContext:
    """id_alpha : L -> L (x) K-Omega, a -> a (x) alpha, twisted by (-[.,.], -{.,.,.})."""
    if not validate_semigroup(s).ok:
        raise PreconditionError("semigroup fails validation")
    n = A.dim
    Lhat = ly_tensor_semigroup(A, s)
    adj, g = adjoint_representation(A), gamma_ad(A)
    # representation of Lhat on L: rho(a@alpha)b = [a,b], theta(a@alpha,b@beta)c = {c,a,b}
    rep = Representation(n, joint_table(s, (n,), lambda al, ix: adj.rho[ix[0]]),
                         joint_table(s, (n, n), lambda al, ix: (
                             adj.theta[ix[0]][ix[1]])))
    # the ternary part needs weight 2: the derived D plus the two theta terms
    # contribute 3{u,v,w}, while the binary side's two rho terms only
    # contribute 2[u,v]
    coc = Cocycle23(
        joint_table(s, (n, n), lambda al, ix: list(g.gamma1[ix[0]][ix[1]])),
        joint_table(s, (n, n, n), lambda al, ix: [
            2 * v for v in g.gamma2[ix[0]][ix[1]][ix[2]]]))
    return TwistedRBContext(Lhat, rep, coc, s, _inclusions(n, s))


# ---------------------------------------------------------------------------
# Nijenhuis families

def check_nijenhuis_family(A: LYAlgebra, s, N) -> Report:
    _require_operator_shape(A, s, N, "Nijenhuis")
    t, m, n, d = s.table, s.elements, range(A.dim), A.dim
    E = linalg.identity(d)
    X = [linalg.mat_vec(N[a], e) for a in m for e in E]  # X[a * d + i]
    br, tr, mv, vsum = A.bracket, A.tri, linalg.mat_vec, linalg.vec_sum

    def binary(a, b, i, j):
        x, y, Nx, Ny, Nab = E[i], E[j], X[a * d + i], X[b * d + j], N[t[a][b]]
        lhs = br(Nx, Ny)
        inner = vsum("++-", br(Nx, y), br(x, Ny), mv(Nab, br(x, y)))
        return linalg.vec_sub(lhs, mv(Nab, inner))

    def ternary(a, b, g, i, j, k):
        x, y, z = E[i], E[j], E[k]
        Nx, Ny, Nz = X[a * d + i], X[b * d + j], X[g * d + k]
        Nabg = N[t[t[a][b]][g]]
        lhs = tr(Nx, Ny, Nz)
        t1 = vsum("+++", tr(x, Ny, Nz), tr(Nx, y, Nz), tr(Nx, Ny, z))
        t2 = vsum("+++", tr(Nx, y, z), tr(x, Ny, z), tr(x, y, Nz))
        rhs = vsum("+-+", mv(Nabg, t1), mv(Nabg, mv(Nabg, t2)),
                   mv(Nabg, mv(Nabg, mv(Nabg, tr(x, y, z)))))
        return linalg.vec_sub(lhs, rhs)

    rep = Report().sweep([m, m, n, n], [("NIJ-bin", binary)])
    return rep.sweep([m, m, m, n, n, n], [("NIJ-ter", ternary)])


def nijenhuis_induced_context(A: LYAlgebra, s, N) -> TwistedRBContext:
    """Deformed structure on L (x) K-Omega induced by a Nijenhuis family."""
    chk = check_nijenhuis_family(A, s, N)
    if not chk.ok:
        raise PreconditionError(
            "not a Nijenhuis family: %s" % sorted(chk.laws()))
    n, t, E = A.dim, s.table, linalg.identity(A.dim)
    br, tr, mv, vsum = A.bracket, A.tri, linalg.mat_vec, linalg.vec_sum
    NE = [[mv(Na, e) for e in E] for Na in N]  # NE[alpha][i] = N_alpha e_i

    def args(al, ix):
        """The basis vectors x, y(, z), their images N_alpha x, N_beta y
        (, N_gamma z), and N at the product of the elements."""
        g = al[0]
        for a in al[1:]:
            g = t[g][a]
        return [E[i] for i in ix], [NE[a][i] for a, i in zip(al, ix)], N[g]

    def binary(al, ix):
        (x, y), (Nx, Ny), Nab = args(al, ix)
        return vsum("++-", br(Nx, y), br(x, Ny), mv(Nab, br(x, y)))

    def ternary(al, ix):
        (x, y, z), (Nx, Ny, Nz), Ng = args(al, ix)
        one = vsum("+++", tr(Nx, y, z), tr(x, Ny, z), tr(x, y, Nz))
        return vsum("+++-+", tr(x, Ny, Nz), tr(Nx, y, Nz), tr(Nx, Ny, z),
                    mv(Ng, one), mv(Ng, mv(Ng, tr(x, y, z))))

    def gamma2(al, ix):
        (x, y, z), (Nx, Ny, Nz), Ng = args(al, ix)
        return linalg.vec_neg(mv(Ng, vsum(
            "+++-", tr(Nx, y, z), tr(x, Ny, z), tr(x, y, Nz),
            mv(Ng, tr(x, y, z)))))

    Ldef = LYAlgebra(n * s.order, joint_table(s, (n, n), binary, place=True),
                     joint_table(s, (n, n, n), ternary, place=True))
    # representation on L, column by column: rho_N(x@alpha)y = [N_alpha x, y];
    # theta_N(x@alpha, y@beta)z = {z, N_alpha x, N_beta y}
    rho = joint_table(s, (n,), lambda al, ix: linalg.transpose(
        [br(NE[al[0]][ix[0]], e) for e in E], n))
    theta = joint_table(s, (n, n), lambda al, ix: linalg.transpose(
        [tr(e, NE[al[0]][ix[0]], NE[al[1]][ix[1]]) for e in E], n))
    g1 = joint_table(s, (n, n), lambda al, ix: linalg.vec_neg(
        mv(N[t[al[0]][al[1]]], br(E[ix[0]], E[ix[1]]))))
    return TwistedRBContext(Ldef, Representation(n, rho, theta),
                            Cocycle23(g1, joint_table(s, (n, n, n), gamma2)),
                            s, _inclusions(n, s))


# ---------------------------------------------------------------------------
# collapse to a single operator over the trivial semigroup

def bar_operator(ctx: TwistedRBContext) -> TwistedRBContext:
    """Collapse a family to one operator on V (x) K-Omega (trivial index set)."""
    chk = check_twisted_rb_family(ctx)
    if not chk.ok:
        raise PreconditionError("input is not a twisted Rota-Baxter family")
    r, c, s = ctx.rep, ctx.cocycle, ctx.semigroup
    n, nv, NV = ctx.dimL, ctx.dimV, ctx.dimV * s.order
    rho_cols = [list(zip(*m)) for m in r.rho]
    theta_cols = [[list(zip(*m)) for m in row] for row in r.theta]
    # rho(x@a) = rho(x) (x) a and theta(x@a, y@b) = theta(x, y) (x) ab on
    # V (x) K-Omega, by their columns: column u@g is column u of rho(x)
    # placed at ag, and of theta(x, y) placed at abg
    rho = joint_table(s, (n, nv), lambda al, ix: rho_cols[ix[0]][ix[1]],
                      place=True)
    theta = joint_table(s, (n, n, nv), lambda al, ix: (
        theta_cols[ix[0]][ix[1]][ix[2]]), place=True)
    rbar = Representation(NV, [linalg.transpose(m, NV) for m in rho],
                          [[linalg.transpose(m, NV) for m in row]
                           for row in theta])
    cbar = Cocycle23(
        joint_table(s, (n, n), lambda al, ix: c.gamma1[ix[0]][ix[1]],
                    place=True),
        joint_table(s, (n, n, n), lambda al, ix: c.gamma2[ix[0]][ix[1]][ix[2]],
                    place=True))
    # Tbar(u@a) = T_a(u)@a: row x@a of Tbar is row x of T_a placed at a
    Tbar = joint_table(s, (n,), lambda al, ix: ctx.family[al[0]][ix[0]],
                       place=True)
    return TwistedRBContext(ly_tensor_semigroup(ctx.algebra, s), rbar, cbar,
                            trivial_semigroup(), [Tbar])


# ---------------------------------------------------------------------------
# semidirect product and the graph characterization

def semidirect_product(A: LYAlgebra, r: Representation, c: Cocycle23) -> LYAlgebra:
    """LY structure on L + V twisted by the cocycle, on the basis of the n
    vectors (e_i, 0) and then the nv vectors (0, u_k):
    [(x, u), (y, v)] = ([x, y], rho(x)v - rho(y)u + Gamma1(x, y)) and
    {(x, u), (y, v), (z, w)} = ({x, y, z}, D(x, y)w - theta(x, z)v
    + theta(y, z)u + Gamma2(x, y, z)).

    At basis vectors at most one term of each part is nonzero, so every
    entry is read from the tables of A, rho, theta, D and the cocycle, with
    its sign, and with zero coordinates as the int 0."""
    require_fit(A, r, c)
    n, nv = A.dim, r.space_dim
    N, zl, tp = n + nv, [0] * n, linalg.transpose
    # rho(e_i)u_k at rc[i][k]; theta(e_i, e_j)u_k and D(e_i, e_j)u_k at
    # tc[i][j][k] and dc[i][j][k]
    rc = [tp(m, nv) for m in r.rho]
    tc, dc = ([[tp(m, nv) for m in row] for row in X]
              for X in (r.theta, derived_D(A, r)))

    def entry(v, sign=1):
        return [sign * x if x else 0 for x in v]

    binary = [[[0] * N for _ in range(N)] for _ in range(N)]
    ternary = [[[[0] * N for _ in range(N)] for _ in range(N)]
               for _ in range(N)]
    for i, j in itertools.product(range(n), repeat=2):
        binary[i][j] = entry(A.binary[i][j]) + entry(c.gamma1[i][j])
        for k in range(n):
            ternary[i][j][k] = entry(A.ternary[i][j][k]) + \
                entry(c.gamma2[i][j][k])
        # one V slot, third, second or first: D(x, y)w, -theta(x, z)v and
        # theta(y, z)u
        for k in range(nv):
            ternary[i][j][n + k] = zl + entry(dc[i][j][k])
            ternary[i][n + k][j] = zl + entry(tc[i][j][k], -1)
            ternary[n + k][i][j] = zl + entry(tc[i][j][k])
    for i, k in itertools.product(range(n), range(nv)):
        binary[i][n + k] = zl + entry(rc[i][k])
        binary[n + k][i] = zl + entry(rc[i][k], -1)
    return LYAlgebra(N, binary, ternary)


def check_graph_subalgebra_family(ctx: TwistedRBContext) -> bool:
    """Whether the graphs Gr(T_alpha) form a subalgebra family of the
    twisted semidirect product.  Gr(T_a) is {(T_a v, v)}, so w lies in it
    exactly when its L part is T_a of its V part."""
    s, n, nv = ctx.semigroup, ctx.dimL, ctx.dimV
    sd = semidirect_product(ctx.algebra, ctx.rep, ctx.cocycle)
    # graph[a][i] = (T_a u_i, u_i)
    graph = [[ctx.T(a, u) + u for u in linalg.identity(nv)]
             for a in s.elements]

    def in_graph(a, w):
        return w[:n] == ctx.T(a, w[n:])

    r, m = range(nv), s.elements
    return (all(in_graph(product(s, a, b),
                         sd.bracket(graph[a][i], graph[b][j]))
                for a, b, i, j in itertools.product(m, m, r, r))
            and all(in_graph(product_of(s, (a, b, g)),
                             sd.tri(graph[a][i], graph[b][j], graph[g][k]))
                    for a, b, g, i, j, k in itertools.product(m, m, m, r, r, r)))
