"""Semigroup-indexed Lie-Yamaguti structures and their cohomology operators.

An indexed algebra carries a family of binary brackets [.,.]_{a,b} and ternary
brackets {.,.,.}_{a,b,c} labelled by semigroup elements.  This module provides
the axiom checkers, indexed representations, the cochain spaces C^1 and
C^(2n,2n+1), a coordinate basis of their skew subspaces, and the coboundary
operators delta / delta* together with cohomology dimension computations.

An argument slot holds a basis vector e_i with a semigroup index a, written
as the joint label i*M + a.  A (k, k+1)-cochain is skew in the first k // 2
slot pairs of each component, so it is stored by its values at the
canonical tuples only, whose labels increase strictly inside those pairs;
its value at any other tuple is one of those times a sign, or 0.  When the
brackets are skew, delta's output is skew in every slot pair and delta*'s
in its first pair, so both operators evaluate the canonical tuples only,
and their stored coordinates are the rows of the assembled matrices.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError, MalformedInputError, PreconditionError
from .linalg import (contract, contract_grid, flatten, form_columns, form_kernel,
                     generic_vector, has_shape, lead_slot, map_at, mat_mul,
                     mat_sum, mat_vec, quotient, slot_views, transpose, vec_add,
                     vec_neg, vec_scale, vec_sum, zero_vec, zeros)
from .ly import split_joint
from .report import Report
from .semigroup import FiniteCommutativeSemigroup, product, product_of

DEFAULT_BUDGET = 100000


def ensure_budget(ncoords: int, what: str = "computation") -> None:
    """Refuse computations whose coordinate count exceeds LYFAM_BUDGET
    (DEFAULT_BUDGET if unset); what names the computation in the message.
    The count is of stored coordinates: for a pair-degree cochain, those of
    its canonical tuples (SkewBasis.size), and for a dense table read from a
    file, its entries."""
    raw = os.environ.get("LYFAM_BUDGET", DEFAULT_BUDGET)
    try:
        budget = int(raw)
    except ValueError:
        raise MalformedInputError(
            "LYFAM_BUDGET is not an integer: %r" % (raw,)) from None
    if ncoords > budget:
        raise BudgetExceededError(
            "%s needs %d coordinates, budget is %d" % (what, ncoords, budget))


# ---------------------------------------------------------------------------
# indexed algebras

@dataclass
class OmegaLYAlgebra:
    """Family of brackets indexed by a commutative semigroup.

    binary[a][b][i][j] is the vector [e_i, e_j]_{a,b};
    ternary[a][b][c][i][j][k] is the vector {e_i, e_j, e_k}_{a,b,c}.
    """
    dim: int
    semigroup: FiniteCommutativeSemigroup
    binary: list
    ternary: list

    def __post_init__(self):
        M, n = self.semigroup.order, self.dim
        if not (has_shape(self.binary, (M, M, n, n, n))
                and has_shape(self.ternary, (M, M, M, n, n, n, n))):
            raise MalformedInputError("bad shape for an indexed structure tensor")

    def basis(self, i):
        v = zero_vec(self.dim)
        v[i] = 1
        return v

    def br(self, a, b, x, y):
        """[x, y]_{a,b} for arbitrary vectors x, y."""
        return contract(self.binary[a][b], x, y)

    def tr(self, a, b, c, x, y, z):
        """{x, y, z}_{a,b,c} for arbitrary vectors."""
        return contract(self.ternary[a][b][c], x, y, z)

    def invariant_report(self) -> Report:
        """Skewness of both bracket families (simultaneous index swap).  A
        sum is the same with its first two slots (a, i), (b, j) swapped, so
        the full sweep runs only when one is nonzero at an unordered pair of
        slots, equal slots included."""
        m, n = self.semigroup.elements, range(self.dim)
        B, T = self.binary, self.ternary

        def binary(a, b, i, j):
            return vec_add(B[a][b][i][j], B[b][a][j][i])

        def ternary(a, b, c, i, j, k):
            return vec_add(T[a][b][c][i][j][k], T[b][a][c][j][i][k])

        slots = list(itertools.product(m, n))
        pairs = list(itertools.combinations_with_replacement(slots, 2))
        if not (any(any(binary(a, b, i, j)) for (a, i), (b, j) in pairs)
                or any(any(ternary(a, b, c, i, j, k))
                       for (a, i), (b, j) in pairs for c, k in slots)):
            return Report()
        rep = Report().sweep([m, m, n, n], [("invariant:skew-binary", binary)])
        return rep.sweep([m, m, m, n, n, n], [("invariant:skew-ternary", ternary)])


def zero_omega_ly(dim: int, s: FiniteCommutativeSemigroup) -> OmegaLYAlgebra:
    m, n = s.order, dim
    return OmegaLYAlgebra(dim=dim, semigroup=s,
                          binary=zeros(m, m, n, n, n),
                          ternary=zeros(m, m, m, n, n, n, n))


def _bracket_of_bracket(O: OmegaLYAlgebra, Y, depth):
    """Each map at the given depth of Y[ab] with [e_i, e_j]_ab in its first
    slot, at [a][b]...[i][j]: for Y = O.binary and depth 1, the vector
    [[e_i, e_j]_ab, e_k]_(ab)c at [a][b][c][i][j][k]."""
    t, m, B = O.semigroup.table, O.semigroup.elements, O.binary
    return [[map_at(lambda X: [contract_grid(X, vs) for vs in B[a][b]], Y[t[a][b]], depth)
             for b in m] for a in m]


def check_omega_ly_axioms(O: OmegaLYAlgebra) -> Report:
    """Evaluate the four indexed algebra laws on every basis/index tuple,
    their terms read from tables of contractions: tables over the whole
    sweep for the cyclic terms of (5.2) and (5.3), and for (5.4) and (5.5)
    a block of residuals per outer tuple.  On the one-element semigroup
    these are the laws (2.1)-(2.4) of ly.check_ly_axioms.

    When both bracket families are skew (O.invariant_report() is empty) and
    the semigroup is commutative, every residual changes sign when the two
    joint labels i*M + a of one slot pair swap: the first two slots of (5.2)
    and (5.3), which are alternating cyclic sums of terms skew in those
    slots, and the pair x, y of D(x, y) = {x, y, -} in (5.4) and (5.5),
    which are linear in D(x, y).  The residual at labels p > q is then
    minus the one at q < p, and at p = q it is its own negative, so 0.  The
    laws are therefore first evaluated at the canonical tuples of that pair
    only (_screened); when all those residuals vanish the report is empty.
    Otherwise, and for brackets that are not skew, the full sweep runs and
    makes the report."""
    return _omega_ly_report(O, O.invariant_report().ok)


def _omega_ly_report(O: OmegaLYAlgebra, skew: bool) -> Report:
    """check_omega_ly_axioms, told whether O.invariant_report() is empty."""
    t, m, n, d = O.semigroup.table, O.semigroup.elements, range(O.dim), O.dim
    B, T, each = O.binary, O.ternary, contract_grid
    t0, t1, t2, trows = slot_views(T, 3)
    b1 = map_at(lambda X: lead_slot(X, 1, 2), B, 2)
    # [[e_i, e_j]_ab, e_k]_(ab)c at F2[a][b][c][i][j][k] and
    # {[e_i, e_j]_ab, e_k, e_l}_(ab)ce at F3[a][b][c][e][i][j][k*d+l]
    F2, F3 = _bracket_of_bracket(O, B, 1), _bracket_of_bracket(O, t0, 2)

    def law2(a, b, c, i, j, k):  # residual of (5.2)
        return vec_sum(
            "++++++", F2[a][b][c][i][j][k], F2[b][c][a][j][k][i], F2[c][a][b][k][i][j],
            T[a][b][c][i][j][k], T[b][c][a][j][k][i], T[c][a][b][k][i][j])

    def law3(a, b, c, e, i, j, k, l):  # residual of (5.3)
        return vec_sum(
            "+++", F3[a][b][c][e][i][j][k * d + l], F3[b][c][a][e][j][k][i * d + l],
            F3[c][a][b][e][k][i][j * d + l])

    def block4(si, a, b, c, ii, jj):  # residuals of (5.4) at [kk][ll]
        sa, Q = t[si][a], T[si][a]
        x, y, z = mat_mul(flatten(B[b][c]), Q[t[b][c]][ii][jj]), \
            each(B[t[sa][b]][c], Q[b][ii][jj]), each(b1[b][t[sa][c]], Q[c][ii][jj])
        return [[vec_sum("+--", x[kk * d + ll], y[kk][ll], z[ll][kk]) for ll in n]
                for kk in n]

    def block5(si, ta, a, b, c, ii, jj):  # residuals of (5.5) at [kk][ll][mm]
        Q, u = T[si][ta], t[t[si][ta]]  # u[x] is the product of si, ta and x
        w, x, y, z = mat_mul(trows[a][b][c], Q[t[t[a][b]][c]][ii][jj]), \
            each(t0[u[a]][b][c], Q[a][ii][jj]), each(t1[a][u[b]][c], Q[b][ii][jj]), \
            each(t2[a][b][u[c]], Q[c][ii][jj])
        return [[[vec_sum("+---", w[(kk * d + ll) * d + mm], x[kk][ll * d + mm],
                          y[ll][kk * d + mm], z[mm][kk * d + ll])
                  for mm in n] for ll in n] for kk in n]

    # each law has the pair of slots 0 and 1; block4 and block5 take the
    # semigroup indices of x, y, then those of their other slots
    if _screened(O.semigroup, O.dim, skew, ((law2, 3, 3, 0, 0), (law3, 4, 4, 0, 0),
                                            (block4, 4, 2, 0, 2), (block5, 5, 2, 0, 3))):
        return Report()
    rep = Report().sweep([m] * 3 + [n] * 3, [("OLY-5.2", law2)])
    rep.sweep([m] * 4 + [n] * 4, [("OLY-5.3", law3)])
    rep.sweep([m] * 4 + [n] * 2, [("OLY-5.4", block4, 2)])
    return rep.sweep([m] * 5 + [n] * 2, [("OLY-5.5", block5, 3)])


def _screened(s: FiniteCommutativeSemigroup, dim: int, skew: bool, laws,
              off=()) -> bool:
    """Whether the screen finds that every law holds: the laws' skewness
    hypothesis holds (skew), the table of s is commutative, each law of
    laws vanishes where the joint labels i*M + a (i < dim) of its slot pair
    increase strictly, and each law of off where they do not.  A law
    (residuals, ne, nb, p, depth) takes ne semigroup and then nb basis
    indices, slot t of a tuple w is (w[t], w[ne + t]), its pair is slots p
    and p + 1, and residuals(*w) holds vectors depth lists deep."""
    t, m, M, n = s.table, s.elements, s.order, range(dim)
    if not (skew and all(t[a][b] == t[b][a] for a in m for b in m)):
        return False
    for on, group in ((True, laws), (False, off)):
        for residuals, ne, nb, p, depth in group:
            for w in itertools.product(*[m] * ne, *[n] * nb):
                if (w[ne + p] * M + w[p] < w[ne + p + 1] * M + w[p + 1]) == on:
                    vecs = [residuals(*w)]
                    for _ in range(depth):
                        vecs = [v for block in vecs for v in block]
                    if any(map(any, vecs)):
                        return False
    return True


def omega_ly_from_omega_lie(dim: int, s: FiniteCommutativeSemigroup,
                            binary: list) -> OmegaLYAlgebra:
    """Indexed Lie bracket family with the induced ternary
    {x,y,z}_{a,b,c} = [[x,y]_{a,b}, z]_{ab,c}."""
    O = OmegaLYAlgebra(dim, s, binary, zero_omega_ly(dim, s).ternary)
    O.invariant_report().require("binary tensor is not skew: {first}")
    m, n, F2 = s.elements, range(dim), _bracket_of_bracket(O, O.binary, 1)
    Report().sweep([m] * 3 + [n] * 3, [
        ("OLIE-jacobi", lambda a, b, c, i, j, k: vec_sum(
            "+++", F2[a][b][c][i][j][k], F2[b][c][a][j][k][i], F2[c][a][b][k][i][j]))
    ]).require("indexed Jacobi identity fails: {first}")
    return OmegaLYAlgebra(dim, s, O.binary, F2)


def omega_ly_from_ns_family(N) -> OmegaLYAlgebra:
    """Indexed algebra on the derived star-binary and double brackets."""
    from .nsfamily import check_ns_family_axioms, derived_brackets
    check_ns_family_axioms(N).require(
        "input fails the splitting-family axioms: {first}")
    star2, _, dbl = derived_brackets(N)
    return OmegaLYAlgebra(dim=N.dim, semigroup=N.semigroup,
                          binary=star2, ternary=dbl)


def omega_ly_from_reynolds(A, s, family) -> OmegaLYAlgebra:
    """Indexed algebra induced by a Reynolds family on the algebra itself."""
    from .rbfamily import reynolds_context
    ctx, (binary, ternary), bad = reynolds_context(A, s, family)
    bad.require("input fails the Reynolds family laws: {first}")
    return OmegaLYAlgebra(ctx.dimV, s, binary, ternary)


# ---------------------------------------------------------------------------
# indexed representations

@dataclass
class OmegaRepresentation:
    """Representation of an indexed algebra on a module of dimension dim.

    rho[a][s][i] is the matrix of rho_{a,s}(e_i, -) acting on the module;
    theta[a][b][s][i][j] is the matrix of theta_{a,b,s}(e_i, e_j, -).
    The derived family D_{a,b,s} is computed from rho/theta on each call of
    d_tensor, so it always matches the current rho and theta.
    """
    algebra: OmegaLYAlgebra
    dim: int
    rho: list
    theta: list

    def __post_init__(self):
        M, n, d = self.algebra.semigroup.order, self.algebra.dim, self.dim
        if not (has_shape(self.rho, (M, M, n, d, d))
                and has_shape(self.theta, (M, M, M, n, n, d, d))):
            raise MalformedInputError("bad shape for an indexed representation")

    def d_tensor(self):
        """D_{a,b,s}(e_i, e_j, -) as matrices, via the derived-operator rule:
        theta_{b,a,s}(e_j, e_i) - theta_{a,b,s}(e_i, e_j)
        - rho_{ab,s}([e_i, e_j]) + rho_{a,bs}(e_i)rho_{b,s}(e_j)
        - rho_{b,as}(e_j)rho_{a,s}(e_i)."""
        t, m, n = self.algebra.semigroup.table, self.algebra.semigroup.elements, \
            range(self.algebra.dim)
        RHO, TH, B = self.rho, self.theta, self.algebra.binary
        # each product rho_{a,bc}(e_i)rho_{b,c}(e_j) once; the other order
        # is the entry at [b][a][c][j][i]
        prod = [[[[[mat_mul(RHO[a][t[b][c]][i], RHO[b][c][j]) for j in n] for i in n]
                  for c in m] for b in m] for a in m]
        return [[[[[mat_sum("+--+-", TH[b][a][c][j][i], TH[a][b][c][i][j],
                            contract(RHO[t[a][b]][c], B[a][b][i][j]),
                            prod[a][b][c][i][j], prod[b][a][c][j][i])
                    for j in n] for i in n] for c in m] for b in m] for a in m]


def zero_omega_representation(O: OmegaLYAlgebra, dim: int) -> OmegaRepresentation:
    M, n = O.semigroup.order, O.dim
    return OmegaRepresentation(algebra=O, dim=dim,
                               rho=zeros(M, M, n, dim, dim),
                               theta=zeros(M, M, M, n, n, dim, dim))


def check_omega_representation(O: OmegaLYAlgebra,
                               r: OmegaRepresentation) -> Report:
    """Evaluate the five indexed representation laws on all tuples.

    Each law is a matrix identity on the module; column c of its residual
    matrix is the residual at the module basis vector u_c, recorded at the
    tuple extended by c.  A tuple holds the semigroup indices of the law's
    slots (x, y, z in (5.6)-(5.8); w, x, y, z in (5.9), (5.10)), that of
    the module, then the basis indices of the slots.

    With skew brackets (O.invariant_report() empty) and a commutative
    table, D = r.d_tensor() is skew in its pair (a swap trades its theta
    terms and its rho products, and negates [x, y]), and each residual
    changes sign when the joint labels i*M + a of one slot pair swap:
    slots 0, 1 in (5.6), (5.7), (5.9), and slots 1, 2 in (5.8), (5.10).  A
    term changes sign alone, where both slots enter [x, y], {x, y, -} or
    D(x, y), or trades places with a term of the opposite sign:
    theta(x, z)rho(y) and theta(y, z)rho(x) in (5.6), rho(y)theta(x, z)
    and rho(z)theta(x, y) in (5.8), theta(y, z)theta(w, x) and
    theta(x, z)theta(w, y) in (5.10).  So the residual at labels p > q is
    minus the one at q < p, and 0 at p = q, and _screened evaluates each
    law where the labels of its pair increase strictly.  When all those
    residuals vanish the report is empty; otherwise, and for other
    algebras, the full sweep runs and makes the report."""
    nv, m, n, rep = r.dim, O.semigroup.elements, range(O.dim), Report()
    for k, laws in _representation_laws(O, r, O.invariant_report().ok, r.d_tensor()):
        rep.sweep([m] * (k + 1) + [n] * k, [
            (name, lambda *w, law=law: transpose(law(*w), nv), 1) for name, law, _ in laws])
    return rep


def _representation_laws(O: OmegaLYAlgebra, r: OmegaRepresentation, skew, D):
    """Per sweep of check_omega_representation, its k slots and each law
    (name, residual matrix, first slot of its pair); () when _screened finds
    that they all hold.  skew is O.invariant_report().ok, D r.d_tensor()."""
    t, B, T, RHO, TH = O.semigroup.table, O.binary, O.ternary, r.rho, r.theta
    th1 = map_at(lambda X: lead_slot(X, 1, 2), TH, 3)  # theta(e_l, e_k) at [k][l]

    def law6(a, b, g, si, i, j, k):
        return mat_sum("+-+", contract(th1[t[a][b]][g][si][k], B[a][b][i][j]),
                       mat_mul(TH[a][g][t[b][si]][i][k], RHO[b][si][j]),
                       mat_mul(TH[b][g][t[a][si]][j][k], RHO[a][si][i]))

    def law7(a, b, g, si, i, j, k):
        ab = t[a][b]
        return mat_sum("+--", mat_mul(D[a][b][t[g][si]][i][j], RHO[g][si][k]),
                       mat_mul(RHO[g][t[ab][si]][k], D[a][b][si][i][j]),
                       contract(RHO[t[ab][g]][si], T[a][b][g][i][j][k]))

    def law8(a, b, g, si, i, j, k):
        return mat_sum("+-+", contract(TH[a][t[b][g]][si][i], B[b][g][j][k]),
                       mat_mul(RHO[b][t[t[a][g]][si]][j], TH[a][g][si][i][k]),
                       mat_mul(RHO[g][t[t[a][b]][si]][k], TH[a][b][si][i][j]))

    def law9(ta, a, b, g, si, ii, i, j, k):
        taa = t[ta][a]
        return mat_sum(
            "+---", mat_mul(D[ta][a][t[t[b][g]][si]][ii][i], TH[b][g][si][j][k]),
            mat_mul(TH[b][g][t[taa][si]][j][k], D[ta][a][si][ii][i]),
            contract(th1[t[taa][b]][g][si][k], T[ta][a][b][ii][i][j]),
            contract(TH[b][t[taa][g]][si][j], T[ta][a][g][ii][i][k]))

    def law10(ta, a, b, g, si, ii, i, j, k):
        return mat_sum(
            "+-+-", contract(TH[ta][t[t[a][b]][g]][si][ii], T[a][b][g][i][j][k]),
            mat_mul(TH[b][g][t[t[ta][a]][si]][j][k], TH[ta][a][si][ii][i]),
            mat_mul(TH[a][g][t[t[ta][b]][si]][i][k], TH[ta][b][si][ii][j]),
            mat_mul(D[a][b][t[t[ta][g]][si]][i][j], TH[ta][g][si][ii][k]))

    sweeps = ((3, (("OREP-5.6", law6, 0), ("OREP-5.7", law7, 0), ("OREP-5.8", law8, 1))),
              (4, (("OREP-5.9", law9, 0), ("OREP-5.10", law10, 1))))

    if _screened(O.semigroup, O.dim, skew,
                 [(law, k + 1, k, p, 1) for k, laws in sweeps for _, law, p in laws]):
        return ()
    return sweeps


def extension(r: OmegaRepresentation, f, g) -> OmegaLYAlgebra:
    """The indexed algebra on O + V, on the basis of the n vectors (e_i, 0)
    and then the d vectors (0, u_k), of a representation r of O on V twisted
    by the full tables f[a][b][i][j] and g[a][b][c][i][j][k] of a
    (2,3)-cochain: [x, y]_ab = ([x, y]_ab, f_ab(x, y)), [x, v]_ab =
    rho_ab(x)v = -[v, x]_ba, {x, y, z}_abc = ({x, y, z}_abc, g_abc(x, y, z)),
    {x, y, w}_abc = D_abc(x, y)w, {x, v, z}_abc = -theta_acb(x, z)v,
    {v, y, z}_abc = theta_bca(y, z)v, and 0 with two slots in V.  At basis
    vectors at most one term of each part is nonzero, so each entry is read
    from a table with its sign, and with zero coordinates as the int 0."""
    O, d = r.algebra, r.dim
    m, n, v0, zl = O.semigroup.elements, range(O.dim), O.dim, [0] * O.dim
    # rho_ab(e_i)u_k at rc[a][b][i][k]; theta_abc(e_i, e_j)u_k and
    # D_abc(e_i, e_j)u_k at tc and dc [a][b][c][i][j][k]
    rc, tc, dc = (map_at(lambda X: transpose(X, d), X, k)
                  for X, k in ((r.rho, 3), (r.theta, 5), (r.d_tensor(), 5)))

    def entry(u, v, sign=1):
        return [x if x else 0 for x in u] + [sign * x if x else 0 for x in v]

    binary = [[zeros(*[v0 + d] * 3) for _ in m] for _ in m]
    ternary = [[[zeros(*[v0 + d] * 4) for _ in m] for _ in m] for _ in m]
    for a, b, i in itertools.product(m, m, n):
        B = binary[a][b]
        for j in n:
            B[i][j] = entry(O.binary[a][b][i][j], f[a][b][i][j])
        for k in range(d):
            B[i][v0 + k], B[v0 + k][i] = entry(zl, rc[a][b][i][k]), \
                entry(zl, rc[b][a][i][k], -1)
        for c, j in itertools.product(m, n):
            T = ternary[a][b][c]
            for k in n:
                T[i][j][k] = entry(O.ternary[a][b][c][i][j][k], g[a][b][c][i][j][k])
            for k in range(d):
                T[i][j][v0 + k] = entry(zl, dc[a][b][c][i][j][k])
                T[i][v0 + k][j] = entry(zl, tc[a][c][b][i][j][k], -1)
                T[v0 + k][i][j] = entry(zl, tc[b][c][a][i][j][k])
    return OmegaLYAlgebra(v0 + d, O.semigroup, binary, ternary)


# ---------------------------------------------------------------------------
# cochain families

@dataclass
class CochainFamily:
    """Cochain of degree 1 or (k, k+1): (2n, 2n+1), and the (3,4) target of
    delta*.

    Degree 1 stores one matrix per semigroup index (module <- algebra carrier).
    A pair degree has an even component with k argument slots and an odd
    component with k + 1, each skew in its first k // 2 slot pairs, and
    stores only their values at the canonical tuples, whose joint labels
    i*M + a increase strictly inside those pairs: comp[r][c] is the vector
    in the coefficient space at the tuple whose pairs have rank r among the
    combinations of pairs p < q of labels, and whose free slots have rank c,
    in the order of _canonical_tuples.  cochain_reader reads a cochain at
    any tuple, cochain_build makes one, and cochain_full_coords expands one
    to its full table; no other code knows this layout.
    """
    semigroup: FiniteCommutativeSemigroup
    dim_alg: int
    dim_coeff: int
    degree: object  # 1 or (even_arity, odd_arity)
    even: list
    odd: list | None = None


def _canonical_tuples(M, nA, K, npairs):
    """(alphas, idxs) of each K-slot tuple whose joint labels i*M + a
    increase strictly inside each of its first npairs slot pairs."""
    J = M * nA
    split = [split_joint(t, M) for t in range(J)]
    pair = list(itertools.combinations(range(J), 2))
    free = [(t,) for t in range(J)]
    for parts in itertools.product(*([pair] * npairs
                                     + [free] * (K - 2 * npairs))):
        joints = [t for part in parts for t in part]
        yield [split[t][1] for t in joints], [split[t][0] for t in joints]


@lru_cache(maxsize=64)
def _canonical_table(M, nA, K, npairs):
    """_canonical_tuples as tuples, listed once per shape: no function given
    them can change what the next one reads."""
    return tuple((tuple(al), tuple(xs))
                 for al, xs in _canonical_tuples(M, nA, K, npairs))


@lru_cache(maxsize=None)
def _pair_ranks(J):
    """ranks[t][u] for two of J joint labels: the rank of the pair (t, u)
    among the pairs p < q in the order of _canonical_tuples when t < u, its
    complement ~rank when t > u, and None when t == u."""
    ranks = [[None] * J for _ in range(J)]
    for r, (p, q) in enumerate(itertools.combinations(range(J), 2)):
        ranks[p][q], ranks[q][p] = r, ~r
    return ranks


def cochain_reader(c: CochainFamily):
    """read(alphas, idxs) -> (sign, vec), the value sign * vec of c at any
    tuple of one of its arities.

    vec is the stored vector of the canonical tuple that swapping slot pairs
    reaches, and sign is (-1) to the number of pairs swapped.  Where a pair
    repeats a joint label the value is 0, and read gives (0, None).  The
    sign is returned apart so that a caller can fold it into the coefficient
    the value already carries.  A degree-1 cochain reads as one 1-slot
    component, with column i of matrix a at the joint label i*M + a.
    """
    M, nA = c.semigroup.order, c.dim_alg
    J = M * nA
    ranks, npair = _pair_ranks(J), J * (J - 1) // 2
    if c.degree == 1:
        cols = [transpose(m, nA) for m in c.even]
        parts = {1: [[cols[a][i] for i in range(nA) for a in range(M)]]}
        paired = 0
    else:
        parts = dict(zip(c.degree, (c.even, c.odd)))
        paired = 2 * (c.degree[0] // 2)

    def read(alphas, idxs):
        sign, row, col = 1, 0, 0
        for p in range(0, paired, 2):
            r = ranks[idxs[p] * M + alphas[p]][idxs[p + 1] * M + alphas[p + 1]]
            if r is None:
                return 0, None
            if r < 0:
                sign, r = -sign, ~r
            row = row * npair + r
        for p in range(paired, len(alphas)):
            col = col * J + idxs[p] * M + alphas[p]
        return sign, parts[len(alphas)][row][col]

    return read


def cochain_build(s: FiniteCommutativeSemigroup, dim_alg, dim_coeff, degree,
                  even, odd) -> CochainFamily:
    """The (k, k+1)-cochain whose value at each canonical k-slot tuple is
    even(alphas, idxs), and at each canonical (k+1)-slot tuple
    odd(alphas, idxs), with alphas and idxs tuples.  The functions run once
    per canonical tuple, in the order of _canonical_tuples, even first; the
    other tuples follow by skewness."""
    M, J = s.order, s.order * dim_alg
    npairs = degree[0] // 2
    comps = []
    for value, k in zip((even, odd), degree):
        width = max(J ** (k - 2 * npairs), 1)
        vals = [value(al, xs)
                for al, xs in _canonical_table(M, dim_alg, k, npairs)]
        comps.append([vals[r:r + width] for r in range(0, len(vals), width)])
    return CochainFamily(s, dim_alg, dim_coeff, tuple(degree), *comps)


def cochain_coords(c: CochainFamily):
    """The stored coordinates of a pair-degree cochain: its values at the
    canonical tuples, in order, which fix all the others."""
    return [x for comp in (c.even, c.odd) for row in comp for vec in row
            for x in vec]


def cochain_full_table(c: CochainFamily):
    """(alphas, idxs, vec) at every tuple of a pair-degree cochain: the even
    component first, each in the order of its tuples (alphas outer).  vec
    is the stored vector, its negative at a mirrored tuple, or [0] * d
    where a pair repeats a label."""
    read, zero = cochain_reader(c), zero_vec(c.dim_coeff)
    M, nA = c.semigroup.order, c.dim_alg
    for k in c.degree:
        for alphas in itertools.product(range(M), repeat=k):
            for idxs in itertools.product(range(nA), repeat=k):
                sign, vec = read(alphas, idxs)
                if sign < 0:
                    vec = vec_neg(vec)
                yield alphas, idxs, vec if sign else zero


def cochain_full_coords(c: CochainFamily):
    """Every coordinate of c's full table, in order: for degree 1 the
    matrices row by row, for a pair degree the vector at every tuple."""
    if c.degree == 1:
        return [x for mtx in c.even for row in mtx for x in row]
    return [x for _, _, vec in cochain_full_table(c) for x in vec]


# ---------------------------------------------------------------------------
# skew coordinate bases

@dataclass
class SkewBasis:
    """Coordinates of the pairwise-skew cochains of one degree.

    A degree-1 coordinate is the entry (co, i) of the matrix of index a,
    ordered by (a, i, co).  A pair-degree coordinate is a stored coordinate
    of the canonical layout, in the order of cochain_coords: an ordered pair
    p < q of joint labels per slot pair, a free joint label for the odd
    trailing slot, and a coefficient coordinate.
    """
    degree: object
    semigroup: FiniteCommutativeSemigroup
    dim_alg: int
    dim_coeff: int

    @property
    def size(self):
        M, nA, d = self.semigroup.order, self.dim_alg, self.dim_coeff
        if self.degree == 1:
            return M * nA * d
        J, npairs = M * nA, self.degree[0] // 2
        free = J ** (self.degree[0] - 2 * npairs)  # labels of an odd slot
        return (J * (J - 1) // 2) ** npairs * d * free * (1 + J)

    def embed(self, idx) -> CochainFamily:
        return self.combine([int(k == idx) for k in range(self.size)])

    def project(self, c: CochainFamily):
        """Coordinates of a cochain of this degree in this basis."""
        if self.degree != 1:
            return cochain_coords(c)
        M, nA, d = self.semigroup.order, self.dim_alg, self.dim_coeff
        return [c.even[a][co][i]
                for a in range(M) for i in range(nA) for co in range(d)]

    def combine(self, coords) -> CochainFamily:
        """The cochain with these coordinates; a zero is stored as int 0."""
        M, nA, d = self.semigroup.order, self.dim_alg, self.dim_coeff
        it = iter([v or 0 for v in coords])
        if self.degree != 1:
            def take(alphas, idxs):
                return [next(it) for _ in range(d)]
            return cochain_build(self.semigroup, nA, d, self.degree, take, take)
        mats = zeros(M, d, nA)
        for a, i, co in itertools.product(range(M), range(nA), range(d)):
            mats[a][co][i] = next(it)
        return CochainFamily(self.semigroup, nA, d, 1, mats)

    def symbolic(self) -> CochainFamily:
        """The generic skew cochain sum_i e_i {i: 1}, with linear-form
        entries.  A linear operator evaluated on it gives, at each output
        coordinate, the row of its matrix on this basis."""
        return self.combine(generic_vector(self.size))


def skew_basis(degree, dims, s: FiniteCommutativeSemigroup) -> SkewBasis:
    """Basis of the skew subspace; dims = (carrier dim, coefficient dim)."""
    nA, d = dims
    if degree == 1:
        return SkewBasis(1, s, nA, d)
    ke, ko = degree
    if ko != ke + 1 or ke < 2 or ke % 2:
        raise PreconditionError("degree must be 1 or (2n, 2n+1): %r" % (degree,))
    bas = SkewBasis((ke, ko), s, nA, d)
    ensure_budget(bas.size)
    return bas


# ---------------------------------------------------------------------------
# coboundary operators

def _require_skew_brackets(O: OmegaLYAlgebra) -> None:
    """Refuse an algebra outside the hypotheses of the canonical-tuple
    evaluation: its brackets must be skew."""
    O.invariant_report().require("the brackets of the algebra are not skew: {first}")


def _plus(acc, sign, v):
    """acc + sign * v for sign 1 or -1, written into acc coordinate by
    coordinate: the sign picks the operation, acc[k] + v[k] or acc[k] - v[k].
    acc is a fresh list of the caller's."""
    if sign > 0:
        for k, x in enumerate(v):
            acc[k] += x
    else:
        for k, x in enumerate(v):
            acc[k] -= x


def _at_vector(read, d, al, xs, j, vec):
    """The cochain read by read at the basis vectors xs, with the vector vec
    in slot j instead: a sum over the support of vec (xs[j] is ignored),
    each term cz * v[k] added or subtracted in place."""
    xs = list(xs)
    out = zero_vec(d)
    for z, cz in enumerate(vec):
        if cz:
            xs[j] = z
            sign, v = read(al, xs)
            if sign > 0:
                for k, x in enumerate(v):
                    out[k] += cz * x
            elif sign:
                for k, x in enumerate(v):
                    out[k] -= cz * x
    return out


def delta_omega(O: OmegaLYAlgebra, r: OmegaRepresentation, c: CochainFamily,
                D=None) -> CochainFamily:
    """Coboundary of a degree-1 or (2n,2n+1) cochain; D is r.d_tensor(),
    when the caller has it.

    The degree-1 case is the n = 0 instance of the general displayed sums, so
    a single evaluator covers every degree.  With skew brackets on O the
    output is skew in every slot pair of both components, so it is built
    from its canonical tuples only: those whose joint labels i*M + a
    increase strictly inside each pair.  An algebra whose brackets are not
    skew is refused with PreconditionError.
    """
    s = O.semigroup
    nA, d = O.dim, r.dim
    if c.dim_alg != nA or c.dim_coeff != d:
        raise PreconditionError("cochain shape does not match algebra/module")
    n = 0 if c.degree == 1 else c.degree[0] // 2
    KE, KO = 2 * n + 2, 2 * n + 3
    ensure_budget(SkewBasis((KE, KO), s, nA, d).size)
    _require_skew_brackets(O)
    # the input's even component has 2n slots and its odd one 2n + 1 (a
    # degree-1 input reads as one 1-slot component), so read tells them apart
    read = cochain_reader(c)
    sign_n = -1 if n % 2 else 1
    RHO, TH, T = r.rho, r.theta, O.ternary
    D = r.d_tensor() if D is None else D

    def word(indices):
        return product_of(s, indices)

    def removed_pairs(acc, al, xs, npairs):
        """The derived-operator and substitution sums over the first
        npairs slot pairs, each removed in turn, acting on the component
        of the arity left."""
        K = len(al)
        for k in range(1, npairs + 1):
            i1, i2 = 2 * k - 2, 2 * k - 1
            rem_al = al[:i1] + al[i2 + 1:]
            sign, v = read(rem_al, xs[:i1] + xs[i2 + 1:])
            if sign:
                _plus(acc, sign if k % 2 else -sign, mat_vec(
                    D[al[i1]][al[i2]][word(rem_al)][xs[i1]][xs[i2]], v))
        for k in range(1, npairs + 1):
            i1, i2 = 2 * k - 2, 2 * k - 1
            sk = 1 if k % 2 == 0 else -1
            rem_xs = xs[:i1] + xs[i2 + 1:]
            for j in range(i2 + 1, K):
                new_al = list(al)
                new_al[j] = product_of(s, (al[i1], al[i2], al[j]))
                new_al = new_al[:i1] + new_al[i2 + 1:]
                _plus(acc, sk, _at_vector(
                    read, d, new_al, rem_xs, j - 2,
                    T[al[i1]][al[i2]][al[j]][xs[i1]][xs[i2]][xs[j]]))
        return acc

    def even(al, xs):
        # block in the last two slots
        t = zero_vec(d)
        sign, g1 = read(al[:2 * n] + (al[KE - 1],), xs[:2 * n] + (xs[KE - 1],))
        if sign:
            _plus(t, sign, mat_vec(
                RHO[al[KE - 2]][word(al[:KE - 2] + (al[KE - 1],))][xs[KE - 2]],
                g1))
        sign, g2 = read(al[:KE - 1], xs[:KE - 1])
        if sign:
            _plus(t, -sign, mat_vec(
                RHO[al[KE - 1]][word(al[:KE - 1])][xs[KE - 1]], g2))
        _plus(t, -1, _at_vector(
            read, d, al[:2 * n] + (product(s, al[KE - 2], al[KE - 1]),),
            xs[:KE - 1], 2 * n,
            O.binary[al[KE - 2]][al[KE - 1]][xs[KE - 2]][xs[KE - 1]]))
        return removed_pairs(vec_scale(sign_n, t), al, xs, n)

    def odd(al, xs):
        t = zero_vec(d)
        sign, gA = read(al[:KO - 2], xs[:KO - 2])
        if sign:
            _plus(t, sign, mat_vec(
                TH[al[KO - 2]][al[KO - 1]][word(al[:KO - 2])]
                [xs[KO - 2]][xs[KO - 1]], gA))
        sign, gB = read(al[:2 * n] + (al[KO - 2],), xs[:2 * n] + (xs[KO - 2],))
        if sign:
            _plus(t, -sign, mat_vec(
                TH[al[KO - 3]][al[KO - 1]][word(al[:2 * n] + (al[KO - 2],))]
                [xs[KO - 3]][xs[KO - 1]], gB))
        return removed_pairs(vec_scale(sign_n, t), al, xs, n + 1)

    return cochain_build(s, nA, d, (KE, KO), even, odd)


def delta_star_omega(O: OmegaLYAlgebra, r: OmegaRepresentation,
                     c: CochainFamily) -> CochainFamily:
    """The extra differential out of degree (2,3), landing in the (3,4) pair.

    With skew brackets on O both output components are skew in their first
    slot pair, so the output is built from the tuples whose first two joint
    labels increase strictly.  An algebra whose brackets are not skew is
    refused with PreconditionError.
    """
    if c.degree != (2, 3):
        raise PreconditionError("input must have degree (2, 3)")
    _require_skew_brackets(O)
    s = O.semigroup
    nA, d = O.dim, r.dim
    RHO, TH, B = r.rho, r.theta, O.binary
    read = cochain_reader(c)
    # each term is a sum over the cyclic rotations (u, v, w) of three slots
    rotations = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def even(al, xs):
        acc = zero_vec(d)
        for u, v, w in rotations:
            sign, f = read((al[v], al[w]), (xs[v], xs[w]))
            if sign:
                _plus(acc, -sign, mat_vec(
                    RHO[al[u]][product(s, al[v], al[w])][xs[u]], f))
        for u, v, w in rotations:
            _plus(acc, 1, _at_vector(
                read, d, (product(s, al[u], al[v]), al[w]), (0, xs[w]), 0,
                B[al[u]][al[v]][xs[u]][xs[v]]))
        for u, v, w in rotations:
            sign, g = read((al[u], al[v], al[w]), (xs[u], xs[v], xs[w]))
            if sign:
                _plus(acc, sign, g)
        return acc

    def odd(al, xs):
        acc = zero_vec(d)
        for u, v, w in rotations:
            sign, f = read((al[v], al[w]), (xs[v], xs[w]))
            if sign:
                _plus(acc, sign, mat_vec(
                    TH[al[u]][al[3]][product(s, al[v], al[w])][xs[u]][xs[3]],
                    f))
        for u, v, w in rotations:
            _plus(acc, 1, _at_vector(
                read, d, (product(s, al[u], al[v]), al[w], al[3]),
                (0, xs[w], xs[3]), 0, B[al[u]][al[v]][xs[u]][xs[v]]))
        return acc

    return cochain_build(s, nA, d, (3, 4), even, odd)


# ---------------------------------------------------------------------------
# cohomology dimensions of the indexed complex

def cohomology_step(O: OmegaLYAlgebra, r: OmegaRepresentation, n: int,
                    below: CochainFamily, D=None):
    """(dim H^(2n, 2n+1), delta of the symbolic (2n, 2n+1)-cochain).

    The cocycles are the kernel of delta on the skew (2n, 2n+1)-cochains,
    and for n = 1 of delta* as well; the coboundaries are below, the image
    of the symbolic cochain one degree down (degree 1 for n = 1), whose
    coordinates are forms over that degree's skew basis.  D is
    r.d_tensor(), built here when not given.
    """
    s, dims = O.semigroup, (O.dim, r.dim)
    lower = skew_basis(1 if n == 1 else (2 * n - 2, 2 * n - 1), dims, s)
    bas = skew_basis((2 * n, 2 * n + 1), dims, s)
    c = bas.symbolic()
    image = delta_omega(O, r, c, D=D)
    rows = cochain_coords(image)
    if n == 1:
        rows += cochain_coords(delta_star_omega(O, r, c))
    z_basis = form_kernel(rows, bas.size)
    return quotient(z_basis, form_columns(bas.project(below),
                                          lower.size))[0], image


def omega_cohomology_dims(O: OmegaLYAlgebra, r: OmegaRepresentation,
                          max_n: int):
    """[dim H^1, dim H^(2,3), ..., dim H^(2 max_n, 2 max_n + 1)].

    Degree 1 is the kernel of delta on C^1 (the indexed complex has no degree
    0 term); each higher degree is a cohomology_step.
    """
    if max_n < 0:
        raise PreconditionError("max_n must be >= 0")
    basis1 = skew_basis(1, (O.dim, r.dim), O.semigroup)
    D = r.d_tensor()
    image = delta_omega(O, r, basis1.symbolic(), D=D)
    out = [len(form_kernel(cochain_coords(image), basis1.size))]
    for n in range(1, max_n + 1):
        dim, image = cohomology_step(O, r, n, image, D=D)
        out.append(dim)
    return out
