"""Semigroup-indexed Lie-Yamaguti structures and their cohomology operators.

An indexed algebra carries a family of binary brackets [.,.]_{a,b} and ternary
brackets {.,.,.}_{a,b,c} labelled by semigroup elements.  This module provides
the axiom checkers, indexed representations, the cochain spaces C^1 and
C^(2n,2n+1), a coordinate basis of their skew subspaces, and the coboundary
operators delta / delta* together with cohomology dimension computations.

An argument slot holds a basis vector e_i with a semigroup index a, written
as the joint label i*M + a.  When the brackets are skew and the input is
skew in each slot pair, delta's output is skew in every slot pair and
delta*'s in its first pair.  The two operators therefore evaluate only the
canonical output tuples, whose labels increase strictly inside those pairs,
and fill the others by sign; `canonical_coords` reads back just those rows
for the assembled matrices.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError, PreconditionError
from .linalg import (contract, form_columns, form_kernel, generic_vector,
                     identity, mat_mul, mat_sum, mat_vec, quotient_dim, transpose,
                     vec_add, vec_neg, vec_scale, vec_sub, vec_sum, zero_vec,
                     zeros)
from .ly import split_joint
from .report import Report
from .semigroup import FiniteCommutativeSemigroup, product, product_of

DEFAULT_BUDGET = 100000


def ensure_budget(ncoords: int, budget: int | None = None) -> None:
    """Refuse computations whose coordinate count exceeds the budget."""
    if budget is None:
        budget = int(os.environ.get("LYFAM_BUDGET", DEFAULT_BUDGET))
    if ncoords > budget:
        raise BudgetExceededError(
            "computation needs %d coordinates, budget is %d" % (ncoords, budget))


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
        """Skewness of both bracket families (simultaneous index swap)."""
        m, n = self.semigroup.elements, range(self.dim)
        B, T = self.binary, self.ternary
        rep = Report().sweep([m, m, n, n], [
            ("invariant:skew-binary", lambda a, b, i, j: vec_add(
                B[a][b][i][j], B[b][a][j][i]))])
        return rep.sweep([m, m, m, n, n, n], [
            ("invariant:skew-ternary", lambda a, b, c, i, j, k: vec_add(
                T[a][b][c][i][j][k], T[b][a][c][j][i][k]))])


def zero_omega_ly(dim: int, s: FiniteCommutativeSemigroup) -> OmegaLYAlgebra:
    m = s.order
    binary = [[[[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
               for _ in range(m)] for _ in range(m)]
    ternary = [[[[[[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
                  for _ in range(dim)] for _ in range(m)] for _ in range(m)]
               for _ in range(m)]
    return OmegaLYAlgebra(dim=dim, semigroup=s, binary=binary, ternary=ternary)


def check_omega_ly_axioms(O: OmegaLYAlgebra) -> Report:
    """Evaluate the four indexed algebra laws on every basis/index tuple."""
    t, m, n = O.semigroup.table, O.semigroup.elements, range(O.dim)
    E = identity(O.dim)
    B, T = O.binary, O.ternary
    rep = Report().sweep([m] * 3 + [n] * 3, [
        ("OLY-5.2", lambda a, b, c, i, j, k: vec_sum(
            "++++++", contract(B[t[a][b]][c], B[a][b][i][j], E[k]),
            contract(B[t[b][c]][a], B[b][c][j][k], E[i]),
            contract(B[t[c][a]][b], B[c][a][k][i], E[j]),
            T[a][b][c][i][j][k], T[b][c][a][j][k][i], T[c][a][b][k][i][j]))])
    rep.sweep([m] * 4 + [n] * 4, [
        ("OLY-5.3", lambda a, b, c, d, i, j, k, l: vec_sum(
            "+++", contract(T[t[a][b]][c][d], B[a][b][i][j], E[k], E[l]),
            contract(T[t[b][c]][a][d], B[b][c][j][k], E[i], E[l]),
            contract(T[t[c][a]][b][d], B[c][a][k][i], E[j], E[l])))])
    rep.sweep([m] * 4 + [n] * 4, [
        ("OLY-5.4", lambda si, a, b, c, ii, jj, kk, ll: vec_sub(
            contract(T[si][a][t[b][c]][ii][jj], B[b][c][kk][ll]), vec_add(
                contract(B[t[t[si][a]][b]][c], T[si][a][b][ii][jj][kk], E[ll]),
                contract(B[b][t[t[si][a]][c]][kk], T[si][a][c][ii][jj][ll]))))])
    return rep.sweep([m] * 5 + [n] * 5, [
        ("OLY-5.5", lambda si, ta, a, b, c, ii, jj, kk, ll, mm: vec_sub(
            contract(T[si][ta][t[t[a][b]][c]][ii][jj], T[a][b][c][kk][ll][mm]),
            vec_sum("+++", contract(T[t[t[si][ta]][a]][b][c],
                                   T[si][ta][a][ii][jj][kk], E[ll], E[mm]),
                    contract(T[a][t[t[si][ta]][b]][c][kk],
                             T[si][ta][b][ii][jj][ll], E[mm]),
                    contract(T[a][b][t[t[si][ta]][c]][kk][ll],
                             T[si][ta][c][ii][jj][mm]))))])


def omega_ly_from_omega_lie(dim: int, s: FiniteCommutativeSemigroup,
                            binary: list) -> OmegaLYAlgebra:
    """Indexed Lie bracket family with the induced ternary
    {x,y,z}_{a,b,c} = [[x,y]_{a,b}, z]_{ab,c}."""
    O = zero_omega_ly(dim, s)
    O.binary = binary
    bad = O.invariant_report()
    if not bad.ok:
        raise PreconditionError("binary tensor is not skew: %s"
                                % (bad.violations[0],))
    M, n, t = s.order, dim, s.table
    E = identity(n)
    B = O.binary
    rep = Report().sweep([range(M)] * 3 + [range(n)] * 3, [
        ("OLIE-jacobi", lambda a, b, c, i, j, k: vec_sum(
            "+++", O.br(t[a][b], c, B[a][b][i][j], E[k]),
            O.br(t[b][c], a, B[b][c][j][k], E[i]),
            O.br(t[c][a], b, B[c][a][k][i], E[j])))])
    if not rep.ok:
        raise PreconditionError("indexed Jacobi identity fails: %s"
                                % (rep.violations[0],))
    for a, b, c in itertools.product(range(M), repeat=3):
        for i, j, k in itertools.product(range(n), repeat=3):
            O.ternary[a][b][c][i][j][k] = O.br(
                product(s, a, b), c, O.binary[a][b][i][j], E[k])
    return O


def omega_ly_from_ns_family(N) -> OmegaLYAlgebra:
    """Indexed algebra on the derived star-binary and double brackets."""
    from .nsfamily import check_ns_family_axioms, derived_brackets
    bad = check_ns_family_axioms(N)
    if not bad.ok:
        raise PreconditionError("input fails the splitting-family axioms: %s"
                                % (bad.violations[0],))
    star2, _, dbl = derived_brackets(N)
    return OmegaLYAlgebra(dim=N.dim, semigroup=N.semigroup,
                          binary=star2, ternary=dbl)


def omega_ly_from_reynolds(A, s, family) -> OmegaLYAlgebra:
    """Indexed algebra induced by a Reynolds family on the algebra itself."""
    from .cohomology import induced_omega_ly_on_V
    from .rbfamily import check_reynolds_family, reynolds_as_twisted
    bad = check_reynolds_family(A, s, family)
    if not bad.ok:
        raise PreconditionError("input fails the Reynolds family laws: %s"
                                % (bad.violations[0],))
    return induced_omega_ly_on_V(reynolds_as_twisted(A, s, family))


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
        M = self.algebra.semigroup.order
        n = self.algebra.dim
        if len(self.rho) != M or any(len(r) != M for r in self.rho):
            raise PreconditionError("rho index shape mismatch")
        if any(len(self.rho[a][c]) != n for a in range(M) for c in range(M)):
            raise PreconditionError("rho basis shape mismatch")
        if len(self.theta) != M:
            raise PreconditionError("theta index shape mismatch")

    def d_tensor(self):
        """D_{a,b,s}(e_i, e_j, -) as matrices, via the derived-operator rule:
        theta_{b,a,s}(e_j, e_i) - theta_{a,b,s}(e_i, e_j)
        - rho_{ab,s}([e_i, e_j]) + rho_{a,bs}(e_i)rho_{b,s}(e_j)
        - rho_{b,as}(e_j)rho_{a,s}(e_i)."""
        s = self.algebra.semigroup
        M, n = s.order, self.algebra.dim
        RHO, TH = self.rho, self.theta
        # each product rho_{a,bc}(e_i)rho_{b,c}(e_j) once; the other order
        # is the entry at [b][a][c][j][i]
        prod = [[[[[mat_mul(RHO[a][product(s, b, c)][i], RHO[b][c][j])
                    for j in range(n)] for i in range(n)] for c in range(M)]
                 for b in range(M)] for a in range(M)]
        D = [[[[[None for _ in range(n)] for _ in range(n)]
               for _ in range(M)] for _ in range(M)] for _ in range(M)]
        for a, b, c in itertools.product(range(M), repeat=3):
            rho_ab = RHO[product(s, a, b)][c]
            for i, j in itertools.product(range(n), repeat=2):
                # the five matrices row by row, summed left to right
                rows = zip(TH[b][a][c][j][i], TH[a][b][c][i][j],
                           contract(rho_ab, self.algebra.binary[a][b][i][j]),
                           prod[a][b][c][i][j], prod[b][a][c][j][i])
                D[a][b][c][i][j] = [
                    [t1 - t2 - r1 + p1 - p2
                     for t1, t2, r1, p1, p2 in zip(*row)] for row in rows]
        return D


def zero_omega_representation(O: OmegaLYAlgebra, dim: int) -> OmegaRepresentation:
    M, n = O.semigroup.order, O.dim
    rho = [[[zeros(dim, dim) for _ in range(n)] for _ in range(M)]
           for _ in range(M)]
    theta = [[[[[zeros(dim, dim) for _ in range(n)] for _ in range(n)]
               for _ in range(M)] for _ in range(M)] for _ in range(M)]
    return OmegaRepresentation(algebra=O, dim=dim, rho=rho, theta=theta)


def check_omega_representation(O: OmegaLYAlgebra,
                               r: OmegaRepresentation) -> Report:
    """Evaluate the five indexed representation laws on all tuples.

    Each law is a matrix identity on the module; column c of its residual
    matrix is the residual at the module basis vector u_c, recorded at the
    tuple extended by c.  The matrices of a tuple are computed once, for
    its first column.
    """
    t, m, n = O.semigroup.table, O.semigroup.elements, range(O.dim)
    E = identity(O.dim)
    B, T, RHO, TH, D = O.binary, O.ternary, r.rho, r.theta, r.d_tensor()

    @lru_cache(maxsize=1)
    def laws_5_6_to_5_8(a, b, g, si, i, j, k):
        ab, abg = t[a][b], t[t[a][b]][g]
        absi = t[ab][si]
        return (
            mat_sum("+-+", contract(TH[ab][g][si], B[a][b][i][j], E[k]),
                    mat_mul(TH[a][g][t[b][si]][i][k], RHO[b][si][j]),
                    mat_mul(TH[b][g][t[a][si]][j][k], RHO[a][si][i])),
            mat_sum("+--", mat_mul(D[a][b][t[g][si]][i][j], RHO[g][si][k]),
                    mat_mul(RHO[g][absi][k], D[a][b][si][i][j]),
                    contract(RHO[abg][si], T[a][b][g][i][j][k])),
            mat_sum("+-+", contract(TH[a][t[b][g]][si][i], B[b][g][j][k]),
                    mat_mul(RHO[b][t[t[a][g]][si]][j], TH[a][g][si][i][k]),
                    mat_mul(RHO[g][absi][k], TH[a][b][si][i][j])))

    @lru_cache(maxsize=1)
    def laws_5_9_and_5_10(ta, a, b, g, si, ii, i, j, k):
        tasi = t[t[ta][a]][si]
        return (
            mat_sum("+---",
                    mat_mul(D[ta][a][t[t[b][g]][si]][ii][i], TH[b][g][si][j][k]),
                    mat_mul(TH[b][g][tasi][j][k], D[ta][a][si][ii][i]),
                    contract(TH[t[t[ta][a]][b]][g][si], T[ta][a][b][ii][i][j],
                             E[k]),
                    contract(TH[b][t[t[ta][a]][g]][si][j],
                             T[ta][a][g][ii][i][k])),
            mat_sum("+-+-",
                    contract(TH[ta][t[t[a][b]][g]][si][ii], T[a][b][g][i][j][k]),
                    mat_mul(TH[b][g][tasi][j][k], TH[ta][a][si][ii][i]),
                    mat_mul(TH[a][g][t[t[ta][b]][si]][i][k], TH[ta][b][si][ii][j]),
                    mat_mul(D[a][b][t[t[ta][g]][si]][i][j], TH[ta][g][si][ii][k])))

    def column(laws, law):
        return lambda *w: [row[w[-1]] for row in laws(*w[:-1])[law]]

    cols = [range(r.dim)]
    rep = Report().sweep([m] * 4 + [n] * 3, [(cols, [
        ("OREP-5.6", column(laws_5_6_to_5_8, 0)),
        ("OREP-5.7", column(laws_5_6_to_5_8, 1)),
        ("OREP-5.8", column(laws_5_6_to_5_8, 2))])])
    return rep.sweep([m] * 5 + [n] * 4, [(cols, [
        ("OREP-5.9", column(laws_5_9_and_5_10, 0)),
        ("OREP-5.10", column(laws_5_9_and_5_10, 1))])])


# ---------------------------------------------------------------------------
# cochain families

def _enc(tup, base):
    v = 0
    for t in tup:
        v = v * base + t
    return v


def comp_zero(M, k, nA, d):
    return [[zero_vec(d) for _ in range(nA ** k)] for _ in range(M ** k)]


def comp_get(comp, M, nA, alphas, idxs):
    return comp[_enc(alphas, M)][_enc(idxs, nA)]


@dataclass
class CochainFamily:
    """Cochain of degree 1 or (2n, 2n+1) (also used for the (3,4) target).

    Degree 1 stores one matrix per semigroup index (module <- algebra carrier).
    A pair degree stores an even component with 2n argument slots and an odd
    component with 2n+1 slots, each a full table over index tuples and basis
    argument tuples with vector values in the coefficient space.
    """
    semigroup: FiniteCommutativeSemigroup
    dim_alg: int
    dim_coeff: int
    degree: object  # 1 or (even_arity, odd_arity)
    even: list
    odd: list | None = None

    def as_component(self):
        """The degree-1 cochain as a 1-slot table (for the generic coboundary)."""
        return [transpose(m, self.dim_alg) for m in self.even]


def cochain_zero(s, dim_alg, dim_coeff, degree) -> CochainFamily:
    M = s.order
    if degree == 1:
        return CochainFamily(s, dim_alg, dim_coeff, 1,
                             [zeros(dim_coeff, dim_alg) for _ in range(M)])
    ke, ko = degree
    return CochainFamily(s, dim_alg, dim_coeff, (ke, ko),
                         comp_zero(M, ke, dim_alg, dim_coeff),
                         comp_zero(M, ko, dim_alg, dim_coeff))


def cochain_full_coords(c: CochainFamily):
    """Flatten every table entry into one coordinate vector."""
    out = []
    if c.degree == 1:
        for mtx in c.even:
            for row in mtx:
                out.extend(row)
        return out
    for comp in (c.even, c.odd):
        for table in comp:
            for v in table:
                out.extend(v)
    return out


def _canonical_tuples(M, nA, K, npairs):
    """(alphas, idxs) of each K-slot tuple whose joint labels i*M + a
    increase strictly inside each of its first npairs slot pairs."""
    J = M * nA
    pair = [(p, q) for p in range(J) for q in range(p + 1, J)]
    free = [(t,) for t in range(J)]
    for parts in itertools.product(*([pair] * npairs
                                     + [free] * (K - 2 * npairs))):
        joints = [t for part in parts for t in part]
        yield [t % M for t in joints], [t // M for t in joints]


def canonical_coords(c: CochainFamily):
    """The coordinates of a coboundary image at its canonical tuples only.

    The outputs of delta and delta* are skew in the first k // 2 slot
    pairs of a k-slot even component, and in as many of the odd one.  Every
    other coordinate is the negative of one of these, or 0, so these rows
    span the same row space as all of cochain_full_coords(c).
    """
    M, nA = c.semigroup.order, c.dim_alg
    npairs = c.degree[0] // 2
    out = []
    for comp, k in zip((c.even, c.odd), c.degree):
        for al, xs in _canonical_tuples(M, nA, k, npairs):
            out.extend(comp[_enc(al, M)][_enc(xs, nA)])
    return out


def _pair_swap_ok(comp, M, nA, k, pair_pos, d):
    """Violations of skewness at one pair of consecutive slots."""
    bad = []
    for alphas in itertools.product(range(M), repeat=k):
        for idxs in itertools.product(range(nA), repeat=k):
            sa = list(alphas)
            si = list(idxs)
            p = pair_pos
            sa[p], sa[p + 1] = sa[p + 1], sa[p]
            si[p], si[p + 1] = si[p + 1], si[p]
            r = vec_add(comp_get(comp, M, nA, alphas, idxs),
                        comp_get(comp, M, nA, sa, si))
            if any(r):
                bad.append((pair_pos, alphas, idxs, tuple(r)))
    return bad


def cochain_skew_report(c: CochainFamily) -> Report:
    """Pairwise skewness of a pair-degree cochain (degree 1 is unconstrained)."""
    rep = Report()
    if c.degree == 1:
        return rep
    ke, ko = c.degree
    M, nA, d = c.semigroup.order, c.dim_alg, c.dim_coeff
    npairs = ke // 2
    for p in range(npairs):
        for w in _pair_swap_ok(c.even, M, nA, ke, 2 * p, d):
            rep.add("invariant:cochain-skew-even", w[:3], w[3])
        for w in _pair_swap_ok(c.odd, M, nA, ko, 2 * p, d):
            rep.add("invariant:cochain-skew-odd", w[:3], w[3])
    return rep


# ---------------------------------------------------------------------------
# skew coordinate bases

@dataclass
class SkewBasis:
    """Enumerated basis of the pairwise-skew subspace at one cochain degree.

    Joint indices pack (argument basis element, semigroup index) into a single
    label; a basis element fixes an ordered pair p < q of joint labels per
    consecutive slot pair, a free joint label for the odd trailing slot, and a
    coefficient coordinate.
    """
    degree: object
    semigroup: FiniteCommutativeSemigroup
    dim_alg: int
    dim_coeff: int
    elements: list

    @property
    def size(self):
        return len(self.elements)

    def embed(self, idx) -> CochainFamily:
        c = cochain_zero(self.semigroup, self.dim_alg, self.dim_coeff,
                         self.degree)
        self.add_embedded(c, idx, 1)
        return c

    def add_embedded(self, c: CochainFamily, idx, scale):
        """Add scale * basis element idx into cochain c (in place)."""
        M = self.semigroup.order
        nA = self.dim_alg
        el = self.elements[idx]
        if el[0] == "one":
            _, a, i, co = el
            c.even[a][co][i] += scale
            return
        kind, pairs, last, co = el
        comp = c.even if kind == "even" else c.odd
        for choices in itertools.product((0, 1), repeat=len(pairs)):
            sign = 1
            joints = []
            for (p, q), ch in zip(pairs, choices):
                if ch == 0:
                    joints.extend((p, q))
                else:
                    joints.extend((q, p))
                    sign = -sign
            if last is not None:
                joints.append(last)
            alphas = []
            idxs = []
            for jt in joints:
                i, a = split_joint(jt, M)
                alphas.append(a)
                idxs.append(i)
            comp_get(comp, M, nA, alphas, idxs)[co] += sign * scale

    def project(self, c: CochainFamily):
        """Coordinates of a (skew) cochain in this basis."""
        M = self.semigroup.order
        nA = self.dim_alg
        out = []
        for el in self.elements:
            if el[0] == "one":
                _, a, i, co = el
                out.append(c.even[a][co][i])
                continue
            kind, pairs, last, co = el
            comp = c.even if kind == "even" else c.odd
            joints = []
            for p, q in pairs:
                joints.extend((p, q))
            if last is not None:
                joints.append(last)
            alphas = []
            idxs = []
            for jt in joints:
                i, a = split_joint(jt, M)
                alphas.append(a)
                idxs.append(i)
            out.append(comp_get(comp, M, nA, alphas, idxs)[co])
        return out

    def combine(self, coords) -> CochainFamily:
        c = cochain_zero(self.semigroup, self.dim_alg, self.dim_coeff,
                         self.degree)
        for idx, v in enumerate(coords):
            if v:
                self.add_embedded(c, idx, v)
        return c

    def symbolic(self) -> CochainFamily:
        """The generic skew cochain sum_i e_i {i: 1}, with linear-form
        entries.  A linear operator evaluated on it gives, at each output
        coordinate, the row of its matrix on this basis."""
        return self.combine(generic_vector(self.size))


def skew_basis(degree, dims, s: FiniteCommutativeSemigroup,
               budget: int | None = None) -> SkewBasis:
    """Basis of the skew subspace; dims = (carrier dim, coefficient dim)."""
    nA, d = dims
    M = s.order
    joint = M * nA
    elements = []
    if degree == 1:
        for a in range(M):
            for i in range(nA):
                for co in range(d):
                    elements.append(("one", a, i, co))
        return SkewBasis(1, s, nA, d, elements)
    ke, ko = degree
    if ko != ke + 1 or ke < 2 or ke % 2:
        raise PreconditionError("degree must be 1 or (2n, 2n+1): %r" % (degree,))
    npairs = ke // 2
    pair_choices = [(p, q) for p in range(joint) for q in range(p + 1, joint)]
    npair = len(pair_choices)
    total = (npair ** npairs) * d * (1 + joint)
    ensure_budget((M ** ke) * (nA ** ke) * d + (M ** ko) * (nA ** ko) * d,
                  budget)
    for combo in itertools.product(pair_choices, repeat=npairs):
        for co in range(d):
            elements.append(("even", combo, None, co))
    for combo in itertools.product(pair_choices, repeat=npairs):
        for last in range(joint):
            for co in range(d):
                elements.append(("odd", combo, last, co))
    assert len(elements) == total
    return SkewBasis((ke, ko), s, nA, d, elements)


# ---------------------------------------------------------------------------
# coboundary operators

def _require_skew(O: OmegaLYAlgebra, c: CochainFamily) -> None:
    """Refuse inputs outside the hypotheses of the mirror fill: the brackets
    of O must be skew, and a pair-degree input skew in each slot pair."""
    bad = O.invariant_report()
    if not bad.ok:
        raise PreconditionError("the brackets of the algebra are not skew: %s"
                                % (bad.violations[0],))
    bad = cochain_skew_report(c)
    if not bad.ok:
        raise PreconditionError("the input cochain is not skew: %s"
                                % (bad.violations[0],))


def _put_mirrored(table, M, nA, al, xs, value, npairs):
    """Write value at (al, xs), and (-1)^m value at each tuple obtained by
    swapping m > 0 of its first npairs slot pairs."""
    neg = vec_neg(value)
    for swaps in itertools.product((False, True), repeat=npairs):
        a, x = list(al), list(xs)
        for k, swap in enumerate(swaps):
            if swap:
                a[2 * k], a[2 * k + 1] = a[2 * k + 1], a[2 * k]
                x[2 * k], x[2 * k + 1] = x[2 * k + 1], x[2 * k]
        table[_enc(a, M)][_enc(x, nA)] = list(
            neg if sum(swaps) % 2 else value)


def _at_vector(comp, M, nA, d, al, xs, j, vec):
    """The component at the basis vectors xs, with the vector vec in slot j
    instead: a sum over the support of vec (xs[j] is ignored)."""
    table = comp[_enc(al, M)]
    stride = nA ** (len(xs) - 1 - j)
    base = _enc(xs, nA) - xs[j] * stride
    out = zero_vec(d)
    for z, cz in enumerate(vec):
        if cz:
            out = vec_add(out, vec_scale(cz, table[base + z * stride]))
    return out


def delta_omega(O: OmegaLYAlgebra, r: OmegaRepresentation, c: CochainFamily,
                budget: int | None = None) -> CochainFamily:
    """Coboundary of a degree-1 or (2n,2n+1) cochain.

    The degree-1 case is the n = 0 instance of the general displayed sums, so
    a single evaluator covers every degree.  The output is skew in every
    slot pair of both components, so only the canonical tuples are
    evaluated: those whose joint labels i*M + a increase strictly inside
    each pair.  Each value is then written at the tuples with some of those
    pairs swapped, times (-1) to the number swapped; a tuple with a repeated
    label in a pair stays 0.  The skewness needs skew brackets on O and, in
    a pair degree, an input skew in each slot pair; other inputs are
    refused with PreconditionError.
    """
    s = O.semigroup
    M, nA, d = s.order, O.dim, r.dim
    if c.dim_alg != nA or c.dim_coeff != d:
        raise PreconditionError("cochain shape does not match algebra/module")
    if c.degree == 1:
        n = 0
        f_comp = None
        g_comp = c.as_component()
    else:
        ke, ko = c.degree
        n = ke // 2
        f_comp = c.even
        g_comp = c.odd
    KE, KO = 2 * n + 2, 2 * n + 3
    ensure_budget((M ** KE) * (nA ** KE) * d + (M ** KO) * (nA ** KO) * d,
                  budget)
    _require_skew(O, c)
    out = cochain_zero(s, nA, d, (KE, KO))
    sign_n = -1 if n % 2 else 1
    RHO, TH, D, T = r.rho, r.theta, r.d_tensor(), O.ternary

    def word(indices):
        return product_of(s, indices)

    def removed_pairs(acc, comp, al, xs, npairs):
        """The derived-operator and substitution sums over the first
        npairs slot pairs, each removed in turn, acting on comp."""
        K = len(al)
        for k in range(1, npairs + 1):
            i1, i2 = 2 * k - 2, 2 * k - 1
            rem_al = al[:i1] + al[i2 + 1:]
            t = mat_vec(D[al[i1]][al[i2]][word(rem_al)][xs[i1]][xs[i2]],
                        comp_get(comp, M, nA, rem_al, xs[:i1] + xs[i2 + 1:]))
            acc = vec_add(acc, vec_scale(-1 if k % 2 == 0 else 1, t))
        for k in range(1, npairs + 1):
            i1, i2 = 2 * k - 2, 2 * k - 1
            sk = 1 if k % 2 == 0 else -1
            rem_xs = xs[:i1] + xs[i2 + 1:]
            for j in range(i2 + 1, K):
                new_al = list(al)
                new_al[j] = product_of(s, (al[i1], al[i2], al[j]))
                new_al = new_al[:i1] + new_al[i2 + 1:]
                t = _at_vector(comp, M, nA, d, new_al, rem_xs, j - 2,
                               T[al[i1]][al[i2]][al[j]][xs[i1]][xs[i2]][xs[j]])
                acc = vec_add(acc, vec_scale(sk, t))
        return acc

    for al, xs in _canonical_tuples(M, nA, KE, n + 1):
        # block in the last two slots
        g1 = comp_get(g_comp, M, nA, al[:2 * n] + [al[KE - 1]],
                      xs[:2 * n] + [xs[KE - 1]])
        t = mat_vec(RHO[al[KE - 2]][word(al[:KE - 2] + [al[KE - 1]])]
                    [xs[KE - 2]], g1)
        g2 = comp_get(g_comp, M, nA, al[:KE - 1], xs[:KE - 1])
        t = vec_sub(t, mat_vec(RHO[al[KE - 1]][word(al[:KE - 1])]
                               [xs[KE - 1]], g2))
        t = vec_sub(t, _at_vector(
            g_comp, M, nA, d,
            al[:2 * n] + [product(s, al[KE - 2], al[KE - 1])],
            xs[:KE - 1], 2 * n,
            O.binary[al[KE - 2]][al[KE - 1]][xs[KE - 2]][xs[KE - 1]]))
        acc = removed_pairs(vec_scale(sign_n, t), f_comp, al, xs, n)
        _put_mirrored(out.even, M, nA, al, xs, acc, n + 1)
    for al, xs in _canonical_tuples(M, nA, KO, n + 1):
        gA = comp_get(g_comp, M, nA, al[:KO - 2], xs[:KO - 2])
        t = mat_vec(TH[al[KO - 2]][al[KO - 1]][word(al[:KO - 2])]
                    [xs[KO - 2]][xs[KO - 1]], gA)
        gB = comp_get(g_comp, M, nA, al[:2 * n] + [al[KO - 2]],
                      xs[:2 * n] + [xs[KO - 2]])
        t = vec_sub(t, mat_vec(TH[al[KO - 3]][al[KO - 1]]
                               [word(al[:2 * n] + [al[KO - 2]])]
                               [xs[KO - 3]][xs[KO - 1]], gB))
        acc = removed_pairs(vec_scale(sign_n, t), g_comp, al, xs, n + 1)
        _put_mirrored(out.odd, M, nA, al, xs, acc, n + 1)
    return out


def delta_star_omega(O: OmegaLYAlgebra, r: OmegaRepresentation,
                     c: CochainFamily) -> CochainFamily:
    """The extra differential out of degree (2,3), landing in the (3,4) pair.

    Both output components are skew in their first slot pair, so only the
    tuples whose first two joint labels increase strictly are evaluated; the
    value at the swapped tuple is the negative, and 0 where the two labels
    agree.  The skewness needs skew brackets on O and an input skew in each
    slot pair; other inputs are refused with PreconditionError.
    """
    if c.degree != (2, 3):
        raise PreconditionError("input must have degree (2, 3)")
    _require_skew(O, c)
    s = O.semigroup
    M, nA, d = s.order, O.dim, r.dim
    out = cochain_zero(s, nA, d, (3, 4))
    RHO, TH, B = r.rho, r.theta, O.binary
    f, g = c.even, c.odd
    # each term is a sum over the cyclic rotations (u, v, w) of three slots
    rotations = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    for al, xs in _canonical_tuples(M, nA, 3, 1):
        acc = zero_vec(d)
        for u, v, w in rotations:
            acc = vec_sub(acc, mat_vec(
                RHO[al[u]][product(s, al[v], al[w])][xs[u]],
                comp_get(f, M, nA, (al[v], al[w]), (xs[v], xs[w]))))
        for u, v, w in rotations:
            acc = vec_add(acc, _at_vector(
                f, M, nA, d, (product(s, al[u], al[v]), al[w]),
                (0, xs[w]), 0, B[al[u]][al[v]][xs[u]][xs[v]]))
        for u, v, w in rotations:
            acc = vec_add(acc, comp_get(g, M, nA, (al[u], al[v], al[w]),
                                        (xs[u], xs[v], xs[w])))
        _put_mirrored(out.even, M, nA, al, xs, acc, 1)
    for al, xs in _canonical_tuples(M, nA, 4, 1):
        acc = zero_vec(d)
        for u, v, w in rotations:
            acc = vec_add(acc, mat_vec(
                TH[al[u]][al[3]][product(s, al[v], al[w])][xs[u]][xs[3]],
                comp_get(f, M, nA, (al[v], al[w]), (xs[v], xs[w]))))
        for u, v, w in rotations:
            acc = vec_add(acc, _at_vector(
                g, M, nA, d, (product(s, al[u], al[v]), al[w], al[3]),
                (0, xs[w], xs[3]), 0, B[al[u]][al[v]][xs[u]][xs[v]]))
        _put_mirrored(out.odd, M, nA, al, xs, acc, 1)
    return out


# ---------------------------------------------------------------------------
# cohomology dimensions of the indexed complex

def omega_cohomology_dims(O: OmegaLYAlgebra, r: OmegaRepresentation,
                          max_n: int, budget: int | None = None):
    """[dim H^1, dim H^(2,3), ..., dim H^(2 max_n, 2 max_n + 1)].

    Degree 1 is the kernel of delta on C^1 (the indexed complex has no degree
    0 term); degree (2,3) intersects the kernels of delta and delta* and
    quotients by delta C^1; higher degrees quotient ker delta by the image.
    """
    if max_n < 0:
        raise PreconditionError("max_n must be >= 0")
    s = O.semigroup
    dims_pair = (O.dim, r.dim)
    basis1 = skew_basis(1, dims_pair, s)
    prev_size = basis1.size
    prev_image = delta_omega(O, r, basis1.symbolic(), budget)
    out = [len(form_kernel(canonical_coords(prev_image), prev_size))]
    for n in range(1, max_n + 1):
        bas = skew_basis((2 * n, 2 * n + 1), dims_pair, s, budget)
        b_coords = form_columns(bas.project(prev_image), prev_size)
        c = bas.symbolic()
        image = delta_omega(O, r, c, budget)
        rows = canonical_coords(image)
        if n == 1:
            rows += canonical_coords(delta_star_omega(O, r, c))
        z_basis = form_kernel(rows, bas.size)
        out.append(quotient_dim(z_basis, b_coords))
        prev_size, prev_image = bas.size, image
    return out
