"""Cohomology and deformation theory of twisted Rota-Baxter families.

A valid family induces an indexed Lie-Yamaguti algebra on V and a
representation of it on L; the coboundary operators of that complex control
linear deformations of the family.  This module builds the induced complex,
exposes the degree-0/1/(2,3) coboundaries, computes H^1 and H^(2,3), and
implements the infinitesimal/equivalence/rigidity analysis.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ConsistencyError, PreconditionError
from .linalg import (contract, form_columns, form_kernel, form_rows,
                     generic_vector, identity, mat_vec, quotient_dim,
                     quotient_representatives, solve, vec_add, vec_scale,
                     vec_sub, zeros)
from .omega import (CochainFamily, OmegaLYAlgebra, OmegaRepresentation,
                    cochain_full_coords, cochain_zero, delta_omega,
                    delta_star_omega, skew_basis)
from .rbfamily import TwistedRBContext, check_twisted_rb_family
from .report import Report
from .semigroup import product, product_of


def induced_omega_ly_on_V(ctx: TwistedRBContext,
                          check: bool = True) -> OmegaLYAlgebra:
    """The indexed algebra the family induces on V."""
    if check:
        chk = check_twisted_rb_family(ctx)
        if not chk.ok:
            raise PreconditionError("input is not a twisted Rota-Baxter family")
    A, r, c, s = ctx.algebra, ctx.rep, ctx.cocycle, ctx.semigroup
    nv, M = ctx.dimV, s.order
    U = identity(nv)
    T = [[ctx.T(a, u) for u in U] for a in range(M)]
    binary = [[[[None for _ in range(nv)] for _ in range(nv)]
               for _ in range(M)] for _ in range(M)]
    ternary = [[[[[[None for _ in range(nv)] for _ in range(nv)]
                  for _ in range(nv)] for _ in range(M)] for _ in range(M)]
               for _ in range(M)]
    for a in range(M):
        for b in range(M):
            for i in range(nv):
                Tu = T[a][i]
                for j in range(nv):
                    Tv = T[b][j]
                    v = mat_vec(r.rho_of(Tu), U[j])
                    v = vec_sub(v, mat_vec(r.rho_of(Tv), U[i]))
                    binary[a][b][i][j] = vec_add(v, c.g1_of(Tu, Tv))
    for a in range(M):
        for b in range(M):
            for g in range(M):
                for i in range(nv):
                    Tu = T[a][i]
                    for j in range(nv):
                        Tv = T[b][j]
                        Duv = ctx.D_of(Tu, Tv)
                        for k in range(nv):
                            Tw = T[g][k]
                            w = mat_vec(Duv, U[k])
                            w = vec_add(w, mat_vec(r.theta_of(Tv, Tw), U[i]))
                            w = vec_sub(w, mat_vec(r.theta_of(Tu, Tw), U[j]))
                            w = vec_add(w, c.g2_of(Tu, Tv, Tw))
                            ternary[a][b][g][i][j][k] = w
    return OmegaLYAlgebra(dim=nv, semigroup=s, binary=binary, ternary=ternary)


def induced_rep_on_L(ctx: TwistedRBContext, check: bool = True,
                     algebra: OmegaLYAlgebra | None = None) -> OmegaRepresentation:
    """The representation of the induced indexed algebra on L itself."""
    if algebra is None:
        algebra = induced_omega_ly_on_V(ctx, check=check)
    A, r, c, s = ctx.algebra, ctx.rep, ctx.cocycle, ctx.semigroup
    n, nv, M = ctx.dimL, ctx.dimV, s.order
    U, E = identity(nv), identity(n)
    D = ctx.D()
    T = [[ctx.T(a, u) for u in U] for a in range(M)]
    rho = [[[None for _ in range(nv)] for _ in range(M)] for _ in range(M)]
    theta = [[[[[None for _ in range(nv)] for _ in range(nv)]
               for _ in range(M)] for _ in range(M)] for _ in range(M)]
    for a in range(M):
        for si in range(M):
            sa = product(s, si, a)
            for i in range(nv):
                Tu = T[a][i]
                mat = zeros(n, n)
                for col in range(n):
                    v = A.bracket(Tu, E[col])
                    inner = mat_vec(r.rho[col], U[i])
                    inner = vec_add(inner, contract(c.gamma1[col], Tu))
                    v = vec_add(v, ctx.T(sa, inner))
                    for row in range(n):
                        mat[row][col] = v[row]
                rho[a][si][i] = mat
    for a in range(M):
        for b in range(M):
            for si in range(M):
                sab = product_of(s, (si, a, b))
                for i in range(nv):
                    Tu = T[a][i]
                    for j in range(nv):
                        Tv = T[b][j]
                        mat = zeros(n, n)
                        for col in range(n):
                            v = contract(A.ternary[col], Tu, Tv)
                            inner = mat_vec(contract(D[col], Tu), U[j])
                            inner = vec_sub(inner, mat_vec(
                                contract(r.theta[col], Tv), U[i]))
                            inner = vec_add(inner, contract(c.gamma2[col],
                                                            Tu, Tv))
                            v = vec_sub(v, ctx.T(sab, inner))
                            for row in range(n):
                                mat[row][col] = v[row]
                        theta[a][b][si][i][j] = mat
    return OmegaRepresentation(algebra=algebra, dim=n, rho=rho, theta=theta)


def rep_d_closed_form_report(ctx: TwistedRBContext,
                             rep: OmegaRepresentation | None = None) -> Report:
    """Compare the derived family D of the induced representation with its
    closed form {T_a u, T_b v, x} - T_abs(theta(T_b v, x)u - theta(T_a u, x)v
    + Gamma2(T_a u, T_b v, x))."""
    if rep is None:
        rep = induced_rep_on_L(ctx)
    A, r, c, s = ctx.algebra, ctx.rep, ctx.cocycle, ctx.semigroup
    n, nv, M = ctx.dimL, ctx.dimV, s.order
    U = identity(nv)
    E = [A.basis(i) for i in range(n)]
    out = Report()
    D = rep.d_tensor()
    for a in range(M):
        for b in range(M):
            for si in range(M):
                abs_ = product_of(s, (a, b, si))
                for i in range(nv):
                    Tu = ctx.T(a, U[i])
                    for j in range(nv):
                        Tv = ctx.T(b, U[j])
                        for col in range(n):
                            x = E[col]
                            v = A.tri(Tu, Tv, x)
                            inner = mat_vec(r.theta_of(Tv, x), U[i])
                            inner = vec_sub(inner,
                                            mat_vec(r.theta_of(Tu, x), U[j]))
                            inner = vec_add(inner, c.g2_of(Tu, Tv, x))
                            v = vec_sub(v, ctx.T(abs_, inner))
                            got = [D[a][b][si][i][j][row][col]
                                   for row in range(n)]
                            out.record("D-closed-form", (a, b, si, i, j, col),
                                       tuple(vec_sub(got, v)))
    return out


# ---------------------------------------------------------------------------
# the complex of a family

@dataclass
class DegreeZeroElement:
    """Element of the wedge square of L, as a formal sum of pairs (a, b)."""
    terms: list  # list of (a_vector, b_vector)


@dataclass
class DeformationDirection:
    """Candidate first-order direction: one matrix V -> L per index."""
    family: list

    def as_cochain(self, ctx: TwistedRBContext) -> CochainFamily:
        if len(self.family) != ctx.semigroup.order:
            raise PreconditionError("one direction matrix per index required")
        for m in self.family:
            if len(m) != ctx.dimL or any(len(row) != ctx.dimV for row in m):
                raise PreconditionError(
                    "direction matrices must be dim(L) x dim(V)")
        return CochainFamily(ctx.semigroup, ctx.dimV, ctx.dimL, 1,
                             [[list(row) for row in m] for m in self.family])


class RBFComplex:
    """Induced complex of a twisted Rota-Baxter family."""

    def __init__(self, ctx: TwistedRBContext, check: bool = True):
        if check:
            chk = check_twisted_rb_family(ctx)
            if not chk.ok:
                raise PreconditionError(
                    "input is not a twisted Rota-Baxter family: %s"
                    % sorted(chk.laws()))
        self.context = ctx
        self.induced_algebra = induced_omega_ly_on_V(ctx, check=False)
        self.induced_rep = induced_rep_on_L(ctx, check=False,
                                            algebra=self.induced_algebra)
        self._bases = {}
        self._d1 = None

    @property
    def dims(self):
        return (self.context.dimV, self.context.dimL)

    def skew_basis_at(self, degree, budget=None):
        key = degree
        if key not in self._bases:
            self._bases[key] = skew_basis(degree, self.dims,
                                          self.context.semigroup, budget)
        return self._bases[key]

    def zero_cochain(self, degree) -> CochainFamily:
        return cochain_zero(self.context.semigroup, self.context.dimV,
                            self.context.dimL, degree)

    def d1_symbolic(self) -> CochainFamily:
        """partial_deg1 of the symbolic degree-1 cochain (cached): each
        coordinate is a row of the degree-1 coboundary matrix on the skew
        basis.  Its cross-check against the generic coboundary runs once
        here and covers every input by linearity."""
        if self._d1 is None:
            self._d1 = partial_deg1(self, self.skew_basis_at(1).symbolic())
        return self._d1


def _coerce_deg1(cx: RBFComplex, f) -> CochainFamily:
    if isinstance(f, DeformationDirection):
        return f.as_cochain(cx.context)
    if not isinstance(f, CochainFamily) or f.degree != 1:
        raise PreconditionError("expected a degree-1 cochain or direction")
    return f


def partial_deg0(cx: RBFComplex, e: DegreeZeroElement) -> CochainFamily:
    """(a, b) |-> (u |-> T_a(D(a,b)u + Gamma2(a,b,T_a u)) - {a,b,T_a u})."""
    ctx = cx.context
    ctx.semigroup.require_unit()
    A, c = ctx.algebra, ctx.cocycle
    nv, n, M = ctx.dimV, ctx.dimL, ctx.semigroup.order
    U = identity(nv)
    maps = []
    for al in range(M):
        mat = zeros(n, nv)
        for a_vec, b_vec in e.terms:
            Dab = ctx.D_of(a_vec, b_vec)
            for col in range(nv):
                u = U[col]
                Tu = ctx.T(al, u)
                inner = mat_vec(Dab, u)
                inner = vec_add(inner, c.g2_of(a_vec, b_vec, Tu))
                v = ctx.T(al, inner)
                v = vec_sub(v, A.tri(a_vec, b_vec, Tu))
                for row in range(n):
                    mat[row][col] += v[row]
        maps.append(mat)
    return CochainFamily(ctx.semigroup, nv, n, 1, maps)


def partial_deg1(cx: RBFComplex, f) -> CochainFamily:
    """Degree-1 coboundary, computed from the family data and cross-checked
    against the generic coboundary of the induced complex."""
    f = _coerce_deg1(cx, f)
    ctx = cx.context
    A, r, c, s = ctx.algebra, ctx.rep, ctx.cocycle, ctx.semigroup
    nv, n, M = ctx.dimV, ctx.dimL, s.order
    U = identity(nv)
    T = [[ctx.T(a, u) for u in U] for a in range(M)]
    out = cx.zero_cochain((2, 3))
    for a1, a2 in itertools.product(range(M), repeat=2):
        w12 = product(s, a1, a2)
        for i, j in itertools.product(range(nv), repeat=2):
            x, y = T[a1][i], T[a2][j]
            f1 = f.one_apply(a1, U[i])
            f2 = f.one_apply(a2, U[j])
            t = A.bracket(x, f2)
            inner = mat_vec(r.rho_of(f2), U[i])
            inner = vec_add(inner, c.g1_of(f2, x))
            t = vec_add(t, ctx.T(w12, inner))
            t = vec_sub(t, A.bracket(y, f1))
            inner = mat_vec(r.rho_of(f1), U[j])
            inner = vec_add(inner, c.g1_of(f1, y))
            t = vec_sub(t, ctx.T(w12, inner))
            arg = mat_vec(r.rho_of(x), U[j])
            arg = vec_sub(arg, mat_vec(r.rho_of(y), U[i]))
            arg = vec_add(arg, c.g1_of(x, y))
            t = vec_sub(t, f.one_apply(w12, arg))
            out.even[a1 * M + a2][i * nv + j] = t
    for a1, a2, a3 in itertools.product(range(M), repeat=3):
        w = product_of(s, (a1, a2, a3))
        for i, j, k in itertools.product(range(nv), repeat=3):
            x, y, z = T[a1][i], T[a2][j], T[a3][k]
            f1 = f.one_apply(a1, U[i])
            f2 = f.one_apply(a2, U[j])
            f3 = f.one_apply(a3, U[k])
            t = A.tri(x, y, f3)
            inner = mat_vec(r.theta_of(y, f3), U[i])
            inner = vec_sub(inner, mat_vec(r.theta_of(x, f3), U[j]))
            inner = vec_add(inner, c.g2_of(x, y, f3))
            t = vec_sub(t, ctx.T(w, inner))
            t = vec_add(t, A.tri(f1, y, z))
            inner = mat_vec(ctx.D_of(f1, y), U[k])
            inner = vec_sub(inner, mat_vec(r.theta_of(f1, z), U[j]))
            inner = vec_add(inner, c.g2_of(f1, y, z))
            t = vec_sub(t, ctx.T(w, inner))
            t = vec_sub(t, A.tri(f2, x, z))
            inner = mat_vec(ctx.D_of(f2, x), U[k])
            inner = vec_sub(inner, mat_vec(r.theta_of(f2, z), U[i]))
            inner = vec_add(inner, c.g2_of(f2, x, z))
            t = vec_add(t, ctx.T(w, inner))
            arg = mat_vec(ctx.D_of(x, y), U[k])
            arg = vec_add(arg, mat_vec(r.theta_of(y, z), U[i]))
            arg = vec_sub(arg, mat_vec(r.theta_of(x, z), U[j]))
            arg = vec_add(arg, c.g2_of(x, y, z))
            t = vec_sub(t, f.one_apply(w, arg))
            out.odd[(a1 * M + a2) * M + a3][(i * nv + j) * nv + k] = t
    generic = delta_omega(cx.induced_algebra, cx.induced_rep, f)
    if cochain_full_coords(out) != cochain_full_coords(generic):
        raise ConsistencyError(
            "family-level and induced-complex degree-1 coboundaries disagree")
    return out


def partial_23(cx: RBFComplex, fg: CochainFamily,
               budget=None) -> CochainFamily:
    if fg.degree != (2, 3):
        raise PreconditionError("expected a (2,3)-cochain")
    return delta_omega(cx.induced_algebra, cx.induced_rep, fg, budget)


def partial_higher(cx: RBFComplex, n: int, fg: CochainFamily,
                   budget=None) -> CochainFamily:
    if n < 1 or fg.degree != (2 * n, 2 * n + 1):
        raise PreconditionError("cochain degree does not match n")
    return delta_omega(cx.induced_algebra, cx.induced_rep, fg, budget)


def partial_star_23(cx: RBFComplex, fg: CochainFamily) -> CochainFamily:
    if fg.degree != (2, 3):
        raise PreconditionError("expected a (2,3)-cochain")
    return delta_star_omega(cx.induced_algebra, cx.induced_rep, fg)


# ---------------------------------------------------------------------------
# cohomology

def _wedge_basis_elements(n):
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            out.append((a, b))
    return out


def _boundary_coords(cx: RBFComplex):
    """Degree-0 coboundaries of the wedge basis e_a ^ e_b (a < b), as forms
    over the wedge basis, one per degree-1 basis coordinate."""
    ctx = cx.context
    E = [ctx.algebra.basis(i) for i in range(ctx.dimL)]
    wedge = _wedge_basis_elements(ctx.dimL)
    generic = DegreeZeroElement(
        [(vec_scale(g, E[a]), E[b])
         for g, (a, b) in zip(generic_vector(len(wedge)), wedge)])
    return cx.skew_basis_at(1).project(partial_deg0(cx, generic))


def cohomology_H1(cx: RBFComplex):
    """(dimension, representative degree-1 cocycles) of ker d1 / im d0."""
    cx.context.semigroup.require_unit()
    basis1 = cx.skew_basis_at(1)
    z_basis = form_kernel(cochain_full_coords(cx.d1_symbolic()), basis1.size)
    b_coords = form_columns(_boundary_coords(cx),
                            len(_wedge_basis_elements(cx.context.dimL)))
    dim = quotient_dim(z_basis, b_coords)
    reps = quotient_representatives(z_basis, b_coords)
    return dim, [basis1.combine(v) for v in reps]


def cohomology_H23(cx: RBFComplex, budget=None) -> int:
    """dim of (ker d meet ker d*) over the image of the degree-1 coboundary."""
    bas = cx.skew_basis_at((2, 3), budget)
    c = bas.symbolic()
    rows = (cochain_full_coords(partial_23(cx, c, budget))
            + cochain_full_coords(partial_star_23(cx, c)))
    z_basis = form_kernel(rows, bas.size)
    b_coords = form_columns(bas.project(cx.d1_symbolic()),
                            cx.skew_basis_at(1).size)
    return quotient_dim(z_basis, b_coords)


# ---------------------------------------------------------------------------
# deformations

def _linearized_report(cx: RBFComplex, f: CochainFamily) -> Report:
    """First-order deformation equations, evaluated directly."""
    ctx = cx.context
    A, r, c, s = ctx.algebra, ctx.rep, ctx.cocycle, ctx.semigroup
    nv, M = ctx.dimV, s.order
    U = identity(nv)
    T = [[ctx.T(a, u) for u in U] for a in range(M)]
    T1 = [[f.one_apply(a, u) for u in U] for a in range(M)]
    rep = Report()
    for a1, a2 in itertools.product(range(M), repeat=2):
        w = product(s, a1, a2)
        for i, j in itertools.product(range(nv), repeat=2):
            x, y = T[a1][i], T[a2][j]
            x1, y1 = T1[a1][i], T1[a2][j]
            lhs = vec_add(A.bracket(x1, y), A.bracket(x, y1))
            inner = mat_vec(r.rho_of(x), U[j])
            inner = vec_sub(inner, mat_vec(r.rho_of(y), U[i]))
            inner = vec_add(inner, c.g1_of(x, y))
            rhs = f.one_apply(w, inner)
            inner = mat_vec(r.rho_of(x1), U[j])
            inner = vec_sub(inner, mat_vec(r.rho_of(y1), U[i]))
            inner = vec_add(inner, c.g1_of(x1, y))
            inner = vec_add(inner, c.g1_of(x, y1))
            rhs = vec_add(rhs, ctx.T(w, inner))
            rep.record("DEF-6.2", (a1, a2, i, j), tuple(vec_sub(lhs, rhs)))
    for a1, a2, a3 in itertools.product(range(M), repeat=3):
        w = product_of(s, (a1, a2, a3))
        for i, j, k in itertools.product(range(nv), repeat=3):
            x, y, z = T[a1][i], T[a2][j], T[a3][k]
            x1, y1, z1 = T1[a1][i], T1[a2][j], T1[a3][k]
            lhs = A.tri(x1, y, z)
            lhs = vec_add(lhs, A.tri(x, y1, z))
            lhs = vec_add(lhs, A.tri(x, y, z1))
            inner = mat_vec(ctx.D_of(x, y), U[k])
            inner = vec_sub(inner, mat_vec(r.theta_of(x, z), U[j]))
            inner = vec_add(inner, mat_vec(r.theta_of(y, z), U[i]))
            inner = vec_add(inner, c.g2_of(x, y, z))
            rhs = f.one_apply(w, inner)
            inner = mat_vec(ctx.D_of(x1, y), U[k])
            inner = vec_add(inner, mat_vec(ctx.D_of(x, y1), U[k]))
            inner = vec_sub(inner, mat_vec(r.theta_of(x1, z), U[j]))
            inner = vec_sub(inner, mat_vec(r.theta_of(x, z1), U[j]))
            inner = vec_add(inner, mat_vec(r.theta_of(y1, z), U[i]))
            inner = vec_add(inner, mat_vec(r.theta_of(y, z1), U[i]))
            inner = vec_add(inner, c.g2_of(x1, y, z))
            inner = vec_add(inner, c.g2_of(x, y1, z))
            inner = vec_add(inner, c.g2_of(x, y, z1))
            rhs = vec_add(rhs, ctx.T(w, inner))
            rep.record("DEF-6.3", (a1, a2, a3, i, j, k),
                       tuple(vec_sub(lhs, rhs)))
    return rep


def infinitesimal_report(cx: RBFComplex, d) -> Report:
    """The first-order deformation equations of d, evaluated directly.

    Independently tests that the degree-1 coboundary of d vanishes; a
    disagreement between the two routes is an internal error.
    """
    f = _coerce_deg1(cx, d)
    rep = _linearized_report(cx, f)
    via_coboundary = not any(cochain_full_coords(partial_deg1(cx, f)))
    if rep.ok != via_coboundary:
        raise ConsistencyError(
            "deformation-equation route and coboundary route disagree "
            "(direct=%s, coboundary=%s)" % (rep.ok, via_coboundary))
    return rep


def check_infinitesimal(cx: RBFComplex, d) -> bool:
    """Whether d is the infinitesimal of a linear deformation."""
    return infinitesimal_report(cx, d).ok


def deformation_equivalence_witness(cx: RBFComplex, d1, d2):
    """A wedge-square element with d0(witness) = d1 - d2, or None."""
    ctx = cx.context
    ctx.semigroup.require_unit()
    f1 = _coerce_deg1(cx, d1)
    f2 = _coerce_deg1(cx, d2)
    if not (check_infinitesimal(cx, f1) and check_infinitesimal(cx, f2)):
        raise PreconditionError("both directions must be infinitesimals")
    n = ctx.dimL
    E = [ctx.algebra.basis(i) for i in range(n)]
    wedge = _wedge_basis_elements(n)
    basis1 = cx.skew_basis_at(1)
    target = vec_sub(basis1.project(f1), basis1.project(f2))
    x = solve(form_rows(_boundary_coords(cx), len(wedge)), target)
    if x is None:
        return None
    witness = DegreeZeroElement(
        [(vec_scale(cv, E[a]), E[b])
         for cv, (a, b) in zip(x, wedge) if cv])
    check = basis1.project(partial_deg0(cx, witness))
    if check != [v for v in target]:
        raise ConsistencyError("solved witness fails substitution")
    return witness


def equivalent_deformations_same_class(cx: RBFComplex, d1, d2,
                                       witness: DegreeZeroElement) -> bool:
    """Verify d1 - d2 = d0(witness), i.e. equal cohomology classes."""
    f1 = _coerce_deg1(cx, d1)
    f2 = _coerce_deg1(cx, d2)
    basis1 = cx.skew_basis_at(1)
    lhs = vec_sub(basis1.project(f1), basis1.project(f2))
    rhs = basis1.project(partial_deg0(cx, witness))
    return lhs == rhs


def rigidity_certificate(cx: RBFComplex) -> bool:
    """True when H^1 vanishes, which certifies rigidity of the family."""
    dim, _ = cohomology_H1(cx)
    return dim == 0
