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
from functools import cached_property

from .errors import ConsistencyError, PreconditionError
from .linalg import (contract, contract_grid, form_columns, form_kernel,
                     form_rows, generic_vector, identity, mat_add, mat_mul,
                     mat_sub, mat_vec, quotient, solve, transpose, vec_add,
                     vec_scale, vec_sub, vec_sum, zeros)
from .omega import (CochainFamily, OmegaLYAlgebra, OmegaRepresentation,
                    cochain_build, cochain_coords, cochain_full_table,
                    cohomology_step, delta_omega,
                    delta_star_omega, skew_basis)
from .rbfamily import (ImageTables, TwistedRBContext, family_check,
                       family_report, family_screened, family_tables, images,
                       induced_products)
from .report import Report
from .semigroup import product, product_of, validate_semigroup


def induced_omega_ly_on_V(ctx: TwistedRBContext,
                          check: bool = True) -> OmegaLYAlgebra:
    """The indexed algebra the family induces on V."""
    return _induced_algebra(family_tables(ctx), check)


def induced_rep_on_L(ctx: TwistedRBContext, check: bool = True,
                     algebra: OmegaLYAlgebra | None = None) -> OmegaRepresentation:
    """The representation of the induced indexed algebra on L itself.

    Column l of rho[a][s][i] is [x, e_l] + T_sa(rho(e_l)u_i + Gamma1(e_l, x))
    and column l of theta[a][b][s][i][j] is {e_l, x, y}
    - T_sab(D(e_l, x)u_j - theta(e_l, y)u_i + Gamma2(e_l, x, y)), at
    x = T_a u_i and y = T_b u_j; only T_sa and T_sab depend on s.
    """
    tt = family_tables(ctx)
    if algebra is None:
        algebra = _induced_algebra(tt, check)
    rho, theta = _induced_rep(tt)
    return OmegaRepresentation(algebra=algebra, dim=ctx.dimL, rho=rho,
                               theta=theta)


def _induced_algebra(tt: ImageTables, check: bool) -> OmegaLYAlgebra:
    """induced_omega_ly_on_V from the tables at the family's images; the
    family check runs on the same tables as the products."""
    binary, ternary = induced_products(tt)
    if check:
        family_check(tt, binary, ternary).require(
            "input is not a twisted Rota-Baxter family")
    return OmegaLYAlgebra(dim=tt.ctx.dimV, semigroup=tt.ctx.semigroup,
                          binary=binary, ternary=ternary)


def _built(cls, **fields):
    """The dataclass cls with these fields, without its __post_init__ shape
    check: for tables built here from a checked context, which have their
    shapes by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _per_word(words, block):
    """[block(w) for w in words], each block computed once per distinct
    word; a repeated word gets a fresh copy of its rows."""
    done = {}
    return [[list(r) for r in done[w]] if w in done
            else done.setdefault(w, block(w)) for w in words]


def _induced_rep(tt: ImageTables):
    """(rho, theta) of induced_rep_on_L from the tables at the family's
    images T.  rho(e_l), Gamma1(e_l, x), theta(e_l, x) and D(e_l, x) are
    read from the tables at (E, T), for the basis E of L; [x, e_l],
    {e_l, x, y} and Gamma2(e_l, x, y) come from one grid each.  A block
    depends on s only through the word w = sa (sab), so it is computed
    once per word."""
    ctx, T, t, F = tt.ctx, tt.X, tt.ctx.semigroup.table, tt.ctx.family
    A, n, nv, M = ctx.algebra, ctx.dimL, ctx.dimV, ctx.semigroup.order
    L, E, S = range(n), identity(n), range(M)
    et = ImageTables(ctx, tt.derived, E, T)
    # [x, e_l] and {e_l, x, y} as the columns l of matrices: the brackets
    # with their last slot, and the first slot of the ternary one, left free
    br = contract_grid(A.binary, T, columns=n)
    tern = contract_grid([[[A.ternary[l][i][j] for l in L] for j in L]
                          for i in L], T, T, columns=n)
    g2 = contract_grid(ctx.cocycle.gamma2, E, T, T)
    rho, theta = zeros(M, M, nv), zeros(M, M, M, nv, nv)
    # each block is lhs + T_w inner (rho) or lhs - T_w inner (theta), with
    # column l of lhs and of inner the terms at e_l
    for a, i in itertools.product(S, range(nv)):
        p = a * nv + i
        lhs = br[p]
        inner = transpose([vec_add(et.rho[l][i], et.gamma1[l][p])
                           for l in L], nv)
        for si, m in enumerate(_per_word([t[si][a] for si in S], (
                lambda w: mat_add(lhs, mat_mul(F[w], inner))))):
            rho[a][si][i] = m
    for a, b in itertools.product(S, repeat=2):
        for i, j in itertools.product(range(nv), repeat=2):
            p, q = a * nv + i, b * nv + j
            lhs = tern[p][q]
            inner = transpose([vec_sum("+-+", et.D[l][p][j], et.theta[l][q][i],
                                       g2[l][p][q]) for l in L], nv)
            for si, m in enumerate(_per_word([t[t[si][a]][b] for si in S], (
                    lambda w: mat_sub(lhs, mat_mul(F[w], inner))))):
                theta[a][b][si][i][j] = m
    return rho, theta


def rep_d_closed_form_report(ctx: TwistedRBContext,
                             rep: OmegaRepresentation | None = None) -> Report:
    """Compare the derived family D of the induced representation with its
    closed form {T_a u, T_b v, x} - T_abs(theta(T_b v, x)u - theta(T_a u, x)v
    + Gamma2(T_a u, T_b v, x)), read from the tables at the images T and at
    (T, E), for the basis E of L."""
    if rep is None:
        rep = induced_rep_on_L(ctx)
    s, F, n, nv = ctx.semigroup, ctx.family, ctx.dimL, ctx.dimV
    M, t, T = range(s.order), s.table, images(F, nv)
    tt, te = (ImageTables(ctx, None, T, Y) for Y in (T, identity(n)))
    D = rep.d_tensor()

    def residuals(a, b, si, i, j):  # at each column col of D
        p, q, Ts = a * nv + i, b * nv + j, F[t[t[a][b]][si]]
        return [vec_sub(d, vec_sub(tt.ternary[p][q][col], mat_vec(Ts, vec_sum(
            "+-+", te.theta[q][col][i], te.theta[p][col][j],
            tt.gamma2[p][q][col]))))
            for col, d in enumerate(transpose(D[a][b][si][i][j], n))]

    return Report().sweep([M, M, M, range(nv), range(nv)],
                          [("D-closed-form", residuals, 1)])


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
    """Induced complex of a twisted Rota-Baxter family.

    A complex is a snapshot of its context: the images T, the derived D,
    the tables at (T, T) and the induced products are built once here, and
    the family check, both induced structures and every sweep of the
    complex read them; a first-order check reads the family-level
    partial_deg1 of its direction.  The D of the induced representation is
    built on first use and read by the generic cross-check of partial_deg1
    and by partial_23.  The standalone check_twisted_rb_family,
    induced_omega_ly_on_V and induced_rep_on_L build theirs afresh.
    """

    def __init__(self, ctx: TwistedRBContext, check: bool = True):
        self.context = ctx
        self.tables = tt = family_tables(ctx)
        binary, ternary = induced_products(tt)
        self.induced_algebra = O = _built(
            OmegaLYAlgebra, dim=ctx.dimV, semigroup=ctx.semigroup,
            binary=binary, ternary=ternary)
        # partial_deg1 evaluates canonical tuples only, which needs brackets
        # and cocycle skew in their first slot pair
        self._skew = ctx.algebra.invariant_report()
        self._skew.extend(ctx.cocycle.invariant_report())
        if check:
            validate_semigroup(ctx.semigroup).require(
                "semigroup fails validation: {laws}")
            if not family_screened(tt, binary, ternary, self._skew.ok):
                family_report(tt, binary, ternary).require(
                    "input is not a twisted Rota-Baxter family: {laws}")
        rho, theta = _induced_rep(tt)
        self.induced_rep = _built(OmegaRepresentation, algebra=O,
                                  dim=ctx.dimL, rho=rho, theta=theta)
        self._bases = {}
        self._d1 = None

    @cached_property
    def induced_D(self):
        """induced_rep.d_tensor(), built on first use."""
        return self.induced_rep.d_tensor()

    @property
    def dims(self):
        return (self.context.dimV, self.context.dimL)

    def skew_basis_at(self, degree):
        if degree not in self._bases:
            self._bases[degree] = skew_basis(degree, self.dims,
                                             self.context.semigroup)
        return self._bases[degree]

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
    A, c, D, T = ctx.algebra, ctx.cocycle, cx.tables.derived, cx.tables.X
    nv, n, M = ctx.dimV, ctx.dimL, ctx.semigroup.order
    U = identity(nv)
    # D(a, b), and Gamma2(a, b, x) and {a, b, x} at each image x = T_al u
    terms = [(contract(D, a_vec, b_vec),
              *(contract_grid(X, [a_vec], [b_vec], T)[0][0]
                for X in (c.gamma2, A.ternary)))
             for a_vec, b_vec in e.terms]
    maps = []
    for al in range(M):
        mat = zeros(n, nv)
        for Dab, g2, tri in terms:
            for col in range(nv):
                inner = mat_vec(Dab, U[col])
                inner = vec_add(inner, g2[al * nv + col])
                v = ctx.T(al, inner)
                v = vec_sub(v, tri[al * nv + col])
                for row in range(n):
                    mat[row][col] += v[row]
        maps.append(mat)
    return CochainFamily(ctx.semigroup, nv, n, 1, maps)


def _require_skew_context(cx: RBFComplex) -> None:
    """Refuse a context outside the hypotheses of the canonical-tuple
    evaluation."""
    cx._skew.require("the brackets or cocycle of the context are not skew: {first}")


def _first_order_tables(cx: RBFComplex, f: CochainFamily):
    """Images x = T_a u_i and x1 = f_a u_i, and the contractions at the
    pairs (x, y), (x, y1) and (x1, y): the complex's own tables at (T, T)
    and new ones at (T, F) and (F, T)."""
    tt, ctx = cx.tables, cx.context
    T, F = tt.X, images(f.even, ctx.dimV)
    return (T, F, tt, ImageTables(ctx, tt.derived, T, F),
            ImageTables(ctx, tt.derived, F, T))


def _family_d1(cx: RBFComplex, f: CochainFamily) -> CochainFamily:
    """Degree-1 coboundary of f, computed from the family data: the tensors
    of the context at the images of T and of f.

    The output is skew in its first slot pair, so, as in delta_omega, it is
    built from the canonical tuples only: those whose joint labels i*M + a
    increase strictly in the first two slots.  A context whose brackets or
    cocycle are not skew is refused.
    """
    _require_skew_context(cx)
    ctx = cx.context
    s, nv = ctx.semigroup, ctx.dimV
    T, F, tt, tf, ft = _first_order_tables(cx, f)
    # [u_i, u_j]_T and {u_i, u_j, u_k}_T, the products induced on V
    B, C = cx.induced_algebra.binary, cx.induced_algebra.ternary
    # x, y, z = T_a1 u_i, T_a2 u_j, T_a3 u_k at p, q, t; f1, f2, f3 likewise
    def even(al, xs):
        (a1, a2), (i, j) = al, xs
        w = product(s, a1, a2)
        Tw, fw = ctx.family[w], f.even[w]
        p, q = a1 * nv + i, a2 * nv + j
        # [x, f2] - [y, f1] + T_w(rho(f2)u_i + Gamma1(f2, x)
        # - rho(f1)u_j - Gamma1(f1, y)) - f_w([u_i, u_j]_T)
        inner = vec_sum("++--", ft.rho[q][i], ft.gamma1[q][p], ft.rho[p][j],
                        ft.gamma1[p][q])
        return vec_sum("+-+-", tf.bracket[p][q], tf.bracket[q][p],
                       mat_vec(Tw, inner), mat_vec(fw, B[a1][a2][i][j]))

    # Gamma2 and {.,.,.} at (f1, y, z), also read at (q, p) for (f2, x, z);
    # at (x, y, f3) they are contracted per canonical tuple, as a grid over
    # all pairs would evaluate the other half too
    g2f, trf = ft.triples(ft.gamma2, T), ft.triples(ft.ternary, T)

    def odd(al, xs):
        (a1, a2, a3), (i, j, k) = al, xs
        w = product_of(s, al)
        Tw, fw = ctx.family[w], f.even[w]
        p, q, t = a1 * nv + i, a2 * nv + j, a3 * nv + k
        f3 = F[t]
        # T_w of theta(y, f3)u_i - theta(x, f3)u_j + Gamma2(x, y, f3)
        # + D(f1, y)u_k - theta(f1, z)u_j + Gamma2(f1, y, z)
        # - D(f2, x)u_k + theta(f2, z)u_i - Gamma2(f2, x, z)
        inner = vec_sum("+-++-+-+-", tf.theta[q][t][i], tf.theta[p][t][j],
                        contract(tt.gamma2[p][q], f3), ft.D[p][q][k],
                        ft.theta[p][t][j], g2f[p][q][t], ft.D[q][p][k],
                        ft.theta[q][t][i], g2f[q][p][t])
        # {x, y, f3} + {f1, y, z} - {f2, x, z} - T_w(inner)
        # - f_w({u_i, u_j, u_k}_T)
        return vec_sum("++---", contract(tt.ternary[p][q], f3), trf[p][q][t],
                       trf[q][p][t], mat_vec(Tw, inner),
                       mat_vec(fw, C[a1][a2][a3][i][j][k]))

    return cochain_build(s, nv, ctx.dimL, (2, 3), even, odd)


def partial_deg1(cx: RBFComplex, f) -> CochainFamily:
    """Degree-1 coboundary, computed from the family data (_family_d1) and
    cross-checked coordinate by coordinate against the generic coboundary of
    the induced complex."""
    f = _coerce_deg1(cx, f)
    out = _family_d1(cx, f)
    generic = delta_omega(cx.induced_algebra, cx.induced_rep, f,
                          D=cx.induced_D)
    if cochain_coords(out) != cochain_coords(generic):
        raise ConsistencyError(
            "family-level and induced-complex degree-1 coboundaries disagree")
    return out


def partial_23(cx: RBFComplex, fg: CochainFamily) -> CochainFamily:
    if fg.degree != (2, 3):
        raise PreconditionError("expected a (2,3)-cochain")
    return delta_omega(cx.induced_algebra, cx.induced_rep, fg,
                       D=cx.induced_D)


def partial_star_23(cx: RBFComplex, fg: CochainFamily) -> CochainFamily:
    if fg.degree != (2, 3):
        raise PreconditionError("expected a (2,3)-cochain")
    return delta_star_omega(cx.induced_algebra, cx.induced_rep, fg)


# ---------------------------------------------------------------------------
# cohomology

def _boundary_coords(cx: RBFComplex):
    """Degree-0 coboundaries of the wedge basis e_a ^ e_b (a < b), as forms
    over the wedge basis, one per degree-1 basis coordinate."""
    ctx = cx.context
    E = [ctx.algebra.basis(i) for i in range(ctx.dimL)]
    wedge = list(itertools.combinations(range(ctx.dimL), 2))
    generic = DegreeZeroElement(
        [(vec_scale(g, E[a]), E[b])
         for g, (a, b) in zip(generic_vector(len(wedge)), wedge)])
    return cx.skew_basis_at(1).project(partial_deg0(cx, generic))


def cohomology_H1(cx: RBFComplex):
    """(dimension, representative degree-1 cocycles) of ker d1 / im d0."""
    cx.context.semigroup.require_unit()
    basis1 = cx.skew_basis_at(1)
    z_basis = form_kernel(cochain_coords(cx.d1_symbolic()), basis1.size)
    n = cx.context.dimL
    b_coords = form_columns(_boundary_coords(cx), n * (n - 1) // 2)
    dim, reps = quotient(z_basis, b_coords)
    return dim, [basis1.combine(v) for v in reps]


def cohomology_H23(cx: RBFComplex) -> int:
    """dim of (ker d meet ker d*) over the image of the degree-1 coboundary."""
    return cohomology_step(cx.induced_algebra, cx.induced_rep, 1,
                           cx.d1_symbolic(), D=cx.induced_D)[0]


# ---------------------------------------------------------------------------
# deformations

def _deformation_report(d1: CochainFamily) -> Report:
    """The first-order deformation equations DEF-6.2 (pairs) and DEF-6.3
    (triples), whose residuals are the values of the degree-1 coboundary
    d1; violations are recorded in the order of all tuples."""
    rep = Report()
    if not any(cochain_coords(d1)):
        return rep
    for al, xs, v in cochain_full_table(d1):
        rep.record("DEF-6.2" if len(al) == 2 else "DEF-6.3", al + xs, v)
    return rep


def _linearized_report(cx: RBFComplex, f: CochainFamily) -> Report:
    """First-order deformation equations of f, read off its family-level
    degree-1 coboundary without the generic cross-check, so a context that
    fails the family laws still gets a report.  A context whose brackets or
    cocycle are not skew is refused."""
    return _deformation_report(_family_d1(cx, f))


def infinitesimal_report(cx: RBFComplex, d) -> Report:
    """The first-order deformation equations of d, read off partial_deg1,
    whose generic cross-check independently tests every residual."""
    return _deformation_report(partial_deg1(cx, d))


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
    wedge = list(itertools.combinations(range(n), 2))
    basis1 = cx.skew_basis_at(1)
    target = vec_sub(basis1.project(f1), basis1.project(f2))
    x = solve(form_rows(_boundary_coords(cx), len(wedge)), target)
    if x is None:
        return None
    witness = DegreeZeroElement(
        [(vec_scale(cv, E[a]), E[b])
         for cv, (a, b) in zip(x, wedge) if cv])
    if not equivalent_deformations_same_class(cx, f1, f2, witness):
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
