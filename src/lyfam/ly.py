"""Lie-Yamaguti algebras, their representations, and (2,3)-cocycles.

Structure constants are stored as full tensors of coordinate vectors:
binary[i][j] is the vector of [e_i, e_j], ternary[i][j][k] that of
{e_i, e_j, e_k}.  Every multilinear law is checked on basis tuples only,
which by multilinearity is equivalent to the universally quantified law.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import MalformedInputError
from .report import Report
from .semigroup import (FiniteCommutativeSemigroup, trivial_semigroup,
                        validate_semigroup)


def _as_tensor2(t, dim, vdim):
    t = [[list(v) for v in row] for row in t]
    if not linalg.has_shape(t, (dim, dim, vdim)):
        raise MalformedInputError("bad shape for rank-2 structure tensor")
    return t


def _as_tensor3(t, dim, vdim):
    t = [[[list(v) for v in row] for row in plane] for plane in t]
    if not linalg.has_shape(t, (dim, dim, dim, vdim)):
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
        n, b, t, add = range(self.dim), self.binary, self.ternary, linalg.vec_add
        rep = Report().sweep([n, n], [("invariant:skew-binary", lambda i, j: (
            add(b[i][j], b[j][i]) if i <= j else ()))])
        return rep.sweep([n, n, n], [("invariant:skew-ternary", lambda i, j, k: (
            add(t[i][j][k], t[j][i][k]) if i <= j else ()))])

    def bracket(self, x, y):
        return linalg.contract(self.binary, x, y)

    def tri(self, x, y, z):
        return linalg.contract(self.ternary, x, y, z)

    def basis(self, i):
        e = linalg.zero_vec(self.dim)
        e[i] = 1
        return e


def zero_ly(dim: int) -> LYAlgebra:
    return LYAlgebra(dim, linalg.zeros(dim, dim, dim),
                     linalg.zeros(dim, dim, dim, dim))


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
        space_dim, linalg.zeros(alg_dim, space_dim, space_dim),
        linalg.zeros(alg_dim, alg_dim, space_dim, space_dim))


@dataclass
class Cocycle23:
    gamma1: list  # g1[i][j] -> Vector(space_dim)
    gamma2: list  # g2[i][j][k] -> Vector(space_dim)

    def g1_of(self, x, y):
        return linalg.contract(self.gamma1, x, y)

    def is_zero(self) -> bool:
        return (all(not any(v) for row in self.gamma1 for v in row)
                and all(not any(v) for p in self.gamma2 for r in p for v in r))

    def invariant_report(self) -> Report:
        n, g1, g2, add = range(len(self.gamma1)), self.gamma1, self.gamma2, \
            linalg.vec_add
        return Report().sweep([n, n], [
            ("invariant:skew-gamma1", lambda i, j: (
                add(g1[i][j], g1[j][i]) if i <= j else ())),
            ("invariant:skew-gamma2", lambda i, j: (
                [add(g2[i][j][k], g2[j][i][k]) for k in n] if i <= j else ()), 1)])


def zero_cocycle(alg_dim: int, space_dim: int) -> Cocycle23:
    return Cocycle23(linalg.zeros(alg_dim, alg_dim, space_dim),
                     linalg.zeros(alg_dim, alg_dim, alg_dim, space_dim))


def require_fit(A: LYAlgebra, r: Representation, c: Cocycle23 | None = None):
    """Refuse a representation, or a cocycle, made for other dimensions than
    those of the algebra (n) and of the representation space (m): rho,
    theta, Gamma1 and Gamma2 must have the shapes (n, m, m), (n, n, m, m),
    (n, n, m) and (n, n, n, m)."""
    n, m = A.dim, r.space_dim
    parts = [("representation rho", r.rho, (n, m, m)),
             ("representation theta", r.theta, (n, n, m, m))]
    if c is not None:
        parts += [("cocycle Gamma1", c.gamma1, (n, n, m)),
                  ("cocycle Gamma2", c.gamma2, (n, n, n, m))]
    for what, t, dims in parts:
        if not linalg.has_shape(t, dims):
            shape = []  # the lengths along the first entries
            while isinstance(t, (list, tuple)) and len(shape) < len(dims):
                shape.append(len(t))
                t = t[0] if t else None
            raise MalformedInputError(
                "%s of shape %s does not fit an algebra of dim %d and a space "
                "of dim %d, which need %s" % (what, tuple(shape), n, m, dims))


# ---------------------------------------------------------------------------
# axiom checkers

# each indexed law on the one-element semigroup: the number of semigroup
# indices that lead its witness, then (law, group of the order) as a law of
# an algebra and as a cocycle law, read in V off an extension
_LY_LAWS = {"OLY-5.2": (3, ("LY-2.1", 0), ("COC-2.14", 0)),
            "OLY-5.3": (4, ("LY-2.2", 0), ("COC-2.15", 1)),
            "OLY-5.4": (4, ("LY-2.3", 1), ("COC-2.16", 1)),
            "OLY-5.5": (5, ("LY-2.4", 1), ("COC-2.17", 1))}


def _over_trivial_semigroup(A: LYAlgebra, r: Representation | None = None):
    """A as the indexed algebra over the one-element semigroup, or, given r,
    r as the indexed representation of that algebra."""
    from .omega import OmegaLYAlgebra, OmegaRepresentation
    O = OmegaLYAlgebra(A.dim, trivial_semigroup(), [[A.binary]], [[[A.ternary]]])
    if r is None:
        return O
    return OmegaRepresentation(O, r.space_dim, [[r.rho]], [[[r.theta]]])


def check_ly_axioms(A: LYAlgebra) -> Report:
    """The laws (2.1)-(2.4) at every basis tuple: the indexed laws
    OLY-5.2...5.5 on the one-element semigroup, read by _read_laws."""
    rep = A.invariant_report()  # also the skewness of A over S1
    return _read_laws(rep, _over_trivial_semigroup(A), rep.ok, A.dim, 0)


def _read_laws(rep, O, skew: bool, n: int, column: int) -> Report:
    """rep extended by the violations of omega._omega_ly_report(O, skew), O
    over the one-element semigroup, at the basis tuples of dim n without
    their semigroup indices: the laws of O (column 0) or the cocycle laws in
    the coordinates from n on (column 1), by group, each group by witness, a
    witness before those that extend it: the order of a sweep that checks
    (2.2) after (2.1) at each (i, j, k), (2.4) after (2.3) at each
    (a, c, i, j), and COC-2.15...2.17 at each (i1, j1, i2, j2)."""
    from .omega import _omega_ly_report
    found = [(_LY_LAWS[v.law][1 + column], v.witness[_LY_LAWS[v.law][0]:],
              v.residual[n * column:]) for v in _omega_ly_report(O, skew).violations]
    for (law, _), w, residual in sorted(found, key=lambda f: (f[0][1], f[1])):
        if max(w) < n:
            rep.record(law, w, residual)
    return rep


def derived_D(A: LYAlgebra, r: Representation):
    """D[i][j] = theta(e_j,e_i) - theta(e_i,e_j) - rho([e_i,e_j])
    + rho(e_i)rho(e_j) - rho(e_j)rho(e_i): D_{a,b,s} of the indexed
    representation over the one-element semigroup."""
    return _over_trivial_semigroup(A, r).d_tensor()[0][0][0]


def check_representation(A: LYAlgebra, r: Representation) -> Report:
    """REP-2.5...2.9 are OREP-5.6...5.10 of r over the one-element
    semigroup, screened as check_omega_representation screens them: each
    residual matrix at semigroup indices 0 and a basis tuple, flattened row
    by row, at that tuple.  REP-2.11...2.13 follow as a self-test."""
    require_fit(A, r)
    return _representation_report(A, r)


def _representation_report(A: LYAlgebra, r: Representation) -> Report:
    """check_representation of an r that fits A."""
    from .omega import _representation_laws
    R = _over_trivial_semigroup(A, r)
    n, E, DR = range(A.dim), linalg.identity(A.dim), R.d_tensor()
    b, t, theta, D = A.binary, A.ternary, r.theta, DR[0][0][0]
    ct, mm = linalg.contract, linalg.mat_mul
    names = {"OREP-5.6": "REP-2.5", "OREP-5.7": "REP-2.6", "OREP-5.8": "REP-2.7",
             "OREP-5.9": "REP-2.8", "OREP-5.10": "REP-2.9"}

    def msum(signs, *mats):
        return linalg.flatten(linalg.mat_sum(signs, *mats))

    rep = Report()
    for k, laws in _representation_laws(R.algebra, R, A.invariant_report().ok, DR):
        flat = [(names[name], lambda *w, law=law, k=k: linalg.flatten(
            law(*[0] * (k + 1), *w))) for name, law, _ in laws]
        # REP-2.5...2.7 share the sweep of (i, j, k); 2.8 and 2.9 have one each
        for group in [flat] if k == 3 else [[law] for law in flat]:
            rep.sweep([n] * k, group)
    rep.sweep([n] * 3, [("REP-2.11", lambda i, j, k: msum(
        "+++", ct(D, b[i][j], E[k]), ct(D, b[j][k], E[i]),
        ct(D, b[k][i], E[j])))])
    rep.sweep([n] * 4, [("REP-2.12", lambda a, c, i, j: msum(
        "+---", mm(D[a][c], D[i][j]), mm(D[i][j], D[a][c]),
        ct(D, t[a][c][i], E[j]), ct(D[i], t[a][c][j])))])
    return rep.sweep([n] * 4, [("REP-2.13", lambda i, j, k, a: msum(
        "+-++", ct(theta, t[i][j][k], E[a]), mm(theta[i][a], theta[k][j]),
        mm(theta[j][a], theta[k][i]), mm(theta[k][a], D[i][j])))])


def adjoint_representation(A: LYAlgebra) -> Representation:
    """rho(x)z = [x,z]; theta(x,y)z = {z,x,y}."""
    n, t, tp = A.dim, A.ternary, linalg.transpose
    return Representation(n, [tp(row, n) for row in A.binary], [
        [tp([t[c][i][j] for c in range(n)], n) for j in range(n)] for i in range(n)])


def check_cocycle23(A: LYAlgebra, r: Representation, c: Cocycle23) -> Report:
    require_fit(A, r, c)
    return _cocycle_report(A, r, c)


def _cocycle_report(A: LYAlgebra, r: Representation, c: Cocycle23) -> Report:
    """check_cocycle23 of an r and a c that fit A: the skewness of c, then
    the laws read off the twisted semidirect product, which is skew, and so
    screened, exactly when A and c are."""
    from .omega import extension
    rep = c.invariant_report()
    E = extension(_over_trivial_semigroup(A, r), [[c.gamma1]], [[[c.gamma2]]])
    return _read_laws(rep, E, rep.ok and A.invariant_report().ok, A.dim, 1)


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
    r, bb = range(n), [linalg.contract_grid(A.binary, vs) for vs in A.binary]
    return A.invariant_report().sweep([r] * 3, [("jacobi", lambda i, j, k: (
        linalg.vec_sum("+++", bb[i][j][k], bb[j][k][i], bb[k][i][j])))])


def ly_from_lie(lie_binary) -> LYAlgebra:
    """{x,y,z} = [[x,y],z] on top of a Lie bracket."""
    check_jacobi(lie_binary).require("input bracket is not a Lie bracket: {laws}")
    n = len(lie_binary)
    b = LYAlgebra(n, lie_binary, zero_ly(n).ternary).binary
    return LYAlgebra(n, lie_binary, [linalg.contract_grid(b, vs) for vs in b])


def check_leibniz(star) -> Report:
    """Left Leibniz law x*(y*z) = (x*y)*z + y*(x*z) for a product tensor."""
    # e_i*(e_j*e_k) at P[i][j][k] (and e_j*(e_i*e_k) at P[j][i][k]), (e_i*e_j)*e_k
    # at Q[i][j][k]
    n, mm, grid = range(len(star)), linalg.mat_mul, linalg.contract_grid
    P, Q = [[mm(y, x) for y in star] for x in star], [grid(star, vs) for vs in star]
    return Report().sweep([n] * 3, [("leibniz-left", lambda i, j, k: (
        linalg.vec_sum("+--", P[i][j][k], Q[i][j][k], P[j][i][k])))])


def ly_from_leibniz(star) -> LYAlgebra:
    """[x,y] = x*y - y*x and {x,y,z} = -(x*y)*z on top of a left Leibniz product."""
    check_leibniz(star).require("input product violates the left Leibniz law")
    n = len(star)
    binary = [[linalg.vec_sub(star[i][j], star[j][i])
               for j in range(n)] for i in range(n)]
    ternary = linalg.map_at(linalg.vec_neg, [linalg.contract_grid(star, vs)
                                             for vs in star], 3)
    out = LYAlgebra(n, binary, ternary)
    check_ly_axioms(out).require(
        "Leibniz input produced an invalid bracket pair: {laws}")
    return out


def joint_index(i: int, alpha: int, order: int) -> int:
    """Flatten (basis index i, semigroup element alpha) to i*order + alpha.

    This single convention coordinatizes every tensor product with the
    semigroup algebra throughout the package; `joint_table` builds every
    table over it, and the cochain layout of `omega` reads it back with
    `split_joint`.
    """
    return i * order + alpha


def split_joint(m: int, order: int):
    return divmod(m, order)


def joint_table(s: FiniteCommutativeSemigroup, dims, value, place=False):
    """The table t[p_1]...[p_k] over the joint labels p_r = i_r*M + alpha_r
    (i_r < dims[r], alpha_r in s, M = s.order) of a product of tensor
    products with K-Omega, with entry value(alphas, idxs) at the labels.

    With place, value returns a vector v and the entry is v placed at the
    element alpha_1...alpha_k (multiplied left to right): coordinate l of v
    goes to the joint label of (l, alpha_1...alpha_k), the others are 0.
    """
    M, t, last = s.order, s.table, len(dims) - 1

    def leaf(alphas, idxs, g):
        v = value(alphas, idxs)
        if not place:
            return v
        out = [0] * (len(v) * M)
        for l, x in enumerate(v):
            if x:
                out[joint_index(l, g, M)] = x
        return out

    def build(alphas, idxs, g, r):
        if r == last:
            return [leaf(alphas + (a,), idxs + (i,), t[g][a] if r else a)
                    for i in range(dims[r]) for a in range(M)]
        return [build(alphas + (a,), idxs + (i,), t[g][a] if r else a, r + 1)
                for i in range(dims[r]) for a in range(M)]

    return build((), (), None, 0)


def ly_tensor_semigroup(A: LYAlgebra, s: FiniteCommutativeSemigroup) -> LYAlgebra:
    """[a@x, b@y] = [a,b]@xy and {a@x, b@y, c@z} = {a,b,c}@xyz on L (x) K-Omega."""
    validate_semigroup(s).require("semigroup fails validation")
    n, b, t = A.dim, A.binary, A.ternary
    binary = joint_table(s, (n, n), lambda al, ix: b[ix[0]][ix[1]], place=True)
    ternary = joint_table(s, (n, n, n), lambda al, ix: t[ix[0]][ix[1]][ix[2]],
                          place=True)
    return LYAlgebra(n * s.order, binary, ternary)
