"""Every law checker's report on fixed, seeded inputs, against digests.

Each case runs one checker on one input and reduces what it returns to a
count and the SHA-256 of its `repr`.  For a report that is the list of its
violations: the law, witness and residual of each, with the types of the
residual's entries, in order.  A changed law order, witness, sign or scalar
type therefore changes the digest.  The inputs are valid structures, whose
reports are short or empty, and random, non-skew, perturbed and
Fraction-valued ones, whose reports are long.

To see what changed after a deliberate change of a report, print
`CASES[name]()` for the failing case.
"""
import hashlib
import random
from fractions import Fraction

import pytest

from lyfam import linalg as la
from lyfam.cohomology import (RBFComplex, induced_rep_on_L,
                              rep_d_closed_form_report)
from lyfam.errors import PreconditionError
from lyfam.ly import (Cocycle23, LYAlgebra, Representation,
                      adjoint_representation, check_cocycle23, check_jacobi,
                      check_leibniz, check_ly_axioms, check_representation,
                      gamma_ad)
from lyfam.nsfamily import (NSAlgebra, check_ns_axioms, check_ns_family_axioms,
                            ns_from_twisted_rb)
from lyfam.omega import (OmegaLYAlgebra, OmegaRepresentation,
                         check_omega_ly_axioms,
                         check_omega_representation, omega_ly_from_omega_lie)
from lyfam.rbfamily import (TwistedRBContext, check_morphism, check_nijenhuis_family,
                            check_reynolds_family, check_twisted_rb_family,
                            identity_family)
from lyfam.semigroup import (FiniteCommutativeSemigroup, trivial_semigroup,
                             validate_semigroup)
from conftest import (make_a1, make_a2, random_invertible, random_leibniz_star,
                      random_lie_binary)
from test_coboundary_reference import zero_context
from test_dense_images import change_basis_of_V, perturbed


def scalar(rng, frac):
    """0 half of the time, else a small int or (with frac) a half-integer."""
    if rng.random() < 0.5:
        return 0
    k = rng.choice((-2, -1, 1, 2))
    return Fraction(k, rng.choice((1, 2))) if frac else k


def tensor(rng, dims, frac):
    if not dims:
        return scalar(rng, frac)
    return [tensor(rng, dims[1:], frac) for _ in range(dims[0])]


def neg(t):
    return [neg(x) for x in t] if isinstance(t, list) else -t


def zero_like(t):
    return [zero_like(x) for x in t] if isinstance(t, list) else 0


def skewed(t):
    """t made skew in its first two slots, with zero on the diagonal."""
    n = len(t)
    return [[t[i][j] if i < j else neg(t[j][i]) if i > j else zero_like(t[i][i])
             for j in range(n)] for i in range(n)]


def random_ly(rng, n, skew, frac):
    b, t = tensor(rng, (n, n, n), frac), tensor(rng, (n, n, n, n), frac)
    return LYAlgebra(n, skewed(b) if skew else b, skewed(t) if skew else t)


def random_rep(rng, n, d, frac):
    return Representation(d, tensor(rng, (n, d, d), frac),
                          tensor(rng, (n, n, d, d), frac))


def random_cocycle(rng, n, d, skew, frac):
    g1, g2 = tensor(rng, (n, n, d), frac), tensor(rng, (n, n, n, d), frac)
    return Cocycle23(skewed(g1) if skew else g1, skewed(g2) if skew else g2)


def nudged(rng, t, frac, p=0.1):
    """A copy of the nested list t with a few entries moved by +-1 or 1/2."""
    if isinstance(t, list):
        return [nudged(rng, x, frac, p) for x in t]
    if rng.random() < p:
        return t + rng.choice((-1, 1)) * (Fraction(1, 2) if frac else 1)
    return t


S1 = trivial_semigroup()
S2 = FiniteCommutativeSemigroup(2, [[0, 1], [1, 1]], unit=0)
Z3 = FiniteCommutativeSemigroup(3, [[(i + j) % 3 for j in range(3)]
                                    for i in range(3)], unit=0)
# neither commutative nor associative: a sweep that multiplies indices in
# another order or grouping reads other entries
W2 = FiniteCommutativeSemigroup(2, [[1, 0], [1, 1]])
A1, A2 = make_a1(), make_a2()


def contexts():
    rng = random.Random(20261018)
    out = {}
    for sname, s in (("S1", S1), ("S2", S2)):
        out["zero-" + sname] = zero_context(s)
        for aname, A in (("A1", A1), ("A2", A2)):
            out[aname + "-" + sname] = identity_family(A, s)
    out["A1-S2-perturbed"] = perturbed(out["A1-S2"], rng)
    out["A2-S1-perturbed"] = perturbed(out["A2-S1"], rng)
    out["A1-S2-moved"] = change_basis_of_V(
        out["A1-S2"], random_invertible(rng, out["A1-S2"].dimV, 12))
    out["zero-S2-perturbed"] = perturbed(out["zero-S2"], rng)
    out["A1-Z3-perturbed"] = perturbed(identity_family(A1, Z3), rng)
    c = out["A1-S2"]
    out["A1-W2-perturbed"] = perturbed(TwistedRBContext(
        c.algebra, c.rep, c.cocycle, W2, c.family), rng)
    return out


CTX = contexts()
CASES = {}


def case(name):
    def register(fn):
        CASES[name] = fn
        return fn
    return register


def violations(rep):
    return rep.violations


for _cname, _ctx in CTX.items():
    CASES["validate/" + _cname] = (
        lambda c=_ctx: violations(c.validate()))
    CASES["check_twisted_rb_family/" + _cname] = (
        lambda c=_ctx: violations(check_twisted_rb_family(c)))
    # the induced structures of the two largest contexts take seconds
    if _cname == "A2-S2":
        continue
    CASES["omega-invariant/" + _cname] = (
        lambda c=_ctx: violations(
            RBFComplex(c, check=False).induced_algebra.invariant_report()))
    CASES["check_omega_ly_axioms/" + _cname] = (
        lambda c=_ctx: violations(check_omega_ly_axioms(
            RBFComplex(c, check=False).induced_algebra)))
    if _cname == "A1-Z3-perturbed":
        continue
    CASES["check_omega_representation/" + _cname] = (
        lambda c=_ctx: violations(_omega_rep(c, None)))


def _omega_rep(ctx, seed):
    cx = RBFComplex(ctx, check=False)
    r = cx.induced_rep
    if seed is not None:
        rng = random.Random(seed)
        r = OmegaRepresentation(r.algebra, r.dim, nudged(rng, r.rho, True),
                                nudged(rng, r.theta, False))
    return check_omega_representation(cx.induced_algebra, r)


@case("check_omega_representation/A1-S2-nudged")
def _():
    return violations(_omega_rep(CTX["A1-S2"], 7))


@case("check_omega_representation/zero-S1-nudged")
def _():
    return violations(_omega_rep(CTX["zero-S1"], 8))


def _nudged_rep(ctx, seed):
    r = induced_rep_on_L(ctx, check=False)
    if seed is None:
        return r
    rng = random.Random(seed)
    return OmegaRepresentation(r.algebra, r.dim, nudged(rng, r.rho, True),
                               nudged(rng, r.theta, False))


# D of the induced representation against its closed form: valid contexts,
# a nudged representation, and representations induced by perturbed families
for _name, _seed in (("zero-S2", None), ("A1-S1", None), ("A1-S2", None),
                     ("A2-S1", None), ("A1-S2-moved", None), ("A1-S2", 9),
                     ("A2-S1", 10), ("A1-S2-perturbed", None),
                     ("A1-W2-perturbed", None)):
    _key = _name + ("" if _seed is None else "-nudged%d" % _seed)
    CASES["rep_d_closed_form_report/" + _key] = (
        lambda n=_name, s=_seed: violations(rep_d_closed_form_report(
            CTX[n], _nudged_rep(CTX[n], s))))


def _omega_ly(name, seed):
    O = RBFComplex(CTX[name], check=False).induced_algebra
    rng = random.Random(seed)
    return OmegaLYAlgebra(O.dim, O.semigroup, nudged(rng, O.binary, True),
                          nudged(rng, O.ternary, False))


for _name, _seed in (("A1-S2", 61), ("A2-S1", 62), ("zero-S2", 63),
                     ("A1-W2-perturbed", 64)):
    CASES["omega-invariant/%s-nudged" % _name] = (
        lambda n=_name, s=_seed: violations(_omega_ly(n, s).invariant_report()))
    CASES["check_omega_ly_axioms/%s-nudged" % _name] = (
        lambda n=_name, s=_seed: violations(
            check_omega_ly_axioms(_omega_ly(n, s))))


# -- LY algebras, representations and cocycles of dims 0-3

for _n in range(4):
    for _skew in (True, False):
        for _frac in (False, True):
            _key = "dim%d-%s-%s" % (_n, "skew" if _skew else "raw",
                                    "frac" if _frac else "int")
            _seed = 100 * _n + 10 * _skew + _frac
            _d = 2 if _n < 3 else 1

            def _inputs(n=_n, skew=_skew, frac=_frac, seed=_seed, d=_d):
                rng = random.Random(seed)
                return (random_ly(rng, n, skew, frac),
                        random_rep(rng, n, d, frac),
                        random_cocycle(rng, n, d, skew, frac))

            CASES["ly-invariant/" + _key] = (
                lambda f=_inputs: violations(f()[0].invariant_report()))
            CASES["check_ly_axioms/" + _key] = (
                lambda f=_inputs: violations(check_ly_axioms(f()[0])))
            CASES["check_representation/" + _key] = (
                lambda f=_inputs: violations(check_representation(*f()[:2])))
            CASES["cocycle-invariant/" + _key] = (
                lambda f=_inputs: violations(f()[2].invariant_report()))
            CASES["check_cocycle23/" + _key] = (
                lambda f=_inputs: violations(check_cocycle23(*f())))
            CASES["check_jacobi/" + _key] = (
                lambda f=_inputs: violations(check_jacobi(f()[0].binary)))


for _aname, _A in (("A1", A1), ("A2", A2)):
    CASES["check_ly_axioms/" + _aname] = (
        lambda A=_A: violations(check_ly_axioms(A)))
    CASES["check_representation/" + _aname + "-adjoint"] = (
        lambda A=_A: violations(
            check_representation(A, adjoint_representation(A))))
    CASES["check_cocycle23/" + _aname + "-adjoint"] = (
        lambda A=_A: violations(check_cocycle23(
            A, adjoint_representation(A), gamma_ad(A))))
    CASES["check_cocycle23/" + _aname + "-nudged"] = (
        lambda A=_A: violations(check_cocycle23(
            A, adjoint_representation(A),
            Cocycle23(*nudged(random.Random(11), [gamma_ad(A).gamma1,
                                                  gamma_ad(A).gamma2],
                              True, 0.2)))))
    CASES["check_representation/" + _aname + "-nudged"] = (
        lambda A=_A: violations(check_representation(A, Representation(
            A.dim, *nudged(random.Random(12),
                           [adjoint_representation(A).rho,
                            adjoint_representation(A).theta], True, 0.2)))))


@case("check_jacobi/lie-random")
def _():
    rng = random.Random(13)
    return [violations(check_jacobi(random_lie_binary(rng)))
            for _ in range(4)]


@case("check_leibniz/random")
def _():
    rng = random.Random(14)
    return [violations(check_leibniz(tensor(rng, (n, n, n), frac)))
            for n in range(4) for frac in (False, True)]


@case("check_leibniz/valid")
def _():
    rng = random.Random(15)
    stars = [random_leibniz_star(rng) for _ in range(3)]
    return [violations(check_leibniz(s)) for s in stars] + [
        violations(check_leibniz(nudged(rng, s, True, 0.3))) for s in stars]


# -- NS families

def _ns(name, seed=None):
    N = ns_from_twisted_rb(CTX[name], check=False)
    if seed is not None:
        rng = random.Random(seed)
        N.bullet = nudged(rng, N.bullet, False, 0.05)
        N.vee = nudged(rng, N.vee, True, 0.05)
        N.ternary_curly = nudged(rng, N.ternary_curly, True, 0.05)
        N.ternary_square = nudged(rng, N.ternary_square, False, 0.05)
    return N


for _name, _seed in (("zero-S2", None), ("A1-S1", None), ("A1-S2", None),
                     ("A2-S1", None), ("A1-S2-perturbed", None),
                     ("A2-S1-perturbed", None), ("zero-S2-perturbed", None),
                     ("A1-Z3-perturbed", None), ("A1-W2-perturbed", None),
                     ("A1-S2", 21), ("A2-S1", 22), ("zero-S1", 23)):
    _key = _name + ("" if _seed is None else "-nudged%d" % _seed)
    CASES["ns-invariant/" + _key] = (
        lambda n=_name, s=_seed: violations(_ns(n, s).invariant_report()))
    CASES["check_ns_family_axioms/" + _key] = (
        lambda n=_name, s=_seed: violations(check_ns_family_axioms(_ns(n, s))))
    if "S1" in _name:
        CASES["check_ns_axioms/" + _key] = (
            lambda n=_name, s=_seed: violations(check_ns_axioms(NSAlgebra(
                *(lambda N: (N.dim, N.bullet[0], N.vee[0][0],
                             N.ternary_curly[0][0],
                             N.ternary_square[0][0][0]))(_ns(n, s))))))


# -- Reynolds and Nijenhuis families, morphisms

OPERATOR_ALGEBRAS = (("A1", A1), ("A2", A2))
OPERATOR_SEMIGROUPS = (("S1", S1), ("S2", S2), ("W2", W2))
OPERATOR_KINDS = ("zero", "identity", "int", "frac")


def operator_family(A, s, kind, seed):
    """One n x n matrix per element: zero, identity or seeded random ones."""
    rng, n = random.Random(seed), A.dim
    if kind == "zero":
        return [la.zeros(n, n) for _ in s.elements]
    if kind == "identity":
        return [la.identity(n) for _ in s.elements]
    return [tensor(rng, (n, n), kind == "frac") for _ in s.elements]


for _aname, _A in OPERATOR_ALGEBRAS:
    for _sname, _s in OPERATOR_SEMIGROUPS:
        for _kind in OPERATOR_KINDS:
            _key = "%s-%s-%s" % (_aname, _sname, _kind)

            def _family(A=_A, s=_s, kind=_kind, seed=_key):
                return operator_family(A, s, kind, seed)

            CASES["check_reynolds_family/" + _key] = (
                lambda A=_A, s=_s, f=_family: violations(
                    check_reynolds_family(A, s, f())))
            CASES["check_nijenhuis_family/" + _key] = (
                lambda A=_A, s=_s, f=_family: violations(
                    check_nijenhuis_family(A, s, f())))


def _morphism(name, seed, moved):
    ctx = CTX[name]
    rng = random.Random(seed)
    ctx2 = (change_basis_of_V(ctx, random_invertible(rng, ctx.dimV, 8))
            if moved else perturbed(ctx, rng))
    eta = la.identity(ctx.dimL)
    zeta = tensor(rng, (ctx.dimV, ctx.dimV), True)
    return violations(check_morphism(ctx, ctx2, eta, zeta))


for _name in ("A1-S2", "A2-S1", "zero-S2"):
    for _moved in (False, True):
        CASES["check_morphism/%s-default-%s" % (
            _name, "moved" if _moved else "perturbed")] = (
            lambda n=_name, m=_moved: _morphism(n, 31 + m, m))


@case("check_morphism/A1-S2-identity")
def _():
    ctx = CTX["A1-S2"]
    return violations(check_morphism(ctx, ctx, la.identity(ctx.dimL),
                                     la.identity(ctx.dimV)))


# -- semigroups and indexed Lie brackets

@case("validate_semigroup/tables")
def _():
    rng = random.Random(41)
    tables = [S1, S2, Z3,
              FiniteCommutativeSemigroup(2, [[0, 0], [1, 1]]),
              FiniteCommutativeSemigroup(2, [[1, 0], [0, 0]], unit=0),
              FiniteCommutativeSemigroup(3, [[0, 1, 2], [1, 2, 0], [2, 0, 0]],
                                         unit=1)]
    for order in (2, 3, 4):
        for unit in (None, 0, order - 1):
            tables.append(FiniteCommutativeSemigroup(
                order, [[rng.randrange(order) for _ in range(order)]
                        for _ in range(order)], unit=unit))
    return [violations(validate_semigroup(s)) for s in tables]


def _indexed_lie(binary_of, s, n=2):
    try:
        O = omega_ly_from_omega_lie(n, s, binary_of(s))
    except PreconditionError as exc:
        return "refused: %s" % exc
    return O.ternary


@case("omega_ly_from_omega_lie/A1-S2")
def _():
    return _indexed_lie(lambda s: [[A1.binary for _ in s.elements]
                                   for _ in s.elements], S2)


@case("omega_ly_from_omega_lie/skew-random")
def _():
    rng = random.Random(51)
    out = []
    for s in (S1, S2, Z3):
        for frac in (False, True):
            out.append(_indexed_lie(lambda s: _skew_indexed(
                tensor(rng, (s.order, s.order, 2, 2, 2), frac)), s))
    return out


def _skew_indexed(B):
    """B made skew under the simultaneous swap (a, i) <-> (b, j)."""
    M, n = len(B), len(B[0][0])
    for a in range(M):
        for b in range(M):
            for i in range(n):
                for j in range(n):
                    if (a, i) > (b, j):
                        B[a][b][i][j] = [-x for x in B[b][a][j][i]]
                    elif (a, i) == (b, j):
                        B[a][b][i][j] = [0] * len(B[a][b][i][j])
    return B


@case("omega_ly_from_omega_lie/non-skew")
def _():
    rng = random.Random(52)
    return _indexed_lie(lambda s: tensor(rng, (2, 2, 2, 2, 2), True), S2)


def digest(result):
    return hashlib.sha256(repr(result).encode()).hexdigest()


# recorded from the reports before the checkers moved onto Report.sweep
EXPECTED = {
    'check_cocycle23/A1-adjoint':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_cocycle23/A1-nudged':
        (34, '93ac25cc04585672a439bee14345ffaf53fac7f1a6116b073bb8fa3853b17713'),
    'check_cocycle23/A2-adjoint':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_cocycle23/A2-nudged':
        (286, '4d6a7e657193590741c216667e75377811f0e5191559218387957096d40c5c88'),
    'check_cocycle23/dim0-raw-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_cocycle23/dim0-raw-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_cocycle23/dim0-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_cocycle23/dim0-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_cocycle23/dim1-raw-frac':
        (3, '873947268572f40014fe2c9fb0413c25932faf7a054e457e78791b1035cec1b1'),
    'check_cocycle23/dim1-raw-int':
        (3, '907a09a54a9dbf68c0f83bf3014b9625556cb5e2136a6a323b3666d6e2b59c59'),
    'check_cocycle23/dim1-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_cocycle23/dim1-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_cocycle23/dim2-raw-frac':
        (74, 'da349b54dd6e23535350be669103c47e62b5919195a50e6d9250797ba2e2796d'),
    'check_cocycle23/dim2-raw-int':
        (76, '784a60b1f62c5ef4fa62da57e45111bb7b0633cf39aaa45d3fe10d55ffd3b8c5'),
    'check_cocycle23/dim2-skew-frac':
        (12, 'ec760e18c57954032c5b9ddebc2583258c1372e53a320d7cd16df75c80f288f1'),
    'check_cocycle23/dim2-skew-int':
        (12, 'e797c03812a635f17c864a099ce2f15da49999d3b0a1c64637f316b8b6edfd77'),
    'check_cocycle23/dim3-raw-frac':
        (400, '7c5f46a6dc8c3f705a1e7a072b469e3029e6d7bac5c7cd87e6265fe9772f7e49'),
    'check_cocycle23/dim3-raw-int':
        (395, '5d04caf95bde30387145fbb9ab58e964be4154604289e5a637183154fa9ba143'),
    'check_cocycle23/dim3-skew-frac':
        (148, '4d265e9ee40c1121c6b3373fb96264748baa4fb19a33be6ce7da2288d6c67f36'),
    'check_cocycle23/dim3-skew-int':
        (132, '8faffa062d13496ed759b3d6b8ff3de365162213b4596171b9c26478b9d8eba7'),
    'check_jacobi/dim0-raw-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_jacobi/dim0-raw-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_jacobi/dim0-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_jacobi/dim0-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_jacobi/dim1-raw-frac':
        (2, 'bf126de8d09222e58cd86c181278406c2f884d1ddcaaa5c4a816238ffc4980f1'),
    'check_jacobi/dim1-raw-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_jacobi/dim1-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_jacobi/dim1-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_jacobi/dim2-raw-frac':
        (6, '214cafe886116c02c811754fd28d88ac69b1bdd6279efe2f6ae4a0a219bd61cc'),
    'check_jacobi/dim2-raw-int':
        (7, '127ca735ec2cd244b79108e62d522db33769f67a7630fc1259c932f01e3c6585'),
    'check_jacobi/dim2-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_jacobi/dim2-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_jacobi/dim3-raw-frac':
        (33, 'd118df3b1397ebd3f75f1c2dbfd0e8ad05c0632ced165ceefd0f96d4a7c16349'),
    'check_jacobi/dim3-raw-int':
        (33, '6f75c0dd26bf0caceafcdd29036921aad5da86ce3a1d87fdc70010186b0a2908'),
    'check_jacobi/dim3-skew-frac':
        (6, '0632e5ce1715ed77fed31dac7e222e1b379def1fdb9e9958b302fbfb6c0c0a8e'),
    'check_jacobi/dim3-skew-int':
        (6, 'baa2171895b4909b6d1053a0692950b27cc5e4c4759329f7da8b0813f55ecbf2'),
    'check_jacobi/lie-random':
        (4, '453a39b98df6359822c48cf564842ecf4b8b70a0520a145ccfff84370b3fe687'),
    'check_leibniz/random':
        (8, '3b96a148b17500b9751428210a99a6cbdbf8c561da53e2e32d24fac09d0886b5'),
    'check_leibniz/valid':
        (6, '4eceefa0f0e7565299ba813c54185b911ea8ef467cf845412934db3750257e70'),
    'check_ly_axioms/A1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ly_axioms/A2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ly_axioms/dim0-raw-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ly_axioms/dim0-raw-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ly_axioms/dim0-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ly_axioms/dim0-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ly_axioms/dim1-raw-frac':
        (2, '17ae6c684d14dbc97fdc9622550c6f5e6eb1a16f9993b69a7072c2720b446609'),
    'check_ly_axioms/dim1-raw-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ly_axioms/dim1-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ly_axioms/dim1-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ly_axioms/dim2-raw-frac':
        (64, '3dab38faa4435468f7a7812f9ea19a86a96d80fbbdb6a5aa679bd7d4f637dc15'),
    'check_ly_axioms/dim2-raw-int':
        (72, '4e2946a7f69ef215b87e97fb55fe505f23416e3099cb9f246554e5e447accbfa'),
    'check_ly_axioms/dim2-skew-frac':
        (8, '56b218af72e7630c3dbd3a744a91713692005e29ee08e4a522a5501066bb5be8'),
    'check_ly_axioms/dim2-skew-int':
        (12, 'e7948ce42de81a6e7e8dab9d225dade10576787de98ad24a56666cc8fe4eaa51'),
    'check_ly_axioms/dim3-raw-frac':
        (456, 'd014a13b2801143a96f2faae9e7061971ae07012751dd3fd00769d1e6e2c2adc'),
    'check_ly_axioms/dim3-raw-int':
        (452, '20beb5944896ce9e9af53540a467bb55c7251b88ecaa807e53527c4ea662acac'),
    'check_ly_axioms/dim3-skew-frac':
        (156, 'ac7ee869f136486a61d280e351493c275cf1acde7bd0800f05906f4ae0dd5fcb'),
    'check_ly_axioms/dim3-skew-int':
        (162, '307c71364e02e066faff5521fffec052eb9deab4f10bbefd0418cc38d4087792'),
    'check_morphism/A1-S2-default-moved':
        (32, '5bb0a6a0b5585b21ff617f49d0b5b2ff6f254c16bbce4744d622857af4160140'),
    'check_morphism/A1-S2-default-perturbed':
        (38, 'ef64f4966c0dd1ed892a0e579512d14010c9ee6a35d3ce2d3d29b970d630c6f8'),
    'check_morphism/A1-S2-identity':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_morphism/A2-S1-default-moved':
        (31, '8a0d58455ebd44ac059a8fe2c1269120196d9e5332b68c51d727b58618e654f9'),
    'check_morphism/A2-S1-default-perturbed':
        (31, 'ed07567c4bb221df67b848f523e1487a2384b6ef9c98d21c61d9140ef2565c7c'),
    'check_morphism/zero-S2-default-moved':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_morphism/zero-S2-default-perturbed':
        (2, '314ee4783e393e6251a1a6238fa156251b819717fa70749ed0f70af7351dc33c'),
    'check_nijenhuis_family/A1-S1-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A1-S1-identity':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A1-S1-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A1-S1-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A1-S2-frac':
        (26, '4f80442c60b3b743e739e0c4e255e596c401706caf1cae39f9ffc662ee7e1f47'),
    'check_nijenhuis_family/A1-S2-identity':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A1-S2-int':
        (18, '164e311bd7f73b6b7bac9858542b1e879e3b93e0dd00d75a1ef2eafdba2a0737'),
    'check_nijenhuis_family/A1-S2-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A1-W2-frac':
        (29, '3e0e188317b5f6598be366a7d7230c25d0dc5c4fce689e87267f183e9b3341a2'),
    'check_nijenhuis_family/A1-W2-identity':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A1-W2-int':
        (6, 'ff14e0e6aa090c923748b46e0a6a67d9bf8e689590b87f0aaadfabeead497d14'),
    'check_nijenhuis_family/A1-W2-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A2-S1-frac':
        (6, '9dd79930ea204e9dc2e83b778683e6a7bdb7c5bfd6fdaae30961c636e4299bc5'),
    'check_nijenhuis_family/A2-S1-identity':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A2-S1-int':
        (6, 'c60e456c40a397f683335ffddce4fbe89c4927d6a76585461762d3dca9a3e7f2'),
    'check_nijenhuis_family/A2-S1-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A2-S2-frac':
        (94, '3671f94a566b596de800c9402277c5e33d4c077b72f6acf98b33fadfbaa822b3'),
    'check_nijenhuis_family/A2-S2-identity':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A2-S2-int':
        (100, 'bd551fb3c0f900bb6744858e75c41429426e9a63a028c9f756c83e1e5e1cf13a'),
    'check_nijenhuis_family/A2-S2-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A2-W2-frac':
        (172, '15a617a346b92fb27acf9b3de81dbe09b3de6ad20bdc9a45488a6d963ba748eb'),
    'check_nijenhuis_family/A2-W2-identity':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_nijenhuis_family/A2-W2-int':
        (88, 'ee58080a83637dcca8efe39ed5448e44d58430e3e3b3cac875a2a21522430100'),
    'check_nijenhuis_family/A2-W2-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ns_axioms/A1-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ns_axioms/A2-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ns_axioms/A2-S1-nudged22':
        (1075, 'eb784edf34768664f5d061adf6a9e181291469234e3bfec649f07f326c84fbc0'),
    'check_ns_axioms/A2-S1-perturbed':
        (942, 'f23ee8504e69f46ce196962c56023cc9aaee8ba196e430015b365bfc1344f005'),
    'check_ns_axioms/zero-S1-nudged23':
        (14, '949bd548e98cb8d842cc15ad69e5e0314ad5260fe7fc1e1911560b15cb1dbeba'),
    'check_ns_family_axioms/A1-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ns_family_axioms/A1-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ns_family_axioms/A1-S2-nudged21':
        (683, 'f906edf0e34575d96e1bd8628902d9d0eea404f5d118590bbf563b846a7c6f8f'),
    'check_ns_family_axioms/A1-S2-perturbed':
        (1786, 'c6dc0be9c42d66f1cb6d4a30ec43215ac774ca4b0534283ef85ef4563276a843'),
    'check_ns_family_axioms/A1-W2-perturbed':
        (1663, '7dcf11b60b806e46f7692b7935b52f430dbfdba3bf2bec6bf4e6764f11355675'),
    'check_ns_family_axioms/A1-Z3-perturbed':
        (14946, '7e40d6738e90a07e38b105da072ec61b048729dd05a7f35c4140e14add5dfcc2'),
    'check_ns_family_axioms/A2-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ns_family_axioms/A2-S1-nudged22':
        (1075, '05b6cbc3e0c8c3657ea108edea651c3ca0ff16e1b9fdc6bc5ccd3f6ea83cb814'),
    'check_ns_family_axioms/A2-S1-perturbed':
        (942, 'c7c0ec0d3da0961bfade50556e8760096e10b6b222b2e1635ac7251c7ec95155'),
    'check_ns_family_axioms/zero-S1-nudged23':
        (14, '3642b45561f848edb12c4a76284bc223df7334847bd1f086e2ffa89188bd9435'),
    'check_ns_family_axioms/zero-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_ns_family_axioms/zero-S2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_ly_axioms/A1-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_ly_axioms/A1-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_ly_axioms/A1-S2-moved':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_ly_axioms/A1-S2-nudged':
        (244, '66feaec27c8b30041e4c994c31a444f9b86e56ec2cdb7081870637274abaa666'),
    'check_omega_ly_axioms/A1-S2-perturbed':
        (450, '3ebe1354864bffa9eff03c80a5bdc5f5b13aa1e373a922a42e2d422ce53bfc27'),
    'check_omega_ly_axioms/A1-W2-perturbed':
        (622, '2775459d59abf608f3b269104145d7ef4ff9d3c321d995eb7a8d2f7dcd1a0e2d'),
    'check_omega_ly_axioms/A1-W2-perturbed-nudged':
        (1059, 'df3dcfc3f39c6ffb22634066c6920bd0ece515f8fe85a263729c5fc3f300a553'),
    'check_omega_ly_axioms/A1-Z3-perturbed':
        (6886, '0f9416e1182ab4abe518b0bd56fbaface3f55ca3ef0badf96ff823a033bc3858'),
    'check_omega_ly_axioms/A2-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_ly_axioms/A2-S1-nudged':
        (127, '41b02585b13320f512cd4d6ffcb13881c099b2c2ad6f8d82abbf79dd26f3ce85'),
    'check_omega_ly_axioms/A2-S1-perturbed':
        (168, 'd09a99ba003e2f2681d1e0dd2df051eab13cd995977952ef9aa55d0991e24f52'),
    'check_omega_ly_axioms/zero-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_ly_axioms/zero-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_ly_axioms/zero-S2-nudged':
        (277, 'a88d9e46d4d71bcd594b8e4bf5ee4a49e6123edb7321334f6addedbfbd8ecbca'),
    'check_omega_ly_axioms/zero-S2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_representation/A1-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_representation/A1-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_representation/A1-S2-moved':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_representation/A1-S2-nudged':
        (3024, '0a529a945a96bdfedb9a7fdf2196abdcbdf5bd25463de387264333af16751e56'),
    'check_omega_representation/A1-S2-perturbed':
        (3394, 'f80090ac80b34b5df9efc9dc3ff74ee0a59e0577e582336653389690b19c4c45'),
    'check_omega_representation/A1-W2-perturbed':
        (4106, '301c3830b6fbc3cef34211a5a029646c04e59b282cff8fdb94cd546381367c2c'),
    'check_omega_representation/A2-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_representation/A2-S1-perturbed':
        (486, 'cf873e7b0365b36e9b5c8b23afdf595cb79edcd434abdb33685cc9f9226b75d1'),
    'check_omega_representation/zero-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_representation/zero-S1-nudged':
        (12, 'f7d4e11596e897c348c126dfddbff9153d254b1d34ccf47346b0c3258342c0cc'),
    'check_omega_representation/zero-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_omega_representation/zero-S2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_representation/A1-adjoint':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_representation/A1-nudged':
        (30, '7859609e39f051b640ec649da63b681388634cd93c6f0cc72de923d54b697c69'),
    'check_representation/A2-adjoint':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_representation/A2-nudged':
        (240, '155f0bb986497f6adfcf5c6a6f118c0ec382f6e74236e74b1b1154f4faad30ca'),
    'check_representation/dim0-raw-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_representation/dim0-raw-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_representation/dim0-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_representation/dim0-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_representation/dim1-raw-frac':
        (5, 'e61272cc89efb10140abe92f429ff3333bce5fbe123412df824e746cc0b325c7'),
    'check_representation/dim1-raw-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_representation/dim1-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_representation/dim1-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_representation/dim2-raw-frac':
        (73, 'f9a2d13fec5bc2ee2df40f56fc645e5670552168ec1be3d36b550073cccd0d6f'),
    'check_representation/dim2-raw-int':
        (83, '56976ccf4fc94c7a9a5341713e89a478ff716655e324e06b09f855d3300aba64'),
    'check_representation/dim2-skew-frac':
        (38, '46dc2d5e5e54bc86d2406a1e428d7259f5c9213bb1725bf29e0da3fd824ea553'),
    'check_representation/dim2-skew-int':
        (38, '7710f24a5b975de857c1d33290434b87dd77ab14024005c442a7ab94fa92314d'),
    'check_representation/dim3-raw-frac':
        (324, '6e204275a6587e420333bbde8154cc66269b3f26ecf73ea0636bf9b39a0d492b'),
    'check_representation/dim3-raw-int':
        (348, 'a8539effe402e87ca8962fd65ec51ac7995b9255d8c87bb80686f81d39e23c23'),
    'check_representation/dim3-skew-frac':
        (204, 'c592a4ed6168bd768bc5fda7e3d55b7d7773e222f1288d6350ec09cbe2b55bb6'),
    'check_representation/dim3-skew-int':
        (196, 'd13fe7a54239ea21fde653520a8a0f7b36906a06bc1a9199cf7890f987ffa7ad'),
    'check_reynolds_family/A1-S1-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_reynolds_family/A1-S1-identity':
        (2, '09e07668e2feb707106ff855ab02b1578d1a46fb0a23892177dda2389ceccacb'),
    'check_reynolds_family/A1-S1-int':
        (6, '908c10d25482ace79702db0554cb3b4c721db71fb241fc97eaee089fd66f598b'),
    'check_reynolds_family/A1-S1-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_reynolds_family/A1-S2-frac':
        (32, '44c5935cb4a2085cab5d448958ea8aa8801337b647ba19e77472ef502413e5c7'),
    'check_reynolds_family/A1-S2-identity':
        (16, '235516292cf822fefe2e4b80b97ef984de5d2d2ef5d06cd1c97d8894fc5f1a8c'),
    'check_reynolds_family/A1-S2-int':
        (32, '730ea96e04cb9968143520cb95c69de5565f36b321809a53a48958a8ca720378'),
    'check_reynolds_family/A1-S2-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_reynolds_family/A1-W2-frac':
        (22, '7a1beed580fa4a17255aac301effb90bab611a652cf0cfcdb4cdac54126ba271'),
    'check_reynolds_family/A1-W2-identity':
        (16, '235516292cf822fefe2e4b80b97ef984de5d2d2ef5d06cd1c97d8894fc5f1a8c'),
    'check_reynolds_family/A1-W2-int':
        (26, '8b0ab83492efa4f2bd1cedc05ff4b32b645ea4b27246e79a5f45a16fde328f1d'),
    'check_reynolds_family/A1-W2-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_reynolds_family/A2-S1-frac':
        (22, 'cda4b3cbe8df05ca267c4de4716aaeadf2bb715b897af6ad968095e9e2e79590'),
    'check_reynolds_family/A2-S1-identity':
        (12, '2a9bcac06a36f4fe7e9f4181def429bc3b004770ffab6ccef51f51e31bd84128'),
    'check_reynolds_family/A2-S1-int':
        (24, '308d53cbc8c457559fcab2d1060f817a217eaaa06e3b0221d9a2eaab695be2e4'),
    'check_reynolds_family/A2-S1-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_reynolds_family/A2-S2-frac':
        (108, '3fc7d807746205f16d672ded127af97fb700677ab92c7177ffc72bced546a428'),
    'check_reynolds_family/A2-S2-identity':
        (96, 'ccc9606a54a2df479594e28d953ccb77ff7520fe887954440c3d88b87db5e243'),
    'check_reynolds_family/A2-S2-int':
        (90, 'f56a50309aecafd0c5711f78de6c8bc2fb79bd583221c417a392ceeeb1d57cfc'),
    'check_reynolds_family/A2-S2-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_reynolds_family/A2-W2-frac':
        (206, '1e890544469cff98533798fb740948ae3fe778fcb6204db15f068fc472787867'),
    'check_reynolds_family/A2-W2-identity':
        (96, 'ccc9606a54a2df479594e28d953ccb77ff7520fe887954440c3d88b87db5e243'),
    'check_reynolds_family/A2-W2-int':
        (101, '92f795a1f93fe07613bed3b9d610704055dcfcf9753187cc9e606a7c9cb51a31'),
    'check_reynolds_family/A2-W2-zero':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_twisted_rb_family/A1-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_twisted_rb_family/A1-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_twisted_rb_family/A1-S2-moved':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_twisted_rb_family/A1-S2-perturbed':
        (56, '5d369c6b285fe821c56f517b4e1204ed0a21c73627ce19acd2b09151063cf1df'),
    'check_twisted_rb_family/A1-W2-perturbed':
        (56, 'af891938219424c5abcaf714fd71d8750d86dacddf53b0447054295a25151005'),
    'check_twisted_rb_family/A1-Z3-perturbed':
        (206, '28586a1d1f412fb604364f5bb26be0d935c029ba6cd2eaafa5a876f7aecc39dd'),
    'check_twisted_rb_family/A2-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_twisted_rb_family/A2-S1-perturbed':
        (24, '07f22055057a983b3c15e93fd5986ddec142715220eee5dde4d176491a124127'),
    'check_twisted_rb_family/A2-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_twisted_rb_family/zero-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_twisted_rb_family/zero-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'check_twisted_rb_family/zero-S2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'cocycle-invariant/dim0-raw-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'cocycle-invariant/dim0-raw-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'cocycle-invariant/dim0-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'cocycle-invariant/dim0-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'cocycle-invariant/dim1-raw-frac':
        (1, '230b680848bbc9005f7048514f3e50200c8cbaca5c5218fccadc623b8f48668c'),
    'cocycle-invariant/dim1-raw-int':
        (2, 'a6c5f8d0bf181abbf4dc7d4fce797d7d246ebd6f654d18188ae0796ea2aca31d'),
    'cocycle-invariant/dim1-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'cocycle-invariant/dim1-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'cocycle-invariant/dim2-raw-frac':
        (7, '627ef3b5474f244247ac3bb28ad6fa6f638d8a74b927ad83e88730ee13c656e1'),
    'cocycle-invariant/dim2-raw-int':
        (7, '457e3e83eeb8f51a7edc7303f177eac4ef65af04f933e87ed02da7d0f79162d9'),
    'cocycle-invariant/dim2-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'cocycle-invariant/dim2-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'cocycle-invariant/dim3-raw-frac':
        (12, '3e8df8d742494743f245231c8712fdae9302896c5d7eaca75437f59fd8d82a61'),
    'cocycle-invariant/dim3-raw-int':
        (15, '2e36991310370d1c077d9bdccedbf9f4f324c3c89172c777b749253614c1e7a5'),
    'cocycle-invariant/dim3-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'cocycle-invariant/dim3-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim0-raw-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim0-raw-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim0-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim0-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim1-raw-frac':
        (1, 'c541d119c3152612839f104ab4b2ebc5f71f4604332bccae29f679317ea70513'),
    'ly-invariant/dim1-raw-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim1-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim1-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim2-raw-frac':
        (8, '2397db3eb8f8c036b93898d70b54dc6815d0fdc3a913b8b72cb4e601c04c993d'),
    'ly-invariant/dim2-raw-int':
        (7, 'da7c4ef2e73c452c000b4506b7cf9be611875c012aec1da1766e29fe184527f9'),
    'ly-invariant/dim2-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim2-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim3-raw-frac':
        (24, '9c0bbe145a52066d61fec981afd9a0d58020a1b3655b545e377c2f121c94c4b9'),
    'ly-invariant/dim3-raw-int':
        (23, 'f51fd2a6a843b7daae155bfa1cc6dc39fef6ca7459ccb41b3e98170314a0c02d'),
    'ly-invariant/dim3-skew-frac':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ly-invariant/dim3-skew-int':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ns-invariant/A1-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ns-invariant/A1-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ns-invariant/A1-S2-nudged21':
        (9, '706980e1ff2784b21721a02831d74dc69ef1409ea0bce5be19b964c77875518a'),
    'ns-invariant/A1-S2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ns-invariant/A1-W2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ns-invariant/A1-Z3-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ns-invariant/A2-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ns-invariant/A2-S1-nudged22':
        (9, '4ee1e802d1f28a2c50f516b4d1b37e9b0435f73db10d050fe0206994ea035116'),
    'ns-invariant/A2-S1-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ns-invariant/zero-S1-nudged23':
        (5, '220309f7ee3dbaa5d52eca097bf92453a51cd72f931a32a13a36dd24858bb67e'),
    'ns-invariant/zero-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'ns-invariant/zero-S2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/A1-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/A1-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/A1-S2-moved':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/A1-S2-nudged':
        (11, 'be5cfcb9ec64f753c4748a004015a10420711d6f60b47f87d73c83e63355f0c2'),
    'omega-invariant/A1-S2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/A1-W2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/A1-W2-perturbed-nudged':
        (25, 'f93f3889123fb6af9af0c694942930f131fb1d3a68f226bac38702106fa025db'),
    'omega-invariant/A1-Z3-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/A2-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/A2-S1-nudged':
        (9, '7e1dc3a9d970b937dd1da8b8cc914810d0c3f6ad684a0b33cc9ac4c959f3d442'),
    'omega-invariant/A2-S1-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/zero-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/zero-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega-invariant/zero-S2-nudged':
        (31, '1b17e3818a83e32f097ee13b26b48cad64267fce35a14dc029b5fa8610254b67'),
    'omega-invariant/zero-S2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'omega_ly_from_omega_lie/A1-S2':
        (2, 'a8af4e9aff3cf91dad853eda23bbc32645f61b41af40786dee9feb36b18a59d7'),
    'omega_ly_from_omega_lie/non-skew':
        (140, '0e98c91a2b0d46f40c9458a3cb166b6e47886638ce6d82994dfc063648d8b100'),
    'omega_ly_from_omega_lie/skew-random':
        (6, 'e9f90dc7cf5f8dbde7573dd2e9ac90b6e4a0f1f4552374a937f1a820503a4eb1'),
    'rep_d_closed_form_report/A1-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'rep_d_closed_form_report/A1-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'rep_d_closed_form_report/A1-S2-moved':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'rep_d_closed_form_report/A1-S2-nudged9':
        (86, '53d99166ade1d2626d9be650cab1fa3b137d5b5b89eabcb9182be76f2d0e1527'),
    'rep_d_closed_form_report/A1-S2-perturbed':
        (84, 'dffb797c5bc08bd9b7e93a1d53022aaa0ae476b9fb64c3073761d3d4283748c3'),
    'rep_d_closed_form_report/A1-W2-perturbed':
        (96, 'a276e93a89e75e038850ec4413edf45807cfa77bd154394d5c4d7d35d312f40c'),
    'rep_d_closed_form_report/A2-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'rep_d_closed_form_report/A2-S1-nudged10':
        (8, '110501d38bdab5eab7e686f1c73450d25a8dcfda51062b39ece94ddf2b469564'),
    'rep_d_closed_form_report/zero-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/A1-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/A1-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/A1-S2-moved':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/A1-S2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/A1-W2-perturbed':
        (3, 'db9eeaf05652ee050d97fd0a7165bc41cec69e556e9ce6fc1ad14ebaa976b0be'),
    'validate/A1-Z3-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/A2-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/A2-S1-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/A2-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/zero-S1':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/zero-S2':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate/zero-S2-perturbed':
        (0, '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945'),
    'validate_semigroup/tables':
        (15, '2b2f27018ffadb8d3685fb930149a5b53cddc90c7d86a2e9f0410d86e00889f0'),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_reference(name):
    result = CASES[name]()
    assert (len(result), digest(result)) == EXPECTED[name]
