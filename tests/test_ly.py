from fractions import Fraction

import pytest

from lyfam import linalg as la
from lyfam.errors import MalformedInputError, PreconditionError
from lyfam.ly import (LYAlgebra, Representation, adjoint_representation,
                      check_cocycle23, check_jacobi,
                      check_leibniz, check_ly_axioms, check_representation,
                      derived_D, gamma_ad, joint_index, ly_from_leibniz,
                      ly_from_lie, ly_tensor_semigroup, split_joint, zero_ly)
from lyfam.report import Violation
from conftest import random_leibniz_star, random_lie_binary, skew_binary


def test_zero_algebra_passes(a0):
    assert check_ly_axioms(a0).ok
    assert a0.invariant_report().ok


def test_fixture_algebras_pass(a1, a2):
    assert check_ly_axioms(a1).ok
    assert check_ly_axioms(a2).ok


def test_lie_induced_ternary(a1):
    # ternary bracket is the iterated binary bracket
    x, y, z = a1.basis(0), a1.basis(1), a1.basis(0)
    assert a1.tri(x, y, z) == a1.bracket(a1.bracket(x, y), z)


def test_broken_ternary_fails_axioms(a1):
    bad = ly_from_lie([[list(v) for v in row] for row in a1.binary])
    bad.ternary[0][1][0] = [v + 1 for v in bad.ternary[0][1][0]]
    bad.ternary[1][0][0] = [-v for v in bad.ternary[0][1][0]]
    assert not check_ly_axioms(bad).ok


def test_non_jacobi_input_rejected():
    bad = skew_binary(3, [(0, 1, [0, 0, 1]), (0, 2, [1, 0, 0]),
                          (1, 2, [0, 1, 0])])
    assert not check_jacobi(bad).ok
    with pytest.raises(PreconditionError):
        ly_from_lie(bad)


def test_seeded_lie_algebras(rng):
    for _ in range(10):
        A = ly_from_lie(random_lie_binary(rng))
        assert check_ly_axioms(A).ok


def test_seeded_leibniz_algebras(rng):
    for _ in range(10):
        A = ly_from_leibniz(random_leibniz_star(rng))
        assert check_ly_axioms(A).ok


def test_leibniz_brackets():
    star = [[la.zero_vec(2) for _ in range(2)] for _ in range(2)]
    star[0][0] = [0, 1]
    A = ly_from_leibniz(star)
    assert check_ly_axioms(A).ok
    # binary is the commutator, ternary the negated left-iterated product
    assert A.bracket([1, 0], [1, 0]) == [0, 0]
    assert A.tri([1, 0], [1, 0], [1, 0]) == [0, 0]


def test_adjoint_representation(a2):
    r = adjoint_representation(a2)
    assert check_representation(a2, r).ok
    # rho is the left bracket action, theta the right double-bracket action
    x, z = a2.basis(0), a2.basis(1)
    assert la.mat_vec(r.rho_of(x), z) == a2.bracket(x, z)
    assert la.mat_vec(r.theta_of(x, z), a2.basis(2)) == \
        a2.tri(a2.basis(2), x, z)


def test_derived_D_of_adjoint_is_ternary(a2):
    r = adjoint_representation(a2)
    D = derived_D(a2, r)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert [D[i][j][row][k] for row in range(3)] == \
                    a2.tri(a2.basis(i), a2.basis(j), a2.basis(k))


def test_derived_D_matches_formula_on_malformed_input(rng):
    # random tensors: the bracket is not skew and theta has no symmetry, so
    # no term of D may be read off another pair's
    n, nv = 3, 2
    scalars = [0, 1, -2, Fraction(1, 3)]

    def mat():
        return [[rng.choice(scalars) for _ in range(nv)] for _ in range(nv)]

    A = zero_ly(n)
    A.binary = [[[rng.choice(scalars) for _ in range(n)] for _ in range(n)]
                for _ in range(n)]
    r = Representation(nv, [mat() for _ in range(n)],
                       [[mat() for _ in range(n)] for _ in range(n)])
    D = derived_D(A, r)
    for i in range(n):
        for j in range(n):
            want = la.mat_sub(r.theta[j][i], r.theta[i][j])
            want = la.mat_sub(want, r.rho_of(A.binary[i][j]))
            want = la.mat_add(want, la.mat_mul(r.rho[i], r.rho[j]))
            want = la.mat_sub(want, la.mat_mul(r.rho[j], r.rho[i]))
            assert D[i][j] == want


def test_gamma_ad_is_cocycle(a1, a2):
    for A in (a1, a2):
        r = adjoint_representation(A)
        c = gamma_ad(A)
        assert check_cocycle23(A, r, c).ok
        assert c.invariant_report().ok
        x, y = A.basis(0), A.basis(1)
        assert c.g1_of(x, y) == la.vec_neg(A.bracket(x, y))


def test_perturbed_cocycle_fails(a1):
    r = adjoint_representation(a1)
    c = gamma_ad(a1)
    c.gamma1[0][1] = [v + 1 for v in c.gamma1[0][1]]
    rep = c.invariant_report()
    rep.extend(check_cocycle23(a1, r, c))
    assert not rep.ok


def test_joint_index_round_trip():
    for i in range(5):
        for alpha in range(3):
            m = joint_index(i, alpha, 3)
            assert split_joint(m, 3) == (i, alpha)


def test_tensor_semigroup(a1, s2):
    B = ly_tensor_semigroup(a1, s2)
    assert B.dim == a1.dim * s2.order
    assert check_ly_axioms(B).ok
    # bracket acts diagonally on the index legs
    x = B.basis(joint_index(0, 0, 2))
    y = B.basis(joint_index(1, 1, 2))
    out = B.bracket(x, y)
    expect = la.zero_vec(B.dim)
    for k, v in enumerate(a1.bracket(a1.basis(0), a1.basis(1))):
        expect[joint_index(k, 1, 2)] = v
    assert out == expect


def test_zero_tensor_trivial(s1, a0):
    B = ly_tensor_semigroup(a0, s1)
    assert B.dim == a0.dim
    assert check_ly_axioms(B).ok


def test_ragged_tensors_refused():
    # a short plane, a short row, a short vector; each used to be accepted and
    # to end in IndexError inside check_ly_axioms
    A = zero_ly(2)
    t = A.ternary
    for bad in ([t[0][:1], t[1]], [t[0], [t[1][0], t[1][1][:1]]],
                [t[0], [t[1][0], [t[1][1][0], t[1][1][1][:1]]]]):
        with pytest.raises(MalformedInputError):
            LYAlgebra(2, A.binary, bad)
    with pytest.raises(MalformedInputError):
        LYAlgebra(2, [A.binary[0], A.binary[1][:1]], t)


def test_checkers_at_dimensions_zero_and_one():
    for n in (0, 1):
        assert check_ly_axioms(zero_ly(n)).violations == []
        assert check_jacobi(zero_ly(n).binary).violations == []
        assert check_leibniz(la.zeros(n, n, n)).violations == []
    # [e_0, e_0] = e_0 is not skew, and e_0 * e_0 = e_0 is not left Leibniz
    A = LYAlgebra(1, [[[1]]], [[[[0]]]])
    assert check_ly_axioms(A).violations == [
        Violation("invariant:skew-binary", (0, 0), (2,)),
        Violation("LY-2.1", (0, 0, 0), (3,))]
    assert check_jacobi(A.binary).violations == [
        Violation("invariant:skew-binary", (0, 0), (2,)),
        Violation("jacobi", (0, 0, 0), (3,))]
    assert check_leibniz([[[1]]]).violations == [
        Violation("leibniz-left", (0, 0, 0), (-1,))]
