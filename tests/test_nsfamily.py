import copy
import itertools
import random
from fractions import Fraction

import pytest

from lyfam import linalg as la
from lyfam.errors import MalformedInputError
from lyfam.ly import check_ly_axioms
from lyfam.nsfamily import (NSFamilyAlgebra, check_ns_axioms, check_ns_family_axioms,
                            derived_brackets, ns_from_nijenhuis,
                            ns_from_twisted_rb, ns_tensor_from_rb_coincidence,
                            ns_tensor_semigroup, zero_ns_family)
from lyfam.rbfamily import check_twisted_rb_family, identity_family


def test_zero_family_passes(s1, s2):
    for s in (s1, s2):
        N = zero_ns_family(2, s)
        assert N.invariant_report().ok
        assert check_ns_family_axioms(N).ok


def test_from_twisted_rb_all_six(algebras, semigroups):
    for A in algebras:
        for s in semigroups:
            N = ns_from_twisted_rb(identity_family(A, s))
            assert N.invariant_report().ok
            assert check_ns_family_axioms(N).ok


def test_tensor_collapse_all_six(algebras, semigroups):
    for A in algebras:
        for s in semigroups:
            N = ns_from_twisted_rb(identity_family(A, s))
            T = ns_tensor_semigroup(N)
            assert T.semigroup.order == 1
            assert check_ns_axioms(T).ok


def test_coincidence_all_six(algebras, semigroups):
    for A in algebras:
        for s in semigroups:
            assert ns_tensor_from_rb_coincidence(identity_family(A, s))


def test_derived_brackets_give_ly(a1, s2):
    N = ns_from_twisted_rb(identity_family(a1, s2))
    star2, star3, dbl = derived_brackets(N)
    # the derived binary bracket is the antisymmetrized circle product
    i, j, al, be = 0, 1, 0, 1
    expect = la.vec_add(
        la.vec_sub(N.bullet[al][i][j], N.bullet[be][j][i]),
        N.vee[al][be][i][j])
    assert star2[al][be][i][j] == expect


def test_derived_bracket_tensors_are_multilinear(a2, s2):
    # the law checker contracts these tensors instead of re-deriving each
    # bracket, so they must reproduce the brackets at arbitrary vectors
    rng = random.Random(17)
    N = ns_from_twisted_rb(identity_family(a2, s2))
    for t in (N.bullet, N.vee, N.ternary_curly, N.ternary_square):
        for _ in range(12):
            cell = t
            while isinstance(cell[0], list):
                cell = rng.choice(cell)
            cell[rng.randrange(len(cell))] += Fraction(rng.randint(-3, 3), 2)
    star2, star3, dbl = derived_brackets(N)
    n, m = N.dim, N.semigroup.order
    for _ in range(3):
        x, y, z = ([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(n)] for _ in range(3))
        for a, b in itertools.product(range(m), repeat=2):
            assert la.contract(star2[a][b], x, y) == N.star2(a, b, x, y)
            assert la.contract(star3[a][b], x, y, z) == \
                N.star3(a, b, x, y, z)
            for g in range(m):
                assert la.contract(dbl[a][b][g], x, y, z) == \
                    N.dbl(a, b, g, x, y, z)


def test_from_nijenhuis(a1, s2):
    ident = [la.identity(a1.dim) for _ in range(s2.order)]
    N = ns_from_nijenhuis(a1, s2, ident)
    assert check_ns_family_axioms(N).ok


def test_ns_family_reads_the_tables_of_its_family_check(a1, s2, monkeypatch):
    # beyond its family check, the NS family contracts only the square, one
    # Gamma2(x, y, z) per triple of images; rho, Gamma1 and theta are read
    # from the tables the check built
    ctx, calls, contract = identity_family(a1, s2), [0], la.contract

    def counted(*args):
        calls[0] += 1
        return contract(*args)

    def count(f):
        calls[0] = 0
        f(ctx)
        return calls[0]

    monkeypatch.setattr(la, "contract", counted)
    nimages = s2.order * ctx.dimV
    assert count(ns_from_twisted_rb) == \
        count(check_twisted_rb_family) + nimages ** 3


def test_corrupted_family_fails(a1, s2):
    N = ns_from_twisted_rb(identity_family(a1, s2))
    N.bullet[0][0][1][0] += Fraction(1)
    assert not check_ns_family_axioms(N).ok


def _one_short(t, depth):
    """A copy of t whose first list at the given depth lacks its last entry."""
    t = copy.deepcopy(t)
    sub = t
    for _ in range(depth):
        sub = sub[0]
    del sub[-1]
    return t


def test_ragged_family_refused(s1, s2):
    # bullet[0][1] one vector short: accepted at first, then IndexError in
    # check_ns_family_axioms
    N = zero_ns_family(2, s1)
    with pytest.raises(MalformedInputError):
        NSFamilyAlgebra(2, s1, [[N.bullet[0][0], N.bullet[0][1][:1]]], N.vee,
                        N.ternary_curly, N.ternary_square)
    # each operation one entry short at each level, over two elements
    M = zero_ns_family(2, s2)
    ops = [M.bullet, M.vee, M.ternary_curly, M.ternary_square]
    for q, op in enumerate(ops):
        for depth in range({0: 4, 1: 5, 2: 6, 3: 7}[q]):
            args = ops[:q] + [_one_short(op, depth)] + ops[q + 1:]
            with pytest.raises(MalformedInputError):
                NSFamilyAlgebra(2, s2, *args)


def test_zero_families_of_dimension_zero_and_one(s1, s2):
    for n, s in itertools.product((0, 1), (s1, s2)):
        N = zero_ns_family(n, s)
        assert check_ns_family_axioms(N).violations == []
        assert derived_brackets(N)[0] == la.zeros(s.order, s.order, n, n, n)


def test_derived_brackets_at_basis_vectors_keep_scalar_types(a1, s2):
    # star2, star3 and dbl at basis vectors, value and scalar type, on a family
    # holding Fraction(0) entries: a raw table lookup would keep them
    N = ns_from_twisted_rb(identity_family(a1, s2))
    rng = random.Random(41)
    for t in (N.bullet, N.vee, N.ternary_curly, N.ternary_square):
        for _ in range(12):
            cell = t
            while isinstance(cell[0], list):
                cell = rng.choice(cell)
            cell[rng.randrange(len(cell))] = rng.choice(
                (Fraction(0), Fraction(1, 2), -1, 0))
    star2, star3, dbl = derived_brackets(N)
    E, r, m = la.identity(N.dim), range(N.dim), range(N.semigroup.order)
    for a, b, i, j in itertools.product(m, m, r, r):
        assert repr(star2[a][b][i][j]) == repr(N.star2(a, b, E[i], E[j]))
        for k in r:
            assert repr(star3[a][b][i][j][k]) == repr(
                N.star3(a, b, E[i], E[j], E[k]))
            for g in m:
                assert repr(dbl[a][b][g][i][j][k]) == repr(
                    N.dbl(a, b, g, E[i], E[j], E[k]))
