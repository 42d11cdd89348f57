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
from lyfam.semigroup import FiniteCommutativeSemigroup, trivial_semigroup


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
    # beyond its family check, the NS family contracts only the square, in
    # one grid of Gamma2 over the triples of images; rho, Gamma1 and theta
    # are read from the tables the check built
    ctx, calls = identity_family(a1, s2), []

    def counted(name, kernel):
        def call(table, *args, **kw):
            calls.append((name, len(args)))
            return kernel(table, *args, **kw)
        return call

    def count(f):
        calls.clear()
        f(ctx)
        return list(calls)

    for name in ("contract", "contract_grid"):
        monkeypatch.setattr(la, name, counted(name, getattr(la, name)))
    assert count(ns_from_twisted_rb) == \
        count(check_twisted_rb_family) + [("contract_grid", 3)]


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


# ---------------------------------------------------------------------------
# the canonical-tuple screen of check_ns_family_axioms

# per law: the number of its indexed slots, and the swaps of two slots that
# change the sign of its residual on a skew family over a commutative table;
# slot t of a witness w with E indexed slots is (w[t], w[E + t])
ANTISYMMETRIES = {
    "NSF-4.16": (3, {(0, 1)}), "NSF-4.17": (3, {(0, 1)}), "NSF-4.18": (3, {(1, 2)}),
    "NSF-4.21": (3, {(0, 1), (0, 2), (1, 2)}), "NSF-4.28": (3, {(0, 1), (0, 2), (1, 2)}),
    "NSF-4.19": (4, {(0, 1)}), "NSF-4.30": (4, {(0, 1)}), "NSF-4.20": (4, {(1, 2)}),
    "NSF-4.22": (4, {(0, 1), (0, 2), (1, 2)}), "NSF-4.23": (4, {(0, 1), (2, 3)}),
    "NSF-4.29": (4, {(0, 1), (2, 3)}), "NSF-4.24": (5, {(0, 1), (2, 3)}),
}

S2 = FiniteCommutativeSemigroup(2, [[0, 1], [1, 1]], unit=0)
Z3 = FiniteCommutativeSemigroup(3, [[0, 1, 2], [1, 2, 0], [2, 0, 1]], unit=0)
# commutative, not associative: (0 0) 1 = 0 but 0 (0 1) = 1
NONASSOC = FiniteCommutativeSemigroup(2, [[1, 0], [0, 0]])
W2 = FiniteCommutativeSemigroup(2, [[1, 0], [1, 1]])  # not commutative


def _random_skew_family(rng, dim, s):
    """Random bullet and curly, random vee and square skew in their first
    pair, small int entries."""
    N, m, n = zero_ns_family(dim, s), range(s.order), range(dim)
    for a, b, i, j in itertools.product(m, m, n, n):
        N.bullet[a][i][j] = [rng.randint(-2, 2) for _ in n]
        for k in n:
            N.ternary_curly[a][b][i][j][k] = [rng.randint(-2, 2) for _ in n]
        if i * s.order + a < j * s.order + b:
            v = [rng.randint(-2, 2) for _ in n]
            N.vee[a][b][i][j], N.vee[b][a][j][i] = v, [-x for x in v]
            for g, k in itertools.product(m, n):
                q = [rng.randint(-2, 2) for _ in n]
                N.ternary_square[a][b][g][i][j][k] = q
                N.ternary_square[b][a][g][j][i][k] = [-x for x in q]
    assert N.invariant_report().ok
    return N


def test_law_antisymmetries_hold_and_no_others():
    """Read from the full reports of random skew families, whose laws fail
    at canonical tuples and so are swept in full: a swap in the table
    sends every residual to minus the one at the swapped witness, and
    every other swap of two slots fails on some family."""
    rng = random.Random(20261020)
    held = {law: set(itertools.combinations(range(e), 2))
            for law, (e, _) in ANTISYMMETRIES.items()}
    for dim, s in ((3, trivial_semigroup()), (2, S2), (2, Z3), (2, NONASSOC)):
        for _ in range(2):
            residual = {(v.law, v.witness): v.residual for v in
                        check_ns_family_axioms(_random_skew_family(rng, dim, s)).violations}
            assert {law for law, _ in residual} == set(ANTISYMMETRIES)
            for (law, w), r in residual.items():
                e = ANTISYMMETRIES[law][0]
                for p, q in list(held[law]):
                    u = list(w)
                    for x, y in ((p, q), (e + p, e + q)):
                        u[x], u[y] = u[y], u[x]
                    if residual.get((law, tuple(u))) != tuple(-x for x in r):
                        held[law].discard((p, q))
    assert held == {law: swaps for law, (_, swaps) in ANTISYMMETRIES.items()}


@pytest.mark.parametrize("op,want", [
    ("square", [("NSF-4.24", (1, 0, 0, 1, 0, 0, 0, 0, 0, 0), (1,)),
                ("NSF-4.24", (1, 0, 0, 1, 1, 0, 0, 0, 0, 0), (1,)),
                ("NSF-4.24", (1, 0, 1, 0, 0, 0, 0, 0, 0, 0), (-1,)),
                ("NSF-4.24", (1, 0, 1, 0, 1, 0, 0, 0, 0, 0), (-1,))]),
    ("curly", [("NSF-4.29", (1, 0, 0, 1, 0, 0, 0, 0, 0), (8,)),
               ("NSF-4.19", (1, 0, 1, 0, 0, 0, 0, 0, 0), (8,)),
               ("NSF-4.29", (1, 0, 1, 0, 0, 0, 0, 0, 0), (-8,)),
               ("NSF-4.30", (1, 0, 1, 0, 0, 0, 0, 0, 0), (-8,)),
               ("NSF-4.19", (1, 0, 1, 1, 0, 0, 0, 0, 0), (8,)),
               ("NSF-4.30", (1, 0, 1, 1, 0, 0, 0, 0, 0), (-8,))])])
def test_non_commutative_family_gets_the_full_report(op, want):
    """Skew over W2, with [e_0, e_0, e_0]_{0,1,g} = e_0 = -[..]_{1,0,g} or
    {e_0, e_0, e_0}_{b,g} = e_0 for b = 0 and -e_0 for b = 1: every law
    vanishes where the screen would evaluate it (each outer tuple with the
    label of x below that of y, and NSF-4.18/4.20 everywhere), yet fails
    elsewhere, so the full sweep must run."""
    N = zero_ns_family(1, W2)
    for b, g in itertools.product(range(2), repeat=2):
        if op == "square":
            N.ternary_square[b][1 - b][g][0][0][0] = [1 - 2 * b]
        else:
            N.ternary_curly[b][g][0][0][0] = [1 - 2 * b]
    assert N.invariant_report().ok
    got = [(v.law, v.witness, v.residual) for v in check_ns_family_axioms(N).violations]
    assert got == want
    for law, w, _ in got:
        e = ANTISYMMETRIES[law][0]
        assert law not in ("NSF-4.18", "NSF-4.20")
        assert w[e] * 2 + w[0] >= w[e + 1] * 2 + w[1]


def test_screen_evaluates_the_blocks_of_canonical_pairs_only(a1, s2, monkeypatch):
    """On the NS family of the A1 x S2 identity family, M = 2 and d = 2:
    an outer tuple's blocks make 1 mat_mul in the first phase, 2 + 4 + 2d
    in the second (NSF-4.20 2d of them) and 2 in the third.  The screen
    evaluates all blocks at the 6 of 16 pairs of joint labels (i, a) <
    (j, b), and NSF-4.20 at the other 10; a family made non-skew is swept
    in full."""
    N = ns_from_twisted_rb(identity_family(a1, s2))
    bad = copy.deepcopy(N)
    bad.vee[0][0][0][0] = [1, 0]
    calls, mat_mul = [], la.mat_mul
    monkeypatch.setattr(la, "mat_mul", lambda x, y: calls.append(1) or mat_mul(x, y))
    assert check_ns_family_axioms(N).ok
    screened, calls[:] = len(calls), []
    assert not check_ns_family_axioms(bad).ok
    M, d, full = 2, 2, len(calls)
    assert full == M ** 3 * d ** 2 + M ** 4 * d ** 2 * (4 + 2 * d) + M ** 5 * d ** 2 * 2
    assert screened == full * 6 // 16 + M ** 4 * d ** 2 * 2 * d * 10 // 16
    assert (full, screened) == (800, 460)


def test_screen_finds_a_law_that_fails_off_the_canonical_pairs():
    """e_0 . e_0 = -e_0 and {e_1, e_1, e_1} = e_0 over S1: skew, and its only
    violations lie where the label of x is the larger one.  The screen finds
    them through NSF-4.18, which it evaluates at every outer tuple, and the
    full sweep reports them."""
    N = zero_ns_family(2, trivial_semigroup())
    N.bullet[0][0][0], N.ternary_curly[0][0][1][1][1] = [-1, 0], [1, 0]
    assert N.invariant_report().ok
    assert [(v.law, v.witness, v.residual) for v in check_ns_family_axioms(N).violations] \
        == [("NSF-4.18", (0, 0, 0, 1, 0, 1, 1), (1, 0)),
            ("NSF-4.18", (0, 0, 0, 1, 1, 0, 1), (-1, 0))]
