import copy
import itertools
import random
from fractions import Fraction

import pytest

from lyfam.errors import (BudgetExceededError, MalformedInputError,
                          PreconditionError)
from lyfam.nsfamily import ns_from_twisted_rb
from lyfam.omega import (OmegaLYAlgebra, OmegaRepresentation, _canonical_tuples,
                         check_omega_ly_axioms, check_omega_representation,
                         SkewBasis, cochain_build, cochain_coords,
                         cochain_full_coords, cochain_reader,
                         delta_omega, delta_star_omega, ensure_budget,
                         omega_ly_from_ns_family, omega_ly_from_omega_lie,
                         omega_ly_from_reynolds, omega_cohomology_dims,
                         skew_basis, zero_omega_ly, zero_omega_representation)
from lyfam.cohomology import RBFComplex
from lyfam import cohomology, rbfamily
from lyfam.rbfamily import identity_family
from lyfam.report import Report

from lyfam import linalg as la
from test_coboundary_reference import skew_violations
from test_law_reference import A1, A2, S1, S2, Z3


def test_zero_omega_ly(s2):
    O = zero_omega_ly(2, s2)
    assert O.invariant_report().ok
    assert check_omega_ly_axioms(O).ok


def test_from_ns_family_all_six(algebras, semigroups):
    for A in algebras:
        for s in semigroups:
            O = omega_ly_from_ns_family(ns_from_twisted_rb(identity_family(A, s)))
            assert O.invariant_report().ok
            assert check_omega_ly_axioms(O).ok


def test_from_indexed_lie(a1, s2):
    n, m = a1.dim, s2.order
    binary = [[[[list(a1.binary[i][j]) for j in range(n)] for i in range(n)]
               for _ in range(m)] for _ in range(m)]
    O = omega_ly_from_omega_lie(n, s2, binary)
    assert check_omega_ly_axioms(O).ok
    # induced ternary is the iterated indexed bracket
    x, y, z = O.basis(0), O.basis(1), O.basis(0)
    assert O.tr(0, 1, 1, x, y, z) == O.br(1, 1, O.br(0, 1, x, y), z)


def test_indexed_lie_rejects_non_jacobi(s1):
    binary = [[[[[0, 0, 1], [0, 0, 0], [0, 0, 0]] for _ in range(3)]]]
    binary[0][0][0][1] = [0, 0, 1]
    binary[0][0][1][0] = [0, 0, -1]
    binary[0][0][0][2] = [1, 0, 0]
    binary[0][0][2][0] = [-1, 0, 0]
    binary[0][0][1][2] = [0, 1, 0]
    binary[0][0][2][1] = [0, -1, 0]
    binary[0][0][0][0] = [0, 0, 0]
    binary[0][0][1][1] = [0, 0, 0]
    binary[0][0][2][2] = [0, 0, 0]
    with pytest.raises(PreconditionError):
        omega_ly_from_omega_lie(3, s1, binary)


def _one_short(table, depth):
    """table with its first list at the given depth one entry short."""
    if not depth:
        return table[:-1]
    return [_one_short(table[0], depth - 1)] + table[1:]


def test_ragged_indexed_tensors_refused(s2):
    # each used to be accepted, and to end in IndexError inside
    # check_omega_ly_axioms or inside omega_ly_from_omega_lie's own sweeps
    for s in (S1, s2):
        O = zero_omega_ly(2, s)
        for depth in range(5):
            bad = _one_short(O.binary, depth)
            with pytest.raises(MalformedInputError):
                OmegaLYAlgebra(2, s, bad, O.ternary)
            with pytest.raises(MalformedInputError):
                omega_ly_from_omega_lie(2, s, bad)
        for depth in range(7):
            with pytest.raises(MalformedInputError):
                OmegaLYAlgebra(2, s, O.binary, _one_short(O.ternary, depth))


def test_ragged_indexed_representation_refused(s2):
    # a rho matrix one row short used to be accepted, and the representation
    # then passed check_omega_representation; a short theta list was accepted
    # too
    for s in (S1, s2):
        O = zero_omega_ly(2, s)
        r = zero_omega_representation(O, 2)
        for depth in range(5):
            with pytest.raises(MalformedInputError):
                OmegaRepresentation(O, 2, _one_short(r.rho, depth), r.theta)
        for depth in range(7):
            with pytest.raises(MalformedInputError):
                OmegaRepresentation(O, 2, r.rho, _one_short(r.theta, depth))


def test_from_reynolds(a1, s2):
    fam = [la.zeros(a1.dim, a1.dim) for _ in range(s2.order)]
    O = omega_ly_from_reynolds(a1, s2, fam)
    assert check_omega_ly_axioms(O).ok


def test_from_reynolds_sweeps_the_family_laws_once(a1, s2, monkeypatch):
    # the induced products are built once, for the check and the algebra;
    # the screen accepts the zero family without a sweep, and a refused
    # family is swept once per law
    swept, sweep = [], Report.sweep
    built, products = [], rbfamily.induced_products

    def spy(self, ranges, laws, *rest):
        swept.extend(law[0] for law in laws)
        return sweep(self, ranges, laws, *rest)

    def counted(tt):
        built.append(tt)
        return products(tt)

    monkeypatch.setattr(Report, "sweep", spy)
    for module in (rbfamily, cohomology):
        monkeypatch.setattr(module, "induced_products", counted)
    omega_ly_from_reynolds(a1, s2, [la.zeros(a1.dim, a1.dim)
                                    for _ in range(s2.order)])
    assert len(built) == 1
    assert not {"RBF-3.1", "RBF-3.2"} & set(swept)
    del built[:], swept[:]
    with pytest.raises(PreconditionError, match="Reynolds family laws"):
        omega_ly_from_reynolds(a1, s2, [la.identity(a1.dim),
                                        la.zeros(a1.dim, a1.dim)])
    assert len(built) == 1
    assert [law for law in swept if law.startswith("RBF")] == \
        ["RBF-3.1", "RBF-3.2"]


def test_zero_representation_passes(s2):
    O = zero_omega_ly(2, s2)
    r = zero_omega_representation(O, 2)
    assert check_omega_representation(O, r).ok


def test_perturbed_representation_fails(a1, s2):
    from lyfam.cohomology import RBFComplex
    cx = RBFComplex(identity_family(a1, s2))
    O, r = cx.induced_algebra, cx.induced_rep
    assert check_omega_representation(O, r).ok
    r.rho[0][0][0][0][0] += 1
    r._D = None  # force rebuild of the derived operator
    assert not check_omega_representation(O, r).ok


def test_skew_basis_counts(s1, s2):
    # M = |semigroup| * carrier dim; degree (2,3) over dims (2,2), |O|=1:
    # even part M(M-1)/2 * 2 = 2, odd part times M more = 4
    c = skew_basis((2, 3), (2, 2), s1).symbolic()
    ne = sum(len(vec) for row in c.even for vec in row)
    no = sum(len(vec) for row in c.odd for vec in row)
    assert (ne, no) == (2, 4)
    assert skew_basis(1, (2, 2), s2).size == 2 * 2 * 2
    assert skew_basis((2, 3), (2, 2), s2).size == 6 * 2 + 6 * 4 * 2


@pytest.mark.parametrize("degree", [(1, 2), (2, 3), (3, 4)])
def test_skew_basis_size_counts_the_stored_coordinates(s2, degree):
    # an odd leading degree, as a cochain file may have, adds a free label
    c = cochain_build(s2, 2, 3, degree, lambda al, xs: [0] * 3,
                      lambda al, xs: [0] * 3)
    assert SkewBasis(degree, s2, 2, 3).size == len(cochain_coords(c))


def test_skew_basis_elements_are_skew(s2):
    b = skew_basis((2, 3), (2, 2), s2)
    for i in range(0, b.size, 7):
        assert not skew_violations(b.embed(i))


def test_delta_preserves_skewness_and_squares_to_zero(a1, s2):
    from lyfam.cohomology import RBFComplex
    cx = RBFComplex(identity_family(a1, s2))
    O, r = cx.induced_algebra, cx.induced_rep
    b1 = skew_basis(1, (O.dim, r.dim), s2)
    for i in range(b1.size):
        d1 = delta_omega(O, r, b1.embed(i), None)
        assert not skew_violations(d1)
        d2 = delta_omega(O, r, d1, None)
        assert not any(cochain_full_coords(d2))
        ds = delta_star_omega(O, r, d1)
        assert ds.degree == (3, 4)


def test_generic_cohomology_dims(s1, s2):
    O1 = zero_omega_ly(1, s1)
    r1 = zero_omega_representation(O1, 1)
    assert omega_cohomology_dims(O1, r1, 0) == [1]
    O2 = zero_omega_ly(1, s2)
    r2 = zero_omega_representation(O2, 1)
    assert omega_cohomology_dims(O2, r2, 0) == [2]


def test_budget_gate(monkeypatch):
    monkeypatch.setenv("LYFAM_BUDGET", "5")
    with pytest.raises(BudgetExceededError):
        ensure_budget(10)
    monkeypatch.setenv("LYFAM_BUDGET", "3")
    with pytest.raises(BudgetExceededError):
        ensure_budget(10)
    ensure_budget(2)



# (semigroup, carrier dim, degree): every layout over S1, S2 and Z3
LAYOUTS = [(s, nA, degree)
           for s, nA in ((S1, 3), (S2, 2), (Z3, 1), (Z3, 2))
           for degree in ((1, 2), (2, 3), (3, 4), (4, 5))
           if not (degree == (4, 5) and s.order * nA > 4)]


@pytest.mark.parametrize("s,nA,degree", LAYOUTS)
def test_reader_gives_the_signed_canonical_value(s, nA, degree):
    # every tuple reads the value built at the canonical tuple with the
    # same labels in each of the first k // 2 pairs, times (-1) to the
    # number of pairs swapped, and 0 where a pair repeats a label
    M, npairs = s.order, degree[0] // 2
    built, at = [], {}

    def value(al, xs):
        built.append((list(al), list(xs)))
        v = [len(built), Fraction(1, len(built) + 1)]
        at[tuple(x * M + a for a, x in zip(al, xs))] = v
        return v

    read = cochain_reader(cochain_build(s, nA, 2, degree, value, value))
    # cochain_build evaluates each canonical tuple once, in order
    assert built == [t for k in degree
                     for t in _canonical_tuples(M, nA, k, npairs)]
    for k in degree:
        for al in itertools.product(range(M), repeat=k):
            for xs in itertools.product(range(nA), repeat=k):
                labels, sign = [x * M + a for a, x in zip(al, xs)], 1
                for p in range(0, 2 * npairs, 2):
                    if labels[p] == labels[p + 1]:
                        sign = 0
                    elif labels[p] > labels[p + 1]:
                        labels[p], labels[p + 1] = labels[p + 1], labels[p]
                        sign = -sign
                got = read(al, xs)
                if sign:
                    assert got[0] == sign and got[1] is at[tuple(labels)]
                else:
                    assert got == (0, None)


@pytest.mark.parametrize("s,nA,degree", LAYOUTS)
def test_cochain_build_repeats_its_output_from_the_cached_tuples(s, nA, degree):
    # the canonical tuples of a shape are listed once and handed out as
    # tuples, so a second build reads the same tuples as the first
    seen = []

    def value(al, xs):
        assert type(al) is tuple and type(xs) is tuple
        seen.append((al, xs))
        return [sum(al) - len(seen), Fraction(sum(xs), len(seen) + 1)]

    first = cochain_build(s, nA, 2, degree, value, value)
    once = seen[:]
    del seen[:]
    second = cochain_build(s, nA, 2, degree, value, value)
    assert seen == once
    assert repr(second) == repr(first)


def _full_skew_report(O):
    """OmegaLYAlgebra.invariant_report without its screen: both sums at
    every tuple."""
    m, n, B, T = O.semigroup.elements, range(O.dim), O.binary, O.ternary
    rep = Report().sweep([m, m, n, n], [
        ("invariant:skew-binary", lambda a, b, i, j: la.vec_add(
            B[a][b][i][j], B[b][a][j][i]))])
    return rep.sweep([m, m, m, n, n, n], [
        ("invariant:skew-ternary", lambda a, b, c, i, j, k: la.vec_add(
            T[a][b][c][i][j][k], T[b][a][c][j][i][k]))])


@pytest.mark.parametrize("A", ["A1", "A2"])
@pytest.mark.parametrize("s", [S1, S2, Z3], ids=["S1", "S2", "Z3"])
def test_screened_skewness_report_equals_the_full_sweep(A, s):
    # the induced algebra is skew; each copy has one entry changed where
    # the joint labels i*M + a of the first two slots are p < q, p > q or
    # p = q, and its report must be the full sweep's, violation by violation
    O = RBFComplex(identity_family(A1 if A == "A1" else A2, s)).induced_algebra
    assert O.invariant_report().ok and _full_skew_report(O).ok
    rng, M, n = random.Random("%s-%d" % (A, s.order)), s.order, range(O.dim)
    labelled = [(i * M + a, (a, i)) for a, i in itertools.product(s.elements, n)]
    for rel in (-1, 1, 0):  # p < q, p > q, p = q
        (a, i), (b, j) = rng.choice([(x, y) for p, x in labelled
                                     for q, y in labelled
                                     if (p > q) - (p < q) == rel])
        c, k, coord = rng.choice(s.elements), rng.choice(n), rng.choice(n)
        for tensor in ("binary", "ternary"):
            binary, ternary = copy.deepcopy(O.binary), copy.deepcopy(O.ternary)
            vec = (binary[a][b][i][j] if tensor == "binary"
                   else ternary[a][b][c][i][j][k])
            vec[coord] += 1
            changed = OmegaLYAlgebra(O.dim, s, binary, ternary)
            want = _full_skew_report(changed)
            assert not want.ok
            assert repr(changed.invariant_report().violations) == \
                repr(want.violations)


@pytest.mark.parametrize("s,nA,degree", [
    (s, nA, degree) for s, nA, degree in LAYOUTS if degree in ((2, 3), (4, 5))]
    + [(s, 2, 1) for s in (S1, S2, Z3)])
def test_combine_and_project_are_inverse(s, nA, degree):
    rng = random.Random(repr((s.order, nA, degree)))
    bas = skew_basis(degree, (nA, 2), s)
    x = [rng.choice((0, 0, 1, -2, Fraction(3, 2))) for _ in range(bas.size)]
    c = bas.combine(x)
    assert bas.project(c) == x
    if degree != 1:
        # the full table of the stored coordinates passes the pair-swap
        # check of a table that stores every tuple
        assert not skew_violations(c)
        k, ko = degree
        assert len(cochain_full_coords(c)) == 2 * ((s.order * nA) ** k
                                                   + (s.order * nA) ** ko)


def test_zero_algebras_of_dimension_zero_and_one(s2):
    for n in (0, 1):
        assert check_omega_ly_axioms(zero_omega_ly(n, s2)).violations == []


# ---------------------------------------------------------------------------
# the canonical-tuple screen of check_omega_ly_axioms

def _induced(A, s):
    from lyfam.cohomology import RBFComplex
    return RBFComplex(identity_family(A, s), check=False).induced_algebra


@pytest.mark.parametrize("base,before,after", [
    ("sl2-S1", 18, 6), ("A1-S2-induced", 192, 72), ("A2-S2-induced", 432, 180)])
def test_screen_evaluates_the_blocks_of_canonical_pairs_only(
        monkeypatch, a1, a2, base, before, after):
    """Each block of (5.4) and (5.5) makes one mat_mul.  A valid algebra is
    decided by the canonical pairs (ii, si) < (jj, a) of its blocks: 3 of
    the 9 on sl2, 6 of the 16 joint-label pairs over S2."""
    from lyfam import omega
    from lyfam.ly import _over_trivial_semigroup
    O = {"sl2-S1": lambda: _over_trivial_semigroup(a2),
         "A1-S2-induced": lambda: _induced(a1, S2),
         "A2-S2-induced": lambda: _induced(a2, S2)}[base]()
    calls = []
    mat_mul = omega.mat_mul
    monkeypatch.setattr(omega, "mat_mul",
                        lambda x, y: calls.append(1) or mat_mul(x, y))
    assert check_omega_ly_axioms(O).ok
    m, n = O.semigroup.order, O.dim
    assert m ** 4 * n ** 2 * (1 + m) == before
    assert len(calls) == after


def _brute_force_laws_hold(O):
    """OLY-5.2 ... 5.5 at every tuple, each term one contraction of the
    brackets at basis vectors, as the laws read."""
    t, m, E = O.semigroup.table, O.semigroup.elements, la.identity(O.dim)
    br, tr = O.br, O.tr
    V = [(a, E[i]) for a in m for i in range(O.dim)]
    for (a, x), (b, y), (c, z) in itertools.product(V, repeat=3):
        cyclic = ((a, b, c, x, y, z), (b, c, a, y, z, x), (c, a, b, z, x, y))
        if any(la.vec_sum("++++++", *[
                br(t[p][q], r, br(p, q, u, v), w) for p, q, r, u, v, w in cyclic],
                *[tr(p, q, r, u, v, w) for p, q, r, u, v, w in cyclic])):
            return False
        for e, w in V:
            if any(la.vec_sum("+++", *[
                    tr(t[p][q], r, e, br(p, q, u, v), s, w)
                    for p, q, r, u, v, s in cyclic])):
                return False
    for (a, x), (b, y), (c, z), (e, w) in itertools.product(V, repeat=4):
        ab = t[a][b]
        # D(x, y)[z, w] = [D(x, y)z, w] + [z, D(x, y)w]
        if any(la.vec_sum("+--", tr(a, b, t[c][e], x, y, br(c, e, z, w)),
                          br(t[ab][c], e, tr(a, b, c, x, y, z), w),
                          br(c, t[ab][e], z, tr(a, b, e, x, y, w)))):
            return False
        for g, v in V:
            # D(x, y){z, w, v} = {D(x, y)z, w, v} + {z, D(x, y)w, v}
            # + {z, w, D(x, y)v}
            if any(la.vec_sum(
                    "+---", tr(a, b, t[t[c][e]][g], x, y, tr(c, e, g, z, w, v)),
                    tr(t[ab][c], e, g, tr(a, b, c, x, y, z), w, v),
                    tr(c, t[ab][e], g, z, tr(a, b, e, x, y, w), v),
                    tr(c, e, t[ab][g], z, w, tr(a, b, g, x, y, v)))):
                return False
    return True


def _skew_perturbed(O, rng):
    """O with one ternary coordinate moved and its skew partner moved back,
    so that the ternary family stays skew."""
    M, n = O.semigroup.order, O.dim
    T = [[[[[[list(v) for v in r] for r in p] for p in c] for c in b]
          for b in a] for a in O.ternary]
    while True:
        a, b, c = (rng.randrange(M) for _ in range(3))
        i, j, k, l = (rng.randrange(n) for _ in range(4))
        if (a, i) != (b, j):
            break
    delta = rng.choice((-1, 1, Fraction(1, 2)))
    T[a][b][c][i][j][k][l] += delta
    T[b][a][c][j][i][k][l] -= delta
    return OmegaLYAlgebra(n, O.semigroup, O.binary, T)


def _screen_cases():
    from conftest import make_a1, make_a2
    from lyfam.ly import ly_from_lie
    from lyfam.semigroup import FiniteCommutativeSemigroup
    # W2 is neither commutative nor associative: the sweep must not be cut
    # to canonical tuples there
    W2 = FiniteCommutativeSemigroup(2, [[1, 0], [1, 1]])
    heis = ly_from_lie([[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                        [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
                        [[0, 0, 0], [0, 0, 0], [0, 0, 0]]])
    out = {}
    for aname, A in (("A1", make_a1()), ("A2", make_a2()), ("heis", heis)):
        for sname, s in (("S1", S1), ("S2", S2), ("W2", W2)):
            m, n = s.order, A.dim
            out["lie-%s-%s" % (aname, sname)] = omega_ly_from_omega_lie(
                n, s, [[A.binary] * m for _ in range(m)])
        for sname, s in (("S1", S1), ("S2", S2)):
            out["induced-%s-%s" % (aname, sname)] = _induced(A, s)
            out["ns-%s-%s" % (aname, sname)] = omega_ly_from_ns_family(
                ns_from_twisted_rb(identity_family(A, s)))
    out["zero-2-S2"] = zero_omega_ly(2, S2)
    rng = random.Random(20261019)
    for name, O in list(out.items()):
        for k in range(2):
            out["%s-perturbed%d" % (name, k)] = _skew_perturbed(O, rng)
    # {e_0, e_0, e_0}_{0,1,c} = e_0 = -{e_0, e_0, e_0}_{1,0,c} over W2: (5.5)
    # holds at every canonical tuple, where the first pair is (0, 1), and
    # fails at others
    T = zero_omega_ly(1, W2).ternary
    for c in W2.elements:
        T[0][1][c][0][0][0], T[1][0][c][0][0][0] = [1], [-1]
    out["one-dim-W2"] = OmegaLYAlgebra(1, W2, zero_omega_ly(1, W2).binary, T)
    return out


SCREEN_CASES = _screen_cases()


@pytest.mark.parametrize("name", sorted(SCREEN_CASES))
def test_screen_agrees_with_a_brute_force_evaluation(name):
    O = SCREEN_CASES[name]
    assert O.invariant_report().ok
    assert check_omega_ly_axioms(O).ok == _brute_force_laws_hold(O)


# ---------------------------------------------------------------------------
# the canonical-tuple screen of check_omega_representation

# per law: the number of its indexed slots, and the swaps of two slots that
# change the sign of its residual for a skew algebra over a commutative
# table; slot t of a witness w with E indexed slots is (w[t], w[E + 1 + t]),
# and w[E] is the index of the module
REP_ANTISYMMETRIES = {"OREP-5.6": (3, {(0, 1)}), "OREP-5.7": (3, {(0, 1)}),
                      "OREP-5.8": (3, {(1, 2)}), "OREP-5.9": (4, {(0, 1)}),
                      "OREP-5.10": (4, {(1, 2)})}


def _induced_rep(A, s, rng=None):
    """The induced algebra and representation of the identity family of A
    over s, the representation nudged when rng is given."""
    from lyfam.cohomology import RBFComplex
    from test_law_reference import nudged
    cx = RBFComplex(identity_family(A, s), check=False)
    r = cx.induced_rep
    if rng is not None:
        r = OmegaRepresentation(r.algebra, r.dim, nudged(rng, r.rho, True),
                                nudged(rng, r.theta, False))
    return cx.induced_algebra, r


def test_representation_law_antisymmetries_hold_and_no_others(a1):
    """Read from the full reports of nudged induced representations, whose
    laws fail at canonical tuples and so are swept in full: a swap in the
    table sends every residual to minus the one at the swapped witness, and
    every other swap of two slots fails on some representation."""
    rng = random.Random(20261020)
    held = {law: set(itertools.combinations(range(e), 2))
            for law, (e, _) in REP_ANTISYMMETRIES.items()}
    seen = set()
    for s in (S1, S2, Z3):
        O, r = _induced_rep(a1, s, rng)
        assert O.invariant_report().ok
        residual = {(v.law, v.witness): v.residual
                    for v in check_omega_representation(O, r).violations}
        seen |= {law for law, _ in residual}
        for (law, w), res in residual.items():
            e = REP_ANTISYMMETRIES[law][0]
            for p, q in list(held[law]):
                u = list(w)
                for x, y in ((p, q), (e + 1 + p, e + 1 + q)):
                    u[x], u[y] = u[y], u[x]
                if residual.get((law, tuple(u))) != tuple(-x for x in res):
                    held[law].discard((p, q))
    assert seen == set(REP_ANTISYMMETRIES)
    assert held == {law: swaps for law, (_, swaps) in REP_ANTISYMMETRIES.items()}


def _w2_representation():
    """On the zero algebra of dimension 1 over W2, with rho_{0,1}(e_0) = -1
    and theta_{0,1,1}(e_0, e_0) = -1 on a module of dimension 1."""
    from test_law_reference import W2
    O = zero_omega_ly(1, W2)
    r = zero_omega_representation(O, 1)
    r.rho[0][1][0], r.theta[0][1][1][0][0] = [[-1]], [[-1]]
    return O, r


def test_non_commutative_representation_gets_the_full_report():
    """Every law of the W2 representation vanishes where the screen would
    evaluate it (where the label of slot 0 is below that of slot 1), yet
    OREP-5.7 and 5.9 fail elsewhere, so the full sweep must run.  The
    expected report is the one of a sweep that never screens."""
    O, r = _w2_representation()
    assert O.invariant_report().ok
    got = [(v.law, v.witness, v.residual)
           for v in check_omega_representation(O, r).violations]
    assert got == [("OREP-5.7", (1, 0, 0, 1, 0, 0, 0, 0), (-1,)),
                   ("OREP-5.9", (1, 0, 0, 1, 1, 0, 0, 0, 0, 0), (-1,))]
    for law, w, _ in got:  # slots 0 and 1, of dimension 1: labels w[0], w[1]
        assert REP_ANTISYMMETRIES[law][1] == {(0, 1)} and w[0] > w[1]


def test_screen_evaluates_each_representation_law_at_its_canonical_tuples(
        monkeypatch, a1):
    """Each law makes one mat_sum, whose signs name it (5.6 and 5.8 share
    "+-+"), and contracts [x, y] or {x, y, -} of the two slots of its pair.
    On the induced representation of A1 x S2, M = 2 and n = 2: the screen
    evaluates each law where the joint labels of its pair increase, 6 of
    their 16 pairs, out of 128 tuples of (5.6)-(5.8) and 512 of (5.9) and
    (5.10), so every bracket it contracts has increasing labels.  Over W2
    the full sweep evaluates every tuple."""
    from collections import Counter
    from lyfam import omega
    O, r = _induced_rep(a1, S2)
    # a fresh list per bracket vector, so that its id names its labels
    O = OmegaLYAlgebra(O.dim, S2, la.map_at(list, O.binary, 4),
                       la.map_at(list, O.ternary, 6))
    labels, M, n = {}, S2.order, range(O.dim)
    for a, b, c, i, j, k in itertools.product(S2.elements, S2.elements,
                                              S2.elements, n, n, n):
        labels[id(O.binary[a][b][i][j])] = labels[id(
            O.ternary[a][b][c][i][j][k])] = (i * M + a, j * M + b)
    calls, read, mat_sum, contract = Counter(), [], omega.mat_sum, omega.contract
    monkeypatch.setattr(omega, "mat_sum",
                        lambda signs, *m: calls.update([signs]) or mat_sum(signs, *m))
    monkeypatch.setattr(omega, "contract", lambda X, *vecs: read.extend(
        labels[id(v)] for v in vecs if id(v) in labels) or contract(X, *vecs))
    assert check_omega_representation(O, r).ok
    # and d_tensor makes one "+--+-" sum at each of its 32 entries
    assert calls == {"+-+": 2 * 128 * 6 // 16, "+--": 128 * 6 // 16,
                     "+---": 512 * 6 // 16, "+-+-": 512 * 6 // 16, "+--+-": 32}
    assert len(read) == 3 * 128 * 6 // 16 + 3 * 512 * 6 // 16
    assert all(p < q for p, q in read)
    calls.clear()
    assert not check_omega_representation(*_w2_representation()).ok
    assert calls == {"+-+": 2 * 16, "+--": 16, "+---": 32, "+-+-": 32, "+--+-": 8}


def _brute_force_rep_laws_hold(O, r):
    """OREP-5.6 ... 5.10 at every tuple, each map evaluated at basis vectors
    as the laws read: rho(a, s, x), theta(a, b, s, x, y), D(a, b, s, x, y)."""
    t, m, E, mm = O.semigroup.table, O.semigroup.elements, la.identity(O.dim), la.mat_mul
    Dt = r.d_tensor()

    def rho(a, s, x):
        return la.contract(r.rho[a][s], x)

    def th(a, b, s, x, y):
        return la.contract(r.theta[a][b][s], x, y)

    def D(a, b, s, x, y):
        return la.contract(Dt[a][b][s], x, y)

    V = [(a, E[i]) for a in m for i in range(O.dim)]
    for (a, x), (b, y), (g, z), s in itertools.product(V, V, V, m):
        ab = t[a][b]
        if any(map(any, la.mat_sum(
                "+-+", th(ab, g, s, O.br(a, b, x, y), z),
                mm(th(a, g, t[b][s], x, z), rho(b, s, y)),
                mm(th(b, g, t[a][s], y, z), rho(a, s, x))))) \
                or any(map(any, la.mat_sum(
                    "+--", mm(D(a, b, t[g][s], x, y), rho(g, s, z)),
                    mm(rho(g, t[ab][s], z), D(a, b, s, x, y)),
                    rho(t[ab][g], s, O.tr(a, b, g, x, y, z))))) \
                or any(map(any, la.mat_sum(
                    "+-+", th(a, t[b][g], s, x, O.br(b, g, y, z)),
                    mm(rho(b, t[t[a][g]][s], y), th(a, g, s, x, z)),
                    mm(rho(g, t[ab][s], z), th(a, b, s, x, y))))):
            return False
        for c, w in V:  # w, indexed by c, in the slot before x, y, z
            ca = t[c][a]
            if any(map(any, la.mat_sum(
                    "+---", mm(D(c, a, t[t[b][g]][s], w, x), th(b, g, s, y, z)),
                    mm(th(b, g, t[ca][s], y, z), D(c, a, s, w, x)),
                    th(t[ca][b], g, s, O.tr(c, a, b, w, x, y), z),
                    th(b, t[ca][g], s, y, O.tr(c, a, g, w, x, z))))) \
                    or any(map(any, la.mat_sum(
                        "+-+-", th(c, t[ab][g], s, w, O.tr(a, b, g, x, y, z)),
                        mm(th(b, g, t[ca][s], y, z), th(c, a, s, w, x)),
                        mm(th(a, g, t[t[c][b]][s], x, z), th(c, b, s, w, y)),
                        mm(D(a, b, t[t[c][g]][s], x, y), th(c, g, s, w, z))))):
                return False
    return True


def _rep_screen_cases():
    from conftest import make_a1, make_a2
    out = {"w2": _w2_representation()}
    rng = random.Random(20261021)
    for name, A, s in (("A1-S1", make_a1(), S1), ("A1-S2", make_a1(), S2),
                       ("A2-S1", make_a2(), S1)):
        O, r = _induced_rep(A, s)
        out["induced-" + name] = O, r
        out["nudged-" + name] = _induced_rep(A, s, rng)
        for table in ("rho", "theta"):  # one entry of r moved by 1
            moved = OmegaRepresentation(O, r.dim, copy.deepcopy(r.rho),
                                        copy.deepcopy(r.theta))
            cell = getattr(moved, table)
            while isinstance(cell[0], list):
                cell = rng.choice(cell)
            cell[rng.randrange(len(cell))] += 1
            out["%s-moved-%s" % (table, name)] = O, moved
    O = zero_omega_ly(1, Z3)
    out["zero-Z3"] = O, zero_omega_representation(O, 2)
    # [e_0, e_0] = e_0 is not skew, and over S1 in dimension 1 the screen
    # would evaluate no tuple; theta(e_0, e_0) = 1 fails OREP-5.6
    O = zero_omega_ly(1, S1)
    O.binary[0][0][0][0] = [1]
    r = zero_omega_representation(O, 1)
    r.theta[0][0][0][0][0] = [[1]]
    out["not-skew-S1"] = O, r
    return out


REP_SCREEN_CASES = _rep_screen_cases()


@pytest.mark.parametrize("name", sorted(REP_SCREEN_CASES))
def test_representation_screen_agrees_with_a_brute_force_evaluation(name):
    O, r = REP_SCREEN_CASES[name]
    assert check_omega_representation(O, r).ok == _brute_force_rep_laws_hold(O, r) \
        == (name.startswith(("induced", "zero")))


# check_representation reads its laws REP-2.5 ... 2.9 off OREP-5.6 ... 5.10
# over S1, and screens them as check_omega_representation does

REP_NAMES = ["REP-2.5", "REP-2.6", "REP-2.7", "REP-2.8", "REP-2.9"]


def _ly_rep_screen_cases():
    """(name, algebra, representation): the adjoint representations of A1
    and A2, copies with +-1 at one entry of rho, and the algebra with the
    bracket [e_0, e_0] = e_0, which is not skew, with the zero
    representation and with theta(e_0, e_0) = 1."""
    from conftest import make_a1, make_a2
    from lyfam.ly import (LYAlgebra, Representation, adjoint_representation,
                          zero_representation)
    rng = random.Random(20261022)
    for name, A in (("A1", make_a1()), ("A2", make_a2())):
        r = adjoint_representation(A)
        yield "adjoint-" + name, A, r
        for sign in (1, -1):
            rho = copy.deepcopy(r.rho)
            rng.choice(rng.choice(rho))[rng.randrange(A.dim)] += sign
            yield "rho%+d-%s" % (sign, name), A, Representation(A.dim, rho, r.theta)
    A = LYAlgebra(1, [[[1]]], [[[[0]]]])
    yield "not-skew-zero", A, zero_representation(1, 1)
    yield "not-skew-theta", A, Representation(1, [[[0]]], [[[[1]]]])


@pytest.mark.parametrize("case", list(_ly_rep_screen_cases()),
                         ids=lambda case: case[0])
def test_check_representation_sweeps_only_where_the_screen_fails(
        case, monkeypatch):
    from lyfam.ly import _over_trivial_semigroup, check_representation
    name, A, r = case
    swept, sweep = [], Report.sweep

    def spy(self, ranges, laws, *rest):
        swept.extend(law[0] for law in laws if law[0] in REP_NAMES)
        return sweep(self, ranges, laws, *rest)

    monkeypatch.setattr(Report, "sweep", spy)
    got = check_representation(A, r)
    R = _over_trivial_semigroup(A, r)
    holds = _brute_force_rep_laws_hold(R.algebra, R)
    assert holds == (not got.laws() & set(REP_NAMES)) == \
        name.startswith(("adjoint", "not-skew-zero")), name
    skew = A.invariant_report().ok
    assert skew == (not name.startswith("not-skew")), name
    assert swept == ([] if holds and skew else REP_NAMES), name
