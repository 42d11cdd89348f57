"""delta and delta* on skew inputs, against the per-output formula.

`delta_omega` and `delta_star_omega` evaluate only the canonical output
tuples, whose joint labels increase strictly inside each mirrored slot pair,
and store nothing else.  The reference below works on full tables, read
from `cochain_full_coords`: it evaluates every output tuple anew from the
displayed sums, with a general multilinear evaluation of each cochain
component, as the formulas read.  The two are compared entry by entry, by
`repr`, on random skew inputs: degree-1 directions and (2,3) and (4,5)
cochains, over induced algebras that satisfy the laws, an induced algebra
whose L is moved by a change of basis, and an algebra with random skew
brackets that satisfies no other law.
"""
import itertools
import random
from fractions import Fraction

import pytest

from lyfam import serialize as sz
from lyfam.cohomology import RBFComplex
from lyfam.errors import PreconditionError
from lyfam.linalg import (form_kernel, identity, mat_vec, vec_add, vec_neg,
                          vec_scale, vec_sub, zero_vec)
from lyfam.ly import ly_from_lie, zero_cocycle, zero_ly, zero_representation
from lyfam.omega import (OmegaLYAlgebra, OmegaRepresentation, cochain_coords,
                         cochain_full_coords, delta_omega, delta_star_omega,
                         skew_basis)
from lyfam.rbfamily import TwistedRBContext, identity_family, zero_family
from lyfam.semigroup import product, product_of
from conftest import (make_a1, make_a2, random_invertible, skew_binary,
                      transport_bilinear)


# ---------------------------------------------------------------------------
# full tables: table[_enc(alphas, M)][_enc(idxs, nA)] is the vector at a tuple

def _enc(tup, base):
    v = 0
    for t in tup:
        v = v * base + t
    return v


def comp_get(comp, M, nA, alphas, idxs):
    return comp[_enc(alphas, M)][_enc(idxs, nA)]


def zero_table(M, k, nA, d):
    return [[zero_vec(d) for _ in range(nA ** k)] for _ in range(M ** k)]


def full_tables(c):
    """The full tables of c's components, read from cochain_full_coords; a
    degree-1 cochain as one 1-slot table, column i of matrix a at (a, i)."""
    M, nA, d = c.semigroup.order, c.dim_alg, c.dim_coeff
    if c.degree == 1:
        return [[[[m[co][i] for co in range(d)] for i in range(nA)]
                 for m in c.even]]
    coords = iter(cochain_full_coords(c))
    return [[[[next(coords) for _ in range(d)] for _ in range(nA ** k)]
             for _ in range(M ** k)] for k in c.degree]


def pair_swap_violations(tables, M, nA, degree):
    """(component, pair position, alphas, idxs) at each tuple of the full
    tables whose value plus the value at the tuple with that pair swapped is
    not 0, at each of the first degree[0] // 2 slot pairs."""
    bad = []
    for part, (comp, k) in enumerate(zip(tables, degree)):
        for p in range(0, 2 * (degree[0] // 2), 2):
            for alphas in itertools.product(range(M), repeat=k):
                for idxs in itertools.product(range(nA), repeat=k):
                    sa, si = list(alphas), list(idxs)
                    sa[p], sa[p + 1] = sa[p + 1], sa[p]
                    si[p], si[p + 1] = si[p + 1], si[p]
                    if any(vec_add(comp_get(comp, M, nA, alphas, idxs),
                                   comp_get(comp, M, nA, sa, si))):
                        bad.append((part, p, alphas, idxs))
    return bad


def skew_violations(c):
    """pair_swap_violations of a pair-degree cochain, read as full tables."""
    return pair_swap_violations(full_tables(c), c.semigroup.order, c.dim_alg,
                                c.degree)


# ---------------------------------------------------------------------------
# the per-output reference

def comp_eval(comp, M, nA, d, alphas, vecs):
    """Multilinear evaluation of one component at arbitrary argument vectors."""
    table = comp[_enc(alphas, M)]
    supports = [[(i, c) for i, c in enumerate(v) if c] for v in vecs]
    out = zero_vec(d)
    for combo in itertools.product(*supports):
        coeff = 1
        xi = 0
        for i, c in combo:
            coeff *= c
            xi = xi * nA + i
        out = vec_add(out, vec_scale(coeff, table[xi]))
    return out


def reference_delta(O, r, c):
    s = O.semigroup
    M, nA, d = s.order, O.dim, r.dim
    if c.degree == 1:
        n = 0
        f_comp = None
        g_comp, = full_tables(c)
    else:
        n = c.degree[0] // 2
        f_comp, g_comp = full_tables(c)
    KE, KO = 2 * n + 2, 2 * n + 3
    out = [zero_table(M, KE, nA, d), zero_table(M, KO, nA, d)]
    E = identity(nA)
    sign_n = -1 if n % 2 else 1
    RHO, TH, D = r.rho, r.theta, r.d_tensor()

    def word(indices):
        return product_of(s, indices)

    for alphas in itertools.product(range(M), repeat=KE):
        al = list(alphas)
        for idxs in itertools.product(range(nA), repeat=KE):
            xs = list(idxs)
            acc = zero_vec(d)
            # block in the last two slots
            g1 = comp_get(g_comp, M, nA, al[:2 * n] + [al[KE - 1]],
                          xs[:2 * n] + [xs[KE - 1]])
            t = mat_vec(RHO[al[KE - 2]][word(al[:KE - 2] + [al[KE - 1]])]
                        [xs[KE - 2]], g1)
            g2 = comp_get(g_comp, M, nA, al[:KE - 1], xs[:KE - 1])
            t = vec_sub(t, mat_vec(RHO[al[KE - 1]][word(al[:KE - 1])]
                                   [xs[KE - 1]], g2))
            bvec = O.binary[al[KE - 2]][al[KE - 1]][xs[KE - 2]][xs[KE - 1]]
            vecs = [E[x] for x in xs[:2 * n]] + [bvec]
            t = vec_sub(t, comp_eval(g_comp, M, nA, d,
                                     al[:2 * n] + [product(s, al[KE - 2],
                                                           al[KE - 1])], vecs))
            acc = vec_add(acc, vec_scale(sign_n, t))
            # derived-operator sum over removed pairs (acts on the even part)
            for k in range(1, n + 1):
                i1, i2 = 2 * k - 2, 2 * k - 1
                rem_al = al[:i1] + al[i2 + 1:]
                rem_xs = xs[:i1] + xs[i2 + 1:]
                fval = comp_get(f_comp, M, nA, rem_al, rem_xs)
                t = mat_vec(D[al[i1]][al[i2]][word(rem_al)][xs[i1]][xs[i2]],
                            fval)
                acc = vec_add(acc, vec_scale(-1 if k % 2 == 0 else 1, t))
            # substitution double sum
            for k in range(1, n + 1):
                i1, i2 = 2 * k - 2, 2 * k - 1
                sk = 1 if k % 2 == 0 else -1
                for j in range(i2 + 1, KE):
                    new_al = list(al)
                    new_al[j] = product_of(s, (al[i1], al[i2], al[j]))
                    new_al = new_al[:i1] + new_al[i2 + 1:]
                    vecs = [E[x] for x in xs]
                    vecs[j] = O.ternary[al[i1]][al[i2]][al[j]][xs[i1]][
                        xs[i2]][xs[j]]
                    vecs = vecs[:i1] + vecs[i2 + 1:]
                    t = comp_eval(f_comp, M, nA, d, new_al, vecs)
                    acc = vec_add(acc, vec_scale(sk, t))
            out[0][_enc(al, M)][_enc(xs, nA)] = acc
    for alphas in itertools.product(range(M), repeat=KO):
        al = list(alphas)
        for idxs in itertools.product(range(nA), repeat=KO):
            xs = list(idxs)
            acc = zero_vec(d)
            gA = comp_get(g_comp, M, nA, al[:KO - 2], xs[:KO - 2])
            t = mat_vec(TH[al[KO - 2]][al[KO - 1]][word(al[:KO - 2])]
                        [xs[KO - 2]][xs[KO - 1]], gA)
            gB = comp_get(g_comp, M, nA, al[:2 * n] + [al[KO - 2]],
                          xs[:2 * n] + [xs[KO - 2]])
            t = vec_sub(t, mat_vec(TH[al[KO - 3]][al[KO - 1]]
                                   [word(al[:2 * n] + [al[KO - 2]])]
                                   [xs[KO - 3]][xs[KO - 1]], gB))
            acc = vec_add(acc, vec_scale(sign_n, t))
            for k in range(1, n + 2):
                i1, i2 = 2 * k - 2, 2 * k - 1
                rem_al = al[:i1] + al[i2 + 1:]
                rem_xs = xs[:i1] + xs[i2 + 1:]
                gval = comp_get(g_comp, M, nA, rem_al, rem_xs)
                t = mat_vec(D[al[i1]][al[i2]][word(rem_al)][xs[i1]][xs[i2]],
                            gval)
                acc = vec_add(acc, vec_scale(-1 if k % 2 == 0 else 1, t))
            for k in range(1, n + 2):
                i1, i2 = 2 * k - 2, 2 * k - 1
                sk = 1 if k % 2 == 0 else -1
                for j in range(i2 + 1, KO):
                    new_al = list(al)
                    new_al[j] = product_of(s, (al[i1], al[i2], al[j]))
                    new_al = new_al[:i1] + new_al[i2 + 1:]
                    vecs = [E[x] for x in xs]
                    vecs[j] = O.ternary[al[i1]][al[i2]][al[j]][xs[i1]][
                        xs[i2]][xs[j]]
                    vecs = vecs[:i1] + vecs[i2 + 1:]
                    t = comp_eval(g_comp, M, nA, d, new_al, vecs)
                    acc = vec_add(acc, vec_scale(sk, t))
            out[1][_enc(al, M)][_enc(xs, nA)] = acc
    return out


def reference_delta_star(O, r, c):
    s = O.semigroup
    M, nA, d = s.order, O.dim, r.dim
    out = [zero_table(M, 3, nA, d), zero_table(M, 4, nA, d)]
    E = identity(nA)
    RHO, TH = r.rho, r.theta
    p2 = lambda a, b: product(s, a, b)  # noqa: E731
    f, g = full_tables(c)

    def fval(a, b, i, j):
        return comp_get(f, M, nA, (a, b), (i, j))

    def gval(a, b, g_, i, j, k):
        return comp_get(g, M, nA, (a, b, g_), (i, j, k))

    def g_eval(alphas, vecs):
        return comp_eval(g, M, nA, d, alphas, vecs)

    def f_eval(alphas, vecs):
        return comp_eval(f, M, nA, d, alphas, vecs)

    for a1, a2, a3 in itertools.product(range(M), repeat=3):
        for i1, i2, i3 in itertools.product(range(nA), repeat=3):
            acc = vec_neg(mat_vec(RHO[a1][p2(a2, a3)][i1],
                                  fval(a2, a3, i2, i3)))
            acc = vec_sub(acc, mat_vec(RHO[a2][p2(a3, a1)][i2],
                                       fval(a3, a1, i3, i1)))
            acc = vec_sub(acc, mat_vec(RHO[a3][p2(a1, a2)][i3],
                                       fval(a1, a2, i1, i2)))
            acc = vec_add(acc, f_eval((p2(a1, a2), a3),
                                      [O.binary[a1][a2][i1][i2], E[i3]]))
            acc = vec_add(acc, f_eval((p2(a2, a3), a1),
                                      [O.binary[a2][a3][i2][i3], E[i1]]))
            acc = vec_add(acc, f_eval((p2(a3, a1), a2),
                                      [O.binary[a3][a1][i3][i1], E[i2]]))
            acc = vec_add(acc, gval(a1, a2, a3, i1, i2, i3))
            acc = vec_add(acc, gval(a2, a3, a1, i2, i3, i1))
            acc = vec_add(acc, gval(a3, a1, a2, i3, i1, i2))
            out[0][_enc((a1, a2, a3), M)][_enc((i1, i2, i3), nA)] = acc
    for a1, a2, a3, a4 in itertools.product(range(M), repeat=4):
        for i1, i2, i3, i4 in itertools.product(range(nA), repeat=4):
            acc = mat_vec(TH[a1][a4][p2(a2, a3)][i1][i4], fval(a2, a3, i2, i3))
            acc = vec_add(acc, mat_vec(TH[a2][a4][p2(a3, a1)][i2][i4],
                                       fval(a3, a1, i3, i1)))
            acc = vec_add(acc, mat_vec(TH[a3][a4][p2(a1, a2)][i3][i4],
                                       fval(a1, a2, i1, i2)))
            acc = vec_add(acc, g_eval((p2(a1, a2), a3, a4),
                                      [O.binary[a1][a2][i1][i2], E[i3], E[i4]]))
            acc = vec_add(acc, g_eval((p2(a2, a3), a1, a4),
                                      [O.binary[a2][a3][i2][i3], E[i1], E[i4]]))
            acc = vec_add(acc, g_eval((p2(a3, a1), a2, a4),
                                      [O.binary[a3][a1][i3][i1], E[i2], E[i4]]))
            out[1][_enc((a1, a2, a3, a4), M)][_enc((i1, i2, i3, i4),
                                                  nA)] = acc
    return out


# ---------------------------------------------------------------------------
# inputs

def exact(table):
    """The entries of a cochain table, for a comparison by repr.  An exact
    zero is written as 0 whether it is stored as the int 0 or as
    Fraction(0): the reference multiplies out zero products that the
    evaluator under test skips.  Every nonzero entry keeps its own type."""
    return [[x if x else 0 for x in vec] for comp in table for vec in comp]


def repeated_label(M, nA, k, npairs, alphas_at, idxs_at):
    """Whether the k-slot tuple at table position (alphas_at, idxs_at)
    repeats a joint label i*M + a inside one of its first npairs pairs."""
    al, xs = [], []
    for _ in range(k):
        alphas_at, a = divmod(alphas_at, M)
        idxs_at, i = divmod(idxs_at, nA)
        al.insert(0, a)
        xs.insert(0, i)
    return any(al[2 * p] == al[2 * p + 1] and xs[2 * p] == xs[2 * p + 1]
               for p in range(npairs))


def assert_same(got, want):
    """Equal entries of the full tables; and where a mirrored pair repeats
    a label, the int 0 of a value that is not stored."""
    M, nA = got.semigroup.order, got.dim_alg
    npairs = got.degree[0] // 2
    for part, got_table, want_table, k in zip(
            ("even", "odd"), full_tables(got), want, got.degree):
        g, w = exact(got_table), exact(want_table)
        assert len(g) == len(w)
        for pos, (u, v) in enumerate(zip(g, w)):
            assert repr(u) == repr(v), (part, pos, u, v)
        for ai, table in enumerate(got_table):
            for xi, vec in enumerate(table):
                if repeated_label(M, nA, k, npairs, ai, xi):
                    assert repr(vec) == repr([0] * len(vec)), (part, ai, xi)


def zero_context(s):
    return TwistedRBContext(zero_ly(2), zero_representation(2, 2),
                            zero_cocycle(2, 2), s, zero_family(2, 2, s))


def moved_a2(rng):
    """A2 with L written in a random basis: dense structure constants."""
    prod = skew_binary(3, [(0, 1, [0, 2, 0]), (0, 2, [0, 0, -2]),
                           (1, 2, [1, 0, 0])])
    return ly_from_lie(transport_bilinear(prod, random_invertible(rng, 3)))


def skew_only(rng, s, n=2, d=2):
    """Random brackets, skew under the simultaneous swap of a slot pair and
    its indices, and a random representation: no other law holds."""
    M = s.order
    val = lambda: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))  # noqa
    B = [[[[None] * n for _ in range(n)] for _ in range(M)] for _ in range(M)]
    T = [[[[[[None] * n for _ in range(n)] for _ in range(n)]
           for _ in range(M)] for _ in range(M)] for _ in range(M)]
    for a, b, i, j in itertools.product(range(M), range(M), range(n),
                                        range(n)):
        if (a, i) < (b, j):
            B[a][b][i][j] = [val() for _ in range(n)]
            B[b][a][j][i] = vec_neg(B[a][b][i][j])
        elif (a, i) == (b, j):
            B[a][b][i][j] = zero_vec(n)
        for g, k in itertools.product(range(M), range(n)):
            if (a, i) < (b, j):
                T[a][b][g][i][j][k] = [val() for _ in range(n)]
                T[b][a][g][j][i][k] = vec_neg(T[a][b][g][i][j][k])
            elif (a, i) == (b, j):
                T[a][b][g][i][j][k] = zero_vec(n)
    O = OmegaLYAlgebra(n, s, B, T)
    mat = lambda: [[val() for _ in range(d)] for _ in range(d)]  # noqa
    rho = [[[mat() for _ in range(n)] for _ in range(M)] for _ in range(M)]
    theta = [[[[[mat() for _ in range(n)] for _ in range(n)]
               for _ in range(M)] for _ in range(M)] for _ in range(M)]
    return O, OmegaRepresentation(O, d, rho, theta)


def cases_under_test(s1, s2):
    """(name, O, r, input degrees of delta) for every algebra compared.
    The (4,5) inputs are kept to at most three joint labels, and the (2,3)
    inputs to one dense three-dimensional rung over S2: the reference
    evaluates all M^K n^K output tuples."""
    rng = random.Random(20261018)
    ctxs = [("zeroxS1", zero_context(s1), (1, (2, 3), (4, 5))),
            ("zeroxS2", zero_context(s2), (1, (2, 3))),
            ("A1xS1", identity_family(make_a1(), s1), (1, (2, 3), (4, 5))),
            ("A1xS2", identity_family(make_a1(), s2), (1, (2, 3))),
            ("A2xS1", identity_family(make_a2(), s1), (1, (2, 3), (4, 5))),
            ("A2xS2", identity_family(make_a2(), s2), (1,)),
            ("A2xS2 moved", identity_family(moved_a2(rng), s2), (1, (2, 3)))]
    out = []
    for name, ctx, degrees in ctxs:
        cx = RBFComplex(ctx)
        out.append((name, cx.induced_algebra, cx.induced_rep, degrees))
    out.append(("skew-only S2", *skew_only(rng, s2), (1, (2, 3))))
    out.append(("skew-only S1", *skew_only(rng, s1, n=3), (1, (2, 3), (4, 5))))
    return out


def random_skew(rng, O, r, degree, density):
    """A random skew cochain: random coordinates on the skew basis."""
    bas = skew_basis(degree, (O.dim, r.dim), O.semigroup)
    coords = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
              if rng.random() < density else 0 for _ in range(bas.size)]
    return bas.combine(coords)


@pytest.fixture(scope="module")
def cases(s1, s2):
    return cases_under_test(s1, s2)


def test_delta_matches_reference(cases):
    rng = random.Random(7)
    for name, O, r, degrees in cases:
        for degree in degrees:
            c = random_skew(rng, O, r, degree, 0.6 if degree == 1 else 0.3)
            want = reference_delta(O, r, c)
            got = delta_omega(O, r, c)
            assert not pair_swap_violations(want, O.semigroup.order, O.dim,
                                            got.degree)
            assert_same(got, want)


def test_delta_star_matches_reference(cases):
    rng = random.Random(8)
    for name, O, r, _ in cases:
        c = random_skew(rng, O, r, (2, 3), 0.4)
        want = reference_delta_star(O, r, c)
        assert not pair_swap_violations(want, O.semigroup.order, O.dim,
                                        (3, 4))
        assert_same(delta_star_omega(O, r, c), want)


def test_canonical_rows_have_the_kernel_of_all_rows(cases):
    # the assembly eliminates the stored coordinates only, the canonical
    # rows; every other row of the full table is the negative of one of
    # them, or 0
    for name, O, r, degrees in cases:
        if name not in ("zeroxS2", "A1xS2", "A2xS1", "skew-only S2"):
            continue
        for degree in (1, (2, 3)):
            bas = skew_basis(degree, (O.dim, r.dim), O.semigroup)
            c = bas.symbolic()
            images = [delta_omega(O, r, c)]
            if degree == (2, 3):
                images.append(delta_star_omega(O, r, c))
            for img in images:
                want = form_kernel(cochain_full_coords(img), bas.size)
                got = form_kernel(cochain_coords(img), bas.size)
                assert repr(got) == repr(want), (name, degree)


def test_refuses_non_skew_input(s2):
    # a cochain holds its canonical values only, so it is skew; a file that
    # lists a table that is not is refused when it is read, before delta or
    # delta* could see it
    rng = random.Random(9)
    O, r = skew_only(rng, s2)
    d = sz.cochain_to_json(random_skew(rng, O, r, (2, 3), 0.5))
    # the value at (e0, e0, e1) must vanish
    d["entries"].append([[0, 0, 0], [0, 0, 1], 0, "1"])
    assert not sz.cochain_skew_report(d).ok
    with pytest.raises(PreconditionError, match="cochain is not skew"):
        sz.cochain_from_json(d)


def test_refuses_non_skew_algebra(s2):
    rng = random.Random(10)
    O, r = skew_only(rng, s2)
    c1 = random_skew(rng, O, r, 1, 0.5)
    c23 = random_skew(rng, O, r, (2, 3), 0.5)
    O.ternary[0][1][0][0][1][0][0] += 1
    assert not O.invariant_report().ok
    with pytest.raises(PreconditionError, match="brackets"):
        delta_omega(O, r, c1)
    with pytest.raises(PreconditionError, match="brackets"):
        delta_star_omega(O, r, c23)
