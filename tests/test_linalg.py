import itertools
import random
from fractions import Fraction

import pytest

from lyfam import linalg as la
from lyfam.errors import ContainmentError, PreconditionError


def test_rank_and_nullspace():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert la.rank(m) == 2
    ns = la.nullspace_basis(m, 3)
    assert len(ns) == 1
    for row in m:
        assert sum(a * b for a, b in zip(row, ns[0])) == 0


def test_nullspace_of_map_without_rows():
    # a 0 x n map (e.g. a coboundary with no nonzero coordinate) kills the
    # whole domain
    assert la.nullspace_basis([], 3) == la.identity(3)
    assert la.nullspace_basis([], 0) == []
    with pytest.raises(PreconditionError):
        la.nullspace_basis([[1, 2]], 3)


def test_linear_forms():
    x, y = la.generic_vector(2)
    f = 2 * x - y
    assert f == {0: 2, 1: -1}
    assert f * Fraction(1, 2) == {0: 1, 1: Fraction(-1, 2)}
    assert f - f == 0 and 0 * f == 0 and f + 0 is f
    assert not (x - x) and la.LinearForm() == 0 and la.LinearForm() != x
    assert la.mat_vec([[1, 1], [0, 3]], [x, y]) == [x + y, 3 * y]
    with pytest.raises(TypeError):
        x + 1
    with pytest.raises(TypeError):
        x * y
    forms = [x + y, 0, 2 * x + 2 * y, -x - y, y]
    assert la.form_rows(forms, 2) == [[1, 1], [0, 0], [2, 2], [-1, -1], [0, 1]]
    assert la.form_columns(forms, 2) == [[1, 0, 2, -1, 0], [1, 0, 2, -1, 1]]
    # each nonzero form once, up to a nonzero scalar
    assert la._distinct_forms(forms) == [((0, 1), (1, 1)), ((1, 1),)]


def _brute_contract(table, vecs, shape):
    """sum over all index tuples of prod(coordinates) * leaf, entry by entry."""
    out = la.zeros(*shape) if len(shape) == 2 else la.zero_vec(shape[0])
    for idx in itertools.product(*(range(len(v)) for v in vecs)):
        leaf = table
        coeff = 1
        for i, v in zip(idx, vecs):
            leaf = leaf[i]
            coeff = coeff * v[i]
        if len(shape) == 2:
            out = la.mat_add(out, [la.vec_scale(coeff, r) for r in leaf])
        else:
            out = la.vec_add(out, la.vec_scale(coeff, leaf))
    return out


def _random_table(rng, n, arity, shape):
    if arity == 0:
        if len(shape) == 2:
            return [[rng.choice((0, 0, 1, -2, Fraction(1, 3)))
                     for _ in range(shape[1])] for _ in range(shape[0])]
        return [rng.choice((0, 0, 1, -2, Fraction(1, 3)))
                for _ in range(shape[0])]
    return [_random_table(rng, n, arity - 1, shape) for _ in range(n)]


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("shape", [(4,), (2, 3)])
def test_contract_matches_brute_force(arity, shape):
    rng = random.Random(arity * 10 + len(shape))
    n = 3
    table = _random_table(rng, n, arity, shape)
    for _ in range(5):
        vecs = [[rng.choice((0, 1, -1, Fraction(2, 5))) for _ in range(n)]
                for _ in range(arity)]
        assert la.contract(table, *vecs) == _brute_contract(table, vecs,
                                                            shape)
    # an all-zero argument gives a zero of the leaf's shape
    vecs = [[1] * n for _ in range(arity)]
    vecs[-1] = la.zero_vec(n)
    zero = la.zeros(*shape) if len(shape) == 2 else la.zero_vec(shape[0])
    assert la.contract(table, *vecs) == zero
    # basis arguments pick out one leaf
    E = la.identity(n)
    leaf = table
    for i in range(arity):
        leaf = leaf[i % n]
    assert la.contract(table, *(E[i % n] for i in range(arity))) == leaf


@pytest.mark.parametrize("shape", [(4,), (2, 3)])
def test_contract_with_linear_forms(shape):
    rng = random.Random(5)
    n = 3
    table = _random_table(rng, n, 2, shape)
    x = la.generic_vector(n)
    y = [1, 0, -2]
    got = la.contract(table, x, y)
    assert got == _brute_contract(table, [x, y], shape)
    # each form evaluated at a point is the contraction at that point
    pt = [2, Fraction(-1, 2), 3]

    def at(f):
        return sum(v * pt[k] for k, v in f.items()) if f else 0

    want = la.contract(table, pt, y)
    if len(shape) == 2:
        assert [[at(f) for f in row] for row in got] == want
    else:
        assert [at(f) for f in got] == want


def test_solve_exact_rationals():
    m = [[Fraction(1, 2), 1], [0, Fraction(1, 3)]]
    b = [1, 1]
    x = la.solve(m, b)
    assert x is not None
    assert [sum(a * v for a, v in zip(row, x)) for row in m] == [1, 1]
    assert la.solve([[1, 0], [1, 0]], [0, 1]) is None


def test_quotient_dim_and_representatives():
    z = [[1, 0, 0], [0, 1, 0]]
    b = [[1, 1, 0]]
    assert la.quotient_dim(z, b) == 1
    reps = la.quotient_representatives(z, b)
    assert len(reps) == 1


def test_quotient_requires_containment():
    with pytest.raises(ContainmentError):
        la.quotient_dim([[1, 0]], [[0, 1]])


def test_matrix_helpers():
    a = [[1, 2], [3, 4]]
    assert la.mat_vec(a, [1, 0]) == [1, 3]
    assert la.mat_mul(a, la.identity(2)) == a
    assert la.mat_sub(a, a) == la.zeros(2, 2)
    assert la.in_span([[1, 0], [0, 1]], [0, 1], [5, -7])
    assert not la.in_span([[1, 0]], [0], [0, 1])


# a matrix without rows does not carry its column count, so the inner
# dimension is at least 1
@pytest.mark.parametrize("rows,inner,cols", [(3, 4, 2), (1, 5, 3), (4, 1, 4),
                                             (2, 3, 0), (0, 3, 2)])
def test_mat_mul_matches_triple_sum(rows, inner, cols):
    rng = random.Random(rows * 100 + inner * 10 + cols)
    scalars = [0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 2)]
    a = [[rng.choice(scalars) for _ in range(inner)] for _ in range(rows)]
    b = [[rng.choice(scalars) for _ in range(cols)] for _ in range(inner)]
    if rows > 1 and inner:
        a[0] = [0] * inner  # a zero row of a
    if inner > 1 and cols:
        for row in b:
            row[-1] = 0  # a zero column of b
        b[1] = [0] * cols
    want = [[sum(a[i][t] * b[t][j] for t in range(inner))
             for j in range(cols)] for i in range(rows)]
    assert la.mat_mul(a, b) == want


def dense_mat_vec(m, v):
    """m v read at every coordinate: each row adds a * b, left to right,
    where both factors are nonzero."""
    out = []
    for row in m:
        s = 0
        for a, b in zip(row, v):
            if a and b:
                s += a * b
        out.append(s)
    return out


def _mat_vec_cases():
    x, y, z = la.generic_vector(3)
    half = Fraction(1, 2)
    cases = {
        "zero rows": ([[0, 0, 0], [1, Fraction(0), 2], [0, 0, 0]],
                      [1, half, 0]),
        "zero vector": ([[1, half, 2], [0, 0, 0]], [0, Fraction(0), 0]),
        "no rows": ([], [1, 2]),
        "rows without columns": ([[], []], []),
        # 1/2 * 2/3 - 1/3 * 1 and 3 * 2/3 - 2 * 1 are Fraction(0)
        "cancelling fractions": ([[half, Fraction(-1, 3)], [3, -2]],
                                 [Fraction(2, 3), 1]),
        "cancelling ints": ([[1, 1, 0], [3, 3, 1]], [2, -2, 0]),
        "linear forms": ([[1, 0, 2, -1], [0, 0, 0, 0], [half, 3, 0, 0],
                          [2, 0, 0, -1]], [x, 0, y - y, 2 * x + z]),
        "cancelling forms": ([[2, 0, -1], [1, 1, 0]],
                             [x + z, Fraction(0), 2 * x + 2 * z]),
    }
    rng = random.Random(2024)
    scalars = [0, 0, 0, 1, -2, Fraction(1, 3), Fraction(-5, 2), Fraction(0)]
    for k in range(6):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        m = [[rng.choice(scalars) for _ in range(cols)] for _ in range(rows)]
        # a vector of forms holds no nonzero scalar
        entries = [0, Fraction(0), x, y - z, 2 * x] if k % 2 else scalars
        v = [rng.choice(entries) for _ in range(cols)]
        cases["random %d" % k] = (m, v)
    return cases


MAT_VEC_CASES = _mat_vec_cases()


@pytest.mark.parametrize("name", sorted(MAT_VEC_CASES))
def test_mat_vec_matches_the_dense_loop(name):
    # the same values with the same types: an int 0 where no product is
    # nonzero, a Fraction(0) where nonzero Fraction products cancel
    m, v = MAT_VEC_CASES[name]
    assert repr(la.mat_vec(m, v)) == repr(dense_mat_vec(m, v))


def test_vec_sum_matches_the_chain_of_vector_ops():
    rng = random.Random(7)
    for _ in range(50):
        n, k = rng.randint(0, 4), rng.randint(1, 6)
        signs = "".join(rng.choice("+-") for _ in range(k))
        vecs = [[rng.choice((0, 2, -1, Fraction(1, 2), Fraction(4, 2)))
                 for _ in range(n)] for _ in range(k)]
        out = vecs[0] if signs[0] == "+" else la.vec_neg(vecs[0])
        for s, v in zip(signs[1:], vecs[1:]):
            out = la.vec_add(out, v) if s == "+" else la.vec_sub(out, v)
        # same values and the same int / Fraction types
        assert repr(la.vec_sum(signs, *vecs)) == repr(out)
        mats = [[v, v[::-1]] for v in vecs]
        assert la.mat_sum(signs, *mats) == [out, la.vec_sum(
            signs, *(v[::-1] for v in vecs))]
    for signs, vecs in (("+", ([1], [2])), ("++", ([1],)), ("+*", ([1], [2])),
                        ("", ())):
        with pytest.raises(ValueError):
            la.vec_sum(signs, *vecs)


def _entries(rng, dims):
    """A table of int zeros, Fraction(0) entries, ints and Fractions."""
    if not dims:
        return rng.choice((0, 0, Fraction(0), 1, -2, Fraction(1, 2), Fraction(-3, 2)))
    return [_entries(rng, dims[1:]) for _ in range(dims[0])]


@pytest.mark.parametrize("n,rank", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)])
def test_table_reads_equal_contract_at_basis_vectors(n, rank):
    # equal in value and in scalar type: a raw table lookup would keep a
    # stored Fraction(0) where contract gives the int 0
    rng, E = random.Random(10 * n + rank), la.identity(n)
    X = _entries(rng, (n,) * (rank + 1))
    vecs = [_entries(rng, (n,)) for _ in range(4)] + [[0] * n, [Fraction(0)] * n] + E
    for s in range(rank):
        view = la.lead_slot(X, s, rank)
        for v, got in zip(vecs, la.contract_grid(view, vecs)):
            for q, idx in enumerate(itertools.product(range(n), repeat=rank - 1)):
                args = [E[i] for i in idx]
                args.insert(s, v)
                assert repr(got[q]) == repr(la.contract(X, *args))
    # products with a matrix D are its contractions at the rows of the factor
    D, rows = _entries(rng, (n, n)), vecs + la.lead_slot(X, 0, rank)[0]
    for v, got in zip(rows, la.mat_mul(rows, D)):
        assert repr(got) == repr(la.contract(D, v))


def test_has_shape_checks_every_level():
    assert la.has_shape(la.zeros(2, 3, 4), (2, 3, 4))
    assert la.has_shape([], (0, 5)) and la.has_shape(((1, 2),), (1, 2))
    assert not la.has_shape([[0, 0], [0]], (2, 2))
    assert not la.has_shape([[0, 0], 5], (2, 2))
    assert not la.has_shape(la.zeros(2, 2), (2, 2, 1))
    assert la.slot_views([], 0) == [[], [], [], []]
