"""Sparse elimination against the dense Gauss-Jordan reference.

The library eliminates sparse rows into one fully reducing echelon.  The
reference below is the dense elimination it replaced: every row a list of
Fractions, every column of every row updated, the whole quotient echelon
recomputed for each vector.  A row space has one reduced echelon form, so
ranks, kernel bases, solutions and quotient representatives must agree
exactly, types included (compared through repr).
"""
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from lyfam import linalg as la
from lyfam.errors import ContainmentError


def ref_rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def ref_rank(m):
    return len(ref_rref(m)[0])


def ref_nullspace_basis(m, ncols):
    red, pivots = ref_rref(m)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def ref_solve(m, b):
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = ref_rref([list(row) + [bv] for row, bv in zip(m, b)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def ref_in_span(basis_rref, pivots, v):
    v = [Fraction(x) for x in v]
    for row, pc in zip(basis_rref, pivots):
        if v[pc]:
            f = v[pc]
            v = [x - f * y for x, y in zip(v, row)]
    return not any(v)


def ref_quotient_dim(z_basis, b_basis):
    z_red, z_piv = ref_rref(z_basis)
    for k, v in enumerate(b_basis):
        if not ref_in_span(z_red, z_piv, v):
            raise ContainmentError(
                "vector %d of b_basis is outside span(z_basis)" % k)
    return len(z_red) - ref_rank(b_basis)


def ref_quotient_representatives(z_basis, b_basis):
    red, piv = ref_rref(b_basis)
    reps = []
    for v in z_basis:
        if not ref_in_span(red, piv, v):
            reps.append(v)
            red, piv = ref_rref(red + [list(v)])
    return reps


def outcome(f, *args):
    """repr of f's value, or its ContainmentError with the message."""
    try:
        return repr(f(*args))
    except ContainmentError as e:
        return "ContainmentError: %s" % e


SCALARS = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 3),
                           Fraction(-5, 2), Fraction(7, 4)])


@st.composite
def rational_matrices(draw, max_rows=6, scalars=SCALARS):
    """Matrices over Q with zero, duplicate and scalar-multiple rows, row
    combinations (rank deficiency), or no rows at all."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(scalars, min_size=ncols, max_size=ncols),
                         max_size=max_rows))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "multiple",
                                               "combination"]),
                              max_size=3)):
        if kind == "zero":
            rows.append([0] * ncols)
        elif rows and kind == "dup":
            rows.append(list(draw(st.sampled_from(rows))))
        elif rows and kind == "multiple":
            c = draw(scalars.filter(bool))
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        elif rows and kind == "combination":
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(scalars), draw(scalars)
            rows.append([c * x + d * y for x, y in zip(u, v)])
    return ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(rational_matrices(), st.data())
def test_rank_kernel_and_solve_match_reference(mat, data):
    ncols, m = mat
    assert la.rank(m) == ref_rank(m)
    assert repr(la.nullspace_basis(m, ncols)) == \
        repr(ref_nullspace_basis(m, ncols))
    forms = [la.LinearForm({k: x for k, x in enumerate(row) if x}) or 0
             for row in m]
    assert repr(la.form_kernel(forms, ncols)) == \
        repr(ref_nullspace_basis(m, ncols))
    # a right-hand side in the column space, and an arbitrary one (often
    # inconsistent)
    x = data.draw(st.lists(SCALARS, min_size=ncols, max_size=ncols))
    for b in (la.mat_vec(m, x),
              data.draw(st.lists(SCALARS, min_size=len(m),
                                 max_size=len(m)))):
        assert repr(la.solve(m, b)) == repr(ref_solve(m, b))
    red, pivots = ref_rref(m)
    for v in [x] + list(m):
        assert la.in_span(red, pivots, v) == ref_in_span(red, pivots, v)


@settings(max_examples=300, deadline=None)
@given(rational_matrices(), st.data())
def test_quotients_match_reference(mat, data):
    ncols, z = mat
    # b from combinations of z's rows, sometimes with a vector that may lie
    # outside span(z)
    b = []
    for _ in range(data.draw(st.integers(0, 4))):
        if not z:
            break
        u, v = data.draw(st.sampled_from(z)), data.draw(st.sampled_from(z))
        c, d = data.draw(SCALARS), data.draw(SCALARS)
        b.append([c * x + d * y for x, y in zip(u, v)])
    if data.draw(st.booleans()):
        b.insert(data.draw(st.integers(0, len(b))),
                 data.draw(st.lists(SCALARS, min_size=ncols,
                                    max_size=ncols)))
    assert outcome(la.quotient_dim, z, b) == \
        outcome(ref_quotient_dim, z, b)
    assert repr(la.quotient_representatives(z, b)) == \
        repr(ref_quotient_representatives(z, b))
    # with z a kernel basis, as the cohomology routines call them
    zk = ref_nullspace_basis(b, ncols) if b else []
    assert outcome(la.quotient_dim, zk, z) == outcome(ref_quotient_dim, zk, z)
    assert repr(la.quotient_representatives(zk, z)) == \
        repr(ref_quotient_representatives(zk, z))


def test_edge_cases_match_reference():
    for m, ncols in [([], 3), ([], 0), ([[0, 0]], 2), ([[0, 0], [0, 0]], 2),
                     ([[Fraction(2, 3), 0, 0]], 3), ([[0, 0, -4]], 3)]:
        assert la.rank(m) == ref_rank(m)
        assert repr(la.nullspace_basis(m, ncols)) == \
            repr(ref_nullspace_basis(m, ncols))
    assert la.solve([], []) == ref_solve([], []) == []
    assert repr(la.solve([[0, 0]], [0])) == repr(ref_solve([[0, 0]], [0]))
    assert la.solve([[0, 0]], [5]) is ref_solve([[0, 0]], [5]) is None
    assert outcome(la.quotient_dim, [], [[0, 1]]) == \
        outcome(ref_quotient_dim, [], [[0, 1]])
    assert la.quotient_dim([], []) == 0
    assert la.quotient_representatives([[1, 2]], []) == [[1, 2]]


# integer leads that are not units, and Fractions with coprime denominators,
# so that fraction-free reduction scales rows and divides them by their gcd
NON_UNIT = st.sampled_from([0, 0, 0, 6, -6, 10, 15, -15, 1, Fraction(1, 2),
                            Fraction(-2, 3), Fraction(6, 5), Fraction(10, 7),
                            Fraction(-15, 22)])


@settings(max_examples=300, deadline=None)
@given(rational_matrices(scalars=NON_UNIT), st.data())
def test_non_unit_leads_match_reference(mat, data):
    ncols, m = mat
    assert la.rank(m) == ref_rank(m)
    kernel = repr(ref_nullspace_basis(m, ncols))
    assert repr(la.nullspace_basis(m, ncols)) == kernel
    forms = [la.LinearForm({k: x for k, x in enumerate(row) if x}) or 0
             for row in m]
    assert repr(la.form_kernel(forms, ncols)) == kernel
    x = data.draw(st.lists(NON_UNIT, min_size=ncols, max_size=ncols))
    for b in (la.mat_vec(m, x),
              data.draw(st.lists(NON_UNIT, min_size=len(m), max_size=len(m)))):
        assert repr(la.solve(m, b)) == repr(ref_solve(m, b))
    red, pivots = ref_rref(m)
    for v in [x] + list(m):
        assert la.in_span(red, pivots, v) == ref_in_span(red, pivots, v)
    zk = ref_nullspace_basis(m[:2], ncols) if m else []
    assert outcome(la.quotient_dim, zk, m) == outcome(ref_quotient_dim, zk, m)
    assert repr(la.quotient_representatives(zk, m)) == \
        repr(ref_quotient_representatives(zk, m))


def assert_integer_echelon(ech):
    """Each stored row is a primitive int dict whose leftmost column is its
    pivot, with a positive entry there and none in another pivot column."""
    for pc, row in ech.rows.items():
        assert all(type(v) is int and v for v in row.values())
        assert min(row) == pc and row[pc] > 0
        assert gcd(*row.values()) == 1
        assert not set(row) & (set(ech.rows) - {pc})


@settings(max_examples=300, deadline=None)
@given(rational_matrices(scalars=NON_UNIT))
def test_echelon_rows_stay_primitive_and_reduced(mat):
    ncols, m = mat
    ech = la.Echelon()
    for row in m:
        ech.add(la._sparse(row))
        assert_integer_echelon(ech)
    assert len(ech) == ref_rank(m)


def quotient_outcome(z, b):
    """repr of quotient(z, b), or its ContainmentError with the message."""
    try:
        return repr(la.quotient(z, b))
    except ContainmentError as e:
        return "ContainmentError: %s" % e


@settings(max_examples=300, deadline=None)
@given(rational_matrices(scalars=NON_UNIT), st.data())
def test_single_elimination_quotient_matches_reference(mat, data):
    ncols, rows = mat
    # b from combinations of the rows, sometimes with a vector that may lie
    # outside their span
    b = []
    for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
        u, v = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
        c, d = data.draw(NON_UNIT), data.draw(NON_UNIT)
        b.append([c * x + d * y for x, y in zip(u, v)])
    if data.draw(st.booleans()):
        b.append(data.draw(st.lists(NON_UNIT, min_size=ncols, max_size=ncols)))
    # z the rows themselves (often dependent), or a kernel basis, as the
    # cohomology routines pass it
    for z, bb in ((rows, b), (ref_nullspace_basis(b, ncols), rows)):
        try:
            want = repr((ref_quotient_dim(z, bb),
                         ref_quotient_representatives(z, bb)))
        except ContainmentError as e:
            want = "ContainmentError: %s" % e
        assert quotient_outcome(z, bb) == want


def test_single_elimination_quotient_falls_back():
    # a boundary outside the cocycles, z a kernel basis: the extended
    # echelon has more pivots than z has vectors, and quotient_dim's error
    # is raised
    z = la.nullspace_basis([[1, 1, 0]], 3)
    b = [[1, -1, 0], [0, 0, 5], [1, 0, 0]]
    err = "ContainmentError: vector 2 of b_basis is outside span(z_basis)"
    assert outcome(la.quotient_dim, z, b) == quotient_outcome(z, b) == err
    assert la.quotient(z, b[:2]) == (0, [])
    # a dependent z whose extended echelon still has rank len(z): only the
    # fallback finds that b is outside span(z)
    z, b = [[1, 0], [2, 0]], [[0, 3]]
    assert la.Echelon(map(la._sparse, b + z)).rows.keys() == {0, 1}
    assert quotient_outcome(z, b) == \
        "ContainmentError: vector 0 of b_basis is outside span(z_basis)"
    assert la.quotient(z, [[3, 0]]) == (0, [])
    assert la.quotient([[6, 0], [0, 10]], [[3, 0]]) == (1, [[0, 10]])
