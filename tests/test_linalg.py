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
    assert la.distinct_rows(forms, 2) == [[1, 1], [0, 1]]


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
