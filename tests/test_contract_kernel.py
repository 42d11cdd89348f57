"""The one-vector contraction and the signed sums against dense references,
by `repr`.

contract(table, v) and contract_grid(table, [v])[0] must both equal the
dense sum over the basis: at every coordinate, from the int 0, the product
v[i] * table[i][...] of each nonzero coordinate and nonzero entry, in the
order of i.  Comparing by `repr` pins the values, the zero types (an int 0
where no product is nonzero, a Fraction(0) where Fraction products cancel)
and the key order of linear forms.  vec_sum and mat_sum must equal the
chain of vec_add/vec_sub on whole vectors, over the sign strings the
library uses and over the same scalars.
"""
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lyfam import linalg as la
from lyfam.linalg import LinearForm, contract, contract_grid

# 1/2 and -1/2 cancel to Fraction(0), 1 and -1 to the int 0
SCALARS = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2),
                           Fraction(2, 3), Fraction(0)])
FORMS = st.builds(lambda items: LinearForm({k: v for k, v in items if v}),
                  st.lists(st.tuples(st.integers(0, 3), SCALARS),
                           max_size=3)).map(lambda f: f or 0)
# (rows, cols) of a matrix leaf, or (n,) of a vector leaf
LEAVES = [(0,), (1,), (3,), (2, 3), (3, 2), (0, 2), (2, 0)]


def dense(table, v):
    """sum_i v[i] * table[i], one coordinate at a time, from the int 0 over
    the nonzero products of coordinates and entries."""
    leaf = table[0] if table else []

    def coordinate(entry_at):
        s = 0
        for x, sub in zip(v, table):
            y = entry_at(sub)
            if x and y:
                s += x * y
        return s

    if leaf and type(leaf[0]) is list:
        return [[coordinate(lambda sub, a=a, j=j: sub[a][j])
                 for j in range(len(leaf[a]))] for a in range(len(leaf))]
    return [coordinate(lambda sub, k=k: sub[k]) for k in range(len(leaf))]


@st.composite
def cases(draw, count=st.just(1)):
    """(table, vectors): forms in the table or in the vectors, not both."""
    dim = draw(st.integers(0, 4))
    leaf = draw(st.sampled_from(LEAVES))
    forms = draw(st.sampled_from(["none", "table", "vector"]))
    entries = FORMS if forms == "table" else SCALARS

    def value():
        if len(leaf) == 1:
            return [draw(entries) for _ in range(leaf[0])]
        return [[draw(entries) for _ in range(leaf[1])]
                for _ in range(leaf[0])]

    table = [value() for _ in range(dim)]
    coordinates = FORMS if forms == "vector" else SCALARS
    return table, [[draw(coordinates) for _ in range(dim)]
                   for _ in range(draw(count))]


def _agree(table, v):
    want = repr(dense(table, v))
    assert repr(contract(table, v)) == want
    assert repr(contract_grid(table, [v])[0]) == want


@settings(max_examples=500, deadline=None)
@given(cases())
def test_one_vector_contraction_is_the_dense_sum(case):
    table, (v,) = case
    _agree(table, v)


@settings(max_examples=200, deadline=None)
@given(cases(st.integers(0, 4)))
def test_one_list_grid_is_each_vectors_contraction(case):
    # one table, several vectors: the grid's values are contract's, in order
    table, vecs = case
    assert repr(contract_grid(table, vecs)) == repr(
        [contract(table, v) for v in vecs]) == repr(
        [dense(table, v) for v in vecs])


def test_zero_vectors_and_tables_without_entries():
    vec_table = [[1, Fraction(1, 2)], [Fraction(-1, 2), 0]]
    mat_table = [[[1, 0], [Fraction(1, 3), 2]], [[0, 0], [Fraction(-1, 3), 1]]]
    for table in (vec_table, mat_table):
        for v in ([0, 0], [Fraction(0), Fraction(0)], [1, 0], [0, 1],
                  [1, 1], [Fraction(2, 3), -1]):
            _agree(table, v)
    # a zero vector gives int zeros of the leaf's shape
    assert repr(contract(mat_table, [Fraction(0)] * 2)) == "[[0, 0], [0, 0]]"
    # terms that cancel leave a Fraction(0), terms that do not an int 0
    assert repr(contract(vec_table, [1, 2])) == \
        "[Fraction(0, 1), Fraction(1, 2)]"
    assert repr(contract(vec_table, [0, 1])) == "[Fraction(-1, 2), 0]"
    assert repr(contract(mat_table, [1, 1])) == \
        "[[1, 0], [Fraction(0, 1), 3]]"
    # a zero-dimensional argument space, and leaves without entries
    for table, want in (([], []), ([[], []], []), ([[[], []]], [[], []])):
        _agree(table, [0] * len(table))
        assert contract(table, [0] * len(table)) == want
    assert contract_grid([], [[], []]) == [[], []]
    assert contract_grid([[1]], []) == []


def test_linear_forms_keep_their_key_order():
    f, g = LinearForm({2: 1, 0: 3}), LinearForm({0: -3, 1: Fraction(1, 2)})
    # forms as coordinates: {2, 0} first, then the keys g adds
    table = [[1, 2], [1, 0]]
    for v in ([f, g], [g, f], [f, -f], [0, g]):
        _agree(table, v)
    assert repr(contract(table, [f, g])) == repr(
        [LinearForm({2: 1, 1: Fraction(1, 2)}), LinearForm({2: 2, 0: 6})])
    # forms as entries, cancelling to the int 0
    table = [[f, g], [-f, 0]]
    for v in ([1, 1], [2, 1], [Fraction(1, 2), 0], [0, 0]):
        _agree(table, v)
    assert contract(table, [1, 1])[0] == 0


def _chain(signs, vecs):
    out = vecs[0] if signs[0] == "+" else la.vec_neg(vecs[0])
    for s, v in zip(signs[1:], vecs[1:]):
        out = la.vec_add(out, v) if s == "+" else la.vec_sub(out, v)
    return out


def _library_signs():
    """Every sign string written in a vec_sum or mat_sum call of the
    library's sources, aliases (vsum, msum) included."""
    src = Path(la.__file__).parent
    found = set()
    for path in src.glob("*.py"):
        found |= set(re.findall(r'(?:sum|msum)\(\s*"([+-]+)"',
                                path.read_text()))
    return sorted(found)


def test_the_library_sign_strings_are_found():
    signs = _library_signs()
    assert {"+++", "+-+", "+--", "-+++--", "+-++-+-+-"} <= set(signs)


@pytest.mark.parametrize("signs", _library_signs())
def test_signed_sums_are_the_chain_of_vector_ops(signs):
    rng, k = random.Random(signs), len(signs)
    f, g = LinearForm({1: 1, 0: Fraction(1, 2)}), LinearForm({0: Fraction(-1, 2)})
    # forms add only to forms and to zeros
    for scalars in ((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2),
                     Fraction(0)), (0, Fraction(0), f, g, -f, f * 2)):
        for n in (0, 1, 3):
            vecs = [[rng.choice(scalars) for _ in range(n)] for _ in range(k)]
            want = _chain(signs, vecs)
            assert repr(la.vec_sum(signs, *vecs)) == repr(want)
            mats = [[v, v[::-1]] for v in vecs]
            assert repr(la.mat_sum(signs, *mats)) == repr(
                [want, _chain(signs, [v[::-1] for v in vecs])])
    with pytest.raises(ValueError):
        la.vec_sum(signs, *[[1]] * (k + 1))
    with pytest.raises(ValueError):
        la.vec_sum(signs, *[[1]] * (k - 1))
    with pytest.raises(ValueError):
        la.mat_sum(signs, *[[[1]]] * (k + 1))
