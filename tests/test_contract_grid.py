"""linalg.contract_grid against nested linalg.contract calls, by `repr`.

The kernel must give every value exactly as contract does, zero types and
the key order of linear forms included, so each case compares the `repr`
of the grid with that of the nested list of contract calls.  Tables have
vector or matrix leaves and one to three argument slots, some of
dimension 0 (a table without entries).  Scalars are ints and Fractions
whose terms can cancel to an int 0 or a Fraction 0; linear forms sit in
the vectors of one slot or in the table, never in two places, since their
product is not linear.  Lists may be empty and vectors zero.
"""
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from lyfam.linalg import LinearForm, contract, contract_grid, transpose

# 1/2 and -1/2 cancel to Fraction(0), 1 and -1 to the int 0
SCALARS = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2),
                           Fraction(2, 3), Fraction(0)])
FORMS = st.builds(lambda items: LinearForm({k: v for k, v in items if v}),
                  st.lists(st.tuples(st.integers(0, 2), SCALARS),
                           max_size=2)).map(lambda f: f or 0)


def _table(draw, dims, leaf, entries):
    if not dims:
        return [[draw(entries) for _ in range(leaf[1])]
                for _ in range(leaf[0])] if len(leaf) == 2 else \
            [draw(entries) for _ in range(leaf[0])]
    return [_table(draw, dims[1:], leaf, entries) for _ in range(dims[0])]


@st.composite
def grids(draw):
    """(table, lists, shape of its leaves), with forms on at most one
    side."""
    arity = draw(st.integers(1, 3))
    dims = [draw(st.integers(0, 3)) for _ in range(arity)]
    leaf = draw(st.sampled_from([(0,), (1,), (3,), (2, 3), (3, 2), (0, 2)]))
    forms = draw(st.sampled_from(["none", "table", "vectors"]))
    table = _table(draw, dims, leaf, FORMS if forms == "table" else SCALARS)
    # forms in the vectors of one slot only, so no product has two
    slot = draw(st.integers(0, arity)) if forms == "vectors" else None
    lists = [draw(st.lists(st.lists(FORMS if r == slot else SCALARS,
                                    min_size=d, max_size=d), max_size=3))
             for r, d in enumerate(dims)]
    return table, lists, leaf


def _nested(lists, f):
    """f(v1, ..., vk) over every combination, nested as the grid is."""
    if not lists:
        return f()
    return [_nested(lists[1:], lambda *vs, v=v: f(v, *vs)) for v in lists[0]]


@settings(max_examples=600, deadline=None)
@given(grids())
def test_grid_matches_nested_contract(case):
    table, lists, _ = case
    want = _nested(lists, lambda *vs: contract(table, *vs))
    assert repr(contract_grid(table, *lists)) == repr(want)


@settings(max_examples=300, deadline=None)
@given(grids())
def test_columns_are_the_transpose(case):
    table, lists, leaf = case
    assume(len(leaf) == 2)
    want = _nested(lists, lambda *vs: transpose(contract(table, *vs), leaf[1]))
    assert repr(contract_grid(table, *lists, columns=leaf[1])) == repr(want)


def test_tables_without_entries():
    # dim 0 in the first slot: every value is [], or ncols empty columns
    for lists in ([[]], [[], []], [[[]], [[1]]]):
        want = _nested(lists, lambda *vs: contract([], *vs))
        assert repr(contract_grid([], *lists)) == repr(want)
    assert contract_grid([], [[], []], columns=3) == [[[], [], []]] * 2
    assert contract_grid([[]], [[1]], [[]]) == [[[]]]


def test_zero_and_one_term_values_keep_their_types():
    table = [[[1, Fraction(1, 2)], [-1, Fraction(-1, 2)]],
             [[0, 0], [2, 0]]]
    x, y = [1, 0], [1, 1]
    grid = contract_grid(table, [x, [0, 0]], [y])
    assert repr(grid) == repr([[contract(table, x, y)],
                               [contract(table, [0, 0], y)]])
    assert repr(grid[0][0]) == repr([0, Fraction(0)])
    assert repr(grid[1][0]) == repr([0, 0])

