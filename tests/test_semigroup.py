import pytest

from lyfam.errors import (MalformedInputError, PreconditionError,
                          UnitRequiredError)
from lyfam.semigroup import (FiniteCommutativeSemigroup, product, product_of,
                             trivial_semigroup, validate_semigroup)


def test_trivial_semigroup(s1):
    assert s1.order == 1
    assert validate_semigroup(s1).ok
    assert s1.unit == 0


def test_order_two_with_absorber(s2):
    assert validate_semigroup(s2).ok
    assert product(s2, 0, 1) == 1
    assert product(s2, 1, 1) == 1
    assert product_of(s2, (0, 1, 0)) == 1


@pytest.mark.parametrize("indices,message", [
    ((0, 2, 1), "element index out of range: (0, 2)"),
    ((1, 1, 5), "element index out of range: (1, 5)"),
    ((-1, 0), "element index out of range: (-1, 0)"),
    ([0, 1, 1, -1], "element index out of range: (1, -1)"),
    # a single element is checked too
    ([7], "element index out of range: (7,)"),
    ([-1], "element index out of range: (-1,)"),
])
def test_product_of_refuses_an_index_out_of_range(s2, indices, message):
    with pytest.raises(MalformedInputError) as exc:
        product_of(s2, indices)
    assert str(exc.value) == message


def test_product_of_walks_the_table(s2):
    z3 = FiniteCommutativeSemigroup(3, [[(i + j) % 3 for j in range(3)]
                                        for i in range(3)], unit=0)
    assert product_of(z3, iter([1, 2, 2, 1])) == 0
    assert product_of(z3, [2]) == 2
    for words in ((), iter(())):
        with pytest.raises(PreconditionError,
                           match="^product_of requires a nonempty list$"):
            product_of(s2, words)


def test_non_commutative_table_rejected():
    s = FiniteCommutativeSemigroup(2, [[0, 1], [0, 1]], unit=None)
    rep = validate_semigroup(s)
    assert not rep.ok
    assert "SG-comm" in rep.laws()


def test_non_associative_table_rejected():
    s = FiniteCommutativeSemigroup(2, [[1, 0], [0, 0]], unit=None)
    rep = validate_semigroup(s)
    assert not rep.ok
    assert "SG-assoc" in rep.laws()


def test_wrong_unit_rejected():
    s = FiniteCommutativeSemigroup(2, [[0, 1], [1, 1]], unit=1)
    assert not validate_semigroup(s).ok


def test_require_unit():
    s = FiniteCommutativeSemigroup(1, [[0]], unit=None)
    with pytest.raises(UnitRequiredError):
        s.require_unit()
    assert trivial_semigroup().require_unit() == 0


def test_table_entries_and_unit_are_int_indices():
    from lyfam.errors import MalformedInputError
    for table, unit in (([[0, "1"], [1, 1]], None), ([[0, 1], [1.0, 1]], None),
                        ([[0, 1], [True, 1]], None), ([[0, 2], [1, 1]], None),
                        ([[0, -1], [1, 1]], None), ([[0, 1], [1, 1]], "0"),
                        ([[0, 1], [1, 1]], 2), ([[0, 1], [1, 1]], False)):
        with pytest.raises(MalformedInputError):
            FiniteCommutativeSemigroup(2, table, unit=unit)
