"""The law driver, Report.sweep."""
from lyfam.report import Report


def test_sweep_visits_tuples_in_order_and_extends_them_by_groups():
    seen = []

    def law(name):
        def residual(*w):
            seen.append((name,) + w)
            return (sum(w) % 2,)
        return residual

    rep = Report().sweep([range(2), range(2)], [
        ("A", law("A")), ([range(2)], [("B", law("B")), ("C", law("C"))])],
        prefix=(9,))
    assert seen[:6] == [("A", 9, 0, 0), ("B", 9, 0, 0, 0), ("C", 9, 0, 0, 0),
                        ("B", 9, 0, 0, 1), ("C", 9, 0, 0, 1), ("A", 9, 0, 1)]
    assert len(seen) == 4 * 5
    # only nonzero residuals are recorded, with the whole tuple as witness
    assert [(v.law, v.witness) for v in rep.violations[:3]] == [
        ("A", (9, 0, 0)), ("B", (9, 0, 0, 0)), ("C", (9, 0, 0, 0))]
    assert all(sum(v.witness) % 2 for v in rep.violations)
