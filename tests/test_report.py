"""The law driver, Report.sweep, and its block form against the group form
it replaced."""
import itertools
import random
import zlib

from lyfam.report import Report


def group_sweep(rep, ranges, laws, prefix=()):
    """The earlier driver, kept as the reference for the order of violations.

    A law is (name, residual), recorded at the tuple w as
    record(name, w, residual(*w)), or a group (ranges, laws) swept at every
    extension of w by its own ranges.  At each tuple the laws run in the
    order listed.
    """
    for idx in itertools.product(*ranges):
        w = prefix + idx
        for name, residual in laws:
            if type(name) is str:
                rep.record(name, w, residual(*w))
            else:
                group_sweep(rep, name, residual, w)
    return rep


def test_sweep_visits_tuples_in_order_and_extends_them_by_blocks():
    seen = []

    def law(name):
        def residual(*w):
            seen.append((name,) + w)
            return (sum(w) % 2,)
        return residual

    B, C = law("B"), law("C")
    rep = Report().sweep([range(2), range(2)], [
        ("A", law("A")),
        (("B", "C"), lambda *w: [(B(*w, k), C(*w, k)) for k in range(2)], 1)],
        prefix=(9,))
    assert seen[:6] == [("A", 9, 0, 0), ("B", 9, 0, 0, 0), ("C", 9, 0, 0, 0),
                        ("B", 9, 0, 0, 1), ("C", 9, 0, 0, 1), ("A", 9, 0, 1)]
    assert len(seen) == 4 * 5
    # only nonzero residuals are recorded, with the whole tuple as witness
    assert [(v.law, v.witness) for v in rep.violations[:3]] == [
        ("A", (9, 0, 0)), ("B", (9, 0, 0, 0)), ("C", (9, 0, 0, 0))]
    assert all(sum(v.witness) % 2 for v in rep.violations)


def test_laws_come_before_blocks_and_blocks_merge_by_extension():
    def at(*w):
        return (1,)

    def block(n):
        return lambda *w: [(1,)] * n

    # a law listed after a block is still recorded first at its tuple
    rep = Report().sweep([range(1)], [("X", block(2), 1), ("A", at)])
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("A", (0,)), ("X", (0, 0)), ("X", (0, 1))]
    # blocks of different lengths at one tuple: each extension in turn, the
    # blocks at it in the order listed
    rep = Report().sweep([], [("X", block(1), 1), ("Y", block(3), 1)])
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("X", (0,)), ("Y", (0,)), ("Y", (1,)), ("Y", (2,))]


# -- random law trees, swept by both drivers

def residual_of(name):
    """A residual that is zero at about half the tuples, fixed by (name, w)."""
    def residual(*w):
        h = zlib.crc32(repr((name, w)).encode())
        return (h % 2 * (h % 5), h % 3 % 2)
    return residual


def random_laws(rng, levels, names):
    """Laws of the group form: up to three laws, then, while levels remain,
    one group over one or two ranges of length 0-2."""
    laws = [(name, residual_of(name))
            for name in (next(names) for _ in range(rng.randrange(4)))]
    if levels:
        ranges = [range(rng.randrange(3)) for _ in range(rng.randrange(1, 3))]
        laws.append((ranges, random_laws(rng, levels - 1, names)))
    return laws


def nested(f, w, ranges):
    """f at w extended by each tuple of ranges, as nested lists."""
    if not ranges:
        return f(*w)
    return [nested(f, w + (k,), ranges[1:]) for k in ranges[0]]


def block_of(names, fs, ranges):
    if len(names) == 1:
        return names[0], lambda *w: nested(fs[0], w, ranges), len(ranges)
    return (tuple(names), lambda *w: nested(
        lambda *v: tuple(f(*v) for f in fs), w, ranges), len(ranges))


def as_blocks(rng, laws, ranges=()):
    """The block form of group-form laws whose groups above extend the tuple
    by ranges: each law a block as deep as those ranges, or with the laws
    next to it one block named by their tuple of names."""
    plain = [law for law in laws if type(law[0]) is str]
    if not ranges:
        out = plain
    else:
        out, k = [], 0
        while k < len(plain):
            run = plain[k:k + rng.randrange(1, 4)]
            k += len(run)
            out.append(block_of([n for n, _ in run], [f for _, f in run], ranges))
    for group_ranges, group_laws in (law for law in laws if type(law[0]) is not str):
        out += as_blocks(rng, group_laws, ranges + tuple(group_ranges))
    return out


def test_block_sweep_matches_group_sweep_on_random_law_trees():
    deep = named = 0
    for seed in range(300):
        rng = random.Random(seed)
        # listed in the reverse of their alphabetical order
        names = ("L%d" % k for k in itertools.count(999, -1))
        laws = random_laws(rng, seed % 4, names)
        ranges = [range(rng.randrange(3)) for _ in range(rng.randrange(3))]
        prefix = tuple(rng.randrange(3) for _ in range(rng.randrange(2)))
        want = group_sweep(Report(), ranges, laws, prefix).violations
        blocks = as_blocks(rng, laws)
        got = Report().sweep(ranges, blocks, prefix).violations
        assert got == want, seed
        deep += any(len(v.witness) >= len(prefix) + len(ranges) + 3 for v in want)
        named += any(type(law[0]) is tuple for law in blocks)
    # 22 trees record a violation 3 or more block indices deep, and 149 have
    # a block named by a tuple of names
    assert deep >= 20 and named >= 100
