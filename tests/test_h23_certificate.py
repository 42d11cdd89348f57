"""H^(2,3) on A1 x S2 and A2 x S2, with every rank certified outside linalg.

dim H^(2,3) = dim Z - dim B, where Z is the kernel of the stacked rows of
delta and delta* on the skew (2,3)-basis (n columns) and B is the image of
the degree-1 coboundary d1.  Each rank is settled without trusting the
library's elimination:

- k kernel vectors, taken from linalg, are checked exactly against every
  row, so rank_Q <= n - k once they are independent;
- a small eliminator here computes rank_p modulo the prime 2^31 - 1, and
  rank_p <= rank_Q always (Dixon 1982);
- rank_p = n - k then fixes rank_Q = n - k, and rank_p of the k vectors
  themselves = k shows they are independent.

The same is done for d1, whose columns span B, and B lies in Z is checked
exactly.
"""
from fractions import Fraction
from math import lcm

import pytest

from lyfam import linalg as la
from lyfam.cohomology import (RBFComplex, cohomology_H23, partial_23,
                              partial_star_23)
from lyfam.omega import cochain_full_coords
from lyfam.rbfamily import identity_family
from conftest import make_a1, make_a2

P = 2 ** 31 - 1


def rank_mod_p(rows):
    """Rank over GF(P) of the rows, given as dicts or dense sequences."""
    pivots = {}
    seen = set()
    for f in rows:
        if not f:
            continue
        items = f.items() if isinstance(f, dict) else enumerate(f)
        r = {}
        for k, v in items:
            v = Fraction(v)
            w = v.numerator * pow(v.denominator, -1, P) % P
            if w:
                r[k] = w
        key = frozenset(r.items())
        if key in seen:
            continue
        seen.add(key)
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                inv = pow(r[c], -1, P)
                pivots[c] = {k: v * inv % P for k, v in r.items()}
                break
            x = r[c]
            for k, y in p.items():
                w = (r.get(k, 0) - x * y) % P
                if w:
                    r[k] = w
                else:
                    r.pop(k, None)
    return len(pivots)


def dot(form, v):
    return sum(x * v[k] for k, x in form.items())


def nonzero_rows(forms):
    """The nonzero forms, each distinct one once: a vector that every one
    of them kills is killed by every form."""
    return list({frozenset(f.items()): f for f in forms if f}.values())


def integral(v):
    """v times the lcm of its denominators: a kernel vector still, with
    integer entries, so that checking it costs integer arithmetic only."""
    den = lcm(*(Fraction(x).denominator for x in v))
    return [int(x * den) for x in v]


def certified_rank(forms, n):
    """The exact rank of the matrix whose rows are the forms (n columns)."""
    kernel = [integral(v) for v in la.form_kernel(forms, n)]
    for f in nonzero_rows(forms):
        assert all(dot(f, v) == 0 for v in kernel)
    k = len(kernel)
    assert rank_mod_p(kernel) == k
    assert rank_mod_p(forms) == n - k
    return n - k


def test_rank_mod_p():
    # a rank that drops modulo P: the rows (1, 1), (1, 1 + P) are
    # independent over Q
    assert rank_mod_p([[1, 1], [1, 1 + P]]) == 1
    assert rank_mod_p([[1, 2], [2, 4], [0, 0], {1: Fraction(1, 3)}]) == 2


@pytest.mark.parametrize("make,expected", [(make_a1, 4), (make_a2, 2)],
                         ids=["A1xS2", "A2xS2"])
def test_h23_with_certified_ranks(make, expected, s2):
    cx = RBFComplex(identity_family(make(), s2))
    bas, size1 = cx.skew_basis_at((2, 3)), cx.skew_basis_at(1).size
    c = bas.symbolic()
    rows = (cochain_full_coords(partial_23(cx, c))
            + cochain_full_coords(partial_star_23(cx, c)))
    dim_z = bas.size - certified_rank(rows, bas.size)
    # d1 as forms over the degree-1 basis, one per (2,3)-coordinate; its
    # columns are the coboundaries of the degree-1 basis vectors, and its
    # rank is dim B
    d1 = bas.project(cx.d1_symbolic())
    dim_b = certified_rank(d1, size1)
    rows = nonzero_rows(rows)
    for j, col in enumerate(la.form_columns(d1, size1)):
        assert all(dot(f, col) == 0 for f in rows), j
    assert dim_z - dim_b == expected == cohomology_H23(cx)
