"""The extension of an indexed algebra by a representation and a cochain.

`omega.extension(r, f, g)` is the indexed algebra on O + V twisted by the
full tables (f, g) of a (2,3)-cochain.  With (f, g) = 0 it satisfies the
indexed algebra laws exactly when r is a representation.  Twisted by the
symbolic (2,3)-cochain of an induced complex, the coordinates in V of those
laws at the tuples of O's basis vectors are linear forms whose common
kernel is a second route to Z^(2,3): it must equal the kernel of the rows
of delta and delta*, which `cohomology_step` eliminates.
"""
import random

import pytest

from lyfam import linalg as la
from lyfam.cohomology import RBFComplex
from lyfam.ly import _LY_LAWS
from lyfam.omega import (OmegaRepresentation, _omega_ly_report,
                         check_omega_ly_axioms, check_omega_representation,
                         cochain_coords, cochain_full_table, delta_omega,
                         delta_star_omega, extension, skew_basis)
from test_law_reference import CTX, nudged


def full_tables(c):
    """The tables f[a][b][i][j] and g[a][b][c][i][j][k] of a (2,3)-cochain
    at every tuple, from cochain_full_table's order (alphas outer)."""
    it = (vec for _, _, vec in cochain_full_table(c))
    M, n = range(c.semigroup.order), range(c.dim_alg)
    f = [[[[next(it) for _ in n] for _ in n] for _ in M] for _ in M]
    g = [[[[[[next(it) for _ in n] for _ in n] for _ in n] for _ in M]
           for _ in M] for _ in M]
    return f, g


def _zero_tables(r):
    M, n, d = r.algebra.semigroup.order, r.algebra.dim, r.dim
    return la.zeros(M, M, n, n, d), la.zeros(M, M, M, n, n, n, d)


@pytest.mark.parametrize("name", ("zero-S1", "zero-S2", "A1-S1", "A1-S2",
                                  "A1-S2-moved", "A2-S1"))
def test_extension_by_a_representation_satisfies_the_laws(name):
    r = RBFComplex(CTX[name], check=False).induced_rep
    assert check_omega_ly_axioms(extension(r, *_zero_tables(r))).ok


# two nudged rho that stay representations, and four that do not
@pytest.mark.parametrize("name, seed, verdict", (
    ("zero-S2", 1, True), ("zero-S2", 4, False), ("A1-S1", 3, True),
    ("A1-S1", 2, False), ("A2-S1", 1, False), ("A1-S2", 0, False)))
def test_extension_by_a_nudged_rho_fails_as_the_representation(
        name, seed, verdict):
    r = RBFComplex(CTX[name], check=False).induced_rep
    bad = OmegaRepresentation(r.algebra, r.dim,
                              nudged(random.Random(seed), r.rho, False), r.theta)
    assert bad.rho != r.rho
    assert check_omega_representation(r.algebra, bad).ok == verdict
    assert check_omega_ly_axioms(extension(bad, *_zero_tables(bad))).ok \
        == verdict


@pytest.mark.parametrize("name, dim", (("zero-S1", 6), ("zero-S2", 52),
                                       ("A1-S1", 3), ("A1-S2", 16),
                                       ("A2-S1", 7)))
def test_cocycles_are_read_off_the_extension(name, dim):
    cx = RBFComplex(CTX[name], check=False)
    O, r = cx.induced_algebra, cx.induced_rep
    bas = skew_basis((2, 3), (O.dim, r.dim), O.semigroup)
    c = bas.symbolic()
    rows = []
    for v in _omega_ly_report(extension(r, *full_tables(c)), False).violations:
        if max(v.witness[_LY_LAWS[v.law][0]:]) < O.dim:
            rows += v.residual[O.dim:]
    z = la.form_kernel(rows, bas.size)
    assert len(z) == dim
    assert z == la.form_kernel(cochain_coords(delta_omega(O, r, c))
                               + cochain_coords(delta_star_omega(O, r, c)),
                               bas.size)
