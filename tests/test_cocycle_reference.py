"""check_cocycle23 against a reference copy of the cocycle laws.

`reference_report` is COC-2.14 ... 2.17 written out term by term, each law
a signed sum of contractions at basis tuples, swept over every tuple: the
laws as `ly.check_cocycle23` evaluated them before it read them off the
twisted semidirect product.  Both reports are compared by the `repr` of
their violations, so a moved witness, a changed law order, sign or scalar
type fails.  The inputs are seeded: algebras of dims 0-3 with modules of
dims 1-3, skew and raw, int and `Fraction`, and nudged copies of the valid
cocycles gamma_ad of A1 and A2.
"""
import random

import pytest

from lyfam import linalg
from lyfam.ly import (Cocycle23, adjoint_representation, check_cocycle23,
                      derived_D, gamma_ad)
from test_law_reference import (A1, A2, nudged, random_cocycle, random_ly,
                                random_rep)


def reference_report(A, r, c):
    n, E = range(A.dim), linalg.identity(A.dim)
    D = derived_D(A, r)
    b, t, g1, g2 = A.binary, A.ternary, c.gamma1, c.gamma2
    rho, theta = r.rho, r.theta
    ct, mv, vsum = linalg.contract, linalg.mat_vec, linalg.vec_sum
    rep = c.invariant_report().sweep([n] * 3, [
        ("COC-2.14", lambda i1, j1, k: vsum(
            "---++++++", mv(rho[i1], g1[j1][k]), mv(rho[j1], g1[k][i1]),
            mv(rho[k], g1[i1][j1]), ct(g1, b[i1][j1], E[k]),
            ct(g1, b[j1][k], E[i1]), ct(g1, b[k][i1], E[j1]),
            g2[i1][j1][k], g2[k][i1][j1], g2[j1][k][i1]))])
    return rep.sweep([n] * 4, [
        ("COC-2.15", lambda i1, j1, i2, j2: vsum(
            "++++++", mv(theta[i1][j2], g1[j1][i2]),
            mv(theta[j1][j2], g1[i2][i1]), mv(theta[i2][j2], g1[i1][j1]),
            ct(g2, b[i1][j1], E[i2], E[j2]), ct(g2, b[j1][i2], E[i1], E[j2]),
            ct(g2, b[i2][i1], E[j1], E[j2]))),
        ("COC-2.16", lambda i1, j1, i2, j2: vsum(
            "-+++--", mv(rho[i2], g2[i1][j1][j2]), mv(rho[j2], g2[i1][j1][i2]),
            ct(g2[i1][j1], b[i2][j2]), mv(D[i1][j1], g1[i2][j2]),
            ct(g1, t[i1][j1][i2], E[j2]), ct(g1[i2], t[i1][j1][j2]))),
        ("COC-2.17", lambda i1, j1, i2, j2: [vsum(
            "-++---+-", mv(theta[j2][k], g2[i1][j1][i2]),
            mv(theta[i2][k], g2[i1][j1][j2]), mv(D[i1][j1], g2[i2][j2][k]),
            mv(D[i2][j2], g2[i1][j1][k]), ct(g2, t[i1][j1][i2], E[j2], E[k]),
            ct(g2[i2], t[i1][j1][j2], E[k]), ct(g2[i1][j1], t[i2][j2][k]),
            ct(g2[i2][j2], t[i1][j1][k])) for k in n], 1)])


def _random_inputs(n, skew, seed):
    rng = random.Random(seed)
    d, frac = rng.randint(1, 3), rng.random() < 0.5
    return (random_ly(rng, n, skew, frac), random_rep(rng, n, d, frac),
            random_cocycle(rng, n, d, skew, frac))


def _nudged_inputs(A, seed):
    rng = random.Random(seed)
    g = gamma_ad(A)
    return (A, adjoint_representation(A),
            Cocycle23(*nudged(rng, [g.gamma1, g.gamma2], seed % 2 == 0, 0.2)))


def _agree(inputs):
    got = check_cocycle23(*inputs).violations
    assert repr(got) == repr(reference_report(*inputs).violations)
    return len(got)


@pytest.mark.parametrize("skew", (True, False))
@pytest.mark.parametrize("n", range(4))
def test_random_cocycles_match_reference(n, skew):
    counts = [_agree(_random_inputs(n, skew, 1000 * n + 100 * skew + s))
              for s in range(22)]
    # skew tensors of dim 1 are zero, and so is every cocycle residual
    assert any(counts) == (n > 1 or (n == 1 and not skew))


@pytest.mark.parametrize("name", ("A1", "A2"))
def test_nudged_cocycles_match_reference(name):
    A = {"A1": A1, "A2": A2}[name]
    counts = [_agree(_nudged_inputs(A, seed)) for seed in range(12)]
    assert _agree((A, adjoint_representation(A), gamma_ad(A))) == 0
    assert any(counts)
