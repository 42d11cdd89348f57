"""The twisted semidirect product on fixed, seeded inputs, against digests.

`semidirect_product(A, r, c)` is reduced to the SHA-256 of the `repr` of
the algebra it returns, the digest of the law and construction references:
a moved coordinate, a lost sign or an `int` that became a `Fraction`
changes it.  The inputs are A1 and A2 with the adjoint representation and
Gamma = gamma_ad, the (algebra, representation, cocycle) of the identity
contexts over S1 and S2 and of one with V in a random basis (`Fraction`
entries), and random tensors that satisfy no law: dense, not skew, one of
them `Fraction`-valued and one with dim V unequal to dim L.

To see what changed after a deliberate change of the construction, print
`CASES[name]()` for the failing case.
"""
import random

import pytest

from lyfam.ly import adjoint_representation, gamma_ad
from lyfam.rbfamily import semidirect_product
from test_law_reference import (A1, A2, CTX, digest, random_cocycle,
                                random_ly, random_rep)

CASES = {}
for _name, _A in (("A1", A1), ("A2", A2)):
    CASES[_name + "-adjoint"] = (
        lambda A=_A: semidirect_product(A, adjoint_representation(A),
                                        gamma_ad(A)))
for _name in ("zero-S1", "A1-S1", "A2-S1", "A1-S2", "A2-S2",
              "A1-S2-moved"):
    CASES["identity-" + _name] = (
        lambda c=CTX[_name]: semidirect_product(c.algebra, c.rep, c.cocycle))


def _random(seed, n, d, frac):
    rng = random.Random(seed)
    return semidirect_product(random_ly(rng, n, False, frac),
                              random_rep(rng, n, d, frac),
                              random_cocycle(rng, n, d, False, frac))


CASES["random-2-2-frac"] = lambda: _random(20261019, 2, 2, True)
CASES["random-2-3-int"] = lambda: _random(20261020, 2, 3, False)


# recorded from the construction that evaluated each entry with contract at
# basis vectors
EXPECTED = {
    'A1-adjoint':
        '850e5dd94e59f91133b9ad030456147046259e76b9b233267ab84e4512716f93',
    'A2-adjoint':
        '797ab85b33a10e1bc0b438446feaa979d0d2a6c0d6baa477d4e70a259ba9a4ff',
    'identity-A1-S1':
        'd78dd0bcd2580fc65aef1a4804aad849bbd98f4d14d119e08c362a1f2042154b',
    'identity-A1-S2':
        '41156cbb2c6f6745f25b1e1b61d799166e4e9ac90f6cc5f59c482a2467abf842',
    'identity-A1-S2-moved':
        'b2d413e86ca07d1e2e2ade2cc04dba8ec47ef6d27cebd824dd566e8e6e9dbeaf',
    'identity-A2-S1':
        '707c6f2fc3177b3329885325ab8a38b271a9d87d9c93d6d8911b0ef4e010dc96',
    'identity-A2-S2':
        '458a08940effc5745ac7da0eee582ea333ca432dbb4fb6f2d9a76a82741e4bc1',
    'identity-zero-S1':
        'e3645e7057ae7d07bfbca0ecedef1c3d4731697f37c7d3f62a7fab409dc29a5e',
    'random-2-2-frac':
        '7510620511c34ea7c6bb9aea1199328d45db8ba0d74fa51ac23ccdef64ea57ef',
    'random-2-3-int':
        '6168618f1178ef4fe795b930b8e9c89040fe236a20517d8eb01b35a3e389ec86',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_semidirect_product_matches_reference(name):
    assert digest(CASES[name]()) == EXPECTED[name]
