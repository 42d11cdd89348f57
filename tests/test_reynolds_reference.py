"""The constructions on Reynolds families, on fixed, seeded inputs, against
digests.

`reynolds_as_twisted` and `omega_ly_from_reynolds` run on the 24 operator
families of the law references (A1/A2 over S1/S2/W2, each zero, identity,
int and Fraction).  A family that passes gives the built object; one that
is refused gives the message of its `PreconditionError`.  Each case is
reduced to the SHA-256 of its `repr`, the digest of the law references, so
a moved coordinate, a changed witness or an `int` that became a `Fraction`
changes the digest.

To see what changed after a deliberate change, print `CASES[name]()` for
the failing case.
"""
import pytest

from lyfam.errors import PreconditionError
from lyfam.omega import omega_ly_from_reynolds
from lyfam.rbfamily import reynolds_as_twisted
from test_law_reference import (OPERATOR_ALGEBRAS, OPERATOR_KINDS,
                                OPERATOR_SEMIGROUPS, digest, operator_family)


def built_or_refused(route, A, s, family):
    try:
        return route(A, s, family)
    except PreconditionError as exc:
        return "PreconditionError: %s" % exc


CASES = {}
for _aname, _A in OPERATOR_ALGEBRAS:
    for _sname, _s in OPERATOR_SEMIGROUPS:
        for _kind in OPERATOR_KINDS:
            _key = "%s-%s-%s" % (_aname, _sname, _kind)
            for _route in (reynolds_as_twisted, omega_ly_from_reynolds):
                CASES["%s/%s" % (_route.__name__, _key)] = (
                    lambda r=_route, A=_A, s=_s, kind=_kind, seed=_key:
                    built_or_refused(r, A, s,
                                     operator_family(A, s, kind, seed)))


# recorded from the hand-written REY laws, before check_reynolds_family
# read the family laws of the adjoint context
EXPECTED = {
    'omega_ly_from_reynolds/A1-S1-frac':
        '702e398b1f8ad6ae9b4e09742c9e89e5f5f04b55e215bf776468268f2af148d9',
    'omega_ly_from_reynolds/A1-S1-identity':
        '04b8ce1b7fc70092a3fd10b31312e28b3864cfa088d00cb759b2af0a2fd99bb4',
    'omega_ly_from_reynolds/A1-S1-int':
        '46733a5294cc2ad37c966b7f88abdcdccccbffff72022ef525126527f54a32c8',
    'omega_ly_from_reynolds/A1-S1-zero':
        '4909c8fe5da5d823cfe64b0c11ef6961d680753f6bac09dd2f55b7b34f38cf05',
    'omega_ly_from_reynolds/A1-S2-frac':
        '32c1d92d0aa5449f53f63b7f146d754a72b9baba9ca259c5e47205244243e1ba',
    'omega_ly_from_reynolds/A1-S2-identity':
        '04b8ce1b7fc70092a3fd10b31312e28b3864cfa088d00cb759b2af0a2fd99bb4',
    'omega_ly_from_reynolds/A1-S2-int':
        '839976456fd40f0a99c6571db099b070dd945e6d0e7394197e01de911c4295c3',
    'omega_ly_from_reynolds/A1-S2-zero':
        '4971be7a8b1cbc8665a4176cc79431e2bfb8eaa1a9fbc995f7e7221571ef0492',
    'omega_ly_from_reynolds/A1-W2-frac':
        '319b68b6d17eceb99a12e992a012b0ec0bb1c77487e9ba9eef01274905167031',
    'omega_ly_from_reynolds/A1-W2-identity':
        '04b8ce1b7fc70092a3fd10b31312e28b3864cfa088d00cb759b2af0a2fd99bb4',
    'omega_ly_from_reynolds/A1-W2-int':
        '57260486a64c5fe3011e54fc9cef61f8e436699ab850d3c0566fcdcf3a6bc734',
    'omega_ly_from_reynolds/A1-W2-zero':
        '9014375a5a6770f4c203b372ddcd8c55fcbdd860cafb5c2bf0e51dd4fa9b6759',
    'omega_ly_from_reynolds/A2-S1-frac':
        '260cae96a7d0de09bd4e22f2bc20a6ac03b327d93ba035d37ec6da85992fe390',
    'omega_ly_from_reynolds/A2-S1-identity':
        '27b25db9cbcb9fa87ea2ca0bc14ab06f73d87b0138eb36b974a91e8a6f4d6da7',
    'omega_ly_from_reynolds/A2-S1-int':
        'fe69f80ba98f440d719860792d184b5b4bed476ff77687d3f72dc730cd24df6b',
    'omega_ly_from_reynolds/A2-S1-zero':
        '76d42ef52c2b65c29dd18a3310a135e721025881ece9c156a6a38313619c124a',
    'omega_ly_from_reynolds/A2-S2-frac':
        '2f3a67389b1dc64cf137e6661ae35bf14a6573dc6ece798a84fcc7474a09d0a5',
    'omega_ly_from_reynolds/A2-S2-identity':
        '27b25db9cbcb9fa87ea2ca0bc14ab06f73d87b0138eb36b974a91e8a6f4d6da7',
    'omega_ly_from_reynolds/A2-S2-int':
        'd2ed6c95cbde6fc701f1c08aeeedcaa43b9e73d2473e1cc292f50557991970a9',
    'omega_ly_from_reynolds/A2-S2-zero':
        '4a41eec9ed93bac25bcf81315fa270d3b1cca38cd36b52e3b5a0159fcb0509b1',
    'omega_ly_from_reynolds/A2-W2-frac':
        '1a66e47f0ba16347453830adfcd8cc9f1e29c5fb2e9981cb80f83a0ec7522bc2',
    'omega_ly_from_reynolds/A2-W2-identity':
        '27b25db9cbcb9fa87ea2ca0bc14ab06f73d87b0138eb36b974a91e8a6f4d6da7',
    'omega_ly_from_reynolds/A2-W2-int':
        'cdfd8f7e95219860e38b383259731e455545d48400017b21d7c4761ef95fb1c1',
    'omega_ly_from_reynolds/A2-W2-zero':
        'f1eb30b500064807d177779da1b6eb5635981251deb33237eff6cb0807472be0',
    'reynolds_as_twisted/A1-S1-frac':
        'b628c4344a122811072e99d1025732e98c82da3caaf0f85415c17f1e8648a91c',
    'reynolds_as_twisted/A1-S1-identity':
        '8ce6045e642471d8b3c9a1325217337b4cac7d07cfe18677b75526101b9a6c9f',
    'reynolds_as_twisted/A1-S1-int':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A1-S1-zero':
        'a3863b1b6371b3f53062c6ffecbb6d1f25045a12a65b2019f8917dc720acc4dc',
    'reynolds_as_twisted/A1-S2-frac':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A1-S2-identity':
        '8ce6045e642471d8b3c9a1325217337b4cac7d07cfe18677b75526101b9a6c9f',
    'reynolds_as_twisted/A1-S2-int':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A1-S2-zero':
        '742dca3c6f6aeb7771dcd4e56315e30756a897b4f564dcfe52ab531fbddda8b9',
    'reynolds_as_twisted/A1-W2-frac':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A1-W2-identity':
        '8ce6045e642471d8b3c9a1325217337b4cac7d07cfe18677b75526101b9a6c9f',
    'reynolds_as_twisted/A1-W2-int':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A1-W2-zero':
        'e0acabea3858fbb13f44de5e108f0c1cd96445b6778a323de5dc5383e185d08e',
    'reynolds_as_twisted/A2-S1-frac':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A2-S1-identity':
        '8ce6045e642471d8b3c9a1325217337b4cac7d07cfe18677b75526101b9a6c9f',
    'reynolds_as_twisted/A2-S1-int':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A2-S1-zero':
        '4738fe505fd315617c29bb0a5f0a6552e47bcd8d6ec6624cca3d6aac63bf3073',
    'reynolds_as_twisted/A2-S2-frac':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A2-S2-identity':
        '8ce6045e642471d8b3c9a1325217337b4cac7d07cfe18677b75526101b9a6c9f',
    'reynolds_as_twisted/A2-S2-int':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A2-S2-zero':
        '1bb970718601e80c0dbb3ec9d046c5107bcbf479e2f5fe9edc7dbbb607d9524b',
    'reynolds_as_twisted/A2-W2-frac':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A2-W2-identity':
        '8ce6045e642471d8b3c9a1325217337b4cac7d07cfe18677b75526101b9a6c9f',
    'reynolds_as_twisted/A2-W2-int':
        'e96b18b14d08dea4518f11437d57783d1ec869733ade4ebb26ef840d8a031d0e',
    'reynolds_as_twisted/A2-W2-zero':
        '0829f7393e926ca0822b71bf0239e7aa90d3439f8aa045d4e4686c7bf7b70cc9',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_reynolds_construction_matches_reference(name):
    assert digest(CASES[name]()) == EXPECTED[name]
