"""The induced algebra on V and the induced representation on L, on fixed,
seeded contexts, against digests.

Each case builds `induced_omega_ly_on_V(ctx, check=False)` or
`induced_rep_on_L(ctx, check=False)` and reduces it to the SHA-256 of its
`repr`, the digest of the law references.  The `repr` shows every entry
with its type, so a moved coordinate, a lost sign or an `int` that became
a `Fraction` changes the digest.  A complex builds the same structures
from the same code, so comparing the two (as test_dense_images does)
cannot see a change in that code; these digests can.

The contexts are the identity families of A1 and A2 over the trivial
semigroup, the two-element semigroup and the cyclic group of order 3, each
as built, with V in a seeded random basis (dense, `Fraction`-valued family
and representation), and perturbed by a seeded +-1 on every family entry
(not a family any more, hence check=False).

To see what changed after a deliberate change of a construction, print
`CASES[name]()` for the failing case.
"""
import random

import pytest

from lyfam.cohomology import induced_omega_ly_on_V, induced_rep_on_L
from lyfam.rbfamily import identity_family
from conftest import random_invertible
from test_dense_images import change_basis_of_V, perturbed
from test_law_reference import A1, A2, S1, S2, Z3, digest


def contexts():
    out = {}
    for aname, A in (("A1", A1), ("A2", A2)):
        for sname, s in (("S1", S1), ("S2", S2), ("Z3", Z3)):
            key = "%s-%s" % (aname, sname)
            ctx = identity_family(A, s)
            out[key] = ctx
            out[key + "-V-moved"] = change_basis_of_V(
                ctx, random_invertible(random.Random(key), ctx.dimV, 12))
            out[key + "-perturbed"] = perturbed(ctx, random.Random(key))
    return out


CTX = contexts()
CASES = {}
for _cname, _ctx in CTX.items():
    CASES["induced_omega_ly_on_V/" + _cname] = (
        lambda ctx=_ctx: induced_omega_ly_on_V(ctx, check=False))
    CASES["induced_rep_on_L/" + _cname] = (
        lambda ctx=_ctx: induced_rep_on_L(ctx, check=False))


EXPECTED = {
    'induced_omega_ly_on_V/A1-S1':
        '84fb89d9bd719aa5de760ae1a62cb921d8c24319509f245463fea760d3ef95fd',
    'induced_omega_ly_on_V/A1-S1-V-moved':
        'c27173e70d855c7323d190c73aee76c7dcd4d509abe8ea8f4435bd8e24540772',
    'induced_omega_ly_on_V/A1-S1-perturbed':
        '2f0c6a5df5e0518fc0502d7fabd7bbb1829b6383d1bd8d225012de4adf4d9423',
    'induced_omega_ly_on_V/A1-S2':
        '79fbb2bb8b3df36c9800c38d95ce80377870133af34d0240e6ab519642d46ac1',
    'induced_omega_ly_on_V/A1-S2-V-moved':
        'f004ba150165486b1c038ebd51bf9579c5741564ef2cfb24c3510016f9295a7b',
    'induced_omega_ly_on_V/A1-S2-perturbed':
        '715a4034cc956f0d103a830a22aedc2bf628d8e7fa7b1cbc16aa922a02a98b91',
    'induced_omega_ly_on_V/A1-Z3':
        '720ca29e5526d3db0ad7b1a1a326541f8391713ff877c4e9511a1961093dd8c9',
    'induced_omega_ly_on_V/A1-Z3-V-moved':
        '81d47bdf02c603e246ddd92a2271703a3481230f17d7e27b816e2ca8f7b14256',
    'induced_omega_ly_on_V/A1-Z3-perturbed':
        'b150700fa8380678999cac7765f581fb4bdffbfabd9c5bb297c048d6b6aa64c8',
    'induced_omega_ly_on_V/A2-S1':
        '9f319682ffb5f4601df6a85d7e19c648166807acc11c345310aeae0775a07988',
    'induced_omega_ly_on_V/A2-S1-V-moved':
        '713c52b8f175641e4e4866cde428e1d0c55f1674993d20861f3a98c2a2b6fff6',
    'induced_omega_ly_on_V/A2-S1-perturbed':
        '31f72ed66832dbe435a878c131faae94663b6811e4f159b3fb237cec29fb9014',
    'induced_omega_ly_on_V/A2-S2':
        '6016690755338adb6acb262050efbcc8715b09a64377aba4a4045c952b77ae5f',
    'induced_omega_ly_on_V/A2-S2-V-moved':
        '368f3426393ddf5edad8b1a2b081f30493ca815343e288cd961dc0687dcbb968',
    'induced_omega_ly_on_V/A2-S2-perturbed':
        '4eb56e23727874af4d1c20426083d13c216d1e27fbbbf8e8ee2444623cd4f8ba',
    'induced_omega_ly_on_V/A2-Z3':
        'c90c0c817e4377d539a78dc03fca6e20927f4d0267caf6506a93a92be90ed054',
    'induced_omega_ly_on_V/A2-Z3-V-moved':
        '9af5edee5fb77bf8dad5c5b80e9266656e1a57f48d7baa95e9c0b6f82a9d0cef',
    'induced_omega_ly_on_V/A2-Z3-perturbed':
        '9c1f22b16a0b431baaba7a496ab0ad27255f66754ab4100856e9284ef77e5da4',
    'induced_rep_on_L/A1-S1':
        '248e612179c66b4ab450635eb3b4ea14d8f27f43a8056eb647000ee36f60ed36',
    'induced_rep_on_L/A1-S1-V-moved':
        'fdfa662561ee0f5aa4cf4b3cfd067a360c08897f3435b552e7fa894e94f6fb3b',
    'induced_rep_on_L/A1-S1-perturbed':
        '1ca7fa8995b62c3446b6ca75f88d131013b26721be22fc1ab16c44d06683c931',
    'induced_rep_on_L/A1-S2':
        '659f784ff520ced008cccaa47f50224d3ac40439e9ed9035a7e2ab4a16d52130',
    'induced_rep_on_L/A1-S2-V-moved':
        'a6ba8ae8d9a8488df8c1c8fe72f96ab5a19ac3c29fe1de699250e810c084513f',
    'induced_rep_on_L/A1-S2-perturbed':
        'a5d3095babebb6004a82d4d93477bfbe9125e2b1de54dff68dd4033d60965b0e',
    'induced_rep_on_L/A1-Z3':
        'b07a7ddd437a6135f9ff0a86510439bc65d9baf328544aa5caf89b2e6480eb0e',
    'induced_rep_on_L/A1-Z3-V-moved':
        '64baebe03707f9340671000101a2cd25e3edb6f000598bb2b2b8ec16359ff370',
    'induced_rep_on_L/A1-Z3-perturbed':
        'c359bef0f1f3c1338492380a860749256d4bd006ee912c6b66b0a7a18dcf67e7',
    'induced_rep_on_L/A2-S1':
        '87de4e12e529d40008012ec988ca4990f8ce8f267429dead127e43c07f44fcc9',
    'induced_rep_on_L/A2-S1-V-moved':
        'a245d636448bef53e518a9cf04a353363b4935c3727ac298053e782e7fa84b3c',
    'induced_rep_on_L/A2-S1-perturbed':
        'ac2a786573003a4e7264eef82b35a8e9abed1cb4156ed4924dce52722e2bdc7b',
    'induced_rep_on_L/A2-S2':
        'e153ee1d816b47686a6d79819254ee543604ac13d838af4040b05fb04c52390e',
    'induced_rep_on_L/A2-S2-V-moved':
        '336085c97fd4e7efcbe61d9ac1deba93241fcb082b47855c45d3f48f6b9d75fb',
    'induced_rep_on_L/A2-S2-perturbed':
        '53c43cfc44ab2316917bbe944222605eace5ce2238ac0107580a820bca4b34f4',
    'induced_rep_on_L/A2-Z3':
        '3b92c924e0c704dc484d3cc199a375cc6b6d694eb5811a4844363fa972b79ac1',
    'induced_rep_on_L/A2-Z3-V-moved':
        '728384bb67681f97c46e9d7952a80d3070a1752747356fa11d8b94cf86d57b93',
    'induced_rep_on_L/A2-Z3-perturbed':
        'ecc42bc9ee3018a8f2b04065f62dd997d5e5ce4731bb2579dfa99b7f48981a48',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_induced_structure_matches_reference(name):
    assert digest(CASES[name]()) == EXPECTED[name]
