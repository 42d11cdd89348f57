"""Every L (x) K-Omega construction's output on fixed, seeded inputs,
against digests.

The five constructions that lift an Omega-indexed structure to one
structure on a tensor product with the semigroup algebra (the algebra
L (x) K-Omega, the identity family, the collapsed operator, the NS algebra
on A (x) K-Omega and the Nijenhuis context) are reduced to the SHA-256 of
the `repr` of what they return, the same digest as the law references.
The `repr` shows every entry with its type, so a moved coordinate, a lost
sign or an `int` that became a `Fraction` changes the digest.

The inputs are the zero algebra of dim 2, and A1 and A2, each also written
in a seeded random basis (dense, `Fraction`-valued structure constants), over
the trivial semigroup, the two-element semigroup and the cyclic group of
order 3; the collapse and the NS algebra also run on identity families with
V in a random basis; and the Nijenhuis context runs on the valid Nijenhuis
families of the law references and on two over S2 whose matrices differ
between the elements, whose contexts the collapse and the NS algebra take
as inputs too.

To see what changed after a deliberate change of a construction, print
`CASES[name]()` for the failing case.
"""
import random

import pytest

from lyfam import linalg as la
from lyfam.ly import (Cocycle23, Representation, ly_from_lie,
                      ly_tensor_semigroup, zero_cocycle, zero_ly)
from lyfam.nsfamily import ns_from_twisted_rb, ns_tensor_semigroup
from lyfam.rbfamily import (TwistedRBContext, bar_operator, identity_family,
                            nijenhuis_induced_context)
from conftest import random_invertible, transport_bilinear
from test_dense_images import change_basis_of_V
from test_law_reference import (A1, A2, S1, S2, Z3, OPERATOR_ALGEBRAS,
                                OPERATOR_KINDS, OPERATOR_SEMIGROUPS, digest,
                                operator_family)


def algebras():
    rng = random.Random(20261018)
    out = {"zero": zero_ly(2), "A1": A1, "A2": A2}
    for name in ("A1", "A2"):
        A = out[name]
        out[name + "-moved"] = ly_from_lie(
            transport_bilinear(A.binary, random_invertible(rng, A.dim, 12)))
    return out


ALGEBRAS = algebras()
SEMIGROUPS = {"S1": S1, "S2": S2, "Z3": Z3}
CASES = {}
# the NS family check that ns_tensor_semigroup runs first takes 1.5 to 16 s
# on these inputs, where the lift itself takes milliseconds
SLOW_NS_INPUTS = {"A2-Z3", "A2-moved-S2", "A2-moved-Z3", "A1-moved-Z3",
                  "A2-S2-V-moved", "A2-Z3-V-moved", "A1-Z3-V-moved"}


def _v_moved(A, s, seed):
    ctx = identity_family(A, s)
    return change_basis_of_V(
        ctx, random_invertible(random.Random(seed), ctx.dimV, 12))


for _aname, _A in ALGEBRAS.items():
    for _sname, _s in SEMIGROUPS.items():
        _key = "%s-%s" % (_aname, _sname)
        CASES["ly_tensor_semigroup/" + _key] = (
            lambda A=_A, s=_s: ly_tensor_semigroup(A, s))
        CASES["identity_family/" + _key] = (
            lambda A=_A, s=_s: identity_family(A, s))
        CASES["bar_operator/" + _key] = (
            lambda A=_A, s=_s: bar_operator(identity_family(A, s)))
        if _key not in SLOW_NS_INPUTS:
            CASES["ns_tensor_semigroup/" + _key] = (
                lambda A=_A, s=_s: ns_tensor_semigroup(
                    ns_from_twisted_rb(identity_family(A, s))))
        if "moved" in _aname or _sname == "S1":
            continue
        CASES["bar_operator/%s-V-moved" % _key] = (
            lambda A=_A, s=_s, k=_key: bar_operator(_v_moved(A, s, k)))
        if _key + "-V-moved" not in SLOW_NS_INPUTS:
            CASES["ns_tensor_semigroup/%s-V-moved" % _key] = (
                lambda A=_A, s=_s, k=_key: ns_tensor_semigroup(
                    ns_from_twisted_rb(_v_moved(A, s, k))))


# the Nijenhuis families of the law references that pass their check
for _aname, _A in OPERATOR_ALGEBRAS:
    for _sname, _s in OPERATOR_SEMIGROUPS:
        for _kind in OPERATOR_KINDS:
            _key = "%s-%s-%s" % (_aname, _sname, _kind)
            if _kind in ("int", "frac") and _key not in (
                    "A1-S1-int", "A1-S1-frac"):
                continue
            CASES["nijenhuis_induced_context/" + _key] = (
                lambda A=_A, s=_s, kind=_kind, seed=_key:
                nijenhuis_induced_context(
                    A, s, operator_family(A, s, kind, seed)))


# Nijenhuis families over S2 whose matrices differ between the elements:
# the induced theta, and the curly and square of the NS family of the
# induced context, then depend on the elements and on their order
_O2, _I2, _O3, _I3 = la.zeros(2, 2), la.identity(2), la.zeros(3, 3), \
    la.identity(3)
SPLIT_FAMILIES = {
    "A1-S2-zero-identity": (A1, [_O2, _I2]),
    "A1-S2-identity-zero": (A1, [_I2, _O2]),
    "A1-S2-triangular": (A1, [[[-1, -1], [0, -1]], [[-1, 1], [0, -1]]]),
    "A2-S2-zero-identity": (A2, [_O3, _I3]),
    "A2-S2-identity-zero": (A2, [_I3, _O3]),
}
for _key, (_A, _N) in SPLIT_FAMILIES.items():
    def _context(A=_A, N=_N):
        return nijenhuis_induced_context(A, S2, N)

    CASES["nijenhuis_induced_context/" + _key] = _context
    CASES["bar_operator/nijenhuis-" + _key] = (
        lambda f=_context: bar_operator(f()))
    CASES["ns_tensor_semigroup/nijenhuis-" + _key] = (
        lambda f=_context: ns_tensor_semigroup(ns_from_twisted_rb(f())))


def nilpotent_theta_context(s, seed):
    """The zero algebra of dim 2 acting on V of dim 2 by rho = 0 and
    theta(e_i, e_j) = c_ij E_01, twisted by Gamma1(e_0, e_1) = g u_0, and a
    family T_alpha that kills u_0.  Every product of two thetas is 0 and
    T_alpha kills every value of theta, D and Gamma1, so the laws hold for
    any c_ij, g and T_alpha(u_1).  With them random, theta, the NS curly
    and the NS vee depend on the order of their arguments."""
    rng = random.Random(seed)
    g = rng.choice((-2, -1, 1, 2))
    theta = [[[[0, rng.choice((-2, -1, 1, 2))], [0, 0]] for _ in range(2)]
             for _ in range(2)]
    gamma1 = [[[0, 0], [g, 0]], [[-g, 0], [0, 0]]]
    family = [[[0, rng.randint(-2, 2)], [0, rng.randint(-2, 2)]]
              for _ in s.elements]
    return TwistedRBContext(
        zero_ly(2), Representation(2, [la.zeros(2, 2)] * 2, theta),
        Cocycle23(gamma1, zero_cocycle(2, 2).gamma2), s, family)


for _sname, _s in (("S2", S2), ("Z3", Z3)):
    _key = "nilpotent-theta-" + _sname
    CASES["bar_operator/" + _key] = (
        lambda s=_s, k=_key: bar_operator(nilpotent_theta_context(s, k)))
    CASES["ns_tensor_semigroup/" + _key] = (
        lambda s=_s, k=_key: ns_tensor_semigroup(
            ns_from_twisted_rb(nilpotent_theta_context(s, k))))


# recorded from the hand-written constructions, before they shared one
# joint-label table builder
EXPECTED = {
    'bar_operator/A1-S1':
        '0fb1a735657d3815529e00f73d3c0728b251f9b2af5ccc7c425eafd3b0c4ebc4',
    'bar_operator/A1-S2':
        '7a9e71f97ca373fb174118e15b1de659fca37379261582c055fa6c57cd46ffa6',
    'bar_operator/A1-S2-V-moved':
        '4687e0b8aa5260e0aa09368f7af859a0c404c5f7270b90fa62dc1336c88c8b85',
    'bar_operator/A1-Z3':
        '38f231b9739f5e62f99c13c6d572b7cae0c0897c85e3c834f8ff5e9e5a07b251',
    'bar_operator/A1-Z3-V-moved':
        'efa40d9255e7c88452b00901c8d62dd25fb5e5e7deecc87a9fef7af78ae6c943',
    'bar_operator/A1-moved-S1':
        '68cf1c7d2c383fe68f4cc8d5406094ac25f2a615d6e524b7b9d6bb47fbd75a5f',
    'bar_operator/A1-moved-S2':
        '5a51ba1dfee4264b6a63f020a753b049c381950ae311cf41dad288da1e3d9bd8',
    'bar_operator/A1-moved-Z3':
        '4cc838dc88e58ec40a7bafe7515badfa01a10e0b162dde96ad56db514d06ce2d',
    'bar_operator/A2-S1':
        'b06d46bddb47601a95ef517b519b588b008b3409cc0b6d9108e3cec1dfb4f73d',
    'bar_operator/A2-S2':
        'f43f748ac33586a1dc17d54eec87ed6b45c014edc4854de9eff255d1357fa255',
    'bar_operator/A2-S2-V-moved':
        '0caf2b0f03bee42897be25011065cfcc50b843f0def214ec5c61684806ef7493',
    'bar_operator/A2-Z3':
        '49c6d51e0215c3ddca79b6117ffe9f4b305c8e861df1169b5571e88f8bc13fe1',
    'bar_operator/A2-Z3-V-moved':
        '5d1ee1388b8ccf852474adc936ebd8b8092488d37f0158915a3811d9dbf70588',
    'bar_operator/A2-moved-S1':
        'f1468a7bda7bbff276452271c36cc6fe4bb0657b434cae86f6c971c0cb03b9d4',
    'bar_operator/A2-moved-S2':
        'e84b4ca0d7d4e06537ca6341acd889c89d0b84008935bd4bc82ae9b4e5b68dab',
    'bar_operator/A2-moved-Z3':
        'c7b787423c20557b4b6110d3b4650a602ad4cc7161ecd2de1682b8c402288a73',
    'bar_operator/nijenhuis-A1-S2-identity-zero':
        '3d051ce2d10713178050b2ceb9d1745a3c6d9e258f9d36c0d05630578061ca0e',
    'bar_operator/nijenhuis-A1-S2-triangular':
        '2d13d2d842faa747d64581b035b27fb55329650b760349d5d5778970e15e04e8',
    'bar_operator/nijenhuis-A1-S2-zero-identity':
        '205b3ee1f0a7a7ab86a7bcebaab466d6c9b6a618e791b8cd723345bfb913c5fe',
    'bar_operator/nijenhuis-A2-S2-identity-zero':
        '2475d6f0e6d1d5b519a454d7b0fb0692da4a2df2f681a5b52c916260da6ac6eb',
    'bar_operator/nijenhuis-A2-S2-zero-identity':
        '039c22a64ee438dd7db85c47c1c7614ab55f52f958be0cbd0b40ba3d7122cca0',
    'bar_operator/nilpotent-theta-S2':
        '79034b14140cff787a36085369bad29321f8cf7944b6a68532c0f050941eebe6',
    'bar_operator/nilpotent-theta-Z3':
        'ca8aaf4072dc16ea5b5f693c13216e085e85a4d7b5e71bf34cd312bb4ba5491a',
    'bar_operator/zero-S1':
        'f2864ebc014044008160533d89fd42aed6ea6888ba19b633aeaa74f02a29b387',
    'bar_operator/zero-S2':
        '43b712cb7c5112e5c09ff253638df6989bbb1e5ccaa21edf9ef8819ca0e03684',
    'bar_operator/zero-S2-V-moved':
        '734291588e8b44a6e2475f6725f2f0f2dc64cb49def5cd353f25a60c7b620c7e',
    'bar_operator/zero-Z3':
        '52b54e63ec3f972095cdf396aba8a25794f0d419c705b0c24a38fe756b2a6d4a',
    'bar_operator/zero-Z3-V-moved':
        'c45dac571c12a9b116440c49bbefb27647665c910152d5bf72eb8467aca69982',
    'identity_family/A1-S1':
        '0fb1a735657d3815529e00f73d3c0728b251f9b2af5ccc7c425eafd3b0c4ebc4',
    'identity_family/A1-S2':
        '6d3da000d2e9a5fa961461a9f29f67e6960c1da498fca4bb6bcec7a7ccdb0465',
    'identity_family/A1-Z3':
        '84255c9c80abd99d3e83cd536f87edfca6c91e8f80b3d3a4d29969a34fef5abe',
    'identity_family/A1-moved-S1':
        '68cf1c7d2c383fe68f4cc8d5406094ac25f2a615d6e524b7b9d6bb47fbd75a5f',
    'identity_family/A1-moved-S2':
        'a051e076448c18a48b6c3edb54841dbbcccfef8be9ddadd245cf34cd8a8f82b1',
    'identity_family/A1-moved-Z3':
        '2a481b6220f03d0b48626a582bcee46f75fe873c9ca28ca6d95e62bb3b11db9a',
    'identity_family/A2-S1':
        'b06d46bddb47601a95ef517b519b588b008b3409cc0b6d9108e3cec1dfb4f73d',
    'identity_family/A2-S2':
        'fd07781d85f8ca7b2285f2997f6f90ec17f1f309a801d97df75c71facb940303',
    'identity_family/A2-Z3':
        '2afaee29db335ce4f25a3f33516468631d77a1f5be4f7bde96b13f522d5b38e0',
    'identity_family/A2-moved-S1':
        'b7a8b23a233ab7464b079813560c19b7ea1752811c1a141f5b8bc5a89ee6d26e',
    'identity_family/A2-moved-S2':
        'b1bb4d6ad173f8922714c3b390331760abd84fe0c2a9b365d91896ac2e185948',
    'identity_family/A2-moved-Z3':
        'fe57c7a6bffe7906aa8a1fc3fe75dfa8389f29d7fd9abbd151630e522d895826',
    'identity_family/zero-S1':
        'f2864ebc014044008160533d89fd42aed6ea6888ba19b633aeaa74f02a29b387',
    'identity_family/zero-S2':
        '37544e3fa6099a4383e324a12658e13c3ed35550e7ea46857cff18a8d5407243',
    'identity_family/zero-Z3':
        '7cd60773b9a75eac07798e069705dcf0ae5b28e836cd4f3a03c538cca4a139e9',
    'ly_tensor_semigroup/A1-S1':
        'a21231ab088ace8cee1cfe45f2cfff8003e819052a75fdca958766895e5da7cf',
    'ly_tensor_semigroup/A1-S2':
        '5b30442d57bb2c445697bc663626d45e0e50b7876a96fce58134bd3e03c6156b',
    'ly_tensor_semigroup/A1-Z3':
        '0c865505cfedcac517aac655eced44fd10aa912fd055d6a1b4acf036dd4dbe2f',
    'ly_tensor_semigroup/A1-moved-S1':
        '3c98c32717694a4f8200422ccb80363474ba7294e5c72ba8d61fd6717a2d4a06',
    'ly_tensor_semigroup/A1-moved-S2':
        '3bcca7d93e3c146f65ab2f8b30139c5a7b446b5cb701f96701da0c8fe41536df',
    'ly_tensor_semigroup/A1-moved-Z3':
        '9fc3c4863167c0b74edff12b888bd68254bee0e2e523089921da6dffbf23ea01',
    'ly_tensor_semigroup/A2-S1':
        '9ddbb65308b83193808ce81461108e3a4585ac103facfe7e3a14eb04bdd5b5aa',
    'ly_tensor_semigroup/A2-S2':
        '1cb0f10d4db598fb8308226f1d57397212453db2e8c553a288030515374e1db3',
    'ly_tensor_semigroup/A2-Z3':
        '9450f259a5decd089a42432c70007862532af04232e50ed5f692447adb9e3fc4',
    'ly_tensor_semigroup/A2-moved-S1':
        '68bf4e007c1203cb906a4bf5026d79b94cd3e5262eee38e608ca2b8bd0e15e92',
    'ly_tensor_semigroup/A2-moved-S2':
        '6064b9e97eb1aab1a539611965eef24cb376350a2165265bb167e80d8b975edf',
    'ly_tensor_semigroup/A2-moved-Z3':
        '8e6a211e2edfdfafdff241dbabd60a963f9b410983995fc0e0809bdb765b4b9d',
    'ly_tensor_semigroup/zero-S1':
        'fddef89a7eace83db9d21f1c0bce2c9bdecaee66775af9913f27df4d990c1f75',
    'ly_tensor_semigroup/zero-S2':
        'e3645e7057ae7d07bfbca0ecedef1c3d4731697f37c7d3f62a7fab409dc29a5e',
    'ly_tensor_semigroup/zero-Z3':
        'b14948bc25aad4b5a20b9096950e64ac171d5ac7a9fac4c436e2d18ec28e3840',
    'nijenhuis_induced_context/A1-S1-frac':
        '18e55fd753757adad8c166b64c1de543d94d86e82ad343a20a5367566aa579d2',
    'nijenhuis_induced_context/A1-S1-identity':
        '0fb1a735657d3815529e00f73d3c0728b251f9b2af5ccc7c425eafd3b0c4ebc4',
    'nijenhuis_induced_context/A1-S1-int':
        'ea28be5151f8a806978048339b47ca55fc68aef58e38cd1c7cb5ef9fe3daef53',
    'nijenhuis_induced_context/A1-S1-zero':
        'f2864ebc014044008160533d89fd42aed6ea6888ba19b633aeaa74f02a29b387',
    'nijenhuis_induced_context/A1-S2-identity':
        '6d3da000d2e9a5fa961461a9f29f67e6960c1da498fca4bb6bcec7a7ccdb0465',
    'nijenhuis_induced_context/A1-S2-identity-zero':
        '268face7590c2e73ea67ab49e747bc536d486c0727b1e504acef82d020fa1ed6',
    'nijenhuis_induced_context/A1-S2-triangular':
        'c4558fdb4f51e4d6b8f1491905c066629a0b90d5e612e2f68e284b43463c3292',
    'nijenhuis_induced_context/A1-S2-zero':
        '37544e3fa6099a4383e324a12658e13c3ed35550e7ea46857cff18a8d5407243',
    'nijenhuis_induced_context/A1-S2-zero-identity':
        '40dcfa9345dfbc12986a78d8cb552c685d189118a20a5dd18b61486980088599',
    'nijenhuis_induced_context/A1-W2-identity':
        'e527931f8f22e8aebffbdc0ed0e9edd670330e9f5376ee36ee7915025c22f7ad',
    'nijenhuis_induced_context/A1-W2-zero':
        '4bd72151048f0325c97758e276ddf6dab177895d9822f87229845323a0edc270',
    'nijenhuis_induced_context/A2-S1-identity':
        'b06d46bddb47601a95ef517b519b588b008b3409cc0b6d9108e3cec1dfb4f73d',
    'nijenhuis_induced_context/A2-S1-zero':
        'd2ca90c0469097e4b264bbeb24119456f60a5c70154ab55317aa62572dd3be8a',
    'nijenhuis_induced_context/A2-S2-identity':
        'fd07781d85f8ca7b2285f2997f6f90ec17f1f309a801d97df75c71facb940303',
    'nijenhuis_induced_context/A2-S2-identity-zero':
        '3a905b6ba3d24c6b147ea085a461b624e5873edf78e57bf25bec78d8c21ebbb5',
    'nijenhuis_induced_context/A2-S2-zero':
        'd66ddd8d2c6a830eed4e91742a6d9f772af0e813abbf6245e713f6c0bc85a11f',
    'nijenhuis_induced_context/A2-S2-zero-identity':
        'a523ef2c6f8de19da3b5ebe35d1726b537994e144528271b97d76ee839bc7e28',
    'nijenhuis_induced_context/A2-W2-identity':
        'ed348ca92bb82302c27f57a641e98226d0783baf994d81b6a9163fbae42b17ad',
    'nijenhuis_induced_context/A2-W2-zero':
        '05795e711119f447526a4ad7f0a2f8b7f36ec21bf327285774cb015689140e17',
    'ns_tensor_semigroup/A1-S1':
        '6abdc88277a668b37ec93f9d305c4084c0c798b23f4832cac3b25ce23a6b245f',
    'ns_tensor_semigroup/A1-S2':
        '78546ae8ee63ca3b5060ba9a7c34e905c0e8c0b521e0a02edf14eefd8bda4fd1',
    'ns_tensor_semigroup/A1-S2-V-moved':
        '2e8f9e739dcfbbeae005a6824799932b0a677f61c8f1478138e60a0999c97c68',
    'ns_tensor_semigroup/A1-Z3':
        'a5f073be595fd882a3e6ca315bb4fe60f08cb230db74bd08b3ab83d34f93b769',
    'ns_tensor_semigroup/A1-moved-S1':
        '3744476d9c63e44ffbfcbf6a92191ab3b081f49f9d0e3481f4be82554ae04950',
    'ns_tensor_semigroup/A1-moved-S2':
        '1355773e828207a60954ccac7c92bf8a74bc3c2edbde3bca43f5fb67c7c205d9',
    'ns_tensor_semigroup/A2-S1':
        '02fe390813744d0fc271e679544b60ed54768d57ee3e92c9e8e50f56f9e1e89f',
    'ns_tensor_semigroup/A2-S2':
        '521d3a4b03c8858530001b3b6d1f267c8a47856c39627683c4ed4f8a8cb7d383',
    'ns_tensor_semigroup/A2-moved-S1':
        '93e8250e7f715b0477597bf307210340414bb4128c01e75260bfba5d6a32794d',
    'ns_tensor_semigroup/nijenhuis-A1-S2-identity-zero':
        'c0b8731f551e3593a1d4e55f6b8753bcae3a71561c0800960ce106235ac8e9b8',
    'ns_tensor_semigroup/nijenhuis-A1-S2-triangular':
        '3beef383131fa311f1a896c2e09d81e6224600fb4e752dc4e5e2cf75a90601a6',
    'ns_tensor_semigroup/nijenhuis-A1-S2-zero-identity':
        'be7cb235270ece25131eaaa5e73432456907c8d470c81e37bb98cb4faec572af',
    'ns_tensor_semigroup/nijenhuis-A2-S2-identity-zero':
        '966e702b79db09786b4978080d6f96b91ac3e583218ec247b9edca40f013f79c',
    'ns_tensor_semigroup/nijenhuis-A2-S2-zero-identity':
        'e33255273c858d28a077aed6d4b686b3d06dc314b3b9befffa9715553bbee4fd',
    'ns_tensor_semigroup/nilpotent-theta-S2':
        '9747abc6eb94f8fa1442a931c4123ef5f068c65313bfc89e35c72caf0ad6a5c0',
    'ns_tensor_semigroup/nilpotent-theta-Z3':
        '32428e8d718e6f0735309b8d40ff6ad35563f2a62e5d165e8c0b2b1ee9e847e6',
    'ns_tensor_semigroup/zero-S1':
        'cd8ed67a5d37ba7997ff601d8534d17123cbec78f78d0323c76cfbbcea2ba58f',
    'ns_tensor_semigroup/zero-S2':
        '0db6b0650574b2963ddb7538d2c5c5a84448736cb4f36170963951a44b0b4941',
    'ns_tensor_semigroup/zero-S2-V-moved':
        '0db6b0650574b2963ddb7538d2c5c5a84448736cb4f36170963951a44b0b4941',
    'ns_tensor_semigroup/zero-Z3':
        'd03ab1cf591597ad7ab68080e48f84d1d3bfd9a1e63270e22028bf868799c7d9',
    'ns_tensor_semigroup/zero-Z3-V-moved':
        'd03ab1cf591597ad7ab68080e48f84d1d3bfd9a1e63270e22028bf868799c7d9',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_matches_reference(name):
    assert digest(CASES[name]()) == EXPECTED[name]
