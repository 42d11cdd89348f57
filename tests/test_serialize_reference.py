"""Every JSON writer's output and every loader's result on fixed inputs,
against digests, and every malformed-input message of the sparse entries.

Each writer case reduces the dict a `*_to_json` returns to the SHA-256 of
its `json.dumps`, so a moved entry, a changed entry order or a changed
scalar string changes the digest.  Each loader case reads that dict back
and reduces what the loader returns to the SHA-256 of its `repr`, the
digest of the law references, which shows whether a scalar is an `int` or
a `Fraction`.  The inputs are the identity families of A1 and A2 over the
trivial semigroup, the two-element semigroup and the cyclic group of order
3, each also with V in a seeded random basis (`Fraction` entries in the
representation, the cocycle, the family and everything built on them);
the two algebras in a seeded random basis; and a seeded degree-1 cochain
with `Fraction` entries on each context.

The message cases put one bad entry into a valid file of each kind, under
each key that holds sparse entries, and pin the `MalformedInputError`
message word for word.

To see what changed after a deliberate change of a format, print
`WRITERS[name]()` or `LOADERS[name]()` for the failing case.
"""
import copy
import hashlib
import json
import random
from fractions import Fraction

import pytest

from lyfam import serialize as sz
from lyfam.cohomology import induced_omega_ly_on_V
from lyfam.errors import MalformedInputError
from lyfam.ly import ly_from_lie
from lyfam.nsfamily import ns_from_twisted_rb
from lyfam.omega import skew_basis
from lyfam.rbfamily import identity_family
from conftest import random_invertible, transport_bilinear
from test_dense_images import change_basis_of_V
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
    return out


def degree_one_cochain(ctx, seed):
    """A degree-1 cochain with entries 0, +-1, +-1/2 and 2."""
    rng = random.Random(seed)
    bas = skew_basis(1, (ctx.dimV, ctx.dimL), ctx.semigroup)
    return bas.combine([rng.choice((0, 0, 1, -1, Fraction(1, 2),
                                    Fraction(-1, 2), 2))
                        for _ in range(bas.size)])


CONTEXTS = contexts()
MOVED = {"%s-moved" % name: ly_from_lie(transport_bilinear(
    A.binary, random_invertible(random.Random(name), A.dim, 12)))
    for name, A in (("A1", A1), ("A2", A2))}

# name -> the dict a writer returns; kind/key -> the loader that reads it
WRITERS = {}
LOADER_OF = {
    "ly": sz.ly_from_json, "representation": sz.representation_from_json,
    "cocycle": sz.cocycle_from_json, "context": sz.context_from_json,
    "direction": sz.direction_from_json, "ns-family": sz.ns_family_from_json,
    "omega-ly": sz.omega_ly_from_json, "cochain-1": sz.cochain_from_json}

for _key, _ctx in CONTEXTS.items():
    WRITERS["ly/" + _key] = lambda c=_ctx: sz.ly_to_json(c.algebra)
    WRITERS["representation/" + _key] = (
        lambda c=_ctx: sz.representation_to_json(c.rep, c.dimL))
    WRITERS["cocycle/" + _key] = (
        lambda c=_ctx: sz.cocycle_to_json(c.cocycle, c.dimL, c.dimV))
    WRITERS["context/" + _key] = lambda c=_ctx: sz.context_to_json(c)
    WRITERS["direction/" + _key] = (
        lambda c=_ctx: sz.direction_to_json(c.family))
    WRITERS["ns-family/" + _key] = (
        lambda c=_ctx: sz.ns_family_to_json(ns_from_twisted_rb(c, check=False)))
    WRITERS["omega-ly/" + _key] = (
        lambda c=_ctx: sz.omega_ly_to_json(
            induced_omega_ly_on_V(c, check=False)))
    WRITERS["cochain-1/" + _key] = (
        lambda c=_ctx, k=_key: sz.cochain_to_json(degree_one_cochain(c, k)))
for _key, _A in MOVED.items():
    WRITERS["ly/" + _key] = lambda A=_A: sz.ly_to_json(A)

LOADERS = {name: (lambda name=name: LOADER_OF[name.split("/")[0]](
    WRITERS[name]())) for name in WRITERS}


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# malformed entries

def files():
    """A valid JSON object of each kind: (object, how it is read)."""
    ctx = CONTEXTS["A1-S2"]
    bilinear = {"kind": "bilinear", "dim": 2,
                "entries": [[0, 1, 0, "1"], [1, 0, 0, "-1"]]}
    return {
        "ly": (sz.ly_to_json(A1), sz.ly_from_json),
        "representation": (sz.representation_to_json(ctx.rep, ctx.dimL),
                           sz.representation_from_json),
        "cocycle": (sz.cocycle_to_json(ctx.cocycle, ctx.dimL, ctx.dimV),
                    sz.cocycle_from_json),
        "context": (sz.context_to_json(ctx), sz.context_from_json),
        "direction": (sz.direction_to_json(ctx.family),
                      sz.direction_from_json),
        "ns-family": (sz.ns_family_to_json(ns_from_twisted_rb(ctx)),
                      sz.ns_family_from_json),
        "omega-ly": (sz.omega_ly_to_json(induced_omega_ly_on_V(ctx)),
                     sz.omega_ly_from_json),
        "bilinear": (bilinear, None),
    }


# kind -> (key, number of indices, dims) of each sparse tensor of A1 over
# S2 (dim L = 4, dim V = 2, order 2) and of the 2-dim files
TENSORS = {
    "ly": [("binary", 3, (2, 2, 2)), ("ternary", 4, (2, 2, 2, 2))],
    "representation": [("rho", 3, (4, 2, 2)), ("theta", 4, (4, 4, 2, 2))],
    "cocycle": [("gamma1", 3, (4, 4, 2)), ("gamma2", 4, (4, 4, 4, 2))],
    "context": [("family", 3, (2, 4, 2))],
    "direction": [("family", 3, (2, 4, 2))],
    "ns-family": [("bullet", 4, (2, 2, 2, 2)), ("vee", 5, (2, 2, 2, 2, 2)),
                  ("curly", 6, (2, 2, 2, 2, 2, 2)),
                  ("square", 7, (2, 2, 2, 2, 2, 2, 2))],
    "omega-ly": [("binary", 5, (2, 2, 2, 2, 2)),
                 ("ternary", 7, (2, 2, 2, 2, 2, 2, 2))],
    "bilinear": [("entries", 3, (2, 2, 2))],
}


def bad_entries(k, dims):
    """(case, entries appended to the valid ones) for k indices."""
    z = [0] * k
    return {
        "last-out-of-range": [z[:-1] + [dims[-1], "1"]],
        "first-negative": [[-1] + z[1:] + ["1"]],
        "string-index": [["0"] + z[1:] + ["1"]],
        "float-index": [z[:-1] + [1.0, "1"]],
        "bool-index": [z[:-1] + [True, "1"]],
        "short": [z[:-1] + ["1"]],
        "long": [z + [0, "1"]],
        "not-a-list": ["0"],
        "bad-rational": [z + ["x"]],
        "zero-denominator": [z + ["1/0"]],
    }


def load_bad(tmp_path, kind, key, appended=None, replaced=None):
    """The message of reading the valid file of kind with entries appended
    under key (or key's entries replaced)."""
    d, load = copy.deepcopy(FILES[kind])
    if replaced is not None:
        d[key] = replaced
    else:
        d[key] = list(d.get(key, [])) + appended
    if load is None:
        path = tmp_path / "bilinear.json"
        path.write_text(json.dumps(d))
        load = lambda _: sz.load_object(str(path), "bilinear")  # noqa: E731
    with pytest.raises(MalformedInputError) as err:
        load(d)
    return str(err.value)


FILES = files()
MESSAGE_CASES = {}
for _kind, _tensors in TENSORS.items():
    for _key, _k, _dims in _tensors:
        for _case, _ents in bad_entries(_k, _dims).items():
            MESSAGE_CASES["%s/%s/%s" % (_kind, _key, _case)] = dict(
                kind=_kind, key=_key, appended=_ents)
        MESSAGE_CASES["%s/%s/entries-not-a-list" % (_kind, _key)] = dict(
            kind=_kind, key=_key, replaced={})
for _key, _k in (("binary", 3), ("ternary", 4)):
    _half = [1, 0] + [0] * (_k - 2) + ["1"]
    _out = [0, 0] + [0] * (_k - 3) + [2, "1"]
    MESSAGE_CASES["ly/%s/outside-half" % _key] = dict(
        kind="ly", key=_key, replaced=[_half])
    MESSAGE_CASES["ly/%s/outside-half-then-out-of-range" % _key] = dict(
        kind="ly", key=_key, replaced=[_half, _out])
    MESSAGE_CASES["ly/%s/out-of-range-then-outside-half" % _key] = dict(
        kind="ly", key=_key, replaced=[_out, _half])
# a degree-1 cochain entry is [alphas, args, coeff, value] (order 2, dim V
# 2, dim L 4)
_COCHAIN = {
    "alpha-out-of-range": [[2], [0], 0, "1"],
    "arg-out-of-range": [[0], [2], 0, "1"],
    "coeff-out-of-range": [[0], [0], 4, "1"],
    "string-arg": [[0], ["0"], 0, "1"],
    "wrong-arity": [[0, 0], [0, 0], 0, "1"],
    "short": [[0], [0], "1"],
    "bad-rational": [[0], [0], 0, "x"],
}
FILES["cochain-1"] = (sz.cochain_to_json(
    degree_one_cochain(CONTEXTS["A1-S2"], "A1-S2")), sz.cochain_from_json)
for _case, _ent in _COCHAIN.items():
    MESSAGE_CASES["cochain-1/entries/" + _case] = dict(
        kind="cochain-1", key="entries", appended=[_ent])
MESSAGE_CASES["cochain-1/entries/entries-not-a-list"] = dict(
    kind="cochain-1", key="entries", replaced={})


# recorded before the writers and loaders moved onto one entry codec
EXPECTED_JSON = {
    'cochain-1/A1-S1':
        'e73843b0300330ba5183ddc8aadef221795dd4745956796d178064f28fe733a0',
    'cochain-1/A1-S1-V-moved':
        '9a6fc87da73161b644b5964366f9acec33f852b5542f25d4b19ab0be51ba52e0',
    'cochain-1/A1-S2':
        'ddaa647ffc2aacc9b739414194ad42a491a679d6054453b39ddf0cc1b9aba830',
    'cochain-1/A1-S2-V-moved':
        '507c0364379828f18be31d9e5f87f9c4ea19cd20de1fa0c3e5856c91edccf643',
    'cochain-1/A1-Z3':
        '24915a5fe41ac2e98bcc73a11b3d45a31dc127c9ae7532cee8f61f2e5fd7c810',
    'cochain-1/A1-Z3-V-moved':
        '85fbe565785a20b20b1a8acce0fc862c2aa851f1c1fec4a392523899142d5c00',
    'cochain-1/A2-S1':
        '9f87cb67c9050cca3f450476f20cf6954e92b6e1a28d6aadb48e22b7c316cc80',
    'cochain-1/A2-S1-V-moved':
        '1a490e3206f1b56c06755b5ad6a5cd61ada37cd4aaf203e616683780d3f9329b',
    'cochain-1/A2-S2':
        '6330ef40bdb99d6d9370a43fc4f7cbd80098ca35c65ccadf26c0ee3e31e76ea1',
    'cochain-1/A2-S2-V-moved':
        'd3ae46a0d2cc521c329ffc67fec03b98d2d4d7c7330bd8b6548cad759456909b',
    'cochain-1/A2-Z3':
        '1802dcb07843a1023acdfdb40f4a4647dfaae1a5181b3756aba90267d870fedf',
    'cochain-1/A2-Z3-V-moved':
        'cab11cdda76762b8984f53e3c198b5fef6ef6cc508f7d857662b4fb467341bc5',
    'cocycle/A1-S1':
        '54fcf160c69297a30a15d46b9ef041449a3f3e15dd2d007f9804ae0a484fbbf2',
    'cocycle/A1-S1-V-moved':
        'b838d296d06fa626d4e712b62d049a9fe8bceaac61a669011d1f52c3b4b15c9b',
    'cocycle/A1-S2':
        '7cc72a401e3c787dfbbc85ee8169912eb8fb6838c1b84b62f25fc731928f30e0',
    'cocycle/A1-S2-V-moved':
        '0d015ffdeb0fe6711a14efec9266c7f3bb653f20d42244ce5a98493f6474dca6',
    'cocycle/A1-Z3':
        'a34e636bb9e37fcbf8134aaf3eae813704ac91b55751cea0dc015d095fb78ec9',
    'cocycle/A1-Z3-V-moved':
        '03b193334785c501326dfa8ef74ca9027b71a1cd8e92fcfbc0ff31b9c7b6d42f',
    'cocycle/A2-S1':
        'e16f36609ab98e97a5aaee49623f140408347060646468076b23325577b872f3',
    'cocycle/A2-S1-V-moved':
        '390fd8176cad4158fa5364cdccb22a06d4677a8871a2ec42496b6e346e28ba65',
    'cocycle/A2-S2':
        '9227da703a7787482e1ff9c1a1acbed0995f957ae5da95399193c9c8cc3c3221',
    'cocycle/A2-S2-V-moved':
        'c0434d533a8ec12ca1c94c99a43739c85c9e48a7de116676d0dc50f59ece442f',
    'cocycle/A2-Z3':
        '363b0122eec8faf228befd937d06a958fb63969a8645d2f87106ef15f64eb75c',
    'cocycle/A2-Z3-V-moved':
        '0a3b9396783b2cd92fc4d9be533fa62c39485615352b2a38245a0b2a31dcd941',
    'context/A1-S1':
        'a974be5d32521cfe99db5dca24cbf81c27d424ce0ed4c213929eb1b1766f4354',
    'context/A1-S1-V-moved':
        'c102991f1bedeed45bbe10699b67877a1100f86db1d2e171adad219b68c4b87a',
    'context/A1-S2':
        '6008ea0e54412b6bf21c8bac62869f3546f2e8818f205c9e1f0014c8b74fc532',
    'context/A1-S2-V-moved':
        'cb7c984dc261f18d80d3dc855765ed6e0ef886aefc8b7624feb1a5d1d45e31be',
    'context/A1-Z3':
        '2e34d8f17d15845a70b0edf1d88b688865e2105ead67d692031a97a24979f80b',
    'context/A1-Z3-V-moved':
        '3d80901946c5db661156db0cc20d288348e9cb02aa159f4f10f871c492ee22ba',
    'context/A2-S1':
        '7578ca77c1a7f09ec5f451c4ee94431ee111316793f806ae931fca07b0c0c138',
    'context/A2-S1-V-moved':
        '5efda65ceee07d43df7bfa4a98a25685115af8331cbcfe633e240a65192b7135',
    'context/A2-S2':
        '34f45e9b207ce41109d6946161d48cf523fe524e652c86496ddee32123e5093f',
    'context/A2-S2-V-moved':
        '236456d3de3cb72b0ceac847cdc5efe849b6094890749359563ee259f37bd20a',
    'context/A2-Z3':
        '4a8d29a5d0fe683521632d5952efdc3333bf04a83aaf2104d363cf0428fe7be6',
    'context/A2-Z3-V-moved':
        '9e7906b0d037af14b2ae4dbcddc2bf88212932d1acde6f29079f721d150d0131',
    'direction/A1-S1':
        '4b764ad65958b0e694409b5fd35b92bd8a33356750c9e7ba852b9096d5d4e11f',
    'direction/A1-S1-V-moved':
        '0c4eb50f63946264253ecae8f50a4329aab34d9fe82e74a37e92aa9da80d633a',
    'direction/A1-S2':
        '4b4adf4e0187ad60ad3ec544204f376f9906d1d3ada33c23ee40db78340238ca',
    'direction/A1-S2-V-moved':
        'eeb2731e60c0e21f006e56890d5b710f1664ff8fe3bae7e3dea11ff036e4c0a2',
    'direction/A1-Z3':
        '89a0d9db2d28b4c8fec426a31316e83a6e364e1bf170963e996eab89234d9910',
    'direction/A1-Z3-V-moved':
        '9439150507f1c476751ae5dc1f35f1466faf83069f518d8a90ff1db5114d3386',
    'direction/A2-S1':
        '8964491bbc46dc5343f85862b083dcd7031d7ee8888ebdd02da12f74aedf9040',
    'direction/A2-S1-V-moved':
        'e04bba9b128936cbdeb317f1349ab0690c2100339a3afc3631325654417884d5',
    'direction/A2-S2':
        '3737cf541033235129638c89cfe6525131c026e2a47aeb61f106c3ceba1a80e0',
    'direction/A2-S2-V-moved':
        'e9cb2ebf06c966375418da4f2a9fe0dffe79546fefa17d73ea8540e886ed8e5a',
    'direction/A2-Z3':
        'ccaa077fb5c7aaa4bab836a2a13b2f6586afb98acb59dd014746894bff66d947',
    'direction/A2-Z3-V-moved':
        'fbe8abf6067555e3ec83445287a19d4b5dba3a25836a1f1579f09ce97c11b015',
    'ly/A1-S1':
        '9953c09a6f76d395ff66f84292c4d44ffa7196f4ff8a916ef9b82e9e3a8be11c',
    'ly/A1-S1-V-moved':
        '9953c09a6f76d395ff66f84292c4d44ffa7196f4ff8a916ef9b82e9e3a8be11c',
    'ly/A1-S2':
        '4bb2040c4e582e3337c53de67021fb0dedfe82838405a58a30440531b31f75d8',
    'ly/A1-S2-V-moved':
        '4bb2040c4e582e3337c53de67021fb0dedfe82838405a58a30440531b31f75d8',
    'ly/A1-Z3':
        '4f6a5e15f19992e1b6c878914cde7ea57f33f3e8a31dc9dc8de4e2fb9951bac7',
    'ly/A1-Z3-V-moved':
        '4f6a5e15f19992e1b6c878914cde7ea57f33f3e8a31dc9dc8de4e2fb9951bac7',
    'ly/A1-moved':
        '936b16a7fcabaf37733f38792f8f07434e031dcc712a405852fe077a1b565d59',
    'ly/A2-S1':
        '7e2d22970ff621246ffb664c608f321d8400b910a9937f682f985a68ffd9c429',
    'ly/A2-S1-V-moved':
        '7e2d22970ff621246ffb664c608f321d8400b910a9937f682f985a68ffd9c429',
    'ly/A2-S2':
        'c1decee7758b991919e814ea8a7f8bb2cda4d26dbb6aa68dc3b8836d5e565b76',
    'ly/A2-S2-V-moved':
        'c1decee7758b991919e814ea8a7f8bb2cda4d26dbb6aa68dc3b8836d5e565b76',
    'ly/A2-Z3':
        'f6c15c222c1cba61a99e62d839cd164401744fc2ef122c6be1384adfe7b56a57',
    'ly/A2-Z3-V-moved':
        'f6c15c222c1cba61a99e62d839cd164401744fc2ef122c6be1384adfe7b56a57',
    'ly/A2-moved':
        '798c3fe42093c5a53fc8aab189881615684e58614a31315195e3e16fe1e21d77',
    'ns-family/A1-S1':
        'c8a775971a1cb0459aade602e27328c71375868af81faf8603445cc6e27a026b',
    'ns-family/A1-S1-V-moved':
        '1854cc8bdd8e8f78d4b28a34d1dde38d3395e972084afc7a6c49325b46c2b65c',
    'ns-family/A1-S2':
        '66763a195a608ef8638dd83963be554279f1963cb3cb429c654fdcc11644f707',
    'ns-family/A1-S2-V-moved':
        '03f47f16587c1fb511b5ca3545150164592b28921d82247f899f13f0768b1ead',
    'ns-family/A1-Z3':
        '849d6efeeadde2145d37ad27fa0aab0c4455de73ba4b2193390b0d2d4fc7c613',
    'ns-family/A1-Z3-V-moved':
        'f9b52614beebecf851bc5a78c826823764ccec6b8cf6500cd7c36bd23243ead9',
    'ns-family/A2-S1':
        '69336ec25ccd54cbd4ef329e5cc303e4263b48d3abf795d05d88c954654377c2',
    'ns-family/A2-S1-V-moved':
        '41030560e52910c6a7a3706b82bc5b091517116836e7e652fd8431c62a36f1fd',
    'ns-family/A2-S2':
        '7686a7d80e2a2b9c9bc467179af9b893b23c4d23c0d6cbc20ac7118320f29902',
    'ns-family/A2-S2-V-moved':
        '5f53b4ac0027e9e879bfaa21510d4f0010886166b6e672b39de4d2e98405b90a',
    'ns-family/A2-Z3':
        '85571e0e86e96bc8bdda1c8569ee109360965f418c5441beb6f78f83e48f55f2',
    'ns-family/A2-Z3-V-moved':
        '584461fcbc1d7128020e15bfee82a258c712c344636b4ac40ab7dbddf068c565',
    'omega-ly/A1-S1':
        '95f9fae9948c0a6ea66cb9e8d63b63dc1d7b13c95e14bbfd9729e8b9e4da9bcf',
    'omega-ly/A1-S1-V-moved':
        '53d9da778066c2623c7122730476659ddef9e564d18033905d40563fb912f37c',
    'omega-ly/A1-S2':
        'c26c5efff6f1f3bf0050dda049b5fb072331b2993db058b71d769f07180f506c',
    'omega-ly/A1-S2-V-moved':
        '8ae02dcb15632aaeda5851fe170e98fa660c4f768137e74adc7895bb99e42c4c',
    'omega-ly/A1-Z3':
        'ddb0261243264755528f84bfc6679fec2fba3701c755f8dabcf3c905170fe9e2',
    'omega-ly/A1-Z3-V-moved':
        '85946d6dc5b002b671b841193ee17ac9498a461099222f6d4d742e9fde433e2b',
    'omega-ly/A2-S1':
        'e8d6fe42274f4f843602faac0c2686e6694ecb7867f7318eb6a5a1a7915b89b4',
    'omega-ly/A2-S1-V-moved':
        'e0b062198b1842634099fafa9f7566a4eb68cadb3890cad45282a796d01f4227',
    'omega-ly/A2-S2':
        '965a340bef45d016222eb17a615af72e65ec37a8dede8f851216d3e0aacbff10',
    'omega-ly/A2-S2-V-moved':
        'b1a4117038ccc3b9abcb9724b352002f627dbf5c37b40a6747ca631f36922000',
    'omega-ly/A2-Z3':
        'abe156231ec12921bf39c31560115426fc127a95096b845e864b136af7bf4df7',
    'omega-ly/A2-Z3-V-moved':
        '7dd623151b46856af0d38a9549f762f187a7d32e46dd61cc02cff1dbca1d6dce',
    'representation/A1-S1':
        'dbd33fe801c28101a22ad2d76786220eb47f33a87ede9d22bc7bdaae61cdebbf',
    'representation/A1-S1-V-moved':
        '868494afceaae11fb350d24431f3a23ddad5bb3c2eb3b4e03b8c6070d6a499ea',
    'representation/A1-S2':
        '479326b0c6d64178a32b3d076621266ab36245ff537861a1add08cf642cd28a1',
    'representation/A1-S2-V-moved':
        '74d4edf99bfbe64cc6d6e13c840c63709231abb299554115cda99e395cfea02b',
    'representation/A1-Z3':
        '111e9f1a41a936d69af2af24233a4f080f00cbad7681a2b80f475c6395821bf8',
    'representation/A1-Z3-V-moved':
        '1b3f320b54d69c488a9d3549ddbaa422f6de7db7462ec83185de5dc63e52bdfc',
    'representation/A2-S1':
        '538085cdf13ea8c05fb1d2605e8f138e8d0090fb6721e1e45f1264999aa052e3',
    'representation/A2-S1-V-moved':
        '5f1dc8864a81d19ca513cf11a45246fae6b22dacbe332d516ae8966453c2055b',
    'representation/A2-S2':
        '0bca3869a9ce289ba9f28a672f1f931297c6b66ed3b633698d146bebaa0f2774',
    'representation/A2-S2-V-moved':
        'a83562f85e2fd0238636b0be70ac06750b7c5ccd461e8f27c37b3ba25d54ba15',
    'representation/A2-Z3':
        '151e65f1f54a5b0166f693dbe91c16c92d88580677c891ff85a391e4260516d4',
    'representation/A2-Z3-V-moved':
        'e7786e735b3af11f53315707330ab818436aec7386bb9f10149d6fdf155f0bab',
}
EXPECTED_LOADED = {
    'cochain-1/A1-S1':
        '5a87dcba65879ec3922d67bcce219cc204e4f9f9dea62a2ca0f50a89f0c98b57',
    'cochain-1/A1-S1-V-moved':
        '90bebfa5bacb921a4b2a683da043f67125a687e6a1ec7c2639fb3d56e79c6472',
    'cochain-1/A1-S2':
        '445794084c442fbbb941e7eee78ac87f6a6df71be8b4d5d3993fd045ffdbfaa8',
    'cochain-1/A1-S2-V-moved':
        'c292d4b4dbff1e38be2d7c4bab6e7db7a4cd2bd4be2bc57b2395e2c5dc3d9b1c',
    'cochain-1/A1-Z3':
        '9139555d93f7db6e4dc4a54d4e4376bcf838d6e77acd8403f26f225ec642a09a',
    'cochain-1/A1-Z3-V-moved':
        'c9e62dc3a75568bb17e3a97a5bc35c171831f4a3174636777de87b37d51ef8b5',
    'cochain-1/A2-S1':
        '25d8af3178dbee953c862b742dcc11804b0a64eb609907dcf43a8e801ce0b884',
    'cochain-1/A2-S1-V-moved':
        '4a9870980cb02cae9f3ca7eecee041b1d3d9e387938b8a3c3e24dd325fe1e00c',
    'cochain-1/A2-S2':
        'c7e3ab1d4370f402cc9a41d5cd0352ca57414f0081c0edcae02c861fa5a99a6d',
    'cochain-1/A2-S2-V-moved':
        'bf9e96c4aa89930e24ef2796e148fda6219ac1e5e7869689604c516f4a3c43cf',
    'cochain-1/A2-Z3':
        'd249bb834dacc45634ad4675acaa61c3ed5396d260a87fbf7039c67c96c4fc1d',
    'cochain-1/A2-Z3-V-moved':
        'c30aa18f431f29e49a2e2dc7725aac7d85c714c9ec6378c19b85888d4e0326fc',
    'cocycle/A1-S1':
        '5f21abc7ac9626332c7afcfa7f24ba2a0ce55f4ba7b38da65f062640737e13a1',
    'cocycle/A1-S1-V-moved':
        '1bae21b01dae93d4ef250b85c8470c46be49cfb23f20a10ebce660d4417f2d91',
    'cocycle/A1-S2':
        '91227e75dc72b99b9ffc9783f0120d476f7aed9b3e47194b3fbf3d0258bf7f94',
    'cocycle/A1-S2-V-moved':
        'f7672376e64a6759f6b963df9792e0afaa270ea02266993e866573693b488308',
    'cocycle/A1-Z3':
        'e37797653645b6db1beda240740215fcdd45179177c63403bebd1b8181bb29a4',
    'cocycle/A1-Z3-V-moved':
        '0e31c4ddd933721f51198fc425e37372721abcdf9eeada7f78c5630576f18daf',
    'cocycle/A2-S1':
        'fd8d5722c9ed86baa2dee63737383c03d469e5eb1cac0c461167c7e19355a7e8',
    'cocycle/A2-S1-V-moved':
        '828e6cd337fec4c4d93c7f3a14709ce46345232b7e3b24b82f2c64825dda260d',
    'cocycle/A2-S2':
        '78fcfd62ac250327442e61aee5567d44e1a635e65b43f6459bdfcfb57a91b477',
    'cocycle/A2-S2-V-moved':
        'cc460b2b7584ba345903177e3c7ad7dbc1a4d1bd6b772050eee3aa63969d4534',
    'cocycle/A2-Z3':
        '4ca00aef35147b114a515c5fa6d5bb49f346f7770c4f9be56a1b6f6b2791f598',
    'cocycle/A2-Z3-V-moved':
        'a26a0c7accd50e958868344335b474fffb7c6ed61be6b3aae290d9731f8dbe0d',
    'context/A1-S1':
        '0fb1a735657d3815529e00f73d3c0728b251f9b2af5ccc7c425eafd3b0c4ebc4',
    'context/A1-S1-V-moved':
        '29a7d70a3284085b79d2b7e9049ff9b634df975b63df0a0290a1ac281c7eaff3',
    'context/A1-S2':
        '6d3da000d2e9a5fa961461a9f29f67e6960c1da498fca4bb6bcec7a7ccdb0465',
    'context/A1-S2-V-moved':
        '8143f653aa33753c68663b19cdcb67e646fde2672e3c01b8762b36820fd209f3',
    'context/A1-Z3':
        '84255c9c80abd99d3e83cd536f87edfca6c91e8f80b3d3a4d29969a34fef5abe',
    'context/A1-Z3-V-moved':
        'f726fe93c49a1915f89972d75f906b389109ab4378fce555f7a64f9010772260',
    'context/A2-S1':
        'b06d46bddb47601a95ef517b519b588b008b3409cc0b6d9108e3cec1dfb4f73d',
    'context/A2-S1-V-moved':
        'ff6240d17bfa77348ba5232d9ec9f5e67d79c5c4c6378e92a48ff0b380af7aee',
    'context/A2-S2':
        'fd07781d85f8ca7b2285f2997f6f90ec17f1f309a801d97df75c71facb940303',
    'context/A2-S2-V-moved':
        'e0ee62c3978efbedc0715b9deaf6443a4b2668dfbe20bdda2f4d5d2c2d6554b0',
    'context/A2-Z3':
        '2afaee29db335ce4f25a3f33516468631d77a1f5be4f7bde96b13f522d5b38e0',
    'context/A2-Z3-V-moved':
        '9494af7fdcc3c04ccf594d2d368e8c97789ef577f83f942621883330a3612ea7',
    'direction/A1-S1':
        '2772b849c6b2f1a75d1d2c9b8fb34af9ed690999e1e5f72c5b79f806cbf51a53',
    'direction/A1-S1-V-moved':
        '305a0474dfd16edf5e014ddcb8023ce78f7569a1d5e8d446d34ba61617c31019',
    'direction/A1-S2':
        '3b60970890f744ce7976a1b6eeaed67b4005288355e97e3582e01e5ee1fc2926',
    'direction/A1-S2-V-moved':
        'a6dfe685873f2ea83fee7630d613badc5051d5d6b257b2af345fad21c65e1283',
    'direction/A1-Z3':
        'f655867595484ba10f523b3310064e8696b8c04975f8d07a04199e51cf714df1',
    'direction/A1-Z3-V-moved':
        'd421c764bed07d41f300fd057a8bac64bbeef1a89f98d8e5a8c85e97dd65282d',
    'direction/A2-S1':
        'e701d9fcd38e6ccfdaba7ea31feb7ba1b83a974b31e857e5940b6fb1800445b1',
    'direction/A2-S1-V-moved':
        '5a7da1c05633aad0e0536afb13eab38161fb5ec704602bfa0c06f6e2643de1ca',
    'direction/A2-S2':
        'de0ed3e40dfa1e8af1b867b5bc6eb02abe3b50f51c51da2b17ea327c776767a0',
    'direction/A2-S2-V-moved':
        '89bfe481d3de53828c60ed970983e5b9b9343f00d723d733e689da72ab6759df',
    'direction/A2-Z3':
        'bb7033c53a2c7ca9504aef06a9017baceec36ac0a7f08c906f0feefb33d0d990',
    'direction/A2-Z3-V-moved':
        'd7315e4f502295e95929ad088672a85cda5290830a366fb5ea4a107da85627ee',
    'ly/A1-S1':
        'a21231ab088ace8cee1cfe45f2cfff8003e819052a75fdca958766895e5da7cf',
    'ly/A1-S1-V-moved':
        'a21231ab088ace8cee1cfe45f2cfff8003e819052a75fdca958766895e5da7cf',
    'ly/A1-S2':
        '5b30442d57bb2c445697bc663626d45e0e50b7876a96fce58134bd3e03c6156b',
    'ly/A1-S2-V-moved':
        '5b30442d57bb2c445697bc663626d45e0e50b7876a96fce58134bd3e03c6156b',
    'ly/A1-Z3':
        '0c865505cfedcac517aac655eced44fd10aa912fd055d6a1b4acf036dd4dbe2f',
    'ly/A1-Z3-V-moved':
        '0c865505cfedcac517aac655eced44fd10aa912fd055d6a1b4acf036dd4dbe2f',
    'ly/A1-moved':
        '8d03f90834481c0aa80a3509ce616ffee27b048560074b4a5b79d573e3f5969d',
    'ly/A2-S1':
        '9ddbb65308b83193808ce81461108e3a4585ac103facfe7e3a14eb04bdd5b5aa',
    'ly/A2-S1-V-moved':
        '9ddbb65308b83193808ce81461108e3a4585ac103facfe7e3a14eb04bdd5b5aa',
    'ly/A2-S2':
        '1cb0f10d4db598fb8308226f1d57397212453db2e8c553a288030515374e1db3',
    'ly/A2-S2-V-moved':
        '1cb0f10d4db598fb8308226f1d57397212453db2e8c553a288030515374e1db3',
    'ly/A2-Z3':
        '9450f259a5decd089a42432c70007862532af04232e50ed5f692447adb9e3fc4',
    'ly/A2-Z3-V-moved':
        '9450f259a5decd089a42432c70007862532af04232e50ed5f692447adb9e3fc4',
    'ly/A2-moved':
        '50fda641625fc2f732dd67c3a879dafae8e37e8ba5979122432ad3ddbf0039c5',
    'ns-family/A1-S1':
        'd27cc4a1eddf8a85328be32230fa91e75b86cbf78479f7e10af0f16a8f734b53',
    'ns-family/A1-S1-V-moved':
        'e6599d70624c6dc1b98b7acd20ce959ae6dfe0fcb1d7e4cedfbec7420ae9c0ae',
    'ns-family/A1-S2':
        '80832a3e22e79ebfd08027ed79180bd86cbd8f50fe591bdac66c678cbf31c8cd',
    'ns-family/A1-S2-V-moved':
        'cd7b5332594fa5efb3b2b6c4cc99b10d3209aef258080c9c66caef6861ca31ca',
    'ns-family/A1-Z3':
        'd15f2f8d0633cbec5c6b9b18807c5102e6e7887a7f42785e468b57bc10b1265c',
    'ns-family/A1-Z3-V-moved':
        'de70aefcef23e09dd72bf7c6f6bb995681df90c91e369553438d81658c301189',
    'ns-family/A2-S1':
        '0acb7fd670d686e305d18efc6a2cde3a4f9f59841a0b8faa8cf2164b4113f143',
    'ns-family/A2-S1-V-moved':
        '7edd1a9fe7ce876695474126925632a6f9fab3d6b44096c58dbb976f7e0371a5',
    'ns-family/A2-S2':
        'a2dfbdef84ba35b4b3b078a60bfef02bab833e2907640907974307c136728108',
    'ns-family/A2-S2-V-moved':
        '4da0f55aeff851564e53e7eb73407329914bc2e65c982486e1af2b034810357d',
    'ns-family/A2-Z3':
        '23f6e267613a1e478bb2593a5e772d452d3a42323c3b6f463a30720ae5fc5317',
    'ns-family/A2-Z3-V-moved':
        'e695018083c4a604036c459ac11848a48d44e2c2ec8c7dff97b1b6198df780bf',
    'omega-ly/A1-S1':
        '84fb89d9bd719aa5de760ae1a62cb921d8c24319509f245463fea760d3ef95fd',
    'omega-ly/A1-S1-V-moved':
        '1243e7817d64e188dff863a8c93bfa8d4ad5d3c647c6f517018d7e0e7f582665',
    'omega-ly/A1-S2':
        '79fbb2bb8b3df36c9800c38d95ce80377870133af34d0240e6ab519642d46ac1',
    'omega-ly/A1-S2-V-moved':
        'd4579127829c41c0ad1002b35b074c60e1f94c3d2d67f275beff96f58b4c9a23',
    'omega-ly/A1-Z3':
        '720ca29e5526d3db0ad7b1a1a326541f8391713ff877c4e9511a1961093dd8c9',
    'omega-ly/A1-Z3-V-moved':
        '6ee505845cf33ca58e9d756025a948d4adaa09df660faf4be8357b532ec87dc0',
    'omega-ly/A2-S1':
        '9f319682ffb5f4601df6a85d7e19c648166807acc11c345310aeae0775a07988',
    'omega-ly/A2-S1-V-moved':
        '33e1b2196c0d71fbaf8a492e7e8597b3ea46d661154d490cc58d47243b236a1e',
    'omega-ly/A2-S2':
        '6016690755338adb6acb262050efbcc8715b09a64377aba4a4045c952b77ae5f',
    'omega-ly/A2-S2-V-moved':
        '0ede707971eb873b13b8994663341d61187c923b69cb6790a611b84997faf564',
    'omega-ly/A2-Z3':
        'c90c0c817e4377d539a78dc03fca6e20927f4d0267caf6506a93a92be90ed054',
    'omega-ly/A2-Z3-V-moved':
        'cdfd27198b1c28ae65d156deda9a3108427e933813bac98b5e625d896518f695',
    'representation/A1-S1':
        '663df04ca0048bb380f6ffe9e64a6e4f69fa949d3727b9f02c393fa3137e42d8',
    'representation/A1-S1-V-moved':
        'e8fecd987575af15fc311d65075196f69fd0a1eab9d121b3bcb87328594280bc',
    'representation/A1-S2':
        'cc8e878c7acc9b9ef34ade14fdf463383f432dda2970756b58255b7d6d68ea64',
    'representation/A1-S2-V-moved':
        '99a15a53e20825d0ad7cc344cb691fe3803f82dd828d02aad75836803dedc2e9',
    'representation/A1-Z3':
        'b4f862c26c601a253c36985f8dbd0221425b275a80e6dd4b11f74eec45322a2d',
    'representation/A1-Z3-V-moved':
        '1a39bf01bac9be1010efb0784c6795cf78b5f075c676f416c5a4324440b05ec9',
    'representation/A2-S1':
        '0f93dbd122285ee9227f8361fabfa68216ef5050333ccf337476b862041d2e81',
    'representation/A2-S1-V-moved':
        '60fd26d689415ddaa89aa69a9005a80b24b274314a150bce5db25bbe8875f167',
    'representation/A2-S2':
        'b81009f2a46300cbdac40a7b9c4c84ca67f10a3c0e351d9cfe9d546808288ad4',
    'representation/A2-S2-V-moved':
        'a9d508ca6e281b146d3be06269ea1ab157ce1533d50ceb8b7466c2a3a941e436',
    'representation/A2-Z3':
        'c1da0ea0bb1e9b2a7924f897901570ccd356ca2a16d5e906174190816238379b',
    'representation/A2-Z3-V-moved':
        'ca918d07b006808734c75b19dbfdf74cbc2bfeb424180e7f8afa4a3ac5a3019f',
}
EXPECTED_MESSAGES = {
    'bilinear/entries/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'bilinear/entries/bool-index':
        "bilinear entry has a non-integer index: [0, 0, True, '1']",
    'bilinear/entries/entries-not-a-list':
        'bilinear entries must be a list',
    'bilinear/entries/first-negative':
        "bilinear entry out of range: [-1, 0, 0, '1']",
    'bilinear/entries/float-index':
        "bilinear entry has a non-integer index: [0, 0, 1.0, '1']",
    'bilinear/entries/last-out-of-range':
        "bilinear entry out of range: [0, 0, 2, '1']",
    'bilinear/entries/long':
        "bilinear entries are [i,j,k,value]: [0, 0, 0, 0, '1']",
    'bilinear/entries/not-a-list':
        "bilinear entries are [i,j,k,value]: '0'",
    'bilinear/entries/short':
        "bilinear entries are [i,j,k,value]: [0, 0, '1']",
    'bilinear/entries/string-index':
        "bilinear entry has a non-integer index: ['0', 0, 0, '1']",
    'bilinear/entries/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'cochain-1/entries/alpha-out-of-range':
        "cochain entry out of range: [2, 0, 0, '1']",
    'cochain-1/entries/arg-out-of-range':
        "cochain entry out of range: [0, 2, 0, '1']",
    'cochain-1/entries/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'cochain-1/entries/coeff-out-of-range':
        "cochain entry out of range: [0, 0, 4, '1']",
    'cochain-1/entries/entries-not-a-list':
        'cochain entries must be a list',
    'cochain-1/entries/short':
        "cochain entries are [alphas,args,coeff,value] with the arity of the degree: [[0], [0], '1']",
    'cochain-1/entries/string-arg':
        "cochain entry has a non-integer index: [0, '0', 0, '1']",
    'cochain-1/entries/wrong-arity':
        "cochain entries are [alphas,args,coeff,value] with the arity of the degree: [[0, 0], [0, 0], 0, '1']",
    'cocycle/gamma1/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'cocycle/gamma1/bool-index':
        "gamma1 entry has a non-integer index: [0, 0, True, '1']",
    'cocycle/gamma1/entries-not-a-list':
        'gamma1 entries must be a list',
    'cocycle/gamma1/first-negative':
        "gamma1 entry out of range: [-1, 0, 0, '1']",
    'cocycle/gamma1/float-index':
        "gamma1 entry has a non-integer index: [0, 0, 1.0, '1']",
    'cocycle/gamma1/last-out-of-range':
        "gamma1 entry out of range: [0, 0, 2, '1']",
    'cocycle/gamma1/long':
        "gamma1 entries are [i,j,k,value]: [0, 0, 0, 0, '1']",
    'cocycle/gamma1/not-a-list':
        "gamma1 entries are [i,j,k,value]: '0'",
    'cocycle/gamma1/short':
        "gamma1 entries are [i,j,k,value]: [0, 0, '1']",
    'cocycle/gamma1/string-index':
        "gamma1 entry has a non-integer index: ['0', 0, 0, '1']",
    'cocycle/gamma1/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'cocycle/gamma2/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'cocycle/gamma2/bool-index':
        "gamma2 entry has a non-integer index: [0, 0, 0, True, '1']",
    'cocycle/gamma2/entries-not-a-list':
        'gamma2 entries must be a list',
    'cocycle/gamma2/first-negative':
        "gamma2 entry out of range: [-1, 0, 0, 0, '1']",
    'cocycle/gamma2/float-index':
        "gamma2 entry has a non-integer index: [0, 0, 0, 1.0, '1']",
    'cocycle/gamma2/last-out-of-range':
        "gamma2 entry out of range: [0, 0, 0, 2, '1']",
    'cocycle/gamma2/long':
        "gamma2 entries are [i,j,k,l,value]: [0, 0, 0, 0, 0, '1']",
    'cocycle/gamma2/not-a-list':
        "gamma2 entries are [i,j,k,l,value]: '0'",
    'cocycle/gamma2/short':
        "gamma2 entries are [i,j,k,l,value]: [0, 0, 0, '1']",
    'cocycle/gamma2/string-index':
        "gamma2 entry has a non-integer index: ['0', 0, 0, 0, '1']",
    'cocycle/gamma2/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'context/family/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'context/family/bool-index':
        "family entry has a non-integer index: [0, 0, True, '1']",
    'context/family/entries-not-a-list':
        'family entries must be a list',
    'context/family/first-negative':
        "family entry out of range: [-1, 0, 0, '1']",
    'context/family/float-index':
        "family entry has a non-integer index: [0, 0, 1.0, '1']",
    'context/family/last-out-of-range':
        "family entry out of range: [0, 0, 2, '1']",
    'context/family/long':
        "family entries are [alpha,row,col,value]: [0, 0, 0, 0, '1']",
    'context/family/not-a-list':
        "family entries are [alpha,row,col,value]: '0'",
    'context/family/short':
        "family entries are [alpha,row,col,value]: [0, 0, '1']",
    'context/family/string-index':
        "family entry has a non-integer index: ['0', 0, 0, '1']",
    'context/family/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'direction/family/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'direction/family/bool-index':
        "family entry has a non-integer index: [0, 0, True, '1']",
    'direction/family/entries-not-a-list':
        'family entries must be a list',
    'direction/family/first-negative':
        "family entry out of range: [-1, 0, 0, '1']",
    'direction/family/float-index':
        "family entry has a non-integer index: [0, 0, 1.0, '1']",
    'direction/family/last-out-of-range':
        "family entry out of range: [0, 0, 2, '1']",
    'direction/family/long':
        "family entries are [alpha,row,col,value]: [0, 0, 0, 0, '1']",
    'direction/family/not-a-list':
        "family entries are [alpha,row,col,value]: '0'",
    'direction/family/short':
        "family entries are [alpha,row,col,value]: [0, 0, '1']",
    'direction/family/string-index':
        "family entry has a non-integer index: ['0', 0, 0, '1']",
    'direction/family/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'ly/binary/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'ly/binary/bool-index':
        "binary entry has a non-integer index: [0, 0, True, '1']",
    'ly/binary/entries-not-a-list':
        'binary entries must be a list',
    'ly/binary/first-negative':
        "binary entry out of range: [-1, 0, 0, '1']",
    'ly/binary/float-index':
        "binary entry has a non-integer index: [0, 0, 1.0, '1']",
    'ly/binary/last-out-of-range':
        "binary entry out of range: [0, 0, 2, '1']",
    'ly/binary/long':
        "binary entries are [i,j,k,value]: [0, 0, 0, 0, '1']",
    'ly/binary/not-a-list':
        "binary entries are [i,j,k,value]: '0'",
    'ly/binary/out-of-range-then-outside-half':
        "binary entry out of range: [0, 0, 2, '1']",
    'ly/binary/outside-half':
        'binary entry not in the i<=j half: [1, 0, 0]',
    'ly/binary/outside-half-then-out-of-range':
        'binary entry not in the i<=j half: [1, 0, 0]',
    'ly/binary/short':
        "binary entries are [i,j,k,value]: [0, 0, '1']",
    'ly/binary/string-index':
        "binary entry has a non-integer index: ['0', 0, 0, '1']",
    'ly/binary/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'ly/ternary/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'ly/ternary/bool-index':
        "ternary entry has a non-integer index: [0, 0, 0, True, '1']",
    'ly/ternary/entries-not-a-list':
        'ternary entries must be a list',
    'ly/ternary/first-negative':
        "ternary entry out of range: [-1, 0, 0, 0, '1']",
    'ly/ternary/float-index':
        "ternary entry has a non-integer index: [0, 0, 0, 1.0, '1']",
    'ly/ternary/last-out-of-range':
        "ternary entry out of range: [0, 0, 0, 2, '1']",
    'ly/ternary/long':
        "ternary entries are [i,j,k,l,value]: [0, 0, 0, 0, 0, '1']",
    'ly/ternary/not-a-list':
        "ternary entries are [i,j,k,l,value]: '0'",
    'ly/ternary/out-of-range-then-outside-half':
        "ternary entry out of range: [0, 0, 0, 2, '1']",
    'ly/ternary/outside-half':
        'ternary entry not in the i<=j half: [1, 0, 0, 0]',
    'ly/ternary/outside-half-then-out-of-range':
        'ternary entry not in the i<=j half: [1, 0, 0, 0]',
    'ly/ternary/short':
        "ternary entries are [i,j,k,l,value]: [0, 0, 0, '1']",
    'ly/ternary/string-index':
        "ternary entry has a non-integer index: ['0', 0, 0, 0, '1']",
    'ly/ternary/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'ns-family/bullet/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'ns-family/bullet/bool-index':
        "bullet entry has a non-integer index: [0, 0, 0, True, '1']",
    'ns-family/bullet/entries-not-a-list':
        'bullet entries must be a list',
    'ns-family/bullet/first-negative':
        "bullet entry out of range: [-1, 0, 0, 0, '1']",
    'ns-family/bullet/float-index':
        "bullet entry has a non-integer index: [0, 0, 0, 1.0, '1']",
    'ns-family/bullet/last-out-of-range':
        "bullet entry out of range: [0, 0, 0, 2, '1']",
    'ns-family/bullet/long':
        "bullet entries are [alpha,i,j,k,value]: [0, 0, 0, 0, 0, '1']",
    'ns-family/bullet/not-a-list':
        "bullet entries are [alpha,i,j,k,value]: '0'",
    'ns-family/bullet/short':
        "bullet entries are [alpha,i,j,k,value]: [0, 0, 0, '1']",
    'ns-family/bullet/string-index':
        "bullet entry has a non-integer index: ['0', 0, 0, 0, '1']",
    'ns-family/bullet/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'ns-family/curly/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'ns-family/curly/bool-index':
        "curly entry has a non-integer index: [0, 0, 0, 0, 0, True, '1']",
    'ns-family/curly/entries-not-a-list':
        'curly entries must be a list',
    'ns-family/curly/first-negative':
        "curly entry out of range: [-1, 0, 0, 0, 0, 0, '1']",
    'ns-family/curly/float-index':
        "curly entry has a non-integer index: [0, 0, 0, 0, 0, 1.0, '1']",
    'ns-family/curly/last-out-of-range':
        "curly entry out of range: [0, 0, 0, 0, 0, 2, '1']",
    'ns-family/curly/long':
        "curly entries are [beta,gamma,i,j,k,l,value]: [0, 0, 0, 0, 0, 0, 0, '1']",
    'ns-family/curly/not-a-list':
        "curly entries are [beta,gamma,i,j,k,l,value]: '0'",
    'ns-family/curly/short':
        "curly entries are [beta,gamma,i,j,k,l,value]: [0, 0, 0, 0, 0, '1']",
    'ns-family/curly/string-index':
        "curly entry has a non-integer index: ['0', 0, 0, 0, 0, 0, '1']",
    'ns-family/curly/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'ns-family/square/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'ns-family/square/bool-index':
        "square entry has a non-integer index: [0, 0, 0, 0, 0, 0, True, '1']",
    'ns-family/square/entries-not-a-list':
        'square entries must be a list',
    'ns-family/square/first-negative':
        "square entry out of range: [-1, 0, 0, 0, 0, 0, 0, '1']",
    'ns-family/square/float-index':
        "square entry has a non-integer index: [0, 0, 0, 0, 0, 0, 1.0, '1']",
    'ns-family/square/last-out-of-range':
        "square entry out of range: [0, 0, 0, 0, 0, 0, 2, '1']",
    'ns-family/square/long':
        "square entries are [alpha,beta,gamma,i,j,k,l,value]: [0, 0, 0, 0, 0, 0, 0, 0, '1']",
    'ns-family/square/not-a-list':
        "square entries are [alpha,beta,gamma,i,j,k,l,value]: '0'",
    'ns-family/square/short':
        "square entries are [alpha,beta,gamma,i,j,k,l,value]: [0, 0, 0, 0, 0, 0, '1']",
    'ns-family/square/string-index':
        "square entry has a non-integer index: ['0', 0, 0, 0, 0, 0, 0, '1']",
    'ns-family/square/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'ns-family/vee/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'ns-family/vee/bool-index':
        "vee entry has a non-integer index: [0, 0, 0, 0, True, '1']",
    'ns-family/vee/entries-not-a-list':
        'vee entries must be a list',
    'ns-family/vee/first-negative':
        "vee entry out of range: [-1, 0, 0, 0, 0, '1']",
    'ns-family/vee/float-index':
        "vee entry has a non-integer index: [0, 0, 0, 0, 1.0, '1']",
    'ns-family/vee/last-out-of-range':
        "vee entry out of range: [0, 0, 0, 0, 2, '1']",
    'ns-family/vee/long':
        "vee entries are [alpha,beta,i,j,k,value]: [0, 0, 0, 0, 0, 0, '1']",
    'ns-family/vee/not-a-list':
        "vee entries are [alpha,beta,i,j,k,value]: '0'",
    'ns-family/vee/short':
        "vee entries are [alpha,beta,i,j,k,value]: [0, 0, 0, 0, '1']",
    'ns-family/vee/string-index':
        "vee entry has a non-integer index: ['0', 0, 0, 0, 0, '1']",
    'ns-family/vee/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'omega-ly/binary/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'omega-ly/binary/bool-index':
        "binary entry has a non-integer index: [0, 0, 0, 0, True, '1']",
    'omega-ly/binary/entries-not-a-list':
        'binary entries must be a list',
    'omega-ly/binary/first-negative':
        "binary entry out of range: [-1, 0, 0, 0, 0, '1']",
    'omega-ly/binary/float-index':
        "binary entry has a non-integer index: [0, 0, 0, 0, 1.0, '1']",
    'omega-ly/binary/last-out-of-range':
        "binary entry out of range: [0, 0, 0, 0, 2, '1']",
    'omega-ly/binary/long':
        "binary entries are [alpha,beta,i,j,k,value]: [0, 0, 0, 0, 0, 0, '1']",
    'omega-ly/binary/not-a-list':
        "binary entries are [alpha,beta,i,j,k,value]: '0'",
    'omega-ly/binary/short':
        "binary entries are [alpha,beta,i,j,k,value]: [0, 0, 0, 0, '1']",
    'omega-ly/binary/string-index':
        "binary entry has a non-integer index: ['0', 0, 0, 0, 0, '1']",
    'omega-ly/binary/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'omega-ly/ternary/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'omega-ly/ternary/bool-index':
        "ternary entry has a non-integer index: [0, 0, 0, 0, 0, 0, True, '1']",
    'omega-ly/ternary/entries-not-a-list':
        'ternary entries must be a list',
    'omega-ly/ternary/first-negative':
        "ternary entry out of range: [-1, 0, 0, 0, 0, 0, 0, '1']",
    'omega-ly/ternary/float-index':
        "ternary entry has a non-integer index: [0, 0, 0, 0, 0, 0, 1.0, '1']",
    'omega-ly/ternary/last-out-of-range':
        "ternary entry out of range: [0, 0, 0, 0, 0, 0, 2, '1']",
    'omega-ly/ternary/long':
        "ternary entries are [alpha,beta,gamma,i,j,k,l,value]: [0, 0, 0, 0, 0, 0, 0, 0, '1']",
    'omega-ly/ternary/not-a-list':
        "ternary entries are [alpha,beta,gamma,i,j,k,l,value]: '0'",
    'omega-ly/ternary/short':
        "ternary entries are [alpha,beta,gamma,i,j,k,l,value]: [0, 0, 0, 0, 0, 0, '1']",
    'omega-ly/ternary/string-index':
        "ternary entry has a non-integer index: ['0', 0, 0, 0, 0, 0, 0, '1']",
    'omega-ly/ternary/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'representation/rho/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'representation/rho/bool-index':
        "rho entry has a non-integer index: [0, 0, True, '1']",
    'representation/rho/entries-not-a-list':
        'rho entries must be a list',
    'representation/rho/first-negative':
        "rho entry out of range: [-1, 0, 0, '1']",
    'representation/rho/float-index':
        "rho entry has a non-integer index: [0, 0, 1.0, '1']",
    'representation/rho/last-out-of-range':
        "rho entry out of range: [0, 0, 2, '1']",
    'representation/rho/long':
        "rho entries are [i,row,col,value]: [0, 0, 0, 0, '1']",
    'representation/rho/not-a-list':
        "rho entries are [i,row,col,value]: '0'",
    'representation/rho/short':
        "rho entries are [i,row,col,value]: [0, 0, '1']",
    'representation/rho/string-index':
        "rho entry has a non-integer index: ['0', 0, 0, '1']",
    'representation/rho/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
    'representation/theta/bad-rational':
        "bad rational 'x': Invalid literal for Fraction: 'x'",
    'representation/theta/bool-index':
        "theta entry has a non-integer index: [0, 0, 0, True, '1']",
    'representation/theta/entries-not-a-list':
        'theta entries must be a list',
    'representation/theta/first-negative':
        "theta entry out of range: [-1, 0, 0, 0, '1']",
    'representation/theta/float-index':
        "theta entry has a non-integer index: [0, 0, 0, 1.0, '1']",
    'representation/theta/last-out-of-range':
        "theta entry out of range: [0, 0, 0, 2, '1']",
    'representation/theta/long':
        "theta entries are [i,j,row,col,value]: [0, 0, 0, 0, 0, '1']",
    'representation/theta/not-a-list':
        "theta entries are [i,j,row,col,value]: '0'",
    'representation/theta/short':
        "theta entries are [i,j,row,col,value]: [0, 0, 0, '1']",
    'representation/theta/string-index':
        "theta entry has a non-integer index: ['0', 0, 0, 0, '1']",
    'representation/theta/zero-denominator':
        "bad rational '1/0': Fraction(1, 0)",
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_matches_reference(name):
    assert sha(json.dumps(WRITERS[name]())) == EXPECTED_JSON[name]


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loader_matches_reference(name):
    assert digest(LOADERS[name]()) == EXPECTED_LOADED[name]


@pytest.mark.parametrize("name", sorted(MESSAGE_CASES))
def test_malformed_entry_message(tmp_path, name):
    assert load_bad(tmp_path, **MESSAGE_CASES[name]) == \
        EXPECTED_MESSAGES[name]
