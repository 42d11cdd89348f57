"""Cochains through the coboundaries and the JSON boundary, against digests.

Each case reduces what it returns to the SHA-256 of its `repr`, the digest
of the law references.  A coboundary image is given by its JSON (the
nonzero entries of its full table, in order) and by its full-table
coordinates `cochain_full_coords`; a symbolic image, whose entries are
linear forms, by the coordinates only.  An exact zero among the
coordinates is written as 0, whether it is stored as the int 0 or as
Fraction(0): the evaluators skip products with a zero factor, so the type of
a zero is not part of the result.  Every nonzero entry keeps its own type,
and a linear form its terms in order.

The inputs are read from cochain files whose full tables are written here,
skew in the first k // 2 slot pairs of a (k, k+1)-cochain, with seeded
random values at the tuples whose joint labels i*M + a increase inside
those pairs.  The algebras are the induced ones of the identity families of
A1 over S2 (also with V in a random basis) and A2 over S1, and the random
skew-only algebras of `test_coboundary_reference`.  `lyfam --json validate`
is pinned on such files, skew and not, of degrees (1,2), (2,3) and (3,4),
and `lyfam --json cohomology --h1 --h23 --max-n 2` on two contexts.

To see what changed after a deliberate change, print `CASES[name]()` for
the failing case.
"""
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from lyfam import serialize as sz
from lyfam.cli import main
from lyfam.cohomology import RBFComplex, partial_deg1
from lyfam.omega import (CochainFamily, cochain_full_coords, delta_omega,
                         delta_star_omega, skew_basis)
from lyfam.rbfamily import identity_family
from conftest import make_a1, make_a2, random_invertible
from test_coboundary_reference import skew_only
from test_dense_images import change_basis_of_V
from test_law_reference import S1, S2


def digest(result):
    return hashlib.sha256(repr(result).encode()).hexdigest()


def scalar(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


def skew_entries(rng, M, nA, d, degree, density=0.5):
    """Full-table entries [alphas, args, coeff, value] of a (k, k+1)-cochain,
    in the order of the tuples: skew in the first k // 2 slot pairs, with a
    seeded random value at each tuple whose joint labels increase strictly
    inside those pairs (0 with probability 1 - density)."""
    npairs = degree[0] // 2
    entries = []
    for k in degree:
        values = {}
        for al in itertools.product(range(M), repeat=k):
            for xs in itertools.product(range(nA), repeat=k):
                labels = [x * M + a for a, x in zip(al, xs)]
                sign = 1
                for p in range(0, 2 * npairs, 2):
                    if labels[p] > labels[p + 1]:
                        labels[p], labels[p + 1] = labels[p + 1], labels[p]
                        sign = -sign
                    elif labels[p] == labels[p + 1]:
                        sign = 0
                if not sign:
                    continue
                key = tuple(labels)
                if key not in values:
                    values[key] = [scalar(rng) if rng.random() < density
                                   else 0 for _ in range(d)]
                for co, v in enumerate(values[key]):
                    if v:
                        entries.append([list(al), list(xs), co,
                                        str(sign * v)])
    return entries


def cochain_dict(s, nA, d, degree, entries):
    return {"kind": "cochain", "degree": list(degree), "dim_alg": nA,
            "dim_coeff": d, "semigroup": sz.semigroup_to_json(s),
            "entries": entries}


def direction(rng, s, nA, d):
    """A degree-1 cochain: one random d x nA matrix per index."""
    return CochainFamily(s, nA, d, 1, [[[scalar(rng) for _ in range(nA)]
                                        for _ in range(d)]
                                       for _ in range(s.order)])


def algebras():
    """name -> (O, r, complex or None, input degrees of delta)."""
    rng = random.Random(20261018)
    out = {}
    a1s2 = identity_family(make_a1(), S2)
    for name, ctx, degrees in (
            ("A1xS2", a1s2, (1, (2, 3))),
            ("A1xS2 moved", change_basis_of_V(
                a1s2, random_invertible(rng, a1s2.dimV, 12)), (1, (2, 3))),
            ("A2xS1", identity_family(make_a2(), S1), (1, (2, 3), (4, 5)))):
        cx = RBFComplex(ctx)
        out[name] = (cx.induced_algebra, cx.induced_rep, cx, degrees)
    out["skew-only S2"] = (*skew_only(rng, S2), None, (1, (2, 3)))
    out["skew-only S1"] = (*skew_only(rng, S1, n=3), None,
                           (1, (2, 3), (4, 5)))
    return out


ALGEBRAS = algebras()
CASES = {}


def zeros_as_int(coords):
    return [x if x else 0 for x in coords]


def image(c):
    return sz.cochain_to_json(c), zeros_as_int(cochain_full_coords(c))


def inputs(name):
    """The seeded inputs of one algebra, by degree."""
    O, r, _, degrees = ALGEBRAS[name]
    rng = random.Random(name)
    out = {}
    for degree in degrees:
        if degree == 1:
            out[degree] = direction(rng, O.semigroup, O.dim, r.dim)
        else:
            out[degree] = sz.cochain_from_json(cochain_dict(
                O.semigroup, O.dim, r.dim, degree,
                skew_entries(rng, O.semigroup.order, O.dim, r.dim, degree,
                             0.5 if degree == (2, 3) else 0.2)))
    return out


for _name, (_O, _r, _cx, _degrees) in ALGEBRAS.items():
    for _degree in _degrees:
        def _delta(name=_name, degree=_degree):
            O, r = ALGEBRAS[name][:2]
            return image(delta_omega(O, r, inputs(name)[degree]))
        CASES["delta/%s/%s" % (_name, _degree)] = _delta

        def _symbolic(name=_name, degree=_degree):
            O, r = ALGEBRAS[name][:2]
            c = skew_basis(degree, (O.dim, r.dim), O.semigroup).symbolic()
            return zeros_as_int(cochain_full_coords(delta_omega(O, r, c)))
        if _degree != (4, 5):
            CASES["symbolic delta/%s/%s" % (_name, _degree)] = _symbolic

    def _star(name=_name):
        O, r = ALGEBRAS[name][:2]
        return image(delta_star_omega(O, r, inputs(name)[(2, 3)]))
    CASES["delta*/%s" % _name] = _star

    def _symbolic_star(name=_name):
        O, r = ALGEBRAS[name][:2]
        c = skew_basis((2, 3), (O.dim, r.dim), O.semigroup).symbolic()
        return zeros_as_int(cochain_full_coords(delta_star_omega(O, r, c)))
    CASES["symbolic delta*/%s" % _name] = _symbolic_star

    if _cx is not None:
        def _partial(name=_name):
            return image(partial_deg1(ALGEBRAS[name][2], inputs(name)[1]))
        CASES["partial_deg1/%s" % _name] = _partial

        def _symbolic_partial(name=_name):
            return zeros_as_int(cochain_full_coords(
                ALGEBRAS[name][2].d1_symbolic()))
        CASES["symbolic partial_deg1/%s" % _name] = _symbolic_partial


# recorded before pair-degree cochains were stored by their canonical
# coordinates
EXPECTED = {
    'delta*/A1xS2':
        '007df2f3da7d90c6a901e5fac82ee7b4fd1fde77bcd9e7b215309f65ca7f3993',
    'delta*/A1xS2 moved':
        '7ebb59384d5d37dd5dc3d5cefd669a0a85574c52d6d01fee10eb96fff18aa718',
    'delta*/A2xS1':
        'c9a01c131d1226515da46dba5aa989c376dccfcca9051778f9463dae22e556ca',
    'delta*/skew-only S1':
        '25187ad695ad737a8b32ce0169b8b7f11121bd6478d4db5f284d821fee967a6f',
    'delta*/skew-only S2':
        'a5ccf086801dc8cdd078baba28127f8a69654332436525f3781d4e4a5d012ee2',
    'delta/A1xS2 moved/(2, 3)':
        '49b1b38ad8cf08953b6ad99af8e2a5bfcb775042506cd0e5451859c3febd1a24',
    'delta/A1xS2 moved/1':
        '9353234d8bff87b7d8850536143959686a08f9d04fac9bfd557e7e386f5e25a3',
    'delta/A1xS2/(2, 3)':
        'c2c33b87c73bb7017235fbc409654ebe253991ce8985e2fbe2f2db293a3b8806',
    'delta/A1xS2/1':
        '9bb51741277727aeb29089870d31da5069f7b4319d63d9eb8a79aa9dbe7afd38',
    'delta/A2xS1/(2, 3)':
        '8940b3f108f1b3103054793333ecff5a16661a443cb78c17ee28cd369febc8cc',
    'delta/A2xS1/(4, 5)':
        '1d1c5d8dca540d22f0a8af5b67defa7d84cdebdb5c639a88d3d943fc63f28958',
    'delta/A2xS1/1':
        'b54e39c27d061d3ed45ccad231b61e2d2ec06c7700a3696278e51a60a46466cf',
    'delta/skew-only S1/(2, 3)':
        'd3c9e5da888b94192cf5b51d55fd2e59739f8312fe7f9f599d4485df6f3f075e',
    'delta/skew-only S1/(4, 5)':
        '47a21c836e6a930563ca6d426ca7a6b6be6f00450c0436a5d86b1b6e9a2f1269',
    'delta/skew-only S1/1':
        '22ed31fb872dd31d642448f3f03230dab0210b0a0f21f8a1996523f24978e78f',
    'delta/skew-only S2/(2, 3)':
        '9944702ffbcfdb1137e983b2c7de6bbcca9d5c0b00e54fe2c58d8e6453fce7d5',
    'delta/skew-only S2/1':
        '95f976efb520dd3a7cf3719cb6a4bf5c0c8e6f8e7da72bfb978ba2af1f2e609f',
    'partial_deg1/A1xS2':
        '9bb51741277727aeb29089870d31da5069f7b4319d63d9eb8a79aa9dbe7afd38',
    'partial_deg1/A1xS2 moved':
        '9353234d8bff87b7d8850536143959686a08f9d04fac9bfd557e7e386f5e25a3',
    'partial_deg1/A2xS1':
        'b54e39c27d061d3ed45ccad231b61e2d2ec06c7700a3696278e51a60a46466cf',
    'symbolic delta*/A1xS2':
        '76a69097499813da2493e563f7bd1d0ad344755f6f058468d8a4e8acfdd7f262',
    'symbolic delta*/A1xS2 moved':
        'bbf0c3d55e7cb0e0c84ddc7841f6ae8f42d8be4cfbe7378ea559890666dfa67f',
    'symbolic delta*/A2xS1':
        '38f5f04677cba375c506cbe9d062339e62320c7b2b5eb585a90b03da1253ef6e',
    'symbolic delta*/skew-only S1':
        '19d1c52597ab0ceccfcf2b61ccb08b8c2afdf2b3198c2a1a90331f510ae18174',
    'symbolic delta*/skew-only S2':
        'c7bdf0a2914a197ab659455ec5dfe8d669e69fa6820e88d7901eab581fc8c274',
    'symbolic delta/A1xS2 moved/(2, 3)':
        'ea69d1a5c43a848379389bdb0b1b0f54030449a73813b169f3ca75f1a39d6f7b',
    'symbolic delta/A1xS2 moved/1':
        '41982c5ba90d5166f51ed9165fa63e092b947423c273357d347f1ca649683805',
    'symbolic delta/A1xS2/(2, 3)':
        '3a4818a73a3e672292ed0849f90dd6579a38eb04f4a96e9afefc24b2a593fbac',
    'symbolic delta/A1xS2/1':
        'd8f0515c035f32648246145259f134e30356bde0b7e096f4067b212163bf3659',
    'symbolic delta/A2xS1/(2, 3)':
        '2ea405880e9fa369f3d27ec7e5e95f41b222563e07134bb490c5dbd99d713959',
    'symbolic delta/A2xS1/1':
        '5938c282f16923b4385cca2103dcd194bd88632333cad0b19b348576421d6220',
    'symbolic delta/skew-only S1/(2, 3)':
        '62a60eab16c00a368bb629e818ef1ae08c70714152e2b04b5252eb3a237a66d0',
    'symbolic delta/skew-only S1/1':
        '0a29341f45089b0d545feb0c98376afb49c33484a96a0a59d047a7c22f73c701',
    'symbolic delta/skew-only S2/(2, 3)':
        '98f1e42ed91cf7d9812e5258b472ee93828fc2a828b81bd27640a8cc2c595e21',
    'symbolic delta/skew-only S2/1':
        '748bce95f34e8ce38f6ab5cc40ac14ab5d25e97931bdd0d5ebd763c14e022ae5',
    'symbolic partial_deg1/A1xS2':
        'b58324bd211b44c02a3ec1de0e763608812ba78129ee1965b5c3b6e49a802022',
    'symbolic partial_deg1/A1xS2 moved':
        'dbd6db0220e7d6b180e9ad83dcc3aebcd2a0f85605c5b8b27f89bd6be1b91e7f',
    'symbolic partial_deg1/A2xS1':
        'ac777e4a6ef5e6216d29712130a01c7b6e0beaad187de3d19fa69f974b0f474c',
    'cohomology/A1xS1':
        '32920ef89a2031e1a4e2312e33d6c32036ff16700af688fc164fcc2467c8bafd',
    'cohomology/A1xS2':
        'd72f810a86611dd8af835dcd6ac56c540e0df301ffae4600db3a8488dc62ba71',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cochain_matches_reference(name):
    assert digest(CASES[name]()) == EXPECTED[name]


# ---------------------------------------------------------------------------
# the CLI

def run(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def validate_files():
    """name -> (cochain file, exit code, payload of validate)."""
    rng = random.Random(11)
    skew23 = cochain_dict(S2, 2, 2, (2, 3), skew_entries(rng, 2, 2, 2, (2, 3)))
    # a nonzero value at a repeated label, and one odd entry changed
    # without its mirror
    bad23 = dict(skew23, entries=skew23["entries"] + [
        [[0, 0], [0, 0], 0, "1"], [[0, 1, 1], [1, 0, 0], 1, "5"]])
    skew34 = cochain_dict(S2, 2, 2, (3, 4), skew_entries(rng, 2, 2, 2, (3, 4)))
    bad34 = dict(skew34, entries=skew34["entries"] + [
        [[1, 1, 0], [1, 1, 0], 1, "-1/2"]])
    free12 = cochain_dict(S2, 2, 2, (1, 2), skew_entries(rng, 2, 2, 2, (1, 2)))
    return {"skew (2,3)": (skew23, 0, None),
            "non-skew (2,3)": (bad23, 1, [
                {"law": "invariant:cochain-skew-even",
                 "witness": [0, [0, 0], [0, 0]], "residual": ["2", "0"]},
                {"law": "invariant:cochain-skew-odd",
                 "witness": [0, [0, 1, 1], [1, 0, 0]],
                 "residual": ["0", "2"]},
                {"law": "invariant:cochain-skew-odd",
                 "witness": [0, [1, 0, 1], [0, 1, 0]],
                 "residual": ["0", "2"]}]),
            "skew (3,4)": (skew34, 0, None),
            "non-skew (3,4)": (bad34, 1, [
                {"law": "invariant:cochain-skew-even",
                 "witness": [0, [1, 1, 0], [1, 1, 0]],
                 "residual": ["0", "-1"]}]),
            "(1,2)": (free12, 0, None)}


VALIDATE = validate_files()


@pytest.mark.parametrize("name", sorted(VALIDATE))
def test_validate_cochain_file(name, tmp_path, capsys):
    d, code, payload = VALIDATE[name]
    path = str(tmp_path / "c.json")
    sz.save_json(path, d)
    got, out = run(["--json", "validate", path, "cochain"], capsys)
    assert got == code
    if payload is None:
        assert out == {"status": "ok", "summary": path + ": ok (cochain)"}
        # a skew file is written back entry for entry
        assert sz.cochain_to_json(sz.cochain_from_json(d)) == d
    else:
        laws = sorted({v["law"] for v in payload})
        assert out == {"status": "violations", "payload": payload,
                       "summary": "%s: %d violation(s) in laws %s"
                       % (path, len(payload), laws)}


@pytest.mark.parametrize("name,ctx,dims", [
    ("A1xS1", identity_family(make_a1(), S1), (1, 1, [2, 1, 1])),
    ("A1xS2", identity_family(make_a1(), S2), (2, 4, [4, 4, 36]))])
def test_cohomology_payload(name, ctx, dims, tmp_path, capsys):
    path = str(tmp_path / "ctx.json")
    sz.save_json(path, sz.context_to_json(ctx))
    code, out = run(["--json", "cohomology", path, "--h1", "--h23",
                     "--max-n", "2"], capsys)
    assert code == 0
    p = out["payload"]
    assert (p["H1"], p["H23"], p["generic_dims"]) == dims
    assert digest(json.dumps(out["payload"], sort_keys=True)) == EXPECTED[
        "cohomology/" + name]
