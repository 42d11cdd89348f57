"""`lyfam --json deform` on A2 over S2, against digests.

Each case runs `cli.main` in process on files written by `serialize` and
reduces its exit code and its JSON output (status, summary and payload:
`cocycle`, `first_violation`, the witness terms) to the SHA-256 of their
`repr`, the digest of the law references.  The JSON holds every scalar as
the string `dump_scalar` writes, so a moved witness coordinate, a lost
sign or another first violated tuple changes the digest.

The contexts are the identity family of A2 over the two-element semigroup,
a copy of it with V written in a seeded signed-permutation basis, and
copies of it and of the A1 family with V written in a seeded basis with
non-integral `Fraction` entries.  In the last two no image T_a u_i of the
family is a signed basis vector, so the contractions at the images sum
several terms per coordinate.  On
each, the directions are seeded degree-0 boundaries (against zero and
against each other), boundaries moved by a seeded +-1 direction (the
refused comparison of a non-infinitesimal: H^1 vanishes there, so no
cocycle leaves the class of a boundary), seeded +-1 directions alone,
directions with one seeded +-1 entry, whose first violated tuples differ, and
boundaries and +-1 directions scaled by a `Fraction`.  The identity family
of A1 over the same semigroup, whose H^1 has dimension 2, adds boundaries
moved by a seeded combination of its H^1 representatives, which are
cocycles in another class.

To see what changed after a deliberate change, print `CASES[name]()` for
the failing case.
"""
import contextlib
import io
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest

from lyfam import serialize as sz
from lyfam.cli import main
from lyfam.cohomology import (DegreeZeroElement, RBFComplex, cohomology_H1,
                              partial_deg0)
from lyfam.rbfamily import identity_family
from conftest import random_invertible
from test_dense_images import change_basis_of_V, dense
from test_law_reference import A1, A2, S2, digest


def signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if perm[r] == c else 0 for c in range(n)]
            for r in range(n)]


def fraction_basis(rng, n):
    """A seeded invertible matrix whose rows are scaled by 1/2, 2/3, ...,
    so its entries are Fractions, not all integral."""
    p = random_invertible(rng, n, 12)
    return [[x * Fraction(r + 1, r + 2) for x in row]
            for r, row in enumerate(p)]


def _ints(rng, n):
    return [rng.randint(-2, 2) for _ in range(n)]


def _plus_minus(rng, ctx):
    return [[[rng.choice((-1, 0, 1)) for _ in range(ctx.dimV)]
             for _ in range(ctx.dimL)] for _ in range(ctx.semigroup.order)]


def _combine(fams, coeffs):
    """sum_k coeffs[k] * fams[k], entry by entry."""
    return [[[sum(c * f[a][r][col] for c, f in zip(coeffs, fams))
              for col in range(len(fams[0][a][r]))]
             for r in range(len(fams[0][a]))] for a in range(len(fams[0]))]


def _run(files):
    """(exit code, JSON output) of `lyfam --json deform` on the files, each
    the JSON payload of one argument, written to a fresh directory."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, payload in enumerate(files):
            paths.append(os.path.join(tmp, "%d.json" % k))
            sz.save_json(paths[-1], payload)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--json", "--seed", "0", "deform"] + paths)
    assert "Traceback" not in err.getvalue()
    return code, json.loads(out.getvalue())


def queries(cname, ctx, moved_by_classes):
    """(case name, files) of the deform queries on one context: the context
    and one or two directions, as JSON payloads."""
    rng = random.Random(cname)
    cx = RBFComplex(ctx)
    c = sz.context_to_json(ctx)
    d = sz.direction_to_json

    def boundary():
        e = DegreeZeroElement([(_ints(rng, ctx.dimL), _ints(rng, ctx.dimL))])
        return partial_deg0(cx, e).even

    zero = d(_combine([boundary()], [0]))
    out = [("zero", [c, zero]), ("zero-zero", [c, zero, zero])]
    for q in range(3):
        bd, bd2 = boundary(), boundary()
        moved = d(_combine([bd, _plus_minus(rng, ctx)], [1, 1]))
        out += [("boundary%d" % q, [c, d(bd), zero]),
                ("boundary%d-boundary" % q, [c, d(bd), d(bd2)]),
                ("moved%d" % q, [c, moved]),
                ("moved%d-boundary" % q, [c, moved, d(bd)])]
    for q in range(3):
        out.append(("random%d" % q, [c, d(_plus_minus(rng, ctx))]))
        one = _combine([_plus_minus(rng, ctx)], [0])
        one[rng.randrange(len(one))][rng.randrange(ctx.dimL)][
            rng.randrange(ctx.dimV)] = rng.choice((-1, 1))
        out.append(("entry%d" % q, [c, d(one)]))
    for q, x in enumerate((Fraction(1, 3), Fraction(-5, 2))):
        frac = d(_combine([boundary(), boundary()], [x, 1]))
        out += [("fraction%d" % q, [c, frac]),
                ("fraction%d-zero" % q, [c, frac, zero]),
                ("fraction%d-random" % q,
                 [c, d(_combine([_plus_minus(rng, ctx)], [x]))])]
    if moved_by_classes:
        reps = [r.even for r in cohomology_H1(cx)[1]]
        for q in range(3):
            bd, coeffs = boundary(), [0] * len(reps)
            while not any(coeffs):
                coeffs = _ints(rng, len(reps))
            coeffs[0] = Fraction(coeffs[0], 3)
            moved = d(_combine([bd] + reps, [1] + coeffs))
            out += [("class%d" % q, [c, moved]),
                    ("class%d-boundary" % q, [c, moved, d(bd)])]
    return [("%s/%s" % (cname, name), files) for name, files in out]


_A2 = identity_family(A2, S2)
_CONTEXTS = [
    ("A2-S2", _A2, False),
    ("A2-S2-V-signed", change_basis_of_V(
        _A2, signed_permutation(random.Random("A2-S2-V-signed"), _A2.dimV)),
     False),
    ("A1-S2", identity_family(A1, S2), True),
]
_CONTEXTS += [
    (name + "-V-frac", change_basis_of_V(
        ctx, fraction_basis(random.Random(name + "-V-frac"), ctx.dimV)),
     by_classes)
    for name, ctx, by_classes in _CONTEXTS if name in ("A2-S2", "A1-S2")]
CASES = {name: (lambda files=files: _run(files))
         for cname, ctx, by_classes in _CONTEXTS
         for name, files in queries(cname, ctx, by_classes)}


# recorded before the coboundaries accumulated in place; the -V-frac cases
# before the image tables came from one batched contraction kernel
EXPECTED = {
    'A1-S2-V-frac/boundary0':
        'ffcbd939bd46a0c9ebeb9d443f1f549f2dda3a1d62eb88b244b0796692700b4b',
    'A1-S2-V-frac/boundary0-boundary':
        '51dd40c60e4db5c352788350ded643c9db8f0a45e9b02adf91b21de6512b1bcc',
    'A1-S2-V-frac/boundary1':
        '39670d4ff777c572d263ab7649a4682e6e897180cba79dbc05c5bb4035a8a576',
    'A1-S2-V-frac/boundary1-boundary':
        '85e2d08585a8be1e5a32a661e3f6f94769b94317ed63053a0491c1831f715f2b',
    'A1-S2-V-frac/boundary2':
        '03e5f3fb3420d954237769f2f9f9943aa61018ca2076e57b7c8b76dfbf20dab5',
    'A1-S2-V-frac/boundary2-boundary':
        '20cbe736bf2f8959cc1c03b275d0192d4aa18b47324218a07ed5817a740ec550',
    'A1-S2-V-frac/class0':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2-V-frac/class0-boundary':
        '8fa473eb96571257cb1fcfff1f6deeb76c2a5a274f45cd0dbd58f00fe799e460',
    'A1-S2-V-frac/class1':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2-V-frac/class1-boundary':
        '8fa473eb96571257cb1fcfff1f6deeb76c2a5a274f45cd0dbd58f00fe799e460',
    'A1-S2-V-frac/class2':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2-V-frac/class2-boundary':
        '8fa473eb96571257cb1fcfff1f6deeb76c2a5a274f45cd0dbd58f00fe799e460',
    'A1-S2-V-frac/entry0':
        '58c57db87af167d4edb604afd864a13cb96ed4429d79fe2e7216b7dacdd92359',
    'A1-S2-V-frac/entry1':
        'a6c05f4cdf9142ab73fb377c0e5d0723fe3c66f536d6afde2bd7287b4f8fe42b',
    'A1-S2-V-frac/entry2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2-V-frac/fraction0':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2-V-frac/fraction0-random':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2-V-frac/fraction0-zero':
        'aa7a9ab8a349a3a6b3db24506183f7a84f3c2e57b31d8ed9bd6f209684977d95',
    'A1-S2-V-frac/fraction1':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2-V-frac/fraction1-random':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2-V-frac/fraction1-zero':
        'cc37cc0ab79f4c3df13d606228382e8711ca2586a29bf2022981845e4ab00bd6',
    'A1-S2-V-frac/moved0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2-V-frac/moved0-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A1-S2-V-frac/moved1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2-V-frac/moved1-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A1-S2-V-frac/moved2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2-V-frac/moved2-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A1-S2-V-frac/random0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2-V-frac/random1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2-V-frac/random2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2-V-frac/zero':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2-V-frac/zero-zero':
        '0fd3b52f4de13ec3883e99fbb51a8566506f961995a4e4050fc1bea86d360d05',
    'A1-S2/boundary0':
        '9a618cd6bd7b19e05dfbcf399c2e71b60900104ceee02036cf9d664562e54561',
    'A1-S2/boundary0-boundary':
        'e7724e477620680a3d344b83b0378de32543ea8da168e1055d4ae2a8fe9fc013',
    'A1-S2/boundary1':
        'f32e18b4af81298c9db07fc9a6cb9612883b89b3ee8af555e2a5c668a51fe506',
    'A1-S2/boundary1-boundary':
        'eaa1243377758b0bc7ac92851f183f9d3724d788ddc9e6d7ebf3c65f2b2925e4',
    'A1-S2/boundary2':
        'fbe91cbc6f794385cbef058d988fce81f7241fa8852b1d35d3c7612f8621513e',
    'A1-S2/boundary2-boundary':
        'c5acd44ca25f8f3c2cfbc4c6a05d5c7d832df9924cc1a4515b48de262f467489',
    'A1-S2/class0':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2/class0-boundary':
        '8fa473eb96571257cb1fcfff1f6deeb76c2a5a274f45cd0dbd58f00fe799e460',
    'A1-S2/class1':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2/class1-boundary':
        '8fa473eb96571257cb1fcfff1f6deeb76c2a5a274f45cd0dbd58f00fe799e460',
    'A1-S2/class2':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2/class2-boundary':
        '8fa473eb96571257cb1fcfff1f6deeb76c2a5a274f45cd0dbd58f00fe799e460',
    'A1-S2/entry0':
        'cfcd3e1148ec538a38b539237925372b0c704c7c24ac754477595ca1e427e634',
    'A1-S2/entry1':
        'cfcd3e1148ec538a38b539237925372b0c704c7c24ac754477595ca1e427e634',
    'A1-S2/entry2':
        '58c57db87af167d4edb604afd864a13cb96ed4429d79fe2e7216b7dacdd92359',
    'A1-S2/fraction0':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2/fraction0-random':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2/fraction0-zero':
        '5a12846b85f0b5c47d7ca1c98433e98516fd6d952a95af4b9734571afff43e4d',
    'A1-S2/fraction1':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2/fraction1-random':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2/fraction1-zero':
        '34591e720779200f39eb9213d639de69f640103431585c8c489b4a266f36112b',
    'A1-S2/moved0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2/moved0-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A1-S2/moved1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2/moved1-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A1-S2/moved2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2/moved2-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A1-S2/random0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2/random1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2/random2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A1-S2/zero':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A1-S2/zero-zero':
        '0fd3b52f4de13ec3883e99fbb51a8566506f961995a4e4050fc1bea86d360d05',
    'A2-S2-V-frac/boundary0':
        '072caef0f8a20e34a51c6e53c3cbdef4e88667e464b315ee42fe285d6565a6d8',
    'A2-S2-V-frac/boundary0-boundary':
        '926c252a2e63fd667406c4ca4249242c79d4c279383c87745541b1186f6f5356',
    'A2-S2-V-frac/boundary1':
        'e22f6dccfcdef0ea264c0f8d6c8afdc1a69aadb6ef87f7f14e9c2bc00678a61c',
    'A2-S2-V-frac/boundary1-boundary':
        'eb366390f57a7dc9338a1c1e9a7728f11d4365d5943dbba56402eeea586622cd',
    'A2-S2-V-frac/boundary2':
        '2ef15ac15b527386445dbb05c12f4c68f1d8a1d32680a4e2bd63c41a7196d64a',
    'A2-S2-V-frac/boundary2-boundary':
        'd70a441d089d4f6d4eea7ffd42f10f914412ec0ee67a29e5e25da86b677fbd83',
    'A2-S2-V-frac/entry0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/entry1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/entry2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/fraction0':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A2-S2-V-frac/fraction0-random':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/fraction0-zero':
        'e905ac9860392391bb5162b0945ec00ee511980194ca64aa8858d851382bcdcf',
    'A2-S2-V-frac/fraction1':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A2-S2-V-frac/fraction1-random':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/fraction1-zero':
        'fe73742320c87d1e48df25319b7857a83c2f176398228488b7df671404554b74',
    'A2-S2-V-frac/moved0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/moved0-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A2-S2-V-frac/moved1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/moved1-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A2-S2-V-frac/moved2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/moved2-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A2-S2-V-frac/random0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/random1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/random2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-frac/zero':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A2-S2-V-frac/zero-zero':
        '0fd3b52f4de13ec3883e99fbb51a8566506f961995a4e4050fc1bea86d360d05',
    'A2-S2-V-signed/boundary0':
        'bab4ae82a444f70b7b01df3acc8f83fa8f0d868a4e035aa9c517ac5abd860e6d',
    'A2-S2-V-signed/boundary0-boundary':
        '612d3c3170e0576695a22f9bf922c37cff81777895c736c208fa5cf7e3c4c227',
    'A2-S2-V-signed/boundary1':
        '753a89b9a52eb8bb485c5db529edec0bf2d0d09bebe25c5bd55fb7af51e8b04b',
    'A2-S2-V-signed/boundary1-boundary':
        '9071837cfd9a192b7ea2f4ded0560b8e8e1cdeed86ece9560e6c2f437a92a54d',
    'A2-S2-V-signed/boundary2':
        '16e098bae4d5600a2a65a36310f49071ac9d34cf2e82bf79a785a12636345bbb',
    'A2-S2-V-signed/boundary2-boundary':
        '18e120e54e63b7fade2fc2b6faa5fbc9d1239a801eeda46063b1172273b69c4d',
    'A2-S2-V-signed/entry0':
        '4912de22d217ee7ef46b2e0ae4704dcc343ef11269179568ca10f78e4e5763eb',
    'A2-S2-V-signed/entry1':
        '58c57db87af167d4edb604afd864a13cb96ed4429d79fe2e7216b7dacdd92359',
    'A2-S2-V-signed/entry2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-signed/fraction0':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A2-S2-V-signed/fraction0-random':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-signed/fraction0-zero':
        'd77ed297f264121423d6990b4b0118e53ffd48a48c9e99a470f95ccf1c0840ef',
    'A2-S2-V-signed/fraction1':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A2-S2-V-signed/fraction1-random':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-signed/fraction1-zero':
        '5eb690bbe5a451acdc6db9154855e3ba5699e63c92a481cb032fe7e936dea214',
    'A2-S2-V-signed/moved0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-signed/moved0-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A2-S2-V-signed/moved1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-signed/moved1-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A2-S2-V-signed/moved2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-signed/moved2-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A2-S2-V-signed/random0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-signed/random1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-signed/random2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2-V-signed/zero':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A2-S2-V-signed/zero-zero':
        '0fd3b52f4de13ec3883e99fbb51a8566506f961995a4e4050fc1bea86d360d05',
    'A2-S2/boundary0':
        'eb3008a43a84d06d5c03256bc2f8f21b63a59f2afd58b3ef9dabeaefe24c4a6a',
    'A2-S2/boundary0-boundary':
        '28c258b7a2d498af284d9720d6d2c084de7013c90e77f601e66de0b1ff33f65f',
    'A2-S2/boundary1':
        'c12b469828523b71c3960e398b903570a62e45e3e8ac44cc5a9a422bcf06cb73',
    'A2-S2/boundary1-boundary':
        'ca1ebe035d23f6aed239c01369ffc389971350921418b6ee9bec1a039fb5bb70',
    'A2-S2/boundary2':
        'f80213786c9c3e30adaa3e70398420921b2efa84bef298c12c1b1af09fda7c3c',
    'A2-S2/boundary2-boundary':
        '39a13a4bd56b63162f67cf11b2eea085da4f292d7ace0bc6fc7f8d5cba09fe0e',
    'A2-S2/entry0':
        'a6c05f4cdf9142ab73fb377c0e5d0723fe3c66f536d6afde2bd7287b4f8fe42b',
    'A2-S2/entry1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2/entry2':
        '4912de22d217ee7ef46b2e0ae4704dcc343ef11269179568ca10f78e4e5763eb',
    'A2-S2/fraction0':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A2-S2/fraction0-random':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2/fraction0-zero':
        '197a334d1c17be539cd392e2322c3c24c446918170a1a1431bc87131b036a250',
    'A2-S2/fraction1':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A2-S2/fraction1-random':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2/fraction1-zero':
        '4cd8a47b2f691aacd542084e5a2f36b93ab0f078b02ec3a51773ecdb6af50d31',
    'A2-S2/moved0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2/moved0-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A2-S2/moved1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2/moved1-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A2-S2/moved2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2/moved2-boundary':
        '2e8207ef1ba98f93f7fed7f02ae0e47b61603c311ce9b1e887c449b6fdb50497',
    'A2-S2/random0':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2/random1':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2/random2':
        'a62595040faeafd12c3ddb104b51f4e6acf0ebc0f04bdb2d929be36450e350d0',
    'A2-S2/zero':
        '565b723b5312fd5713171fb8faa5b57066af0dd9539732eb3015f109a687f3b5',
    'A2-S2/zero-zero':
        '0fd3b52f4de13ec3883e99fbb51a8566506f961995a4e4050fc1bea86d360d05',
}


def test_fraction_contexts_have_dense_images():
    for name, ctx, _ in _CONTEXTS:
        if name.endswith("-V-frac"):
            assert dense(ctx), name
            assert any(type(x) is Fraction and x.denominator > 1
                       for T in ctx.family for row in T for x in row), name


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_deform_reference(name):
    assert digest(CASES[name]()) == EXPECTED[name]
