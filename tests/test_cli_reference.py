"""Every `lyfam construct` recipe, its refusals, `check-rbf` and `validate`
through `cli.main`, against digests.

Each case runs `lyfam --json <argv>` in-process and reduces the exit code,
the JSON printed on stdout (with the temporary directory written as
"{tmp}") and the text of the file it writes (or None) to the SHA-256 of
the `repr` of the three.  A changed summary, payload, exit code or output
byte changes the digest.

The inputs are A1 and A2 over the two-element semigroup: each algebra and
its Lie bracket as a `bilinear` file, the semigroup, the identity family,
its NS family, the adjoint representation with its twist `gamma_ad`, and
the zero Nijenhuis direction.  Every recipe runs on A1, and every recipe
but `bar-operator` on A2, where it takes seconds, nearly all of them in
re-verification.

To see what changed after a deliberate change of the CLI, print
`run_case(name, tmp)` for the failing case, with the inputs written into
tmp by `write_inputs(tmp)`.
"""
import contextlib
import hashlib
import io
import os

import pytest

from lyfam import linalg as la
from lyfam import serialize as sz
from lyfam.cli import main
from lyfam.ly import adjoint_representation, gamma_ad
from lyfam.nsfamily import ns_from_twisted_rb
from lyfam.omega import omega_ly_from_ns_family
from lyfam.rbfamily import identity_family
from test_law_reference import A1, A2, S2

# recipe -> its input files, each written "@stem" for the file tmp/stem.json
RECIPES = {
    "ly-from-lie": "@{a}-bilinear",
    "ly-from-leibniz": "@{a}-bilinear",
    "tensor-semigroup": "@{a} @S2",
    "adjoint": "@{a}",
    "gamma-ad": "@{a}",
    "identity-family": "@{a} @S2",
    "nijenhuis-context": "@{a} @S2 @{a}-zero",
    "ns-from-rbf": "@{a}-ctx",
    "ns-tensor": "@{a}-ns",
    "omega-from-ns": "@{a}-ns",
    "semidirect": "@{a} @{a}-adjoint @{a}-gamma-ad",
    "bar-operator": "@{a}-ctx",
}


def write_inputs(tmp):
    """The input files of every case, written into the directory tmp."""

    def save(name, payload):
        sz.save_json(os.path.join(tmp, name + ".json"), payload)

    save("S2", sz.semigroup_to_json(S2))
    for a, A in (("A1", A1), ("A2", A2)):
        ctx = identity_family(A, S2)
        N = ns_from_twisted_rb(ctx)
        save(a, sz.ly_to_json(A))
        save(a + "-bilinear", {"kind": "bilinear", "dim": A.dim,
                               "entries": sz.tensor_entries(A.binary)})
        save(a + "-ctx", sz.context_to_json(ctx))
        save(a + "-ns", sz.ns_family_to_json(N))
        save(a + "-adjoint", sz.representation_to_json(
            adjoint_representation(A), A.dim))
        save(a + "-gamma-ad", sz.cocycle_to_json(gamma_ad(A), A.dim, A.dim))
        save(a + "-zero", sz.direction_to_json(
            [la.zeros(A.dim, A.dim)] * S2.order))
        omega = sz.omega_ly_to_json(omega_ly_from_ns_family(N))
        save(a + "-omega", omega)
        omega["binary"][0][-1] = sz.dump_scalar(
            sz.parse_scalar(omega["binary"][0][-1]) + 1)
        save(a + "-omega-nudged", omega)
    # [e_0, e_1] = e_2, [e_0, e_2] = e_0 and [e_1, e_2] = e_1 fail Jacobi
    save("non-lie", {"kind": "bilinear", "dim": 3, "entries": [
        [0, 1, 2, "1"], [1, 0, 2, "-1"], [0, 2, 0, "1"], [2, 0, 0, "-1"],
        [1, 2, 1, "1"], [2, 1, 1, "-1"]]})


def cases():
    """name -> argv, with "@stem" for the file tmp/stem.json."""
    out = {}
    for a in ("A1", "A2"):
        for recipe, inputs in RECIPES.items():
            if (a, recipe) != ("A2", "bar-operator"):
                out["construct/%s/%s" % (a, recipe)] = (
                    "construct %s %s -o @out" % (recipe, inputs.format(a=a)))
        out["check-rbf/" + a] = "check-rbf @%s-ctx" % a
    out.update({
        "refuse/two-files-to-ly-from-lie":
            "construct ly-from-lie @A1-bilinear @A1-bilinear -o @out",
        "refuse/no-file-to-adjoint": "construct adjoint -o @out",
        "refuse/missing-file": "construct adjoint @missing -o @out",
        "refuse/non-lie": "construct ly-from-lie @non-lie -o @out",
        "refuse/representation-as-cocycle":
            "construct semidirect @A1 @A1-adjoint @A1-adjoint -o @out",
        "refuse/output-into-missing-directory":
            "construct adjoint @A1 -o @missing/out",
    })
    for stem, kind in (("A1", "ly"), ("A1-ctx", "context"),
                       ("A1-ns", "ns-family"), ("A1-adjoint", "representation"),
                       ("A1-gamma-ad", "cocycle"), ("A1-zero", "direction"),
                       ("A1-omega", "omega-ly"),
                       ("A1-omega-nudged", "omega-ly")):
        out["validate/%s/%s" % (kind, stem)] = "validate @%s %s" % (stem, kind)
    return out


CASES = cases()


def run_case(name, tmp):
    """(exit code, stdout, text of tmp/out.json or None) of a case."""
    argv = [os.path.join(tmp, w[1:] + ".json") if w.startswith("@") else w
            for w in CASES[name].split()]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--json"] + argv)
    out_path, written = os.path.join(tmp, "out.json"), None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            written = fh.read()
        os.remove(out_path)
    return code, stdout.getvalue().replace(tmp, "{tmp}"), written


# recorded before construct moved onto one recipe table
EXPECTED = {
    'check-rbf/A1':
        '9bf636ae15ed5ecf1cb0f535bf5604316a9a88a47b8fc1197335bd38fde7e17e',
    'check-rbf/A2':
        'c30823d7eee3ce469b5301c60371b786151e3bd1214ff24934335e562588dc81',
    'construct/A1/adjoint':
        '593ceb25a101e73e68c55a5811df0921dcad93b5a2ac402f397829550dda574b',
    'construct/A1/bar-operator':
        '5f389dd3a8ae01090994724a32008d7c0e5acb5357d23e39cac46ce83928e89c',
    'construct/A1/gamma-ad':
        'e8ad9c36ace37e6f1f5a278039e49e6fee07d09e0705418ce3b0d7e0bca72d5c',
    'construct/A1/identity-family':
        'ce61c5f8b88c27a021785b6361d93b362f36f022c441f83b8ff7a0b5d85158ee',
    'construct/A1/ly-from-leibniz':
        '415896a93767c8fb81abab4b1df3c157051329c7320e371ff718dc5b67cfe4d0',
    'construct/A1/ly-from-lie':
        '374e3110393c2a7df2653b53e5b75154919cff0482a9cc5441ec513fa33bb9c9',
    'construct/A1/nijenhuis-context':
        '34e470d744b75781b6a54c0dc3bcfab05b744adbbdec0e696fa18fa9f1387ad0',
    'construct/A1/ns-from-rbf':
        'dc24370980273a0150259714cb95379e8b4acfc3b11b722e25c702249239f917',
    'construct/A1/ns-tensor':
        'a4b2dc4ed19713e81ef667614e105c38b6ca0dc7648387b55e7e428855fca8ad',
    'construct/A1/omega-from-ns':
        '519316b3b0f47196773dd4e264de536002ef7275f5715bedccf2cd5b6eb3c757',
    'construct/A1/semidirect':
        '3b63b828e0d2de9fbbbedaf97f29da097fdf50d8f34a8ae72ac102c6ec5bd86e',
    'construct/A1/tensor-semigroup':
        '777c5d2929257492c5c7c8c8a598fa4284e726b5b78063fc92fac09aabf352eb',
    'construct/A2/adjoint':
        '9f379fc80fe4c31161ca2c54d7f6abe5fcd9c2119c763f661b114f227c964ca0',
    'construct/A2/gamma-ad':
        '15aa6c9851322adb7a5c5f1ea4aae46fbf216f0c5e3b96235756b92c226d26d0',
    'construct/A2/identity-family':
        'a02dd2d57a0aa1383686ce13f925aceee62a09303a0e0a94b82a924a66800310',
    'construct/A2/ly-from-leibniz':
        '181fdaf48ff5e4f1748c21f6b87dd9d3b5ad6b92f3c98cbf3e5318c8e4675456',
    'construct/A2/ly-from-lie':
        'a6220499823d9445dd97673c482698fa57bb48ff94fee33ba6140a3e1439f52b',
    'construct/A2/nijenhuis-context':
        '37cf11062e8c55006a0af3fbea46ca1c4c069cc5e2a1346ea08906d1b1c54f84',
    'construct/A2/ns-from-rbf':
        '77cea69643cde4715bc419d37799f6ac4a164ed9ea3aa7aa0de216de42632c5e',
    'construct/A2/ns-tensor':
        '77b28df4e16d5aa07fadbcfeee42fb54f99b16adc83902b82bbf460af79eb2ad',
    'construct/A2/omega-from-ns':
        'cbaea996d3f8660037c5118b61e4130f3062af3ddc861754d1665933ecd83abf',
    'construct/A2/semidirect':
        'e7fd704b4e5d072f9afff8ca5ba5e314953a79f77833fe996944fc6f0e6d1ec1',
    'construct/A2/tensor-semigroup':
        '91d9dfa9fdf51e13ed5ace2cd0f51b97f7408db3083f66fc50c274a7a05d5430',
    'refuse/missing-file':
        '76944b817d41763dffdab61da40a4e7d5e31723044ee7ee1dd51c62dea640b39',
    'refuse/no-file-to-adjoint':
        '4400ba5e0dd45ca9ea0b498a80116759de1bd66eb9b4c781136b34c9ecc05cae',
    'refuse/non-lie':
        'aecc67369b3a32ba7deee8b9e34eb4a34e6beb57770a12c992a7c3533887935f',
    'refuse/output-into-missing-directory':
        'ed0ce8a8a2f5e0fc38567faf464b75173b040002d502eb795ae72dba48423f2e',
    'refuse/representation-as-cocycle':
        '8735ab479dc3dfe26639b78cd63b288b9d27ea6edaa9d16a18c62fabcf1a347c',
    'refuse/two-files-to-ly-from-lie':
        'd1f3e1ca0255b917429cb62aa6d25c61d9ce56df63aee2b332213707da72af96',
    'validate/cocycle/A1-gamma-ad':
        '2acddec5865d38720aa876b96db3ea2315ee0bcc17e7b766cb1a5f9a692d5e74',
    'validate/context/A1-ctx':
        'a8fd4beb56587dc65bdc5972f745f2a00c8032fade724d9a7a0d8010f5eb8776',
    'validate/direction/A1-zero':
        'a4c8cfa83550a08f7ba5c26a13802fa8360bf1cb83bf14a330bc8d803834b7f5',
    'validate/ly/A1':
        '77fda2efe19a895eeadca868a21f76ff477f7db3e87fe63019f71f1c70fb53dc',
    'validate/ns-family/A1-ns':
        '8e68f1dc8f13172cd80b2d5ef6f1c41918b57b21a1ebb309c235fa8736031fd8',
    'validate/omega-ly/A1-omega':
        '09c6dcd5fd5c8c21849b12c0da2a55ea092c8b0aefac92dde103502f9a50e0d8',
    'validate/omega-ly/A1-omega-nudged':
        '6b13c32080e6265ba656fe9ca9a6d2ea10ca7ee7b53ed9a77d3024ab4da2499f',
    'validate/representation/A1-adjoint':
        'e105ea51f32f0a641de8184ef49a9c44ef3305baf92b4182cd61eb7d80ebe699',
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("cli"))
    write_inputs(tmp)
    return tmp


def test_every_case_has_a_digest():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reference(inputs, name):
    result = run_case(name, inputs)
    assert hashlib.sha256(repr(result).encode()).hexdigest() == \
        EXPECTED[name], result
