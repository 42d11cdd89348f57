"""The NS families of Nijenhuis and twisted Rota-Baxter families and the
closed-form report of the induced D, on fixed, seeded inputs, against
digests.

Each reads a context's tensors at the images of a family.  Each case is
reduced to the SHA-256 of its `repr`, the digest of the law references:
the `repr` shows every entry with its type, so a moved coordinate, a lost
sign or an `int` that became a `Fraction` changes the digest.

`ns_from_nijenhuis` runs on the 19 Nijenhuis families of the construction
references: those of the law references that pass their check, and the
five over S2 whose matrices differ between the elements.
`rep_d_closed_form_report(ctx, rep=induced_rep_on_L(ctx, check=False))`
runs on the contexts of the induced references and on each identity
family with V in a seeded random basis and then perturbed, where the
residuals are nonempty and `Fraction`-valued.
`ns_from_twisted_rb` runs on the families of the induced references, as
built and with V in a random basis, whose `Fraction` coordinates can cancel
to zeros of either type.

To see what changed after a deliberate change, print `CASES[name]()` for
the failing case.
"""
import random

import pytest

from lyfam.cohomology import induced_rep_on_L, rep_d_closed_form_report
from lyfam.nsfamily import ns_from_nijenhuis, ns_from_twisted_rb
from test_construction_reference import SPLIT_FAMILIES
from test_dense_images import perturbed
from test_induced_reference import CTX
from test_law_reference import (OPERATOR_ALGEBRAS, OPERATOR_KINDS,
                                OPERATOR_SEMIGROUPS, S2, digest,
                                operator_family)

CASES = {}
for _aname, _A in OPERATOR_ALGEBRAS:
    for _sname, _s in OPERATOR_SEMIGROUPS:
        for _kind in OPERATOR_KINDS:
            _key = "%s-%s-%s" % (_aname, _sname, _kind)
            if _kind in ("int", "frac") and _key not in (
                    "A1-S1-int", "A1-S1-frac"):
                continue
            CASES["ns_from_nijenhuis/" + _key] = (
                lambda A=_A, s=_s, kind=_kind, seed=_key: ns_from_nijenhuis(
                    A, s, operator_family(A, s, kind, seed)))
for _key, (_A, _N) in SPLIT_FAMILIES.items():
    CASES["ns_from_nijenhuis/" + _key] = (
        lambda A=_A, N=_N: ns_from_nijenhuis(A, S2, N))


def _closed_form(ctx):
    return rep_d_closed_form_report(ctx, rep=induced_rep_on_L(ctx, check=False))


CONTEXTS = dict(CTX)
for _cname in ("A1-S1", "A1-S2", "A1-Z3", "A2-S1", "A2-S2", "A2-Z3"):
    _key = _cname + "-V-moved-perturbed"
    CONTEXTS[_key] = perturbed(CTX[_cname + "-V-moved"], random.Random(_key))
for _cname, _ctx in CONTEXTS.items():
    CASES["rep_d_closed_form_report/" + _cname] = (
        lambda ctx=_ctx: _closed_form(ctx))
    if "perturbed" not in _cname:
        CASES["ns_from_twisted_rb/" + _cname] = (
            lambda ctx=_ctx: ns_from_twisted_rb(ctx))


# recorded from the hand-written contractions, before every structure a
# family induces read ImageTables
EXPECTED = {
    'ns_from_nijenhuis/A1-S1-frac':
        '6dbf7212f3ccb9614474ab5151f3729d8854dcdf476f9ee40b3fe0e16c37789e',
    'ns_from_nijenhuis/A1-S1-identity':
        'd27cc4a1eddf8a85328be32230fa91e75b86cbf78479f7e10af0f16a8f734b53',
    'ns_from_nijenhuis/A1-S1-int':
        'a401141d990b3ed0766a349b41d1d49f0e010eb4b43075d24ce76a077476f448',
    'ns_from_nijenhuis/A1-S1-zero':
        '72f9a7cb2a3c8f54a546f155d61d30375537baedba70f3ff48ea8249fee7ee26',
    'ns_from_nijenhuis/A1-S2-identity':
        '80832a3e22e79ebfd08027ed79180bd86cbd8f50fe591bdac66c678cbf31c8cd',
    'ns_from_nijenhuis/A1-S2-identity-zero':
        '22f1d279c0ccb4860b7b3f32710c8101f324b6c2bf3150c45d8ac46221ad1277',
    'ns_from_nijenhuis/A1-S2-triangular':
        '5739cdbbdcddb4f4895d5da31aefc7cf98fe709407dd6d204ade6c98bdc40ba6',
    'ns_from_nijenhuis/A1-S2-zero':
        '0daf3db3d7a4fca5377a4c4701be00f8e2d01c6f10f0149f968fed483d59432f',
    'ns_from_nijenhuis/A1-S2-zero-identity':
        'ebc3829635b8459b2253ea11bbd6f5c843324d031bbca1566c5fc67556eac4cf',
    'ns_from_nijenhuis/A1-W2-identity':
        '38e6a6842442dbdcb74070c132bf136ef5758ccfcb44ba9b3b7ea6a7608f3b69',
    'ns_from_nijenhuis/A1-W2-zero':
        '5535aa64a5e9dbf91223266a0a66488636ebaf5c7b3e2d7c0b1f13284ffcdde3',
    'ns_from_nijenhuis/A2-S1-identity':
        '0acb7fd670d686e305d18efc6a2cde3a4f9f59841a0b8faa8cf2164b4113f143',
    'ns_from_nijenhuis/A2-S1-zero':
        '681ff4bc8bceaee2b57a51ad0ee1162c6218b4f2ce4dabb7f642724e74c0b906',
    'ns_from_nijenhuis/A2-S2-identity':
        'a2dfbdef84ba35b4b3b078a60bfef02bab833e2907640907974307c136728108',
    'ns_from_nijenhuis/A2-S2-identity-zero':
        '6208d80b9cc21705c823a0964d5a9cdbf1682ca99546da55ac613831d6f020b8',
    'ns_from_nijenhuis/A2-S2-zero':
        '0b05ce163d5126c2f935b5c4f386811b3fb0abc000562ed8abf210a056261bc3',
    'ns_from_nijenhuis/A2-S2-zero-identity':
        'ccfbc5cd654fec8292cf8b096b2d44a3c7af52b164d27d04fb6142204dded8cd',
    'ns_from_nijenhuis/A2-W2-identity':
        '9bee8e7c2bcefdb0532874dcc3827504811489c0a539e21d9e3de29bdefb9436',
    'ns_from_nijenhuis/A2-W2-zero':
        '2eb34a76e963239bd58fdffb07a1411813a35f3ef2f84a86d96e936c49c86503',
    'ns_from_twisted_rb/A1-S1':
        'd27cc4a1eddf8a85328be32230fa91e75b86cbf78479f7e10af0f16a8f734b53',
    'ns_from_twisted_rb/A1-S1-V-moved':
        '8d95ad7d2f31bfab6434caa6a7ebe63555aa5dd5d0febb18b077befc42b5b11e',
    'ns_from_twisted_rb/A1-S2':
        '80832a3e22e79ebfd08027ed79180bd86cbd8f50fe591bdac66c678cbf31c8cd',
    'ns_from_twisted_rb/A1-S2-V-moved':
        '9c85cd35c922d54fa6d3f3d79246c1de101f5d27355ff24b3724a906016eddc6',
    'ns_from_twisted_rb/A1-Z3':
        'd15f2f8d0633cbec5c6b9b18807c5102e6e7887a7f42785e468b57bc10b1265c',
    'ns_from_twisted_rb/A1-Z3-V-moved':
        '159134028dcb6e6f6937e1b051f8479f7630afa3826afc9ea7dd256adc9a4e8b',
    'ns_from_twisted_rb/A2-S1':
        '0acb7fd670d686e305d18efc6a2cde3a4f9f59841a0b8faa8cf2164b4113f143',
    'ns_from_twisted_rb/A2-S1-V-moved':
        '4911769deb2cd9c6d8c5224fe4078e5bc3cc54a1d61fce4d3c962f53ea144fca',
    'ns_from_twisted_rb/A2-S2':
        'a2dfbdef84ba35b4b3b078a60bfef02bab833e2907640907974307c136728108',
    'ns_from_twisted_rb/A2-S2-V-moved':
        '0500a1c6b903a2ebb57e0bf6c1f47c4d1cfdfa7f27ff687625b122498e3f1cd0',
    'ns_from_twisted_rb/A2-Z3':
        '23f6e267613a1e478bb2593a5e772d452d3a42323c3b6f463a30720ae5fc5317',
    'ns_from_twisted_rb/A2-Z3-V-moved':
        '13bc0b183e487a27d9a1b0e516d1b5769777fb4224fca0b6f5ad61f843da9929',
    'rep_d_closed_form_report/A1-S1':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A1-S1-V-moved':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A1-S1-V-moved-perturbed':
        '69e3db1455ca5461f0be4a4e2c92c5ef2b2ec093ab665b0ac05ea1ce2503a9e5',
    'rep_d_closed_form_report/A1-S1-perturbed':
        'c5224f911e89ccd85fe4fb3df5778f7b154a0f13e231ec7e393dabac1fca938f',
    'rep_d_closed_form_report/A1-S2':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A1-S2-V-moved':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A1-S2-V-moved-perturbed':
        'ad1263aaeb86f873dd9e0fc5985f6b9207e0dda3f9cb076cf7aed427c20b1845',
    'rep_d_closed_form_report/A1-S2-perturbed':
        'd8f988b4a18166f76f636368750f203b6f95663103d4271da4335e32d8fb92b6',
    'rep_d_closed_form_report/A1-Z3':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A1-Z3-V-moved':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A1-Z3-V-moved-perturbed':
        'c30da1c052d686c2f4589c49d96afd3f6e2c0c21bf7fe590aa37f541538ee186',
    'rep_d_closed_form_report/A1-Z3-perturbed':
        '5e582742743fe8ae1739037586a7f532f63a43a11940c343f0d4fd70e1f66356',
    'rep_d_closed_form_report/A2-S1':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A2-S1-V-moved':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A2-S1-V-moved-perturbed':
        'e0c121bfba57a5a3264db878964ae2e276ba0bf4e2ec67c6fa7a3657a423b558',
    'rep_d_closed_form_report/A2-S1-perturbed':
        '6c0dbd80ebbdbc68625dd16beec68a0d362974ff290f7d542b92d9815155f17e',
    'rep_d_closed_form_report/A2-S2':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A2-S2-V-moved':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A2-S2-V-moved-perturbed':
        '24ccd48e69c34da18bdc694516f0e3e41c0c880988eb53e04d1b3f8f97e8e3e6',
    'rep_d_closed_form_report/A2-S2-perturbed':
        '6ebba34c821f515ea1639c04eff845e2e07b0b0fcd014905eb35e74a2baf6bd9',
    'rep_d_closed_form_report/A2-Z3':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A2-Z3-V-moved':
        '257a07fa2ab6983778a41b092cdd7eb05c7a9a3348b70ec8dc6d606527afbd79',
    'rep_d_closed_form_report/A2-Z3-V-moved-perturbed':
        '8484fed731802f6ca129f8bf57fefa9e4f2afb5fe180ef4199a790d558d9acc2',
    'rep_d_closed_form_report/A2-Z3-perturbed':
        '4f650ffaf23a3d703842ce63e941485c5a3e13556fb17cb25a30fcfecc44ca4e',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_family_table_reads_match_reference(name):
    assert digest(CASES[name]()) == EXPECTED[name]
