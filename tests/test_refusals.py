"""The exact text of each refusal made from a failed law report: the
operation's message with the first violation or the sorted law names,
reached through the public function or through `lyfam --json`."""
import copy
import json

import pytest

from conftest import make_a1, make_a2, skew_binary
from lyfam import cli, ly
from lyfam import linalg as la
from lyfam import serialize as sz
from lyfam.cohomology import (DeformationDirection, RBFComplex,
                              induced_omega_ly_on_V, partial_deg1)
from lyfam.errors import PreconditionError
from lyfam.ly import (Cocycle23, ly_from_leibniz, ly_from_lie,
                      ly_tensor_semigroup, zero_ly, zero_representation)
from lyfam.nsfamily import ns_from_twisted_rb, ns_tensor_semigroup
from lyfam.omega import (CochainFamily, delta_omega, omega_ly_from_ns_family,
                         omega_ly_from_omega_lie, omega_ly_from_reynolds,
                         zero_omega_ly, zero_omega_representation)
from lyfam.rbfamily import (TwistedRBContext, bar_operator, identity_family,
                            nijenhuis_induced_context, reynolds_as_twisted)
from lyfam.report import Report
from lyfam.semigroup import FiniteCommutativeSemigroup, trivial_semigroup

S1 = trivial_semigroup()
S2 = FiniteCommutativeSemigroup(2, [[0, 1], [1, 1]], unit=0)
NONASSOC = FiniteCommutativeSemigroup(2, [[1, 0], [0, 0]])

# e_0 . e_0 = -e_0 and {e_1, e_1, e_1} = e_0 over S1: skew, and its only
# violations lie where the label of x is the larger one
NS_OFF_PAIR = {"kind": "ns-family", "dim": 2, "semigroup": {
    "kind": "semigroup", "order": 1, "table": [[0]], "unit": 0},
    "bullet": [[0, 0, 0, 0, "-1"]], "vee": [],
    "curly": [[0, 0, 1, 1, 1, 0, "1"]], "square": []}

# a value at (e0, e0), whose two labels are equal, must vanish
NON_SKEW_COCHAIN = {"kind": "cochain", "degree": [2, 3], "dim_alg": 2,
                    "dim_coeff": 2, "semigroup": sz.semigroup_to_json(S1),
                    "entries": [[[0, 0], [0, 0], 0, "1"]]}


def _not_a_family():
    """The identity family of A1 over S2 with one entry of T_0 moved."""
    ctx = copy.deepcopy(identity_family(make_a1(), S2))
    ctx.family[0][0][0] += 1
    return ctx


def _over_nonassoc():
    """The zero family over a semigroup that is not associative."""
    L, V = zero_ly(1), zero_representation(1, 1)
    return TwistedRBContext(L, V, Cocycle23([[[0]]], [[[[0]]]]), NONASSOC,
                            la.zeros(2, 1, 1))


def _not_skew_context():
    """Gamma1(e_0, e_0) = u_0, with dim L = dim V = 1 over S1, T = 0."""
    L, V = zero_ly(1), zero_representation(1, 1)
    return TwistedRBContext(L, V, Cocycle23([[[1]]], [[[[0]]]]), S1, [[[0]]])


def _not_skew_brackets():
    """delta of the zero cochain over [e_0, e_0] = e_0, dim 1 over S1."""
    O = zero_omega_ly(1, S1)
    O.binary[0][0][0][0] = [1]
    r = zero_omega_representation(O, 1)
    return delta_omega(O, r, CochainFamily(S1, 1, 1, 1, [[[0]]]))


def _bad_leibniz_output(monkeypatch):
    """ly_from_leibniz on a Leibniz product, its output check made to fail."""
    bad = Report()
    bad.add("LY-2.2", (0, 0, 0), (1,))
    bad.add("LY-2.1", (0, 0), (1,))
    monkeypatch.setattr(ly, "check_ly_axioms", lambda A: bad)
    return ly_from_leibniz([[[0]]])


def _jacobi_fails():
    """A skew bracket on dim 3 that is not a Lie bracket."""
    return skew_binary(3, [(0, 1, [0, 0, 1]), (0, 2, [1, 0, 0]), (1, 2, [0, 1, 0])])


A1_REYNOLDS_BAD = [la.identity(2), la.zeros(2, 2)]
A2_NIJENHUIS_BAD = [[[1, 0, 0], [0, 0, 0], [0, 0, 0]]]

CALLS = [
    ("cohomology._induced_algebra", lambda mp: induced_omega_ly_on_V(_not_a_family()),
     "input is not a twisted Rota-Baxter family"),
    ("RBFComplex semigroup", lambda mp: RBFComplex(_over_nonassoc()),
     "semigroup fails validation: ['SG-assoc']"),
    ("RBFComplex family", lambda mp: RBFComplex(_not_a_family()),
     "input is not a twisted Rota-Baxter family: ['RBF-3.1', 'RBF-3.2']"),
    ("cohomology._require_skew_context", lambda mp: partial_deg1(
        RBFComplex(_not_skew_context(), check=False),
        DeformationDirection([[[0]]])),
     "the brackets or cocycle of the context are not skew: "
     "Violation(law='invariant:skew-gamma1', witness=(0, 0), residual=(2,))"),
    ("ly_from_lie", lambda mp: ly_from_lie(_jacobi_fails()),
     "input bracket is not a Lie bracket: ['jacobi']"),
    ("ly_from_leibniz input", lambda mp: ly_from_leibniz([[[1]]]),
     "input product violates the left Leibniz law"),
    ("ly_from_leibniz output", _bad_leibniz_output,
     "Leibniz input produced an invalid bracket pair: ['LY-2.1', 'LY-2.2']"),
    ("ly_tensor_semigroup", lambda mp: ly_tensor_semigroup(make_a1(), NONASSOC),
     "semigroup fails validation"),
    ("ns_tensor_semigroup", lambda mp: ns_tensor_semigroup(
        sz.ns_family_from_json(NS_OFF_PAIR)),
     "input fails the NS family axioms: ['NSF-4.18']"),
    ("ns_from_twisted_rb", lambda mp: ns_from_twisted_rb(_not_a_family()),
     "input is not a twisted Rota-Baxter family"),
    ("omega_ly_from_omega_lie skew", lambda mp: omega_ly_from_omega_lie(
        1, S1, [[[[[1]]]]]),
     "binary tensor is not skew: "
     "Violation(law='invariant:skew-binary', witness=(0, 0, 0, 0), residual=(2,))"),
    ("omega_ly_from_omega_lie Jacobi", lambda mp: omega_ly_from_omega_lie(
        3, S1, [[_jacobi_fails()]]),
     "indexed Jacobi identity fails: "
     "Violation(law='OLIE-jacobi', witness=(0, 0, 0, 0, 1, 2), residual=(0, 0, -2))"),
    ("omega_ly_from_ns_family", lambda mp: omega_ly_from_ns_family(
        sz.ns_family_from_json(NS_OFF_PAIR)),
     "input fails the splitting-family axioms: "
     "Violation(law='NSF-4.18', witness=(0, 0, 0, 1, 0, 1, 1), residual=(1, 0))"),
    ("omega_ly_from_reynolds", lambda mp: omega_ly_from_reynolds(
        make_a1(), S2, A1_REYNOLDS_BAD),
     "input fails the Reynolds family laws: "
     "Violation(law='REY-ter', witness=(0, 0, 0, 0, 1, 1), residual=(-1, 0))"),
    ("omega._require_skew_brackets", lambda mp: _not_skew_brackets(),
     "the brackets of the algebra are not skew: "
     "Violation(law='invariant:skew-binary', witness=(0, 0, 0, 0), residual=(2,))"),
    ("reynolds_as_twisted", lambda mp: reynolds_as_twisted(
        make_a1(), S2, A1_REYNOLDS_BAD),
     "not a Reynolds family: ['REY-ter']"),
    ("identity_family", lambda mp: identity_family(make_a1(), NONASSOC),
     "semigroup fails validation"),
    ("nijenhuis_induced_context", lambda mp: nijenhuis_induced_context(
        make_a2(), S1, A2_NIJENHUIS_BAD),
     "not a Nijenhuis family: ['NIJ-bin']"),
    ("bar_operator", lambda mp: bar_operator(_not_a_family()),
     "input is not a twisted Rota-Baxter family"),
    ("cochain_from_json", lambda mp: sz.cochain_from_json(NON_SKEW_COCHAIN),
     "the cochain is not skew: Violation(law='invariant:cochain-skew-even', "
     "witness=(0, (0, 0), (0, 0)), residual=(2, 0))"),
]


@pytest.mark.parametrize("call,want", [(c[1], c[2]) for c in CALLS],
                         ids=[c[0] for c in CALLS])
def test_refusal_message(call, want, monkeypatch):
    with pytest.raises(PreconditionError) as exc:
        call(monkeypatch)
    assert str(exc.value) == want


def _semidirect_with_bad_rho(tmp_path):
    """construct semidirect on A1, its adjoint representation with
    rho(e_0) u_0 gaining u_0, and gamma_ad."""
    A = make_a1()
    d = sz.representation_to_json(ly.adjoint_representation(A), A.dim)
    d["rho"].append([0, 0, 0, "1"])
    paths = []
    for name, payload in (("a1", sz.ly_to_json(A)), ("badadj", d), (
            "gad", sz.cocycle_to_json(ly.gamma_ad(A), A.dim, A.dim))):
        paths.append(str(tmp_path / (name + ".json")))
        sz.save_json(paths[-1], payload)
    return ["construct", "semidirect", *paths]


def _ns_file(recipe):
    def argv(tmp_path):
        path = str(tmp_path / "ns.json")
        sz.save_json(path, NS_OFF_PAIR)
        return ["construct", recipe, path]
    return argv


COMMANDS = [
    ("cli._checked", _semidirect_with_bad_rho,
     "error: representation input fails re-verification: "
     "['REP-2.13', 'REP-2.5', 'REP-2.6', 'REP-2.7', 'REP-2.8', 'REP-2.9']"),
    ("construct omega-from-ns", _ns_file("omega-from-ns"),
     "error: input fails the splitting-family axioms: "
     "Violation(law='NSF-4.18', witness=(0, 0, 0, 1, 0, 1, 1), residual=(1, 0))"),
    ("construct ns-tensor", _ns_file("ns-tensor"),
     "error: input fails the NS family axioms: ['NSF-4.18']"),
]


@pytest.mark.parametrize("argv,want", [(c[1], c[2]) for c in COMMANDS],
                         ids=[c[0] for c in COMMANDS])
def test_refusal_summary_of_the_cli(argv, want, tmp_path, capsys):
    out = str(tmp_path / "out.json")
    assert cli.main(["--json", *argv(tmp_path), "-o", out]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["summary"] == want
    assert not (tmp_path / "out.json").exists()
