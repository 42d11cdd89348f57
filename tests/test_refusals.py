"""The exact text of each refusal made from a failed law report: the
operation's message with the first violation or the sorted law names,
reached through the public function or through `lyfam --json`; and of each
shape, degree and index refusal that no other test reaches."""
import copy
import json

import pytest

from conftest import make_a1, make_a2, skew_binary
from lyfam import cli, ly
from lyfam import linalg as la
from lyfam import serialize as sz
from lyfam.cohomology import (DeformationDirection, RBFComplex,
                              induced_omega_ly_on_V, partial_23, partial_deg1,
                              partial_star_23)
from lyfam.errors import MalformedInputError, PreconditionError
from lyfam.ly import (Cocycle23, LYAlgebra, ly_from_leibniz, ly_from_lie,
                      ly_tensor_semigroup, zero_ly, zero_representation)
from lyfam.nsfamily import (check_ns_axioms, ns_from_twisted_rb,
                            ns_tensor_semigroup)
from lyfam.omega import (CochainFamily, delta_omega, delta_star_omega,
                         omega_cohomology_dims, omega_ly_from_ns_family,
                         omega_ly_from_omega_lie, omega_ly_from_reynolds,
                         skew_basis, zero_omega_ly, zero_omega_representation)
from lyfam.rbfamily import (TwistedRBContext, bar_operator, check_morphism,
                            identity_family, nijenhuis_induced_context,
                            reynolds_as_twisted)
from lyfam.report import Report
from lyfam.semigroup import (FiniteCommutativeSemigroup, product, product_of,
                             trivial_semigroup)

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


def _eta_not_a_morphism(eta):
    """check_morphism of the identity family of A1 over S2 with itself,
    along eta and the identity of V."""
    ctx = identity_family(make_a1(), S2)
    return check_morphism(ctx, ctx, eta, la.identity(ctx.dimV))


# eta = 2 id breaks the binary bracket at (0, 2); eta = id + E_10 keeps it
# at every pair up to (0, 2) and first breaks the ternary one, at (0, 2, 3)
ETA_DOUBLED = [[2 * x for x in row] for row in la.identity(4)]
ETA_SHEARED = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

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
    ("check_morphism binary", lambda mp: _eta_not_a_morphism(ETA_DOUBLED),
     "eta is not an algebra morphism: "
     "Violation(law='eta-binary', witness=(0, 2), residual=(-2, 0, 0, 0))"),
    ("check_morphism ternary", lambda mp: _eta_not_a_morphism(ETA_SHEARED),
     "eta is not an algebra morphism: "
     "Violation(law='eta-ternary', witness=(0, 2, 3), residual=(0, -1, 0, 0))"),
]


@pytest.mark.parametrize("call,want", [(c[1], c[2]) for c in CALLS],
                         ids=[c[0] for c in CALLS])
def test_refusal_message(call, want, monkeypatch):
    with pytest.raises(PreconditionError) as exc:
        call(monkeypatch)
    assert str(exc.value) == want


def _a1_complex():
    """The complex of the identity family of A1 over S2."""
    return RBFComplex(identity_family(make_a1(), S2))


def _zero_omega():
    """The zero indexed algebra of dim 1 over S1 and its zero module of
    dim 1."""
    O = zero_omega_ly(1, S1)
    return O, zero_omega_representation(O, 1)


def _family_over(s, family):
    """The zero context on dim L = dim V = 1 over s, with this family."""
    return TwistedRBContext(zero_ly(1), zero_representation(1, 1),
                            Cocycle23([[[0]]], [[[[0]]]]), s, family)


def _ns_over_s2():
    return sz.ns_family_from_json({
        "kind": "ns-family", "dim": 1, "semigroup": sz.semigroup_to_json(S2),
        "bullet": [], "vee": [], "curly": [], "square": []})


ONE_CHAIN = CochainFamily(S1, 1, 1, 1, [[[0]]])

# (id, call, error, text): refusals of an input's shape, degree, index,
# order or skewness, none of them made from a law report
GUARDS = [
    ("DeformationDirection.as_cochain order", lambda: DeformationDirection(
        [la.zeros(4, 2)]).as_cochain(identity_family(make_a1(), S2)),
     PreconditionError, "one direction matrix per index required"),
    ("DeformationDirection.as_cochain shape", lambda: DeformationDirection(
        [la.zeros(4, 2), la.zeros(4, 3)]).as_cochain(
            identity_family(make_a1(), S2)),
     PreconditionError, "direction matrices must be dim(L) x dim(V)"),
    ("cohomology._coerce_deg1", lambda: partial_deg1(
        _a1_complex(), la.zeros(2, 4, 2)),
     PreconditionError, "expected a degree-1 cochain or direction"),
    ("partial_23", lambda: partial_23(_a1_complex(), ONE_CHAIN),
     PreconditionError, "expected a (2,3)-cochain"),
    ("partial_star_23", lambda: partial_star_23(_a1_complex(), ONE_CHAIN),
     PreconditionError, "expected a (2,3)-cochain"),
    ("skew_basis", lambda: skew_basis((2, 4), (1, 1), S1),
     PreconditionError, "degree must be 1 or (2n, 2n+1): (2, 4)"),
    ("delta_omega", lambda: delta_omega(
        *_zero_omega(), CochainFamily(S1, 2, 1, 1, [[[0, 0]]])),
     PreconditionError, "cochain shape does not match algebra/module"),
    ("delta_star_omega", lambda: delta_star_omega(*_zero_omega(), ONE_CHAIN),
     PreconditionError, "input must have degree (2, 3)"),
    ("omega_cohomology_dims", lambda: omega_cohomology_dims(
        *_zero_omega(), -1),
     PreconditionError, "max_n must be >= 0"),
    ("TwistedRBContext shape", lambda: _family_over(S1, [[[0, 0]]]),
     PreconditionError, "family matrix shape must be dim(L) x dim(V)"),
    ("TwistedRBContext order", lambda: _family_over(S2, [[[0]]]),
     PreconditionError, "one family matrix per semigroup element required"),
    ("semigroup order", lambda: FiniteCommutativeSemigroup(0, []),
     MalformedInputError, "semigroup order must be >= 1"),
    ("semigroup shape", lambda: FiniteCommutativeSemigroup(2, [[0, 1]]),
     MalformedInputError, "table shape does not match order"),
    ("semigroup entry type", lambda: FiniteCommutativeSemigroup(1, [["0"]]),
     MalformedInputError, "table[0][0] = '0' is not an integer"),
    ("semigroup entry range", lambda: FiniteCommutativeSemigroup(1, [[1]]),
     MalformedInputError, "table[0][0] = 1 out of range 0..0"),
    ("semigroup unit type", lambda: FiniteCommutativeSemigroup(
        1, [[0]], unit="0"),
     MalformedInputError, "unit '0' is not an integer"),
    ("semigroup unit range", lambda: FiniteCommutativeSemigroup(
        1, [[0]], unit=1),
     MalformedInputError, "unit index 1 out of range"),
    ("semigroup names", lambda: FiniteCommutativeSemigroup(
        2, [[0, 1], [1, 1]], unit=0, names=([1], None, "x")),
     MalformedInputError,
     "names ([1], None, 'x') are not 2 strings, one per element"),
    ("product", lambda: product(S2, 0, 2),
     MalformedInputError, "element index out of range: (0, 2)"),
    ("product_of empty", lambda: product_of(S2, []),
     PreconditionError, "product_of requires a nonempty list"),
    ("product_of first", lambda: product_of(S2, [2, 0]),
     MalformedInputError, "element index out of range: (2, 0)"),
    ("product_of later", lambda: product_of(S2, [1, 0, 5]),
     MalformedInputError, "element index out of range: (1, 5)"),
    ("linalg.solve", lambda: la.solve([[1, 0]], [1, 2]),
     PreconditionError, "solve: b.dim (2) != rows (1)"),
    ("serialize.ly_to_json", lambda: sz.ly_to_json(
        LYAlgebra(1, [[[1]]], [[[[0]]]])),
     MalformedInputError, "algebra tensors are not skew; refusing to store "
     "the half-tensor format"),
    ("check_ns_axioms", lambda: check_ns_axioms(_ns_over_s2()),
     PreconditionError, "NS-Lie-Yamaguti axioms apply to the "
     "one-element-semigroup case"),
]


@pytest.mark.parametrize("call,error,want", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_guard_message(call, error, want):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == want


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
