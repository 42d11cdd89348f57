import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import lyfam

from lyfam import serialize as sz
from lyfam.cli import main
from lyfam.rbfamily import identity_family
from lyfam import linalg as la
from lyfam.cohomology import RBFComplex, partial_deg0, DegreeZeroElement


@pytest.fixture
def files(tmp_path, a1, s2):
    a_path = tmp_path / "a1.json"
    s_path = tmp_path / "s2.json"
    sz.save_json(str(a_path), sz.ly_to_json(a1))
    sz.save_json(str(s_path), sz.semigroup_to_json(s2))
    ctx = identity_family(a1, s2)
    c_path = tmp_path / "ctx.json"
    sz.save_json(str(c_path), sz.context_to_json(ctx))
    return tmp_path, str(a_path), str(s_path), str(c_path), ctx


def test_validate_ok(files, capsys):
    _, a_path, s_path, c_path, _ = files
    assert main(["validate", a_path, "ly"]) == 0
    assert main(["validate", s_path, "semigroup"]) == 0
    assert main(["validate", c_path, "context"]) == 0


def test_validate_scalar_with_an_exponent_exits_two(files, capsys):
    tmp, a_path, _, _, _ = files
    d = json.load(open(a_path))
    d["binary"][0][-1] = "1e5"
    bad = tmp / "exponent.json"
    json.dump(d, open(bad, "w"))
    assert main(["--json", "validate", str(bad), "ly"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["summary"] == (
        "malformed input: bad rational '1e5': exponents are refused")


@pytest.mark.parametrize("value", [0.5, 1, None])
def test_validate_scalar_that_is_a_json_number_exits_two(files, capsys, value):
    tmp, a_path, _, _, _ = files
    d = json.load(open(a_path))
    d["binary"][0][-1] = value
    bad = tmp / "number.json"
    json.dump(d, open(bad, "w"))
    assert main(["--json", "validate", str(bad), "ly"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["summary"] == (
        "malformed input: bad rational %r: scalars are strings" % (value,))


def test_validate_non_skew_exits_one(files, capsys):
    tmp, a_path, _, _, _ = files
    d = json.load(open(a_path))
    d["binary"].append([0, 0, 0, "1"])
    bad = tmp / "bad.json"
    json.dump(d, open(bad, "w"))
    assert main(["--json", "validate", str(bad), "ly"]) == 1
    out = json.loads(capsys.readouterr().out)
    laws = [v["law"] for v in out["payload"]]
    assert "invariant:skew-binary" in laws


def test_validate_malformed_exits_two(files):
    tmp, a_path, _, _, _ = files
    d = json.load(open(a_path))
    d["binary"].append([1, 0, 0, "1"])
    bad = tmp / "bad.json"
    json.dump(d, open(bad, "w"))
    assert main(["validate", str(bad), "ly"]) == 2
    notjson = tmp / "nj.json"
    notjson.write_text("{")
    assert main(["validate", str(notjson), "ly"]) == 2


@pytest.mark.parametrize("kind,key,entry", [
    ("ns-family", "bullet", [0, 5, 0, 0, "1"]),
    ("ns-family", "bullet", [0, -1, 0, 0, "1"]),
    ("ns-family", "square", [0, 0, 0, 0, 0, 0, "1"]),
    ("omega-ly", "binary", [0, 0, 0, 0]),
    ("omega-ly", "ternary", [0, 0, 0, 0, 0, "x", 0, "1"]),
    ("cochain", "entries", [[0], [3], 0, "1"]),
    ("cochain", "entries", [[0], [0], -1, "1"]),
    ("cochain", "entries", [[0, 0], [0, 0], 0, "1"]),
    ("ly", "binary", "abcd"),
    # indices must be JSON integers: int() would read each of these as
    # the valid index tuple (0, 1, 1)
    ("ly", "binary", [0.9, 1, 1, "1"]),
    ("ly", "binary", ["0", 1, 1, "1"]),
    ("ly", "binary", [0, True, 1, "1"]),
])
def test_malformed_sparse_entries_exit_two(files, capsys, kind, key, entry):
    d = _object_json(files, kind)
    d[key].append(entry)
    _assert_malformed(files, capsys, kind, d)


def _object_json(files, kind):
    from lyfam.nsfamily import ns_from_twisted_rb
    from lyfam.omega import omega_ly_from_ns_family
    _, a_path, _, _, ctx = files
    if kind == "ly":
        return json.load(open(a_path))
    if kind == "cochain":
        return sz.cochain_to_json(RBFComplex(ctx).skew_basis_at(1).embed(0))
    N = ns_from_twisted_rb(ctx)
    return (sz.ns_family_to_json(N) if kind == "ns-family"
            else sz.omega_ly_to_json(omega_ly_from_ns_family(N)))


def _assert_malformed(files, capsys, kind, d):
    bad = files[0] / "bad.json"
    json.dump(d, open(bad, "w"))
    capsys.readouterr()
    assert main(["validate", str(bad), kind]) == 2
    out = capsys.readouterr().out
    assert out.startswith("malformed input:") and "Traceback" not in out


@pytest.mark.parametrize("kind,key,value", [
    ("cochain", "dim_alg", None),
    ("cochain", "dim_alg", "x"),
    ("cochain", "dim_coeff", -1),
    ("cochain", "semigroup", None),
    ("cochain", "degree", [2]),
    ("cochain", "degree", [2, 4]),
    ("ns-family", "dim", "x"),
    ("omega-ly", "dim", 1.5),
    ("ly", "dim", "2"),
])
def test_malformed_headers_exit_two(files, capsys, kind, key, value):
    # None stands for a missing key
    d = _object_json(files, kind)
    if value is None:
        del d[key]
    else:
        d[key] = value
    _assert_malformed(files, capsys, kind, d)


@pytest.mark.parametrize("change", [
    {"table": [[0, "1"], ["1", 1]]},
    {"table": [[0, 1], [1.0, 1]]},
    # a bool is not an element index, though Python reads True as 1
    {"table": [[0, 1], [True, 1]]},
    {"unit": "0"},
    {"names": 5},
    # names must be one string per element
    {"names": [[1], None, "x"]},
    {"names": []},
    {"names": ["e", 1]},
])
def test_malformed_semigroups_exit_two(files, capsys, change):
    tmp, a_path, s_path, _, _ = files
    d = json.load(open(s_path))
    d.update(change)
    bad = tmp / "bad.json"
    json.dump(d, open(bad, "w"))
    for argv in (["validate", str(bad), "semigroup"],
                 ["construct", "identity-family", a_path, str(bad),
                  "-o", str(tmp / "out.json")]):
        capsys.readouterr()
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("malformed input:") and "Traceback" not in out


def _one_dim(tmp, kind, d):
    path = tmp / ("%s.json" % kind)
    json.dump(d, open(path, "w"))
    return str(path)


def test_validate_reports_each_skew_violation_once(files, capsys):
    """A 1-dim algebra with [e0, e0] = e0 and a 1-dim splitting family
    whose vee is not skew: the skew witness appears once in the payload."""
    tmp = files[0]
    ly = _one_dim(tmp, "ly", {"kind": "ly", "dim": 1,
                              "binary": [[0, 0, 0, "1"]], "ternary": []})
    ns = _one_dim(tmp, "ns-family", {
        "kind": "ns-family", "dim": 1,
        "semigroup": {"kind": "semigroup", "order": 1, "table": [[0]],
                      "unit": 0},
        "vee": [[0, 0, 0, 0, 0, "1"]]})
    capsys.readouterr()
    assert main(["--json", "validate", ly, "ly"]) == 1
    assert json.loads(capsys.readouterr().out)["payload"] == [
        {"law": "invariant:skew-binary", "witness": [0, 0], "residual": ["2"]},
        {"law": "LY-2.1", "witness": [0, 0, 0], "residual": ["3"]}]
    assert main(["--json", "validate", ns, "ns-family"]) == 1
    assert json.loads(capsys.readouterr().out)["payload"] == [
        {"law": "invariant:skew-vee", "witness": [0, 0, 0, 0],
         "residual": ["2"]},
        {"law": "NSF-4.21", "witness": [0, 0, 0, 0, 0, 0], "residual": ["3"]}]


def test_ns_tensor_checks_its_input_once_and_names_the_laws(
        files, capsys, monkeypatch):
    from lyfam import cli, nsfamily
    tmp, _, _, c_path, _ = files
    checked = []
    check = nsfamily.check_ns_family_axioms
    for module in (cli, nsfamily):
        monkeypatch.setattr(module, "check_ns_family_axioms",
                            lambda N: checked.append(N.semigroup.order)
                            or check(N))
    ns = tmp / "ns.json"
    out_path = tmp / "nstensor.json"
    assert main(["construct", "ns-from-rbf", c_path, "-o", str(ns)]) == 0
    checked.clear()
    assert main(["construct", "ns-tensor", str(ns), "-o", str(out_path)]) == 0
    # the input family over S2 once, the output algebra over S1 once
    assert sorted(checked) == [1, 2]
    bad = _one_dim(tmp, "ns-family", {
        "kind": "ns-family", "dim": 1,
        "semigroup": {"kind": "semigroup", "order": 1, "table": [[0]],
                      "unit": 0},
        "vee": [[0, 0, 0, 0, 0, "1"]]})
    out_path.unlink()
    capsys.readouterr()
    assert main(["--json", "construct", "ns-tensor", bad,
                 "-o", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["summary"] == (
        "error: input fails the NS family axioms: "
        "['NSF-4.21', 'invariant:skew-vee']")
    assert not out_path.exists()


def test_construct_identity_family_and_check(files, tmp_path):
    _, a_path, s_path, _, _ = files
    out = tmp_path / "built.json"
    assert main(["construct", "identity-family", a_path, s_path,
                 "-o", str(out)]) == 0
    assert main(["check-rbf", str(out)]) == 0
    assert main(["validate", str(out), "context"]) == 0


def test_construct_chain_to_indexed_algebra(files, tmp_path):
    _, _, _, c_path, _ = files
    ns = tmp_path / "ns.json"
    om = tmp_path / "om.json"
    assert main(["construct", "ns-from-rbf", c_path, "-o", str(ns)]) == 0
    assert main(["validate", str(ns), "ns-family"]) == 0
    assert main(["construct", "omega-from-ns", str(ns), "-o", str(om)]) == 0
    assert main(["validate", str(om), "omega-ly"]) == 0


def test_validate_omega_ly_sweeps_skewness_once(files, monkeypatch):
    from lyfam.omega import OmegaLYAlgebra
    om = files[0] / "om.json"
    sz.save_json(str(om), _object_json(files, "omega-ly"))
    calls, report = [], OmegaLYAlgebra.invariant_report
    monkeypatch.setattr(OmegaLYAlgebra, "invariant_report",
                        lambda O: calls.append(O) or report(O))
    assert main(["validate", str(om), "omega-ly"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("order,dim", [(1, 1), (2, 3)])
def test_nijenhuis_context_of_wrong_shape_exits_one(files, capsys, order, dim):
    tmp, a_path, s_path, _, _ = files
    d_path = tmp / "direction.json"
    json.dump({"kind": "direction", "order": order, "dim_l": dim,
               "dim_v": dim, "family": []}, open(d_path, "w"))
    out_path = tmp / "nij.json"
    assert main(["--json", "construct", "nijenhuis-context", a_path, s_path,
                 str(d_path), "-o", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["summary"] == (
        "error: a Nijenhuis family over this semigroup and algebra needs "
        "order 2 (one matrix per index) and dims 2 x 2 (dim(L) x dim(L))")
    assert not out_path.exists()


def test_nijenhuis_context_of_a_non_nijenhuis_family_exits_one(files, capsys):
    # N_0 = 0 and N_1 = e_10 fail both Nijenhuis laws on A1 over S2
    tmp, a_path, s_path, _, _ = files
    d_path = tmp / "direction.json"
    json.dump({"kind": "direction", "order": 2, "dim_l": 2, "dim_v": 2,
               "family": [[1, 1, 0, "1"]]}, open(d_path, "w"))
    out_path = tmp / "nij.json"
    assert main(["--json", "construct", "nijenhuis-context", a_path, s_path,
                 str(d_path), "-o", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["summary"] == (
        "error: not a Nijenhuis family: ['NIJ-bin', 'NIJ-ter']")
    assert not out_path.exists()


def test_nijenhuis_context_checks_its_family_once(files, monkeypatch):
    from lyfam import cli, rbfamily
    tmp, a_path, s_path, _, _ = files
    checked = []
    check = rbfamily.check_nijenhuis_family
    for module in (cli, rbfamily):
        monkeypatch.setattr(module, "check_nijenhuis_family",
                            lambda *args: checked.append(1) or check(*args),
                            raising=False)
    d_path = tmp / "direction.json"
    json.dump({"kind": "direction", "order": 2, "dim_l": 2, "dim_v": 2,
               "family": []}, open(d_path, "w"))
    assert main(["construct", "nijenhuis-context", a_path, s_path,
                 str(d_path), "-o", str(tmp / "nij.json")]) == 0
    assert checked == [1]


@pytest.mark.parametrize("verb", [["validate", "{}", "context"],
                                  ["check-rbf", "{}"]],
                         ids=["validate", "check-rbf"])
def test_context_shapes_are_fitted_once(files, monkeypatch, verb):
    # loading the context fits its shapes; validate and check-rbf then run
    # the representation and cocycle laws without fitting them again
    from lyfam import ly, rbfamily
    _, _, _, c_path, ctx = files
    fitted, fit = [], ly.require_fit
    for module in (ly, rbfamily):
        monkeypatch.setattr(module, "require_fit",
                            lambda *args: fitted.append(1) or fit(*args))
    assert main([c_path if a == "{}" else a for a in verb]) == 0
    assert fitted == [1]
    # the public checks still fit their input themselves
    assert ly.check_representation(ctx.algebra, ctx.rep).ok
    assert ly.check_cocycle23(ctx.algebra, ctx.rep, ctx.cocycle).ok
    assert fitted == [1, 1, 1]


def _assert_malformed_summary(capsys, argv, *words):
    capsys.readouterr()
    assert main(["--json"] + argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    summary = json.loads(captured.out)["summary"]
    assert summary.startswith("malformed input:")
    for w in words:
        assert w in summary


# a context whose cocycle is declared for another algebra or space than
# the context's (dims 4 and 2): every verb refuses it as malformed
@pytest.mark.parametrize("change,words", [
    ({"algebra_dim": 5, "gamma1": [[0, 4, 0, "1"], [4, 0, 0, "-1"]]},
     ("(5, 5, 2)", "algebra of dim 4", "space of dim 2")),
    ({"space_dim": 3}, ("(4, 4, 3)", "algebra of dim 4", "space of dim 2")),
], ids=["algebra_dim", "space_dim"])
@pytest.mark.parametrize("verb", [["validate", "{}", "context"],
                                  ["check-rbf", "{}"], ["cohomology", "{}"]],
                         ids=["validate", "check-rbf", "cohomology"])
def test_context_with_a_cocycle_of_other_dims_exits_two(files, capsys, change,
                                                         words, verb):
    tmp, _, _, c_path, _ = files
    d = json.load(open(c_path))
    d["cocycle"].update(change)
    bad = tmp / "badctx.json"
    json.dump(d, open(bad, "w"))
    _assert_malformed_summary(
        capsys, [str(bad) if a == "{}" else a for a in verb],
        "cocycle Gamma1", *words)


@pytest.mark.parametrize("algebra,words", [
    # a cocycle declared for a 3-dim algebra, whose Gamma1(e_0, e_2) = u_1
    # lies outside the 2-dim one
    ("a1", ("cocycle Gamma1", "(3, 3, 2)", "algebra of dim 2")),
    # the 2-dim adjoint representation of A1 with the 3-dim A2
    ("a2", ("representation rho", "(2, 2, 2)", "algebra of dim 3")),
])
def test_semidirect_of_other_dims_exits_two(tmp_path, capsys, a1, a2, algebra,
                                            words):
    from lyfam.ly import adjoint_representation
    paths = {k: str(tmp_path / (k + ".json")) for k in ("a", "ad", "gad3")}
    sz.save_json(paths["a"], sz.ly_to_json({"a1": a1, "a2": a2}[algebra]))
    sz.save_json(paths["ad"], sz.representation_to_json(
        adjoint_representation(a1), 2))
    sz.save_json(paths["gad3"], {
        "kind": "cocycle", "algebra_dim": 3, "space_dim": 2,
        "gamma1": [[0, 2, 1, "1"], [2, 0, 1, "-1"]]})
    out = tmp_path / "sd.json"
    _assert_malformed_summary(
        capsys, ["construct", "semidirect", paths["a"], paths["ad"],
                 paths["gad3"], "-o", str(out)], *words)
    assert not out.exists()


def test_construct_rejects_non_jacobi(tmp_path):
    bad = tmp_path / "bil.json"
    sz.save_json(str(bad), {
        "kind": "bilinear", "dim": 3,
        "entries": [[0, 1, 2, "1"], [1, 0, 2, "-1"],
                    [0, 2, 0, "1"], [2, 0, 0, "-1"],
                    [1, 2, 1, "1"], [2, 1, 1, "-1"]]})
    out = tmp_path / "out.json"
    assert main(["construct", "ly-from-lie", str(bad), "-o", str(out)]) == 1


def test_corrupted_context_check_exits_one(files, tmp_path):
    _, _, _, c_path, ctx = files
    ctx.family[0][0][0] += 1
    bad = tmp_path / "badctx.json"
    sz.save_json(str(bad), sz.context_to_json(ctx))
    assert main(["check-rbf", str(bad)]) == 1


def test_cohomology_json_payload(files, capsys):
    _, _, _, c_path, _ = files
    assert main(["--json", "cohomology", c_path, "--h1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["payload"]["H1"] == 2
    assert out["payload"]["rigid"] is False


def test_cohomology_missing_unit_exits_one(tmp_path, a1):
    from lyfam.semigroup import FiniteCommutativeSemigroup
    s = FiniteCommutativeSemigroup(1, [[0]], unit=None)
    ctx = identity_family(a1, s)
    p = tmp_path / "ctx.json"
    sz.save_json(str(p), sz.context_to_json(ctx))
    assert main(["cohomology", str(p), "--h1"]) == 1


def test_deform_single_and_pair(files, tmp_path, capsys):
    _, _, _, c_path, ctx = files
    M = ctx.semigroup.order
    zero = [la.zeros(ctx.dimL, ctx.dimV) for _ in range(M)]
    z_path = tmp_path / "zero.json"
    sz.save_json(str(z_path), sz.direction_to_json(zero))
    assert main(["deform", c_path, str(z_path)]) == 0

    cx = RBFComplex(ctx)
    f = partial_deg0(cx, DegreeZeroElement(
        [(ctx.algebra.basis(0), ctx.algebra.basis(1))]))
    d_path = tmp_path / "d.json"
    sz.save_json(str(d_path), sz.direction_to_json(
        [[list(r) for r in f.even[a]] for a in range(M)]))
    assert main(["deform", c_path, str(d_path)]) == 0
    capsys.readouterr()
    assert main(["--json", "deform", c_path, str(d_path), str(z_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["payload"]["equivalent"] is True

    bad = [la.zeros(ctx.dimL, ctx.dimV) for _ in range(M)]
    bad[0][0][0] = 1
    b_path = tmp_path / "bad.json"
    sz.save_json(str(b_path), sz.direction_to_json(bad))
    capsys.readouterr()
    assert main(["--json", "deform", c_path, str(b_path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["payload"]["cocycle"] is False
    assert "first_violation" in out["payload"]


# the zero context over a table that is not commutative or not associative
# satisfies every family law, so only the semigroup check refuses it
@pytest.mark.parametrize("table,dim,law", [
    ([[0, 1], [0, 1]], 1, "SG-comm"),
    ([[1, 0], [0, 0]], 2, "SG-assoc"),
])
@pytest.mark.parametrize("verb", ["cohomology", "deform"])
def test_complex_verbs_refuse_an_invalid_semigroup(tmp_path, capsys, table,
                                                   dim, law, verb):
    dims = {"space_dim": dim, "algebra_dim": dim}
    p, z = tmp_path / "ctx.json", tmp_path / "zero.json"
    sz.save_json(str(p), {
        "kind": "context", "algebra": {"kind": "ly", "dim": dim},
        "representation": dict(kind="representation", **dims),
        "cocycle": dict(kind="cocycle", **dims),
        "semigroup": {"kind": "semigroup", "order": 2, "table": table},
        "family": []})
    sz.save_json(str(z), {"kind": "direction", "order": 2, "dim_l": dim,
                          "dim_v": dim, "family": []})
    argv = {"cohomology": ["cohomology", "--h23", str(p)],
            "deform": ["deform", str(p), str(z)]}[verb]
    assert main(["--json"] + argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["summary"] == "error: semigroup fails validation: ['%s']" % law


def test_seed_is_printed(files, capsys):
    _, a_path, _, _, _ = files
    assert main(["--seed", "123", "validate", a_path, "ly"]) == 0
    assert "seed: 123" in capsys.readouterr().err


def test_budget_is_scoped_to_one_call(tmp_path, a1, s1, monkeypatch):
    monkeypatch.delenv("LYFAM_BUDGET", raising=False)
    p = tmp_path / "ctx.json"
    sz.save_json(str(p), sz.context_to_json(identity_family(a1, s1)))
    assert main(["--budget", "5", "cohomology", str(p), "--h23"]) == 1
    assert "LYFAM_BUDGET" not in os.environ
    assert main(["cohomology", str(p), "--h23"]) == 0
    monkeypatch.setenv("LYFAM_BUDGET", "7")
    assert main(["--budget", "100000", "cohomology", str(p), "--h23"]) == 0
    assert os.environ["LYFAM_BUDGET"] == "7"


def test_cached_parser_starts_each_call_from_its_defaults(files, capsys,
                                                         monkeypatch):
    # the parser is built once per process; no option of one call may
    # reach the next
    from lyfam import cli
    _, _, _, c_path, _ = files
    assert cli.build_parser() is cli.build_parser()
    seen = []
    run = cli.cmd_cohomology
    monkeypatch.setattr(cli, "cmd_cohomology", lambda args: seen.append(
        (dict(vars(args)), os.environ.get("LYFAM_BUDGET"))) or run(args))
    monkeypatch.setenv("LYFAM_BUDGET", "100000")
    capsys.readouterr()
    # 7 coordinates are too few for the (2,3) step: exit 1
    assert main(["--budget", "7", "--json", "cohomology", c_path,
                 "--max-n", "1"]) == 1
    assert os.environ["LYFAM_BUDGET"] == "100000"
    first = capsys.readouterr().out
    assert main(["cohomology", c_path]) == 0
    second = capsys.readouterr().out
    (args1, budget1), (args2, budget2) = seen
    assert (args1["budget"], args1["json"], args1["max_n"], budget1) == (
        7, True, 1, "7")
    assert (args2["budget"], args2["json"], args2["max_n"], budget2) == (
        None, False, 0, "100000")
    assert json.loads(first)["status"] == "violations"
    assert second == "%s: H1=2 non-rigid\n" % c_path
    assert os.environ["LYFAM_BUDGET"] == "100000"


def test_non_integer_budget_is_malformed_input(files, tmp_path, capsys,
                                              monkeypatch):
    _, _, _, c_path, ctx = files
    z_path = tmp_path / "zero.json"
    sz.save_json(str(z_path), sz.direction_to_json(
        [la.zeros(ctx.dimL, ctx.dimV)] * ctx.semigroup.order))
    monkeypatch.setenv("LYFAM_BUDGET", "abc")
    for argv in (["cohomology", c_path, "--h23"],
                 ["deform", c_path, str(z_path)]):
        capsys.readouterr()
        assert main(["--json"] + argv) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["summary"] == ("malformed input: LYFAM_BUDGET is not an "
                                  "integer: 'abc'")


def test_ly_from_leibniz_checks_its_output_once(tmp_path, capsys, monkeypatch):
    from lyfam import cli, ly
    checked = []
    check = ly.check_ly_axioms
    for module in (cli, ly):
        monkeypatch.setattr(module, "check_ly_axioms",
                            lambda A: checked.append(A.dim) or check(A))
    leib, out = tmp_path / "leib.json", tmp_path / "ly3.json"
    sz.save_json(str(leib), {"kind": "bilinear", "dim": 3, "entries": [
        [0, 0, 2, "1"], [0, 1, 2, "-2"], [1, 0, 2, "1"]]})
    assert main(["construct", "ly-from-leibniz", str(leib), "-o", str(out)]) == 0
    assert checked == [3]  # by ly_from_leibniz only
    assert main(["validate", str(out), "ly"]) == 0
    bad = tmp_path / "bad.json"
    sz.save_json(str(bad), {"kind": "bilinear", "dim": 1,
                            "entries": [[0, 0, 0, "1"]]})
    capsys.readouterr()
    assert main(["--json", "construct", "ly-from-leibniz", str(bad),
                 "-o", str(tmp_path / "none.json")]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["summary"] == (
        "error: input product violates the left Leibniz law")
    assert not (tmp_path / "none.json").exists()


@pytest.mark.parametrize("recipe", ["ly-from-lie", "ly-from-leibniz"])
def test_bilinear_recipes_refuse_a_file_of_another_kind(files, capsys, recipe):
    # an algebra file read as a bracket used to load as the zero product
    tmp, a_path, _, _, _ = files
    out = tmp / "out.json"
    capsys.readouterr()
    assert main(["--json", "construct", recipe, a_path, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["summary"] == (
        "malformed input: file %s declares kind 'ly', expected 'bilinear'"
        % a_path)
    assert not out.exists()


def test_validate_reads_a_bilinear_file(files, tmp_path, capsys):
    _, a_path, _, _, _ = files
    bil = tmp_path / "bil.json"
    sz.save_json(str(bil), {"kind": "bilinear", "dim": 2,
                            "entries": [[0, 1, 0, "1"], [1, 0, 0, "-1"]]})
    assert main(["validate", str(bil), "bilinear"]) == 0
    assert main(["validate", a_path, "bilinear"]) == 2


HUGE = 2 ** 70
S1_JSON = {"kind": "semigroup", "order": 1, "table": [[0]], "unit": 0}
# (file, kind, the table it would allocate and its entry count)
OVERSIZED = {
    "ly-dim": ({"kind": "ly", "dim": HUGE, "binary": [], "ternary": []}, "ly",
               "the binary table (%d x %d x %d)" % ((HUGE,) * 3), HUGE ** 3),
    "cocycle-space-dim": ({"kind": "cocycle", "algebra_dim": 2,
                           "space_dim": HUGE, "gamma1": [], "gamma2": []},
                          "cocycle", "the gamma1 table (2 x 2 x %d)" % HUGE,
                          4 * HUGE),
    "direction-order": ({"kind": "direction", "order": HUGE, "dim_l": 2,
                         "dim_v": 2, "family": []}, "direction",
                        "the family table (%d x 2 x 2)" % HUGE, 4 * HUGE),
    "cochain-dim-coeff": ({"kind": "cochain", "degree": 1, "dim_alg": 2,
                           "dim_coeff": HUGE, "semigroup": S1_JSON,
                           "entries": []}, "cochain",
                          "the cochain of degree 1", 2 * HUGE),
}


def _limited_address_space():
    # 1 GiB for the child alone: an allocation the budget misses fails
    # fast there instead of filling the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("case,verb", [(c, "validate") for c in OVERSIZED]
                         + [("direction-order", "deform")])
def test_oversized_headers_are_refused_before_allocation(tmp_path, a1, s1,
                                                         case, verb):
    d, kind, table, count = OVERSIZED[case]
    path = tmp_path / "huge.json"
    sz.save_json(str(path), d)
    if verb == "validate":
        argv = ["validate", str(path), kind]
    else:
        ctx = tmp_path / "ctx.json"
        sz.save_json(str(ctx), sz.context_to_json(identity_family(a1, s1)))
        argv = ["deform", str(ctx), str(path)]
    env = dict(os.environ, PYTHONPATH=str(Path(lyfam.__file__).parents[1]))
    env.pop("LYFAM_BUDGET", None)
    done = subprocess.run([sys.executable, "-m", "lyfam", "--json"] + argv,
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_limited_address_space)
    assert "Traceback" not in done.stderr
    assert done.returncode == 1, done.stderr
    assert json.loads(done.stdout) == {
        "status": "violations",
        "summary": "error: %s needs %d coordinates, budget is 100000"
                   % (table, count)}
