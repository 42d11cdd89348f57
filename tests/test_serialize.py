import re
from fractions import Fraction

import pytest

from lyfam import serialize as sz
from lyfam.errors import MalformedInputError, PreconditionError
from lyfam.ly import adjoint_representation, gamma_ad
from lyfam.nsfamily import ns_from_twisted_rb
from lyfam.omega import (cochain_full_coords, omega_ly_from_ns_family,
                         skew_basis)
from lyfam.cohomology import RBFComplex
from lyfam.rbfamily import identity_family


def test_scalar_round_trip():
    for s in ("3", "-7", "1/2", "-22/7"):
        assert sz.dump_scalar(sz.parse_scalar(s)) == s
    assert sz.dump_scalar(sz.parse_scalar("4/2")) == "2"
    with pytest.raises(MalformedInputError):
        sz.parse_scalar("1/0")
    with pytest.raises(MalformedInputError):
        sz.parse_scalar("x")


@pytest.mark.parametrize("text", ["1e5", "1E-3"])
def test_scalar_with_an_exponent_is_refused(text):
    # Fraction would expand the exponent to a power of 10 in full
    with pytest.raises(MalformedInputError,
                       match="bad rational '%s': exponents are refused" % text):
        sz.parse_scalar(text)


@pytest.mark.parametrize("value", [0.1, 1, 1e16, -3, True, None, [1]])
def test_scalar_that_is_not_a_string_is_refused(value):
    # a JSON number would load through its Python repr: 0.1 as 1/10
    with pytest.raises(MalformedInputError,
                       match=r"bad rational %s: scalars are strings"
                       % re.escape(repr(value))):
        sz.parse_scalar(value)


def _fraction_scalar(s):
    """parse_scalar read through Fraction alone: its value and type, or
    its MalformedInputError message."""
    try:
        if sz._EXPONENT.fullmatch(s):
            raise ValueError("exponents are refused")
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        return "bad rational %r: %s" % (s, exc)
    v = f.numerator if f.denominator == 1 else f
    return v, type(v)


@pytest.mark.parametrize("text", ["+3", "-0", "007", " 3 ", "1_000", "٣",
                                  "-4/2", "1e3", "", "--1", "1" * 4301])
def test_scalar_agrees_with_the_fraction_reading(text):
    # an ASCII integer string is read by int, every other one by Fraction
    try:
        v = sz.parse_scalar(text)
        got = v, type(v)
    except MalformedInputError as exc:
        got = str(exc)
    assert got == _fraction_scalar(text)


def test_semigroup_round_trip(s2):
    d = sz.semigroup_to_json(s2)
    s = sz.semigroup_from_json(d)
    assert s.order == s2.order and s.unit == s2.unit
    assert [list(r) for r in s.table] == [list(r) for r in s2.table]


def test_ly_round_trip(a2):
    b = sz.ly_from_json(sz.ly_to_json(a2))
    assert b.binary == a2.binary and b.ternary == a2.ternary


def test_half_format_reconstructs_skewness(a2):
    d = sz.ly_to_json(a2)
    assert all(i < j for i, j, _, _ in d["binary"])
    assert all(i < j for i, j, _, _, _ in d["ternary"])


def test_diagonal_entry_loads_as_non_skew():
    A = sz.ly_from_json({"dim": 2, "binary": [[0, 0, 0, "1"]], "ternary": []})
    rep = A.invariant_report()
    assert not rep.ok and "invariant:skew-binary" in rep.laws()


def test_out_of_half_entry_is_malformed():
    with pytest.raises(MalformedInputError):
        sz.ly_from_json({"dim": 2, "binary": [[1, 0, 0, "1"]], "ternary": []})


@pytest.mark.parametrize("entry,message", [
    ("abc", "family entries are [alpha,row,col,value]: 'abc'"),
    ([0, 0, "1"], "family entries are [alpha,row,col,value]: [0, 0, '1']"),
    ([0, 0, 0, 0, "1"],
     "family entries are [alpha,row,col,value]: [0, 0, 0, 0, '1']"),
    ([0, True, 0, "1"], "family entry has a non-integer index: [0, True, 0, '1']"),
    ([0, 0, 1.0, "1"], "family entry has a non-integer index: [0, 0, 1.0, '1']"),
    (["0", 0, 0, "1"], "family entry has a non-integer index: ['0', 0, 0, '1']"),
    ([0, -1, 0, "1"], "family entry out of range: [0, -1, 0, '1']"),
    ([0, 0, 3, "1"], "family entry out of range: [0, 0, 3, '1']"),
    # out of range in its first index and not an integer in its third: the
    # type check comes first
    ([5, 0, "0", "1"], "family entry has a non-integer index: [5, 0, '0', '1']"),
])
def test_malformed_entry_messages(entry, message):
    # the message names the entry it refuses; valid entries before it load
    d = {"kind": "direction", "order": 2, "dim_l": 2, "dim_v": 3,
         "family": [[1, 1, 2, "1/2"], entry]}
    with pytest.raises(MalformedInputError) as exc:
        sz.direction_from_json(d)
    assert str(exc.value) == message


def test_malformed_half_and_cochain_entry_messages(s2):
    with pytest.raises(MalformedInputError) as exc:
        sz.ly_from_json({"dim": 2, "binary": [[0, 1, 0, "1"], [1, 0, 0, "1"]],
                         "ternary": []})
    assert str(exc.value) == "binary entry not in the i<=j half: [1, 0, 0]"
    d = {"kind": "cochain", "degree": [2, 3], "dim_alg": 1, "dim_coeff": 1,
         "semigroup": sz.semigroup_to_json(s2),
         "entries": [[[0, 1], [0, 0], 0, "1"], [[0], [0, 0], 0, "1"]]}
    with pytest.raises(MalformedInputError) as exc:
        sz.cochain_from_json(d)
    assert str(exc.value) == (
        "cochain entries are [alphas,args,coeff,value] with the arity of the "
        "degree: [[0], [0, 0], 0, '1']")


def test_representation_and_cocycle_round_trip(a2):
    r = adjoint_representation(a2)
    r2 = sz.representation_from_json(sz.representation_to_json(r, a2.dim))
    assert r2.rho == r.rho and r2.theta == r.theta
    c = gamma_ad(a2)
    c2 = sz.cocycle_from_json(sz.cocycle_to_json(c, a2.dim, a2.dim))
    assert c2.gamma1 == c.gamma1 and c2.gamma2 == c.gamma2


def test_context_round_trip(a1, s2):
    ctx = identity_family(a1, s2)
    c2 = sz.context_from_json(sz.context_to_json(ctx))
    assert c2.family == ctx.family
    assert c2.algebra.ternary == ctx.algebra.ternary
    assert c2.rep.theta == ctx.rep.theta
    assert c2.cocycle.gamma2 == ctx.cocycle.gamma2
    assert c2.semigroup.order == s2.order


def test_ns_and_omega_round_trip(a1, s2):
    N = ns_from_twisted_rb(identity_family(a1, s2))
    N2 = sz.ns_family_from_json(sz.ns_family_to_json(N))
    assert N2.bullet == N.bullet and N2.vee == N.vee
    assert N2.ternary_curly == N.ternary_curly
    assert N2.ternary_square == N.ternary_square
    O = omega_ly_from_ns_family(N)
    O2 = sz.omega_ly_from_json(sz.omega_ly_to_json(O))
    assert O2.binary == O.binary and O2.ternary == O.ternary


def test_cochain_round_trip(a1, s2):
    cx = RBFComplex(identity_family(a1, s2))
    for degree in (1, (2, 3)):
        bas = cx.skew_basis_at(degree)
        c = bas.embed(bas.size // 2)
        c2 = sz.cochain_from_json(sz.cochain_to_json(c))
        assert cochain_full_coords(c2) == cochain_full_coords(c)


def test_cochain_skew_report_flags_violation(s1):
    d = sz.cochain_to_json(skew_basis((2, 3), (2, 2), s1).combine([0] * 6))
    # the value at (e0, e0) must vanish under the pair swap
    d["entries"].append([[0, 0], [0, 0], 0, "1"])
    rep = sz.cochain_skew_report(d)
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("invariant:cochain-skew-even", (0, (0, 0), (0, 0)))]
    with pytest.raises(PreconditionError, match="cochain is not skew"):
        sz.cochain_from_json(d)


def test_direction_round_trip(a1, s2):
    ctx = identity_family(a1, s2)
    fam = [[[1 if (r + c + a) % 3 == 0 else 0 for c in range(ctx.dimV)]
            for r in range(ctx.dimL)] for a in range(s2.order)]
    fam2 = sz.direction_from_json(sz.direction_to_json(fam))
    assert fam2 == [[[sz.parse_scalar(str(v)) for v in row] for row in m]
                    for m in fam]


def test_load_object_checks_kind(tmp_path, a1):
    p = tmp_path / "a.json"
    sz.save_json(str(p), sz.ly_to_json(a1))
    with pytest.raises(MalformedInputError):
        sz.load_object(str(p), "semigroup")
    b = sz.load_object(str(p), "ly")
    assert b.binary == a1.binary


def test_context_by_reference(tmp_path, a1, s2):
    ctx = identity_family(a1, s2)
    d = sz.context_to_json(ctx)
    sz.save_json(str(tmp_path / "semi.json"), d.pop("semigroup"))
    d["semigroup"] = "semi.json"
    sz.save_json(str(tmp_path / "ctx.json"), d)
    c2 = sz.load_object(str(tmp_path / "ctx.json"), "context")
    assert c2.semigroup.order == s2.order
    assert c2.family == ctx.family
