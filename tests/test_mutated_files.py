"""Mutated input files through `lyfam validate`, in-process.

A valid file of each of the ten kinds is mutated at one or two places: a
value becomes None, a bool, a negative number, 2^70, a float, one of the
strings "1/0", "1e999999", "0" and "-1", an empty or nested list, or a key
or list item is dropped.  Whatever the file then says, `cli.main` ends
with exit code 0, 1 or 2 and prints no traceback; a small --budget keeps
every table it allocates small.
"""
import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_a1
from lyfam import cli
from lyfam import linalg as la
from lyfam import serialize as sz
from lyfam.cohomology import RBFComplex
from lyfam.ly import adjoint_representation, gamma_ad
from lyfam.nsfamily import ns_from_twisted_rb
from lyfam.omega import omega_ly_from_ns_family
from lyfam.rbfamily import identity_family
from lyfam.semigroup import FiniteCommutativeSemigroup


def _valid_files():
    """kind -> the JSON of one small valid object of that kind."""
    A = make_a1()
    s = FiniteCommutativeSemigroup(2, [[0, 1], [1, 1]], unit=0, names=("e", "a"))
    ctx = identity_family(A, s)
    N = ns_from_twisted_rb(ctx)
    cx = RBFComplex(ctx)
    return {
        "bilinear": {"kind": "bilinear", "dim": 2,
                     "entries": [[0, 1, 0, "1"], [1, 0, 0, "-1"]]},
        "semigroup": sz.semigroup_to_json(s),
        "ly": sz.ly_to_json(A),
        "representation": sz.representation_to_json(
            adjoint_representation(A), A.dim),
        "cocycle": sz.cocycle_to_json(gamma_ad(A), A.dim, A.dim),
        "context": sz.context_to_json(ctx),
        "ns-family": sz.ns_family_to_json(N),
        "omega-ly": sz.omega_ly_to_json(omega_ly_from_ns_family(N)),
        "cochain": sz.cochain_to_json(cx.skew_basis_at((2, 3)).embed(5)),
        "direction": sz.direction_to_json(
            [[[1, 0], [0, 0], [0, 0], [0, 1]], la.zeros(4, 2)]),
    }


VALID = _valid_files()
BUDGET = "2000"
# the scalars "0" and "-1" keep a file well formed and may break a law
VALUES = [None, True, False, -1, -(2 ** 70), 2 ** 70, 0.5, -2.0, "1/0",
          "1e999999", "0", "-1", [], [[]], [[0, [1]]]]


def _place(draw, doc):
    """A path into doc: a key of the top level, then, while a coin says so,
    a key or index of the node reached.  So a header such as dim is drawn
    about as often as a whole table, not once per index of its entries."""
    path, node = (), doc
    while isinstance(node, (dict, list)) and node and (
            not path or draw(st.booleans())):
        key = draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
    return path


@st.composite
def mutated(draw, kind):
    doc = copy.deepcopy(VALID[kind])
    for _ in range(draw(st.integers(1, 2))):
        path = _place(draw, doc)
        value = draw(st.sampled_from(VALUES + ["drop"]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


def _validate(path, kind):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json", "--seed", "0", "--budget", BUDGET,
                         "validate", path, kind])
    return code, out.getvalue() + err.getvalue()


@pytest.mark.parametrize("kind", sorted(VALID))
def test_each_valid_file_passes(kind, tmp_path):
    path = str(tmp_path / "valid.json")
    sz.save_json(path, VALID[kind])
    assert _validate(path, kind)[0] == 0


@pytest.mark.parametrize("kind", sorted(VALID))
def test_a_mutated_file_exits_with_a_verdict(kind, tmp_path_factory):
    path = str(tmp_path_factory.mktemp(kind) / "mutated.json")

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(mutated(kind))
    def run(doc):
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, printed = _validate(path, kind)
        assert code in (0, 1, 2) and "Traceback" not in printed

    run()
