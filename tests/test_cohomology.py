import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lyfam import cohomology
from lyfam import linalg as la
from lyfam.errors import (BudgetExceededError, ConsistencyError,
                          PreconditionError, UnitRequiredError)
from lyfam.ly import (Cocycle23, ly_from_lie, zero_cocycle, zero_ly,
                      zero_representation)
from lyfam.nsfamily import ns_from_twisted_rb
from lyfam.omega import (OmegaRepresentation, check_omega_ly_axioms,
                         check_omega_representation, cochain_full_coords,
                         omega_cohomology_dims, omega_ly_from_ns_family)
from lyfam.cohomology import (DeformationDirection, DegreeZeroElement,
                              RBFComplex, check_infinitesimal, cohomology_H1,
                              cohomology_H23, deformation_equivalence_witness,
                              equivalent_deformations_same_class,
                              induced_omega_ly_on_V, induced_rep_on_L,
                              infinitesimal_report, partial_23, partial_deg0,
                              partial_deg1, partial_star_23,
                              rep_d_closed_form_report, rigidity_certificate)
from lyfam.rbfamily import (TwistedRBContext, check_twisted_rb_family,
                             family_report, family_tables, identity_family,
                             induced_products, zero_family)
from lyfam.semigroup import FiniteCommutativeSemigroup, trivial_semigroup
from conftest import (LIE_CATALOG, make_a1, make_a2, random_invertible,
                      random_vec, skew_binary, transport_bilinear)
from test_dense_images import change_basis_of_V


def zero_context(s, dim_l=2, dim_v=2):
    return TwistedRBContext(zero_ly(dim_l), zero_representation(dim_l, dim_v),
                            zero_cocycle(dim_l, dim_v), s,
                            zero_family(dim_l, dim_v, s))


def contexts(a0, a1, s1, s2):
    return [identity_family(A, s) for A in (a0, a1) for s in (s1, s2)]


def test_induced_structures(a0, a1, s1, s2):
    for ctx in contexts(a0, a1, s1, s2):
        O = induced_omega_ly_on_V(ctx)
        assert check_omega_ly_axioms(O).ok
        r = induced_rep_on_L(ctx, algebra=O)
        assert check_omega_representation(O, r).ok
        assert rep_d_closed_form_report(ctx, rep=r).ok


def test_induced_structures_without_L(s1, s2):
    # dim L = 0: every image is the empty vector, and the induced products
    # are the zero vectors of V, not empty lists
    for s in (s1, s2):
        ctx = zero_context(s, dim_l=0, dim_v=2)
        O = induced_omega_ly_on_V(ctx)
        M = s.order
        for a, b, i, j in itertools.product(range(M), range(M), range(2),
                                            range(2)):
            assert O.binary[a][b][i][j] == [0, 0]
            for g, k in itertools.product(range(M), range(2)):
                assert O.ternary[a][b][g][i][j][k] == [0, 0]
        r = induced_rep_on_L(ctx, algebra=O)
        assert r.algebra is O and r.dim == 0
        # operators on the zero-dimensional L are 0 x 0 matrices
        for a, si, i in itertools.product(range(M), range(M), range(2)):
            assert r.rho[a][si][i] == []
            for b, j in itertools.product(range(M), range(2)):
                assert r.theta[a][b][si][i][j] == []
        assert check_omega_ly_axioms(O).ok
        assert check_omega_representation(O, r).ok
        cx = RBFComplex(ctx)
        assert cohomology_H1(cx)[0] == 0
        assert cohomology_H23(cx) == 0


def test_induced_matches_ns_route(a1, s2):
    # the induced algebra on V agrees with the derived brackets of the
    # splitting structure
    ctx = identity_family(a1, s2)
    O1 = induced_omega_ly_on_V(ctx)
    O2 = omega_ly_from_ns_family(ns_from_twisted_rb(ctx))
    assert O1.binary == O2.binary
    assert O1.ternary == O2.ternary


def test_d1_after_d0_vanishes(a0, a1, s1, s2):
    for ctx in contexts(a0, a1, s1, s2):
        cx = RBFComplex(ctx)
        E = [ctx.algebra.basis(i) for i in range(ctx.dimL)]
        for a in range(ctx.dimL):
            for b in range(a + 1, ctx.dimL):
                c = partial_deg1(cx, partial_deg0(
                    cx, DegreeZeroElement([(E[a], E[b])])))
                assert not any(cochain_full_coords(c))


def test_d23_and_dstar_after_d1_vanish(a1, s1, s2):
    for s in (s1, s2):
        cx = RBFComplex(identity_family(a1, s))
        b1 = cx.skew_basis_at(1)
        for i in range(b1.size):
            img = partial_deg1(cx, b1.embed(i))
            assert not any(cochain_full_coords(partial_23(cx, img)))
            assert not any(cochain_full_coords(partial_star_23(cx, img)))


def test_deg0_requires_unit(a1):
    s = FiniteCommutativeSemigroup(1, [[0]], unit=None)
    cx = RBFComplex(identity_family(a1, s))
    with pytest.raises(UnitRequiredError):
        partial_deg0(cx, DegreeZeroElement([(a1.basis(0), a1.basis(1))]))


def test_zero_context_h1(s1, s2):
    assert cohomology_H1(RBFComplex(zero_context(s1)))[0] == 4
    assert cohomology_H1(RBFComplex(zero_context(s2)))[0] == 8


def test_zero_context_h23(s1, s2):
    # the dual coboundary's bare cyclic term cuts the full space once the
    # joint index dimension admits totally skew 3-forms: 60 - 8 = 52
    assert cohomology_H23(RBFComplex(zero_context(s1))) == 6
    assert cohomology_H23(RBFComplex(zero_context(s2))) == 52


def test_identity_family_cohomology_regression(a1, s1, s2):
    cx = RBFComplex(identity_family(a1, s1))
    dim, reps = cohomology_H1(cx)
    assert dim == 1 and len(reps) == 1
    assert not any(cochain_full_coords(partial_deg1(cx, reps[0])))
    assert cohomology_H23(cx) == 1
    assert cohomology_H1(RBFComplex(identity_family(a1, s2)))[0] == 2


def test_rigidity_matches_h1(a0, a1, s1, s2):
    for ctx in contexts(a0, a1, s1, s2) + [zero_context(s1)]:
        cx = RBFComplex(ctx)
        assert rigidity_certificate(cx) == (cohomology_H1(cx)[0] == 0)
    assert not rigidity_certificate(RBFComplex(zero_context(s1)))


def test_infinitesimal_dual_route(a1, s2, rng):
    cx = RBFComplex(identity_family(a1, s2))
    ctx = cx.context
    for _ in range(25):
        fam = [[random_vec(rng, ctx.dimV, -1, 1) for _ in range(ctx.dimL)]
               for _ in range(s2.order)]
        check_infinitesimal(cx, DeformationDirection(fam))  # no disagreement


def test_boundary_round_trip(a1, s2, rng):
    cx = RBFComplex(identity_family(a1, s2))
    ctx = cx.context
    zero = DeformationDirection(
        [la.zeros(ctx.dimL, ctx.dimV) for _ in range(s2.order)])
    for _ in range(5):
        e = DegreeZeroElement([(random_vec(rng, ctx.dimL),
                                random_vec(rng, ctx.dimL))])
        f = partial_deg0(cx, e)
        d = DeformationDirection([[list(r) for r in f.even[a]]
                                  for a in range(s2.order)])
        assert check_infinitesimal(cx, d)
        w = deformation_equivalence_witness(cx, d, zero)
        assert w is not None
        assert equivalent_deformations_same_class(cx, d, zero, w)


def test_noncoboundary_cocycle_has_no_witness(s1):
    # the zero context has H1 > 0, so some cocycle is not a boundary
    cx = RBFComplex(zero_context(s1))
    dim, reps = cohomology_H1(cx)
    assert dim > 0
    ctx = cx.context
    rep = reps[0]
    d = DeformationDirection([[list(r) for r in rep.even[a]]
                              for a in range(ctx.semigroup.order)])
    zero = DeformationDirection(
        [la.zeros(ctx.dimL, ctx.dimV) for _ in range(ctx.semigroup.order)])
    assert deformation_equivalence_witness(cx, d, zero) is None


def test_h23_budget_gate(a1, s1, monkeypatch):
    cx = RBFComplex(identity_family(a1, s1))
    monkeypatch.setenv("LYFAM_BUDGET", "2")
    with pytest.raises(BudgetExceededError):
        cohomology_H23(cx)


def test_h23_budget_counts_stored_coordinates(a1, s2, monkeypatch):
    # on A1 x S2 (4 joint labels, so 6 pairs, and dim L = 4) the (4,5)
    # image of the symbolic (2,3)-cochain stores 6^2 * 4 * (1 + 4) = 720
    # coordinates; its full table would have 4^4 * 4 + 4^5 * 4 = 5120
    cx = RBFComplex(identity_family(a1, s2))
    monkeypatch.setenv("LYFAM_BUDGET", "720")
    assert cohomology_H23(cx) == 4
    assert omega_cohomology_dims(cx.induced_algebra, cx.induced_rep, 1)[1] == 4
    monkeypatch.setenv("LYFAM_BUDGET", "719")
    with pytest.raises(BudgetExceededError,
                       match="needs 720 coordinates, budget is 719"):
        cohomology_H23(RBFComplex(identity_family(a1, s2)))
    with pytest.raises(BudgetExceededError, match="needs 720 coordinates"):
        omega_cohomology_dims(cx.induced_algebra, cx.induced_rep, 1)


def assembled_contexts(a1, a2, s1, s2):
    return [zero_context(s2), identity_family(a1, s1), identity_family(a2, s1)]


def test_assembled_coboundaries_match_per_basis(a1, a2, s1, s2):
    # column i of each matrix assembled in one symbolic sweep is the image
    # of basis cochain i
    for ctx in assembled_contexts(a1, a2, s1, s2):
        cx = RBFComplex(ctx)
        b1 = cx.skew_basis_at(1)
        d1 = la.form_columns(cochain_full_coords(cx.d1_symbolic()), b1.size)
        for i in range(b1.size):
            assert d1[i] == cochain_full_coords(partial_deg1(cx, b1.embed(i)))
        bas = cx.skew_basis_at((2, 3))
        c = bas.symbolic()
        d23 = la.form_columns(cochain_full_coords(partial_23(cx, c)), bas.size)
        dstar = la.form_columns(cochain_full_coords(partial_star_23(cx, c)),
                                bas.size)
        for i in range(bas.size):
            e = bas.embed(i)
            assert d23[i] == cochain_full_coords(partial_23(cx, e))
            assert dstar[i] == cochain_full_coords(partial_star_23(cx, e))


def test_assembled_products_vanish(a1, a2, s1, s2):
    for ctx in assembled_contexts(a1, a2, s1, s2):
        cx = RBFComplex(ctx)
        b1 = cx.skew_basis_at(1)
        bas = cx.skew_basis_at((2, 3))
        d1 = cx.d1_symbolic()
        coords = bas.project(d1)
        # the image of the degree-1 coboundary lies in the skew subspace, so
        # its matrix on the skew basis composes with delta and delta*
        assert (cochain_full_coords(bas.combine(coords))
                == cochain_full_coords(d1))
        p1 = la.form_rows(coords, b1.size)
        c = bas.symbolic()
        for op in (partial_23, partial_star_23):
            m = la.form_rows(cochain_full_coords(op(cx, c)), bas.size)
            assert la.mat_mul(m, p1) == la.zeros(len(m), b1.size)


def test_symbolic_cross_check_detects_disagreement(a1, s1):
    cx = RBFComplex(identity_family(a1, s1))
    cx.induced_rep.rho[0][0][0][0][0] += 1
    with pytest.raises(ConsistencyError):
        cohomology_H1(cx)


def test_cross_check_fires_after_the_induced_D_is_cached(a1, a2, s2):
    # the first check builds the complex's induced D; a changed rho must
    # still reach the generic coboundary of the next check
    rng = random.Random(20261019)
    for A in (a1, a2):
        cx = RBFComplex(identity_family(A, s2))
        d = DeformationDirection(
            [[[rng.choice((-1, 1)) for _ in range(cx.context.dimV)]
              for _ in range(cx.context.dimL)] for _ in range(2)])
        infinitesimal_report(cx, d)
        assert "induced_D" in vars(cx)
        cx.induced_rep.rho[0][0][0][0][0] += 1
        with pytest.raises(ConsistencyError, match="^family-level and "
                           "induced-complex degree-1 coboundaries disagree$"):
            infinitesimal_report(cx, d)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([c for c in LIE_CATALOG if c[0] <= 3]),
       st.integers(0, 2 ** 32 - 1))
def test_cohomology_invariant_under_change_of_basis(entry, seed):
    n, pairs = entry
    prod = skew_binary(n, pairs)
    moved = transport_bilinear(prod, random_invertible(random.Random(seed), n))
    s = trivial_semigroup()
    dims = []
    for binary in (prod, moved):
        cx = RBFComplex(identity_family(ly_from_lie(binary), s))
        dims.append((cohomology_H1(cx)[0], cohomology_H23(cx)))
    assert dims[0] == dims[1]


@pytest.mark.parametrize("law", ["binary", "ternary", "gamma1", "gamma2"])
def test_partial_deg1_refuses_tensors_that_are_not_skew(a1, s2, law):
    # the mirror fill of partial_deg1 needs the brackets of L and the
    # cocycle skew in their first slot pair; a complex built without the
    # family check refuses at the first degree-1 coboundary
    ctx = copy.deepcopy(identity_family(a1, s2))
    tensor = {"binary": ctx.algebra.binary, "ternary": ctx.algebra.ternary,
              "gamma1": ctx.cocycle.gamma1, "gamma2": ctx.cocycle.gamma2}[law]
    # one coordinate of the value at (e_0, e_0) or (e_0, e_0, e_0), which a
    # skew tensor keeps at 0
    while type(tensor[0]) is list:
        tensor = tensor[0]
    tensor[0] += 1
    cx = RBFComplex(ctx, check=False)
    zero = DeformationDirection([la.zeros(ctx.dimL, ctx.dimV)] * s2.order)
    for route in (lambda: partial_deg1(cx, zero), cx.d1_symbolic,
                  lambda: cohomology_H1(cx)):
        with pytest.raises(PreconditionError,
                           match="not skew: .*invariant:skew-" + law):
            route()


def test_representation_check_sees_a_changed_theta(a2, s2):
    # the derived D of an indexed representation is rebuilt from rho and
    # theta on each use, so a check after a change of theta sees it, as a
    # check of a fresh representation does
    cx = RBFComplex(identity_family(a2, s2))
    O, r = cx.induced_algebra, cx.induced_rep
    assert check_omega_representation(O, r).ok
    r.theta[0][1][0][0][1][0][0] += 1
    got = check_omega_representation(O, r)
    fresh = check_omega_representation(
        O, OmegaRepresentation(O, r.dim, r.rho, r.theta))
    assert "OREP-5.7" in got.laws()
    assert repr(got.violations) == repr(fresh.violations)


# ---------------------------------------------------------------------------
# the screened family check of the complex

SEMIGROUPS = {"S1": trivial_semigroup(),
              "S2": FiniteCommutativeSemigroup(2, [[0, 1], [1, 1]], unit=0),
              "Z3": FiniteCommutativeSemigroup(3, [[(i + j) % 3 for j in range(3)]
                                                   for i in range(3)], unit=0)}


def _family_screen_cases(A, s, rng):
    """(name, context): the identity family of A over s, its copy with V
    moved by a Fraction change of basis, and each with +-1 added to one
    entry of T_a in column i, for the first, a middle and the last joint
    label i*M + a, so that the changed image lies in the first slot of the
    screened pairs p < q, in their second slot, or in both."""
    ctx = identity_family(A, s)
    moved = change_basis_of_V(ctx, random_invertible(rng, ctx.dimV, 12))
    M, J = s.order, s.order * ctx.dimV
    for name, base in (("", ctx), ("moved", moved)):
        yield name, base
        for label in (0, J // 2, J - 1):
            i, a = divmod(label, M)
            row = rng.randrange(ctx.dimL)
            for sign in (1, -1):
                fam = copy.deepcopy(base.family)
                fam[a][row][i] += sign
                yield ("%s T_%d[%d][%d] %+d" % (name, a, row, i, sign),
                       TwistedRBContext(base.algebra, base.rep, base.cocycle,
                                        s, fam))


def _counted_family_report(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return family_report(*args)

    monkeypatch.setattr(cohomology, "family_report", counted)
    return calls


@pytest.mark.parametrize("A", ["A1", "A2"])
@pytest.mark.parametrize("sname", sorted(SEMIGROUPS))
def test_complex_screen_decides_as_the_family_laws(A, sname, monkeypatch):
    # a skew context: the complex accepts exactly the families that
    # family_report accepts, refuses the others with its laws, and runs
    # the full sweep only to make that message
    calls = _counted_family_report(monkeypatch)
    rng = random.Random("%s-%s" % (A, sname))
    verdicts = set()
    for name, ctx in _family_screen_cases(make_a1() if A == "A1" else make_a2(),
                                          SEMIGROUPS[sname], rng):
        tt = family_tables(ctx)
        want = family_report(tt, *induced_products(tt))
        del calls[:]
        if want.ok:
            RBFComplex(ctx)
        else:
            with pytest.raises(PreconditionError) as exc:
                RBFComplex(ctx)
            assert str(exc.value) == (
                "input is not a twisted Rota-Baxter family: %s"
                % sorted(want.laws())), name
        assert len(calls) == (not want.ok), name
        verdicts.add(want.ok)
    assert verdicts == {True, False}


def _not_skew_contexts():
    """(name, context): Gamma1(e_0, e_0) = u_0 is not skew, with dim L =
    dim V = 1 over the trivial semigroup; T = 1 fails RBF-3.1, T = 0 holds."""
    s, L, V = trivial_semigroup(), zero_ly(1), zero_representation(1, 1)
    c = Cocycle23([[[1]]], [[[[0]]]])
    for t in (1, 0):
        yield "not skew, T = %d" % t, TwistedRBContext(L, V, c, s, [[[t]]])


@pytest.mark.parametrize("A", ["A1", "A2"])
@pytest.mark.parametrize("sname", sorted(SEMIGROUPS))
def test_every_family_check_is_screened(A, sname, monkeypatch):
    # check_twisted_rb_family, induced_omega_ly_on_V and ns_from_twisted_rb
    # accept and refuse as the unscreened family_report does, and run it
    # exactly when its report is not empty or the context is not skew
    from lyfam import rbfamily
    calls = []

    def counted(*args):
        calls.append(args)
        return family_report(*args)

    for module in (rbfamily, cohomology):
        monkeypatch.setattr(module, "family_report", counted)
    rng = random.Random("every-%s-%s" % (A, sname))
    cases = list(_family_screen_cases(
        make_a1() if A == "A1" else make_a2(), SEMIGROUPS[sname], rng))
    verdicts = set()
    for name, ctx in cases + list(_not_skew_contexts()):
        tt = family_tables(ctx)
        want = family_report(tt, *induced_products(tt))
        skew = (ctx.algebra.invariant_report().ok
                and ctx.cocycle.invariant_report().ok)
        full = not want.ok or not skew
        del calls[:]
        assert repr(check_twisted_rb_family(ctx).violations) == \
            repr(want.violations), name
        assert len(calls) == full, name
        for build in (induced_omega_ly_on_V, ns_from_twisted_rb):
            del calls[:]
            if want.ok:
                build(ctx)
            else:
                with pytest.raises(PreconditionError, match=(
                        "^input is not a twisted Rota-Baxter family$")):
                    build(ctx)
            assert len(calls) == full, (name, build.__name__)
        verdicts.add((want.ok, full))
    assert verdicts == {(True, False), (False, True), (True, True)}


def test_complex_checks_a_context_that_is_not_skew_in_full(monkeypatch):
    # Gamma1(e_0, e_0) = u_0 is not skew.  With dim L = dim V = 1 over the
    # trivial semigroup the one tuple has p = q, where RBF-3.1 reads
    # -T Gamma1(x, x): a screen of the pairs p < q would see nothing
    calls = _counted_family_report(monkeypatch)
    s, L, V = trivial_semigroup(), zero_ly(1), zero_representation(1, 1)
    c = Cocycle23([[[1]]], [[[[0]]]])
    with pytest.raises(PreconditionError,
                       match=r"family: \['RBF-3.1'\]$"):
        RBFComplex(TwistedRBContext(L, V, c, s, [[[1]]]))
    # with T = 0 both laws hold, and the full sweep still decides
    RBFComplex(TwistedRBContext(L, V, c, s, [[[0]]]))
    assert len(calls) == 2
