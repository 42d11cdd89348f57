import copy
import itertools
import random
from fractions import Fraction

import pytest

from lyfam import linalg as la
from lyfam.errors import PreconditionError
from lyfam.ly import (Cocycle23, LYAlgebra, adjoint_representation, gamma_ad,
                      ly_tensor_semigroup, zero_cocycle, zero_ly,
                      zero_representation)
from lyfam.rbfamily import (TwistedRBContext, bar_operator,
                            check_graph_subalgebra_family, check_morphism,
                            check_nijenhuis_family, check_relative_rb_family,
                            check_reynolds_family, check_twisted_rb_family,
                            identity_family, nijenhuis_induced_context,
                            reynolds_as_twisted, semidirect_product,
                            zero_family)
from lyfam.omega import omega_ly_from_reynolds
from conftest import random_vec


def zero_context(s, dim_l=2, dim_v=2):
    return TwistedRBContext(zero_ly(dim_l), zero_representation(dim_l, dim_v),
                            zero_cocycle(dim_l, dim_v), s,
                            zero_family(dim_l, dim_v, s))


def test_zero_context_is_twisted_family(s1, s2):
    for s in (s1, s2):
        ctx = zero_context(s)
        assert ctx.validate().ok
        assert check_twisted_rb_family(ctx).ok


def test_identity_family_all_six(algebras, semigroups):
    for A in algebras:
        for s in semigroups:
            ctx = identity_family(A, s)
            assert ctx.validate().ok
            assert check_twisted_rb_family(ctx).ok


def test_identity_family_shape(a1, s2):
    ctx = identity_family(a1, s2)
    assert ctx.dimL == a1.dim * s2.order
    assert ctx.dimV == a1.dim
    # T_alpha embeds V into the alpha-indexed leg
    u = [1, 0]
    assert any(ctx.T(0, u)) and any(ctx.T(1, u))
    assert ctx.T(0, u) != ctx.T(1, u)


def test_corrupted_family_detected(a1, s2):
    ctx = identity_family(a1, s2)
    ctx.family[0][0][0] += 1
    assert not check_twisted_rb_family(ctx).ok


def test_bar_operator_all_six(algebras, semigroups):
    for A in algebras:
        for s in semigroups:
            bar = bar_operator(identity_family(A, s))
            assert bar.semigroup.order == 1
            assert check_twisted_rb_family(bar).ok


def test_bar_operator_rejects_invalid_input(a1, s2):
    ctx = identity_family(a1, s2)
    ctx.family[0][0][0] += 1
    with pytest.raises(PreconditionError):
        bar_operator(ctx)


def test_graph_matches_family_check(algebras, semigroups, rng):
    hits = 0
    for t in range(40):
        A = algebras[rng.randrange(len(algebras))]
        s = semigroups[rng.randrange(len(semigroups))]
        ctx = identity_family(A, s)
        if t % 2:
            al = rng.randrange(s.order)
            r = rng.randrange(ctx.dimL)
            c = rng.randrange(ctx.dimV)
            ctx.family[al][r][c] += Fraction(rng.randint(1, 2))
        ok_eqs = check_twisted_rb_family(ctx).ok
        assert check_graph_subalgebra_family(ctx) == ok_eqs
        hits += 1
    assert hits == 40


def test_morphism_identity_is_morphism(a1, s2):
    ctx = identity_family(a1, s2)
    eta = la.identity(ctx.dimL)
    zeta = la.identity(ctx.dimV)
    assert check_morphism(ctx, ctx, eta, zeta).ok


def test_morphism_detects_mismatch(a1, a2, s2):
    c1 = identity_family(a1, s2)
    eta = la.identity(c1.dimL)
    zeta = [[2 * x for x in row] for row in la.identity(c1.dimV)]
    assert not check_morphism(c1, c1, eta, zeta).ok


def test_reynolds_from_zero_operator(a1, s1):
    T = [la.zeros(a1.dim, a1.dim) for _ in range(s1.order)]
    assert check_reynolds_family(a1, s1, T).ok
    ctx = reynolds_as_twisted(a1, s1, T)
    assert check_twisted_rb_family(ctx).ok


@pytest.mark.parametrize("order,dim", [(1, 2), (2, 3), (2, 1)])
def test_reynolds_family_of_wrong_shape_is_refused(a1, s2, order, dim):
    # one 2 x 2 matrix once ended in an IndexError, and two 3 x 3 ones in
    # violations of truncated contractions
    fam = [la.identity(dim) for _ in range(order)]
    for route in (check_reynolds_family, reynolds_as_twisted,
                  omega_ly_from_reynolds):
        with pytest.raises(PreconditionError,
                           match=r"Reynolds family .* needs order 2 \(.*\) "
                                 r"and dims 2 x 2"):
            route(a1, s2, fam)


def test_reynolds_routes_contract_no_brackets_of_the_algebra(a1, s2,
                                                             monkeypatch):
    # the laws are those of the adjoint context, read off its tables
    calls = []
    for name in ("bracket", "tri"):
        monkeypatch.setattr(LYAlgebra, name,
                            lambda self, *xs, name=name: calls.append(name))
    zero = [la.zeros(a1.dim, a1.dim) for _ in range(s2.order)]
    ident = [la.identity(a1.dim) for _ in range(s2.order)]
    assert check_reynolds_family(a1, s2, zero).ok
    assert not check_reynolds_family(a1, s2, ident).ok
    reynolds_as_twisted(a1, s2, zero)
    omega_ly_from_reynolds(a1, s2, zero)
    assert calls == []


def _literal_reynolds_violations(A, s, T):
    """The paper's two laws, [Tx, Ty] = T_ab([Tx, y] + [x, Ty] - [Tx, Ty])
    and {Tx, Ty, Tz} = T_abg({Tx, Ty, z} + {Tx, y, Tz} + {x, Ty, Tz}
    - {Tx, Ty, Tz}), evaluated at every tuple of basis vectors."""
    t, E, mv, vsum = s.table, la.identity(A.dim), la.mat_vec, la.vec_sum
    br, tr, m, n = A.bracket, A.tri, s.elements, range(A.dim)
    out = []
    for a, b, i, j in itertools.product(m, m, n, n):
        x, y, Tx, Ty = E[i], E[j], mv(T[a], E[i]), mv(T[b], E[j])
        inner = vsum("++-", br(Tx, y), br(x, Ty), br(Tx, Ty))
        out.append(("REY-bin", (a, b, i, j),
                    la.vec_sub(br(Tx, Ty), mv(T[t[a][b]], inner))))
    for a, b, g, i, j, k in itertools.product(m, m, m, n, n, n):
        x, y, z = E[i], E[j], E[k]
        Tx, Ty, Tz = mv(T[a], x), mv(T[b], y), mv(T[g], z)
        inner = vsum("+++-", tr(Tx, Ty, z), tr(Tx, y, Tz), tr(x, Ty, Tz),
                     tr(Tx, Ty, Tz))
        out.append(("REY-ter", (a, b, g, i, j, k),
                    la.vec_sub(tr(Tx, Ty, Tz), mv(T[t[t[a][b]][g]], inner))))
    return [(law, w, tuple(r)) for law, w, r in out if any(r)]


def test_reynolds_laws_equal_the_literal_formulas(a1, s2):
    A, rng = ly_tensor_semigroup(a1, s2), random.Random(21)
    T = [[[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
           for _ in range(A.dim)] for _ in range(A.dim)] for _ in s2.elements]
    expected = _literal_reynolds_violations(A, s2, T)
    assert len(expected) > 100
    assert [(v.law, v.witness, v.residual) for v in
            check_reynolds_family(A, s2, T).violations] == expected


def test_relative_family_is_the_twisted_family_with_zero_cocycle(a1, s2):
    with pytest.raises(PreconditionError,
                       match="a relative Rota-Baxter family requires Gamma = 0"):
        check_relative_rb_family(identity_family(a1, s2))
    rng = random.Random(22)
    fam = [[random_vec(rng, a1.dim) for _ in range(a1.dim)] for _ in s2.elements]
    ctx = TwistedRBContext(a1, adjoint_representation(a1),
                           zero_cocycle(a1.dim, a1.dim), s2, fam)
    rep = check_relative_rb_family(ctx)
    assert not rep.ok
    assert rep == check_twisted_rb_family(ctx)


def test_nijenhuis_zero_and_identity(a1, s2):
    zero = [la.zeros(a1.dim, a1.dim) for _ in range(s2.order)]
    assert check_nijenhuis_family(a1, s2, zero).ok
    ctx = nijenhuis_induced_context(a1, s2, zero)
    assert check_twisted_rb_family(ctx).ok
    ident = [la.identity(a1.dim) for _ in range(s2.order)]
    assert check_nijenhuis_family(a1, s2, ident).ok
    ctx = nijenhuis_induced_context(a1, s2, ident)
    assert check_twisted_rb_family(ctx).ok


@pytest.mark.parametrize("order,dim", [(1, 2), (2, 3), (2, 1)])
def test_nijenhuis_family_of_wrong_shape_is_refused(a1, s2, order, dim):
    fam = [la.identity(dim) for _ in range(order)]
    with pytest.raises(PreconditionError,
                       match=r"needs order 2 \(.*\) and dims 2 x 2"):
        check_nijenhuis_family(a1, s2, fam)
    with pytest.raises(PreconditionError, match="needs order 2"):
        nijenhuis_induced_context(a1, s2, fam)


def test_nijenhuis_scaled_identity(a2, s2):
    fam = [[[Fraction(al + 1) * x for x in row] for row in la.identity(a2.dim)]
           for al in range(s2.order)]
    if check_nijenhuis_family(a2, s2, fam).ok:
        ctx = nijenhuis_induced_context(a2, s2, fam)
        assert check_twisted_rb_family(ctx).ok


def test_semidirect_product(a2):
    r = adjoint_representation(a2)
    c = gamma_ad(a2)
    B = semidirect_product(a2, r, c)
    assert B.dim == 2 * a2.dim
    from lyfam.ly import check_ly_axioms
    assert check_ly_axioms(B).ok


def test_check_sees_a_changed_representation(a2, s1):
    # every check derives D from the representation as it is at the call,
    # so a change to theta after an earlier check shows
    ctx = copy.deepcopy(identity_family(a2, s1))
    assert check_twisted_rb_family(ctx).ok
    ctx.rep.theta[0][1][0][0] += 1
    rep = check_twisted_rb_family(ctx)
    assert len(rep.violations) == 2
    assert rep.laws() == {"RBF-3.2"}
