"""The three workloads: inputs made from a seed, and one measured pass each.

Every input reaches the library the way a CLI user's file does: it is
written with `serialize` and read back, so integral scalars are `int`, as
`parse_scalar` makes them.  Library calls go through the module objects in
`lib` at call time, so that a traced run sees every call.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import traceback
from time import perf_counter

S2_TABLE = [[0, 1], [1, 1]]

# Lie algebras (dim, [(i, j, [i,j])]) from which the laws workload draws,
# each under a random change of basis
LIE_CATALOG = [
    (1, []),
    (2, []),
    (2, [(0, 1, [0, 1])]),
    (3, [(0, 1, [0, 0, 1])]),
    (3, [(0, 1, [0, 1, 0]), (0, 2, [0, 0, 1])]),
    (3, [(0, 1, [0, 2, 0]), (0, 2, [0, 0, -2]), (1, 2, [1, 0, 0])]),
    (4, [(0, 1, [0, 0, 1, 0]), (0, 2, [0, 0, 0, 1])]),
    (4, [(0, 1, [0, 1, 0, 0])]),
]
A1_PAIRS = [(0, 1, [1, 0])]
A2_PAIRS = [(0, 1, [0, 2, 0]), (0, 2, [0, 0, -2]), (1, 2, [1, 0, 0])]


def skew_binary(n, pairs):
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j, vec in pairs:
        t[i][j] = list(vec)
        t[j][i] = [-x for x in vec]
    return t


def random_basis_change(rng, n, steps=6):
    """An integer matrix of determinant +-1 and its inverse."""
    p = [[int(r == c) for c in range(n)] for r in range(n)]
    pinv = [list(row) for row in p]
    for _ in range(steps):
        i, j, op = rng.randrange(n), rng.randrange(n), rng.randrange(3)
        if op == 0 and i != j:
            c = rng.randint(-2, 2)
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
            for row in pinv:
                row[j] -= c * row[i]
        elif op == 1 and i != j:
            p[i], p[j] = p[j], p[i]
            for row in pinv:
                row[i], row[j] = row[j], row[i]
        else:
            p[i] = [-x for x in p[i]]
            for row in pinv:
                row[i] = -row[i]
    return p, pinv


def transport(prod, p, pinv):
    """The bilinear product x * y carried along the basis change x -> p x."""
    n = len(prod)
    cols = [[p[r][i] for r in range(n)] for i in range(n)]

    def mult(x, y):
        out = [0] * n
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi and yj:
                    out = [o + xi * yj * v for o, v in zip(out, prod[i][j])]
        return [sum(pinv[r][k] * out[k] for k in range(n)) for r in range(n)]

    return [[mult(cols[i], cols[j]) for j in range(n)] for i in range(n)]


def random_lie(rng, k):
    """The k-th Lie algebra: catalogue entries in turn, so that every seed
    checks algebras of the same dimensions, each in a random basis."""
    n, pairs = LIE_CATALOG[k % len(LIE_CATALOG)]
    return transport(skew_binary(n, pairs), *random_basis_change(rng, n))


def random_leibniz(rng, k):
    # products of the first n-1 generators land in the last coordinate,
    # which multiplies to zero on both sides; dimensions 1, 2, 3 in turn
    n = 1 + k % 3
    star = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            star[i][j][n - 1] = rng.randint(-2, 2)
    return transport(star, *random_basis_change(rng, n))


def signed_permutation(lib, ctx, rng):
    """The same family written in a signed permutation of L's basis."""
    A, r, c = ctx.algebra, ctx.rep, ctx.cocycle
    n = A.dim
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(n)]

    def vec(v):
        out = [0] * n
        for k, x in enumerate(v):
            out[perm[k]] = sign[k] * x
        return out

    def scaled(s, m):
        return [[s * x for x in row] for row in m]

    binary = [[None] * n for _ in range(n)]
    rho = [None] * n
    theta = [[None] * n for _ in range(n)]
    ternary = [[[None] * n for _ in range(n)] for _ in range(n)]
    g1 = [[None] * n for _ in range(n)]
    g2 = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rho[perm[i]] = scaled(sign[i], r.rho[i])
        for j in range(n):
            s_ij = sign[i] * sign[j]
            binary[perm[i]][perm[j]] = [s_ij * x for x in vec(A.binary[i][j])]
            theta[perm[i]][perm[j]] = scaled(s_ij, r.theta[i][j])
            g1[perm[i]][perm[j]] = [s_ij * x for x in c.gamma1[i][j]]
            for k in range(n):
                s_ijk = s_ij * sign[k]
                ternary[perm[i]][perm[j]][perm[k]] = [
                    s_ijk * x for x in vec(A.ternary[i][j][k])]
                g2[perm[i]][perm[j]][perm[k]] = [
                    s_ijk * x for x in c.gamma2[i][j][k]]
    family = []
    for T in ctx.family:
        rows = [None] * n
        for k in range(n):
            rows[perm[k]] = [sign[k] * x for x in T[k]]
        family.append(rows)
    return lib.rbfamily.TwistedRBContext(
        lib.ly.LYAlgebra(n, binary, ternary),
        lib.ly.Representation(r.space_dim, rho, theta),
        lib.ly.Cocycle23(g1, g2), ctx.semigroup, family)


class Workload:
    """Inputs of one workload, written under `workdir` and read back."""

    def __init__(self, lib, workdir, seed):
        self.lib, self.workdir, self.seed = lib, workdir, seed
        self.rng = random.Random(seed)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def semigroup(self, name):
        sg = self.lib.semigroup
        if name == "S1":
            return sg.trivial_semigroup()
        return sg.FiniteCommutativeSemigroup(2, S2_TABLE, unit=0)

    def context(self, algebra, sname):
        """The zero context on dim 2 ("zero"), or the identity family of the
        zero algebra of dim 2 ("zero_ly"), of A1 or of A2."""
        ly, rb = self.lib.ly, self.lib.rbfamily
        s = self.semigroup(sname)
        if algebra == "zero":
            return rb.TwistedRBContext(
                ly.zero_ly(2), ly.zero_representation(2, 2),
                ly.zero_cocycle(2, 2), s, rb.zero_family(2, 2, s))
        if algebra == "zero_ly":
            return rb.identity_family(ly.zero_ly(2), s)
        pairs = A1_PAIRS if algebra == "A1" else A2_PAIRS
        return rb.identity_family(
            ly.ly_from_lie(skew_binary(len(pairs[0][2]), pairs)), s)

    def round_trip(self, name, kind, payload):
        sz = self.lib.serialize
        path = self.path(name)
        sz.save_json(path, payload)
        return path, sz.load_object(path, kind)


class Tally:
    """Operations attempted and failed in one pass, timed on its clock."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0

    def check(self, op, key=None):
        """Run one operation that returns whether its output is right; an
        exception counts as a failure and its traceback goes to stderr.  Its
        time is recorded under `key`, if given; then the clock may sample
        the host's speed, between operations."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            ok = op()
        except Exception:
            traceback.print_exc()
            ok = False
        if key:
            self.clock.record(key, perf_counter() - t0)
        self.failed += not ok
        self.clock.lap()
        return ok


class Cohomology(Workload):
    """H^1 and H^(2,3) with a fresh complex per rung."""

    # (algebra, semigroup, expected H^1, expected H^(2,3) or None to skip).
    # A pass is kept to about 2 s so that a run holds many, and their median
    # is steady.  A2xS1 H^(2,3) spends about a sixth of its
    # time in elimination; zero-x-S2 H^(2,3) (about 7 s) and A1xS2 H^(2,3)
    # (about 25 s) are left out for their length.
    RUNGS = [("zero", "S1", 4, 6), ("A1", "S1", 1, 1), ("A2", "S1", 0, 1),
             ("zero", "S2", 8, None), ("A1", "S2", 2, None)]
    SMOKE_RUNGS = [("zero", "S1", 4, 6), ("A1", "S1", 1, 1)]

    def __init__(self, lib, workdir, seed, smoke):
        super().__init__(lib, workdir, seed)
        self.rungs = []
        for algebra, sname, h1, h23 in (self.SMOKE_RUNGS if smoke
                                         else self.RUNGS):
            ctx = self.context(algebra, sname)
            if seed:
                ctx = signed_permutation(lib, ctx, self.rng)
            name = "%s_%s" % (algebra, sname)
            _, ctx = self.round_trip(name + ".json", "context",
                                     lib.serialize.context_to_json(ctx))
            self.rungs.append((name, ctx, h1, h23))

    def run_pass(self, clock):
        coh = self.lib.cohomology
        tally = Tally(clock)
        dims = {}
        for name, ctx, h1, h23 in self.rungs:
            ctx = copy.deepcopy(ctx)  # the context caches its derived D
            got = dims[name] = [None, None]
            held = {}

            def first():
                held["cx"] = coh.RBFComplex(ctx)
                got[0] = coh.cohomology_H1(held["cx"])[0]
                return got[0] == h1

            def second():
                got[1] = coh.cohomology_H23(held["cx"])
                return got[1] == h23

            tally.check(first, "h1_s")
            if h23 is not None:
                tally.check(second, "h23_s")
        return {"dims": dims, "attempted": tally.attempted,
                "failed": tally.failed}


class Laws(Workload):
    """Law checks and constructions at the scale of criteria 01-06."""

    # zero-x-S2 (about 3 s) and A2xS2 (about 22 s) are left out so that
    # several passes fit in one run
    CONTEXTS = [("zero_ly", "S1"), ("A1", "S1"), ("A2", "S1"), ("A1", "S2")]
    SMOKE_CONTEXTS = [("zero_ly", "S1"), ("A1", "S1")]

    def __init__(self, lib, workdir, seed, smoke):
        super().__init__(lib, workdir, seed)
        per_kind = 4 if smoke else 50
        self.tables = []
        for k in range(2 * per_kind):
            kind = "lie" if k < per_kind else "leibniz"
            t = random_lie(self.rng, k) if kind == "lie" else \
                random_leibniz(self.rng, k)
            self.tables.append((kind, self.bilinear_round_trip(
                "%s_%d.json" % (kind, k), t)))
        self.contexts = []
        for algebra, sname in (self.SMOKE_CONTEXTS if smoke
                               else self.CONTEXTS):
            name = "%s_%s.json" % (algebra, sname)
            ctx = self.context(algebra, sname)
            _, ctx = self.round_trip(
                name, "context", lib.serialize.context_to_json(ctx))
            self.contexts.append(ctx)

    def bilinear_round_trip(self, name, table):
        """Write the CLI's bilinear format and read it back as the CLI does."""
        sz = self.lib.serialize
        n = len(table)
        entries = [[i, j, k, sz.dump_scalar(v)]
                   for i in range(n) for j in range(n)
                   for k, v in enumerate(table[i][j]) if v]
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump({"kind": "bilinear", "dim": n, "entries": entries}, fh)
        d = sz.load_json(self.path(name))
        out = [[[0] * d["dim"] for _ in range(d["dim"])]
               for _ in range(d["dim"])]
        for i, j, k, v in d["entries"]:
            out[i][j][k] = sz.parse_scalar(v)
        return out

    def run_pass(self, clock):
        lib = self.lib
        ly, rb, ns, om = lib.ly, lib.rbfamily, lib.nsfamily, lib.omega
        tally = Tally(clock)
        for kind, table in self.tables:
            build = ly.ly_from_lie if kind == "lie" else ly.ly_from_leibniz
            tally.check(lambda: ly.check_ly_axioms(build(table)).ok)
        for ctx in self.contexts:
            ctx = copy.deepcopy(ctx)  # the context caches its derived D
            held = {}

            def splitting():
                held["N"] = ns.ns_from_twisted_rb(ctx)
                return ns.check_ns_family_axioms(held["N"]).ok

            def induced_rep():
                cx = lib.cohomology.RBFComplex(ctx, check=False)
                return om.check_omega_representation(cx.induced_algebra,
                                                     cx.induced_rep).ok

            for check in (
                    lambda: rb.check_twisted_rb_family(ctx).ok,
                    lambda: rb.check_twisted_rb_family(
                        rb.bar_operator(ctx)).ok,
                    lambda: rb.check_graph_subalgebra_family(ctx) is True,
                    splitting,
                    lambda: ns.check_ns_axioms(
                        ns.ns_tensor_semigroup(held["N"])).ok,
                    lambda: om.check_omega_ly_axioms(
                        om.omega_ly_from_ns_family(held["N"])).ok,
                    induced_rep,
                    lambda: ns.ns_tensor_from_rb_coincidence(ctx) is True):
                tally.check(check)
        return {"attempted": tally.attempted, "failed": tally.failed}


class Deform(Workload):
    """A seeded stream of `lyfam --json deform` calls through `cli.main`."""

    # (algebra, semigroup, boundary, class, random) queries per pass: about
    # three A1xS2 queries per A2xS2 query keeps p50 inside the A1xS2 latency
    # cluster and p90 inside the A2xS2 cluster
    PLAN = [("A1", "S2", 10, 10, 10), ("A2", "S2", 7, 0, 3)]
    SMOKE_PLAN = [("A1", "S1", 2, 2, 2)]

    def __init__(self, lib, workdir, seed, smoke):
        super().__init__(lib, workdir, seed)
        coh, sz = lib.cohomology, lib.serialize
        self.queries = []  # (argv, expected exit code, payload key, value)
        for algebra, sname, n_bd, n_cls, n_rnd in (self.SMOKE_PLAN if smoke
                                                   else self.PLAN):
            tag = "%s_%s" % (algebra, sname)
            ctx_path, ctx = self.round_trip(
                tag + ".json", "context",
                sz.context_to_json(self.context(algebra, sname)))
            cx = coh.RBFComplex(ctx)
            nl, nv, order = ctx.dimL, ctx.dimV, ctx.semigroup.order
            zero_path, _ = self.direction(
                tag + "_zero.json", [[[0] * nv for _ in range(nl)]] * order)
            reps = coh.cohomology_H1(cx)[1] if n_cls else []
            for q in range(n_bd + n_cls):
                e = coh.DegreeZeroElement([(self.ints(nl), self.ints(nl))])
                bd = coh.partial_deg0(cx, e).even
                name = "%s_q%d" % (tag, q)
                if q < n_bd:
                    path, _ = self.direction(name + ".json", bd)
                    self.add(ctx_path, [path, zero_path], 0, "equivalent",
                             True)
                    continue
                coeffs = [0] * len(reps)
                while not any(coeffs):
                    coeffs = self.ints(len(reps))
                moved = [[[x + sum(c * rep.even[a][r][col]
                                   for c, rep in zip(coeffs, reps))
                           for col, x in enumerate(row)]
                          for r, row in enumerate(bd[a])]
                         for a in range(order)]
                b_path, _ = self.direction(name + "_b.json", bd)
                h_path, _ = self.direction(name + "_bh.json", moved)
                self.add(ctx_path, [h_path, b_path], 1, "equivalent", False)
            for q in range(n_rnd):
                fam = [[[self.rng.choice((-1, 0, 1)) for _ in range(nv)]
                        for _ in range(nl)] for _ in range(order)]
                path, fam = self.direction("%s_r%d.json" % (tag, q), fam)
                verdict = coh.check_infinitesimal(
                    cx, coh.DeformationDirection(fam))
                self.add(ctx_path, [path], 0 if verdict else 1, "cocycle",
                         verdict)
        self.rng.shuffle(self.queries)

    def ints(self, n):
        return [self.rng.randint(-2, 2) for _ in range(n)]

    def direction(self, name, family):
        return self.round_trip(name, "direction",
                               self.lib.serialize.direction_to_json(family))

    def add(self, ctx_path, dirs, code, key, value):
        argv = ["--json", "--seed", str(self.seed), "deform", ctx_path] + dirs
        self.queries.append((argv, code, key, value))

    def run_pass(self, clock):
        tally = Tally(clock)
        for argv, code, key, value in self.queries:
            def query():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    t0 = perf_counter()
                    try:
                        got = self.lib.cli.main(argv)
                    finally:
                        clock.record("query", perf_counter() - t0)
                payload = json.loads(out.getvalue()).get("payload", {})
                return (got == code and payload.get(key) is value
                        and "Traceback" not in err.getvalue())

            tally.check(query)
        return {"attempted": tally.attempted, "failed": tally.failed}


WORKLOADS = {"cohomology": Cohomology, "laws": Laws, "deform": Deform}
