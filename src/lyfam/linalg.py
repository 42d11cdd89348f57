"""Exact linear algebra over the rationals.

Scalars are Python ints or fractions.Fraction (they interoperate exactly);
matrices are sequences of rows, vectors are flat sequences, and linear forms
are sparse dicts.  Kernels, ranks, solutions and quotients all come from one
sparse, fully reducing echelon routine (`Echelon`) that touches nonzero
entries only and holds its rows in integers, so all results are exact.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import getitem

from .errors import ContainmentError, PreconditionError


# ---------------------------------------------------------------------------
# vector / matrix helpers

def zero_vec(n):
    return [0] * n


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


_SUMS = {}  # sign string -> its summing function (_summing), built once


def _summing(signs):
    """The function of a tuple of one vector per sign (else a ValueError)
    that sums them coordinate by coordinate, left to right with the signs,
    as a chain of vec_add/vec_sub on whole vectors would."""
    if not signs or not set(signs) <= {"+", "-"}:
        raise ValueError("need one sign, '+' or '-', per term: %r" % (signs,))
    expr = "".join("%sc%d" % (s, k) for k, s in enumerate(signs)).lstrip("+")
    cs, vs = ("".join("%s%d," % (x, k) for k in range(len(signs))) for x in "cv")
    scope = {}  # def f(vecs): v0,v1, = vecs; return [c0-c1 for c0,c1, in zip(v0,v1,)]
    exec("def f(vecs):\n %s = vecs\n return [%s for %s in zip(%s)]"
         % (vs, expr, cs, vs), scope)
    f = _SUMS[signs] = scope["f"]
    return f


def vec_sum(signs, *vecs):
    """vecs[0] +- vecs[1] +- ..., one sign per vector in the string signs;
    each coordinate is summed left to right."""
    return (_SUMS.get(signs) or _summing(signs))(vecs)


def mat_sum(signs, *mats):
    """mats[0] +- mats[1] +- ..., row by row as vec_sum sums vectors."""
    f = _SUMS.get(signs) or _summing(signs)
    if len(mats) != len(signs):
        raise ValueError("need one matrix per sign: %r" % (signs,))
    return [f(rows) for rows in zip(*mats)]


def vec_scale(c, u):
    return [c * a for a in u]


def vec_neg(u):
    return [-a for a in u]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(*dims):
    """The nested list of zeros of shape dims, for example zeros(rows, cols);
    every row is a fresh list, so the table can be written in place."""
    *outer, cols = dims
    table = [[0] * cols for _ in range(prod(outer))] if outer else [0] * cols
    for k in range(len(outer) - 1, 0, -1):  # the rows grouped level by level
        d = outer[k]
        table = [table[g * d:(g + 1) * d] for g in range(prod(outer[:k]))]
    return table


def mat_vec(m, v):
    """m v, for v with one coordinate per column of m.  Only the support of
    v is read: each row sums a * b over the nonzero b = v[k] and nonzero
    a = row[k], in the order of k, so a zero v gives int zeros at once."""
    sup = [(k, b) for k, b in enumerate(v) if b]
    if not sup:
        return [0] * len(m)
    out = []
    for row in m:
        s = 0
        for k, b in sup:
            a = row[k]
            if a:
                s += a * b
        out.append(s)
    return out


def mat_mul(a, b):
    """a b, skipping zero entries of both factors as mat_vec does.  The
    nonzero entries of row k of b are listed when a nonzero entry of column
    k of a first meets them, so a sparse a reads few rows of b."""
    ncols = len(b[0]) if b else 0
    support = [None] * len(b)
    out = []
    for row in a:
        orow = [0] * ncols
        k = 0
        for x in row:
            if x:
                sup = support[k]
                if sup is None:
                    sup = support[k] = [(c, y) for c, y in enumerate(b[k]) if y]
                for c, y in sup:
                    orow[c] += x * y
            k += 1
        out.append(orow)
    return out


def transpose(m, ncols):
    """The transpose of m, whose rows are the ncols columns of m; a matrix
    without rows does not carry its column count, so it is passed."""
    return [[row[k] for row in m] for k in range(ncols)]


def mat_add(a, b):
    return [vec_add(r, s) for r, s in zip(a, b)]


def mat_sub(a, b):
    return [vec_sub(r, s) for r, s in zip(a, b)]


def contract(table, *vecs):
    """Value at vecs of the multilinear map with structure constants table:
    the one cell of contract_grid(table, [v1], ..., [vk]), k >= 1.

    table is a nested list: table[i1]...[ik] is the value at the basis tuple
    (e_i1, ..., e_ik), a vector or a matrix (a list of rows).  The result
    has the same shape, also when every coefficient vanishes; only a table
    without entries (a zero-dimensional argument space) gives [].  Zero
    coefficients and zero table entries are skipped, so each argument costs
    only its support.  Entries may be scalars or LinearForms.
    """
    if len(vecs) == 1:  # the call of every law checker, without the grid
        return _contract_list(table, vecs)[0]
    return reduce(getitem, [0] * len(vecs), contract_grid(table, *[[v] for v in vecs]))


def _contract_list(table, vecs):
    """[contract(table, v) for v in vecs] in plain counter loops, the fastest
    form on CPython 3.11: the grid's terms, with 1 * x as x, and a matrix
    summed row by row, each row over all the terms."""
    leaf, out = table[0] if table else [], []
    if leaf and type(leaf[0]) is list:
        for v in vecs:
            terms, i = [], 0
            for x in v:
                if x:
                    terms.append((x, table[i]))
                i += 1
            value = []
            for a, lrow in enumerate(leaf):
                orow = [0] * len(lrow)
                for c, m in terms:
                    j = 0
                    for y in m[a]:
                        if y:
                            orow[j] += c * y
                        j += 1
                value.append(orow)
            out.append(value)
        return out
    for v in vecs:
        value, i = [0] * len(leaf), 0
        for x in v:
            if x:
                k = 0
                for y in table[i]:
                    if y:
                        value[k] += x * y
                    k += 1
            i += 1
        out.append(value)
    return out


def contract_grid(table, *lists, columns=None):
    """contract(table, v1, ..., vk) for every v1 in lists[0], ..., vk in
    lists[k-1] (k >= 1), as the nested list out[j1]...[jk]: the one
    contraction kernel.  Each value sums the terms 1 * v1[i1] * ... * vk[ik]
    times table[i1]...[ik] at the nonzero coordinates, in the order of the
    indices, each coordinate from the int 0 over the nonzero entries, so no
    value, zero type or LinearForm key order depends on the lists.  One list
    takes the straight path of _contract_list; with more, the supports are
    listed once per call, and the terms of v1, ..., vr formed once for all
    the combinations that extend them.  With columns=n each value, a matrix
    with n columns, is given by its columns, as transpose(value, n)."""
    if columns is None and len(lists) == 1:
        return _contract_list(table, lists[0])
    leaf = table  # every value has the shape of this leaf
    for _ in lists:
        leaf = leaf[0] if leaf else []
    matrix = columns is not None or bool(leaf) and type(leaf[0]) is list
    zero = [[0] * len(leaf)] * columns if columns is not None else \
        [[0] * len(row) for row in leaf] if matrix else leaf
    *sups, last = [[[(i, x) for i, x in enumerate(v) if x] for v in vs]
                   for vs in lists]

    def grid(r, terms):  # terms: (coefficient, sub-table) pairs
        if r < len(sups):
            return [grid(r + 1, [(c * x, sub[i]) for c, sub in terms
                                 for i, x in sup]) for sup in sups[r]]
        out = []
        for sup in last:
            if not matrix:
                value = [0] * len(zero)
                for c, sub in terms:
                    for i, x in sup:
                        cx, k = c * x, 0
                        for y in sub[i]:
                            if y:
                                value[k] += cx * y
                            k += 1
            elif columns is None:
                value = list(map(list.copy, zero))
                for c, sub in terms:
                    for i, x in sup:
                        cx = c * x
                        for orow, row in zip(value, sub[i]):
                            if any(row):
                                j = 0
                                for y in row:
                                    if y:
                                        orow[j] += cx * y
                                    j += 1
            else:  # entry y at row a and column j goes to value[j][a]
                value = list(map(list.copy, zero))
                for c, sub in terms:
                    for i, x in sup:
                        cx, a = c * x, 0
                        for row in sub[i]:
                            if any(row):
                                for y, col in zip(row, value):
                                    if y:
                                        col[a] += cx * y
                            a += 1
            out.append(value)
        return out

    return grid(0, [(1, table)])


def lead_slot(table, s, rank):
    """The table of a map with rank vector slots with slot s first and the
    others merged into one, in order: contract(lead_slot(t, s, rank), x) at
    the flat index of the other slots' indices (j*n + k for t(x, e_j, e_k))
    is the value at x in slot s and those basis vectors, term for term."""
    dims, sub = [], table
    for _ in range(rank):
        dims.append(len(sub))
        sub = sub[0] if sub else []
    rest = list(itertools.product(*map(range, dims[:s] + dims[s + 1:])))
    return [[reduce(getitem, idx[:s] + (p,) + idx[s:], table) for idx in rest]
            for p in range(dims[s])]


def has_shape(table, dims):
    """Whether table is nested lists (or tuples) of the lengths dims."""
    level = [table]  # the lists at one depth
    for k, d in enumerate(dims):
        for x in level:
            if not isinstance(x, (list, tuple)) or len(x) != d:
                return False
        if k + 1 < len(dims):
            level = [y for x in level for y in x]
    return True


def map_at(f, table, depth):
    """table with f applied to each of its entries at the given depth."""
    return [map_at(f, x, depth - 1) for x in table] if depth else f(table)


def slot_views(table, depth):
    """The rank-3 tables at the given depth of table with slot 0, 1 or 2
    first, and their vectors in order: four tables indexed as table is."""
    views = [map_at(lambda X: lead_slot(X, s, 3), table, depth) for s in range(3)]
    return views + [map_at(flatten, views[0], depth)]


def flatten(m):
    return [x for row in m for x in row]


# ---------------------------------------------------------------------------
# sparse linear forms

class LinearForm(dict):
    """Exact sparse linear form: basis index -> nonzero int/Fraction.

    Forms add and subtract with forms and with the scalar 0, and scale by
    scalars, so a multilinear evaluator written for scalars runs unchanged on
    vectors of forms.  A result without terms is the int 0: truthiness
    follows the zero-skipping of scalars, and an all-zero coordinate compares
    equal on every route.  Forms are never changed in place once built.
    """
    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, LinearForm):
            if other:
                raise TypeError("a linear form plus a nonzero constant")
            return self
        if len(other) > len(self):
            self, other = other, self
        out = LinearForm(self)
        for k, v in other.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                del out[k]
        return out or 0

    __radd__ = __add__

    def __neg__(self):
        return LinearForm({k: -v for k, v in self.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, c):
        if isinstance(c, LinearForm):
            raise TypeError("the product of two linear forms is not linear")
        if not c:
            return 0
        if c == 1:
            return self
        return LinearForm({k: c * v for k, v in self.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, dict):
            return dict.__eq__(self, other)
        return not self and other == 0

    def __ne__(self, other):
        return not self == other


def generic_vector(n):
    """The forms {0: 1}, ..., {n-1: 1}: coordinates of a generic vector."""
    return [LinearForm({i: 1}) for i in range(n)]


def form_rows(forms, ncols):
    """The forms as the dense rows of a len(forms) x ncols matrix."""
    rows = [[0] * ncols for _ in forms]
    for row, f in zip(rows, forms):
        if f:
            for k, v in f.items():
                row[k] = v
    return rows


def form_columns(forms, ncols):
    """The matrix whose rows are `forms`, as a list of its ncols columns."""
    cols = [[0] * len(forms) for _ in range(ncols)]
    for r, f in enumerate(forms):
        if f:
            for k, v in f.items():
                cols[k][r] = v
    return cols


def _integral(row):
    """row, a dict of nonzero ints and Fractions, times the lcm of its
    denominators: a dict of ints, with the same support and signs."""
    for v in row.values():
        if type(v) is not int:
            den = lcm(*(v.denominator for v in row.values()))
            return {k: v.numerator * (den // v.denominator)
                    for k, v in row.items()}
    return dict(row)


def _distinct_forms(forms):
    """The distinct nonzero forms, each taken up to a nonzero scalar: as
    sorted (index, value) tuples of the integer multiple whose entries are
    coprime and whose first entry is positive.  They span the same row space
    as all of `forms`."""
    seen = {}
    for f in forms:
        if f:
            items = sorted(_integral(f).items())
            g = gcd(*(v for _, v in items))
            if items[0][1] < 0:
                g = -g
            if g != 1:
                items = [(k, v // g) for k, v in items]
            seen.setdefault(tuple(items), None)
    return list(seen)


# ---------------------------------------------------------------------------
# sparse exact elimination

def _sparse(v):
    """The nonzero coordinates of a dense vector, as {index: value}."""
    return {k: x for k, x in enumerate(v) if x}


def _clear(row, c, pivot):
    """row with column c cleared by pivot, an int dict with a positive entry
    (its lead) at c: (lead * row - row[c] * pivot) / gcd(lead, row[c]),
    written into row unless it is scaled first."""
    lead, x = pivot[c], row[c]
    g = gcd(x, lead)
    if g != lead:
        a = lead // g
        row = {k: a * v for k, v in row.items()}
    x //= g
    for k, y in pivot.items():
        w = row.get(k, 0) - x * y
        if w:
            row[k] = w
        else:
            del row[k]
    return row


class Echelon:
    """The fully reduced row echelon form of a growing row space over Q,
    held in integers.

    rows maps each pivot column to its row: a dict column -> nonzero int
    whose leftmost column is the pivot, with a positive entry (the lead)
    there, no entry in any other pivot column, and coprime entries.  That is
    the row of the reduced form over Q, with 1 at the pivot, times the one
    positive rational that makes it so.  A row space has exactly one reduced
    form, so the kernel bases, solutions and ranks read from it do not
    depend on the order in which its rows were added.  Rows are reduced
    fraction-free, lead * row - x * pivot row (both divided by gcd(lead,
    x)), and a stored row is divided by the gcd of its entries, so no
    Fraction is made until a vector leaves the echelon (`kernel`, `solve`).
    Rows are dicts, so LinearForms go in as they are, and elimination
    touches nonzero entries only.
    """
    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows = {}
        for row in rows:
            self.add(row)

    def __len__(self):
        return len(self.rows)

    def reduce(self, row) -> dict:
        """A positive integer multiple of what is left of row after
        subtracting its part in the row space; empty exactly when row lies
        in it."""
        out = _integral(row)
        rows = self.rows
        # a pivot row has no other pivot column, so clearing one pivot
        # column only scales row's entries in the others: the columns to
        # clear are those of the pivots that row meets at first
        for c in [c for c in out if c in rows]:
            out = _clear(out, c, rows[c])
        return out

    def add(self, row) -> bool:
        """Add row to the row space; whether it enlarged it (a new pivot)."""
        r = self.reduce(row)
        if not r:
            return False
        c = min(r)
        g = gcd(*r.values())
        if r[c] < 0:
            g = -g
        if g != 1:
            r = {k: v // g for k, v in r.items()}
        # clear the new pivot column from the older rows; r has no entry in
        # their pivot columns, so their leads keep their sign
        rows = self.rows
        for pc in [pc for pc, p in rows.items() if c in p]:
            p = _clear(rows[pc], c, r)
            if p[pc] != 1:  # a lead of 1 has no common factor to divide
                g = gcd(*p.values())
                if g != 1:
                    p = {k: v // g for k, v in p.items()}
            rows[pc] = p
        rows[c] = r
        return True

    def kernel(self, ncols):
        """Basis of the vectors of length ncols that every row kills, one
        per free (non-pivot) column c in order: 1 at c, 0 at the other free
        columns."""
        free = {}
        for c in range(ncols):
            if c not in self.rows:
                free[c] = v = [Fraction(0)] * ncols
                v[c] = Fraction(1)
        for pc, row in self.rows.items():
            lead = row[pc]
            for k, y in row.items():
                if k != pc:
                    free[k][pc] = Fraction(-y, lead)
        return list(free.values())


def rank(m) -> int:
    return len(Echelon(map(_sparse, m)))


def nullspace_basis(m, ncols):
    """Basis of {v : m v = 0} for an (any) x ncols matrix, one vector per
    free column; a matrix without rows has the whole domain as kernel."""
    if any(len(row) != ncols for row in m):
        raise PreconditionError("nullspace_basis: rows must have %d entries"
                                % ncols)
    return Echelon(map(_sparse, m)).kernel(ncols)


def form_kernel(forms, ncols):
    """Kernel of the matrix whose rows are the linear forms `forms`.

    Only the distinct nonzero forms, each up to a nonzero scalar, are
    eliminated.  They span the same row space, whose reduced echelon form is
    unique, so the basis equals that of the full matrix.
    """
    # shortest rows first: they add the least fill to the echelon
    rows = sorted(_distinct_forms(forms), key=len)
    return Echelon(map(dict, rows)).kernel(ncols)


def solve(m, b):
    """Some x with m x = b, or None when inconsistent: the solution that
    vanishes at every free column."""
    if len(b) != len(m):
        raise PreconditionError("solve: b.dim (%d) != rows (%d)" % (len(b), len(m)))
    if not m:
        return []
    ncols = len(m[0])
    ech = Echelon()
    for row, bv in zip(m, b):
        aug = _sparse(row)
        if bv:
            aug[ncols] = bv
        ech.add(aug)
    if ncols in ech.rows:
        return None
    x = [Fraction(0)] * ncols
    for pc, row in ech.rows.items():
        x[pc] = Fraction(row.get(ncols, 0), row[pc])
    return x


def in_span(basis_rref, pivots, v):
    """Whether v lies in the row space of the reduced echelon rows
    basis_rref, whose pivot columns are pivots (the rows imply them)."""
    return not Echelon(map(_sparse, basis_rref)).reduce(_sparse(v))


def quotient_dim(z_basis, b_basis) -> int:
    """dim span(z) - dim span(b); every b vector must lie in span(z)."""
    z = Echelon(map(_sparse, z_basis))
    for k, v in enumerate(b_basis):
        if z.reduce(_sparse(v)):
            raise ContainmentError("vector %d of b_basis is outside span(z_basis)" % k)
    return len(z) - rank(b_basis)


def quotient_representatives(z_basis, b_basis):
    """Vectors of z_basis that extend span(b_basis) to span(z_basis).

    Deterministic: z_basis vectors are taken in order (lexicographically
    earliest pivots first when z_basis comes from nullspace_basis), and each
    one that leaves a nonzero remainder joins the growing echelon.
    """
    ech = Echelon(map(_sparse, b_basis))
    return [v for v in z_basis if ech.add(_sparse(v))]


def quotient(z_basis, b_basis):
    """(quotient_dim(z_basis, b_basis), quotient_representatives(z_basis,
    b_basis)) from one elimination: the echelon of b_basis extended by the
    vectors of z_basis.

    z vectors whose last nonzero columns differ are independent, as a kernel
    basis is (its vector for free column c ends at c).  b then lies in
    span(z) exactly when the extended echelon has rank len(z_basis), and the
    quotient has the dimension of the representatives.  Any other z_basis,
    and a b vector outside span(z), go to quotient_dim, which gives the
    dimension or raises its ContainmentError.
    """
    z = [_sparse(v) for v in z_basis]
    ech = Echelon(map(_sparse, b_basis))
    reps = [v for v, s in zip(z_basis, z) if ech.add(s)]
    if len(ech) == len(z) == len({max(s) for s in z if s}):
        return len(reps), reps
    return quotient_dim(z_basis, b_basis), reps
