"""Exact dense linear algebra over the rationals.

Scalars are Python ints or fractions.Fraction (they interoperate exactly);
matrices are sequences of rows, vectors are flat sequences.  Everything is
computed by exact Gaussian elimination, so all results are exact.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import ContainmentError, PreconditionError


# ---------------------------------------------------------------------------
# vector / matrix helpers

def zero_vec(n):
    return [0] * n


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(c, u):
    return [c * a for a in u]


def vec_neg(u):
    return [-a for a in u]


def is_zero(u) -> bool:
    return not any(u)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def mat_vec(m, v):
    out = []
    for row in m:
        s = 0
        for a, b in zip(row, v):
            if a and b:
                s += a * b
        out.append(s)
    return out


def mat_mul(a, b):
    """a b, skipping zero entries of both factors as mat_vec does."""
    ncols = len(b[0]) if b else 0
    support = [[(k, y) for k, y in enumerate(brow) if y] for brow in b]
    out = []
    for row in a:
        orow = [0] * ncols
        for x, sup in zip(row, support):
            if x:
                for k, y in sup:
                    orow[k] += x * y
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


def mat_scale(c, a):
    return [vec_scale(c, r) for r in a]


def contract(table, *vecs):
    """Value at vecs of the multilinear map with structure constants table.

    table is a nested list: table[i1]...[ik] is the value at the basis tuple
    (e_i1, ..., e_ik), a vector or a matrix (a list of rows).  The result
    has the same shape, also when every coefficient vanishes; only a table
    without entries (a zero-dimensional argument space) gives [].  Zero
    coefficients and zero table entries are skipped, so each argument costs
    only its support.  Entries may be scalars or LinearForms.
    """
    # (coefficient, sub-table) for every nonzero product of coordinates;
    # plain loops with a counter are the fastest form on CPython 3.11
    terms = [(1, table)]
    for v in vecs:
        nxt = []
        for c, sub in terms:
            i = 0
            for x in v:
                if x:
                    nxt.append((c * x, sub[i]))
                i += 1
        terms = nxt
    if terms:
        leaf = terms[0][1]
    else:
        leaf = table
        for _ in vecs:
            leaf = leaf[0] if leaf else []
    if leaf and type(leaf[0]) is list:
        out = []
        for a in range(len(leaf)):
            orow = [0] * len(leaf[a])
            for c, m in terms:
                j = 0
                for x in m[a]:
                    if x:
                        orow[j] += c * x
                    j += 1
            out.append(orow)
        return out
    out = [0] * len(leaf)
    for c, v in terms:
        k = 0
        for x in v:
            if x:
                out[k] += c * x
            k += 1
    return out


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


def distinct_rows(forms, ncols):
    """Dense rows of the distinct nonzero forms, each taken up to a nonzero
    scalar; they span the same row space as all of `forms`."""
    seen = {}
    for f in forms:
        if f:
            items = sorted(f.items())
            lead = Fraction(items[0][1])
            seen.setdefault(tuple((k, v / lead) for k, v in items), None)
    rows = []
    for key in seen:
        row = [0] * ncols
        for k, v in key:
            row[k] = v
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# elimination kernel

def _rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(m) -> int:
    return len(_rref(m)[0])


def nullspace_basis(m, ncols):
    """Basis of {v : m v = 0} for an (any) x ncols matrix, one vector per
    free column; a matrix without rows has the whole domain as kernel."""
    if any(len(row) != ncols for row in m):
        raise PreconditionError("nullspace_basis: rows must have %d entries"
                                % ncols)
    red, pivots = _rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def form_kernel(forms, ncols):
    """Kernel of the matrix whose rows are the linear forms `forms`.

    Only the distinct nonzero rows, each up to a nonzero scalar, are
    eliminated.  They span the same row space, whose reduced echelon form is
    unique, so the basis equals that of the full matrix.
    """
    return nullspace_basis(distinct_rows(forms, ncols), ncols)


def solve(m, b):
    """Some x with m x = b, or None when inconsistent."""
    if len(b) != len(m):
        raise PreconditionError("solve: b.dim (%d) != rows (%d)" % (len(b), len(m)))
    if not m:
        return []
    ncols = len(m[0])
    aug = [list(row) + [bv] for row, bv in zip(m, b)]
    red, pivots = _rref(aug)
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def in_span(basis_rref, pivots, v):
    """Whether v lies in the row space described by (rref rows, pivot cols)."""
    v = [Fraction(x) for x in v]
    for row, pc in zip(basis_rref, pivots):
        if v[pc]:
            f = v[pc]
            v = [x - f * y for x, y in zip(v, row)]
    return not any(v)


def quotient_dim(z_basis, b_basis) -> int:
    """dim span(z) - dim span(b); every b vector must lie in span(z)."""
    z_red, z_piv = _rref(z_basis)
    for k, v in enumerate(b_basis):
        if not in_span(z_red, z_piv, v):
            raise ContainmentError("vector %d of b_basis is outside span(z_basis)" % k)
    return len(z_red) - rank(b_basis)


def quotient_representatives(z_basis, b_basis):
    """Vectors of z_basis that extend span(b_basis) to span(z_basis).

    Deterministic: z_basis vectors are taken in order (lexicographically
    earliest pivots first when z_basis comes from nullspace_basis).
    """
    rows = [[Fraction(x) for x in v] for v in b_basis]
    red, piv = _rref(rows)
    reps = []
    for v in z_basis:
        if not in_span(red, piv, v):
            reps.append(v)
            red, piv = _rref(red + [list(v)])
    return reps
