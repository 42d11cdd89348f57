"""JSON persistence for every object kind.

Every structure tensor -- the algebra's brackets, the representation, the
(2,3)-cocycle, the family T_alpha, the four operations of a splitting family
and the brackets of an indexed algebra -- is a nested list of scalars, and
all of them share one file format: a list of [i_1, ..., i_k, value] entries,
one for each nonzero scalar, in lexicographic index order.  tensor_entries
writes the list and tensor_from_entries reads it back, checking every entry
(sparse_entries).  Scalars are the strings "p/q" ("p" when the denominator
is 1).  An algebra file lists only the i < j half of its tensors, which are
skew in (i, j); the mirror is filled on load.  A cochain entry is
[alphas, args, coeff, value]; a pair-degree cochain lists its full table,
whose entries must agree with their mirrors before it is read in.
Component fields of a bundle may be given inline or as a string, which is
read as a path relative to the bundle file.
"""
from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from math import prod

from .errors import MalformedInputError
from .linalg import vec_add, zero_vec, zeros
from .ly import Cocycle23, LYAlgebra, Representation
from .nsfamily import NSFamilyAlgebra
from .omega import (CochainFamily, OmegaLYAlgebra, SkewBasis, cochain_build,
                    cochain_full_table, ensure_budget)
from .rbfamily import TwistedRBContext
from .report import Report
from .semigroup import FiniteCommutativeSemigroup


def dump_scalar(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


# Fraction expands an exponent in full, so "1e999999999" would take hours
_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(\d+(_\d+)*)?)?"
                       r"e[-+]?\d+(_\d+)*\s*", re.IGNORECASE)


_INT = re.compile(r"[-+]?[0-9]+")


def parse_scalar(s):
    """The int or Fraction that a JSON string such as "-3" or "1/2" holds.
    Any other string, and a JSON number, bool or null, is malformed input.
    An ASCII integer string is read by int, which gives Fraction's value."""
    try:
        if type(s) is not str:
            raise ValueError("scalars are strings")
        if _INT.fullmatch(s):
            return int(s)
        if _EXPONENT.fullmatch(s):
            raise ValueError("exponents are refused")
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError("bad rational %r: %s" % (s, exc))
    return f.numerator if f.denominator == 1 else f


def _require(cond, msg):
    if not cond:
        raise MalformedInputError(msg)


def header_int(d, key, what):
    """The dimension or order d[key] of a JSON header: present, a JSON
    integer and >= 0.  Anything else is malformed input."""
    _require(isinstance(d, dict) and key in d,
             "%s JSON needs %s" % (what, key))
    v = d[key]
    _require(type(v) is int and v >= 0,
             "%s %s must be an integer >= 0: %r" % (what, key, v))
    return v


def sparse_entries(entries, what, fields, dims):
    """Checked [i_1, ..., i_k, value] entries of a sparse tensor.

    Yields (index tuple, scalar) with 0 <= i_t < dims[t]; `fields` names the
    indices in messages.  Any other entry is malformed input.
    """
    _require(isinstance(entries, list), "%s entries must be a list" % what)
    for ent in entries:
        if not (isinstance(ent, list) and len(ent) == len(dims) + 1):
            raise MalformedInputError(
                "%s entries are [%s,value]: %r" % (what, fields, ent))
        idx = tuple(ent[:-1])
        if not all(type(i) is int for i in idx):
            raise MalformedInputError(
                "%s entry has a non-integer index: %r" % (what, ent))
        if not all(0 <= i < n for i, n in zip(idx, dims)):
            raise MalformedInputError("%s entry out of range: %r" % (what, ent))
        yield idx, parse_scalar(ent[-1])


def tensor_entries(t) -> list:
    """[i_1, ..., i_k, value] for each nonzero scalar t[i_1]...[i_k] of the
    nested list t, in lexicographic index order, with the value written by
    dump_scalar."""
    # one level of (prefix, sub-table) pairs at a time, down to the vectors
    level = [((), t)]
    while level and level[0][1] and isinstance(level[0][1][0], (list, tuple)):
        level = [(p + (i,), x) for p, sub in level for i, x in enumerate(sub)]
    return [[*p, i, dump_scalar(v)] for p, vec in level if any(vec)
            for i, v in enumerate(vec) if v]


def _filled(dims, entries, what):
    """The zero table of shape dims with the scalar of each (index tuple,
    scalar) of entries put in place, in order.  Its entry count is charged
    to the budget before it is allocated; what names the table."""
    ensure_budget(prod(dims), "the %s table (%s)" % (
        what, " x ".join(map(str, dims))))
    t = zeros(*dims)
    for idx, v in entries:
        row = t
        for i in idx[:-1]:
            row = row[i]
        row[idx[-1]] = v
    return t


def tensor_from_entries(entries, what, fields, dims) -> list:
    """The table of shape dims listed by the sparse entries of a file;
    what and fields name the tensor and its indices in messages."""
    return _filled(dims, sparse_entries(entries, what, fields, dims), what)


def bilinear_from_json(d: dict) -> list:
    """{"kind": "bilinear", "dim": n, "entries": [[i, j, k, value]]}."""
    n = header_int(d, "dim", "bilinear")
    return tensor_from_entries(d.get("entries", []), "bilinear", "i,j,k",
                               (n, n, n))


# ---------------------------------------------------------------------------
# semigroups

def semigroup_to_json(s: FiniteCommutativeSemigroup) -> dict:
    out = {"kind": "semigroup", "order": s.order,
           "table": [list(r) for r in s.table]}
    if s.unit is not None:
        out["unit"] = s.unit
    if s.names is not None:
        out["names"] = list(s.names)
    return out


def semigroup_from_json(d: dict) -> FiniteCommutativeSemigroup:
    _require(isinstance(d, dict) and "table" in d,
             "semigroup JSON needs table")
    order, table, names = header_int(d, "order", "semigroup"), d["table"], \
        d.get("names")
    _require(isinstance(table, list) and all(isinstance(r, list) for r in table),
             "semigroup table must be a list of lists")
    _require(names is None or isinstance(names, list),
             "semigroup names must be a list")
    return FiniteCommutativeSemigroup(order=order, table=table, unit=d.get("unit"),
                                      names=None if names is None else tuple(names))


# ---------------------------------------------------------------------------
# algebras (skew-half sparse storage)

def ly_to_json(A: LYAlgebra) -> dict:
    bad = A.invariant_report()
    if not bad.ok:
        raise MalformedInputError("algebra tensors are not skew; refusing to "
                                  "store the half-tensor format")
    return {"kind": "ly", "dim": A.dim,
            "binary": [e for e in tensor_entries(A.binary) if e[0] < e[1]],
            "ternary": [e for e in tensor_entries(A.ternary) if e[0] < e[1]]}


def _mirrored(entries, what):
    """The checked entries of the i <= j half of a tensor skew in (i, j),
    each followed by its mirror at (j, i) with the opposite sign."""
    for idx, v in entries:
        if idx[0] > idx[1]:
            raise MalformedInputError(
                "%s entry not in the i<=j half: %r" % (what, list(idx)))
        yield idx, v
        if idx[0] != idx[1]:
            yield (idx[1], idx[0]) + idx[2:], -v


def ly_from_json(d: dict) -> LYAlgebra:
    n = header_int(d, "dim", "algebra")

    def half(key, fields, k):
        dims = (n,) * k
        return _filled(dims, _mirrored(
            sparse_entries(d.get(key, []), key, fields, dims), key), key)

    return LYAlgebra(n, half("binary", "i,j,k", 3),
                     half("ternary", "i,j,k,l", 4))


# ---------------------------------------------------------------------------
# representations and cocycles (full sparse storage)

def representation_to_json(r: Representation, algebra_dim: int) -> dict:
    return {"kind": "representation", "space_dim": r.space_dim,
            "algebra_dim": algebra_dim, "rho": tensor_entries(r.rho),
            "theta": tensor_entries(r.theta)}


def representation_from_json(d: dict) -> Representation:
    m = header_int(d, "space_dim", "representation")
    n = header_int(d, "algebra_dim", "representation")
    return Representation(
        m, tensor_from_entries(d.get("rho", []), "rho", "i,row,col", (n, m, m)),
        tensor_from_entries(d.get("theta", []), "theta", "i,j,row,col",
                            (n, n, m, m)))


def cocycle_to_json(c: Cocycle23, algebra_dim: int, space_dim: int) -> dict:
    return {"kind": "cocycle", "algebra_dim": algebra_dim,
            "space_dim": space_dim, "gamma1": tensor_entries(c.gamma1),
            "gamma2": tensor_entries(c.gamma2)}


def cocycle_from_json(d: dict) -> Cocycle23:
    n = header_int(d, "algebra_dim", "cocycle")
    m = header_int(d, "space_dim", "cocycle")
    return Cocycle23(
        tensor_from_entries(d.get("gamma1", []), "gamma1", "i,j,k", (n, n, m)),
        tensor_from_entries(d.get("gamma2", []), "gamma2", "i,j,k,l",
                            (n, n, n, m)))


# ---------------------------------------------------------------------------
# contexts

def context_to_json(ctx: TwistedRBContext) -> dict:
    return {
        "kind": "context",
        "algebra": ly_to_json(ctx.algebra),
        "representation": representation_to_json(ctx.rep, ctx.dimL),
        "cocycle": cocycle_to_json(ctx.cocycle, ctx.dimL, ctx.dimV),
        "semigroup": semigroup_to_json(ctx.semigroup),
        "family": tensor_entries(ctx.family),
    }


def context_from_json(d: dict, base_dir: str = ".") -> TwistedRBContext:
    _require(isinstance(d, dict), "context JSON must be an object")

    def comp(key):
        v = d.get(key)
        _require(v is not None, "context JSON needs %r" % key)
        if isinstance(v, str):
            return load_json(os.path.join(base_dir, v))
        return v

    A = ly_from_json(comp("algebra"))
    r = representation_from_json(comp("representation"))
    c = cocycle_from_json(comp("cocycle"))
    s = semigroup_from_json(comp("semigroup"))
    fam = tensor_from_entries(d.get("family", []), "family", "alpha,row,col",
                              (s.order, A.dim, r.space_dim))
    return TwistedRBContext(A, r, c, s, fam)


# ---------------------------------------------------------------------------
# splitting-family algebras

def ns_family_to_json(N: NSFamilyAlgebra) -> dict:
    return {"kind": "ns-family", "dim": N.dim,
            "semigroup": semigroup_to_json(N.semigroup),
            "bullet": tensor_entries(N.bullet), "vee": tensor_entries(N.vee),
            "curly": tensor_entries(N.ternary_curly),
            "square": tensor_entries(N.ternary_square)}


def ns_family_from_json(d: dict) -> NSFamilyAlgebra:
    n = header_int(d, "dim", "splitting-family")
    _require("semigroup" in d, "splitting-family JSON needs semigroup")
    s = semigroup_from_json(d["semigroup"])
    M = s.order
    ops = [tensor_from_entries(d.get(key, []), key, fields, dims)
           for key, fields, dims in (
               ("bullet", "alpha,i,j,k", (M, n, n, n)),
               ("vee", "alpha,beta,i,j,k", (M, M, n, n, n)),
               ("curly", "beta,gamma,i,j,k,l", (M, M, n, n, n, n)),
               ("square", "alpha,beta,gamma,i,j,k,l", (M, M, M, n, n, n, n)))]
    return NSFamilyAlgebra(n, s, *ops)


# ---------------------------------------------------------------------------
# indexed algebras

def omega_ly_to_json(O: OmegaLYAlgebra) -> dict:
    return {"kind": "omega-ly", "dim": O.dim,
            "semigroup": semigroup_to_json(O.semigroup),
            "binary": tensor_entries(O.binary),
            "ternary": tensor_entries(O.ternary)}


def omega_ly_from_json(d: dict) -> OmegaLYAlgebra:
    n = header_int(d, "dim", "indexed-algebra")
    _require("semigroup" in d, "indexed-algebra JSON needs semigroup")
    s = semigroup_from_json(d["semigroup"])
    M = s.order
    return OmegaLYAlgebra(
        dim=n, semigroup=s,
        binary=tensor_from_entries(d.get("binary", []), "binary",
                                   "alpha,beta,i,j,k", (M, M, n, n, n)),
        ternary=tensor_from_entries(d.get("ternary", []), "ternary",
                                    "alpha,beta,gamma,i,j,k,l",
                                    (M, M, M, n, n, n, n)))


# ---------------------------------------------------------------------------
# cochains and deformation directions

def cochain_to_json(c: CochainFamily) -> dict:
    if c.degree == 1:
        entries = [[[a], [col], row, v]
                   for a, row, col, v in tensor_entries(c.even)]
        degree = 1
    else:
        entries = [[list(alphas), list(idxs), co, dump_scalar(v)]
                   for alphas, idxs, vec in cochain_full_table(c)
                   for co, v in enumerate(vec) if v]
        degree = list(c.degree)
    return {"kind": "cochain", "degree": degree, "dim_alg": c.dim_alg,
            "dim_coeff": c.dim_coeff,
            "semigroup": semigroup_to_json(c.semigroup), "entries": entries}


def _read_cochain(d: dict):
    """(semigroup, degree, dim_alg, dim_coeff, tables, skew report) of a
    cochain file: tables maps each listed (alphas, args) to the vector it
    gives there, with 0 at the coefficients not listed.  The report has, at
    each of the first k // 2 slot pairs of a (k, k+1)-cochain in turn, for
    the even component and then the odd one, every tuple whose value plus
    the value at the tuple with that pair swapped is not 0, in the order of
    the tuples."""
    _require(isinstance(d, dict) and "degree" in d and "semigroup" in d,
             "cochain JSON needs degree and semigroup")
    degree = d["degree"]
    if not (type(degree) is int and degree == 1):
        _require(isinstance(degree, list) and len(degree) == 2
                 and all(type(k) is int for k in degree)
                 and degree[0] >= 1 and degree[1] == degree[0] + 1,
                 "cochain degree must be 1 or [k, k+1] with k >= 1: %r"
                 % (degree,))
        degree = tuple(degree)
    dim_alg = header_int(d, "dim_alg", "cochain")
    dim_coeff = header_int(d, "dim_coeff", "cochain")
    s = semigroup_from_json(d["semigroup"])
    # every coordinate the cochain stores, before a vector is allocated
    ensure_budget(SkewBasis(degree, s, dim_alg, dim_coeff).size,
                  "the cochain of degree %s" % (degree,))
    arities = (1,) if degree == 1 else degree
    entries = d.get("entries", [])
    _require(isinstance(entries, list), "cochain entries must be a list")
    tables = {}
    for ent in entries:
        if not (isinstance(ent, list) and len(ent) == 4
                and isinstance(ent[0], list) and isinstance(ent[1], list)
                and len(ent[0]) == len(ent[1]) and len(ent[0]) in arities):
            raise MalformedInputError(
                "cochain entries are [alphas,args,coeff,value] with the "
                "arity of the degree: %r" % (ent,))
        k = len(ent[0])
        (idx, v), = sparse_entries([ent[0] + ent[1] + ent[2:]], "cochain",
                                   "alphas,args,coeff",
                                   (s.order,) * k + (dim_alg,) * k
                                   + (dim_coeff,))
        tables.setdefault((idx[:k], idx[k:2 * k]), zero_vec(dim_coeff))[
            idx[-1]] = v

    def swapped(key, p):
        al, xs = list(key[0]), list(key[1])
        al[p], al[p + 1], xs[p], xs[p + 1] = al[p + 1], al[p], xs[p + 1], xs[p]
        return tuple(al), tuple(xs)

    rep, zero = Report(), zero_vec(dim_coeff)
    npairs = 0 if degree == 1 else degree[0] // 2
    for p in range(0, 2 * npairs, 2):
        for part, k in zip(("even", "odd"), degree):
            keys = {key for key in tables if len(key[0]) == k}
            for key in sorted(keys | {swapped(key, p) for key in keys}):
                r = vec_add(tables.get(key, zero),
                            tables.get(swapped(key, p), zero))
                if any(r):
                    rep.add("invariant:cochain-skew-" + part, (p,) + key, r)
    return s, degree, dim_alg, dim_coeff, tables, rep


def cochain_skew_report(d: dict) -> Report:
    """Pairwise skewness of the full table a cochain file lists (degree 1
    is unconstrained)."""
    return _read_cochain(d)[-1]


def cochain_from_json(d: dict) -> CochainFamily:
    """The cochain of a file.  A pair-degree file must be skew
    (cochain_skew_report); only its canonical entries are kept, since the
    others follow from them."""
    s, degree, dim_alg, dim_coeff, tables, bad = _read_cochain(d)
    bad.require("the cochain is not skew: {first}")
    if degree == 1:
        return CochainFamily(s, dim_alg, dim_coeff, 1, _filled(
            (s.order, dim_coeff, dim_alg),
            (((a, row, col), v) for ((a,), (col,)), vec in tables.items()
             for row, v in enumerate(vec)), "cochain"))

    def value(alphas, idxs):
        return tables.get((tuple(alphas), tuple(idxs))) or zero_vec(dim_coeff)

    return cochain_build(s, dim_alg, dim_coeff, degree, value, value)


def direction_to_json(family) -> dict:
    return {"kind": "direction", "order": len(family),
            "dim_l": len(family[0]) if family else 0,
            "dim_v": len(family[0][0]) if family and family[0] else 0,
            "family": tensor_entries(family)}


def direction_from_json(d: dict) -> list:
    _require(isinstance(d, dict) and "family" in d, "direction JSON needs family")
    return tensor_from_entries(
        d["family"], "family", "alpha,row,col",
        (header_int(d, "order", "direction"),
         header_int(d, "dim_l", "direction"),
         header_int(d, "dim_v", "direction")))


# ---------------------------------------------------------------------------
# files

KIND_LOADERS = {
    "bilinear": bilinear_from_json,
    "semigroup": semigroup_from_json,
    "ly": ly_from_json,
    "representation": representation_from_json,
    "cocycle": cocycle_from_json,
    "context": context_from_json,
    "ns-family": ns_family_from_json,
    "omega-ly": omega_ly_from_json,
    "cochain": cochain_from_json,
    "direction": direction_from_json,
}


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInputError("cannot read %s: %s" % (path, exc))


def load_kind(path: str, kind: str) -> dict:
    """The JSON of a file read as kind; a file that declares another kind
    is malformed input."""
    d = load_json(path)
    _require(kind in KIND_LOADERS, "unknown kind %r" % kind)
    if isinstance(d, dict) and "kind" in d and d["kind"] != kind:
        raise MalformedInputError(
            "file %s declares kind %r, expected %r" % (path, d["kind"], kind))
    return d


def load_object(path: str, kind: str):
    d = load_kind(path, kind)
    if kind == "context":
        return context_from_json(d, base_dir=os.path.dirname(path) or ".")
    return KIND_LOADERS[kind](d)


def save_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
