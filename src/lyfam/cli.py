"""Command-line front end.

Verbs: validate, construct, check-rbf, cohomology, deform.  Exit codes:
0 for a clean run, 1 for domain violations (failed laws, precondition or
budget errors), 2 for malformed input.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache

from . import serialize
from .cohomology import (DeformationDirection, RBFComplex, cohomology_H1,
                         cohomology_H23, deformation_equivalence_witness,
                         infinitesimal_report)
from .errors import LyfamError, MalformedInputError, PreconditionError
from .ly import (adjoint_representation, check_cocycle23, check_ly_axioms,
                 check_representation, gamma_ad, ly_from_leibniz, ly_from_lie,
                 ly_tensor_semigroup)
from .nsfamily import (check_ns_family_axioms, ns_from_twisted_rb,
                       ns_tensor_semigroup)
from .omega import (check_omega_ly_axioms, omega_ly_from_ns_family,
                    omega_cohomology_dims)
from .rbfamily import (bar_operator, check_twisted_rb_family,
                       identity_family, nijenhuis_induced_context,
                       semidirect_product)
from .semigroup import validate_semigroup


def _emit(args, status, summary, payload=None):
    """Print one CommandResult; returns its exit code."""
    if args.json:
        out = {"status": status, "summary": summary}
        if payload is not None:
            out["payload"] = payload
        print(json.dumps(out, indent=1))
    else:
        print(summary)
        if payload is not None and status != "ok":
            print(json.dumps(payload, indent=1))
    return {"ok": 0, "violations": 1, "error": 2}[status]


# ---------------------------------------------------------------------------
# validate and check-rbf

def _verdict(args, rep, ok_summary):
    """The result of a report on args.path: ok if it is None or empty."""
    if rep is None or rep.ok:
        return _emit(args, "ok", ok_summary)
    return _emit(args, "violations", "%s: %d violation(s) in laws %s" % (
        args.path, len(rep.violations), sorted(rep.laws())), rep.to_json())


def _validate_object(path, kind):
    """Load and fully check one file; returns a checker report (or None)."""
    if kind == "cochain":
        # a file that is not skew holds no cochain: check its entries
        return serialize.cochain_skew_report(serialize.load_kind(path, kind))
    obj = serialize.load_object(path, kind)
    if kind == "semigroup":
        return validate_semigroup(obj)
    if kind == "ly":
        return check_ly_axioms(obj)
    if kind == "context":
        return obj.validate()
    if kind == "ns-family":
        return check_ns_family_axioms(obj)
    if kind == "omega-ly":
        # the laws leave skewness to the invariant report
        rep = obj.invariant_report()
        rep.extend(check_omega_ly_axioms(obj))
        return rep
    # the other kinds carry no laws of their own: the parse is the check
    return None


def cmd_validate(args):
    return _verdict(args, _validate_object(args.path, args.kind),
                    "%s: ok (%s)" % (args.path, args.kind))


def cmd_check_rbf(args):
    ctx = serialize.load_object(args.path, "context")
    rep = ctx.validate()
    rep.extend(check_twisted_rb_family(ctx))
    return _verdict(args, rep, "%s: twisted family equations hold" % args.path)


# ---------------------------------------------------------------------------
# construct

def _checked(report, what):
    if not report.ok:
        raise PreconditionError(
            "%s fails re-verification: %s" % (what, sorted(report.laws())))


def _ly(A, what=None):
    """An algebra output, re-verified as what unless that is None (as after
    ly_from_leibniz, which checks its output itself)."""
    if what is not None:
        _checked(check_ly_axioms(A), what)
    return serialize.ly_to_json(A), "algebra of dim %d" % A.dim


def _context(ctx, what):
    """A context output, its data and then its family laws re-verified."""
    _checked(ctx.validate(), "context data")
    _checked(check_twisted_rb_family(ctx), what)
    return serialize.context_to_json(ctx), "context (dims %d, %d)" % (
        ctx.dimL, ctx.dimV)


def _ns_family(N, what, name):
    _checked(check_ns_family_axioms(N), what)
    return serialize.ns_family_to_json(N), "%s of dim %d" % (name, N.dim)


def _adjoint(A):
    r = adjoint_representation(A)
    _checked(check_representation(A, r), "adjoint representation")
    return (serialize.representation_to_json(r, A.dim),
            "representation on dim %d" % r.space_dim)


def _gamma_ad(A):
    c = gamma_ad(A)
    _checked(check_cocycle23(A, adjoint_representation(A), c), "adjoint twist")
    return (serialize.cocycle_to_json(c, A.dim, A.dim),
            "cocycle pair on dim %d" % A.dim)


def _omega_from_ns(N):
    O = omega_ly_from_ns_family(N)
    _checked(check_omega_ly_axioms(O), "indexed algebra")
    return serialize.omega_ly_to_json(O), "indexed algebra of dim %d" % O.dim


def _semidirect(A, r, c):
    _checked(check_representation(A, r), "representation input")
    _checked(check_cocycle23(A, r, c), "cocycle input")
    return _ly(semidirect_product(A, r, c), "semidirect algebra")


RECIPES = {
    "ly-from-lie": ("bilinear", lambda b: _ly(ly_from_lie(b),
                                              "constructed algebra")),
    "ly-from-leibniz": ("bilinear", lambda b: _ly(ly_from_leibniz(b))),
    "tensor-semigroup": ("ly semigroup", lambda A, s: _ly(
        ly_tensor_semigroup(A, s), "tensor algebra")),
    "adjoint": ("ly", _adjoint),
    "gamma-ad": ("ly", _gamma_ad),
    "identity-family": ("ly semigroup", lambda A, s: _context(
        identity_family(A, s), "identity family")),
    "nijenhuis-context": ("ly semigroup direction", lambda A, s, N: _context(
        nijenhuis_induced_context(A, s, N), "induced family")),
    "ns-from-rbf": ("context", lambda ctx: _ns_family(
        ns_from_twisted_rb(ctx), "splitting family", "splitting family")),
    "ns-tensor": ("ns-family", lambda N: _ns_family(
        ns_tensor_semigroup(N), "tensor algebra", "algebra")),
    "omega-from-ns": ("ns-family", _omega_from_ns),
    "semidirect": ("ly representation cocycle", _semidirect),
    "bar-operator": ("context", lambda ctx: _context(
        bar_operator(ctx), "collapsed operator")),
}
"""Each `construct` recipe, in the order of its choices: the serialize
kinds of its input files, in order and separated by spaces, and the
function that takes the loaded inputs, builds the output, re-verifies it
and returns (payload, summary)."""


def cmd_construct(args):
    """Load the inputs of the recipe as their kinds, build and re-verify its
    output, and write that."""
    kinds, build = RECIPES[args.recipe][0].split(), RECIPES[args.recipe][1]
    if len(args.inputs) != len(kinds):
        raise MalformedInputError("recipe %r takes %d input file(s), got %d" %
                                  (args.recipe, len(kinds), len(args.inputs)))
    payload, what = build(*map(serialize.load_object, args.inputs, kinds))
    serialize.save_json(args.output, payload)
    return _emit(args, "ok", "wrote %s: %s" % (args.output, what))


# ---------------------------------------------------------------------------
# cohomology

def cmd_cohomology(args):
    ctx = serialize.load_object(args.path, "context")
    cx = RBFComplex(ctx)
    result = {}
    summary = []
    if args.h1 or not (args.h1 or args.h23 or args.max_n):
        dim, reps = cohomology_H1(cx)
        result["H1"] = dim
        result["rigid"] = dim == 0
        result["representatives"] = [serialize.cochain_to_json(c)
                                     for c in reps]
        summary.append("H1=%d" % dim)
        summary.append("rigid" if result["rigid"] else "non-rigid")
    if args.h23:
        result["H23"] = cohomology_H23(cx)
        summary.append("H23=%d" % result["H23"])
    if args.max_n:
        dims = omega_cohomology_dims(cx.induced_algebra, cx.induced_rep,
                                     args.max_n)
        result["generic_dims"] = dims
        summary.append("generic=%s" % (dims,))
    return _emit(args, "ok", "%s: %s" % (args.path, " ".join(summary)),
                 result)


# ---------------------------------------------------------------------------
# deform

def cmd_deform(args):
    ctx = serialize.load_object(args.path, "context")
    cx = RBFComplex(ctx)
    d1 = DeformationDirection(serialize.load_object(args.t1, "direction"))
    if args.t2 is None:
        rep = infinitesimal_report(cx, d1)
        if rep.ok:
            return _emit(args, "ok", "cocycle: true", {"cocycle": True})
        first = rep.violations[0]
        return _emit(args, "violations",
                     "cocycle: false (first violated tuple: %s %s)"
                     % (first.law, first.witness),
                     {"cocycle": False, "first_violation": {
                         "law": first.law, "witness": list(first.witness)}})
    d2 = DeformationDirection(serialize.load_object(args.t2, "direction"))
    w = deformation_equivalence_witness(cx, d1, d2)
    if w is None:
        return _emit(args, "violations", "inequivalent",
                     {"equivalent": False})
    terms = [[[serialize.dump_scalar(v) for v in a],
              [serialize.dump_scalar(v) for v in b]] for a, b in w.terms]
    return _emit(args, "ok", "equivalent (%d witness term(s))" % len(terms),
                 {"equivalent": True, "witness": terms})


# ---------------------------------------------------------------------------
# dispatch

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of `lyfam`, built once per process, on first use:
    parse_args leaves it as it was and makes a fresh namespace per call."""
    p = argparse.ArgumentParser(
        prog="lyfam",
        description="Validate, construct, and analyze bracket structures "
                    "with semigroup-indexed operator families.")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for any randomized work (printed for replay)")
    p.add_argument("--budget", type=int, default=None,
                   help="coordinate budget for large computations")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("validate", help="check one JSON file against its laws")
    v.add_argument("path")
    v.add_argument("kind", choices=sorted(serialize.KIND_LOADERS))

    c = sub.add_parser("construct", help="run a construction recipe")
    c.add_argument("recipe", choices=list(RECIPES))
    c.add_argument("inputs", nargs="*")
    c.add_argument("-o", "--output", required=True)

    r = sub.add_parser("check-rbf", help="check the operator family equations")
    r.add_argument("path")

    h = sub.add_parser("cohomology", help="cohomology of a context")
    h.add_argument("path")
    h.add_argument("--h1", action="store_true")
    h.add_argument("--h23", action="store_true")
    h.add_argument("--max-n", type=int, default=0, dest="max_n")

    d = sub.add_parser("deform", help="first-order deformation checks")
    d.add_argument("path")
    d.add_argument("t1")
    d.add_argument("t2", nargs="?", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed = args.seed if args.seed is not None else random.randrange(2 ** 32)
    random.seed(seed)
    print("seed: %d" % seed, file=sys.stderr)
    # the budget reaches every coboundary through the environment; it is
    # scoped to this call so that it does not leak into later in-process calls
    saved_budget = os.environ.get("LYFAM_BUDGET")
    if args.budget is not None:
        os.environ["LYFAM_BUDGET"] = str(args.budget)
    try:
        # the command is read from the module at each call, not bound into
        # the cached parser, so a replaced cmd_* function takes effect
        return globals()["cmd_" + args.verb.replace("-", "_")](args)
    except MalformedInputError as exc:
        return _emit(args, "error", "malformed input: %s" % exc)
    except LyfamError as exc:
        return _emit(args, "violations", "error: %s" % exc)
    except OSError as exc:
        return _emit(args, "error", "i/o error: %s" % exc)
    finally:
        if saved_budget is None:
            os.environ.pop("LYFAM_BUDGET", None)
        else:
            os.environ["LYFAM_BUDGET"] = saved_budget


if __name__ == "__main__":
    raise SystemExit(main())
