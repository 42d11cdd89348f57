"""Span recorder that wraps lyfam's public functions from outside.

Nothing in the library knows about it: `Tracer.install` replaces each listed
function in every `lyfam` module namespace and class that binds it, and
`Tracer.uninstall` puts the originals back.  Spans stay in memory, each with
the id of its parent span, and are written as JSON lines at the end.

Hot primitives (`LYAlgebra.bracket/tri`, `Representation.rho_of/theta_of`,
`semigroup.product/product_of`, the vector helpers) stay unwrapped: they run
millions of times per pass, so their time shows in their callers' self time.
"""
from __future__ import annotations

import json
import os
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter


def _nullspace_counts(args, kwargs, result, count):
    m = args[0]
    rows, cols = len(m), (len(m[0]) if m else 0)
    count["linalg.nullspace_rows"] += rows
    count["linalg.nullspace_cols"] += cols
    count["linalg.nullspace_cells"] += rows * cols
    count["linalg.nullspace_nnz"] += sum(1 for row in m for x in row if x)
    count["linalg.kernel_dim"] += len(result)


def _delta_counts(args, kwargs, result, count):
    for comp in (result.even, result.odd):
        for table in comp:
            for vec in table:
                count["omega.delta_coords"] += len(vec)
                count["omega.delta_nonzero"] += sum(1 for x in vec if x)


def _basis_counts(args, kwargs, result, count):
    count["omega.basis_size"] += result.size


def _bytes_read(args, kwargs, result, count):
    count["serialize.bytes_read"] += os.path.getsize(args[0])


def _exit_code(args, kwargs, result, count):
    count["cli.exit_%s" % result] += 1


# (layer, group, module, qualified names, counter).  Every listed function
# gets a span; the counter, when given, runs after the span has ended.
SPEC = [
    ("linalg", "elim", "lyfam.linalg",
     ["quotient_dim", "quotient_representatives", "solve", "rank", "in_span"],
     None),
    ("linalg", "elim", "lyfam.linalg", ["nullspace_basis"], _nullspace_counts),
    ("ly", "check", "lyfam.ly",
     ["check_ly_axioms", "check_representation", "check_cocycle23",
      "check_jacobi", "check_leibniz"], None),
    ("ly", "construct", "lyfam.ly",
     ["ly_from_lie", "ly_from_leibniz", "ly_tensor_semigroup",
      "adjoint_representation", "gamma_ad", "derived_D"], None),
    ("rbfamily", "check", "lyfam.rbfamily",
     ["check_twisted_rb_family", "check_graph_subalgebra_family",
      "check_morphism", "check_reynolds_family", "check_relative_rb_family",
      "check_nijenhuis_family", "TwistedRBContext.validate"], None),
    ("rbfamily", "construct", "lyfam.rbfamily",
     ["identity_family", "bar_operator", "semidirect_product",
      "reynolds_as_twisted", "nijenhuis_induced_context"], None),
    ("nsfamily", "check", "lyfam.nsfamily",
     ["check_ns_family_axioms", "check_ns_axioms"], None),
    ("nsfamily", "construct", "lyfam.nsfamily",
     ["ns_from_twisted_rb", "ns_tensor_semigroup", "ns_from_nijenhuis",
      "derived_brackets"], None),
    ("nsfamily", "coincidence", "lyfam.nsfamily",
     ["ns_tensor_from_rb_coincidence"], None),
    ("omega", "delta", "lyfam.omega", ["delta_omega"], _delta_counts),
    ("omega", "delta_star", "lyfam.omega", ["delta_star_omega"], None),
    ("omega", "basis", "lyfam.omega",
     ["cochain_full_coords", "SkewBasis.embed", "SkewBasis.project",
      "SkewBasis.combine"], None),
    ("omega", "basis", "lyfam.omega", ["skew_basis"], _basis_counts),
    ("omega", "checks", "lyfam.omega",
     ["omega_ly_from_ns_family", "check_omega_ly_axioms",
      "check_omega_representation", "omega_ly_from_omega_lie",
      "omega_ly_from_reynolds"], None),
    ("cohomology", "complex", "lyfam.cohomology",
     ["RBFComplex.__init__", "induced_omega_ly_on_V", "induced_rep_on_L"],
     None),
    ("cohomology", "partial_deg0", "lyfam.cohomology", ["partial_deg0"], None),
    ("cohomology", "partial_deg1", "lyfam.cohomology", ["partial_deg1"], None),
    # the CLI calls the deformation-equation report directly for a
    # non-cocycle, so it is counted with the check it belongs to
    ("cohomology", "infinitesimal", "lyfam.cohomology",
     ["check_infinitesimal", "_linearized_report"], None),
    ("cohomology", "witness", "lyfam.cohomology",
     ["deformation_equivalence_witness", "equivalent_deformations_same_class"],
     None),
    ("cohomology", "h", "lyfam.cohomology",
     ["cohomology_H1", "cohomology_H23", "rigidity_certificate"], None),
    ("serialize", "load", "lyfam.serialize", ["load_json"], _bytes_read),
    ("serialize", "load", "lyfam.serialize",
     ["load_object", "context_from_json", "ly_from_json",
      "semigroup_from_json", "representation_from_json", "cocycle_from_json",
      "direction_from_json"], None),
    ("cli", "cli", "lyfam.cli", ["main"], _exit_code),
    ("cli", "cli", "lyfam.cli",
     ["cmd_validate", "cmd_construct", "cmd_check_rbf", "cmd_cohomology",
      "cmd_deform"], None),
]

LAYERS = ["linalg", "semigroup", "ly", "rbfamily", "nsfamily", "omega",
          "cohomology", "serialize", "cli"]

# per_layer metrics: name -> (unit, how it is read from the aggregates)
METRICS = {
    "linalg.calls": ("count", ("calls", "linalg.elim")),
    "linalg.self_s": ("s", ("self", "linalg.elim")),
    "linalg.nullspace_rows": ("count", ("count", "linalg.nullspace_rows")),
    "linalg.nullspace_cols": ("count", ("count", "linalg.nullspace_cols")),
    "linalg.nullspace_nnz": ("count", ("count", "linalg.nullspace_nnz")),
    "linalg.density": ("ratio", ("ratio", "linalg.nullspace_nnz",
                                 "linalg.nullspace_cells")),
    "linalg.kernel_dim": ("count", ("count", "linalg.kernel_dim")),
    "ly.check_self_s": ("s", ("self", "ly.check")),
    "ly.construct_self_s": ("s", ("self", "ly.construct")),
    "ly.algebras_checked": ("count", ("fn_calls", "check_ly_axioms")),
    "rbfamily.check_calls": ("count", ("calls", "rbfamily.check")),
    "rbfamily.check_self_s": ("s", ("self", "rbfamily.check")),
    "rbfamily.construct_self_s": ("s", ("self", "rbfamily.construct")),
    "nsfamily.check_self_s": ("s", ("self", "nsfamily.check")),
    "nsfamily.construct_self_s": ("s", ("self", "nsfamily.construct")),
    "nsfamily.coincidence_self_s": ("s", ("self", "nsfamily.coincidence")),
    "omega.delta_calls": ("count", ("calls", "omega.delta")),
    "omega.delta_self_s": ("s", ("self", "omega.delta")),
    "omega.delta_star_calls": ("count", ("calls", "omega.delta_star")),
    "omega.delta_star_self_s": ("s", ("self", "omega.delta_star")),
    "omega.delta_coords": ("count", ("count", "omega.delta_coords")),
    "omega.delta_nonzero_ratio": ("ratio", ("ratio", "omega.delta_nonzero",
                                            "omega.delta_coords")),
    "omega.basis_self_s": ("s", ("self", "omega.basis")),
    "omega.basis_size": ("count", ("count", "omega.basis_size")),
    "omega.checks_self_s": ("s", ("self", "omega.checks")),
    "cohomology.complex_builds": ("count", ("fn_calls", "RBFComplex.__init__")),
    "cohomology.complex_self_s": ("s", ("self", "cohomology.complex")),
    "cohomology.partial_deg0_self_s": ("s", ("self", "cohomology.partial_deg0")),
    "cohomology.partial_deg1_calls": ("count",
                                      ("calls", "cohomology.partial_deg1")),
    "cohomology.partial_deg1_self_s": ("s",
                                       ("self", "cohomology.partial_deg1")),
    "cohomology.infinitesimal_self_s": ("s",
                                        ("self", "cohomology.infinitesimal")),
    "cohomology.witness_self_s": ("s", ("self", "cohomology.witness")),
    "cohomology.h_self_s": ("s", ("self", "cohomology.h")),
    "serialize.load_calls": ("count", ("fn_calls", "load_json")),
    "serialize.load_self_s": ("s", ("self", "serialize.load")),
    "serialize.bytes_read": ("bytes", ("count", "serialize.bytes_read")),
    "cli.calls": ("count", ("fn_calls", "main")),
    "cli.self_s": ("s", ("self", "cli.cli")),
    "cli.exit_0": ("count", ("count", "cli.exit_0")),
    "cli.exit_1": ("count", ("count", "cli.exit_1")),
    "cli.exit_2": ("count", ("count", "cli.exit_2")),
}
METRICS.update({"%s.errors" % layer: ("count", ("errors", layer))
                for layer in LAYERS if layer != "semigroup"})


def _resolve(owner, qualname):
    """(object that holds the attribute, attribute name, function)."""
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if path else getattr(owner, attr)


class Tracer:
    """Records one span per call of a wrapped lyfam function."""

    def __init__(self):
        # span: [id, parent id, layer, group, name, start, end, excluded, error]
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._excluded = 0.0  # time spent counting, kept out of every span
        self._patches = []

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and
                   (name == "lyfam" or name.startswith("lyfam."))}
        for layer, group, modname, names, counter in SPEC:
            for qualname in names:
                holder, attr, fn = _resolve(modules[modname], qualname)
                wrapper = self._wrap(layer, group, qualname, fn, counter)
                if holder is not modules[modname]:  # a method
                    self._patch(holder, attr, wrapper)
                    continue
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, key, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    def _patch(self, holder, attr, wrapper):
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def _wrap(self, layer, group, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, layer, group,
                    name, 0.0, 0.0, self._excluded, False]
            spans.append(span)
            stack.append(span[0])
            span[5] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[8] = True
                raise
            finally:
                span[6] = perf_counter()
                span[7] = self._excluded - span[7]
                stack.pop()
            t0 = perf_counter()
            counts["fn:" + name] += 1
            if counter is not None:
                counter(args, kwargs, result, counts)
            self._excluded += perf_counter() - t0
            return result

        return wrapper

    def aggregate(self):
        """Per group: calls and self time; per layer: errors."""
        dur = [s[6] - s[5] - s[7] for s in self.spans]
        child = defaultdict(float)
        for s, d in zip(self.spans, dur):
            if s[1] is not None:
                child[s[1]] += d
        calls, self_s, errors = Counter(), defaultdict(float), Counter()
        for s, d in zip(self.spans, dur):
            key = "%s.%s" % (s[2], s[3])
            calls[key] += 1
            self_s[key] += d - child[s[0]]
            errors[s[2]] += s[8]
        return calls, self_s, errors

    def metrics(self):
        calls, self_s, errors = self.aggregate()
        out = {}
        for name, (unit, (kind, *keys)) in METRICS.items():
            if kind == "calls":
                value = calls[keys[0]]
            elif kind == "self":
                value = self_s[keys[0]]
            elif kind == "errors":
                value = errors[keys[0]]
            elif kind == "fn_calls":
                value = self.counts["fn:" + keys[0]]
            elif kind == "count":
                value = self.counts[keys[0]]
            else:
                num, den = self.counts[keys[0]], self.counts[keys[1]]
                value = num / den if den else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def write_jsonl(self, path):
        t0 = self.spans[0][5] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[0], "parent": s[1], "layer": s[2], "group": s[3],
                    "name": s[4], "start_s": s[5] - t0,
                    "dur_s": s[6] - s[5] - s[7], "error": s[8]}) + "\n")
