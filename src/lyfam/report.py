"""Violation reports produced by the law checkers.

A report is empty exactly when every checked law holds with residual zero;
arithmetic is exact rational, so no tolerances are involved anywhere.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import PreconditionError


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple
    residual: tuple


@dataclass
class Report:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, witness: tuple, residual) -> None:
        self.violations.append(Violation(law, tuple(witness), tuple(residual)))

    def record(self, law: str, witness: tuple, residual) -> None:
        """Add a violation only when the residual is nonzero."""
        if any(residual):
            self.add(law, witness, residual)

    def sweep(self, ranges, laws, prefix=()) -> "Report":
        """Record laws at every index tuple w = prefix + idx, with idx running
        over the product of ranges in lexicographic order; returns self.

        A law (name, residual) is recorded at w as record(name, w,
        residual(*w)).  A block (name, residuals, depth) has the residual at
        w + (k1, ..., kd) at residuals(*w)[k1]...[kd], one per name there if
        name is a tuple of names.  The witnesses come in lexicographic order,
        and the laws at one witness in the order listed.
        """
        plain = [law for law in laws if len(law) == 2]
        blocks = [law for law in laws if len(law) == 3]
        for idx in itertools.product(*ranges):
            w = prefix + idx
            for name, residual in plain:
                self.record(name, w, residual(*w))
            if blocks:
                start = len(self.violations)
                for name, residuals, depth in blocks:
                    self._walk(w, name, residuals(*w), depth)
                if len(blocks) > 1:  # a stable sort keeps the listed order
                    self.violations[start:] = sorted(self.violations[start:],
                                                     key=lambda v: v.witness)
        return self

    def _walk(self, w, name, block, depth) -> None:
        """Record the entries of a block at w, one level per call."""
        if depth > 1:
            for k, sub in enumerate(block):
                self._walk(w + (k,), name, sub, depth - 1)
        elif type(name) is str:
            for k, residual in enumerate(block):
                self.record(name, w + (k,), residual)
        else:
            for k, residuals in enumerate(block):
                for law, residual in zip(name, residuals):
                    self.record(law, w + (k,), residual)

    def require(self, message: str) -> "Report":
        """Return self when empty; otherwise refuse with
        PreconditionError(message), its {first} the first violation and its
        {laws} the sorted law names."""
        if self.violations:
            raise PreconditionError(message.format(
                first=self.violations[0], laws=sorted(self.laws())))
        return self

    def extend(self, other: "Report") -> None:
        self.violations.extend(other.violations)

    def laws(self) -> set[str]:
        return {v.law for v in self.violations}

    def to_json(self) -> list[dict]:
        return [
            {
                "law": v.law,
                "witness": list(v.witness),
                "residual": [str(c) for c in v.residual],
            }
            for v in self.violations
        ]
