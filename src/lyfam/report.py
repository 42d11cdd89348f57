"""Violation reports produced by the law checkers.

A report is empty exactly when every checked law holds with residual zero;
arithmetic is exact rational, so no tolerances are involved anywhere.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field


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
        """Record laws at every index tuple prefix + idx, with idx running
        over the product of ranges in lexicographic order; returns self.

        A law is (name, residual), recorded at the tuple w as
        record(name, w, residual(*w)), or a group (ranges, laws) swept at
        every extension of w by its own ranges.  At each tuple the laws run
        in the order listed.
        """
        for idx in itertools.product(*ranges):
            w = prefix + idx
            for name, residual in laws:
                if type(name) is str:
                    self.record(name, w, residual(*w))
                else:
                    self.sweep(name, residual, w)
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
