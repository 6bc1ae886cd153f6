"""Uniform pass/fail reports for the verification checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check.

    ``worst_margin`` is the smallest slack encountered (negative means a
    violation); ``violations`` lists human-readable offender descriptions.
    """

    check: str
    passed: bool
    worst_margin: float
    violations: tuple[str, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        """JSON fields; a non-finite margin is written as the string "nan", "inf" or "-inf"."""
        worst = self.worst_margin if math.isfinite(self.worst_margin) else str(self.worst_margin)
        out = {"check": self.check, "pass": self.passed, "worst_margin": worst}
        if self.violations:
            out["violations"] = list(self.violations)
        return out


def worse(margin: float, worst: float) -> bool:
    """Whether margin replaces worst: it is smaller, or it is the first NaN."""
    return worst == worst and not margin >= worst


class Margins:
    """One check's worst margin and violations; ``text()`` is called for a violation only."""

    def __init__(self, check: str):
        self.check = check
        self.worst = math.inf
        self.violations: list[str] = []

    def add(self, margin: float, text: Callable[[], str], *, strict: bool = False) -> None:
        """Keep the worst margin; one not >= 0 (not > 0 if ``strict``), NaN too, is a violation."""
        if worse(margin, self.worst):
            self.worst = margin
        if not (margin > 0 if strict else margin >= 0):
            self.violations.append(text())

    def report(self) -> CheckReport:
        return CheckReport(self.check, not self.violations, self.worst, tuple(self.violations))


def combine(check: str, reports: list[CheckReport]) -> CheckReport:
    """Conjunction of sub-reports under one name, keeping the worst margin."""
    worst = math.inf
    for r in reports:
        if worse(r.worst_margin, worst):
            worst = r.worst_margin
    violations = tuple(v for r in reports for v in r.violations)
    return CheckReport(
        check=check,
        passed=all(r.passed for r in reports),  # a margin may be < 0 within its check's tol
        worst_margin=worst,
        violations=violations,
    )
