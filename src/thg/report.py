"""Structured results for mathematical consistency checks.

A failed identity is a result, not an exception: every checker in this
package appends CheckEntry rows and lets the caller decide what a
failure means (the command line turns them into exit codes).

Plain identity checks grade each instance pass/fail.  Audits of
conditional statements use a finer vocabulary: an implication whose
hypothesis fails is "vacuous", one that holds outright is "confirmed",
a hypothesis met with conclusion refuted is a "VIOLATION", and missing
data leaves an instance "indeterminate".  Known boundary failures that
a statement explicitly excludes are graded "expected-exception" so they
are visible without counting against the audit.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
CONFIRMED = "confirmed"
VIOLATION = "VIOLATION"
INDETERMINATE = "indeterminate"
EXPECTED_EXCEPTION = "expected-exception"
NOT_APPLICABLE = "not-applicable"

STATUSES = (PASS, FAIL, VACUOUS, CONFIRMED, VIOLATION, INDETERMINATE,
            EXPECTED_EXCEPTION, NOT_APPLICABLE)

# Only these two sink a report; everything else is acceptable or moot.
_FAILING = (FAIL, VIOLATION)


@dataclass(frozen=True)
class CheckEntry:
    """One graded instance of one identity."""

    check: str              # identity family, e.g. "fox-sequence-layers"
    target: str             # model the instance was evaluated on
    n: Optional[int]        # degree, for per-degree checks
    status: str
    rule: str               # the mathematical fact being exercised
    detail: str = ""

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    def line(self) -> str:
        where = self.target if self.n is None else f"{self.target} n={self.n}"
        out = f"[{self.status}] {self.check}: {where}"
        if self.detail:
            out += f" -- {self.detail}"
        return out


@dataclass
class CheckReport:
    """An ordered bundle of check entries under one heading."""

    title: str
    entries: List[CheckEntry] = field(default_factory=list)

    def add(self, check: str, target: str, n: Optional[int], status: str,
            rule: str, detail: str = "") -> CheckEntry:
        entry = CheckEntry(check, target, n, status, rule, detail)
        self.entries.append(entry)
        return entry

    def extend(self, other: "CheckReport") -> None:
        self.entries.extend(other.entries)

    @property
    def passed(self) -> bool:
        return not any(e.status in _FAILING for e in self.entries)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    def lines(self) -> List[str]:
        return [e.line() for e in self.entries]
