"""Verification report plumbing shared by the identity checkers and the CLI.

A report is a named suite plus a grid description and one cell per checked
instance. Cells carry rendered left/right values so that emitters never need
to recompute anything; the line-oriented CSV order is suite,n,k,b,status,
lhs,rhs.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"


def render_b(b) -> Optional[str]:
    """Canonical string for a rational parameter; None when absent/formal."""
    if b is None:
        return None
    if isinstance(b, (int, Fraction)):
        return str(Fraction(b))
    # formal parameter: identity holds symbolically, column left empty
    return None


@dataclass(frozen=True)
class ReportCell:
    n: Optional[int]
    k: Optional[int]
    b: Optional[str]
    status: str
    lhs: str
    rhs: str


@dataclass
class VerificationReport:
    suite: str
    grid: dict
    cells: list = field(default_factory=list)

    def add(self, *, n=None, k=None, b=None, ok=None, status=None, lhs="", rhs=""):
        if status is None:
            status = PASS if ok else FAIL
        self.cells.append(ReportCell(n, k, render_b(b), status, str(lhs), str(rhs)))

    @property
    def passed(self) -> bool:
        return all(cell.status != FAIL for cell in self.cells)

    @property
    def first_failure(self) -> Optional[ReportCell]:
        for cell in self.cells:
            if cell.status == FAIL:
                return cell
        return None

    def counts(self) -> tuple:
        npass = sum(1 for c in self.cells if c.status == PASS)
        nfail = sum(1 for c in self.cells if c.status == FAIL)
        return npass, nfail


def _nonempty(report: VerificationReport) -> VerificationReport:
    # a grid with no cells checks nothing, and an empty report reads as PASS
    if not report.cells:
        raise ValueError(f"suite {report.suite} has an empty grid")
    return report
