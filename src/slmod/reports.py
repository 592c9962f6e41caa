"""Per-check, per-degree PASS/FAIL/SKIPPED/ERROR records shared by all verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
ERROR = "ERROR"

# How many non-failure detail records a recorder keeps before summarizing.
DETAIL_CAP = 16
FAIL_CAP = 64


@dataclass(frozen=True)
class Detail:
    degree: tuple | None
    expected: object
    actual: object
    status: str
    note: str = ""

    def to_dict(self) -> dict:
        out = {
            "degree": list(self.degree) if self.degree is not None else None,
            "expected": _plain(self.expected),
            "actual": _plain(self.actual),
            "status": self.status,
        }
        if self.note:
            out["note"] = self.note
        return out


def _plain(value):
    if value is None or isinstance(value, (int, str, bool)):
        return value
    return str(value)


@dataclass
class CheckResult:
    """Outcome of one named check: overall status plus per-degree records."""

    check_id: str
    params: dict
    status: str = PASS
    details: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: {"pass": 0, "fail": 0, "skipped": 0})

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": {k: _plain(v) for k, v in sorted(self.params.items())},
            "status": self.status,
            "counts": dict(self.counts),
            "details": [d.to_dict() for d in self.details],
        }


class Recorder:
    """Tallies individual assertions and keeps a bounded set of details.

    Failures are always kept (up to FAIL_CAP); passes are kept only up to
    DETAIL_CAP so reports stay readable on thousand-fiber sweeps.
    """

    def __init__(self, check_id: str, params: dict):
        self.check_id = check_id
        self.params = dict(params)
        self.counts = {"pass": 0, "fail": 0, "skipped": 0}
        self.details: list[Detail] = []
        self._pass_details = 0
        self._fail_details = 0

    def record(self, ok: bool, degree=None, expected=None, actual=None, note: str = ""):
        if ok:
            self.counts["pass"] += 1
            if self._pass_details < DETAIL_CAP:
                self._pass_details += 1
                self.details.append(Detail(degree, expected, actual, PASS, note))
        else:
            self.counts["fail"] += 1
            if self._fail_details < FAIL_CAP:
                self._fail_details += 1
                self.details.append(Detail(degree, expected, actual, FAIL, note))
        return ok

    def expect(self, expected, actual, degree=None, note: str = "") -> bool:
        return self.record(expected == actual, degree, expected, actual, note)

    def verdict(self, report: CheckResult, note: str = "") -> bool:
        """One record for a sub-report: PASS expected, its status actual."""
        return self.record(report.status == PASS, expected=PASS, actual=report.status, note=note)

    def tally(self, bad: int, expected, noun: str = "bad", note: str = "") -> bool:
        """One record for a count of failures, which passes at zero."""
        return self.record(bad == 0, expected=expected, actual=f"{bad} {noun}", note=note)

    def skip(self):
        self.counts["skipped"] += 1

    @property
    def failed(self) -> bool:
        return self.counts["fail"] > 0

    def result(self) -> CheckResult:
        if self.counts["fail"]:
            status = FAIL
        elif self.counts["pass"]:
            status = PASS
        else:
            status = SKIPPED
        return CheckResult(self.check_id, self.params, status, list(self.details), dict(self.counts))
