"""Verification reports: the shared result type of every machine check."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Failure:
    indices: str
    lhs: str
    rhs: str

    def to_json(self):
        return {"indices": self.indices, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class VerificationReport:
    check: str
    space: str
    status: str = "pass"  # pass | fail | skipped
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def record(self, indices, lhs, rhs):
        self.failures.append(Failure(str(indices), str(lhs), str(rhs)))
        self.status = "fail"

    def note(self, text):
        self.notes.append(text)

    def compare(self, indices, got, want):
        """Whether got equals want; on a mismatch the printed forms of both
        are recorded at indices and the report fails."""
        if got != want:
            self.record(indices, got, want)
            return False
        return True

    @property
    def passed(self):
        return self.status == "pass"

    def to_json(self):
        return {
            "check": self.check,
            "space": self.space,
            "status": self.status,
            "failures": [f.to_json() for f in self.failures],
            "notes": list(self.notes),
        }

    def summary_line(self):
        mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[self.status]
        tail = "" if not self.failures else f" ({len(self.failures)} failing)"
        return f"[{mark}] {self.check} [{self.space}]{tail}"
