"""Three-valued check results and verification reports.

Checks that carry hypotheses distinguish "the hypothesis does not hold on
this input" from "the hypothesis holds and the conclusion fails"; the latter
would falsify a theorem, the former is merely an out-of-scope input. Every
failing record carries a machine-replayable witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single hypothesis-carrying check; truthy iff it passed."""

    status: str
    witness: Any = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == PASS


def passed(witness: Any = None, detail: str = "") -> CheckResult:
    return CheckResult(PASS, witness, detail)


def failed(witness: Any = None, detail: str = "") -> CheckResult:
    return CheckResult(FAIL, witness, detail)


def hypothesis_not_met(witness: Any = None, detail: str = "") -> CheckResult:
    return CheckResult(HYPOTHESIS_NOT_MET, witness, detail)


@dataclass
class CheckRecord:
    check: str
    params: dict
    status: str
    witness: Any = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        d = {"check": self.check, "params": self.params, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class VerificationReport:
    """Per-check pass/fail records for one verification suite."""

    suite: str
    records: list[CheckRecord] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def add(self, check: str, params: dict, status: str,
            witness: Any = None, detail: str = "") -> CheckRecord:
        record = CheckRecord(check, params, status, witness, detail)
        self.records.append(record)
        return record

    def add_result(self, check: str, params: dict, result: CheckResult) -> CheckRecord:
        return self.add(check, params, result.status, result.witness, result.detail)

    def add_bool(self, check: str, params: dict, ok: bool,
                 witness: Any = None, detail: str = "") -> CheckRecord:
        return self.add(check, params, PASS if ok else FAIL,
                        None if ok else witness, detail)

    def extend(self, other: "VerificationReport") -> None:
        self.records.extend(other.records)
        for key, value in other.stats.items():
            name = key if key not in self.stats else f"{other.suite}.{key}"
            unique, serial = name, 2
            while unique in self.stats:
                unique = f"{name}.{serial}"
                serial += 1
            self.stats[unique] = value

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == FAIL]

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "stats": self.stats,
            "records": [r.to_json_dict() for r in self.records],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.records:
            mark = {PASS: "PASS", FAIL: "FAIL", HYPOTHESIS_NOT_MET: "SKIP"}[r.status]
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            suffix = f" [{r.detail}]" if r.detail else ""
            lines.append(f"{mark} {r.check} ({params}){suffix}")
        verdict = "all passed" if self.passed else f"{len(self.failures())} failed"
        skipped = sum(r.status == HYPOTHESIS_NOT_MET for r in self.records)
        if skipped:
            verdict += f", {skipped} not assessed"
        lines.append(f"suite {self.suite}: {len(self.records)} checks, {verdict}")
        return lines
