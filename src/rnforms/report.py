"""Shared check/report schema for suites, checkers and the CLI.

A Report is a flat list of named checks; exit status is 0 when every check
passes, 1 on a mathematical failure, 2 on input errors and 3 on internal
errors (both raised before any report is printed).  JSON output is deterministic: sorted keys, no timestamps.
"""

from __future__ import annotations

import json
from typing import NamedTuple


class CheckEntry(NamedTuple):
    name: str
    anchor: str                    # the identity being checked, as a formula
    passed: bool
    complete: bool | None = None
    counterexample: str | None = None
    detail: str | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "verdict": "pass" if self.passed else "fail",
            "complete": self.complete,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }


class Report:
    def __init__(self, command: str, scenario: str):
        self.command = command
        self.scenario = scenario
        self.checks: list = []

    def add(self, name, anchor, passed, counterexample=None, detail=None):
        self.checks.append(CheckEntry(name, anchor, bool(passed), None, counterexample, detail))

    def add_certificate(self, name, anchor, certificate):
        self.checks.append(CheckEntry(
            name, anchor, certificate.is_zero, certificate.complete,
            None if certificate.counterexample is None
            else f"{certificate.counterexample[0]} -> {certificate.counterexample[1]}",
            f"{certificate.count} tuples ({certificate.family_note})"))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "scenario": self.scenario,
            "checks": [c.as_dict() for c in self.checks],
            "status": "pass" if self.passed else "fail",
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"scenario: {self.scenario}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            extra = ""
            if c.complete is not None:
                extra += "  [complete]" if c.complete else "  [declared family]"
            lines.append(f"{status}  {c.name}  ::  {c.anchor}{extra}")
            if c.detail:
                lines.append(f"      {c.detail}")
            if c.counterexample:
                lines.append(f"      counterexample: {c.counterexample}")
        lines.append(f"status: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines)
