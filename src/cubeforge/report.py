"""Structured pass/fail reports returned by the verify_* functions."""
from __future__ import annotations

from dataclasses import dataclass, field


MAX_WITNESSES = 8


@dataclass
class Check:
    """One named assertion batch: how many instances were tested, whether all
    passed, and the first few counterexamples if not."""

    name: str
    passed: bool
    checked: int = 0
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    note: str = ""

    def to_json(self):
        out = {"name": self.name, "passed": bool(self.passed), "checked": int(self.checked)}
        if self.witnesses:
            out["witnesses"] = [_plain(w) for w in self.witnesses[:MAX_WITNESSES]]
        if self.details:
            out["details"] = {k: _plain(v) for k, v in sorted(self.details.items())}
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    title: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, passed, checked=0, witnesses=None, details=None, note=""):
        self.checks.append(Check(name, bool(passed), int(checked),
                                 list(witnesses or []), dict(details or {}), note))
        return self.checks[-1]

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        return {"title": self.title, "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}


def _plain(v):
    """Coerce numpy scalars/arrays into JSON-friendly builtins."""
    if hasattr(v, "tolist"):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v
