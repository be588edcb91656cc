"""Verification reports: per-condition residual maxima with pass/fail flags.

The JSON rendering is the stable machine interface:

    {"version": "1", "command": ..., "params": {...},
     "conditions": [{"name", "points", "max_residual", "tol", "pass"}, ...],
     "pass": bool}

Rendering is deterministic (sorted keys, no timestamps), so identical runs
produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

REPORT_SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class ConditionResult:
    name: str
    points: int
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "points": self.points,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    conditions: list[ConditionResult] = field(default_factory=list)

    def add(self, name: str, points: int, max_residual: float, tol: float) -> ConditionResult:
        cond = ConditionResult(name, points, float(max_residual), float(tol))
        self.conditions.append(cond)
        return cond

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self, command: str = "", params: dict | None = None) -> dict:
        return {
            "version": REPORT_SCHEMA_VERSION,
            "command": command,
            "params": params or {},
            "conditions": [c.to_dict() for c in self.conditions],
            "pass": self.passed,
        }


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2) + "\n"


def _shape(value: list) -> str:
    """The shape of a nested list, as ``[50 x 3]``."""
    dims = []
    while isinstance(value, list):
        dims.append(len(value))
        value = value[0] if value else None
    return "[" + " x ".join(map(str, dims)) + "]"


def render_text(doc: dict) -> str:
    """The report for a reader: list-valued params appear as their shape,
    the full values only in the JSON."""
    lines = [f"command: {doc['command']}"]
    for key in sorted(doc.get("params", {})):
        value = doc["params"][key]
        shown = f"{_shape(value)}, see --format json" if isinstance(value, list) else value
        lines.append(f"  {key} = {shown}")
    width = max((len(c["name"]) for c in doc["conditions"]), default=0)
    for c in doc["conditions"]:
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(
            f"{c['name']:<{width}}  points={c['points']:<4d} "
            f"max_residual={c['max_residual']:.3e}  tol={c['tol']:.1e}  {status}"
        )
    lines.append("overall: " + ("PASS" if doc["pass"] else "FAIL"))
    return "\n".join(lines) + "\n"
