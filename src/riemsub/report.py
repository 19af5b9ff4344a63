"""Check reports and their human / machine renderings."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

PASS, FAIL, SKIP = "pass", "fail", "skip"


@dataclass(frozen=True)
class Tolerances:
    """Default tolerance classes: exact-arithmetic identities, checks that
    go through finite differencing, and per-unit-length drift along curves.

    The class attributes are also the default ``tolerance`` of each check
    function, so a check run outside a scenario uses the same thresholds.
    """

    algebraic: float = 1e-8
    fd: float = 1e-6
    drift: float = 1e-5

    def scaled(self, scale: float) -> "Tolerances":
        return Tolerances(
            self.algebraic * scale, self.fd * scale, self.drift * scale
        )


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        value = float(value)
    elif isinstance(value, (np.integer,)):
        return int(value)
    elif isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, float) and not np.isfinite(value):
        # Keep the machine report strict-JSON parseable.
        return repr(value)
    return value


@dataclass
class CheckReport:
    """One named check: sample count, max residual, tolerance, verdict.

    ``ref`` is a short identifier tying the check to the identity it
    verifies, so reports stay machine-mappable; ``details`` holds
    check-specific extras (flags, sub-residuals, per-sample data).
    """

    name: str
    ref: str
    samples: int
    max_residual: float
    tolerance: float
    verdict: str
    details: dict = field(default_factory=dict)

    @classmethod
    def from_residual(cls, name, ref, samples, max_residual, tolerance, details=None):
        """Pass when ``max_residual <= tolerance``; a residual that is not
        finite fails, with ``details["reason"]`` "non-finite residual"."""
        details = details or {}
        if not np.isfinite(max_residual):
            details["reason"] = "non-finite residual"
        verdict = PASS if max_residual <= tolerance else FAIL
        return cls(name, ref, int(samples), float(max_residual), float(tolerance), verdict, details)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ref": self.ref,
            "samples": self.samples,
            "max_residual": _jsonify(float(self.max_residual)),
            "tolerance": _jsonify(float(self.tolerance)),
            "verdict": self.verdict,
            "details": _jsonify(self.details),
        }


@dataclass
class ReportDocument:
    """Full scenario report: identity, per-check records, overall verdict."""

    scenario: str
    path: str
    seed: int
    sample_count: int
    tolerance_scale: float
    checks: list

    @property
    def overall(self) -> str:
        enabled = [c for c in self.checks if c.verdict != SKIP]
        return PASS if all(c.verdict == PASS for c in enabled) else FAIL

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "path": self.path,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "tolerance_scale": self.tolerance_scale,
            "overall": self.overall,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        """Deterministic machine rendering: fixed key order, repr floats,
        strict JSON (a NaN or infinity raises)."""
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    def to_table(self) -> str:
        w = max([len("ref")] + [len(c.ref) for c in self.checks])
        rule = "-" * (79 + w)
        lines = [
            f"scenario: {self.scenario}   seed={self.seed}   "
            f"samples={self.sample_count}   tolerance-scale={self.tolerance_scale:g}",
            "",
            f"{'check':36s} {'ref':{w}s} {'n':>5s} {'max residual':>14s} "
            f"{'tolerance':>11s} {'verdict':>8s}",
            rule,
        ]
        for c in self.checks:
            lines.append(
                f"{c.name:36s} {c.ref:{w}s} {c.samples:5d} {c.max_residual:14.4e} "
                f"{c.tolerance:11.1e} {c.verdict:>8s}"
            )
        lines.append(rule)
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"
