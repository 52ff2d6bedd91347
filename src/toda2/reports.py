"""Check reports: one record per verified claim, text or JSON rendering.

Reports are deterministic — same inputs, byte-identical output — so no
timestamps, no environment probing, sorted JSON keys, repr-exact floats.
JSON output is strict (RFC 8259): a non-finite number is written as null.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckReport", "emit_report", "all_pass", "worst"]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: what was measured, what was expected, verdict."""

    check: str                  # check id, e.g. "mcybe"
    anchor: str                 # claim slug, e.g. "mcybe-splitting-exact"
    algebra: str
    params: dict = field(default_factory=dict)
    measured: object = None     # residual, rank, or a small dict of values
    expected: object = None
    verdict: bool = False
    detail: str = ""

    @classmethod
    def below(cls, check: str, anchor: str, algebra: str, measured, tol: float,
              params: dict, detail: str = "") -> "CheckReport":
        """A residual check: passes when measured < tol (a NaN residual fails);
        the tolerance is recorded in params and as the expected "< tol"."""
        return cls(check=check, anchor=anchor, algebra=algebra, params={**params, "tol": tol},
                   measured=measured, expected=f"< {tol:g}", verdict=bool(measured < tol),
                   detail=detail)

    @classmethod
    def equal(cls, check: str, anchor: str, algebra: str, measured, expected,
              params: dict, detail: str = "") -> "CheckReport":
        """An exact check: passes when measured == expected (ranks, counts)."""
        return cls(check=check, anchor=anchor, algebra=algebra, params=params,
                   measured=measured, expected=expected, verdict=bool(measured == expected),
                   detail=detail)

    @classmethod
    def not_applicable(cls, check: str, anchor: str, algebra: str, params: dict,
                       reason) -> "CheckReport":
        """A check the spec's data do not support: nothing measured, no failure."""
        return cls(check=check, anchor=anchor, algebra=algebra, params=params,
                   measured=None, expected="not applicable", verdict=True,
                   detail=f"not applicable: {reason}")

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "anchor": self.anchor,
            "algebra": self.algebra,
            "params": _plain(self.params),
            "measured": _plain(self.measured),
            "expected": _plain(self.expected),
            "verdict": bool(self.verdict),
            "detail": self.detail,
        }

    def line(self) -> str:
        status = "PASS" if self.verdict else "FAIL"
        extra = f"  # {self.detail}" if self.detail else ""
        return (
            f"[{status}] {self.check:<24s} {self.algebra:<10s} "
            f"measured={_short(self.measured)} expected={_short(self.expected)} "
            f"({self.anchor}){extra}"
        )


def _plain(v):
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _plain(w) for k, w in sorted(v.items())}
    if isinstance(v, (list, tuple)):
        return [_plain(w) for w in v]
    return v


def _short(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def worst(values) -> float:
    """The largest of `values` (any shape), 0.0 for none: the measured value
    of a residual check on a sample stack.  A NaN entry is passed over, as a
    running max(worst, v) from 0 does."""
    return float(np.fmax.reduce(np.ravel(values), initial=0.0))


def all_pass(reports) -> bool:
    return all(r.verdict for r in reports)


def emit_report(reports, fmt: str = "text") -> str:
    """Render a report batch: one line per check, or a JSON document."""
    if fmt == "text":
        lines = [r.line() for r in reports]
        if reports:
            n_bad = sum(1 for r in reports if not r.verdict)
            lines.append(
                f"-- {len(reports)} checks, "
                + ("all passed" if n_bad == 0 else f"{n_bad} FAILED")
            )
        return "\n".join(lines)
    if fmt == "json":
        doc = {
            "reports": [r.to_dict() for r in reports],
            "all_pass": all_pass(reports),
        }
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    raise ValueError(f"unknown report format {fmt!r}")
