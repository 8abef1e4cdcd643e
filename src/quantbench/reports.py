"""Check records and report rendering.

Each record carries a stable anchor label describing the mathematical content
of the check (given by the runner's check table), a status, failures with
residual expressions, and a timing field that is excluded from canonical
comparisons.
"""

from __future__ import annotations

import json

CONVENTION_NOTES = [
    "holomorphic chart coordinate: z = x - i y; unit area form "
    "(1/pi)(1+r^2)^-2 dx dy",
    "frames: s_k = c_jk s_j; connection nabla s_j = twopii eta_j s_j; "
    "gluing eta_k - eta_j = (1/twopii) dc/c",
    "zig-zag: d f_jk = eta_j - eta_k, cocycle f_jk + f_kl - f_jl; "
    "constructed transitions exp(-twopii f_jk)",
    "dual-pairing convention <ad*(X)xi, Y> = <xi, ad(-X) Y>; equivariance is "
    "checked in the bracket form alpha(X).<mu,Y> = <mu,[X,Y]>",
    "algebroid differential at degree n carries the sign (-1)^n relative to "
    "the alternating-sum convention, so d<f,X> = alpha(X).f at degree 0",
]


class CheckResult:
    """A check's verdict: `ok`, the failures, notes and the status.  The row
    of the runner's check table that runs the check gives it its id."""

    def __init__(self, ok, failures=None, notes=None, status=None):
        self.ok = bool(ok)
        self.failures = list(failures or [])
        self.notes = list(notes or [])
        self.status = status or ("pass" if self.ok else "fail")

    def __repr__(self):
        return f"CheckResult({self.status}, {len(self.failures)} failures)"


class CheckRecord:
    def __init__(self, check_id, status, failures=(), notes=(), details=None,
                 seconds=0.0, anchor=None):
        self.check_id = check_id
        self.anchor = anchor or check_id
        self.status = status
        self.failures = [tuple(str(part) for part in f) if isinstance(f, (tuple, list))
                         else (str(f),) for f in failures]
        self.notes = [str(n) for n in notes]
        self.details = details or {}
        self.seconds = seconds

    def to_dict(self, with_timing=True):
        out = {
            "check": self.check_id,
            "anchor": self.anchor,
            "status": self.status,
            "failures": [list(f) for f in self.failures],
            "notes": self.notes,
            "details": self.details,
        }
        if with_timing:
            out["seconds"] = round(self.seconds, 6)
        return out


class Report:
    def __init__(self, scenario_name, records=None, conventions=None):
        self.scenario_name = scenario_name
        self.records = list(records or [])
        self.conventions = list(conventions if conventions is not None
                                else CONVENTION_NOTES)

    def add(self, record: CheckRecord):
        self.records.append(record)

    @property
    def failed(self):
        return [r for r in self.records if r.status == "fail"]

    @property
    def summary(self):
        counts = {}
        for r in self.records:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    def to_dict(self, with_timing=True):
        return {
            "scenario": self.scenario_name,
            "records": [r.to_dict(with_timing) for r in self.records],
            "summary": self.summary,
            "conventions": self.conventions,
        }

    def to_json(self, with_timing=True):
        return json.dumps(self.to_dict(with_timing), indent=2, sort_keys=True)

    def canonical_json(self):
        """Deterministic rendering: the timing field is excluded."""
        return self.to_json(with_timing=False)

    def to_text(self):
        lines = [f"scenario: {self.scenario_name}",
                 "-" * 60]
        width = max((len(r.check_id) for r in self.records), default=10)
        for r in self.records:
            status = r.status.upper()
            lines.append(f"{r.check_id:<{width}}  {status:<19} [{r.anchor}]")
            for f in r.failures:
                lines.append(f"{'':<{width}}    failure: {': '.join(f)}")
            for n in r.notes:
                lines.append(f"{'':<{width}}    note: {n}")
            for key, val in r.details.items():
                lines.append(f"{'':<{width}}    {key}: {val}")
        lines.append("-" * 60)
        bits = [f"{k}: {v}" for k, v in sorted(self.summary.items())]
        lines.append("summary: " + (", ".join(bits) if bits else "no checks"))
        lines.append("conventions:")
        for c in self.conventions:
            lines.append(f"  * {c}")
        return "\n".join(lines) + "\n"
