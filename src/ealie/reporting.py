"""Uniform pass/fail records shared by the verification suites and the CLI."""

from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["CheckResult", "AxiomReport", "jsonable"]


def jsonable(value):
    """Deterministic JSON-safe rendering of witness payloads."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if hasattr(value, "finite") and hasattr(value, "lattice"):
        return {"finite": list(value.finite), "lattice": list(value.lattice)}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(v) for v in value), key=repr)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return repr(value)


@dataclass
class CheckResult:
    """One named exact check: outcome plus an optional concrete witness."""

    name: str
    passed: bool
    detail: str = ""
    witness: dict | None = None

    def as_json(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "witness": jsonable(self.witness) if self.witness else None,
        }


@dataclass
class AxiomReport:
    """A named suite of checks with instance metadata."""

    suite: str
    results: list
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def as_json(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "metadata": jsonable(self.metadata),
            "results": [r.as_json() for r in self.results],
        }
