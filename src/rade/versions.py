"""Version ordering and constraint grammar for recipe dependencies.

Versions are compared component-wise after splitting on ``.``: when both
components are all digits they compare numerically (of any length, without
converting them to ``int``), otherwise as plain strings; the shorter version is
padded with ``"0"`` components.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import InvariantViolation, SchemaViolation

_ALL_DIGITS = re.compile(r"[0-9]+\Z")

EXACT = "exact"
AT_LEAST = "at-least"
RANGE = "range"


def _numeric_key(digits: str) -> tuple[int, str]:
    digits = digits.lstrip("0")
    return (len(digits), digits)


def _compare_component(a: str, b: str) -> int:
    if _ALL_DIGITS.match(a) and _ALL_DIGITS.match(b):
        a, b = _numeric_key(a), _numeric_key(b)
    return (a > b) - (a < b)


def version_cmp(a: str, b: str) -> int:
    """Three-way comparison of two dotted version strings."""
    pa = a.split(".")
    pb = b.split(".")
    width = max(len(pa), len(pb))
    pa += ["0"] * (width - len(pa))
    pb += ["0"] * (width - len(pb))
    for ca, cb in zip(pa, pb):
        c = _compare_component(ca, cb)
        if c != 0:
            return c
    return 0


version_key = functools.cmp_to_key(version_cmp)


def max_version(versions) -> str:
    return max(versions, key=version_key)


@dataclass(frozen=True)
class VersionConstraint:
    """One dependency constraint: ``=X``, ``>=X`` or ``>=X <Y`` (Y exclusive)."""

    kind: str
    low: str
    high: str | None = None

    def __post_init__(self):
        if self.kind not in (EXACT, AT_LEAST, RANGE):
            raise SchemaViolation(f"unknown constraint kind {self.kind!r}")
        if not self.low or (self.kind == RANGE and not self.high):
            raise SchemaViolation("constraint bounds must be non-empty")
        if self.kind == RANGE:
            if version_cmp(self.low, self.high) >= 0:
                raise InvariantViolation(
                    f"empty range: {self.low!r} is not below {self.high!r}"
                )
        elif self.high is not None:
            raise SchemaViolation(f"{self.kind} constraint takes no upper bound")

    @classmethod
    def parse(cls, text: str) -> VersionConstraint:
        """Parse a constraint string such as ``"=1.0"`` or ``">=1.2 <2.0"``."""
        parts = text.split()
        if len(parts) == 1:
            term = parts[0]
            if term.startswith(">="):
                return cls(AT_LEAST, term[2:])
            if term.startswith("="):
                return cls(EXACT, term[1:])
        elif len(parts) == 2:
            lo, hi = parts
            if lo.startswith(">=") and hi.startswith("<"):
                return cls(RANGE, lo[2:], hi[1:])
        raise SchemaViolation(f"unparseable version constraint {text!r}")

    def accepts(self, version: str) -> bool:
        if self.kind == EXACT:
            return version_cmp(version, self.low) == 0
        if self.kind == AT_LEAST:
            return version_cmp(version, self.low) >= 0
        return (
            version_cmp(version, self.low) >= 0
            and version_cmp(version, self.high) < 0
        )

    def __str__(self) -> str:
        if self.kind == EXACT:
            return f"={self.low}"
        if self.kind == AT_LEAST:
            return f">={self.low}"
        return f">={self.low} <{self.high}"
