"""Version ordering and constraint grammar for recipe dependencies.

Versions are compared component-wise after splitting on ``.``, the shorter
version padded with ``"0"`` components. An all-digit component compares
numerically (of any length, without converting it to ``int``) and sorts below
every other component; two other components compare as plain strings. This is
a total order: :func:`version_key` maps each version to a tuple that sorts in
it, and versions with equal keys, such as ``"1.0"`` and ``"1.0.0"``, are equal.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvariantViolation, SchemaViolation

_ALL_DIGITS = re.compile(r"[0-9]+\Z")

EXACT = "exact"
AT_LEAST = "at-least"
RANGE = "range"

# the key of a padding "0" component, which sorts below every other key
_ZERO = (0, (0, ""))


def _numeric_key(digits: str) -> tuple[int, str]:
    digits = digits.lstrip("0")
    return (len(digits), digits)


def _component_key(part: str) -> tuple:
    return (0, _numeric_key(part)) if _ALL_DIGITS.match(part) else (1, part)


def version_key(version: str) -> tuple:
    """The sort key of a dotted version: its component keys, without the
    trailing zero components that padding would add or match."""
    keys = [_component_key(part) for part in version.split(".")]
    while keys and keys[-1] == _ZERO:
        keys.pop()
    return tuple(keys)


def version_cmp(a: str, b: str) -> int:
    """Three-way comparison of two dotted version strings."""
    ka, kb = version_key(a), version_key(b)
    return (ka > kb) - (ka < kb)


def max_version(versions) -> str:
    """The greatest of ``versions``; of equal ones, the greatest string, so
    the result does not depend on their order."""
    return max(versions, key=lambda v: (version_key(v), v))


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
