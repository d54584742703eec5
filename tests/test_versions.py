from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rade.errors import InvariantViolation, SchemaViolation
from rade.versions import VersionConstraint, max_version, version_cmp, version_key


def oracle_cmp(a: str, b: str) -> int:
    """Independent re-statement of the ordering rule for cross-checking."""
    pa, pb = a.split("."), b.split(".")
    while len(pa) < len(pb):
        pa.append("0")
    while len(pb) < len(pa):
        pb.append("0")
    for x, y in zip(pa, pb):
        if x.isdigit() and y.isdigit():
            x, y = int(x), int(y)
        elif x.isdigit() or y.isdigit():  # a number sorts below anything else
            x, y = not x.isdigit(), not y.isdigit()
        if x < y:
            return -1
        if x > y:
            return 1
    return 0


def test_numeric_components_compare_numerically():
    assert version_cmp("1.10", "1.2") > 0
    assert version_cmp("1.2", "1.10") < 0
    assert version_cmp("2", "10") < 0


def test_shorter_version_padded_with_zeros():
    assert version_cmp("1.0", "1.0.0") == 0
    assert version_cmp("1", "1.0.1") < 0


def test_non_numeric_components_compare_lexicographically():
    assert version_cmp("1.0a", "1.0b") < 0
    assert version_cmp("1.rc1", "1.0") > 0  # "rc1" vs "0", lexicographic


def test_numbers_sort_below_other_components():
    assert version_cmp("1a", "9") > 0
    assert version_cmp("1a", "10") > 0
    assert version_cmp("1..2", "1.0.2") > 0  # "" is not a number
    for order in itertools.permutations(["1a", "10", "9"]):
        assert max_version(order) == "1a"


def test_max_version_of_equal_versions_is_the_greatest_string():
    assert max_version(["1.0.0", "1", "1.0"]) == "1.0.0"
    assert max_version(["1.0", "1.0.0", "1"]) == "1.0.0"


def test_max_version_uses_component_ordering():
    assert max_version({"1.1", "1.2", "1.10"}) == "1.10"


def test_sorting_with_version_key():
    versions = ["1.10", "1.2", "1.1", "2.0"]
    assert sorted(versions, key=version_key) == ["1.1", "1.2", "1.10", "2.0"]
    mixed = ["1a", "01.1", "9", "1", "1.rc1"]
    assert sorted(mixed, key=version_key) == ["1", "01.1", "1.rc1", "9", "1a"]


versions_st = st.lists(
    st.one_of(st.integers(0, 99).map(str), st.sampled_from(["a", "rc1", "beta"])),
    min_size=1,
    max_size=4,
).map(".".join)


@given(versions_st, versions_st)
def test_cmp_agrees_with_oracle(a, b):
    assert version_cmp(a, b) == oracle_cmp(a, b)


@given(versions_st, versions_st, versions_st)
def test_cmp_transitive(a, b, c):
    if version_cmp(a, b) <= 0 and version_cmp(b, c) <= 0:
        assert version_cmp(a, c) <= 0


# digit runs with leading zeros, letters, mixes of both and empty components
mixed_versions_st = st.lists(st.text("0129abz", max_size=4), min_size=1, max_size=4).map(
    ".".join
)


@settings(derandomize=True, max_examples=300)
@given(st.lists(mixed_versions_st, min_size=1, max_size=5))
def test_version_order_is_total(versions):
    for a, b in itertools.product(versions, repeat=2):
        assert version_cmp(a, b) == -version_cmp(b, a) == oracle_cmp(a, b)
    for a, b, c in itertools.product(versions, repeat=3):
        if version_cmp(a, b) <= 0 and version_cmp(b, c) <= 0:
            assert version_cmp(a, c) <= 0
    results = {max_version(order) for order in itertools.permutations(versions)}
    assert results == {max_version(versions)}


class TestConstraintParsing:
    def test_exact(self):
        c = VersionConstraint.parse("=1.0")
        assert (c.kind, c.low, c.high) == ("exact", "1.0", None)

    def test_at_least(self):
        c = VersionConstraint.parse(">=1.2")
        assert (c.kind, c.low, c.high) == ("at-least", "1.2", None)

    def test_range(self):
        c = VersionConstraint.parse(">=1.2 <2.0")
        assert (c.kind, c.low, c.high) == ("range", "1.2", "2.0")

    @pytest.mark.parametrize("text", ["~1.0", "1.0", ">= 1.0", "<2.0", ">=", "=", ""])
    def test_rejects_unknown_forms(self, text):
        with pytest.raises(SchemaViolation):
            VersionConstraint.parse(text)

    def test_rejects_empty_range(self):
        with pytest.raises(InvariantViolation):
            VersionConstraint.parse(">=2.0 <1.0")

    def test_string_round_trip(self):
        for text in ("=1.0", ">=1.2", ">=1.2 <2.0"):
            assert str(VersionConstraint.parse(text)) == text


class TestConstraintSemantics:
    def test_exact_matches_equal_versions(self):
        c = VersionConstraint.parse("=1.0")
        assert c.accepts("1.0")
        assert c.accepts("1.0.0")  # equal under component ordering
        assert not c.accepts("1.1")

    def test_at_least_is_inclusive(self):
        c = VersionConstraint.parse(">=1.2")
        assert c.accepts("1.2")
        assert c.accepts("1.10")
        assert not c.accepts("1.1")

    def test_range_upper_bound_exclusive(self):
        c = VersionConstraint.parse(">=1.2 <2.0")
        assert c.accepts("1.2")
        assert c.accepts("1.9")
        assert not c.accepts("2.0")
        assert not c.accepts("2.1")


def test_component_longer_than_int_conversion_limit():
    # more digits than Python converts to int by default (4300)
    huge = "9" * 5000
    assert version_cmp("1", huge) < 0
    assert version_cmp(huge, "1") > 0
    assert version_cmp("1." + huge, "1.0" + huge) == 0
    assert version_cmp(huge[:-1] + "8", huge) < 0
    assert max_version({"2", huge, "10"}) == huge


# long digit runs with leading zeros, within the int conversion limit
digit_versions_st = st.lists(
    st.text("0123456789", min_size=1, max_size=40), min_size=1, max_size=3
).map(".".join)


@given(digit_versions_st, digit_versions_st)
def test_long_numeric_components_agree_with_oracle(a, b):
    assert version_cmp(a, b) == oracle_cmp(a, b)
