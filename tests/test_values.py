"""Exact value text: the digit limit on what can be written."""

from fractions import Fraction as F

import pytest

import multiagent_recourse as mr

LIMIT = 10**4300  # the least integer with 4301 digits


@pytest.mark.parametrize(
    "value, text",
    [
        (F(LIMIT - 1), "9" * 4300),
        (F(1 - LIMIT), "-" + "9" * 4300),
        (F(1, LIMIT - 1), "1/" + "9" * 4300),
        (F(1, 10**4300), "0." + "0" * 4299 + "1"),
    ],
    ids=["int", "negative", "denominator", "decimal"],
)
def test_writable_up_to_4300_digits(value, text):
    assert mr.format_value(value) == text
    if value.denominator == 1:
        assert mr.value_to_json(value) == value.numerator


@pytest.mark.parametrize(
    "value",
    [F(LIMIT), F(-LIMIT), F(1, 3 * LIMIT), F(3, LIMIT + 1), F(1, 2**15000)],
    ids=["int", "negative", "denominator", "fraction", "decimal-expansion"],
)
def test_more_than_4300_digits_is_out_of_range(value):
    with pytest.raises(mr.ValueRangeError, match="out of range"):
        mr.format_value(value)
    with pytest.raises(mr.ValueRangeError, match="out of range"):
        mr.value_to_json(value)


def test_field_readers_look_up_as_value_at_each_call(monkeypatch):
    # A tracer that rebinds values.as_value must see the readers' calls.
    from multiagent_recourse import values

    seen = []

    def spy(raw):
        seen.append(raw)
        return F(7)

    monkeypatch.setattr(values, "as_value", spy)
    assert values.read_value("1/2", "query", "t") == F(7)
    assert values.read_values(["1", "2"], "query", "domain") == (F(7), F(7))
    assert seen == ["1/2", "1", "2"]
