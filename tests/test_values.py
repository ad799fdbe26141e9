"""Exact values: the literal memo of ``as_value`` and the digit limit on what can be written."""

import random
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


def spellings(rng):
    """Literals of every kind ``as_value`` is given: numbers, texts, and non-numbers."""
    ints = [rng.randint(-(10**6), 10**6) for _ in range(300)] + [10**5000, -(10**4400)]
    texts = []
    for _ in range(900):
        n, d = rng.randint(-999, 999), rng.randint(0, 99)
        pad = rng.choice(["", " ", "\t", " \n "])
        texts.append(
            pad
            + rng.choice(
                [
                    f"{n}",
                    f"{n}/{d}",  # d may be 0
                    f"{n}.{d:02d}",
                    f"{n}e{rng.randint(-40, 40)}",
                    f"{n}.{d}E+{rng.randint(0, 9)}",
                    f"{n}//{d}",
                    f"{n}.{d}.{d}",
                    f"0x{d}",
                ]
            )
            + pad
        )
    texts += ["", " ", "abc", "1/", "e5", "1e", "nan", "inf", "1_000", "١٢"]
    texts += ["1" * 5000, "1e999999", "1e4301", "1.5e-4299", " 1e999999999 ", "1" * 4300]
    floats = [rng.uniform(-100, 100) for _ in range(100)]
    floats += [0.1, -0.0, 1e300, float("inf"), float("nan")]
    others = [True, False, None, [1], {"a": 1}, (1,), F(3, 7), F(-1, 2), F(0)]
    return ints + texts + floats + others


def outcome(read, raw):
    try:
        value = read(raw)
    except Exception as exc:  # the type and message must match, whatever they are
        return type(exc), str(exc)
    assert type(value) is F
    return value


def test_memo_reads_every_literal_as_a_fresh_conversion_does():
    from multiagent_recourse import values

    rng = random.Random(8)
    pool = spellings(rng)
    assert len(pool) > values._read_literal.cache_info().maxsize  # some are evicted
    expected = [outcome(values._convert, raw) for raw in pool]
    hits = values._read_literal.cache_info().hits
    for _ in range(4):
        for k in rng.sample(range(len(pool)), len(pool)):
            raw = pool[k]
            assert outcome(mr.as_value, raw) == outcome(mr.as_value, raw) == expected[k], raw
    assert values._read_literal.cache_info().hits > hits


def test_a_bool_is_never_read_from_the_memo():
    assert mr.as_value(1) == 1 and mr.as_value(0) == 0
    for raw in (True, False):
        with pytest.raises(ValueError, match="cannot interpret bool value"):
            mr.as_value(raw)


def test_memo_is_bounded():
    from multiagent_recourse import values

    for n in range(3000):
        mr.as_value(str(n))
    info = values._read_literal.cache_info()
    assert info.maxsize == 1024
    assert info.currsize <= info.maxsize


def test_memo_holds_no_long_texts():
    from multiagent_recourse import values

    info = values._read_literal.cache_info()
    assert mr.as_value(" " * 10**6 + "1") == 1
    with pytest.raises(ValueError, match="cannot interpret"):
        mr.as_value("1" * 100 + "x")
    assert values._read_literal.cache_info() == info
