"""Exact values: the literal memo of ``as_value`` and the digit limit on what can be written."""

import json
import random
from fractions import Fraction as F
from pathlib import Path

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


# Values and the texts that read back to them.  The first four would count
# more than 4300 digits as decimals, leading zeros included, so they are
# written n/d; the next two are decimals of 4300 digits.
READ_BACK = {
    "3/2**14000": (F(3, 2**14000), "3/" + str(2**14000)),
    "1/2**4300": (F(1, 2**4300), "1/" + str(2**4300)),
    "7/5**6000": (F(7, 5**6000), "7/" + str(5**6000)),
    "big/2**7000": (F(10**2000 + 1, 2**7000), f"{10**2000 + 1}/{2**7000}"),
    "1/2**4299": (F(1, 2**4299), f"0.{str(5**4299).rjust(4299, '0')}"),
    "-1/10**4299": (F(-1, 10**4299), "-0." + "0" * 4298 + "1"),
    "7/2": (F(7, 2), "3.5"),
    "1/3": (F(1, 3), "1/3"),
}


# Literals whose mantissa has no digit before the point count a leading 0,
# as "0.5e-4299" does: their values need 4301 digits in any written form.
@pytest.mark.parametrize(
    "text",
    [".5e-4299", "-.5e-4299", " +.5E-4299", ".1e-4299", "." + "0" * 4299 + "5", "0.5e-4299"],
    ids=["point-5", "negative", "signed-spaced", "point-1", "long-point", "leading-zero"],
)
def test_a_literal_past_the_limit_is_refused(text):
    with pytest.raises(ValueError, match=r"is out of range \(more than 4300 digits\)"):
        mr.as_value(text)


def near_the_limit(rng: random.Random) -> str:
    """A literal whose digits and exponent sum to about 4300."""
    total = 4300 + rng.randint(-3, 1)
    before = rng.choice([0, 0, 1, rng.randint(0, 60)])
    after = rng.choice([0, 1, rng.randint(0, 60), rng.randint(0, total)])
    digits = [rng.choice("0000123456789") for _ in range(before + after)]
    if digits and rng.random() < 0.7:
        digits[-1] = rng.choice("123456789")
    point = "." if after or rng.random() < 0.2 else ""
    mantissa = "".join(digits[:before]) + point + "".join(digits[before:])
    exponent = max(0, total - before - after)
    spelled = rng.choice(["e-{}", "e{}", "E+{}", "e-{}", ""]).format(exponent)
    return rng.choice(["", "-", "+"]) + (mantissa or "0") + spelled


def test_every_literal_that_reads_is_written_back():
    rng = random.Random(4300)
    read = 0
    for _ in range(300):
        text = near_the_limit(rng)
        try:
            value = mr.as_value(text)
        except ValueError:
            continue
        read += 1
        assert mr.as_value(mr.format_value(value)) == value, text[:40]
    assert read > 100


def format_value_reference(v: F) -> str:
    """``format_value`` as it was, one big-integer division per factor of 2 or 5."""
    from multiagent_recourse.values import MAX_LITERAL_DIGITS, _fits, _writable

    if v.denominator == 1:
        return str(_writable(v.numerator))
    den = v.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = abs(v.numerator) * 10**digits // v.denominator
        if _fits(scaled) and (digits < MAX_LITERAL_DIGITS or not _fits(v.denominator)):
            text = str(scaled).rjust(digits + 1, "0")
            sign = "-" if v.numerator < 0 else ""
            return f"{sign}{text[:-digits]}.{text[-digits:]}"
    return f"{_writable(v.numerator)}/{_writable(v.denominator)}"


def test_format_value_agrees_with_the_division_loop():
    rng = random.Random(25)
    for _ in range(400):
        twos, fives = (rng.choice([0, rng.randint(0, 40), rng.randint(0, 5000)]) for _ in range(2))
        den = 2**twos * 5**fives * rng.choice([1, 1, 1, 3, 7, 2**61 - 1])
        num = rng.choice([1, -1, 3, rng.randint(-10**60, 10**60), 10 ** rng.randint(0, 4400)])
        value = F(num or 1, den)
        assert written(mr.format_value, value) == written(format_value_reference, value), value


def written(write, value):
    try:
        return write(value)
    except mr.ValueRangeError as exc:
        return str(exc)


def pd_matrix(value):
    return mr.PayoffMatrix("m", {(0, 0): (value, 5), (0, 1): (1, value), (1, 0): (10, 1), (1, 1): (3, 3)})


@pytest.mark.parametrize("value, text", list(READ_BACK.values()), ids=list(READ_BACK))
def test_every_value_that_reads_is_written_back(value, text, tmp_path):
    assert mr.format_value(value) == text
    assert mr.as_value(text) == value
    # A model file: the payoffs are the domain values and table outputs of h1 and h2.
    model = mr.pd_scm(pd_matrix(value))
    assert mr.scm_from_dict(json.loads(json.dumps(mr.scm_to_dict(model)))) == model
    # A matrix CSV file.
    path = tmp_path / "m.csv"
    path.write_text(mr.matrix_to_csv(pd_matrix(value)))
    assert mr.load_matrix_csv(path, matrix_id="m") == pd_matrix(value)


def test_field_readers_look_up_as_value_at_each_call(monkeypatch):
    # A tracer that rebinds values.as_value must see the readers' calls.
    from multiagent_recourse import files, values

    seen = []

    def spy(raw):
        seen.append(raw)
        return F(7)

    monkeypatch.setattr(values, "as_value", spy)
    assert files.read_value("1/2", "query", "t") == F(7)
    assert files.read_values(["1", "2"], "query", "domain") == (F(7), F(7))
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


@pytest.mark.parametrize(
    "raw, shown",
    [
        (" " * 100_000 + "x", "'" + " " * 37 + "...'"),
        ("abc" * 40_000, "'" + ("abc" * 13)[:37] + "...'"),
        ([1] * 100_000, "list value [1, 1, 1, 1, 1, 1, ...]"),
    ],
    ids=["padded", "letters", "list"],
)
def test_an_unreadable_literal_is_quoted_cut_to_40_characters(raw, shown):
    with pytest.raises(ValueError) as info:
        mr.as_value(raw)
    assert str(info.value).startswith(f"cannot interpret {shown} as a rational")
    assert len(str(info.value)) < 100


def _query(pd, **fields):
    """A two-agent query over the game model ``pd``, with ``fields`` changed."""
    agents, factual = {1: "h1", 2: "h2"}, {"x1": 0, "x2": 1}
    plain = dict(scm=pd, principal=1, agents=agents, factual=factual, feasible=[{"x1": 1}], constraints=[])
    return mr.RecourseQuery(**(plain | fields))


BIG = 10**5000  # past the digit limit: repr(BIG) raises ValueError
ASYMMETRIC = {(0, 0): (1, 1), (0, 1): (1, 2), (1, 0): (1, 1), (1, 1): (1, 1)}
QUERY_FILE = Path(__file__).parent / "data" / "solve" / "baseline.json"


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda pd: mr.query_from_dict(json.loads(QUERY_FILE.read_text()) | {"solver": BIG}), mr.ParseError),
        (lambda pd: mr.ExperimentConfig(exclude_identity=BIG), mr.InvalidParamsError),
        (lambda pd: mr.Threshold(1, 3, strict=BIG), mr.InvalidQueryError),
        (lambda pd: mr.PayoffMatrix("m", dict.fromkeys([(0, 0), (0, 1), (1, 0), (1, 1)], (BIG,))),
         mr.InvalidParamsError),
        (lambda pd: mr.solve(_query(pd, principal=BIG)), mr.InvalidQueryError),
        (lambda pd: mr.solve(_query(pd, agents={1: "h1", BIG: "x2"})), mr.InvalidQueryError),
        (lambda pd: mr.solve(_query(pd, constraints=[mr.Threshold(BIG, 3)])), mr.InvalidQueryError),
        (lambda pd: mr.PayoffMatrix("m", {(BIG, 0): (1, 1)}), mr.DomainError),
        (lambda pd: mr.PayoffMatrix("m", {BIG: (1, 1)}), mr.DomainError),
        (lambda pd: mr.PayoffMatrix(BIG, {(2, 0): (1, 1)}), mr.DomainError),
        (lambda pd: mr.PayoffMatrix(BIG, {(0, 0): 5}), mr.InvalidParamsError),
        (lambda pd: mr.PayoffMatrix(BIG, {(0, 0): (1, 1)}), mr.InvalidParamsError),
        (lambda pd: mr.builtin_matrix(BIG), mr.UnknownMatrixError),
        (lambda pd: mr.is_pd_ordered(mr.PayoffMatrix(BIG, ASYMMETRIC)), mr.AsymmetricMatrixError),
        (lambda pd: mr.synthetic_log_text(9, 1, {BIG: "x"}, 0), mr.InvalidParamsError),
        (lambda pd: mr.synthetic_log_text(9, 1, {BIG: 1, "table1": 0}, 0), mr.InvalidParamsError),
        (lambda pd: mr.synthetic_log_text(9, 1, {BIG: 1}, 0), mr.ValueRangeError),
        (lambda pd: mr.write_game_log(mr.generate_synthetic_log(9, 1, {BIG: 1}, 0)), mr.ValueRangeError),
        (lambda pd: mr.write_game_log([mr.GameRecord(BIG, "table1", "control", None, [(0, 1)])]),
         mr.ValueRangeError),
        (lambda pd: mr.GameRecord("g", "table1", "test", BIG, [(0, 1)]), mr.InvalidParamsError),
    ],
    ids=["files-reject", "flag-config", "flag-clause", "matrix-cell", "principal", "agent", "threshold-agent",
         "matrix-key-action", "matrix-key", "matrix-id-key", "matrix-id-cell", "matrix-id-incomplete",
         "builtin-id", "asymmetric-id", "mix-entry", "mix-sort", "mix-id-written", "log-matrix-id",
         "log-game-id", "record-delta"],
)
def test_a_rejected_int_past_the_limit_is_quoted_by_its_head(pd1, make, error):
    with pytest.raises(error) as info:
        make(pd1)
    assert type(info.value) is error
    assert "1" + "0" * 36 + "..." in str(info.value) and len(str(info.value)) < 120
