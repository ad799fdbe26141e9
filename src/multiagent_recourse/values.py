"""Exact rational values.

Every feature value and payoff in this package is a ``fractions.Fraction`` so
that constraint checks are exact comparisons with no tolerance questions.
Floats only appear at parse boundaries and are read by their decimal literal
(``0.1`` means 1/10, not its binary expansion).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import ParseError

Value = Fraction


def as_value(raw: Any) -> Fraction:
    """Coerce ints, floats, Fractions, and "3.5" / "7/2" strings to Fraction."""
    try:
        if isinstance(raw, Fraction):
            return raw
        if isinstance(raw, bool):
            return Fraction(int(raw))
        if isinstance(raw, int):
            return Fraction(raw)
        if isinstance(raw, float):
            return Fraction(repr(raw))
        if isinstance(raw, str):
            return Fraction(raw.strip())
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot interpret {raw!r} as a rational value") from exc
    raise ValueError(f"cannot interpret {type(raw).__name__} value {raw!r} as a rational")


def format_value(v: Fraction) -> str:
    """Shortest exact text: "3" for integers, "3.5" when the decimal terminates, else "7/3"."""
    if v.denominator == 1:
        return str(v.numerator)
    den = v.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{v.numerator}/{v.denominator}"
    digits = max(twos, fives)
    scaled = abs(v.numerator) * 10**digits // v.denominator
    text = str(scaled).rjust(digits + 1, "0")
    sign = "-" if v.numerator < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def value_to_json(v: Fraction) -> int | str:
    """JSON form that round-trips through as_value: int when integral, string otherwise."""
    return v.numerator if v.denominator == 1 else format_value(v)


def load_json_exact(path: str | Path, noun: str) -> Any:
    """Read a JSON file, float literals as exact Fractions; ``noun`` names it in errors."""
    path = Path(path)
    try:
        return json.loads(path.read_text(), parse_float=Fraction)
    except OSError as exc:
        raise ParseError(f"cannot read {noun} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
