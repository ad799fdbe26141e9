"""Exact rational values.

Every feature value and payoff in this package is a ``fractions.Fraction`` so
that constraint checks are exact comparisons with no tolerance questions.
Every literal of a model, query, log or matrix becomes one through
``as_value``, which remembers the int and short string literals it has read.
Floats only appear at parse boundaries and are read by their decimal literal
(``0.1`` means 1/10, not its binary expansion).

The base classes of the package's record types live here too, and
``lazy_names``, through which a module serves a name still read where it was.
The readers of JSON fields (``read_object`` and the rest) are in ``files``.
"""

from __future__ import annotations

import importlib
import reprlib
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NoReturn

from .errors import ParseError, ValueRangeError

Value = Fraction

# Python's default limit on int/str conversion (sys.get_int_max_str_digits).
MAX_LITERAL_DIGITS = 4300
# The least integer with more than MAX_LITERAL_DIGITS digits, and its bit length:
# an integer with fewer bits is below it.
_TOO_MANY_DIGITS = 10**MAX_LITERAL_DIGITS
_TOO_MANY_DIGITS_BITS = _TOO_MANY_DIGITS.bit_length()


def _shown(text: str) -> str:
    """``text`` cut to at most 40 characters, for quoting in an error message."""
    return text if len(text) <= 40 else text[:37] + "..."


def bounded_literal(text: str) -> str:
    """Return ``text`` unless its exact value could need more than MAX_LITERAL_DIGITS digits.

    The check reads only the digit count and the exponent, so a literal such
    as ``1e999999999`` is rejected before any big integer is built.  Digits
    plus the exponent's size bound the digits of both numerator and
    denominator.  A mantissa with no digit before the point counts one more,
    as if written with a leading 0: ``.5e-4299`` is refused as ``0.5e-4299``
    is, since its value needs 4301 digits in any text that reads.
    """
    if len(text) <= MAX_LITERAL_DIGITS and "e" not in text and "E" not in text:
        return text  # at most MAX_LITERAL_DIGITS digits and no exponent
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0") or "0"
    digits = sum(c.isdecimal() for c in mantissa)
    whole, point, _ = mantissa.partition(".")
    digits += bool(point) and not any(c.isdecimal() for c in whole)
    # A malformed exponent is left for Fraction to reject.
    if exponent.isdecimal() and (
        len(exponent) > len(str(MAX_LITERAL_DIGITS))
        or digits + int(exponent) > MAX_LITERAL_DIGITS
    ):
        raise ValueError(
            f"numeric literal {_shown(text)!r} is out of range "
            f"(more than {MAX_LITERAL_DIGITS} digits)"
        )
    return text


# How many distinct int and string literals ``as_value`` remembers, and the
# longest string it remembers: a longer one (padding is valid) is read at each
# call, so the memo holds no long texts alive.
_LITERAL_MEMO_SIZE = 1024
_MEMO_TEXT_LENGTH = 64


def as_value(raw: Any) -> Fraction:
    """The exact value of an int, a float, a Fraction, or a "3.5" / "7/2" / "1e-3" string.

    A Fraction is returned as it is.  Int literals and short string literals
    are read through one bounded memo shared by every model, query and log,
    so a literal seen again costs a lookup.  Anything else is converted at
    each call.  A bool is not a number here: JSON ``true`` is no way to write 1.
    """
    kind = type(raw)
    if kind is Fraction:
        return raw
    # Exact types: a bool is converted, and rejected, at each call.
    if kind is int or (kind is str and len(raw) <= _MEMO_TEXT_LENGTH):
        return _read_literal(raw)
    return _convert(raw)


def _convert(raw: Any) -> Fraction:
    if isinstance(raw, str):
        bounded_literal(raw)
    try:
        if isinstance(raw, Fraction):
            return raw
        if isinstance(raw, int) and not isinstance(raw, bool):
            return Fraction(raw)
        if isinstance(raw, float):
            return Fraction(repr(raw))
        if isinstance(raw, str):
            return Fraction(raw.strip())
    except (ValueError, ZeroDivisionError, OverflowError) as exc:  # a string, or a float nan or inf
        shown = _shown(raw) if isinstance(raw, str) else raw
        raise ValueError(f"cannot interpret {shown!r} as a rational value") from exc
    raise ValueError(
        f"cannot interpret {type(raw).__name__} value {shown_repr(raw)} as a rational"
    )


# A literal that fails is not remembered: it raises again at each call.
_read_literal = lru_cache(maxsize=_LITERAL_MEMO_SIZE)(_convert)


def _fits(n: int) -> bool:
    """Whether ``n``'s decimal text has at most MAX_LITERAL_DIGITS digits."""
    return n.bit_length() < _TOO_MANY_DIGITS_BITS or abs(n) < _TOO_MANY_DIGITS


def _writable(n: int) -> int:
    """``n`` unless its decimal text would need more than MAX_LITERAL_DIGITS digits."""
    if not _fits(n):
        raise ValueRangeError(
            f"a result is out of range (more than {MAX_LITERAL_DIGITS} digits)"
        )
    return n


def format_value(v: Fraction) -> str:
    """Shortest exact text: "3" for integers, "3.5" when the decimal terminates, else "7/3".

    A terminating decimal whose text would have more than MAX_LITERAL_DIGITS
    digits, leading zeros counted as the readers count them, is written "n/d"
    when its numerator and denominator have no more.  Raises ValueRangeError
    when an integer in the text (numerator, denominator, or the digits of the
    decimal) would need more than MAX_LITERAL_DIGITS digits, Python's limit
    on converting an int to text.
    """
    if v.denominator == 1:
        return str(_writable(v.numerator))
    den = v.denominator
    twos = (den & -den).bit_length() - 1
    den >>= twos
    # The fives bit by bit, from the highest 5**(2**k) that divides den down.
    fives, power, count, powers = 0, 5, 1, []
    while den % power == 0:
        powers.append((power, count))
        power, count = power * power, 2 * count
    for power, count in reversed(powers):
        if den % power == 0:
            den //= power
            fives += count
    if den == 1:
        digits = max(twos, fives)
        # At least abs(v.numerator), since 10**digits is a multiple of the denominator.
        scaled = abs(v.numerator) * 10**digits // v.denominator
        # Its text has max(digits + 1, digits of scaled) digits, which the readers
        # refuse past the limit: then n/d is written, unless d is past it too.
        if _fits(scaled) and (digits < MAX_LITERAL_DIGITS or not _fits(v.denominator)):
            text = str(scaled).rjust(digits + 1, "0")
            sign = "-" if v.numerator < 0 else ""
            return f"{sign}{text[:-digits]}.{text[-digits:]}"
    return f"{_writable(v.numerator)}/{_writable(v.denominator)}"


def shown_value(v: Fraction) -> str:
    """``v`` quoted for an error message: as ``format_value`` writes it, cut like
    a quoted literal (``_shown``).

    A value past the digit limit is quoted as the head of ``n/d`` (or ``n``),
    cut the same way, rather than refused with a ValueRangeError.
    """
    try:
        return _shown(format_value(v))
    except ValueRangeError:
        if v.denominator == 1:
            return _shown(_head(v.numerator))
        return _shown(f"{_head(v.numerator)}/{_head(v.denominator)}")


class _Repr(reprlib.Repr):
    def repr_int(self, x: int, level: int) -> str:
        return super().repr_int(x, level) if _fits(x) else _shown(_head(x))


# ``raw`` quoted for an error message by ``reprlib.repr``, save that an int past
# the digit limit, which has no text, is quoted as the head of its digits.
shown_repr = _Repr().repr


def quoted(raw: Any, form: Callable[[Any], str] = repr) -> str:
    """``form(raw)`` (``repr`` or ``str``) for an error message, or ``shown_repr(raw)``
    where ``form`` refuses, as it does for an int past the digit limit."""
    try:
        return form(raw)
    except ValueError:
        return shown_repr(raw)


def _head(n: int) -> str:
    """The leading digits of ``n``'s decimal text, at least 44 of them (all when
    fewer): the digits past those are divided off first, so even an ``n`` too
    long for ``str`` is converted in time linear in its size."""
    # At least 44 digits are left: bit_length * 0.30103 exceeds the digit count by under 1.
    excess = max(0, int(abs(n).bit_length() * 0.30103) - 45)
    return ("-" if n < 0 else "") + str(abs(n) // 10**excess)


def value_to_json(v: Fraction) -> int | str:
    """JSON form that round-trips through as_value: int when integral, string otherwise."""
    return _writable(v.numerator) if v.denominator == 1 else format_value(v)


def read_file(path: Path, noun: str, newline: str | None = None) -> str:
    """The text of ``path``, read as UTF-8 with ``open``'s ``newline`` (CSV
    readers pass "", so that a line break in a quoted field reads back as it
    was written); a file that cannot be read or decoded is a ParseError that
    calls it a ``noun`` file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {noun} file {path}: {exc}") from exc


def bom_note(text: str) -> str:
    """What to add to a header error on ``text``: a note when the text starts
    with a UTF-8 byte-order mark, which no editor shows, else nothing."""
    return " (the text starts with a UTF-8 byte-order mark)" if text.startswith("\ufeff") else ""


def checked_flag(record: Record, field: str, raw: Any, error: type[Exception]) -> bool:
    """``raw`` if it is a bool, never read by its truth value; else ``error``."""
    if type(raw) is not bool:
        owner = type(record).__name__
        raise error(f"{owner} field {field!r} must be True or False, got {shown_repr(raw)}")
    return raw


def lazy_names(module: str, homes: Mapping[str, Iterable[str]]) -> Callable[[str], Any]:
    """A module ``__getattr__`` (PEP 562) that serves each name listed in
    ``homes`` from the sibling module it is listed under, imported on first
    access, and binds it into ``module`` so that a later read is a plain
    attribute read.  Any other name costs one lookup before its AttributeError."""
    served = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str) -> Any:
        home = served.get(name)
        if home is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__package__}.{home}"), name)
        setattr(sys.modules[module], name, value)
        return value

    return __getattr__


# ----------------------------------------------------------------- records


class Record:
    """Base of the package's record types: ``==`` and ``repr`` over ``_fields``.

    A subclass declares ``__slots__``, writes its own ``__init__`` and names its
    compared fields, in order, in ``_fields``.  A record equals only records of
    its own class, and is unhashable (it defines ``__eq__`` but no ``__hash__``).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _set(self, *values: Any) -> None:
        """Set the ``_fields``, in order, to ``values``."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _exact(cls, *values: Any) -> Any:
        """The record of ``values``, in ``_fields`` order, taken as they are:
        already exact, and no default left to fill in."""
        record = cls.__new__(cls)
        record._set(*values)
        return record

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record that hashes its fields and refuses assignment; its ``__init__``
    sets them through ``_set``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: Any) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:  # copy and pickle through __init__, not by assignment
        return self.__class__, self._key()
