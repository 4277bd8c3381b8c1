"""Exact rational scalars and their canonical text form.

The library computes with :class:`fractions.Fraction`, or with integers
over a known common denominator where that is faster; no floating point
value ever enters a computation.  The canonical text rendering is
``p/q`` in lowest terms with ``q > 0``, or a bare ``p`` when ``q == 1`` —
the form ``str(Fraction)`` already produces.  Parsing is deliberately
strict: decimal and exponent notation are rejected, never converted.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import digit_limit, quoted

_RATIONAL_RE = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse a canonical-style rational literal (``p`` or ``p/q``).

    Raises ValueError for anything else, including decimal notation, and
    for a run of digits longer than the interpreter's int-string limit
    (with the reason :func:`ury.errors.digit_limit` gives).
    Non-canonical but unambiguous forms such as ``2/4`` are accepted and
    normalised.
    """
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational literal: {quoted(text)}")
    sign, num, den = m.groups()
    num, den = parse_int(num), den and parse_int(den)
    if den == 0:
        raise ValueError(f"zero denominator: {quoted(text)}")
    value = Fraction(num, den) if den else Fraction(num)
    return -value if sign else value


def parse_int(text: str) -> int:
    """``int(text)``, but a run of digits longer than the interpreter's
    int-string limit is a ValueError with the library's reason
    (:func:`ury.errors.digit_limit`), not the interpreter's."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(digit_limit()) from None


def format_rational(q: Fraction) -> str:
    """Render ``q`` canonically: lowest terms, positive denominator."""
    return str(q)


def format_ratio(num: int, den: int) -> str:
    """Render ``num / den`` (``den > 0``) exactly as
    ``format_rational(Fraction(num, den))`` does, with one gcd and no
    Fraction."""
    g = gcd(num, den)
    num //= g
    den //= g
    return str(num) if den == 1 else f"{num}/{den}"


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, and strict literals to Fraction.

    Floats are rejected outright: silently converting one would smuggle
    binary rounding into an exact computation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError(
            f"floating point input {value!r} is not allowed; pass an exact rational"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")
