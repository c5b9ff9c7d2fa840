"""Exact rational scalars and their wire format.

Scalars are ``fractions.Fraction`` values throughout: canonical reduced
form and positive denominator come for free, and all arithmetic is exact.
The JSON wire format is a decimal integer string of ASCII digits,
optionally ``"p/q"`` with a sign on p only.
"""

from __future__ import annotations

import re
from fractions import Fraction

# ASCII digits only: \d, int() and Fraction() also take other Unicode digits
_INT_RE = re.compile(r"[+-]?[0-9]+")
_FRAC_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_int(s) -> int:
    """Parse a decimal integer string like ``"3"`` or ``"-2"``, surrounding
    blanks allowed; anything else is a ValueError."""
    if not isinstance(s, str) or not _INT_RE.fullmatch(s.strip()):
        raise ValueError(f"not an integer string: {s!r}")
    return int(s)


def parse_frac(s) -> Fraction:
    """Parse a fraction string like ``"3"`` or ``"-2/7"``; ints pass through.
    Anything else, a bool, a signed denominator or a zero denominator
    included, is a ValueError."""
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str) or not _FRAC_RE.fullmatch(s.strip()):
        raise ValueError(f"not a fraction string: {s!r}")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {s!r}") from None


def frac_str(x) -> str:
    """Canonical string for a rational: ``"p"`` when integral, else ``"p/q"``."""
    return str(Fraction(x))
