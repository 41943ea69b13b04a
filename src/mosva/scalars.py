"""Exact rational scalars: parsing and rendering of p/q strings and sums."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional, Tuple


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (optionally signed) into an exact Fraction.

    Raises ValueError on anything else; never produces a float.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            p, q = int(num), int(den)
        except ValueError:
            raise ValueError(f"bad rational literal {text!r}") from None
        if q == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(p, q)
    try:
        return Fraction(int(s))
    except ValueError:
        raise ValueError(f"bad rational literal {text!r}") from None


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def render_signed_sum(
    terms: Iterable[Tuple[Fraction, str]],
    show_unit: Optional[Callable[[str], bool]] = None,
) -> str:
    """Render (coefficient, body) terms as "b1 - 2*b2 + 1/2*b3"; "0" when empty.

    An empty body stands for the coefficient alone.  A coefficient of
    magnitude one is left off its body unless show_unit(body) is true.
    """
    out = ""
    for c, body in terms:
        mag = abs(c)
        if not body:
            body = format_rational(mag)
        elif mag != 1 or (show_unit is not None and show_unit(body)):
            body = f"{format_rational(mag)}*{body}"
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = f"-{body}" if c < 0 else body
    return out or "0"
