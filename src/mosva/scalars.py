"""Exact rational scalars: normalization, and parsing and rendering of p/q
strings and sums; and the work meter that bounds the library's loops.

Constructors normalize each coefficient through q: an int when integral, a
Fraction otherwise.  Results are not normalized again, so fractional inputs
can give an integral Fraction, equal in value and hash to its int; integral
inputs stay on int throughout, whose arithmetic skips Fraction's gcd work.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

Scalar = Union[int, Fraction]


def q(x) -> Scalar:
    """The exact scalar x: an int when integral, else a Fraction.

    Accepts ints, Fractions and anything else Fraction takes exactly; raises
    TypeError on a float or a bool, which would otherwise become a
    coefficient silently.
    """
    if type(x) is int:
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"coefficients must be exact, got {type(x).__name__} {x!r}")
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def check_exact(*elems) -> None:
    """Raise q's TypeError if any element dict holds a float or bool
    coefficient: hand-built elements do not pass through q."""
    for elem in elems:
        for c in elem.values():
            if isinstance(c, (float, bool)):
                q(c)


def parse_rational(text: str) -> Scalar:
    """Parse "p/q" or "p" (optionally signed) into an exact scalar.

    Raises ValueError on anything else; never produces a float.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            p, d = int(num), int(den)
        except ValueError:
            raise ValueError(f"bad rational literal {text!r}") from None
        if d == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return q(Fraction(p, d))
    try:
        return int(s)
    except ValueError:
        raise ValueError(f"bad rational literal {text!r}") from None


def format_rational(x: Scalar) -> str:
    """Render a scalar as "p/q", or "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def render_signed_sum(
    terms: Iterable[Tuple[Scalar, str]],
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


# -- the work meter: the hot loops charge the work they are about to do, in
# batches.  It is module state, so no loop takes a parameter for it; it is off
# unless a work_budget block is open, and a memo hit charges nothing

_left: Optional[int] = None  # what the open block's budget has left
# the stages that charge, each in its own unit
PATTERNS, MODE_TERMS = "contraction patterns", "applied mode terms"
NUMERATOR_TERMS, LETTERS = "numerator terms", "rewritten letters"


class WorkLimit(Exception):
    """A work_budget block passed its budget; args[0] names the charging loop."""


def charge(units: int, stage: str) -> None:
    """Count units of work done by the loop `stage`: a None test while unmetered."""
    global _left
    if _left is not None:
        _left -= units
        if _left < 0:
            raise WorkLimit(stage)


@contextmanager
def work_budget(units: Optional[int]) -> Iterator[None]:
    """Meter the block's charges against `units` (None: off), restored on any exit."""
    global _left
    saved, _left = _left, units
    try:
        yield
    finally:
        _left = saved
