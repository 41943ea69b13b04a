"""Sparse exact Laurent polynomials in several commuting variables.

A Laurent polynomial is a mapping from integer exponent vectors to nonzero
rational coefficients, together with an ordered tuple of variable names.
Variable tuples are always kept in canonical order (alphabetic prefix, then
numeric suffix, so x0 < x2 < z1 < z2 < z10), which makes exponent vectors of
two polynomials over the same universe positionally compatible.

Zero is the empty mapping.  All arithmetic is exact over the rationals; there
is no floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .halgebra import add_terms
from .scalars import format_rational, q, render_signed_sum

Exponents = Tuple[int, ...]
Window = Mapping[str, Tuple[int, int]]

_VAR_RE = re.compile(r"^(.*?)(\d*)$")


@lru_cache(maxsize=4096)
def var_sort_key(name: str) -> Tuple[str, int]:
    """Canonical ordering key: alphabetic prefix, then trailing number."""
    m = _VAR_RE.match(name)
    prefix, digits = m.group(1), m.group(2)
    return (prefix, int(digits) if digits else -1)


@lru_cache(maxsize=4096)
def _sorted_unique(names: Tuple[str, ...]) -> Tuple[str, ...]:
    return tuple(sorted(set(names), key=var_sort_key))


def sort_vars(names: Iterable[str]) -> Tuple[str, ...]:
    return _sorted_unique(tuple(names))


class LaurentPoly:
    """Immutable sparse Laurent polynomial over ordered variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Fraction]):
        svars = tuple(variables)
        if sort_vars(svars) != svars:
            raise ValueError(f"variables {svars} must be distinct and in canonical order")
        clean: Dict[Exponents, Fraction] = {}
        for e, c in terms.items():
            if len(e) != len(svars):
                raise ValueError("exponent vector length does not match variables")
            if c:
                clean[tuple(e)] = q(c)
        object.__setattr__(self, "vars", svars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _raw(cls, svars: Tuple[str, ...], terms: Dict[Exponents, Fraction]) -> "LaurentPoly":
        """Internal constructor: variables already canonical, terms already clean."""
        self = cls.__new__(cls)
        object.__setattr__(self, "vars", svars)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "LaurentPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, c, variables: Sequence[str] = ()) -> "LaurentPoly":
        c = q(c)
        if not c:
            return cls(variables, {})
        return cls(variables, {(0,) * len(sort_vars(variables)): c})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def align(self, variables: Sequence[str]) -> "LaurentPoly":
        """Embed into a (super)set of variables, inserting zero exponents."""
        svars = sort_vars(variables)
        if svars == self.vars:
            return self
        missing = set(self.vars) - set(svars)
        if missing:
            raise ValueError(f"cannot drop variables {sorted(missing)}")
        pos = {v: i for i, v in enumerate(self.vars)}
        slots = [pos.get(v) for v in svars]
        terms = {}
        for e, c in self.terms.items():
            terms[tuple(e[s] if s is not None else 0 for s in slots)] = c
        return LaurentPoly._raw(svars, terms)

    def _together(self, other: "LaurentPoly"):
        if self.vars == other.vars:
            return self, other
        union = sort_vars(self.vars + other.vars)
        return self.align(union), other.align(union)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._together(other)
        return a.terms == b.terms

    def __hash__(self):
        raise TypeError("LaurentPoly is not hashable")

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self._together(other)
        terms = dict(a.terms)
        add_terms(terms, b.terms.items())
        return LaurentPoly._raw(a.vars, terms)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self._together(other)
        terms: Dict[Exponents, Fraction] = {}
        for e1, c1 in a.terms.items():
            add_terms(terms, ((tuple(map(add, e1, e2)), c2) for e2, c2 in b.terms.items()), c1)
        return LaurentPoly._raw(a.vars, terms)

    def shift(self, var: str, delta: int) -> "LaurentPoly":
        """Multiply by var**delta."""
        i = self.vars.index(var)
        terms = {e[:i] + (e[i] + delta,) + e[i + 1:]: c for e, c in self.terms.items()}
        return LaurentPoly._raw(self.vars, terms)

    # -- queries ----------------------------------------------------------

    def min_exp(self, var: str) -> Optional[int]:
        if not self.terms:
            return None
        i = self.vars.index(var)
        return min(e[i] for e in self.terms)

    def filter_window(self, window: Window) -> "LaurentPoly":
        """Keep only terms whose exponents lie inside the window, per variable."""
        bounds = [window.get(v) for v in self.vars]
        terms = {}
        for e, c in self.terms.items():
            ok = True
            for x, b in zip(e, bounds):
                if b is not None and not (b[0] <= x <= b[1]):
                    ok = False
                    break
            if ok:
                terms[e] = c
        return LaurentPoly._raw(self.vars, terms)

    # -- exact division by a difference factor ----------------------------

    def _div_linear(self, a: str, b: str) -> Optional["LaurentPoly"]:
        """Exact quotient of a nonzero self by (a - b), a RatFun's difference
        factor; None when not divisible.

        self = (a - b) * quot + r, and the remainder r is self at a = b: one
        pass adds each term's a and b exponents into one slot, and any
        coefficient left means None.  Only a divisible self goes on to the
        synthetic division, viewed as a polynomial in `a` with Laurent
        coefficients in the remaining variables, from the lowest power of `a`
        up: that power is a unit, so negative exponents divide as any others.
        """
        ia = self.vars.index(a)
        ib = self.vars.index(b)
        lo, hi = sorted((ia, ib))
        rem: Dict[Exponents, Fraction] = {}
        add_terms(rem, ((e[:lo] + (e[lo] + e[hi],) + e[lo + 1:hi] + e[hi + 1:], c)
                        for e, c in self.terms.items()))
        if rem:
            return None
        coeffs: Dict[int, Dict[Exponents, Fraction]] = {}
        for e, c in self.terms.items():
            rest = e[:ia] + (0,) + e[ia + 1:]
            coeffs.setdefault(e[ia], {})[rest] = c
        quot: Dict[int, Dict[Exponents, Fraction]] = {}
        carry: Dict[Exponents, Fraction] = {}
        for k in range(max(coeffs), min(coeffs), -1):
            add_terms(carry, coeffs.get(k, {}).items())
            quot[k - 1] = carry
            carry = {e[:ib] + (e[ib] + 1,) + e[ib + 1:]: c for e, c in carry.items()}
        terms: Dict[Exponents, Fraction] = {}
        for k, d in quot.items():
            for e, c in d.items():
                terms[e[:ia] + (k,) + e[ia + 1:]] = c
        return LaurentPoly(self.vars, terms)

    # -- rendering -------------------------------------------------------

    def sorted_terms(self):
        """Terms ordered by descending total degree, then descending lex."""
        return sorted(
            self.terms.items(), key=lambda item: (-sum(item[0]), tuple(-x for x in item[0]))
        )

    def render(self) -> str:
        return render_signed_sum(
            (c, "*".join((v if k == 1 else f"{v}^{k}") for v, k in zip(self.vars, e) if k))
            for e, c in self.sorted_terms()
        )

    def __repr__(self):
        return f"LaurentPoly({self.render()!r}, vars={self.vars})"

    def to_json(self):
        return {
            "variables": list(self.vars),
            "terms": [
                {"exponents": list(e), "coeff": format_rational(c)}
                for e, c in self.sorted_terms()
            ],
        }
