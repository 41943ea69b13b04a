"""Exact rational functions with poles confined to z_i = 0 and z_i = z_j.

A RatFun is a Laurent numerator over the rationals divided by a product of
difference factors (z_i - z_j), each stored as the pair (z_i, z_j) with z_i
first in canonical order (pole_diff writes any difference so).  Over Laurent
polynomials every z_i is a unit, so a pole at z_i = 0 is a negative exponent
of the numerator.  The canonical form divides every difference factor out of
the numerator as often as it goes; with that, two RatFuns represent the same
function iff their canonical data are equal.  (a - b) divides the numerator
iff the numerator vanishes at a = b, which one pass over its terms decides
before any division is done.  A sum of parts reaches its least common poles
by multiplying each numerator, in place, by the binomial row of every factor
it lacks.  Printing shows each variable's most negative exponent as a z_i^k
pole.

Region expansion turns a RatFun into the iterated Laurent series valid when
|z_{s(1)}| > ... > |z_{s(n)}| > 0, truncated to a finite exponent window:
every (z_i - z_j)^-N expands in nonnegative powers of whichever variable is
smaller in the region.  Raw (poles, numerator) parts expand the same way.
The iterate's expansion in |x2| > |x0| > 0 under z1 = x2 + x0, z2 = x2 is one
binomial sum per numerator monomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .halgebra import add_into, add_terms
from .laurent import LaurentPoly, Window, sort_vars, var_sort_key
from .scalars import NUMERATOR_TERMS, charge

# (a, b) stands for (a - b), names ordered a < b canonically
PoleFactor = Tuple[str, str]
# one term of a sum of rational functions: (poles, numerator)
Part = Tuple[Mapping[PoleFactor, int], LaurentPoly]


def pole_diff(a: str, b: str) -> Tuple[PoleFactor, int]:
    """Normalized difference factor and the sign of the normalization.

    pole_diff(a, b) stands for (a - b); if the canonical variable order puts
    b first, the stored factor is (b, a) and the sign is -1.
    """
    if a == b:
        raise ValueError("difference factor needs distinct variables")
    if var_sort_key(a) <= var_sort_key(b):
        return (a, b), 1
    return (b, a), -1


def pole_sort_key(f: PoleFactor):
    return var_sort_key(f[0]), var_sort_key(f[1])


class RatFun:
    """Canonical rational function: Laurent numerator over difference factors."""

    __slots__ = ("numer", "poles")

    def __init__(self, numer: LaurentPoly, poles: Mapping[PoleFactor, int] = ()):
        poles = dict(poles)
        for f, k in poles.items():
            if len(f) != 2 or pole_diff(*f) != (f, 1):
                raise ValueError(f"pole factor {f!r} is not a canonical difference")
            if k <= 0:
                raise ValueError("pole exponents must be positive")
        numer, poles = _reduce(numer, poles)
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "poles", poles)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def zero(cls) -> "RatFun":
        return cls(LaurentPoly.zero())

    @classmethod
    def const(cls, c) -> "RatFun":
        return cls(LaurentPoly.const(c))

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def __add__(self, other: "RatFun") -> "RatFun":
        return ratfun_arith(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return ratfun_eq(self, other)

    def __hash__(self):
        raise TypeError("RatFun is not hashable")

    def _printed(self):
        """The numerator and pole factors as printed, each factor as its
        (JSON, text) pair: every variable's most negative exponent shows as a
        var pole, first and in variable order, then the difference factors."""
        numer, factors = self.numer, []
        for v in numer.vars:
            k = -numer.min_exp(v)
            if k > 0:
                numer = numer.shift(v, k)
                factors.append(({"kind": "var", "var": v, "exponent": k}, f"{v}^{k}"))
        for (a, b), k in sorted(self.poles.items(), key=lambda kv: pole_sort_key(kv[0])):
            factors.append(({"kind": "diff", "a": a, "b": b, "exponent": k}, f"({a} - {b})^{k}"))
        return numer, factors

    def render(self) -> str:
        numer, factors = self._printed()
        num = numer.render()
        if not factors:
            return num
        if len(numer.terms) > 1:
            num = f"({num})"
        return f"{num} / ({' * '.join(text for _, text in factors)})"

    def __repr__(self):
        return f"RatFun({self.render()!r})"

    def to_json(self):
        numer, factors = self._printed()
        return {"numerator": numer.to_json(), "poles": [j for j, _ in factors]}


def _reduce(numer: LaurentPoly, poles: Dict[PoleFactor, int]):
    """Canonicalize over every variable of numerator and poles: each
    difference factor is divided out of the numerator while it goes."""
    if numer.is_zero():
        return LaurentPoly.zero(), {}
    numer = numer.align(numer.vars + tuple(v for f in poles for v in f))
    for f in list(poles):
        k = poles.pop(f)
        while k:
            q = numer._div_linear(*f)
            if q is None:
                poles[f] = k
                break
            numer, k = q, k - 1
    return numer, poles


def ratfun_arith(lhs: RatFun, rhs: RatFun) -> RatFun:
    """The canonical sum of two rational functions."""
    return ratfun_sum([(lhs.poles, lhs.numer), (rhs.poles, rhs.numer)])


def _over_common(parts: Iterable[Part], minus: Iterable[Part] = ()) -> Tuple[LaurentPoly, Dict]:
    """sum(numer / poles) over parts less over minus, as one numerator over the least common poles.

    Each numerator moves into the universe's exponent slots once; every pole
    factor (a - b)^k it lacks is then multiplied in place, term by term, with
    the signed binomial row (-1)^t C(k, t) at a^(k-t) b^t, and merged.  The
    part's last factor adds, signed, straight into the shared sum.
    """
    signed = [(part, 1) for part in parts] + [(part, -1) for part in minus]
    common: Dict[PoleFactor, int] = {}
    names = []
    for (poles, numer), _ in signed:
        names += numer.vars
        for f, k in poles.items():
            if k > common.get(f, 0):
                common[f] = k
    universe = sort_vars(names + [v for f in common for v in f])
    slot = {v: i for i, v in enumerate(universe)}
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for (poles, numer), sign in signed:
        cur = numer.align(universe).terms
        missing = [(f, k - poles.get(f, 0)) for f, k in common.items() if k > poles.get(f, 0)]
        if not missing:
            add_terms(terms, cur.items(), sign)
        for n, ((a, b), k) in enumerate(missing, 1):
            charge(len(cur) * (k + 1), NUMERATOR_TERMS)
            last = n == len(missing)
            row, r = [], sign if last else 1  # r = ±(-1)^t binom(k, t), one row step per term
            for t in range(k + 1):
                row.append((t, r))
                r = -r * (k - t) // (t + 1)
            acc = terms if last else {}
            ia, ib = slot[a], slot[b]  # ia < ib: a comes first in canonical order
            for e, c in cur.items():
                head, ea, mid, eb, tail = e[:ia], e[ia] + k, e[ia + 1:ib], e[ib], e[ib + 1:]
                add_terms(acc, (((*head, ea - t, *mid, eb + t, *tail), c * r) for t, r in row))
            cur = acc
    return LaurentPoly._raw(universe, terms), common


def ratfun_sum(parts: Iterable[Part]) -> RatFun:
    """The canonical sum of (poles, numerator) parts, canonicalized once; the
    empty sum is zero, and a lone part is already over its own poles."""
    parts = list(parts)
    if not parts:
        return RatFun.zero()
    if len(parts) == 1:
        return RatFun(parts[0][1], parts[0][0])
    return RatFun(*_over_common(parts))


def parts_eq(lhs: Iterable[Part], rhs: Iterable[Part]) -> bool:
    """Exact equality of two sums of parts, with no canonical form built:
    lhs - rhs has a zero numerator over the least common pole monomial."""
    return _over_common(lhs, rhs)[0].is_zero()


def ratfun_eq(lhs: RatFun, rhs: RatFun) -> bool:
    """Exact equality: canonical forms are unique, so equal poles and equal
    numerators."""
    return lhs.poles == rhs.poles and lhs.numer == rhs.numer


# -- region expansion ------------------------------------------------------


def expand_in_region(r: RatFun, region: Sequence[str], window: Window) -> LaurentPoly:
    """Iterated Laurent expansion of r in |region[0]| > |region[1]| > ... > 0.

    Every difference pole factor expands in nonnegative powers of the
    variable that comes later in the region.  Only coefficients inside the
    per-variable window are reliable; everything outside is discarded.
    """
    return expand_raw(r.numer, r.poles, region, window)


def expand_raw(
    numer: LaurentPoly, poles: Mapping[PoleFactor, int], region: Sequence[str], window: Window
) -> LaurentPoly:
    """Expansion of numer / prod(poles) without requiring canonical form.

    Expansion is linear in the numerator, so each numerator monomial's
    expansion comes from the memoized unit-monomial kernel, scaled.
    """
    region = tuple(region)
    missing = (set(numer.vars) | {v for f in poles for v in f}) - set(region)
    if missing:
        raise ValueError(f"region omits variables {sorted(missing)}")
    for v in region:
        if v not in window:
            raise ValueError(f"window missing bounds for {v}")
    base = numer.align(sort_vars(region))
    sig = tuple(sorted(poles.items()))
    bounds = tuple(tuple(window[v]) for v in region)
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for e, c in base.terms.items():
        add_terms(terms, _expand_monomial(e, sig, region, bounds), c)
    return LaurentPoly._raw(base.vars, terms)


# Bulk comparisons expand the same few monomials over and over: criterion 3's
# 625,745 calls touch 261 distinct keys (~0.4 kB each), well inside the bound.
@lru_cache(maxsize=1024)
def _expand_monomial(
    exps: Tuple[int, ...],
    poles: Tuple[Tuple[PoleFactor, int], ...],
    region: Tuple[str, ...],
    bounds: Tuple[Tuple[int, int], ...],
) -> Tuple[Tuple[Tuple[int, ...], Fraction], ...]:
    """Window-truncated expansion of the unit monomial exps / prod(poles).

    exps runs over sort_vars(region); bounds gives each region variable's
    window.  Returns the (exponents, coefficient) pairs inside the window.

    Each difference factor expands as sum_t C(n-1+t, t) big^(-n-t) small^t
    and is multiplied in with its big variable in region order.  In that
    order a variable only gains exponent before its own factors come, and
    only loses it after, so each term's series stops at one exact bound:
    where its big variable, less the pole orders still pending on it, would
    fall below its window floor, or where a small variable that is big in no
    factor would pass its window top.  A variable is cut to its window as
    soon as its exponent is final.
    """
    universe = sort_vars(region)
    slot = {v: i for i, v in enumerate(universe)}
    rank = {v: i for i, v in enumerate(region)}
    window = {slot[v]: b for v, b in zip(region, bounds)}
    base, sign = list(exps), 1
    mixed = []  # (rank of big, big slot, small slot, N)
    for (a, b), k in poles:
        big, small = (a, b) if rank[a] < rank[b] else (b, a)
        # (a-b)^-k = (-1)^k (b-a)^-k when b is the bigger variable
        if big == b and k % 2:
            sign = -sign
        mixed.append((rank[big], slot[big], slot[small], k))
    mixed.sort()
    pending = [0] * len(universe)  # pole orders of the factors still to come, by big slot
    last = {}  # slot -> index of the last factor that moves it
    for i, (_, big, small, n) in enumerate(mixed):
        pending[big] += n
        last[big] = last[small] = i

    def cut(terms, slots):
        final = {universe[s]: window[s] for s in slots}
        return LaurentPoly._raw(universe, terms).filter_window(final).terms

    terms = cut({tuple(base): sign}, [s for s in range(len(universe)) if s not in last])
    for i, (_, big, small, n) in enumerate(mixed):
        pending[big] -= n
        floor = window[big][0] + n + pending[big]
        nxt: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in terms.items():
            top = e[big] - floor
            if not pending[small]:
                top = min(top, window[small][1] - e[small])
            for t in range(top + 1):
                vec = list(e)
                vec[big] -= n + t
                vec[small] += t
                add_into(nxt, tuple(vec), c * comb(n - 1 + t, t))
        terms = cut(nxt, [s for s in (big, small) if last[s] == i])
    return tuple(terms.items())


# -- the iterate's region --------------------------------------------------


def expand_iterate(
    numer: LaurentPoly, poles: Mapping[PoleFactor, int], window: Window
) -> LaurentPoly:
    """Expansion of numer / prod(poles) over (z1, z2) in |x2| > |x0| > 0
    under z1 = x2 + x0, z2 = x2, cut to the window of x0 and x2.

    The pole z1 - z2 becomes x0; any other pole factor raises ValueError.
    Each numerator monomial z1^a z2^b over (z1 - z2)^k is
    (x2 + x0)^a x2^b x0^-k, and (x2 + x0)^a = sum_t C(a, t) x0^t x2^(a-t),
    which stops at t = a when a is nonnegative.
    """
    other = set(poles) - {("z1", "z2")}
    if other:
        raise ValueError(f"pole factors {sorted(other)} have no image in (x0, x2)")
    k = poles.get(("z1", "z2"), 0)
    (lo0, hi0), (lo2, hi2) = window["x0"], window["x2"]
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for (a, b), c in numer.align(("z1", "z2")).terms.items():
        s = a + b  # the t-th term sits at x0^(t-k) x2^(s-t)
        top = min(hi0 + k, s - lo2) if a < 0 else min(hi0 + k, s - lo2, a)
        for t in range(max(0, lo0 + k, s - hi2), top + 1):
            binom = comb(a, t) if a >= 0 else (-1) ** t * comb(t - a - 1, t)
            add_into(terms, (t - k, s - t), c * binom)
    return LaurentPoly._raw(("x0", "x2"), terms)


def uniform_window(variables: Iterable[str], lo: int, hi: int) -> Dict[str, Tuple[int, int]]:
    return {v: (lo, hi) for v in variables}
