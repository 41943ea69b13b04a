"""Exact rational functions with poles confined to z_i = 0 and z_i = z_j.

A RatFun is a polynomial numerator over the rationals divided by a product of
linear pole factors, each either a single variable z_i, a difference
(z_i - z_j), or (transiently, to support the change of variables used for
iterates) a sum (x_i + x_j).  The canonical form divides every pole factor out
of the numerator as often as it goes, folds negative variable exponents into
plain-variable poles, and normalizes (z_j - z_i) to -(z_i - z_j); with that,
two RatFuns represent the same function iff their canonical data are equal.

Region expansion turns a RatFun into the iterated Laurent series valid when
|z_{s(1)}| > ... > |z_{s(n)}| > 0, truncated to a finite exponent window:
every (z_i - z_j)^-N expands in nonnegative powers of whichever variable is
smaller in the region.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .halgebra import add_into, add_terms, det
from .laurent import LaurentPoly, Window, sort_vars, var_sort_key

# ("var", v) | ("diff", a, b) | ("sum", a, b), names ordered a < b canonically
PoleFactor = Tuple[str, ...]

_KIND_ORDER = {"var": 0, "diff": 1, "sum": 2}


def pole_var(v: str) -> PoleFactor:
    return ("var", v)


def pole_diff(a: str, b: str) -> Tuple[PoleFactor, int]:
    """Normalized difference factor and the sign of the normalization.

    pole_diff(a, b) stands for (a - b); if the canonical variable order puts
    b first, the stored factor is (b - a) and the sign is -1.
    """
    if a == b:
        raise ValueError("difference factor needs distinct variables")
    if var_sort_key(a) <= var_sort_key(b):
        return ("diff", a, b), 1
    return ("diff", b, a), -1


def pole_sum(a: str, b: str) -> PoleFactor:
    if a == b:
        raise ValueError("sum factor needs distinct variables")
    if var_sort_key(a) <= var_sort_key(b):
        return ("sum", a, b)
    return ("sum", b, a)


def pole_sort_key(f: PoleFactor):
    return (_KIND_ORDER[f[0]],) + tuple(var_sort_key(v) for v in f[1:])


def pole_vars(f: PoleFactor) -> Tuple[str, ...]:
    return f[1:]


def pole_poly(f: PoleFactor, k: int, variables: Sequence[str]) -> LaurentPoly:
    """The polynomial factor**k over the given variable universe."""
    universe = sort_vars(tuple(variables) + pole_vars(f))
    if f[0] == "var":
        return LaurentPoly.monomial(universe, {f[1]: k})
    a, b = f[1], f[2]
    sign = -1 if f[0] == "diff" else 1
    terms = {}
    for t in range(k + 1):
        exps = {a: k - t, b: t}
        vec = tuple(exps.get(v, 0) for v in universe)
        terms[vec] = Fraction(comb(k, t) * (sign ** t))
    return LaurentPoly(universe, terms)


class RatFun:
    """Canonical rational function: polynomial numerator over pole factors."""

    __slots__ = ("vars", "numer", "poles")

    def __init__(
        self,
        numer: LaurentPoly,
        poles: Mapping[PoleFactor, int] = (),
        _canonical: bool = False,
    ):
        poles = dict(poles)
        for f, k in poles.items():
            if f[0] not in _KIND_ORDER:
                raise ValueError(f"unknown pole factor kind {f!r}")
            if k <= 0:
                raise ValueError("pole exponents must be positive")
        if not _canonical:
            numer, poles = _reduce(numer, poles)
        variables = sort_vars(
            tuple(numer.vars) + tuple(v for f in poles for v in pole_vars(f))
        )
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "numer", numer.align(variables))
        object.__setattr__(self, "poles", poles)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def zero(cls) -> "RatFun":
        return cls(LaurentPoly.zero(), {}, _canonical=True)

    @classmethod
    def const(cls, c) -> "RatFun":
        return cls(LaurentPoly.const(c), {}, _canonical=True)

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "RatFun":
        return cls(p, {})

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def __add__(self, other: "RatFun") -> "RatFun":
        return ratfun_arith(self, other, "add")

    def __sub__(self, other: "RatFun") -> "RatFun":
        return ratfun_arith(self, other, "sub")

    def __mul__(self, other: "RatFun") -> "RatFun":
        return ratfun_arith(self, other, "mul")

    def __neg__(self) -> "RatFun":
        return RatFun(-self.numer, self.poles, _canonical=True)

    def scale(self, c) -> "RatFun":
        c = Fraction(c)
        if not c:
            return RatFun.zero()
        return RatFun(self.numer.scale(c), self.poles, _canonical=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return ratfun_eq(self, other)

    def __hash__(self):
        raise TypeError("RatFun is not hashable")

    def render(self) -> str:
        num = self.numer.render()
        if not self.poles:
            return num
        if len(self.numer.terms) > 1:
            num = f"({num})"
        parts = []
        for f, k in sorted(self.poles.items(), key=lambda kv: pole_sort_key(kv[0])):
            if f[0] == "var":
                parts.append(f"{f[1]}^{k}")
            elif f[0] == "diff":
                parts.append(f"({f[1]} - {f[2]})^{k}")
            else:
                parts.append(f"({f[1]} + {f[2]})^{k}")
        return f"{num} / ({' * '.join(parts)})"

    def __repr__(self):
        return f"RatFun({self.render()!r})"

    def to_json(self):
        factors = []
        for f, k in sorted(self.poles.items(), key=lambda kv: pole_sort_key(kv[0])):
            if f[0] == "var":
                factors.append({"kind": "var", "var": f[1], "exponent": k})
            else:
                factors.append({"kind": f[0], "a": f[1], "b": f[2], "exponent": k})
        return {"numerator": self.numer.to_json(), "poles": factors}


def _divide_once(p: LaurentPoly, f: PoleFactor) -> Optional[LaurentPoly]:
    if f[0] == "var":
        return p.div_var(f[1])
    if f[0] == "diff":
        return p.div_diff(f[1], f[2])
    return p.div_sum(f[1], f[2])


def _reduce(numer: LaurentPoly, poles: Dict[PoleFactor, int]):
    """Canonicalize: fold negative exponents into var poles, divide factors out."""
    if numer.is_zero():
        return LaurentPoly.zero(), {}
    universe = sort_vars(
        tuple(numer.vars) + tuple(v for f in poles for v in pole_vars(f))
    )
    numer = numer.align(universe)
    poles = dict(poles)
    for v in universe:
        m = numer.min_exp(v)
        if m is not None and m < 0:
            numer = numer.shift(v, -m)
            poles[pole_var(v)] = poles.get(pole_var(v), 0) - m
    for f in sorted(poles, key=pole_sort_key):
        k = poles[f]
        while k > 0:
            q = _divide_once(numer, f)
            if q is None:
                break
            numer, k = q, k - 1
        if k:
            poles[f] = k
        else:
            del poles[f]
    return numer, poles


def ratfun_canonicalize(r: RatFun) -> RatFun:
    """Recanonicalize (idempotent; constructors already canonicalize)."""
    return RatFun(r.numer, r.poles)


def ratfun_arith(lhs: RatFun, rhs: RatFun, op: str) -> RatFun:
    """Exact add/sub/mul of rational functions with restricted pole factors."""
    if op == "mul":
        if lhs.is_zero() or rhs.is_zero():
            return RatFun.zero()
        poles = dict(lhs.poles)
        add_terms(poles, rhs.poles.items())
        return RatFun(lhs.numer * rhs.numer, poles)
    if op not in ("add", "sub"):
        raise ValueError(f"unknown op {op!r}")
    universe = sort_vars(lhs.vars + rhs.vars)
    common: Dict[PoleFactor, int] = dict(lhs.poles)
    for f, k in rhs.poles.items():
        common[f] = max(common.get(f, 0), k)
    lnum = lhs.numer.align(universe)
    rnum = rhs.numer.align(universe)
    for f, k in common.items():
        dl = k - lhs.poles.get(f, 0)
        dr = k - rhs.poles.get(f, 0)
        if dl:
            lnum = lnum * pole_poly(f, dl, universe)
        if dr:
            rnum = rnum * pole_poly(f, dr, universe)
    num = lnum + rnum if op == "add" else lnum - rnum
    return RatFun(num, common)


def ratfun_eq(lhs: RatFun, rhs: RatFun) -> bool:
    """Exact equality as rational functions (no tolerance)."""
    if lhs.poles == rhs.poles:
        return lhs.numer == rhs.numer
    return ratfun_arith(lhs, rhs, "sub").is_zero()


# -- region expansion ------------------------------------------------------


def expand_in_region(r: RatFun, region: Sequence[str], window: Window) -> LaurentPoly:
    """Iterated Laurent expansion of r in |region[0]| > |region[1]| > ... > 0.

    Every difference or sum pole factor expands in nonnegative powers of the
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
    missing = (set(numer.vars) | {v for f in poles for v in pole_vars(f)}) - set(region)
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
    """
    window = dict(zip(region, bounds))
    rank = {v: i for i, v in enumerate(region)}
    base = LaurentPoly._raw(sort_vars(region), {exps: Fraction(1)})
    mixed = []  # (big, small, N, alternating_sign)
    for f, k in poles:
        if f[0] == "var":
            base = base.shift(f[1], -k)
        else:
            a, b = f[1], f[2]
            big, small = (a, b) if rank[a] < rank[b] else (b, a)
            if f[0] == "diff":
                # (a-b)^-k = (-1)^k (b-a)^-k when b is the bigger variable
                if big == b and k % 2:
                    base = base.scale(-1)
                mixed.append((big, small, k, 1))
            else:
                mixed.append((big, small, k, -1))

    # Bound the number of series terms needed per factor, from the top of the
    # region down: the factor's big variable can only lose exponent, so the
    # window floor for the big variable caps the series order.
    order: Dict[int, int] = {}
    small_slack: Dict[str, int] = {v: 0 for v in region}
    for v in region:
        idxs = [i for i, (big, _, _, _) in enumerate(mixed) if big == v]
        if not idxs:
            continue
        top = base.max_exp(v)
        sum_n = sum(mixed[i][2] for i in idxs)
        budget = top + small_slack[v] - sum_n - window[v][0]
        for i in idxs:
            order[i] = budget
            if budget >= 0:
                small_slack[mixed[i][1]] += budget
    if any(t < 0 for t in order.values()):
        return ()

    # Remaining-contribution ranges per variable, for pruning between factors.
    remaining_lo = {v: 0 for v in region}
    remaining_hi = {v: 0 for v in region}
    for i, (big, small, n, _) in enumerate(mixed):
        t = order[i]
        remaining_lo[big] += -n - t
        remaining_hi[big] += -n
        remaining_hi[small] += t

    universe = base.vars
    terms = dict(base.terms)
    vpos = {v: i for i, v in enumerate(universe)}
    for i, (big, small, n, alt) in enumerate(mixed):
        t_max = order[i]
        remaining_lo[big] -= -n - t_max
        remaining_hi[big] -= -n
        remaining_hi[small] -= t_max
        bslot, sslot = vpos[big], vpos[small]
        series = [
            (t, comb(n - 1 + t, t) * (alt ** t)) for t in range(t_max + 1)
        ]
        bounds = [(window[v][0] - remaining_hi[v], window[v][1] - remaining_lo[v]) for v in universe]
        nxt: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in terms.items():
            for t, sc in series:
                vec = list(e)
                vec[bslot] += -n - t
                vec[sslot] += t
                ok = True
                for x, (lo, hi) in zip(vec, bounds):
                    if x < lo or x > hi:
                        ok = False
                        break
                if not ok:
                    continue
                add_into(nxt, tuple(vec), c * sc)
        terms = nxt
    return tuple(LaurentPoly._raw(universe, terms).filter_window(window).terms.items())


# -- affine change of variables ---------------------------------------------

Affine = Mapping[str, object]  # {new_var: coeff, ..., "1": constant}


def _affine_parts(spec: Affine):
    coeffs = {}
    const = Fraction(0)
    for key, c in spec.items():
        c = Fraction(c)
        if key == "1":
            const = c
        elif c:
            coeffs[key] = c
    return coeffs, const


def substitute_vars(r: RatFun, mapping: Mapping[str, Affine]) -> RatFun:
    """Apply an invertible affine change of variables.

    `mapping` sends each variable of r to an affine combination of new
    variables, e.g. {"z1": {"x2": 1, "x0": 1}, "z2": {"x2": 1}}.  Pole factors
    must stay within the admissible family (a scalar multiple of a new
    variable, a difference, or a sum); otherwise ValueError is raised.
    """
    missing = set(r.vars) - set(mapping)
    if missing:
        raise ValueError(f"substitution missing variables {sorted(missing)}")
    parsed = {v: _affine_parts(spec) for v, spec in mapping.items()}
    new_vars = sort_vars([u for coeffs, _ in parsed.values() for u in coeffs])
    if mapping:
        if len(new_vars) != len(parsed):
            raise ValueError("substitution is not invertible (variable counts differ)")
        matrix = [
            [coeffs.get(u, Fraction(0)) for u in new_vars]
            for coeffs, _ in parsed.values()
        ]
        if not det(matrix):
            raise ValueError("substitution is not invertible (singular linear part)")

    assignments = {}
    for v in r.vars:
        coeffs, const = parsed[v]
        poly = LaurentPoly.zero(new_vars)
        for u, c in coeffs.items():
            poly = poly + LaurentPoly.monomial(new_vars, {u: 1}, c)
        if const:
            poly = poly + LaurentPoly.const(const, new_vars)
        assignments[v] = poly

    numer = r.numer.substitute(assignments)
    scale = Fraction(1)
    poles: Dict[PoleFactor, int] = {}
    for f, k in r.poles.items():
        signs = (1,) if f[0] == "var" else ((1, -1) if f[0] == "diff" else (1, 1))
        form: Dict[str, Fraction] = {}
        const = Fraction(0)
        for v, s in zip(pole_vars(f), signs):
            coeffs, c0 = parsed[v]
            const += s * c0
            add_terms(form, coeffs.items(), s)
        if const or not form or len(form) > 2:
            raise ValueError(f"pole factor {f} leaves the admissible family")
        if len(form) == 1:
            (u, c), = form.items()
            add_into(poles, pole_var(u), k)
            scale *= Fraction(1) / c ** k
        else:
            (u1, c1), (u2, c2) = sorted(form.items(), key=lambda kv: var_sort_key(kv[0]))
            if c1 == -c2:
                g, sign = pole_diff(u1, u2)
                add_into(poles, g, k)
                scale *= Fraction(1) / (sign * c1) ** k
            elif c1 == c2:
                add_into(poles, pole_sum(u1, u2), k)
                scale *= Fraction(1) / c1 ** k
            else:
                raise ValueError(f"pole factor {f} leaves the admissible family")
    return RatFun(numer.scale(scale), poles)


ITERATE_SUBSTITUTION = {"z1": {"x2": 1, "x0": 1}, "z2": {"x2": 1}}
ITERATE_SUBSTITUTION_INVERSE = {"x0": {"z1": 1, "z2": -1}, "x2": {"z2": 1}}
ITERATE_REGION = ("x2", "x0")


def product_region(n: int) -> Tuple[str, ...]:
    return tuple(f"z{i}" for i in range(1, n + 1))


def uniform_window(variables: Iterable[str], lo: int, hi: int) -> Dict[str, Tuple[int, int]]:
    return {v: (lo, hi) for v in variables}
