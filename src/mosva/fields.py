"""Vertex operators as normal-ordered products of derivative fields.

The vertex operator attached to a creation word a_1(-m_1)...a_k(-m_k)1 is the
normal-ordered product of the derivative fields (1/(m_j-1)!) d^{m_j-1} a_j(x).
Expanding each field into modes, the coefficient of a given power of x is a
finite sum of normal-ordered mode monomials: the mode n contributes the
integer binom(-n-1, m-1) and the power x^{-n-m}, so a fixed power pins the
total of n_j + m_j.

Enumeration of contributing mode tuples terminates because creation totals
are fixed by the requested power while annihilation totals are capped by how
far the target state sits above the module's minimum weight.  Everything here
is the direct, series-level evaluation; the closed-form contraction engine is
checked against it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, comb
from typing import Dict, Sequence, Tuple

from .halgebra import FreeElem, HSpace, NegWord, add_into, add_terms, word_weight
from .laurent import LaurentPoly, Window
from .modules import (
    DualFunctional,
    ModulePresentation,
    WElem,
    apply_mode_term,
    key_weight,
    pairing,
)

ModeMonomial = Tuple[Tuple[int, int], ...]  # ordered (basis index, mode) factors


@lru_cache(maxsize=65536)
def binomial(top: int, k: int) -> int:
    """Generalized binomial with integer top, nonnegative k; always an integer."""
    if k < 0:
        return 0
    if top >= 0:
        return comb(top, k)
    return (-1) ** k * comb(k - top - 1, k)


def field_coefficient(m: int, n: int) -> int:
    """Coefficient of the mode n in the order-(m-1) derivative field.

    (1/(m-1)!) d^{m-1}/dx^{m-1} of sum_n a(n) x^{-n-1} puts binom(-n-1, m-1)
    in front of a(n) x^{-n-m}.
    """
    if m < 1:
        raise ValueError("derivative order needs m >= 1")
    return binomial(-n - 1, m - 1)


def normal_order_monomial(mono: Sequence[Tuple[int, int]]) -> ModeMonomial:
    """Stable reordering: negative modes, then positive, then zero.

    Pure bookkeeping on the symbols; no contraction terms are produced, and
    factors keep their relative order inside each of the three groups.
    """
    neg = [f for f in mono if f[1] < 0]
    pos = [f for f in mono if f[1] > 0]
    zero = [f for f in mono if f[1] == 0]
    return tuple(neg + pos + zero)


def apply_monomial(
    h: HSpace,
    mod: ModulePresentation,
    mono: Sequence[Tuple[int, int]],
    word: NegWord,
    index: int,
    coeff: Fraction,
) -> WElem:
    """Apply a normal-ordered mode monomial to one basis pair, rightmost first.

    Zero and positive modes are walked individually; the creation block is a
    single prepend, which keeps the common creation-heavy case cheap.
    """
    ordered = normal_order_monomial(mono)
    split = 0
    for split, (_, n) in enumerate(ordered):
        if n >= 0:
            break
    else:
        split = len(ordered)
    creations = ordered[:split]
    if split == len(ordered):
        prefix = tuple((i, -n) for i, n in creations)
        return {(prefix + word, index): coeff}
    current: WElem = {(word, index): coeff}
    for i, n in reversed(ordered[split:]):
        nxt: WElem = {}
        for (w2, s2), c2 in current.items():
            for w3, s3, c3 in apply_mode_term(h, mod, i, n, w2, s2):
                add_into(nxt, (w3, s3), c2 * c3)
        if not nxt:
            return {}
        current = nxt
    if creations:
        prefix = tuple((i, -n) for i, n in creations)
        current = {(prefix + w2, s2): c2 for (w2, s2), c2 in current.items()}
    return current


@lru_cache(maxsize=120000)
def _mode_tuples(
    orders: Tuple[int, ...], lo: int, hi: int, budget: int, allow_zero: bool
) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Mode tuples with total in [lo, hi] and positive part at most budget.

    Returns (modes, integer coefficient prod binom(-n_j-1, m_j-1)) pairs,
    skipping tuples with a vanishing factor.  Positive totals beyond `budget`
    cannot act without dropping below the module's weight floor, so they are
    pruned.  Memoized: the same order profiles recur across words and pairs.
    """
    if not orders:
        return (((), 1),) if lo <= 0 <= hi else ()
    m = orders[0]
    rest = orders[1:]
    n_lo, n_hi = (lo - budget, budget) if rest else (lo, hi)
    out = []
    for n in range(n_lo, n_hi + 1):
        if n == 0 and not allow_zero:
            continue
        if n > 0 and n > budget:
            continue
        c = field_coefficient(m, n)
        if not c:
            continue
        if rest:
            sub_budget = budget - n if n > 0 else budget
            for tail, tc in _mode_tuples(rest, lo - n, hi - n, sub_budget, allow_zero):
                out.append(((n,) + tail, c * tc))
        else:
            out.append(((n,), c))
    return tuple(out)


def _budget(mod: ModulePresentation, w_weight: Fraction) -> int:
    slack = w_weight - mod.min_weight
    return int(slack)  # slack >= 0 and annihilation totals are integers


def vertex_coefficient(
    h: HSpace, mod: ModulePresentation, u: FreeElem, s: int, w: WElem
) -> WElem:
    """The mode u_s applied to w, where Y(u, x) = sum_s u_s x^{-s-1}.

    This is the x^{-s-1} coefficient of vertex_series: for each creation word
    of u, contributing mode tuples satisfy sum (n_j + m_j) = s + 1.
    """
    return vertex_series(h, mod, u, w, -s - 1, -s - 1).get(-s - 1, {})


def vertex_series(
    h: HSpace, mod: ModulePresentation, u: FreeElem, w: WElem, lo: int, hi: int
) -> Dict[int, WElem]:
    """Coefficients of Y(u, x)w for x-exponents in [lo, hi] (exact, possibly zero).

    One enumeration pass per (word of u, term of w): the x-exponent of a mode
    tuple is -(sum of n_j + m_j), so the range pins an interval of totals.
    """
    if lo > hi:
        raise ValueError("empty exponent range")
    out: Dict[int, WElem] = {}
    allow_zero = mod.has_zero_mode_action()
    for uword, ucoeff in u.items():
        wt_u = word_weight(uword)
        orders = tuple(m for _, m in uword)
        indices = tuple(i for i, _ in uword)
        t_lo, t_hi = -hi - wt_u, -lo - wt_u
        for (word, idx), wcoeff in w.items():
            budget = _budget(mod, key_weight(mod, (word, idx)))
            base = ucoeff * wcoeff
            for modes, c in _mode_tuples(orders, t_lo, t_hi, budget, allow_zero):
                mono = tuple(zip(indices, modes))
                applied = apply_monomial(h, mod, mono, word, idx, c if base == 1 else base * c)
                if not applied:
                    continue
                e = -(sum(modes) + wt_u)
                slot = out.get(e)
                if slot is None:
                    slot = out[e] = {}
                add_terms(slot, applied.items())
    return {e: elem for e, elem in out.items() if elem}


def series_lower_bound(h: HSpace, mod: ModulePresentation, u: FreeElem, w: WElem) -> int:
    """Largest L with Y(u, x)w free of x-exponents below L.

    The coefficient at x^e has weight wt(u) + wt(w) + e, which cannot drop
    below the module's weight floor.
    """
    if not u or not w:
        return 0
    best = None
    for uword in u:
        for key in w:
            bound = mod.min_weight - word_weight(uword) - key_weight(mod, key)
            best = bound if best is None else min(best, bound)
    return ceil(best)


def product_series_bruteforce(
    h: HSpace,
    mod: ModulePresentation,
    us: Sequence[FreeElem],
    w: WElem,
    f: DualFunctional,
    window: Window,
) -> LaurentPoly:
    """Window-truncated expansion of <f, Y(u_1, z1)...Y(u_n, zn) w>.

    Valid in |z1| > ... > |zn| > 0.  Intermediate states are pruned exactly:
    a term is dropped only when no remaining exponent choices can bring its
    weight back to a weight present in f.
    """
    n = len(us)
    names = [f"z{j + 1}" for j in range(n)]
    for v in names:
        if v not in window:
            raise ValueError(f"window missing bounds for {v}")
    f_weights = {key_weight(mod, key) for key in f}
    u_ranges = []
    for u in us:
        ws = [word_weight(word) for word in u] or [0]
        u_ranges.append((min(ws), max(ws)))

    states: Dict[Tuple[int, ...], WElem] = {(): dict(w)}
    for j in range(n - 1, -1, -1):
        lo, hi = window[names[j]]
        rem_lo = sum(window[names[t]][0] + u_ranges[t][0] for t in range(j))
        rem_hi = sum(window[names[t]][1] + u_ranges[t][1] for t in range(j))
        nxt: Dict[Tuple[int, ...], WElem] = {}
        for tail, elem in states.items():
            series = vertex_series(h, mod, us[j], elem, lo, hi)
            for e, coeff_elem in series.items():
                kept = {
                    key: c
                    for key, c in coeff_elem.items()
                    if any(
                        key_weight(mod, key) + rem_lo <= fw <= key_weight(mod, key) + rem_hi
                        for fw in f_weights
                    )
                }
                if not kept:
                    continue
                add_terms(nxt.setdefault((e,) + tail, {}), kept.items())
        states = {k: v for k, v in nxt.items() if v}
        if not states:
            break

    terms = {}
    for exps, elem in states.items():
        value = pairing(f, elem)
        if value:
            terms[exps] = value
    return LaurentPoly(names, terms)
