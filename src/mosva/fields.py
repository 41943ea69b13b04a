"""Vertex operators as normal-ordered products of derivative fields.

The vertex operator attached to a creation word a_1(-m_1)...a_k(-m_k)1 is the
normal-ordered product of the derivative fields (1/(m_j-1)!) d^{m_j-1} a_j(x).
Expanding each field into modes, the coefficient of a given power of x is a
finite sum of normal-ordered mode monomials: the mode n contributes the
integer binom(-n-1, m-1) and the power x^{-n-m}, so a fixed power pins the
total of n_j + m_j.

Enumeration of contributing mode tuples terminates because creation totals
are fixed by the requested power while annihilation totals are capped by how
far the target state sits above the module's minimum weight.  The factors
split into annihilating modes n >= 0 and creation slots (each n <= -m); a
mode -m < n < 0 has a vanishing coefficient, so the two parts miss no tuple.
A positive mode only removes a letter of its own order, so the annihilating
modes come from the word's letters, and positive and zero modes commute, so
acting right to left is the normal-ordered action.  The splits grow from the
rightmost factor leftwards and each annihilating step acts once on the
element of its right part, so splits sharing a right part share its action
and a step that kills the pair ends every split that extends it.  Creation
modes only prepend letters to a word, so every creation fill of a split's
slots is one prepend and one scaling of its element, and a dual basis pair's
leading letters fix the one fill that can reach it.  One memo, _mode_tuples,
keyed by the slots' (basis index, order) pairs, holds each slot profile's
fills at a total as prepended letters and a coefficient; the oracle's series
and the engine's bulk tables both read it, and the series scales a split's
element once and adds each fill straight into its coefficient.
Everything here is the direct, series-level evaluation; the closed-form
contraction engine is checked against it.  The product and iterate series
enumerate no exponent that cannot reach the interval between the dual's
least and greatest weight.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import ceil, comb, floor
from typing import Dict, List, Sequence, Tuple

from .halgebra import FreeElem, HSpace, NegWord, add_into, add_terms, word_weight
from .laurent import LaurentPoly, Window
from .modules import (
    DualFunctional,
    ModulePresentation,
    WElem,
    _apply_mode,
    free_to_state,
    key_weight,
    pairing,
    state_to_free,
)
from .scalars import MODE_TERMS, charge, check_exact


@lru_cache(maxsize=65536)
def binomial(top: int, k: int) -> int:
    """Generalized binomial with integer top, nonnegative k; always an integer."""
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


@lru_cache(maxsize=120000)
def _mode_tuples(slots: Tuple[Tuple[int, int], ...], total: int) -> Tuple[Tuple[NegWord, int], ...]:
    """Creation fills of the slots' (basis index i_j, order m_j) pairs at
    `total`: per way to take each n_j <= -m_j summing to it, (the letters
    (i_j, -n_j) it prepends, integer coefficient prod binom(-n_j-1, m_j-1)),
    which never vanishes.  Every later n_j is at most -m_j, so the first mode
    is at least total + sum of the later orders.  Memoized: slot profiles
    recur across words and pairs, and both fill steps read it, the oracle's
    series and the engine's bulk tables.
    """
    if not slots:
        return (((), 1),) if total == 0 else ()
    (i, m), rest = slots[0], slots[1:]
    if not rest:  # the last slot takes the whole remaining total
        return ((((i, -total),), field_coefficient(m, total)),) if total <= -m else ()
    out = []
    for n in range(total + sum(r for _, r in rest), -m + 1):
        c = field_coefficient(m, n)
        for letters, tc in _mode_tuples(rest, total - n):
            out.append((((i, -n),) + letters, c * tc))
    return tuple(out)


def annihilation_splits(
    h: HSpace,
    mod: ModulePresentation,
    factors: Sequence[Tuple[int, int]],
    word: NegWord,
    index: int,
) -> List[Tuple[Tuple, int, int, int, WElem]]:
    """The splits of the fields `factors` into annihilating modes and creation
    slots, each applied to the basis pair (word, index).

    The splits grow from the rightmost factor leftwards, from the pair itself.
    A slot leaves a split's element as it is; an annihilating mode (0 when
    zero modes act, else one of the word's letter orders, within the pair's height
    above the module's weight floor) acts on it once through _apply_mode, so
    splits sharing a right part share its action, and a split whose element
    dies drops with all its extensions.  Each surviving step charges its
    applied terms.  Returns (split, None per slot; its annihilation total; its
    slots' orders summed; prod binom(-n-1, m-1) over its modes; its element)
    per surviving split, ordered by split with None before the modes, so the
    leftmost position decides first.
    """
    # annihilation totals are integers, so the pair's height rounds down
    budget = int(key_weight(mod, (word, index)) - mod.min_weight)
    admissible = ((0,) if mod.has_zero_mode_action() else ()) + tuple(sorted({m for _, m in word}))
    splits = [((), 0, 0, 1, {(word, index): 1})]
    for i, m in reversed(factors):
        grown = [((None,) + split, total, s + m, c, elem) for split, total, s, c, elem in splits]
        for n in admissible:
            for split, total, s, c, elem in splits:
                if total + n <= budget:
                    applied = _apply_mode(h, mod, i, n, elem)
                    if applied:
                        charge(len(applied), MODE_TERMS)
                        grown.append(((n,) + split, total + n, s, c * field_coefficient(m, n), applied))
        splits = grown
    return splits


def vertex_series(
    h: HSpace, mod: ModulePresentation, u: FreeElem, w: WElem, lo: int, hi: int
) -> Dict[int, WElem]:
    """Coefficients of Y(u, x)w for x-exponents in [lo, hi] (exact, possibly zero).

    The x-exponent of a mode tuple is -(sum of n_j + m_j), so the range pins
    an interval of totals.  Per (word of u, term of w), each split of
    annihilation_splits is scaled once, and its slots' creation fills at each
    total they reach, _mode_tuples at the total less the split's
    annihilation total, add it straight into the exponent's coefficient,
    one prepend per fill.
    """
    if lo > hi:
        raise ValueError("empty exponent range")
    check_exact(u, w)
    out: Dict[int, WElem] = {}
    for uword, ucoeff in u.items():
        wt_u = word_weight(uword)
        t_lo, t_hi = -hi - wt_u, -lo - wt_u
        for (word, idx), wcoeff in w.items():
            base = ucoeff * wcoeff
            for split, p_total, s, c, applied in annihilation_splits(h, mod, uword, word, idx):
                slots = tuple(f for f, n in zip(uword, split) if n is None)
                # slots reach every total up to top; a split with no slot, top alone
                top = p_total - s
                reached = range(t_lo if slots else max(top, t_lo), min(top, t_hi) + 1)
                if not reached:
                    continue
                scale = c * base
                scaled = [(w2, s2, v * scale) for (w2, s2), v in applied.items()]
                for t in reached:
                    # one fill per way to spread top - t over the slots, counted unbuilt
                    charge(binomial(top - t + len(slots) - 1, top - t) * len(applied), MODE_TERMS)
                    coeff = out.setdefault(-(t + wt_u), {})
                    for prefix, fc in _mode_tuples(slots, t - p_total):
                        for w2, s2, v in scaled:
                            add_into(coeff, (prefix + w2, s2), v if fc == 1 else v * fc)
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

    Valid in |z1| > ... > |zn| > 0.  The operators act right to left, and
    each exponent is pinned by weight before it is asked for.  On a valid
    module, whose zero modes preserve weight, the z^e coefficient of Y(u, z)
    on a basis pair has weight wt(u word) + wt(pair) + e, and the operators
    left of position j add a weight in [sum_t<j (lo_t + min wt u_t),
    sum_t<j (hi_t + max wt u_t)].  So each (word of u_j, state key) is asked
    only for the exponents from which a weight between f's least and
    greatest is still reachable: at the leftmost operator, exactly the
    exponents that land in that interval.  A state inside the interval whose
    weight f does not carry pairs to zero.
    """
    check_exact(*us, w, f)
    names = [f"z{j + 1}" for j in range(len(us))]
    states = product_series_states(h, mod, us, w, {key_weight(mod, key) for key in f}, window)
    return LaurentPoly(names, {exps: pairing(f, elem) for exps, elem in states.items()})


def product_series_states(
    h: HSpace, mod: ModulePresentation, us: Sequence[FreeElem], w: WElem, f_weights, window: Window
) -> Dict[Tuple[int, ...], WElem]:
    """The window's coefficients of Y(u_1, z1)...Y(u_n, zn) w, by exponent
    tuple, keeping the states whose weight lies between the least and the
    greatest of f_weights (none when f_weights is empty)."""
    names = [f"z{j + 1}" for j in range(len(us))]
    for v in names:
        if v not in window:
            raise ValueError(f"window missing bounds for {v}")
    if not f_weights:
        return {}
    f_lo, f_hi = min(f_weights), max(f_weights)
    states: Dict[Tuple[int, ...], WElem] = {(): dict(w)}
    for j in reversed(range(len(us))):
        lo, hi = window[names[j]]
        s0 = sum(window[names[t]][0] + min(map(word_weight, us[t]), default=0) for t in range(j))
        s1 = sum(window[names[t]][1] + max(map(word_weight, us[t]), default=0) for t in range(j))
        nxt: Dict[Tuple[int, ...], WElem] = {}
        for tail, elem in states.items():
            for (uword, uc), (key, c) in product(us[j].items(), elem.items()):
                base = word_weight(uword) + key_weight(mod, key)
                e_lo, e_hi = max(lo, ceil(f_lo - s1 - base)), min(hi, floor(f_hi - s0 - base))
                if e_lo <= e_hi:
                    series = vertex_series(h, mod, {uword: uc}, {key: c}, e_lo, e_hi)
                    for e, coeff in series.items():
                        add_terms(nxt.setdefault((e,) + tail, {}), coeff.items())
        states = {k: v for k, v in nxt.items() if v}
    return states


def iterate_series_bruteforce(
    h: HSpace,
    mod: ModulePresentation,
    u1: FreeElem,
    u2: FreeElem,
    f: DualFunctional,
    w: WElem,
    window: Window,
) -> LaurentPoly:
    """Window-truncated expansion of <f, Y(Y(u1, x0)u2, x2)w> in (x0, x2).

    The inner series Y(u1, x0)u2 is taken on the trivial module over the x0
    window; each of its coefficients v then goes through the one-operator
    product series <f, Y(v, x2)w>, which pins x2 by weight.
    """
    triv = ModulePresentation.trivial(h.dim)
    inner = vertex_series(h, triv, u1, free_to_state(u2), *window["x0"])
    terms = {}
    for e0, velem in inner.items():
        outer = product_series_bruteforce(h, mod, [state_to_free(velem)], w, f, {"z1": window["x2"]})
        terms.update(((e0, e2), c) for (e2,), c in outer.terms.items())
    return LaurentPoly(("x0", "x2"), terms)
