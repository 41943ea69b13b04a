"""Closed-form contraction of products and iterates of vertex operators.

A product of normal-ordered groups of derivative fields reduces to a sum of
terms, each a pole monomial times one surviving normal-ordered product.  The
contraction pairs always join a factor of an earlier group to a factor of a
later group; for one two-group step the pattern set is every pair of
equal-size subsets together with every bijection between them, each pattern
counted once.  (Restricting to one order-reversing pairing per subset pair
undercounts: on a(-1)a(-1)1 squared the two-point value is 2/(z1-z2)^4, not
1/(z1-z2)^4, as two annihilation routes survive.)  The noncommutativity shows
up elsewhere: surviving factors keep their original order within each group,
and that order is what the resulting creation words remember.

A pair (left factor of order m at x, right factor of order n at y) contributes
the scalar n * (a, b) * binom(-n-1, m-1) and the pole (x - y)^(m+n), kept as
the pair (x, y).  Products fold this step left to right over z1, z2, ..., so
every pole is (z_i - z_j) with i < j.  An iterate contracts u1 at x2+x0
against u2 at x2; with z1 = x2+x0 and z2 = x2 each pole x0 is (z1 - z2) and
each survivor sits at z1 or z2, so its terms are the product's terms.

The fold is bilinear in its operands, so it folds whole elements: each word
of operand j sits at z(j+1), scaled by its coefficient, and after every
operand the terms of equal poles and residual are summed, zero sums dropped.
It depends only on the form and the operands, not on the state, dual or
module they are later paired with, so each tuple of operands is contracted
once, in a bounded memo.  Pairing a term's residual with a state splits the
same way: its annihilation steps on one basis pair are memoized apart from
any dual, and both fill steps read that one memo.  The bulk tables take each
split's creation fills up to a weight cap from the oracle's fill memo,
fields._mode_tuples; a product query reads them off its dual's words and
adds each matched fill, times the dual's and the term's coefficients,
straight into one fresh numerator per residual.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, floor
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

from .halgebra import FreeElem, HSpace, NegWord, add_into, add_terms
from .laurent import LaurentPoly, sort_vars
from .modules import (
    DualFunctional,
    ModulePresentation,
    WElem,
    key_weight,
)
from .fields import _mode_tuples, annihilation_splits, binomial, field_coefficient
from .ratfun import Part, PoleFactor, RatFun, ratfun_sum
from .scalars import MODE_TERMS, PATTERNS, charge, check_exact, q

# a derivative-field factor bound to a variable: (variable, basis index, order)
TaggedFactor = Tuple[str, int, int]


class ContractionTerm(NamedTuple):
    """scalar * prod(pole factors)^(-exponent) * normal-ordered residual; the
    poles are sorted (factor, exponent) pairs, so equal poles are equal keys."""

    scalar: Fraction
    poles: Tuple[Tuple[PoleFactor, int], ...]
    residual: Tuple[TaggedFactor, ...]


def commutator_pm(h: HSpace, a: int, m: int, b: int, n: int) -> Tuple[Fraction, int]:
    """Scalar and pole exponent of one annihilation/creation contraction.

    The order-(m-1) derivative annihilation field at x against the order-(n-1)
    derivative creation field at y collapses to
    n*(a,b)*binom(-n-1, m-1) * (x-y)^-(m+n).
    """
    if m < 1 or n < 1:
        raise ValueError("derivative orders must be >= 1")
    return n * h.pairing(a, b) * binomial(-n - 1, m - 1), m + n


def _pattern_pairs(k: int, l: int) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """Index pairings between a k-factor and an l-factor group.

    Every pair of equal-size subsets and every bijection between them, once
    each; their count is charged before the first.
    """
    charge(sum(comb(k, i) * comb(l, i) * factorial(i) for i in range(min(k, l) + 1)), PATTERNS)
    for i in range(min(k, l) + 1):
        for ps in combinations(range(k), i):
            for qs in combinations(range(l), i):
                for perm in permutations(ps):
                    yield tuple(zip(perm, qs))


def _contract_tagged(
    h: HSpace,
    left: Sequence[TaggedFactor],
    right: Sequence[TaggedFactor],
    scalar: Fraction,
    poles: Tuple[Tuple[PoleFactor, int], ...],
) -> List[ContractionTerm]:
    """Every nonvanishing contraction pattern of two tagged groups.

    A pair of left factor at x and right factor at y contributes
    (x - y)^-(m+n), stored as the pair (x, y).  Each term carries the given
    scalar and poles times its own.
    """
    out = []
    for pairs in _pattern_pairs(len(left), len(right)):
        term_scalar = scalar
        term_poles = dict(poles)
        for p, q in pairs:
            lv, a, m = left[p]
            rv, b, n = right[q]
            c, exponent = commutator_pm(h, a, m, b, n)
            if not c:
                break
            term_scalar *= c
            add_into(term_poles, (lv, rv), exponent)
        else:
            used_p = {p for p, _ in pairs}
            used_q = {q for _, q in pairs}
            residual = tuple(f for t, f in enumerate(left) if t not in used_p) + tuple(
                f for t, f in enumerate(right) if t not in used_q
            )
            out.append(ContractionTerm(term_scalar, tuple(sorted(term_poles.items())), residual))
    return out


def reduce_blocks(h: HSpace, us: Sequence[FreeElem]) -> List[ContractionTerm]:
    """Left-to-right fold of the two-group contraction over operand elements.

    Each word of element j sits at z(j+1), scaled by its coefficient; from
    the empty residual, each word is contracted against the survivors of the
    elements before it, so every pole is (z_i - z_j) with i < j by
    construction.  After each element the terms are summed per (poles,
    residual), zero sums dropped.  Variable tags travel with their factors,
    so the merged residual remembers where each survivor came from.
    """
    terms = [ContractionTerm(1, (), ())]
    for j, u in enumerate(us):
        merged: Dict[Tuple, Fraction] = {}
        for word, coeff in u.items():
            right = tuple((f"z{j + 1}", i, m) for i, m in word)
            for t in terms:
                for new in _contract_tagged(h, t.residual, right, t.scalar * coeff, t.poles):
                    add_into(merged, (new.poles, new.residual), new.scalar)
        terms = [ContractionTerm(s, poles, r) for (poles, r), s in merged.items()]
    return terms


# -- the contraction memo: each tuple of operands folded once --------------------


@lru_cache(maxsize=1024)
def _elem_terms(
    h: HSpace, us: Tuple[Tuple[Tuple[NegWord, Fraction], ...], ...]
) -> Tuple[ContractionTerm, ...]:
    """reduce_blocks on the operands given by their sorted items; every query
    on the same form and operands shares the entry."""
    return tuple(reduce_blocks(h, [dict(items) for items in us]))


# -- the table builder ---------------------------------------------------------


@lru_cache(maxsize=100000)
def _pairing_table_cached(
    h: HSpace,
    mod: ModulePresentation,
    residual: Tuple[TaggedFactor, ...],
    w_items: Tuple[Tuple[Tuple[Tuple, int], Fraction], ...],
    cap: Fraction,
) -> Mapping[Tuple[Tuple, int], LaurentPoly]:
    """Apply a normal-ordered residual to w, keyed by resulting basis pair.

    The bulk tables' fill step, over the same annihilation memo as
    _dual_fill: `w_items` is w's sorted items, and each split a pair of w
    leaves takes every creation fill whose letters keep its weight within
    `cap`, from _mode_tuples of its slots' (basis index, order) pairs, the
    oracle's fill memo; each slot's exponent gains its letter's order.
    Returns, per basis pair, the Laurent polynomial that multiplies it.
    """
    # residual signatures recur heavily across operator pairs, so the shared
    # tables are read-only views; no metered command reaches the bulk tables
    # (check runs unmetered; product and iterate read f's words through
    # _dual_fill, which charges per matched entry), so their fills charge nothing
    table: Dict[Tuple[Tuple, int], Dict[Tuple[int, ...], Fraction]] = {}
    variables = ()
    for pair, wcoeff in w_items:
        variables, _, index = _annihilated(h, mod, residual, pair)
        for (_, (word, k)), entries in index.items():
            room = floor(cap - key_weight(mod, (word, k)))
            for slots, evec, coeff in entries:
                profile = tuple((i, m) for _, i, m in slots)
                positions = [t for t, _, _ in slots]
                for d in range(sum(m for _, m in profile), room + 1):
                    for prefix, fc in _mode_tuples(profile, -d):
                        exps = list(evec)
                        for t, (_, order) in zip(positions, prefix):
                            exps[t] += order
                        key = (prefix + word, k)
                        add_into(table.setdefault(key, {}), tuple(exps), coeff * fc * wcoeff)
    return MappingProxyType(
        {key: LaurentPoly(variables, terms) for key, terms in table.items() if terms}
    )


@lru_cache(maxsize=65536)
def _annihilated(
    h: HSpace, mod: ModulePresentation, residual: Tuple[TaggedFactor, ...], pair: Tuple[Tuple, int]
) -> Tuple[Tuple[str, ...], Tuple[int, ...], Mapping[Tuple[int, Tuple[Tuple, int]], Tuple]]:
    """The residual's annihilation splits on one basis pair of w: the
    residual's variables, sorted, the slot counts the splits have,
    ascending, and the splits indexed by (slot count, annihilated pair).

    Each entry holds, per split that leaves that pair, its slots' (variable
    slot, basis index, order) left to right, its exponent vector less each
    slot's letter order, and its coefficient.  Keyed by form, module,
    residual and pair, never by a dual, a cap or a scalar, and read by both
    fill steps: _pairing_table_cached, and _dual_fill, which scales what it
    matches into a numerator of its own; so a read-only view.
    """
    variables = sort_vars([v for v, _, _ in residual])
    vslot = [variables.index(v) for v, _, _ in residual]
    factors = tuple((i, m) for _, i, m in residual)
    index: Dict[Tuple, list] = {}
    for split, _, _, c, applied in annihilation_splits(h, mod, factors, *pair):
        exps = [0] * len(variables)
        slots = []
        for t, (_, i, m), n in zip(vslot, residual, split):
            # a slot's mode -d contributes d - m; d is read off the dual
            exps[t] -= m if n is None else n + m
            if n is None:
                slots.append((t, i, m))
        entry = (tuple(slots), tuple(exps))
        for key, val in applied.items():
            index.setdefault((len(slots), key), []).append(entry + (c * val,))
    counts = tuple(sorted({c for c, _ in index}))
    return variables, counts, MappingProxyType({key: tuple(entries) for key, entries in index.items()})


def _dual_fill(
    h: HSpace, mod: ModulePresentation, residual: Tuple[TaggedFactor, ...], w: WElem, f: DualFunctional,
    scale: Fraction,
) -> Tuple[Tuple[str, ...], Dict[Tuple[int, ...], Fraction]]:
    """scale * <f, :residual: w> read off f's words: the residual's sorted
    variables and a fresh numerator dict, keyed by exponent vector.

    Creation slots only prepend their letters, in slot order, so a dual pair
    (D, k) takes a split of c slots only if D's first c letters carry the
    slots' basis indices with orders at least theirs, and (D[c:], k) is a
    pair the split leaves; those orders fix the creation modes.  Each
    matched entry charges one unit and adds coeff * w's coefficient * f's
    coefficient * scale; a key of coefficient 0 is never filled.
    """
    terms: Dict[Tuple[int, ...], Fraction] = {}
    variables = ()
    for pair, wcoeff in w.items():
        variables, counts, index = _annihilated(h, mod, residual, pair)
        for (word, k), fcoeff in f.items():
            if not fcoeff:
                continue
            for c in counts:
                if c > len(word):
                    break
                for slots, evec, coeff in index.get((c, (word[c:], k)), ()):
                    exps = list(evec)
                    for (t, i, m), (j, d) in zip(slots, word):
                        if i != j or d < m:
                            break
                        exps[t] += d
                        coeff *= field_coefficient(m, -d)
                    else:
                        charge(1, MODE_TERMS)
                        add_into(terms, tuple(exps), coeff * wcoeff * fcoeff * scale)
    return variables, terms


def _parts(acc: Dict) -> List[Part]:
    return [(dict(poles), LaurentPoly._raw(vs, terms)) for (poles, vs), terms in acc.items() if terms]


# -- matrix coefficients: each residual filled at f's keys, paired with f ----------


def matrix_coeff_product(
    h: HSpace,
    mod: ModulePresentation,
    us: Sequence[FreeElem],
    f: DualFunctional,
    w: WElem,
) -> RatFun:
    """Exact rational function <f, Y(u_1, z1)...Y(u_n, zn) w>.

    The region expansion of the result in |z1| > ... > |zn| > 0 agrees with
    the series-level evaluation; poles sit only at z_i = 0 and z_i = z_j.
    Each contraction term's residual is filled off f's words (_dual_fill),
    paired with f and scaled by the term's scalar as it matches, so the work
    grows with f's keys, not with the fills at f's weights.  Its fresh
    numerator becomes the part of its (poles, variables), or is added into
    the part already there.
    """
    check_exact(*us, f, w)
    acc: Dict = {}
    for scalar, poles, residual in _elem_terms(h, tuple(tuple(sorted(u.items())) for u in us)):
        variables, terms = _dual_fill(h, mod, residual, w, f, scalar)
        slot = acc.setdefault((poles, variables), terms)
        if slot is not terms:
            add_terms(slot, terms.items())
    return ratfun_sum(_parts(acc))


def matrix_coeff_iterate(
    h: HSpace,
    mod: ModulePresentation,
    u1: FreeElem,
    u2: FreeElem,
    f: DualFunctional,
    w: WElem,
) -> RatFun:
    """Exact rational function <f, Y(Y(u1, z1-z2)u2, z2) w> in (z1, z2).

    u1 is contracted at z1 = x2+x0 against u2 at z2 = x2, so each x0 pole
    is the (z1 - z2) pole of the same order and the terms are the product's:
    the value is the product's rational function.  The rationality-iterate
    check expands it in |x2| > |x0| > 0 against the oracle iterate series.
    """
    return matrix_coeff_product(h, mod, (u1, u2), f, w)


# -- bulk tables: one pass for every dual word up to a weight cap ----------------


def product_table_raw(
    h: HSpace,
    mod: ModulePresentation,
    us: Sequence[FreeElem],
    w: WElem,
    weight_cap: Fraction,
) -> Dict[Tuple[Tuple, int], List[Part]]:
    """A product's matrix coefficient at every basis pair up to weight_cap.

    Each pair maps to raw (poles, numerator) parts, never canonicalized; their
    ratfun_sum is matrix_coeff_product against that pair's dual basis element.
    """
    check_exact(*us, w)
    cap, w_items = q(weight_cap), tuple(sorted(w.items()))
    accs: Dict[Tuple[Tuple, int], Dict] = {}
    for scalar, poles, residual in _elem_terms(h, tuple(tuple(sorted(u.items())) for u in us)):
        for key, poly in _pairing_table_cached(h, mod, residual, w_items, cap).items():
            acc = accs.setdefault(key, {})
            add_terms(acc.setdefault((poles, poly.vars), {}), poly.terms.items(), scalar)
    return {key: parts for key, acc in accs.items() if (parts := _parts(acc))}


def iterate_table_raw(
    h: HSpace,
    mod: ModulePresentation,
    u1: FreeElem,
    u2: FreeElem,
    w: WElem,
    weight_cap: Fraction,
) -> Dict[Tuple[Tuple, int], List[Part]]:
    """Iterate-side analogue of product_table_raw, already in (z1, z2): the
    iterate's terms are the product's, so this is the product's table."""
    return product_table_raw(h, mod, (u1, u2), w, weight_cap)
