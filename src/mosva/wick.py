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
the scalar n * (a, b) * binom(-n-1, m-1) and the pole (x - y)^(m+n).  Products
of several operators fold this two-group step left to right.  Iterates use the
same pairing patterns with the pole on the inner variable; surviving left
factors become fields evaluated at the shifted point, kept symbolic under a
dedicated variable tag until matrix coefficients are extracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product as iproduct
from math import ceil, floor, prod
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .halgebra import FreeElem, HSpace, add_into, add_terms
from .laurent import LaurentPoly, sort_vars
from .modules import (
    DualFunctional,
    ModulePresentation,
    WElem,
    key_weight,
)
from .fields import _mode_tuples, apply_monomial, binomial
from .ratfun import PoleFactor, RatFun, pole_diff, pole_var

# a derivative-field factor bound to a variable: (variable, basis index, order)
TaggedFactor = Tuple[str, int, int]
# scalar * prod(pole factors)^(-exponent) * normal-ordered residual
Term = Tuple[Fraction, Dict[PoleFactor, int], Tuple[TaggedFactor, ...]]
# one pole signature's share of a matrix coefficient: (poles, numerator)
Part = Tuple[Dict[PoleFactor, int], LaurentPoly]

SHIFTED_VAR = "x2+x0"  # evaluation point of surviving left factors of an iterate
INNER_VAR = "x2"


@dataclass(frozen=True)
class Block:
    """One normal-ordered group of derivative fields at a common variable."""

    var: str
    factors: Tuple[Tuple[int, int], ...]  # (basis index, order m >= 1)

    def tagged(self) -> Tuple[TaggedFactor, ...]:
        return tuple((self.var, i, m) for i, m in self.factors)


@dataclass
class ContractionTerm:
    """scalar * prod(pole factors)^(-exponent) * normal-ordered residual."""

    scalar: Fraction
    poles: Dict[PoleFactor, int]
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
    each.
    """
    for i in range(min(k, l) + 1):
        for ps in combinations(range(k), i):
            for qs in combinations(range(l), i):
                for perm in permutations(ps):
                    yield tuple(zip(perm, qs))


def _contract_tagged(
    h: HSpace, left: Sequence[TaggedFactor], right: Sequence[TaggedFactor]
) -> List[Term]:
    """Every nonvanishing contraction pattern of two tagged groups.

    Each is (scalar, pole exponents, residual): a pair of left factor at x and
    right factor at y contributes (x - y)^-(m+n), stored over its normalized
    difference factor.
    """
    out = []
    for pairs in _pattern_pairs(len(left), len(right)):
        scalar = Fraction(1)
        poles: Dict[PoleFactor, int] = {}
        for p, q in pairs:
            lv, a, m = left[p]
            rv, b, n = right[q]
            c, exponent = commutator_pm(h, a, m, b, n)
            if not c:
                break
            factor, sign = pole_diff(lv, rv)
            scalar *= -c if sign < 0 and exponent % 2 else c
            add_into(poles, factor, exponent)
        else:
            used_p = {p for p, _ in pairs}
            used_q = {q for _, q in pairs}
            residual = tuple(f for t, f in enumerate(left) if t not in used_p) + tuple(
                f for t, f in enumerate(right) if t not in used_q
            )
            out.append((scalar, poles, residual))
    return out


def contract_two_blocks(h: HSpace, left: Block, right: Block) -> List[ContractionTerm]:
    """Complete contraction expansion of a product of two normal-ordered groups."""
    if left.var == right.var:
        raise ValueError("blocks must carry distinct variables")
    return [
        ContractionTerm(scalar, poles, residual)
        for scalar, poles, residual in _contract_tagged(h, left.tagged(), right.tagged())
    ]


def reduce_blocks(h: HSpace, blocks: Sequence[Block]) -> List[ContractionTerm]:
    """Left-to-right fold of the two-group contraction over n groups.

    Every contraction joins a factor of an earlier block to a factor of a
    later block; variable tags travel with their factors, so the merged
    residual remembers where each survivor came from.
    """
    seen = set()
    for b in blocks:
        if b.var in seen:
            raise ValueError("blocks must carry distinct variables")
        seen.add(b.var)
    if not blocks:
        return [ContractionTerm(Fraction(1), {}, ())]
    terms = [ContractionTerm(Fraction(1), {}, blocks[0].tagged())]
    for block in blocks[1:]:
        nxt: List[ContractionTerm] = []
        for term in terms:
            for scalar, poles, residual in _contract_tagged(
                h, term.residual, block.tagged()
            ):
                merged = dict(term.poles)
                add_terms(merged, poles.items())
                nxt.append(ContractionTerm(term.scalar * scalar, merged, residual))
        terms = nxt
    return terms


def blocks_for_words(words: Sequence) -> List[Block]:
    return [Block(f"z{j + 1}", tuple(word)) for j, word in enumerate(words)]


def iterate_closed_form(h: HSpace, u1: FreeElem, u2: FreeElem) -> List[ContractionTerm]:
    """Contraction expansion of an iterate, over the variables (x0, x2).

    Factors of u1 are tagged at the shifted point x2+x0 (kept symbolic),
    factors of u2 at x2.  A pair between them contributes
    ((x2+x0) - x2)^-(m+n) = x0^-(m+n); surviving u1 factors remain
    derivative fields at the shifted point.
    """
    x0_factor, sign = pole_diff(SHIFTED_VAR, INNER_VAR)
    out: List[ContractionTerm] = []
    for (word1, c1), (word2, c2) in iproduct(u1.items(), u2.items()):
        left = tuple((SHIFTED_VAR, i, m) for i, m in word1)
        right = tuple((INNER_VAR, i, m) for i, m in word2)
        for scalar, poles, residual in _contract_tagged(h, left, right):
            k = poles.get(x0_factor, 0)
            if sign < 0 and k % 2:
                scalar = -scalar  # undo the normalization of the tag difference
            out.append(
                ContractionTerm(c1 * c2 * scalar, {pole_var("x0"): k} if k else {}, residual)
            )
    return out


# -- term sources: (scalar, poles, residual) with element coefficients included --


def _product_terms(h: HSpace, us: Sequence[FreeElem]) -> Iterator[Term]:
    for combo in iproduct(*[u.items() for u in us]):
        coeff = prod(c for _, c in combo)
        for term in reduce_blocks(h, blocks_for_words([word for word, _ in combo])):
            yield coeff * term.scalar, term.poles, term.residual


def _iterate_terms(h: HSpace, u1: FreeElem, u2: FreeElem) -> Iterator[Term]:
    """Iterate terms moved to (z1, z2): x2+x0 -> z1, x2 -> z2, x0 -> z1 - z2."""
    diff12, _ = pole_diff("z1", "z2")
    for term in iterate_closed_form(h, u1, u2):
        residual = tuple(
            ("z1" if v == SHIFTED_VAR else "z2", i, m) for v, i, m in term.residual
        )
        k = term.poles.get(pole_var("x0"), 0)
        yield term.scalar, ({diff12: k} if k else {}), residual


# -- the table builder ---------------------------------------------------------


def _residual_pairing_table(
    h: HSpace,
    mod: ModulePresentation,
    residual: Sequence[TaggedFactor],
    w: WElem,
    totals: Iterable[int],
) -> Dict[Tuple[Tuple, int], LaurentPoly]:
    """Apply a normal-ordered residual to w, keyed by resulting basis pair.

    `totals` lists the admissible annihilation totals (each fixes one target
    weight per w term); only mode tuples with those totals are enumerated.
    Returns, per resulting basis pair, the Laurent polynomial in the
    residual's variables that multiplies it.
    """
    return _pairing_table_cached(
        h,
        mod,
        tuple(residual),
        tuple(sorted(w.items())),
        tuple(sorted(set(totals))),
    )


@lru_cache(maxsize=100000)
def _pairing_table_cached(
    h: HSpace,
    mod: ModulePresentation,
    residual: Tuple[TaggedFactor, ...],
    w_items: Tuple[Tuple[Tuple[Tuple, int], Fraction], ...],
    totals: Tuple[int, ...],
) -> Dict[Tuple[Tuple, int], LaurentPoly]:
    # residual signatures recur heavily across operator pairs; callers must
    # not mutate the returned tables
    variables = sort_vars([v for v, _, _ in residual])
    orders = tuple(m for _, _, m in residual)
    indices = [i for _, i, _ in residual]
    vslot = {v: t for t, v in enumerate(variables)}
    allow_zero = mod.has_zero_mode_action()
    table: Dict[Tuple[Tuple, int], Dict[Tuple[int, ...], Fraction]] = {}
    for (word, idx), wcoeff in w_items:
        wt = key_weight(mod, (word, idx))
        budget = int(wt - mod.min_weight)
        creation_only = budget == 0 and not allow_zero
        for total in totals:
            for modes, c in _mode_tuples(orders, total, total, budget, allow_zero):
                val0 = c if wcoeff == 1 else wcoeff * c
                if creation_only:
                    prefix = tuple(zip(indices, (-n for n in modes)))
                    applied = {(prefix + word, idx): val0}
                else:
                    mono = tuple(zip(indices, modes))
                    applied = apply_monomial(h, mod, mono, word, idx, val0)
                    if not applied:
                        continue
                exps = [0] * len(variables)
                for (v, _i, m), n in zip(residual, modes):
                    exps[vslot[v]] += -n - m
                evec = tuple(exps)
                for key, val in applied.items():
                    add_into(table.setdefault(key, {}), evec, val)
    return {
        key: LaurentPoly(variables, terms)
        for key, terms in table.items()
        if terms
    }


def _merge_part(
    acc: Dict, sig: Tuple, poles: Mapping[PoleFactor, int], poly: LaurentPoly, scale
) -> None:
    """Add scale * poly / poles into acc, one numerator per pole signature sig."""
    slot = acc.get(sig)
    if slot is None:
        slot = acc[sig] = [poles, poly.vars, {}]
    elif slot[1] != poly.vars:
        union = sort_vars(slot[1] + poly.vars)
        slot[2] = dict(LaurentPoly._raw(slot[1], slot[2]).align(union).terms)
        slot[1] = union
        poly = poly.align(union)
    add_terms(slot[2], poly.terms.items(), scale)


def _parts(acc: Dict) -> List[Part]:
    return [(poles, LaurentPoly._raw(vs, terms)) for poles, vs, terms in acc.values() if terms]


def _table_from_terms(
    h: HSpace,
    mod: ModulePresentation,
    terms: Iterable[Term],
    w: WElem,
    totals: Iterable[int],
    keep: Callable[[Tuple[Tuple, int]], object],
) -> Dict[Tuple[Tuple, int], List[Part]]:
    """The one builder behind every product and iterate entry point.

    Pairs each term's residual with w over the given annihilation totals and
    returns, for every resulting basis pair that `keep` accepts, its raw
    parts: one (poles, numerator) per pole signature, zero numerators
    dropped.
    """
    # terms with equal poles and residual differ only in scalar; summing them
    # first pairs each residual with w once (it halves criterion 3's terms)
    merged: Dict[Tuple, list] = {}
    for scalar, poles, residual in terms:
        slot = merged.setdefault((tuple(sorted(poles.items())), residual), [0, poles])
        slot[0] += scalar
    accs: Dict[Tuple[Tuple, int], Dict] = {}
    for (sig, residual), (scalar, poles) in merged.items():
        if not scalar:
            continue
        for key, poly in _residual_pairing_table(h, mod, residual, w, totals).items():
            if keep(key):
                _merge_part(accs.setdefault(key, {}), sig, poles, poly, scalar)
    return {key: parts for key, acc in accs.items() if (parts := _parts(acc))}


def _ratfun_sum(parts: Iterable[Part]) -> RatFun:
    total = RatFun.zero()
    for poles, poly in parts:
        total = total + RatFun(poly, poles)
    return total


# -- matrix coefficients: the table over f's support, paired with f ----------------


def _paired(
    h: HSpace, mod: ModulePresentation, terms: Iterable[Term], f: DualFunctional, w: WElem
) -> List[Part]:
    """Raw parts of <f, (sum of terms) w>: the table's entries weighted by f."""
    totals = set()
    for key_w in w:
        for key_f in f:
            t = key_weight(mod, key_w) - key_weight(mod, key_f)
            if t.denominator == 1:
                totals.add(int(t))
    acc: Dict = {}
    for key, parts in _table_from_terms(h, mod, terms, w, totals, f.get).items():
        for poles, poly in parts:
            _merge_part(acc, tuple(sorted(poles.items())), poles, poly, f[key])
    return _parts(acc)


def matrix_coeff_normal_ordered(
    h: HSpace,
    mod: ModulePresentation,
    term: ContractionTerm,
    f: DualFunctional,
    w: WElem,
) -> LaurentPoly:
    """Exact Laurent polynomial <f, :residual: w> in the residual's variables.

    The term's scalar and pole monomial are not included; they are assembled
    by the callers.  Finite because creation must land in f's support while
    annihilation is capped by w's height above the module weight floor.
    """
    parts = _paired(h, mod, [(1, {}, term.residual)], f, w)
    return parts[0][1] if parts else LaurentPoly.zero([v for v, _, _ in term.residual])


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
    """
    return _ratfun_sum(_paired(h, mod, _product_terms(h, us), f, w))


def matrix_coeff_iterate(
    h: HSpace,
    mod: ModulePresentation,
    u1: FreeElem,
    u2: FreeElem,
    f: DualFunctional,
    w: WElem,
) -> RatFun:
    """Exact rational function <f, Y(Y(u1, z1-z2)u2, z2) w> in (z1, z2).

    Shifted factors pair against f and w as fields in the atomic variable
    x2+x0, which the final change of variables sends to z1; x2 goes to z2 and
    each x0 pole becomes the (z1 - z2) pole of the same order.
    """
    return _ratfun_sum(_paired(h, mod, _iterate_terms(h, u1, u2), f, w))


# -- bulk tables: one pass for every dual word up to a weight cap ----------------


def _capped_table(
    h: HSpace, mod: ModulePresentation, terms: Iterable[Term], w: WElem, weight_cap
) -> Dict[Tuple[Tuple, int], List[Part]]:
    cap = Fraction(weight_cap)
    totals = set()
    for key_w in w:
        ww = key_weight(mod, key_w)
        totals.update(range(ceil(ww - cap), floor(ww - mod.min_weight) + 1))
    return _table_from_terms(h, mod, terms, w, totals, lambda key: key_weight(mod, key) <= cap)


def product_table_raw(
    h: HSpace,
    mod: ModulePresentation,
    us: Sequence[FreeElem],
    w: WElem,
    weight_cap: Fraction,
) -> Dict[Tuple[Tuple, int], List[Part]]:
    """product_table without canonicalization: per key, (poles, numerator) parts.

    Meant for bulk expansion comparisons, where assembling canonical rational
    functions per entry would dominate the cost.
    """
    return _capped_table(h, mod, _product_terms(h, us), w, weight_cap)


def product_table(
    h: HSpace,
    mod: ModulePresentation,
    us: Sequence[FreeElem],
    w: WElem,
    weight_cap: Fraction,
) -> Dict[Tuple[Tuple, int], RatFun]:
    """Matrix coefficients of a product against every dual basis pair at once.

    Returns basis pair -> RatFun; pairs of weight above weight_cap are
    omitted.  Pairing a dual functional against the table reproduces
    matrix_coeff_product.
    """
    raw = product_table_raw(h, mod, us, w, weight_cap)
    return {key: _ratfun_sum(parts) for key, parts in raw.items()}


def iterate_table(
    h: HSpace,
    mod: ModulePresentation,
    u1: FreeElem,
    u2: FreeElem,
    w: WElem,
    weight_cap: Fraction,
) -> Dict[Tuple[Tuple, int], RatFun]:
    """Iterate-side analogue of product_table, already in (z1, z2) variables."""
    raw = _capped_table(h, mod, _iterate_terms(h, u1, u2), w, weight_cap)
    return {key: _ratfun_sum(parts) for key, parts in raw.items()}
