"""Closed-form contraction engine against the series-level oracle."""

import random
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import prod

import pytest

import mosva.fields
import mosva.wick
from mosva.halgebra import HSpace, add_into, add_terms, basis_words_up_to, vacuum_elem, word_elem
from mosva.laurent import LaurentPoly, sort_vars
from mosva.fields import iterate_series_bruteforce, product_series_bruteforce
from mosva.modules import (
    ModulePresentation,
    dual_term,
    key_weight,
    state,
    vacuum_state,
)
from mosva.ratfun import (
    RatFun,
    expand_in_region,
    expand_iterate,
    parts_eq,
    pole_diff,
    ratfun_eq,
    ratfun_sum,
    uniform_window,
)
from mosva.scalars import MODE_TERMS, PATTERNS
from mosva.wick import (
    _annihilated,
    _contract_tagged,
    _dual_fill,
    _elem_terms,
    _pairing_table_cached,
    _table_entries,
    commutator_pm,
    iterate_table_raw,
    matrix_coeff_iterate,
    matrix_coeff_product,
    product_table_raw,
    reduce_blocks,
)

H1 = HSpace.identity(1)
H2 = HSpace.identity(2)
TRIV1 = ModulePresentation.trivial(1)
TRIV2 = ModulePresentation.trivial(2)
DIFF12 = pole_diff("z1", "z2")[0]
RATIONAL_FORM = HSpace.from_rows([[1, Fraction(1, 2)], [Fraction(1, 3), 2]])
# (a2, a1) = -1 against 1 elsewhere: contractions of a1 and a2 can cancel
CANCELLING_FORM = HSpace.from_rows([[1, 1], [-1, 1]])
# criterion 5's module: two weights, noncommuting zero modes, nonzero Dm
NONCOMMUTING4 = ModulePresentation.build(
    [0, 0, 1, 1],
    [
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
    ],
    [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
)


def paired_residual(h, mod, residual, f, w):
    """<f, :residual: w> as one Laurent polynomial in the residual's variables:
    the dual fill's entries for the bare residual, weighted by f."""
    terms = {}
    for key, poly in _dual_fill(h, mod, residual, w, f):
        add_terms(terms, poly.terms.items(), f[key])
    return LaurentPoly(sort_vars(v for v, _, _ in residual), terms)


def bulk_fill(h, mod, w, cap):
    """The bulk tables' fill step: every pair up to the cap the residual reaches."""
    w_items = tuple(sorted(w.items()))
    return lambda residual: _pairing_table_cached(h, mod, residual, w_items, cap).items()


def canonical_table(raw):
    return {key: ratfun_sum(parts) for key, parts in raw.items()}


def elem_key(*us):
    """The contraction memo's key for the operands: each one's sorted items."""
    return tuple(tuple(sorted(u.items())) for u in us)


# -- single contractions ---------------------------------------------------------


def test_commutator_basic():
    c, e = commutator_pm(H1, 0, 1, 0, 1)
    assert (c, e) == (1, 2)


def test_commutator_higher_creation_order():
    c, e = commutator_pm(H1, 0, 1, 0, 2)
    assert (c, e) == (2, 3)


def test_commutator_derivative_annihilator():
    c, e = commutator_pm(H1, 0, 2, 0, 1)
    assert (c, e) == (-2, 3)


# -- two-block contraction --------------------------------------------------------


def test_two_blocks_one_factor_each():
    terms = reduce_blocks(H1, [word_elem(((0, 1),)), word_elem(((0, 1),))])
    assert len(terms) == 2
    by_len = {len(t.residual): t for t in terms}
    full = by_len[0]
    assert full.scalar == 1 and full.poles == ((DIFF12, 2),)
    open_term = by_len[2]
    assert open_term.scalar == 1 and open_term.poles == ()
    assert open_term.residual == (("z1", 0, 1), ("z2", 0, 1))


def test_two_blocks_orthogonal_directions():
    terms = reduce_blocks(H2, [word_elem(((0, 1),)), word_elem(((1, 1),))])
    assert len(terms) == 1 and terms[0].poles == ()


def test_two_blocks_pattern_enumeration():
    terms = reduce_blocks(H2, [word_elem(((0, 1), (1, 1))), word_elem(((1, 1), (0, 1)))])
    sizes = sorted(len(t.residual) for t in terms)
    # i=0 once; i=1: four bijections, two mixed-direction ones vanish; i=2:
    # both bijections, the twice-crossing one vanishes on the identity form
    assert sizes == [0, 2, 2, 4]
    full = next(t for t in terms if not t.residual)
    assert full.scalar == 1 and full.poles == ((DIFF12, 4),)


def test_reduce_single_block_is_itself():
    terms = reduce_blocks(H2, [word_elem(((0, 2), (1, 1)))])
    assert len(terms) == 1
    assert terms[0].scalar == 1 and terms[0].residual == (("z1", 0, 2), ("z1", 1, 1))


def test_reduce_three_single_blocks():
    terms = reduce_blocks(H1, [word_elem(((0, 1),))] * 3)
    pole_sets = sorted(t.poles for t in terms if len(t.residual) == 1)
    d = lambda a, b: pole_diff(a, b)[0]
    assert pole_sets == sorted(
        [
            ((d("z1", "z2"), 2),),
            ((d("z1", "z3"), 2),),
            ((d("z2", "z3"), 2),),
        ]
    )
    assert sum(1 for t in terms if len(t.residual) == 3) == 1
    assert not any(len(t.residual) not in (1, 3) for t in terms)


def random_elem(rng, dim, k, max_weight=4):
    words = [w for w in basis_words_up_to(dim, max_weight) if w]
    return {rng.choice(words): Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k)}


def test_property_every_pole_is_left_minus_right_in_canonical_order():
    # a pole is (left - right) as contracted, and the left factor's variable
    # always comes first in canonical order
    rng = random.Random(36)
    for _ in range(20):
        dim = rng.choice([1, 2])
        h = HSpace.identity(dim) if dim == 1 else RATIONAL_FORM
        us = [random_elem(rng, dim, rng.randint(1, 3)) for _ in range(rng.choice([2, 3]))]
        for words in iproduct(*us):
            for term in reduce_blocks(h, [word_elem(word) for word in words]):
                for factor, _ in term.poles:
                    assert pole_diff(*factor) == (factor, 1), factor


# -- the contraction memo ----------------------------------------------------------


def test_product_and_iterate_contract_their_words_once(fresh_elem_terms):
    u1, u2 = word_elem(((0, 1), (1, 2))), word_elem(((1, 1),))
    f, w = dual_term(((1, 2),)), vacuum_state()
    matrix_coeff_product(RATIONAL_FORM, TRIV2, [u1, u2], f, w)
    matrix_coeff_iterate(RATIONAL_FORM, TRIV2, u1, u2, f, w)
    info = fresh_elem_terms.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_memoized_terms_are_read_only(fresh_elem_terms):
    # cached terms are shared by every later query on the same operands
    u = word_elem(((0, 1),))
    full = next(t for t in fresh_elem_terms(H1, elem_key(u, u)) if not t.residual)
    with pytest.raises(TypeError):
        full.poles[0] = (DIFF12, 3)
    with pytest.raises(AttributeError):
        full.scalar = 2
    assert full.poles == ((DIFF12, 2),) and full.scalar == 1
    assert full in fresh_elem_terms(H1, elem_key(u, u))


def test_a_group_summing_to_zero_is_no_memo_entry(fresh_elem_terms):
    # the two full contractions of a1(-1)a2(-1)1 with itself cancel: the
    # pattern step yields both, reduce_blocks and so the memo neither
    left, right = (("z1", 0, 1), ("z1", 1, 1)), (("z2", 0, 1), ("z2", 1, 1))
    terms = _contract_tagged(CANCELLING_FORM, left, right, 1, ())
    full = [(t.scalar, t.poles) for t in terms if not t.residual]
    assert sorted(full) == [(-1, ((DIFF12, 4),)), (1, ((DIFF12, 4),))]
    u = word_elem(((0, 1), (1, 1)))
    entries = fresh_elem_terms(CANCELLING_FORM, elem_key(u, u))
    assert len(entries) == 5 and all(t.residual for t in entries)
    assert list(entries) == reduce_blocks(CANCELLING_FORM, [u, u])
    assert matrix_coeff_product(CANCELLING_FORM, TRIV2, [u, u], dual_term(), vacuum_state()).is_zero()


def test_property_the_fold_is_multilinear_in_its_operands(fresh_elem_terms):
    # reduce_blocks on elements is the sum, over their word tuples, of each
    # tuple's fold scaled by the product of its coefficients, summed per
    # (poles, residual): no zero entry, no duplicate and no missing group.
    # Cold or warm, the memo entry holds that fold, and the builder yields
    # the memo's terms in order, one per residual it fills
    rng = random.Random(37)
    for _ in range(20):
        h = rng.choice([RATIONAL_FORM, CANCELLING_FORM])
        us = [random_elem(rng, 2, 2, max_weight=3) for _ in range(rng.choice([2, 3]))]
        expected = {}
        for combo in iproduct(*[u.items() for u in us]):
            coeff = prod(c for _, c in combo)
            for t in reduce_blocks(h, [word_elem(word) for word, _ in combo]):
                add_into(expected, (t.poles, t.residual), coeff * t.scalar)
        cold, warm = fresh_elem_terms(h, elem_key(*us)), fresh_elem_terms(h, elem_key(*us))
        for terms in (reduce_blocks(h, us), cold, warm):
            assert {(t.poles, t.residual): t.scalar for t in terms} == expected
            assert len(terms) == len(expected) and all(t.scalar for t in terms)
        for _ in range(2):
            entries = _table_entries(h, us, lambda r: [(r, None)])
            expected_entries = [(t.residual, t.poles, t.scalar) for t in warm]
            assert [(key, poles, s) for key, poles, _, s in entries] == expected_entries


def counted_charges(monkeypatch):
    """The units the engine and the oracle charge from now on, per stage."""
    used = {}

    def counting(units, stage):
        used[stage] = used.get(stage, 0) + units

    monkeypatch.setattr(mosva.wick, "charge", counting)
    monkeypatch.setattr(mosva.fields, "charge", counting)
    return used


def test_equal_terms_of_different_word_tuples_are_filled_once(monkeypatch):
    # a1(-1)a2(-1)1 and a2(-1)a1(-1)1 leave equal (signature, residual)
    # groups against a1(-1)1; each group's residual is filled once, so the
    # product charges 2 applied mode terms, not one fill per word tuple
    used = counted_charges(monkeypatch)
    u1 = {((0, 1), (1, 1)): 1, ((1, 1), (0, 1)): 1}
    f = {(((1, 1),), 0): 1, (((1, 2),), 0): 1}
    rf = matrix_coeff_product(H2, TRIV2, [u1, word_elem(((0, 1),))], f, vacuum_state())
    assert not rf.is_zero() and used[MODE_TERMS] == 2


def test_equal_terms_are_merged_after_each_operand(monkeypatch, fresh_elem_terms):
    # on dim 1, a1(-1)a1(-1)1 against a1(-1)1 leaves one residual a1 at z1
    # by two contractions; merged, it meets the third operand once, so the
    # fold charges 10 patterns: 1 + 3, then 4 for the open term and 2 for
    # the merged one, not 2 for each contraction
    used = counted_charges(monkeypatch)
    a, aa = word_elem(((0, 1),)), word_elem(((0, 1), (0, 1)))
    rf = matrix_coeff_product(H1, TRIV1, [aa, a, a], dual_term(((0, 1), (0, 1))), vacuum_state())
    assert used[PATTERNS] == 10 and used[MODE_TERMS] == 3
    numer = {
        (4, 0, 0): 1, (3, 1, 0): -2, (3, 0, 1): -2, (2, 2, 0): 5, (2, 1, 1): -4, (2, 0, 2): 5,
        (1, 3, 0): -4, (1, 2, 1): 2, (1, 1, 2): 2, (1, 0, 3): -4, (0, 4, 0): 2, (0, 3, 1): -4,
        (0, 2, 2): 5, (0, 1, 3): -4, (0, 0, 4): 2,
    }
    poles = {("z1", "z2"): 2, ("z1", "z3"): 2, ("z2", "z3"): 2}
    assert rf == RatFun(LaurentPoly(("z1", "z2", "z3"), numer), poles)


def test_a_word_of_coefficient_zero_is_never_filled(monkeypatch):
    used = counted_charges(monkeypatch)
    u, f = word_elem(((0, 1),)), dual_term(((0, 1), (0, 1)))
    assert matrix_coeff_product(H2, TRIV2, [u, u], f, vacuum_state()) == RatFun.const(1)
    assert used[MODE_TERMS] == 1
    used.clear()
    zero = {((0, 1),): 0}
    assert matrix_coeff_product(H2, TRIV2, [zero, u], f, vacuum_state()).is_zero()
    assert MODE_TERMS not in used


def test_the_dual_fill_is_paired_with_f_key_by_key(monkeypatch):
    # on the open residual (a1 a2 at z1, a1 at z2) the keys a1(-1)a2(-1)e1
    # and a1(-2)e2 fill equal numerators, so f's 1 and -1 cancel them; the
    # vacuum key fills two residuals, but its coefficient is 0
    h, mod, w = RATIONAL_FORM, NONCOMMUTING4, state((), 1)
    us = [word_elem(((0, 1), (1, 1))), word_elem(((0, 1),))]
    f = {(((0, 1), (1, 1)), 0): 1, (((0, 2),), 1): -1, ((), 0): 0}
    used = counted_charges(monkeypatch)

    def with_units(call, dual):
        used.clear()
        return call(dual), used.get(MODE_TERMS, 0)

    def paired_and_single(call):
        """call(f), and call({key: 1}) per key of f; f's units are the
        single-key units of its nonzero keys, once the memos are warm."""
        call(f)
        paired, units = with_units(call, f)
        single = {key: with_units(call, {key: 1}) for key in f}
        assert units == sum(n for key, (_, n) in single.items() if f[key])
        return paired, {key: out for key, (out, _) in single.items()}, single[(), 0][1]

    open_residual = (("z1", 0, 1), ("z1", 1, 1), ("z2", 0, 1))
    residuals = [t.residual for t in reduce_blocks(h, us)]
    assert open_residual in residuals
    for residual in residuals:
        paired, single, _ = paired_and_single(lambda dual: paired_residual(h, mod, residual, dual, w))
        terms = [poly * LaurentPoly.const(f[key]) for key, poly in single.items()]
        assert paired == sum(terms, LaurentPoly.zero())
        if residual == open_residual:
            assert paired.is_zero() and not any(poly.is_zero() for poly in single.values())
    rf, single, vacuum_units = paired_and_single(lambda dual: matrix_coeff_product(h, mod, us, dual, w))
    assert rf == ratfun_sum((r.poles, r.numer * LaurentPoly.const(f[key])) for key, r in single.items())
    assert not rf.is_zero() and vacuum_units > 0


# -- matrix coefficients of residuals ----------------------------------------------


def test_residual_empty_is_constant_pairing():
    f = dual_term(((0, 2),))
    w = state(((0, 2),))
    out = paired_residual(H1, TRIV1, (), f, w)
    assert out == LaurentPoly.const(1)


def test_residual_single_creation():
    f = dual_term(((0, 1),))
    out = paired_residual(H1, TRIV1, (("z1", 0, 1),), f, vacuum_state())
    assert out == LaurentPoly(("z1",), {(0,): Fraction(1)})


def test_pairing_tables_are_read_only():
    # cached tables are shared by every later call with the same residual
    residual = (("z1", 0, 1),)
    w_items = tuple(sorted(vacuum_state().items()))
    table = _pairing_table_cached(H1, TRIV1, residual, w_items, 1)
    key = (((0, 1),), 0)
    assert table[key] == LaurentPoly(("z1",), {(0,): Fraction(1)})
    with pytest.raises(TypeError):
        table[key] = LaurentPoly.zero()
    with pytest.raises(TypeError):
        del table[key]
    again = _pairing_table_cached(H1, TRIV1, residual, w_items, 1)
    assert dict(again) == {key: LaurentPoly(("z1",), {(0,): Fraction(1)})}


def test_annihilation_memo_entries_are_read_only():
    # a memo entry is shared by every later dual paired with the same residual
    # and basis pair
    args = (H1, TRIV1, (("z1", 0, 1),), (((0, 1),), 0))
    memo = _annihilated(*args)
    variables, counts, index = memo
    # a slot leaves the pair for its letter; a(1) leaves the vacuum at z1^-2
    expected = {(1, (((0, 1),), 0)): ((((0, 0, 1),), (-1,), 1),), (0, ((), 0)): (((), (-2,), 1),)}
    assert (variables, counts, index) == (("z1",), (0, 1), expected)
    with pytest.raises(TypeError):
        index[0, ((), 0)] = ()
    with pytest.raises(TypeError):
        del index[0, ((), 0)]
    assert isinstance(memo, tuple) and all(isinstance(entries, tuple) for entries in index.values())
    assert _annihilated(*args) is memo


def test_residual_creation_against_vacuum_dual():
    residual = (("z1", 0, 1), ("z2", 1, 1))
    out = paired_residual(H2, TRIV2, residual, dual_term(), vacuum_state())
    assert out.is_zero()


# -- full product coefficients -------------------------------------------------------


def test_product_two_point_function():
    u = word_elem(((0, 1),))
    out = matrix_coeff_product(H1, TRIV1, [u, u], dual_term(), vacuum_state())
    assert out == RatFun(LaurentPoly.const(1), {DIFF12: 2})


def test_product_of_identities():
    out = matrix_coeff_product(
        H2, TRIV2, [vacuum_elem(), vacuum_elem()], dual_term(), vacuum_state()
    )
    assert out == RatFun.const(1)


def test_product_noncommutativity_witness():
    f = dual_term(((0, 1), (1, 1)))
    a1, a2 = word_elem(((0, 1),)), word_elem(((1, 1),))
    direct = matrix_coeff_product(H2, TRIV2, [a1, a2], f, vacuum_state())
    swapped = matrix_coeff_product(H2, TRIV2, [a2, a1], f, vacuum_state())
    assert direct == RatFun.const(1)
    assert swapped.is_zero()
    assert not ratfun_eq(direct, swapped)


# -- iterates --------------------------------------------------------------------


def test_iterate_terms_shape():
    u = ((0, 1),)
    terms = reduce_blocks(H1, [word_elem(u), word_elem(u)])
    assert len(terms) == 2
    full = next(t for t in terms if not t.residual)
    assert full.poles == ((DIFF12, 2),) and full.scalar == 1
    open_residual = next(t.residual for t in terms if t.residual)
    assert open_residual == (("z1", 0, 1), ("z2", 0, 1))


def test_iterate_identity_left():
    terms = reduce_blocks(H1, [vacuum_elem(), word_elem(((0, 2), (0, 1)))])
    assert len(terms) == 1
    assert terms[0].residual == (("z2", 0, 2), ("z2", 0, 1))


def test_iterate_identity_right_shifts_fields():
    u1 = word_elem(((0, 2),))
    terms = reduce_blocks(H1, [u1, vacuum_elem()])
    assert terms[0].residual == (("z1", 0, 2),)
    # the shifted field's matrix coefficient is the plain one with z1 powers
    rf = matrix_coeff_iterate(H1, TRIV1, u1, vacuum_elem(), dual_term(((0, 2),)), vacuum_state())
    assert rf == RatFun.const(1)


def test_iterate_two_point_function():
    u = word_elem(((0, 1),))
    out = matrix_coeff_iterate(H1, TRIV1, u, u, dual_term(), vacuum_state())
    assert out == RatFun(LaurentPoly.const(1), {DIFF12: 2})


def test_iterate_weight_two_dual_vanishes():
    # frozen from the oracle: both product and iterate give 0 here
    u = word_elem(((0, 1),))
    f = dual_term(((0, 2),))
    assert matrix_coeff_iterate(H1, TRIV1, u, u, f, vacuum_state()).is_zero()
    assert matrix_coeff_product(H1, TRIV1, [u, u], f, vacuum_state()).is_zero()


def test_iterate_matches_product_on_open_dual():
    u = word_elem(((0, 1),))
    f = dual_term(((0, 1), (0, 1)))
    prod = matrix_coeff_product(H1, TRIV1, [u, u], f, vacuum_state())
    assert prod == RatFun.const(1)
    # the iterate series on that dual is the constant 1 too
    iter_ = matrix_coeff_iterate(H1, TRIV1, u, u, f, vacuum_state())
    window = uniform_window(("x0", "x2"), -3, 3)
    series = iterate_series_bruteforce(H1, TRIV1, u, u, f, vacuum_state(), window)
    assert series == LaurentPoly.const(1, ("x0", "x2"))
    assert expand_iterate(iter_.numer, iter_.poles, window) == series


# -- oracle equivalence and associativity sweeps --------------------------------------


def test_product_matches_bruteforce_on_samples():
    rng = random.Random(31)
    words = basis_words_up_to(2, 3)
    for _ in range(25):
        w1, w2 = rng.choice(words), rng.choice(words)
        u1, u2 = word_elem(w1), word_elem(w2)
        cap = 6
        table = canonical_table(product_table_raw(H2, TRIV2, [u1, u2], vacuum_state(), cap))
        window = uniform_window(("z1", "z2"), -(cap + 2), 2)
        # assemble the brute-force series for every dual word at once
        for key, rf in table.items():
            f = {key: Fraction(1)}
            series = product_series_bruteforce(H2, TRIV2, [u1, u2], vacuum_state(), f, window)
            assert expand_in_region(rf, ("z1", "z2"), window) == series.align(("z1", "z2"))


def test_two_parts_of_one_signature_over_different_variables():
    # a (z1 - z2)^4 term leaves a residual at z1 and z2 and another a residual
    # at z2 alone: one basis pair gets two parts of one signature
    u1 = word_elem(((0, 1), (0, 1)))
    u2 = word_elem(((0, 1), (0, 1), (0, 3)))
    w = state(((0, 1),))
    entries = _table_entries(H1, [u1, u2], bulk_fill(H1, TRIV1, w, 6))
    shapes = {(poles, poly.vars) for key, poles, poly, _ in entries if key == (((0, 5), (0, 1)), 0)}
    assert {(((DIFF12, 4),), ("z1", "z2")), (((DIFF12, 4),), ("z2",))} <= shapes
    region = ("z1", "z2")
    window = uniform_window(region, -10, 4)
    raw = product_table_raw(H1, TRIV1, [u1, u2], w, 6)
    for key, rf in canonical_table(raw).items():
        series = product_series_bruteforce(H1, TRIV1, [u1, u2], w, {key: 1}, window)
        assert expand_in_region(rf, region, window) == series.align(region), key
    f = {(((0, 5), (0, 1)), 0): 1, (((0, 3), (0, 1)), 0): Fraction(-1, 2), (((0, 2),), 0): 3}
    rf = matrix_coeff_product(H1, TRIV1, [u1, u2], f, w)
    series = product_series_bruteforce(H1, TRIV1, [u1, u2], w, f, window)
    assert not series.is_zero()
    assert expand_in_region(rf, region, window) == series.align(region)


# -- the dual read against the bulk table -------------------------------------------

COMMUTATOR_FORM = HSpace.from_rows([[0, 1], [-1, 0]])
# zero modes swapping the module's two weight-0 basis vectors in both directions
SWAP2 = ModulePresentation.build([0, 0], [[[0, 1], [1, 0]], [[0, 1], [1, 0]]], [[0, 0], [0, 0]])


def test_dual_read_matches_the_bulk_table_key_by_key():
    # matrix_coeff_product reads each fill off f's words; product_table_raw
    # enumerates every fill up to the cap.  They agree on every key of f, on
    # its keys alone and on f whole, keys the table lacks included
    rng = random.Random(29)
    words, light = basis_words_up_to(2, 4), basis_words_up_to(2, 2)
    cap = 4
    for _ in range(60):
        h = rng.choice([H2, RATIONAL_FORM, COMMUTATOR_FORM])
        mod = rng.choice([TRIV2, SWAP2, NONCOMMUTING4])
        us = [random_elem(rng, 2, rng.randint(1, 2), max_weight=3) for _ in range(2)]
        w = {}
        for _ in range(rng.randint(1, 3)):  # mixed weights, several basis vectors
            key = (rng.choice(light), rng.randrange(mod.dim))
            w[key] = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
        raw = product_table_raw(h, mod, us, w, cap)
        assert all(key_weight(mod, key) <= cap for key in raw)
        pairs = [(word, k) for word in words for k in range(mod.dim) if key_weight(mod, (word, k)) <= cap]
        f = {}
        for key in rng.sample(list(raw), min(3, len(raw))) + rng.sample(pairs, 2):
            f[key] = rng.choice([1, -2, Fraction(1, 3)])
        for key in f:
            assert matrix_coeff_product(h, mod, us, {key: 1}, w) == ratfun_sum(raw.get(key, [])), key
        parts = [(poles, numer * LaurentPoly.const(c)) for key, c in f.items() for poles, numer in raw.get(key, [])]
        assert matrix_coeff_product(h, mod, us, f, w) == ratfun_sum(parts)


def test_a_bulk_table_fills_the_annihilation_memo_the_dual_read_uses():
    # both fill steps read one memo: after the bulk table, the dual read on
    # the same residual and pair splits nothing anew
    u, w = word_elem(((0, 1),)), state(((0, 2),))
    _annihilated.cache_clear()
    product_table_raw(H1, TRIV1, [u], w, 3)
    before = _annihilated.cache_info()
    matrix_coeff_product(H1, TRIV1, [u], {(((0, 1), (0, 2)), 0): 1}, w)
    after = _annihilated.cache_info()
    assert after.hits > before.hits and after.misses == before.misses


def test_sums_and_equality_of_table_parts_write_into_no_memo(fresh_elem_terms):
    # a bulk table's parts carry the memos' poles and are built from their
    # numerators; building, summing and comparing them leaves every memo
    # entry as it was
    us = [
        {((0, 1),): 1, ((1, 1),): Fraction(1, 2), ((1, 1), (0, 1)): -3},
        {((1, 1),): 1, ((0, 1),): Fraction(2, 3)},
    ]
    w = {(((0, 1),), 0): 1, ((), 0): Fraction(-1, 2)}
    w_items, cap = tuple(sorted(w.items())), 5

    def snapshot():
        entries = fresh_elem_terms(RATIONAL_FORM, elem_key(*us))
        seen = {"terms": list(entries)}
        for residual in (t.residual for t in entries):
            table = _pairing_table_cached(RATIONAL_FORM, TRIV2, residual, w_items, cap)
            seen[residual] = {key: dict(poly.terms) for key, poly in table.items()}
            for pair in w:
                variables, counts, index = _annihilated(RATIONAL_FORM, TRIV2, residual, pair)
                seen[residual, pair] = (variables, counts, dict(index))
        return seen

    before = snapshot()
    raw = product_table_raw(RATIONAL_FORM, TRIV2, us, w, cap)
    assert len(raw) > 1 and any(len(parts) > 1 for parts in raw.values())
    for parts in raw.values():
        total = ratfun_sum(parts)
        assert parts_eq(parts, parts) and parts_eq(parts, [(total.poles, total.numer)])
        assert parts_eq([(total.poles, total.numer)], parts)
    assert snapshot() == before


def test_associativity_on_samples():
    # each product-table entry, expanded in the iterate's region, is the
    # iterate series on its dual word
    rng = random.Random(32)
    words = basis_words_up_to(2, 3)
    window = uniform_window(("x0", "x2"), -8, 6)
    for _ in range(40):
        w1, w2 = rng.choice(words), rng.choice(words)
        u1, u2 = word_elem(w1), word_elem(w2)
        table = canonical_table(product_table_raw(H2, TRIV2, [u1, u2], vacuum_state(), 6))
        for key, rf in table.items():
            f = {key: Fraction(1)}
            series = iterate_series_bruteforce(H2, TRIV2, u1, u2, f, vacuum_state(), window)
            assert expand_iterate(rf.numer, rf.poles, window) == series.align(("x0", "x2")), (w1, w2, key)


def test_pole_locus_containment():
    rng = random.Random(33)
    words = basis_words_up_to(2, 3)
    for _ in range(20):
        u1, u2 = word_elem(rng.choice(words)), word_elem(rng.choice(words))
        f = dual_term(rng.choice(words))
        rf = matrix_coeff_product(H2, TRIV2, [u1, u2], f, vacuum_state())
        assert all(pole_diff(*fct) == (fct, 1) for fct in rf.poles)
        rf2 = matrix_coeff_iterate(H2, TRIV2, u1, u2, f, vacuum_state())
        assert all(pole_diff(*fct) == (fct, 1) for fct in rf2.poles)


def restricted_contract(h, left, right):
    """_contract_tagged over the undercounting pattern set: only the
    order-reversing pairing per pair of equal-size subsets."""
    out = []
    for i in range(min(len(left), len(right)) + 1):
        for ps in combinations(range(len(left)), i):
            for qs in combinations(range(len(right)), i):
                pairs = tuple(zip(reversed(ps), qs))
                scalar, poles = Fraction(1), {}
                for p, q in pairs:
                    (lv, a, m), (rv, b, n) = left[p], right[q]
                    c, exponent = commutator_pm(h, a, m, b, n)
                    factor, sign = pole_diff(lv, rv)
                    scalar *= c * sign**exponent
                    poles[factor] = poles.get(factor, 0) + exponent
                residual = tuple(
                    f for t, f in enumerate(left) if t not in ps
                ) + tuple(f for t, f in enumerate(right) if t not in qs)
                out.append((scalar, poles, residual))
    return out


def test_pattern_set_pinned_by_oracle():
    # the full contraction of :a a: x :a a: carries both bijections; keeping
    # only one order-reversing pairing per subset pair breaks the value
    left = tuple(("z1", 0, 1) for _ in range(2))
    right = tuple(("z2", 0, 1) for _ in range(2))
    good = _contract_tagged(H1, left, right, 1, {})
    bad = restricted_contract(H1, left, right)
    full_good = sum(s for s, _, r in good if not r)
    full_bad = sum(s for s, _, r in bad if not r)
    assert full_good == 2 and full_bad == 1
    u = word_elem(((0, 1), (0, 1)))
    window = uniform_window(("z1", "z2"), -6, 1)
    oracle = product_series_bruteforce(
        H1, TRIV1, [u, u], vacuum_state(), dual_term(), window
    )
    good_rf = RatFun(LaurentPoly.const(full_good), {DIFF12: 4})
    bad_rf = RatFun(LaurentPoly.const(full_bad), {DIFF12: 4})
    assert expand_in_region(good_rf, ("z1", "z2"), window) == oracle.align(("z1", "z2"))
    assert expand_in_region(bad_rf, ("z1", "z2"), window) != oracle.align(("z1", "z2"))


def test_mixed_orders_all_bijections():
    # u1 = a(-2)a(-1)1 against u2 = a(-1)a(-3)1: the two bijections carry
    # different binomials, totalling -18/(z1-z2)^7 on the vacuum pairing
    u1 = word_elem(((0, 2), (0, 1)))
    u2 = word_elem(((0, 1), (0, 3)))
    rf = matrix_coeff_product(H1, TRIV1, [u1, u2], dual_term(), vacuum_state())
    assert rf == RatFun(LaurentPoly.const(-18), {DIFF12: 7})
    window = uniform_window(("z1", "z2"), -8, 0)
    oracle = product_series_bruteforce(
        H1, TRIV1, [u1, u2], vacuum_state(), dual_term(), window
    )
    assert expand_in_region(rf, ("z1", "z2"), window) == oracle.align(("z1", "z2"))


def test_fold_order_confluence():
    # contracting (b1 b2) then b3 equals b1 then (b2 b3), coefficientwise
    rng = random.Random(34)
    words = basis_words_up_to(2, 2)
    for _ in range(10):
        ws = [rng.choice(words) for _ in range(3)]
        us = [word_elem(w) for w in ws]
        f = dual_term(rng.choice(basis_words_up_to(2, 4)))
        direct = matrix_coeff_product(H2, TRIV2, us, f, vacuum_state())
        window = uniform_window(("z1", "z2", "z3"), -8, 1)
        oracle = product_series_bruteforce(H2, TRIV2, us, vacuum_state(), f, window)
        assert expand_in_region(direct, ("z1", "z2", "z3"), window) == oracle.align(
            direct.numer.vars or ("z1", "z2", "z3")
        ).align(sorted(set(("z1", "z2", "z3")) | set(direct.numer.vars)))


def test_asymmetric_form_full_pipeline():
    # nonsymmetric forms are legal; contraction scalars read (left, right)
    inputs = [
        (HSpace.from_rows([[1, 2], [0, 1]]), ModulePresentation.trivial(2), vacuum_state()),
        # non-integral form and module legs of both weights in w
        (RATIONAL_FORM, NONCOMMUTING4, {((), 2): Fraction(1), (((1, 1),), 0): Fraction(-3, 2)}),
    ]
    inhomogeneous = {((0, 1),): Fraction(1), ((1, 2), (0, 1)): Fraction(-2, 3)}
    for h, mod, w in inputs:
        rng = random.Random(35)
        words = basis_words_up_to(2, 2)
        window = uniform_window(("z1", "z2"), -5, 1)
        pairs = []
        for _ in range(12):
            u1, u2 = word_elem(rng.choice(words)), word_elem(rng.choice(words))
            f = dual_term(rng.choice(words))
            prod = matrix_coeff_product(h, mod, [u1, u2], f, w)
            oracle = product_series_bruteforce(h, mod, [u1, u2], w, f, window)
            assert expand_in_region(prod, ("z1", "z2"), window) == oracle.align(("z1", "z2"))
            pairs.append((u1, u2))
        # matrix coefficients are the tables paired with a multi-term dual
        for u1, u2 in pairs[:4] + [(inhomogeneous, word_elem(((1, 1),)))]:
            prod_table_ = product_table_raw(h, mod, [u1, u2], w, 5)
            iter_table_ = iterate_table_raw(h, mod, u1, u2, w, 5)
            keys = sorted(prod_table_)
            keys = sorted({keys[0], keys[len(keys) // 2], keys[-1]})
            f = {key: Fraction((-1) ** j * (j + 2), 3) for j, key in enumerate(keys)}
            assert len(f) == 3
            for rf, table in (
                (matrix_coeff_product(h, mod, [u1, u2], f, w), prod_table_),
                (matrix_coeff_iterate(h, mod, u1, u2, f, w), iter_table_),
            ):
                paired = ratfun_sum(
                    (poles, numer * LaurentPoly.const(c)) for key, c in f.items() for poles, numer in table.get(key, [])
                )
                assert ratfun_eq(rf, paired), (h, u1, u2, f)
    # the asymmetry is visible: (a1, a2) = 2 but (a2, a1) = 0
    c12, _ = commutator_pm(inputs[0][0], 0, 1, 1, 1)
    c21, _ = commutator_pm(inputs[0][0], 1, 1, 0, 1)
    assert (c12, c21) == (2, 0)


def test_zero_mode_routing_through_module():
    mod = ModulePresentation.build(
        [0, 0],
        [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        [[0, 0], [0, 0]],
    )
    # zero modes of the residual act through the matrices: pair the module legs
    f = {((), 0): Fraction(1)}
    w = {((), 1): Fraction(1)}
    out = paired_residual(H2, mod, (("z1", 0, 1),), f, w)
    # a1's zero mode sends e2 to e1: coefficient of z1^-1
    assert out == LaurentPoly(("z1",), {(-1,): Fraction(1)})
