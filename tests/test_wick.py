"""Closed-form contraction engine against the series-level oracle."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from mosva.halgebra import HSpace, basis_words_up_to, vacuum_elem, word_elem
from mosva.laurent import LaurentPoly
from mosva.fields import product_series_bruteforce
from mosva.modules import (
    ModulePresentation,
    dual_term,
    state,
    vacuum_state,
)
from mosva.ratfun import (
    RatFun,
    expand_in_region,
    pole_diff,
    pole_var,
    ratfun_eq,
    uniform_window,
)
from mosva.wick import (
    Block,
    ContractionTerm,
    SHIFTED_VAR,
    _contract_tagged,
    commutator_pm,
    contract_two_blocks,
    iterate_closed_form,
    iterate_table,
    matrix_coeff_iterate,
    matrix_coeff_normal_ordered,
    matrix_coeff_product,
    product_table,
    reduce_blocks,
)

H1 = HSpace.identity(1)
H2 = HSpace.identity(2)
TRIV1 = ModulePresentation.trivial(1)
TRIV2 = ModulePresentation.trivial(2)
DIFF12 = pole_diff("z1", "z2")[0]
RATIONAL_FORM = HSpace.from_rows([[1, Fraction(1, 2)], [Fraction(1, 3), 2]])
# criterion 5's module: two weights, noncommuting zero modes, nonzero Dm
NONCOMMUTING4 = ModulePresentation.build(
    [0, 0, 1, 1],
    [
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
    ],
    [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
)


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
    left = Block("z1", ((0, 1),))
    right = Block("z2", ((0, 1),))
    terms = contract_two_blocks(H1, left, right)
    assert len(terms) == 2
    by_len = {len(t.residual): t for t in terms}
    full = by_len[0]
    assert full.scalar == 1 and full.poles == {DIFF12: 2}
    open_term = by_len[2]
    assert open_term.scalar == 1 and open_term.poles == {}
    assert open_term.residual == (("z1", 0, 1), ("z2", 0, 1))


def test_two_blocks_orthogonal_directions():
    terms = contract_two_blocks(H2, Block("z1", ((0, 1),)), Block("z2", ((1, 1),)))
    assert len(terms) == 1 and terms[0].poles == {}


def test_two_blocks_pattern_enumeration():
    left = Block("z1", ((0, 1), (1, 1)))
    right = Block("z2", ((1, 1), (0, 1)))
    terms = contract_two_blocks(H2, left, right)
    sizes = sorted(len(t.residual) for t in terms)
    # i=0 once; i=1: four bijections, two mixed-direction ones vanish; i=2:
    # both bijections, the twice-crossing one vanishes on the identity form
    assert sizes == [0, 2, 2, 4]
    full = next(t for t in terms if not t.residual)
    assert full.scalar == 1 and full.poles == {DIFF12: 4}


def test_reduce_single_block_is_itself():
    block = Block("z1", ((0, 2), (1, 1)))
    terms = reduce_blocks(H2, [block])
    assert len(terms) == 1
    assert terms[0].scalar == 1 and terms[0].residual == block.tagged()


def test_reduce_two_blocks_matches_pairwise():
    left = Block("z1", ((0, 1), (1, 1)))
    right = Block("z2", ((1, 1), (0, 1)))
    direct = contract_two_blocks(H2, left, right)
    folded = reduce_blocks(H2, [left, right])
    key = lambda t: (t.residual, tuple(sorted(t.poles.items())), t.scalar)
    assert sorted(map(key, direct)) == sorted(map(key, folded))


def test_reduce_three_single_blocks():
    blocks = [Block(f"z{j}", ((0, 1),)) for j in (1, 2, 3)]
    terms = reduce_blocks(H1, blocks)
    pole_sets = sorted(
        tuple(sorted(t.poles.items())) for t in terms if len(t.residual) == 1
    )
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


def test_blocks_need_distinct_variables():
    with pytest.raises(ValueError):
        contract_two_blocks(H1, Block("z1", ((0, 1),)), Block("z1", ((0, 1),)))


# -- matrix coefficients of residuals ----------------------------------------------


def test_residual_empty_is_constant_pairing():
    term = ContractionTerm(Fraction(1), {}, ())
    f = dual_term(((0, 2),))
    w = state(((0, 2),))
    out = matrix_coeff_normal_ordered(H1, TRIV1, term, f, w)
    assert out == LaurentPoly.const(1)


def test_residual_single_creation():
    term = ContractionTerm(Fraction(1), {}, (("z1", 0, 1),))
    f = dual_term(((0, 1),))
    out = matrix_coeff_normal_ordered(H1, TRIV1, term, f, vacuum_state())
    assert out == LaurentPoly(("z1",), {(0,): Fraction(1)})


def test_residual_creation_against_vacuum_dual():
    term = ContractionTerm(Fraction(1), {}, (("z1", 0, 1), ("z2", 1, 1)))
    out = matrix_coeff_normal_ordered(H2, TRIV2, term, dual_term(), vacuum_state())
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


def test_iterate_closed_form_shape():
    u = word_elem(((0, 1),))
    terms = iterate_closed_form(H1, u, u)
    assert len(terms) == 2
    full = next(t for t in terms if not t.residual)
    assert full.poles == {pole_var("x0"): 2} and full.scalar == 1
    open_term = next(t for t in terms if t.residual)
    assert open_term.residual == ((SHIFTED_VAR, 0, 1), ("x2", 0, 1))


def test_iterate_identity_left():
    u2 = word_elem(((0, 2), (0, 1)))
    terms = iterate_closed_form(H1, vacuum_elem(), u2)
    assert len(terms) == 1
    assert terms[0].residual == (("x2", 0, 2), ("x2", 0, 1))


def test_iterate_identity_right_shifts_fields():
    u1 = word_elem(((0, 2),))
    terms = iterate_closed_form(H1, u1, vacuum_elem())
    assert terms[0].residual == ((SHIFTED_VAR, 0, 2),)
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
    iter_ = matrix_coeff_iterate(H1, TRIV1, u, u, f, vacuum_state())
    assert prod == RatFun.const(1)
    assert ratfun_eq(prod, iter_)


# -- oracle equivalence and associativity sweeps --------------------------------------


def test_product_matches_bruteforce_on_samples():
    rng = random.Random(31)
    words = basis_words_up_to(2, 3)
    for _ in range(25):
        w1, w2 = rng.choice(words), rng.choice(words)
        u1, u2 = word_elem(w1), word_elem(w2)
        cap = 6
        table = product_table(H2, TRIV2, [u1, u2], vacuum_state(), cap)
        window = uniform_window(("z1", "z2"), -(cap + 2), 2)
        # assemble the brute-force series for every dual word at once
        for key, rf in table.items():
            f = {key: Fraction(1)}
            series = product_series_bruteforce(H2, TRIV2, [u1, u2], vacuum_state(), f, window)
            assert expand_in_region(rf, ("z1", "z2"), window) == series.align(("z1", "z2"))


def test_associativity_on_samples():
    rng = random.Random(32)
    words = basis_words_up_to(2, 3)
    for _ in range(40):
        w1, w2 = rng.choice(words), rng.choice(words)
        u1, u2 = word_elem(w1), word_elem(w2)
        cap = 6
        prod = product_table(H2, TRIV2, [u1, u2], vacuum_state(), cap)
        iter_ = iterate_table(H2, TRIV2, u1, u2, vacuum_state(), cap)
        for key in set(prod) | set(iter_):
            lhs = prod.get(key, RatFun.zero())
            rhs = iter_.get(key, RatFun.zero())
            assert ratfun_eq(lhs, rhs), (w1, w2, key)


def test_pole_locus_containment():
    rng = random.Random(33)
    words = basis_words_up_to(2, 3)
    allowed_kinds = {"var", "diff"}
    for _ in range(20):
        u1, u2 = word_elem(rng.choice(words)), word_elem(rng.choice(words))
        f = dual_term(rng.choice(words))
        rf = matrix_coeff_product(H2, TRIV2, [u1, u2], f, vacuum_state())
        assert all(fct[0] in allowed_kinds for fct in rf.poles)
        rf2 = matrix_coeff_iterate(H2, TRIV2, u1, u2, f, vacuum_state())
        assert all(fct[0] in allowed_kinds for fct in rf2.poles)


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
    good = _contract_tagged(H1, left, right)
    bad = restricted_contract(H1, left, right)
    full_good = sum(s for s, _, r in good if not r)
    full_bad = sum(s for s, _, r in bad if not r)
    assert full_good == 2 and full_bad == 1
    u = word_elem(((0, 1), (0, 1)))
    window = uniform_window(("z1", "z2"), -6, 1)
    oracle = product_series_bruteforce(
        H1, TRIV1, [u, u], vacuum_state(), dual_term(), window
    )
    good_rf = RatFun(LaurentPoly.const(1).scale(full_good), {DIFF12: 4})
    bad_rf = RatFun(LaurentPoly.const(1).scale(full_bad), {DIFF12: 4})
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
            direct.numer.vars if direct.vars else ("z1", "z2", "z3")
        ).align(sorted(set(("z1", "z2", "z3")) | set(direct.vars)))


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
            iter_ = matrix_coeff_iterate(h, mod, u1, u2, f, w)
            assert ratfun_eq(prod, iter_)
            oracle = product_series_bruteforce(h, mod, [u1, u2], w, f, window)
            assert expand_in_region(prod, ("z1", "z2"), window) == oracle.align(("z1", "z2"))
            pairs.append((u1, u2))
        # matrix coefficients are the tables paired with a multi-term dual
        for u1, u2 in pairs[:4] + [(inhomogeneous, word_elem(((1, 1),)))]:
            prod_table_ = product_table(h, mod, [u1, u2], w, 5)
            iter_table_ = iterate_table(h, mod, u1, u2, w, 5)
            keys = sorted(prod_table_)
            keys = sorted({keys[0], keys[len(keys) // 2], keys[-1]})
            f = {key: Fraction((-1) ** j * (j + 2), 3) for j, key in enumerate(keys)}
            assert len(f) == 3
            for rf, table in (
                (matrix_coeff_product(h, mod, [u1, u2], f, w), prod_table_),
                (matrix_coeff_iterate(h, mod, u1, u2, f, w), iter_table_),
            ):
                paired = RatFun.zero()
                for key, c in f.items():
                    paired = paired + table.get(key, RatFun.zero()).scale(c)
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
    term = ContractionTerm(Fraction(1), {}, (("z1", 0, 1),))
    out = matrix_coeff_normal_ordered(H2, mod, term, f, w)
    # a1's zero mode sends e2 to e1: coefficient of z1^-1
    assert out == LaurentPoly(("z1",), {(-1,): Fraction(1)})
