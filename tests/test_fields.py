"""Vertex operator coefficients against directly differentiated field series."""

import random
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

import mosva.fields
import mosva.modules
from mosva.halgebra import (
    HSpace,
    basis_words_up_to,
    derivative_elem,
    vacuum_elem,
    word_elem,
    word_weight,
)
from mosva.laurent import LaurentPoly
from mosva.fields import (
    _mode_tuples,
    annihilation_splits,
    field_coefficient,
    iterate_series_bruteforce,
    product_series_bruteforce,
    product_series_states,
    series_lower_bound,
    vertex_series,
)
from mosva.modules import (
    ModulePresentation,
    apply_mode,
    dual_term,
    key_weight,
    pairing,
    state,
    vacuum_state,
    welem_add,
    welem_scale,
)
from mosva.scalars import MODE_TERMS

H1 = HSpace.identity(1)
H2 = HSpace.identity(2)
TRIV1 = ModulePresentation.trivial(1)
TRIV2 = ModulePresentation.trivial(2)
RATIONAL_FORM = HSpace.from_rows([[1, Fraction(1, 2)], [Fraction(1, 3), 2]])


def vertex_coefficient(h, mod, u, s, w):
    """The mode u_s applied to w, where Y(u, x) = sum_s u_s x^{-s-1}."""
    return vertex_series(h, mod, u, w, -s - 1, -s - 1).get(-s - 1, {})
# criterion 5's module: weights 0, 0, 1, 1, noncommuting zero modes, nonzero Dm
DIM4 = ModulePresentation.build(
    [0, 0, 1, 1],
    [
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]],
    ],
    [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
)


def reference_field_coefficient(m, n):
    """Differentiate x^{-n-1} by hand (m-1) times and divide by (m-1)!."""
    coeff = Fraction(1)
    exponent = -n - 1
    for _ in range(m - 1):
        coeff *= exponent
        exponent -= 1
    for j in range(1, m):
        coeff /= j
    assert coeff.denominator == 1
    return int(coeff)


def test_field_coefficient_matches_differentiation():
    for m in range(1, 6):
        for n in range(-6, 7):
            assert field_coefficient(m, n) == reference_field_coefficient(m, n)


def test_field_coefficient_examples():
    assert field_coefficient(1, 5) == 1 and field_coefficient(1, -9) == 1
    assert field_coefficient(2, -3) == 2
    assert field_coefficient(2, 1) == -2


# -- the shared mode-application pass -------------------------------------------


def reference_mode_tuples(mod, factors, totals, allow_zero, word, index):
    """Every mode tuple with a total in `totals` that may act on (word, index).

    Its positive part is at most the pair's height above the weight floor,
    so each mode lies in [min(totals) - height, height]; tuples with a
    vanishing field coefficient, or with zero modes when they are not
    allowed, are dropped.  Yields (modes, coefficient).
    """
    budget = int(key_weight(mod, (word, index)) - mod.min_weight)
    for modes in product(range(min(totals) - budget, budget + 1), repeat=len(factors)):
        if sum(modes) not in totals or sum(n for n in modes if n > 0) > budget:
            continue
        if 0 in modes and not allow_zero:
            continue
        c = prod(field_coefficient(m, n) for (_, m), n in zip(factors, modes))
        if c:
            yield modes, c


def reference_monomials(h, mod, factors, totals, allow_zero, word, index):
    """Mode tuple -> its normal-ordered monomial applied mode by mode."""
    out = {}
    for modes, c in reference_mode_tuples(mod, factors, totals, allow_zero, word, index):
        elem = {(word, index): Fraction(c)}
        mono = [(i, n) for (i, _), n in zip(factors, modes)]
        # stable normal order: negative modes, then positive, then zero
        mono = sorted(mono, key=lambda f: 0 if f[1] < 0 else 1 if f[1] > 0 else 2)
        for i, n in reversed(mono):
            elem = apply_mode(h, mod, i, n, elem)
        if elem:
            out[modes] = elem
    return out


def expand(h, mod, factors, totals, word, index):
    """annihilation_splits with each split's slots filled from _mode_tuples
    at every total in `totals`: mode tuple -> element."""
    out = {}
    for split, p_total, _, c, applied in annihilation_splits(h, mod, factors, word, index):
        slots = tuple(f for f, n in zip(factors, split) if n is None)
        for total in totals:
            for letters, fc in _mode_tuples(slots, total - p_total):
                assert [i for i, _ in letters] == [i for i, _ in slots]
                modes = iter(-d for _, d in letters)
                key = tuple(next(modes) if n is None else n for n in split)
                assert sum(key) == total and key not in out
                out[key] = {(letters + w2, s2): v * c * fc for (w2, s2), v in applied.items()}
    return out


def per_total(applied):
    out = {}
    for modes, elem in applied.items():
        out[sum(modes)] = welem_add(out.get(sum(modes), {}), elem)
    return {t: elem for t, elem in out.items() if elem}


@st.composite
def mode_applications(draw):
    mod = draw(st.sampled_from([TRIV2, DIM4]))
    factors = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 3)), min_size=1, max_size=3))
    word = draw(st.sampled_from(basis_words_up_to(2, 4)))
    index = draw(st.integers(0, mod.dim - 1))
    totals = sorted(draw(st.sets(st.integers(-6, 5), min_size=1, max_size=4)))
    return mod, tuple(factors), totals, word, index


@settings(max_examples=150)
@given(mode_applications())
def test_splits_and_fills_match_tuple_by_tuple_reference(case):
    mod, factors, totals, word, index = case
    got = expand(RATIONAL_FORM, mod, factors, totals, word, index)
    assert all(got.values())
    allow_zero = mod.has_zero_mode_action()
    expected = reference_monomials(RATIONAL_FORM, mod, factors, totals, allow_zero, word, index)
    assert per_total(got) == per_total(expected)
    assert got == expected


def elements(keys):
    """Sums of one to three distinct keys with nonzero rational coefficients."""
    coeffs = st.fractions(-3, 3, max_denominator=3).filter(bool)
    return st.dictionaries(st.sampled_from(keys), coeffs, min_size=1, max_size=3)


@st.composite
def series_cases(draw):
    mod = draw(st.sampled_from([TRIV2, DIM4]))
    u = draw(elements(basis_words_up_to(2, 3)))
    w = draw(elements([(word, k) for word in basis_words_up_to(2, 3) for k in range(mod.dim)]))
    lo = draw(st.integers(-5, 1))
    return mod, u, w, lo, lo + draw(st.integers(0, 4))


@settings(max_examples=100)
@given(series_cases())
def test_vertex_series_matches_the_tuple_by_tuple_reference(case):
    # non-unit u and w coefficients scale every split, and DIM4's zero modes
    # give elements of several terms, so each fill adds a scaled sum
    mod, u, w, lo, hi = case
    expected = {}
    for uword, uc in u.items():
        wt_u = word_weight(uword)
        totals = range(-hi - wt_u, -lo - wt_u + 1)
        for (word, k), wc in w.items():
            applied = reference_monomials(
                RATIONAL_FORM, mod, uword, totals, mod.has_zero_mode_action(), word, k
            )
            for t, elem in per_total(applied).items():
                e = -(t + wt_u)
                expected[e] = welem_add(expected.get(e, {}), welem_scale(elem, uc * wc))
    expected = {e: elem for e, elem in expected.items() if elem}
    assert vertex_series(RATIONAL_FORM, mod, u, w, lo, hi) == expected


@settings(max_examples=100)
@given(series_cases())
def test_vertex_series_charges_the_terms_it_builds(case):
    # the applied terms of each annihilation step, then per split and total
    # the split's fills times its element's terms: the fills are counted by
    # a binomial, not built, so the count is checked against the memo
    mod, u, w, lo, hi = case
    expected = 0
    for uword in u:
        wt_u = word_weight(uword)
        for (word, k) in w:
            for split, p_total, _, _, applied in annihilation_splits(RATIONAL_FORM, mod, uword, word, k):
                slots = tuple(f for f, n in zip(uword, split) if n is None)
                for t in range(-hi - wt_u, -lo - wt_u + 1):
                    expected += len(_mode_tuples(slots, t - p_total)) * len(applied)
    charges, steps = [], []
    real_apply = mosva.fields._apply_mode

    def applied_terms(*args):
        out = real_apply(*args)
        steps.append(len(out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mosva.fields, "charge", lambda units, stage: charges.append((units, stage)))
        mp.setattr(mosva.fields, "_apply_mode", applied_terms)
        vertex_series(RATIONAL_FORM, mod, u, w, lo, hi)
    assert {stage for _, stage in charges} <= {MODE_TERMS}
    assert sum(units for units, _ in charges) == sum(steps) + expected


@settings(max_examples=150)
@given(
    st.sampled_from([(word, index) for word in basis_words_up_to(2, 3) for index in range(4)]),
    # zero modes drawn twice as often: their order is what the test guards
    st.lists(st.tuples(st.integers(0, 1), st.sampled_from([0, 0, 1, 2, 3])), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_annihilating_modes_commute_but_for_the_zero_modes_order(pair, mono, rng):
    # on check-cli's module the zero modes do not commute with each other, yet
    # positive modes commute with them and among themselves: any reordering
    # that keeps the zero modes in order acts alike, and so does the normal
    # order, positive modes left of the zero modes
    def act(monomial):  # the rightmost mode acts first
        elem = {pair: 1}
        for i, n in reversed(monomial):
            elem = apply_mode(RATIONAL_FORM, DIM4, i, n, elem)
        return elem

    got = act(mono)
    zeros = iter([f for f in mono if f[1] == 0])
    slots = [f if f[1] > 0 else None for f in mono]
    rng.shuffle(slots)
    assert act([f or next(zeros) for f in slots]) == got
    assert act(sorted(mono, key=lambda f: f[1] == 0)) == got


def test_each_right_part_meets_each_mode_once(monkeypatch):
    # a1(-1)a2(-1)a1(-1)1 on a1(-1)a2(-1)a1(-1)a2(-1)1 (height 4), totals -6 .. 3:
    # the only annihilating mode is 1, and every split survives.  The right
    # parts of 0, 1 and 2 positions, each position a slot or the mode 1, meet
    # that mode once each: 1 + 2 + 4 applications, against 12 for applying
    # each of the 8 splits from the pair
    factors = ((0, 1), (1, 1), (0, 1))
    word = ((0, 1), (1, 1), (0, 1), (1, 1))
    calls = []
    real = mosva.fields._apply_mode

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mosva.fields, "_apply_mode", counted)
    got = expand(H2, TRIV2, factors, range(-6, 4), word, 0)
    assert got == reference_monomials(H2, TRIV2, factors, range(-6, 4), False, word, 0)
    assert {tuple(n if n >= 0 else None for n in modes) for modes in got} == set(product([None, 1], repeat=3))
    assert len(calls) <= 1 + 2 + 4


def test_annihilation_steps_skip_the_exactness_guard(monkeypatch):
    # the splits act on elements the library built, so no step rescans them;
    # the public apply_mode still guards its input
    calls = []
    real = mosva.modules.check_exact

    def counted(*elems):
        calls.append(elems)
        return real(*elems)

    monkeypatch.setattr(mosva.modules, "check_exact", counted)
    factors = ((0, 1), (1, 1), (0, 1))
    word = ((0, 1), (1, 1), (0, 1), (1, 1))
    splits = mosva.fields.annihilation_splits(H2, TRIV2, factors, word, 0)
    assert len(splits) == 8 and not calls
    mosva.modules.apply_mode(H2, TRIV2, 0, 1, state(word))
    assert len(calls) == 1


# -- single coefficients -----------------------------------------------------


def test_identity_vertex_operator():
    w = state(((0, 2), (1, 1)))
    assert vertex_coefficient(H2, TRIV2, vacuum_elem(), -1, w) == w
    for s in (-3, -2, 0, 1, 2):
        assert vertex_coefficient(H2, TRIV2, vacuum_elem(), s, w) == {}


def test_creation_constant_term():
    u = word_elem(((0, 1),))
    out = vertex_coefficient(H1, TRIV1, u, -1, vacuum_state())
    assert out == state(((0, 1),))


def test_single_contraction_coefficient():
    u = word_elem(((0, 1),))
    out = vertex_coefficient(H1, TRIV1, u, 1, state(((0, 1),)))
    assert out == vacuum_state()


# -- series ------------------------------------------------------------------


def test_series_of_derivative_field():
    # Y of a(-2)1 on the vacuum: coefficient of x^e is (e+1) a(-e-2)1 for e >= 0
    u = word_elem(((0, 2),))
    out = vertex_series(H1, TRIV1, u, vacuum_state(), -1, 2)
    assert out == {
        0: state(((0, 2),)),
        1: welem_scale(state(((0, 3),)), 2),
        2: welem_scale(state(((0, 4),)), 3),
    }


def test_series_identity_only_constant():
    out = vertex_series(H2, TRIV2, vacuum_elem(), vacuum_state(), -4, 4)
    assert out == {0: vacuum_state()}


def test_pattern_without_creation_slots_asks_one_total(monkeypatch):
    # Y(1, x) has one pattern and no slot: a wide window costs no fill per exponent
    calls = []
    real = mosva.fields._mode_tuples

    def counted(slots, total):
        calls.append((slots, total))
        return real(slots, total)

    monkeypatch.setattr(mosva.fields, "_mode_tuples", counted)
    out = vertex_series(H1, TRIV1, vacuum_elem(), vacuum_state(), -10**5, 10**5)
    assert out == {0: vacuum_state()}
    assert calls == [((), 0)]


def brute_force_fills(slots, total):
    """Every n_j <= -m_j summing to total, as its letters (i_j, -n_j) and
    prod binom(-n_j-1, m_j-1), modes ascending lexicographically.  The slots
    reach at most top = -sum m_j, so no n_j lies below -m_j - (top - total)."""
    spare = -sum(m for _, m in slots) - total
    ranges = [range(-m - spare, -m + 1) for _, m in slots]
    out = []
    for modes in product(*ranges):
        if sum(modes) == total:
            pairs = list(zip(slots, modes))
            letters = tuple((i, -n) for (i, _), n in pairs)
            out.append((letters, prod(comb(-n - 1, m - 1) for (_, m), n in pairs)))
    return out


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)), max_size=4),
    st.integers(-7, 2),
)
def test_mode_tuples_match_brute_force_enumeration(slots, offset):
    # offset 1 and 2 ask above the slots' top total, where no fill exists
    slots = tuple(slots)
    total = -sum(m for _, m in slots) + offset
    assert list(_mode_tuples(slots, total)) == brute_force_fills(slots, total)


def test_series_with_annihilation():
    u = word_elem(((0, 1),))
    w = state(((0, 1),))
    out = vertex_series(H1, TRIV1, u, w, -2, 0)
    assert out == {
        -2: vacuum_state(),
        0: state(((0, 1), (0, 1))),
    }


def test_series_lower_bound_guarantees_vanishing():
    u = word_elem(((0, 1), (0, 2)))
    w = state(((0, 1),))
    bound = series_lower_bound(H1, TRIV1, u, w)
    assert bound == -4
    assert vertex_series(H1, TRIV1, u, w, bound - 3, bound - 1) == {}


def test_series_lower_bound_attained_for_full_contraction():
    u = word_elem(((0, 1),))
    w = state(((0, 1),))
    bound = series_lower_bound(H1, TRIV1, u, w)
    assert bound == -2
    assert vertex_series(H1, TRIV1, u, w, bound, bound) == {bound: vacuum_state()}


def test_creation_property_no_negative_powers():
    for uword in basis_words_up_to(2, 4):
        u = word_elem(uword)
        low = vertex_series(H2, TRIV2, u, vacuum_state(), -6, -1)
        assert low == {}
        const = vertex_coefficient(H2, TRIV2, u, -1, vacuum_state())
        assert const == state(uword)


def test_weight_shift_of_coefficients():
    rng = random.Random(4)
    words = basis_words_up_to(2, 3)
    for _ in range(50):
        uword = rng.choice(words)
        wword = rng.choice(words)
        s = rng.randint(-4, 4)
        out = vertex_coefficient(H2, TRIV2, word_elem(uword), s, state(wword))
        expected = word_weight(uword) + word_weight(wword) - s - 1
        for (word, _idx) in out:
            assert word_weight(word) == expected


def test_finite_lower_truncation():
    rng = random.Random(14)
    words = basis_words_up_to(2, 3)
    for _ in range(40):
        uword, wword = rng.choice(words), rng.choice(words)
        s = word_weight(uword) + word_weight(wword) + rng.randint(0, 3)
        assert vertex_coefficient(H2, TRIV2, word_elem(uword), s, state(wword)) == {}


# -- identities checked coefficientwise over a window ---------------------------


def d_of(mod, w):
    from mosva.modules import apply_d

    return apply_d(mod, w)


def test_grading_bracket_on_samples():
    words = basis_words_up_to(2, 3)
    rng = random.Random(21)
    for _ in range(25):
        uword, wword = rng.choice(words), rng.choice(words)
        u, w = word_elem(uword), state(wword)
        for e in range(-4, 3):
            s = -e - 1
            uw = vertex_coefficient(H2, TRIV2, u, s, w)
            lhs = welem_add(
                d_of(TRIV2, uw),
                welem_scale(vertex_coefficient(H2, TRIV2, u, s, d_of(TRIV2, w)), -1),
            )
            rhs = welem_scale(uw, word_weight(uword) + e)
            assert lhs == rhs


def test_translation_derivative_and_commutator():
    from mosva.modules import apply_D

    words = basis_words_up_to(2, 3)
    rng = random.Random(22)
    for _ in range(25):
        uword, wword = rng.choice(words), rng.choice(words)
        u, w = word_elem(uword), state(wword)
        du = derivative_elem(u)
        for e in range(-5, 3):
            derivative = welem_scale(
                vertex_coefficient(H2, TRIV2, u, -e - 2, w), e + 1
            )
            translated = vertex_coefficient(H2, TRIV2, du, -e - 1, w)
            uw = vertex_coefficient(H2, TRIV2, u, -e - 1, w)
            commutator = welem_add(
                apply_D(TRIV2, uw),
                welem_scale(vertex_coefficient(H2, TRIV2, u, -e - 1, apply_D(TRIV2, w)), -1),
            )
            assert derivative == translated == commutator


def test_single_field_recombination():
    # Y(a0(-m0)u, x) agrees with the contraction-corrected collision of
    # Y(a0(-m0)1, x1) Y(u, x2), diagonal-summed against sample duals.
    h, mod = H2, TRIV2
    rng = random.Random(23)
    words = basis_words_up_to(2, 2)
    duals = [dual_term(wd) for wd in basis_words_up_to(2, 5)]
    for _ in range(12):
        m0 = rng.randint(1, 2)
        a0 = rng.randrange(2)
        uword = rng.choice(words)
        combined = word_elem(((a0, m0),) + uword)
        head = word_elem(((a0, m0),))
        tail = word_elem(uword)
        w = vacuum_state()
        for f in rng.sample(duals, 8):
            for e in range(-4, 3):
                lhs = pairing(f, vertex_coefficient(h, mod, combined, -e - 1, w))
                # corrected product, coefficient of total exponent e
                total = Fraction(0)
                for e2 in range(-6, 7):
                    e1 = e - e2
                    mid = vertex_coefficient(h, mod, tail, -e2 - 1, w)
                    if mid:
                        total += pairing(
                            f, vertex_coefficient(h, mod, head, -e1 - 1, mid)
                        )
                for p, (b, mp) in enumerate(uword):
                    scalar = mp * h.pairing(a0, b) * field_coefficient(m0, mp)
                    if not scalar:
                        continue
                    rest = word_elem(uword[:p] + uword[p + 1:])
                    # (x1-x2)^(-m0-mp) restricted to the diagonal exponent e
                    exp = -(m0 + mp)
                    drop = vertex_coefficient(h, mod, rest, -(e - exp) - 1, w)
                    total -= scalar * pairing(f, drop)
                assert lhs == total


# -- brute-force multi-operator series ----------------------------------------


def test_bruteforce_constant_for_identity_operators():
    f = dual_term(((0, 1),))
    w = state(((0, 1),))
    out = product_series_bruteforce(
        H2, TRIV2, [vacuum_elem(), vacuum_elem()], w, f,
        {"z1": (-3, 3), "z2": (-3, 3)},
    )
    assert out == LaurentPoly(("z1", "z2"), {(0, 0): Fraction(1)})


def test_bruteforce_two_point_function():
    u = word_elem(((0, 1),))
    out = product_series_bruteforce(
        H1, TRIV1, [u, u], vacuum_state(), dual_term(),
        {"z1": (-6, 4), "z2": (-6, 4)},
    )
    # expansion of (z1-z2)^-2: sum (t+1) z1^(-2-t) z2^t
    expect = {(-2 - t, t): Fraction(t + 1) for t in range(5)}
    assert out == LaurentPoly(("z1", "z2"), expect)


def test_bruteforce_noncommutativity_witness():
    f = dual_term(((0, 1), (1, 1)))
    w = vacuum_state()
    win = {"z1": (-4, 4), "z2": (-4, 4)}
    a1, a2 = word_elem(((0, 1),)), word_elem(((1, 1),))
    direct = product_series_bruteforce(H2, TRIV2, [a1, a2], w, f, win)
    swapped = product_series_bruteforce(H2, TRIV2, [a2, a1], w, f, win)
    assert direct == LaurentPoly(("z1", "z2"), {(0, 0): Fraction(1)})
    assert swapped.is_zero()


def test_pruned_exponents_are_never_asked_for(monkeypatch):
    # against a one-weight dual, grading pins the leftmost operator's exponent
    # and the iterate's x2 exponent to one value per call
    calls = []
    real = mosva.fields.vertex_series

    def spy(h, mod, u, w, lo, hi):
        calls.append((mod, set(u), lo, hi))
        return real(h, mod, u, w, lo, hi)

    monkeypatch.setattr(mosva.fields, "vertex_series", spy)
    u1, u2 = word_elem(((0, 1),)), word_elem(((1, 2),))
    f = dual_term((), 2)  # pairs with the contraction of a1 and a2(-2)
    w = vacuum_state(2)
    product = product_series_bruteforce(
        RATIONAL_FORM, DIM4, [u1, u2], w, f, {"z1": (-24, 12), "z2": (-24, 12)}
    )
    leftmost = [(lo, hi) for _, words, lo, hi in calls if words <= set(u1)]
    assert not product.is_zero() and leftmost
    assert all(lo == hi for lo, hi in leftmost)
    calls.clear()
    iterate = iterate_series_bruteforce(
        RATIONAL_FORM, DIM4, u1, u2, f, w, {"x0": (-24, 12), "x2": (-24, 12)}
    )
    outer = [(lo, hi) for mod, _, lo, hi in calls if mod is DIM4]
    assert not iterate.is_zero() and outer
    assert all(lo == hi for lo, hi in outer)


def test_gapped_dual_weights_keep_every_state_between_them():
    # the dual's least and greatest weight bound the states kept, so against
    # weights {0, 3} the states of weight 1 and 2 are kept too
    us = [word_elem(((0, 1),)), word_elem(((1, 2), (0, 1)))]
    w, window = vacuum_state(), {"z1": (-4, 2), "z2": (-4, 2)}
    unpinned = {(): w}
    for name, u in reversed(list(zip(("z1", "z2"), us))):
        unpinned = {
            (e,) + tail: elem
            for tail, elem_in in unpinned.items()
            for e, elem in vertex_series(RATIONAL_FORM, DIM4, u, elem_in, *window[name]).items()
        }
    expect = {}
    for exps, elem in unpinned.items():
        kept = {key: c for key, c in elem.items() if c and 0 <= key_weight(DIM4, key) <= 3}
        if kept:
            expect[exps] = kept
    weights = {key_weight(DIM4, key) for elem in expect.values() for key in elem}
    assert weights == {0, 1, 2, 3}
    assert product_series_states(RATIONAL_FORM, DIM4, us, w, {0, 3}, window) == expect
    assert product_series_states(RATIONAL_FORM, DIM4, us, w, (), window) == {}
