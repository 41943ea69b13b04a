"""Free tensor words, block rewriting, and graded dimensions."""

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mosva.halgebra import (
    CENTRAL,
    HSpace,
    basis_words,
    basis_words_up_to,
    free_add,
    free_mul,
    graded_dimension,
    mode,
    pbw_normal_form,
    render_free_elem,
    render_pbw_elem,
    validate_hspace,
    vacuum_elem,
    weight,
    word_elem,
    word_weight,
)

H2 = HSpace.identity(2)


# -- space validation ---------------------------------------------------------


def test_validate_identity_passes_both_flags():
    assert validate_hspace(H2, True, True) == []


def test_equal_spaces_hash_equal_and_share_a_memo_entry(fresh_elem_terms):
    built = HSpace.from_rows([[1, 0], [0, 1]])
    assert built is not H2 and built == H2 and hash(built) == hash(H2)
    operands = tuple(((word, 1),) for word in (((0, 1),), ((1, 1),)))
    assert fresh_elem_terms(built, operands) is fresh_elem_terms(H2, operands)
    assert fresh_elem_terms.cache_info().currsize == 1


def test_replace_rehashes_the_space():
    rational = HSpace.from_rows([[1, Fraction(1, 2)], [Fraction(1, 3), 2]])
    h = replace(H2, form=rational.form)
    assert h == rational and hash(h) == hash(rational) and hash(h) != hash(H2)


def test_validate_degenerate_form():
    h = HSpace.from_rows([[0, 0], [0, 1]])
    assert validate_hspace(h, require_nondegenerate=True)
    assert validate_hspace(h) == []


def test_validate_asymmetric_form():
    h = HSpace.from_rows([[1, 2], [0, 1]])
    assert validate_hspace(h, require_symmetric=True)
    assert validate_hspace(h, require_nondegenerate=True) == []


# -- weights and products -------------------------------------------------------


def test_weight_of_word():
    assert weight(word_elem(((0, 1), (1, 2)))) == 3


def test_weight_of_vacuum():
    assert weight(vacuum_elem()) == 0


def test_weight_inhomogeneous():
    u = free_add(word_elem(((0, 1),)), word_elem(((0, 2),)))
    assert weight(u) is None


def test_free_mul_concatenates():
    u = free_mul(word_elem(((0, 1),)), word_elem(((1, 1),)))
    assert u == word_elem(((0, 1), (1, 1)))


def test_free_mul_unit():
    u = word_elem(((0, 2), (1, 1)), Fraction(3, 2))
    assert free_mul(vacuum_elem(), u) == u
    assert free_mul(u, vacuum_elem()) == u


def test_free_mul_bilinear():
    u = free_add(word_elem(((0, 1),)), word_elem(((1, 1),)))
    v = word_elem(((0, 2),))
    assert free_mul(u, v) == {
        ((0, 1), (0, 2)): Fraction(1),
        ((1, 1), (0, 2)): Fraction(1),
    }


# -- block rewriting -------------------------------------------------------------


def test_pbw_cross_contraction_vanishes_off_diagonal():
    out = pbw_normal_form([mode(0, 1), mode(1, -1)], H2)
    assert out == {(((1, -1),), ((0, 1),), (), 0): Fraction(1)}


def test_pbw_contraction_on_diagonal():
    out = pbw_normal_form([mode(0, 1), mode(0, -1)], H2)
    assert out == {
        (((0, -1),), ((0, 1),), (), 0): Fraction(1),
        ((), (), (), 1): Fraction(1),
    }


def test_pbw_zero_modes_keep_their_order():
    out = pbw_normal_form([CENTRAL, mode(0, 0), mode(1, 0)], H2)
    assert out == {((), (), (0, 1), 1): Fraction(1)}
    swapped = pbw_normal_form([CENTRAL, mode(1, 0), mode(0, 0)], H2)
    assert swapped == {((), (), (1, 0), 1): Fraction(1)}
    assert out != swapped


def test_pbw_mode_order_scalar():
    # a(2) past a(-2) contracts with scalar 2*(a,a)
    h = HSpace.identity(1)
    out = pbw_normal_form([mode(0, 2), mode(0, -2)], h)
    assert out[((), (), (), 1)] == Fraction(2)


def test_pbw_idempotent_on_normal_words():
    gens = [mode(0, -1), mode(1, -2), mode(0, 3), mode(1, 0), CENTRAL]
    out = pbw_normal_form(gens, H2)
    assert out == {(((0, -1), (1, -2)), ((0, 3),), (1,), 1): Fraction(1)}


def random_hat_word(rng, length, dim=2, max_order=3):
    gens = []
    for _ in range(length):
        if rng.random() < 0.12:
            gens.append(CENTRAL)
        else:
            i = rng.randrange(dim)
            n = rng.choice([n for n in range(-max_order, max_order + 1)])
            gens.append(mode(i, n))
    return gens


def test_pbw_confluence_of_strategies():
    rng = random.Random(7)
    form = HSpace.from_rows([[1, Fraction(1, 2)], [Fraction(1, 3), 2]])
    for _ in range(300):
        gens = random_hat_word(rng, rng.randint(0, 6))
        left = pbw_normal_form(gens, form, "leftmost")
        right = pbw_normal_form(gens, form, "rightmost")
        assert left == right


def swap_only_normal_form(gens, h, strategy):
    """Reference: swap the strategy's first adjacent inversion until none is
    left, contracting an a(m) a(-m) pair as it swaps."""
    result = {}
    stack = [(tuple(gens), 1)]
    while stack:
        word, coeff = stack.pop()
        ranks = [3 if g[0] == "k" else 0 if g[2] < 0 else 1 if g[2] > 0 else 2 for g in word]
        positions = range(len(word) - 1)
        if strategy == "rightmost":
            positions = reversed(positions)
        idx = next((p for p in positions if ranks[p] > ranks[p + 1]), None)
        if idx is None:
            key = (
                tuple((g[1], g[2]) for g in word if g[0] == "m" and g[2] < 0),
                tuple((g[1], g[2]) for g in word if g[0] == "m" and g[2] > 0),
                tuple(g[1] for g in word if g[0] == "m" and g[2] == 0),
                sum(1 for g in word if g[0] == "k"),
            )
            result[key] = result.get(key, 0) + coeff
            continue
        x, y = word[idx], word[idx + 1]
        stack.append((word[:idx] + (y, x) + word[idx + 2:], coeff))
        if x[0] == "m" and y[0] == "m" and x[2] > 0 and x[2] + y[2] == 0:
            scalar = coeff * x[2] * h.pairing(x[1], y[1])
            if scalar:
                stack.append((word[:idx] + (CENTRAL,) + word[idx + 2:], scalar))
    return {key: c for key, c in result.items() if c}


HAT_GENS = st.one_of(
    st.just(CENTRAL), st.builds(mode, st.integers(0, 1), st.integers(-2, 2))
)
FORM_ENTRIES = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-1, 3)])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(HAT_GENS, max_size=7),
    st.lists(FORM_ENTRIES, min_size=4, max_size=4),
    st.sampled_from(["leftmost", "rightmost"]),
)
def test_pbw_matches_the_swap_only_reference(gens, entries, strategy):
    h = HSpace.from_rows([entries[:2], entries[2:]])
    assert pbw_normal_form(gens, h, strategy) == swap_only_normal_form(gens, h, strategy)


def test_pbw_preserves_mode_multiset_up_to_contractions():
    rng = random.Random(11)
    for _ in range(200):
        gens = random_hat_word(rng, rng.randint(0, 6))
        input_modes = sorted(g for g in gens if g[0] == "m")
        input_k = sum(1 for g in gens if g[0] == "k")
        input_sum = sum(g[2] for g in gens if g[0] == "m")
        for (neg, pos, zero, c), _ in pbw_normal_form(gens, H2).items():
            out_modes = list(neg) + list(pos) + [(i, 0) for i in zero]
            assert sum(n for _, n in out_modes) == input_sum
            removed = len(input_modes) - len(out_modes)
            assert removed % 2 == 0
            assert c == input_k + removed // 2


def test_free_mul_associative_random():
    rng = random.Random(3)

    def rand_elem():
        out = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(
                (rng.randrange(2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))
            )
            out[w] = out.get(w, Fraction(0)) + Fraction(rng.randint(-3, 3))
        return {w: c for w, c in out.items() if c}

    for _ in range(80):
        u, v, w = rand_elem(), rand_elem(), rand_elem()
        assert free_mul(free_mul(u, v), w) == free_mul(u, free_mul(v, w))


def test_weight_additive_under_mul():
    u = word_elem(((0, 2),))
    v = word_elem(((1, 1), (0, 3)))
    assert weight(free_mul(u, v)) == weight(u) + weight(v)


# -- graded dimensions -------------------------------------------------------------


def test_graded_dimension_d1():
    h = HSpace.identity(1)
    assert [graded_dimension(h, n) for n in range(5)] == [1, 1, 2, 4, 8]


def test_graded_dimension_d2_weight2():
    assert graded_dimension(H2, 2) == 6


def test_graded_dimension_vacuum_only():
    for d in (1, 2, 3):
        assert graded_dimension(HSpace.identity(d), 0) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 7))
def test_graded_dimension_matches_enumeration(d, n):
    assert graded_dimension(HSpace.identity(d), n) == len(basis_words(d, n))


def test_graded_dimension_recurrence():
    for d in (1, 2, 3):
        h = HSpace.identity(d)
        for n in range(1, 8):
            assert graded_dimension(h, n) == d * sum(
                graded_dimension(h, n - m) for m in range(1, n + 1)
            )


# -- rendering -----------------------------------------------------------------


def test_render_free_elem():
    u = free_add(
        word_elem(((0, 1), (1, 2)), Fraction(1, 2)), word_elem(((1, 1),))
    )
    assert render_free_elem(u) == "a2(-1)1 + 1/2*a1(-1)a2(-2)1"


def test_render_pbw_matches_cli_contract():
    out = pbw_normal_form([mode(0, 1), mode(0, -1)], HSpace.identity(1))
    assert render_pbw_elem(out) == "a1(-1)a1(1) + 1*k"


def test_basis_words_up_to_counts():
    words = basis_words_up_to(2, 3)
    assert len(words) == 1 + 2 + 6 + 18
    assert all(word_weight(w) <= 3 for w in words)
