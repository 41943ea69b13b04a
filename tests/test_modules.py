"""Module presentations, mode actions, and the dual pairing."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from mosva.halgebra import HSpace
from mosva.modules import (
    ModulePresentation,
    apply_D,
    apply_d,
    apply_mode,
    dual_term,
    key_weight,
    pairing,
    state,
    vacuum_state,
    validate_module,
    welem_add,
    welem_scale,
)
from mosva.wick import _annihilated, _pairing_table_cached

H1 = HSpace.identity(1)
H2 = HSpace.identity(2)
TRIV1 = ModulePresentation.trivial(1)
TRIV2 = ModulePresentation.trivial(2)


# -- validation ----------------------------------------------------------------


def test_equal_modules_hash_equal_and_share_a_memo_entry():
    built = ModulePresentation.build([0], [[[0]], [[0]]], [[0]])
    assert built is not TRIV2 and built == TRIV2 and hash(built) == hash(TRIV2)
    args = ((("z1", 0, 1),), tuple(sorted(vacuum_state().items())), 1)
    assert _pairing_table_cached(H2, built, *args) is _pairing_table_cached(H2, TRIV2, *args)


def test_equal_modules_share_an_annihilation_memo_entry():
    built = ModulePresentation.build([0], [[[0]], [[0]]], [[0]])
    args = ((("z1", 0, 1),), (((0, 1),), 0))
    assert _annihilated(H2, built, *args) is _annihilated(H2, TRIV2, *args)


def test_replace_rehashes_the_module():
    graded = ModulePresentation.build([0, 1], [[[0, 0], [0, 0]]], [[0, 0], [1, 0]])
    mod = replace(graded, dm=((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))))
    rebuilt = ModulePresentation.build([0, 1], [[[0, 0], [0, 0]]], [[0, 0], [2, 0]])
    assert mod == rebuilt and hash(mod) == hash(rebuilt) and hash(mod) != hash(graded)


def test_validate_trivial_module():
    assert validate_module(TRIV2) == []


def test_validate_arbitrary_1x1_action():
    mod = ModulePresentation.build([0], [[[5]], [[-7]]], [[0]])
    assert validate_module(mod) == []


def test_validate_noncommuting_zero_modes_allowed():
    mod = ModulePresentation.build(
        [0, 0],
        [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
        [[0, 0], [0, 0]],
    )
    assert validate_module(mod) == []


def test_validate_dm_weight_one():
    good = ModulePresentation.build(
        [0, 1], [[[1, 0], [0, 1]], [[2, 0], [0, 2]]], [[0, 0], [1, 0]]
    )
    assert validate_module(good) == []
    bad = ModulePresentation.build(
        [0, 1], [[[1, 0], [0, 1]], [[2, 0], [0, 2]]], [[0, 1], [0, 0]]
    )
    assert any("weight 1" in p for p in validate_module(bad))


def test_validate_dm_commutation():
    bad = ModulePresentation.build(
        [0, 1], [[[1, 0], [0, 2]], [[0, 0], [0, 0]]], [[0, 0], [1, 0]]
    )
    assert any("commute" in p for p in validate_module(bad))


def test_validate_grading_of_action():
    bad = ModulePresentation.build(
        [0, 1], [[[0, 1], [0, 0]], [[0, 0], [0, 0]]], [[0, 0], [0, 0]]
    )
    assert any("grading" in p for p in validate_module(bad))


# -- mode application -------------------------------------------------------------


def test_negative_mode_prepends():
    w = apply_mode(H1, TRIV1, 0, -2, vacuum_state())
    assert w == state(((0, 2),))


def test_positive_mode_contracts():
    w = apply_mode(H1, TRIV1, 0, 2, state(((0, 2),)))
    assert w == welem_scale(vacuum_state(), 2)


def test_positive_mode_walks_through_word():
    # a1(1) on a2(-1)a1(-1)1: contraction with a2 vanishes, with a1 gives 1
    w = apply_mode(H2, TRIV2, 0, 1, state(((1, 1), (0, 1))))
    assert w == state(((1, 1),))


def test_positive_mode_annihilates_vacuum():
    assert apply_mode(H2, TRIV2, 0, 3, vacuum_state()) == {}


def test_zero_mode_acts_by_matrix():
    mod = ModulePresentation.build(
        [0, 0], [[[0, 0], [1, 0]], [[0, 1], [0, 0]]], [[0, 0], [0, 0]]
    )
    assert apply_mode(H2, mod, 0, 0, vacuum_state(0)) == state((), 1)
    assert apply_mode(H2, mod, 0, 0, state(((0, 1),), 0)) == state(((0, 1),), 1)


def test_zero_modes_compose_as_matrices_in_order():
    mod = ModulePresentation.build(
        [0, 0], [[[0, 1], [0, 0]], [[0, 0], [1, 0]]], [[0, 0], [0, 0]]
    )
    ab = apply_mode(H2, mod, 0, 0, apply_mode(H2, mod, 1, 0, vacuum_state(0)))
    ba = apply_mode(H2, mod, 1, 0, apply_mode(H2, mod, 0, 0, vacuum_state(0)))
    assert ab == vacuum_state(0)
    assert ba == {}


def test_mode_index_out_of_range():
    with pytest.raises(IndexError):
        apply_mode(H1, TRIV1, 2, -1, vacuum_state())


# -- grading and translation -------------------------------------------------------


def test_apply_d_eigenvalues():
    w = state(((0, 1), (0, 2)))
    assert apply_d(TRIV1, w) == welem_scale(w, 3)
    assert apply_d(TRIV1, vacuum_state()) == {}


def test_apply_d_termwise():
    w = welem_add(state(((0, 1),)), welem_scale(state(((0, 2),)), 4))
    out = apply_d(TRIV1, w)
    assert out == welem_add(state(((0, 1),)), welem_scale(state(((0, 2),)), 8))


def test_apply_D_single_factor():
    assert apply_D(TRIV1, state(((0, 1),))) == state(((0, 2),))


def test_apply_D_vacuum():
    assert apply_D(TRIV1, vacuum_state()) == {}


def test_apply_D_two_factors():
    out = apply_D(TRIV2, state(((0, 1), (1, 2))))
    assert out == welem_add(
        state(((0, 2), (1, 2))), welem_scale(state(((0, 1), (1, 3))), 2)
    )


def test_apply_D_includes_module_part():
    mod = ModulePresentation.build(
        [0, 1], [[[0, 0], [0, 0]]], [[0, 0], [1, 0]]
    )
    out = apply_D(mod, vacuum_state(0))
    assert out == state((), 1)


# -- pairing --------------------------------------------------------------------


def test_pairing_dual_basis():
    f = dual_term(((0, 1),))
    assert pairing(f, state(((0, 1),))) == 1
    assert pairing(f, state(((1, 1),))) == 0


def test_pairing_bilinear():
    f = dual_term(((0, 1),))
    u, v = state(((0, 1),)), state(((0, 2),))
    combo = welem_add(welem_scale(u, 2), welem_scale(v, 3))
    assert pairing(f, combo) == 2 * pairing(f, u) + 3 * pairing(f, v)


# -- algebraic properties -----------------------------------------------------------


def random_state(rng, dim, mod, max_weight=3):
    out = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, 2)
        word = tuple((rng.randrange(dim), rng.randint(1, max_weight)) for _ in range(k))
        s = rng.randrange(mod.dim)
        key = (word, s)
        out[key] = out.get(key, Fraction(0)) + Fraction(rng.randint(-3, 3))
    return {k: c for k, c in out.items() if c}


def test_heisenberg_relation_at_module_level():
    rng = random.Random(5)
    h = HSpace.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 3]])
    for _ in range(60):
        w = random_state(rng, 2, TRIV2)
        i, j = rng.randrange(2), rng.randrange(2)
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        lhs = apply_mode(h, TRIV2, i, n, apply_mode(h, TRIV2, j, -m, w))
        rhs = apply_mode(h, TRIV2, j, -m, apply_mode(h, TRIV2, i, n, w))
        diff = welem_add(lhs, welem_scale(rhs, -1))
        expect = welem_scale(w, n * h.pairing(i, j)) if n == m else {}
        assert diff == expect


def test_weight_shift_of_modes():
    rng = random.Random(6)
    for _ in range(40):
        w = random_state(rng, 2, TRIV2)
        n = rng.choice([-3, -2, -1, 1, 2, 3])
        out = apply_mode(H2, TRIV2, rng.randrange(2), n, w)
        for key in out:
            assert any(
                key_weight(TRIV2, key) == key_weight(TRIV2, k) - n for k in w
            )


def test_D_mode_commutators():
    # [D, a(-m)] = m a(-m-1) and [D, a(m)] = -m a(m-1) on sample states
    rng = random.Random(8)
    for _ in range(40):
        w = random_state(rng, 1, TRIV1)
        m = rng.randint(1, 3)
        for n in (-m, m):
            lhs = welem_add(
                apply_D(TRIV1, apply_mode(H1, TRIV1, 0, n, w)),
                welem_scale(apply_mode(H1, TRIV1, 0, n, apply_D(TRIV1, w)), -1),
            )
            if n < 0:
                rhs = welem_scale(apply_mode(H1, TRIV1, 0, n - 1, w), -n)
            else:
                rhs = welem_scale(apply_mode(H1, TRIV1, 0, n - 1, w), -n)
            assert lhs == rhs


def test_zero_modes_commute_with_nonzero_modes():
    mod = ModulePresentation.build(
        [0, 0], [[[0, 1], [0, 0]], [[0, 0], [1, 0]]], [[0, 0], [0, 0]]
    )
    rng = random.Random(12)
    for _ in range(40):
        w = random_state(rng, 2, mod)
        i, j = rng.randrange(2), rng.randrange(2)
        n = rng.choice([-3, -2, -1, 1, 2, 3])
        ab = apply_mode(H2, mod, i, 0, apply_mode(H2, mod, j, n, w))
        ba = apply_mode(H2, mod, j, n, apply_mode(H2, mod, i, 0, w))
        assert ab == ba


def test_no_weight_below_module_minimum():
    rng = random.Random(9)
    mod = ModulePresentation.build(
        [Fraction(1, 2), Fraction(3, 2)],
        [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
        [[0, 0], [1, 0]],
    )
    for _ in range(40):
        w = random_state(rng, 2, mod)
        n = rng.choice([-2, -1, 0, 1, 2])
        out = apply_mode(H2, mod, rng.randrange(2), n, w)
        for key in out:
            assert key_weight(mod, key) >= mod.min_weight
