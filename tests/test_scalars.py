"""Exact scalars: integral coefficients stay int, others are Fractions, and
nothing inexact becomes a coefficient; and the work meter beside them."""

from fractions import Fraction

import pytest

from mosva.fields import product_series_bruteforce, vertex_series
from mosva.halgebra import HSpace, free_add, free_mul, free_scale, mode, pbw_normal_form, word_elem
from mosva.laurent import LaurentPoly
from mosva.modules import (
    ModulePresentation, apply_D, apply_d, apply_mode, dual_term, pairing, state, vacuum_state,
)
from mosva.ratfun import ratfun_sum
from mosva.scalars import LETTERS, WorkLimit, charge, parse_rational, q, work_budget
from mosva.wick import matrix_coeff_iterate, matrix_coeff_product, product_table_raw

H2 = HSpace.identity(2)
TRIV = ModulePresentation.trivial(2)
U1 = word_elem(((0, 1), (1, 2)))
U2 = word_elem(((1, 1), (0, 1)))


def _types(values):
    return {type(c) for c in values}


def test_q_keeps_ints_and_reduces_integral_fractions():
    assert q(7) == 7 and type(q(7)) is int
    assert q(Fraction(6, 3)) == 2 and type(q(Fraction(6, 3))) is int
    assert q(Fraction(1, 2)) == Fraction(1, 2) and type(q(Fraction(1, 2))) is Fraction
    assert q("3/6") == Fraction(1, 2)


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False])
def test_q_refuses_floats_and_bools(bad):
    with pytest.raises(TypeError):
        q(bad)


def test_parse_rational_gives_an_int_for_an_integral_literal():
    assert parse_rational("4/2") == 2 and type(parse_rational("4/2")) is int
    assert type(parse_rational("-5")) is int
    assert parse_rational("2/4") == Fraction(1, 2)


def test_inexact_coefficients_are_refused():
    with pytest.raises(TypeError):
        LaurentPoly(("z1",), {(1,): 0.5})
    with pytest.raises(TypeError):
        word_elem(((0, 1),), 0.25)
    with pytest.raises(TypeError):
        free_scale(word_elem(((0, 1),)), True)
    with pytest.raises(TypeError):
        HSpace(2, ((1, 0), (0, 1.0)))
    with pytest.raises(TypeError):
        ModulePresentation.build([0.5], [[[0]]], [[0]])


# hand-built element dicts do not pass through q; the entry points check them
H1, TRIV1, A1 = HSpace.identity(1), ModulePresentation.trivial(1), word_elem(((0, 1),))
KEY = (((0, 1),), 0)


@pytest.mark.parametrize("bad", [0.5, True])
def test_matrix_coeff_refuses_inexact_hand_built_elements(bad):
    vac = vacuum_state()
    for us, f, w in [
        ([{((0, 1),): bad}, A1], vac, vac),
        ([A1], {KEY: bad}, vac),
        ([A1], vac, {KEY: bad}),
    ]:
        with pytest.raises(TypeError):
            matrix_coeff_product(H1, TRIV1, us, f, w)
        with pytest.raises(TypeError):
            matrix_coeff_iterate(H1, TRIV1, us[0], A1, f, w)


@pytest.mark.parametrize("bad", [0.5, True])
def test_vertex_series_refuses_inexact_hand_built_elements(bad):
    with pytest.raises(TypeError):
        vertex_series(H1, TRIV1, {((0, 1),): bad}, vacuum_state(), -2, 2)
    with pytest.raises(TypeError):
        vertex_series(H1, TRIV1, A1, {KEY: bad}, -2, 2)


@pytest.mark.parametrize("bad", [0.5, True])
def test_product_series_refuses_inexact_hand_built_elements(bad):
    window = {"z1": (-4, 2), "z2": (-4, 2)}
    vac = vacuum_state()
    for us, w, f in [
        ([{((0, 1),): bad}, A1], vac, vac),
        ([A1, A1], {KEY: bad}, {KEY: 1}),
        ([A1, A1], vac, {KEY: bad}),
    ]:
        with pytest.raises(TypeError):
            product_series_bruteforce(H1, TRIV1, us, w, f, window)


@pytest.mark.parametrize("bad", [0.5, True])
def test_product_table_refuses_inexact_hand_built_elements(bad):
    for us, w in [([{((0, 1),): bad}, A1], vacuum_state()), ([A1, A1], {KEY: bad})]:
        with pytest.raises(TypeError):
            product_table_raw(H1, TRIV1, us, w, 4)


@pytest.mark.parametrize("bad", [0.5, True])
def test_pairing_and_apply_mode_refuse_inexact_hand_built_elements(bad):
    with pytest.raises(TypeError):
        pairing({KEY: bad}, {KEY: 1})
    with pytest.raises(TypeError):
        pairing({KEY: 1}, {KEY: bad})
    with pytest.raises(TypeError):
        apply_mode(H1, TRIV1, 0, -1, {KEY: bad})


@pytest.mark.parametrize("bad", [0.5, True])
def test_apply_D_refuses_inexact_hand_built_elements(bad):
    with pytest.raises(TypeError):
        apply_D(TRIV1, {KEY: bad})


@pytest.mark.parametrize("bad", [0.5, True])
def test_apply_d_refuses_inexact_hand_built_elements(bad):
    with pytest.raises(TypeError):
        apply_d(TRIV1, {KEY: bad})


@pytest.mark.parametrize("bad", [0.5, True])
def test_free_add_refuses_inexact_hand_built_elements(bad):
    for u, v in [({((0, 1),): bad}, A1), (A1, {((0, 1),): bad})]:
        with pytest.raises(TypeError):
            free_add(u, v)


@pytest.mark.parametrize("bad", [0.5, True])
def test_free_mul_refuses_inexact_hand_built_elements(bad):
    for u, v in [({((0, 1),): bad}, A1), (A1, {((0, 1),): bad})]:
        with pytest.raises(TypeError):
            free_mul(u, v)


@pytest.mark.parametrize("bad", [0.5, True])
def test_free_scale_refuses_an_inexact_element_as_well_as_scalar(bad):
    for scalar in (1, 2, 0):
        with pytest.raises(TypeError):
            free_scale({((0, 1),): bad}, scalar)


def test_identity_form_coefficients_are_ints():
    table = product_table_raw(H2, TRIV, [U1, U2], vacuum_state(), 6)
    assert table
    for parts in table.values():
        for _, numer in parts:
            assert _types(numer.terms.values()) == {int}
        assert _types(ratfun_sum(parts).numer.terms.values()) == {int}
    f = dual_term(((0, 1), (1, 2), (1, 1), (0, 1)))
    rf = matrix_coeff_product(H2, TRIV, [U1, U2], f, vacuum_state())
    assert not rf.is_zero() and _types(rf.numer.terms.values()) == {int}
    window = {"z1": (-6, 2), "z2": (-6, 2)}
    series = product_series_bruteforce(H2, TRIV, [U1, U2], vacuum_state(), f, window)
    assert series.terms and _types(series.terms.values()) == {int}
    nf = pbw_normal_form([mode(0, 2), mode(1, 1), mode(0, -2), mode(1, -1), mode(0, 0)], H2)
    assert len(nf) > 1 and _types(nf.values()) == {int}


def test_rational_form_keeps_fractions_exact():
    h = HSpace.from_rows([["1", "1/2"], ["1/3", "2"]])
    assert h.pairing(0, 1) == Fraction(1, 2) and type(h.pairing(0, 0)) is int
    # a1(-1) against a2(-1) contracts to (a1, a2) / (z1 - z2)^2
    us = [word_elem(((0, 1),)), word_elem(((1, 1),))]
    rf = matrix_coeff_product(h, TRIV, us, vacuum_state(), vacuum_state())
    assert rf.numer.terms == {(0, 0): Fraction(1, 2)} and rf.poles == {("z1", "z2"): 2}


def test_fractional_inputs_give_values_equal_to_their_ints():
    # constructors normalize through q and results are not renormalized, so
    # fractional inputs can give an integral Fraction; it compares and hashes
    # as its int
    h1, triv1, half = HSpace.identity(1), ModulePresentation.trivial(1), Fraction(1, 2)
    a1 = word_elem(((0, 1),))
    values = [free_scale({((0, 1),): half}, 2)[((0, 1),)], pairing({((), 0): half}, {((), 0): 2})]
    series = vertex_series(h1, triv1, word_elem(((0, 1),), 2), state((), 0, half), 0, 2)
    assert series == {e: {(((0, e + 1),), 0): 1} for e in range(3)}
    values += [elem[(((0, e + 1),), 0)] for e, elem in series.items()]
    rf = matrix_coeff_product(h1, triv1, [a1, a1], {(((0, 1), (0, 1)), 0): 2}, state((), 0, half))
    assert rf.render() == "1" and rf.poles == {} and list(rf.numer.terms) == [(0, 0)]
    values.append(rf.numer.terms[(0, 0)])
    for value in values:
        assert value == 1 and hash(value) == hash(1)


def test_work_budget_admits_its_budget_and_refuses_past_it():
    with work_budget(10):
        charge(4, "a")
        charge(6, "b")  # exactly the budget
        with pytest.raises(WorkLimit) as err:
            charge(1, "c")
    assert err.value.args == ("c",)
    charge(10**18, "unmetered")  # the block's exit turned the meter off


def test_work_budget_restores_the_meter_it_found():
    with work_budget(5):
        with pytest.raises(WorkLimit):
            with work_budget(None):
                charge(100, "free under None")
                raise WorkLimit("raised inside")
        charge(5, "the outer budget is back")
        with pytest.raises(WorkLimit):
            charge(1, "past it")


def test_a_metered_library_loop_stops_at_its_budget():
    # a1(1)^2 a1(-1) pops words of 3, 2, 3, 2 and 3 letters
    gens = [mode(0, 1), mode(0, 1), mode(0, -1)]
    with work_budget(13):
        assert pbw_normal_form(gens, H2)
    with work_budget(12), pytest.raises(WorkLimit, match=LETTERS):
        pbw_normal_form(gens, H2)
